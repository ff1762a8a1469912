"""Small-ball probability surrogate intensity for Hilbert-valued random curves.

The package covers the full pipeline: discretized curves with quadrature
inner products (``grids``), empirical Karhunen-Loeve decomposition
(``fpca``), the small-ball factorization machinery with eigenvalue-decay
classification and closed-form intensities (``smbp``), kernel density
estimation of score densities (``density``), seeded process generators
(``processes``), and the one fit-to-estimate path with a reproducible Monte
Carlo harness (``experiments``) and a thin CLI on top (``cli``).

``__all__`` lists the names the demos, README and tests import from here;
result records and the kind/law/family enumerations stay in their modules.
"""

__version__ = "0.1.0"

from .density import (
    EPANECHNIKOV,
    GAUSSIAN,
    TRUNCATED_GAUSSIAN,
    DensityEstimator,
    KernelSpec,
    bandwidth_normal_scale,
    bandwidth_rate,
    kde_evaluate_many,
    kernel_profile,
    resolve_bandwidth,
)
from .experiments import (
    ExperimentConfig,
    ape,
    estimate_surrogate_density,
    rmsep,
    run_experiment,
    run_replication,
    write_ape_csv,
    write_table1_csv,
    write_table2_csv,
)
from .fpca import (
    EigenSystem,
    ScoreMatrix,
    eigendecompose,
    empirical_covariance,
    empirical_mean,
    fev,
    fit_fpca,
    scores,
    select_dimension_fev,
    write_eigensystem_csv,
)
from .grids import (
    CsvFormatError,
    Curve,
    FunctionalSample,
    Grid,
    GridMismatchError,
    inner_product,
    norm,
    read_sample_csv,
    write_sample_csv,
)
from .processes import (
    ProcessSpec,
    SeededRng,
    default_b_grid,
    default_grid,
    draw_scalar,
    sample_process,
    target_curves,
    true_intensity,
    wiener_eigenvalues,
    wiener_tail_mass,
)
from .smbp import (
    DecayClass,
    SmallBallWarning,
    ball_volume,
    classify_decay,
    correction_factor,
    empirical_smbp,
    exp_power_intensity,
    factorize,
    gaussian_intensity,
    select_dimension_hyper,
    select_dimension_prop1,
    tail_statistic,
    volume_factor,
    wiener_intensity,
)

__all__ = [
    "EPANECHNIKOV",
    "GAUSSIAN",
    "TRUNCATED_GAUSSIAN",
    "DensityEstimator",
    "KernelSpec",
    "bandwidth_normal_scale",
    "bandwidth_rate",
    "kde_evaluate_many",
    "kernel_profile",
    "resolve_bandwidth",
    "ExperimentConfig",
    "ape",
    "estimate_surrogate_density",
    "rmsep",
    "run_experiment",
    "run_replication",
    "write_ape_csv",
    "write_table1_csv",
    "write_table2_csv",
    "EigenSystem",
    "ScoreMatrix",
    "eigendecompose",
    "empirical_covariance",
    "empirical_mean",
    "fev",
    "fit_fpca",
    "scores",
    "select_dimension_fev",
    "write_eigensystem_csv",
    "CsvFormatError",
    "Curve",
    "FunctionalSample",
    "Grid",
    "GridMismatchError",
    "inner_product",
    "norm",
    "read_sample_csv",
    "write_sample_csv",
    "ProcessSpec",
    "SeededRng",
    "default_b_grid",
    "default_grid",
    "draw_scalar",
    "sample_process",
    "target_curves",
    "true_intensity",
    "wiener_eigenvalues",
    "wiener_tail_mass",
    "DecayClass",
    "SmallBallWarning",
    "ball_volume",
    "classify_decay",
    "correction_factor",
    "empirical_smbp",
    "exp_power_intensity",
    "factorize",
    "gaussian_intensity",
    "select_dimension_hyper",
    "select_dimension_prop1",
    "tail_statistic",
    "volume_factor",
    "wiener_intensity",
]
