"""Small-ball probability surrogate intensity for Hilbert-valued random curves.

The package covers the full pipeline: discretized curves with quadrature
inner products (``grids``), empirical Karhunen-Loeve decomposition
(``fpca``), the small-ball factorization machinery with eigenvalue-decay
classification and closed-form intensities (``smbp``), kernel density
estimation of score densities (``density``), seeded process generators
(``processes``), and a reproducible Monte Carlo harness (``experiments``)
with a thin CLI on top (``cli``).
"""

__version__ = "0.1.0"

from .density import (
    COMPACT_FAMILIES,
    EPANECHNIKOV,
    GAUSSIAN,
    KERNEL_FAMILIES,
    TRUNCATED_GAUSSIAN,
    DensityEstimator,
    KernelSpec,
    bandwidth_normal_scale,
    bandwidth_rate,
    estimate_surrogate_density,
    kde_evaluate_many,
    kernel_profile,
    resolve_bandwidth,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    ReplicationResult,
    ape,
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
    DISTRIBUTIONS,
    EXP_POWER_KL,
    GAUSSIAN_KL,
    PROCESS_KINDS,
    SINE,
    STD_CHISQ8,
    STD_NORMAL,
    STD_STUDENT_T5,
    WIENER,
    ProcessSpec,
    SeededRng,
    default_b_grid,
    default_grid,
    draw_scalar,
    sample_exp_power_kl,
    sample_gaussian_kl,
    sample_process,
    sample_sine,
    sample_wiener,
    target_curves,
    true_intensity,
    wiener_eigenvalues,
    wiener_tail_mass,
)
from .smbp import (
    DecayClass,
    DecayReport,
    FactorizationReport,
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

__all__ = [name for name in dir() if not name.startswith("_")]
