"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance below is pinned; the heavier
criteria are seeded Monte Carlo studies and take a few seconds each.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from smallball import (
    Curve,
    DecayClass,
    DensityEstimator,
    ExperimentConfig,
    Grid,
    KernelSpec,
    ProcessSpec,
    ScoreMatrix,
    SeededRng,
    SmallBallWarning,
    ape,
    ball_volume,
    bandwidth_normal_scale,
    bandwidth_rate,
    classify_decay,
    correction_factor,
    empirical_smbp,
    estimate_surrogate_density,
    factorize,
    fev,
    fit_fpca,
    gaussian_intensity,
    kde_evaluate_many,
    kernel_profile,
    rmsep,
    run_experiment,
    sample_gaussian_kl,
    sample_sine,
    sample_wiener,
    scores,
    select_dimension_hyper,
    target_curves,
    true_intensity,
    wiener_eigenvalues,
    wiener_intensity,
)
from smallball.processes import sine_basis_function

BASE_SEED = 20260810
FEV_TABLE = (0.811, 0.901, 0.933, 0.950, 0.960, 0.966)
TABLE1_NORMAL = {50: 3.235e-2, 200: 1.091e-2, 1000: 0.330e-2}
TABLE2_REFERENCE_N1000_D1 = 0.345e-2
# Criterion 4: each law's Monte Carlo mean must lie within this many standard
# errors of its exact expected RMSEP, and the oracle's quadrature must match
# the Gaussian closed form to this relative tolerance.
ORACLE_SE_BAND = 4.0
ORACLE_CLOSED_FORM_RTOL = 1e-8
ORACLE_QUADRATURE_POINTS = 4001
# The integration grid runs this many bandwidths past the targets; the Gaussian
# kernel is below 1e-31 of its peak there.
ORACLE_REACH = 12.0
# The unit-variance score laws of the sine process, written from scipy.stats
# rather than from the package's own densities.
SCORE_LAWS = {
    "std-normal": stats.norm(),
    "std-t5": stats.t(5, scale=math.sqrt(3.0 / 5.0)),
    "std-chisq8": stats.chi2(8, loc=-2.0, scale=0.25),
}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_exact_formula_suite():
    start = time.time()
    ok = abs(ball_volume(1, 0.5) - 1.0) < 1e-12
    ok &= abs(ball_volume(2, 1.0) - math.pi) < 1e-12
    ok &= abs(ball_volume(3, 1.0) - 4.0 * math.pi / 3.0) < 1e-12
    for d in range(3, 51):
        ratio = ball_volume(d, 0.7) / (ball_volume(d - 2, 0.7) * 2.0 * math.pi * 0.49 / d)
        ok &= abs(ratio - 1.0) < 1e-12
    ok &= kernel_profile(KernelSpec("epanechnikov-radial", 1), 0.0) == pytest.approx(0.75, abs=1e-15)
    ok &= bandwidth_rate(100_000, 1, 2.0, 1.0) == pytest.approx(0.1, abs=1e-15)
    ok &= bandwidth_rate(1, 4, 3.0, 1.0) == 1.0
    ok &= rmsep([1.0, 2.0], [1.0, 2.0]) == 0.0
    ok &= rmsep([0.0, 0.0], [1.0, 2.0]) == 1.0
    ok &= abs(rmsep([1.1, 2.2], [1.0, 2.0]) - 0.01) < 1e-12
    ok &= ape(0.9, 1.2) == pytest.approx(0.25, abs=1e-15)
    ok &= ape(2.0, 1.0) == 1.0
    elapsed = time.time() - start
    report(1, "exact-formula suite", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_wiener_fev_table():
    start = time.time()
    analytic = wiener_eigenvalues(100_000)
    gaps = [abs(fev(analytic, d) - FEV_TABLE[d - 1]) for d in range(1, 7)]
    ok = max(gaps) < 1e-3
    sample = sample_wiener(2000, Grid.uniform(0.0, 1.0, 100), 50, SeededRng(0, 0))
    system = fit_fpca(sample)
    empirical_gaps = [abs(fev(system.eigenvalues, d) - FEV_TABLE[d - 1]) for d in range(1, 7)]
    ok &= max(empirical_gaps) < 0.02
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(
        2,
        "Wiener FEV table",
        ok,
        f"analytic gap {max(gaps):.1e}, empirical gap {max(empirical_gaps):.3f}, {elapsed:.1f}s",
    )


def _sine_study(dist: str, n: int, replications: int, seed: int):
    cfg = ExperimentConfig(
        process=ProcessSpec(kind="sine", dist=dist),
        n=n,
        d_values=(1,),
        replications=replications,
        base_seed=seed,
    )
    return run_experiment(cfg)


def test_criterion_03_table1_replication():
    means = {n: _sine_study("std-normal", n, 200, BASE_SEED).rmsep_mean[1] for n in (50, 200, 1000)}
    in_band = all(abs(means[n] / TABLE1_NORMAL[n] - 1.0) <= 0.35 for n in means)
    monotone = means[50] > means[200] > means[1000]
    detail = ", ".join(f"n={n}: {means[n] * 100:.3f}e-2 (ref {TABLE1_NORMAL[n] * 100:.3f}e-2)" for n in means)
    report(3, "Table 1 replication", in_band and monotone, detail)


def _oracle_kde_moments(pdf, b: np.ndarray, h: float):
    """E K_h(b - A) and E K_h(b - A)^2 for the Gaussian kernel K_h and A ~ pdf.

    Trapezoid quadrature on a uniform grid that covers the targets plus
    ORACLE_REACH bandwidths on either side; it shares no code with the
    package's KDE.
    """
    u = np.linspace(b[0] - ORACLE_REACH * h, b[-1] + ORACLE_REACH * h, ORACLE_QUADRATURE_POINTS)
    weights = np.full(u.size, u[1] - u[0])
    weights[[0, -1]] *= 0.5
    kernel = np.exp(-0.5 * ((b[:, None] - u[None, :]) / h) ** 2) / (h * math.sqrt(2.0 * math.pi))
    mass = pdf(u) * weights
    return kernel @ mass, (kernel * kernel) @ mass


def _oracle_expected_rmsep(pdf, b: np.ndarray, n: int) -> float:
    """Exact expected RMSEP of the n-point Gaussian KDE at the unit-variance normal-scale bandwidth.

    RMSEP divides by the fixed sum f(b)^2, so its expectation is the sum over
    the targets of bias^2 + variance, with variance (E K_h^2 - (E K_h)^2) / n.
    """
    h = (4.0 / (3.0 * n)) ** 0.2
    first, second = _oracle_kde_moments(pdf, b, h)
    truth = pdf(b)
    return float(np.sum((first - truth) ** 2 + (second - first**2) / n) / np.sum(truth**2))


def _oracle_closed_form_gap(b: np.ndarray, n: int) -> float:
    """Largest relative gap between the oracle moments of the normal law and their closed form.

    For A ~ N(0, 1), E K_h(b - A) is the N(0, 1 + h^2) density at b, and
    E K_h(b - A)^2 is the N(0, 1 + h^2/2) density at b over 2 sqrt(pi) h.
    """
    h = (4.0 / (3.0 * n)) ** 0.2
    first, second = _oracle_kde_moments(stats.norm.pdf, b, h)
    exact_first = stats.norm.pdf(b, scale=math.sqrt(1.0 + h * h))
    exact_second = stats.norm.pdf(b, scale=math.sqrt(1.0 + 0.5 * h * h)) / (2.0 * math.sqrt(math.pi) * h)
    return float(max(np.max(np.abs(first / exact_first - 1.0)), np.max(np.abs(second / exact_second - 1.0))))


def test_criterion_04_table1_distribution_ordering():
    """Error ordering of the three unit-variance score laws at n = 500.

    The normal law must have the lowest Monte Carlo mean.  Between Student
    t(5) and chi-square(8) the gap is too small for 200 replications to order
    reliably, so that leg is checked on the exact expected RMSEP instead
    (normal < t5 < chisq8), and each Monte Carlo mean must lie within
    ORACLE_SE_BAND standard errors of its exact value.  The band is what
    catches unstandardized draws: unit-variance t5 scored against the
    standardized density sits near 0.8e-2, raw t5 near 6.4e-2.
    """
    studies = {
        dist: _sine_study(dist, 500, 200, BASE_SEED)
        for dist in ("std-normal", "std-chisq8", "std-t5")
    }
    means = {dist: res.rmsep_mean[1] for dist, res in studies.items()}
    errors = {dist: res.rmsep_std[1] / math.sqrt(res.config.replications) for dist, res in studies.items()}
    oracle = {
        dist: _oracle_expected_rmsep(SCORE_LAWS[dist].pdf, np.asarray(res.config.b_grid), res.config.n)
        for dist, res in studies.items()
    }
    z = {dist: (means[dist] - oracle[dist]) / errors[dist] for dist in studies}
    gap = _oracle_closed_form_gap(np.asarray(studies["std-normal"].config.b_grid), 500)
    ok = means["std-normal"] < means["std-chisq8"] and means["std-normal"] < means["std-t5"]
    ok &= oracle["std-normal"] < oracle["std-t5"] < oracle["std-chisq8"]
    ok &= all(abs(value) <= ORACLE_SE_BAND for value in z.values())
    ok &= gap <= ORACLE_CLOSED_FORM_RTOL
    detail = ", ".join(
        f"{d}: {means[d] * 100:.3f}e-2 +- {errors[d] * 100:.3f}e-2 (oracle {oracle[d] * 100:.3f}e-2, z {z[d]:+.2f})"
        for d in studies
    )
    report(4, "Table 1 distribution ordering", ok, f"{detail}; oracle closed-form gap {gap:.1e}")


def test_criterion_05_table2_pattern():
    means = {}
    for n in (50, 200, 1000):
        cfg = ExperimentConfig(
            process=ProcessSpec(kind="wiener", J=50),
            n=n,
            d_values=(1, 2, 3),
            replications=100,
            base_seed=BASE_SEED,
        )
        means[n] = run_experiment(cfg).rmsep_mean
    increasing_in_d = all(means[n][1] < means[n][2] < means[n][3] for n in means)
    decreasing_in_n = all(means[50][d] > means[200][d] > means[1000][d] for d in (1, 2, 3))
    anchored = abs(means[1000][1] / TABLE2_REFERENCE_N1000_D1 - 1.0) <= 0.35
    report(
        5,
        "Table 2 pattern",
        increasing_in_d and decreasing_in_n and anchored,
        f"(n=1000,d=1)={means[1000][1] * 100:.3f}e-2 vs ref 0.345e-2",
    )


def test_criterion_06_factorization_convergence():
    lam = np.exp(-np.arange(1, 9, dtype=float) ** 2)
    grid = Grid.uniform(0.0, 1.0, 100)
    sample = sample_gaussian_kl(200_000, grid, lam, 8, SeededRng(606, 0))
    x = Curve(grid, np.zeros(grid.size))
    system = fit_fpca(sample)
    errors, hits = [], []
    for eps in (0.8, 0.6, 0.4):
        d, _ = select_dimension_hyper(lam, eps, 0.5)
        sm = scores(sample, system, d)
        estimator = DensityEstimator(sm, bandwidth_normal_scale(sm), KernelSpec("gaussian-radial", d))
        f_d = float(kde_evaluate_many(estimator, scores(x, system, d)[None, :])[0])
        rep = factorize(sample, x, eps, d, system, f_d, 8)
        phi_emp = empirical_smbp(sample, x, eps)
        errors.append(abs(rep.phi_d / phi_emp - 1.0))
        hits.append(phi_emp * sample.n)
    monotone = errors[0] > errors[1] > errors[2]
    ok = monotone and errors[-1] < 0.25 and hits[-1] >= 500
    report(
        6,
        "factorization convergence",
        ok,
        "errors " + ", ".join(f"{e:.3f}" for e in errors) + f"; hits at smallest eps {hits[-1]:.0f}",
    )


def test_criterion_07_correction_factor_laws():
    grid = Grid.uniform(0.0, 1.0, 100)
    sample = sample_wiener(500, grid, 30, SeededRng(707, 0))
    system = fit_fpca(sample)
    J = 12
    tails = scores(sample, system, J).entries
    x = Curve(grid, 0.6 * (2.0 * math.sqrt(2.0) / math.pi) * np.sin(0.5 * math.pi * grid.points))
    x_scores = scores(x, system, J)
    eps_grid = np.geomspace(0.05, 2.0, 20)
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallBallWarning)
        table = np.array(
            [
                [correction_factor(tails[:, d:], x_scores[d:], eps, d) for eps in eps_grid]
                for d in range(1, 7)
            ]
        )
    ok &= bool(np.all((table >= 0.0) & (table <= 1.0)))
    ok &= bool(np.all(np.diff(table, axis=1) >= -1e-14))  # nondecreasing in eps
    powered = table ** (2.0 / np.arange(1, 7)[:, None])
    ok &= bool(np.all(np.diff(powered, axis=0) >= -1e-12))  # psi^(2/d) nondecreasing in d
    report(7, "correction-factor laws", ok, "20 x 6 grid exhaustive")


def test_criterion_08_intensity_cross_check():
    grid = Grid.uniform(0.0, 1.0, 100)
    lam = wiener_eigenvalues(6)
    basis = math.sqrt(2.0) * np.sin((np.arange(1, 7)[:, None] - 0.5) * math.pi * grid.points[None, :])
    worst_numeric = 0.0
    worst_projected = 0.0
    for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
        target = Curve(grid, b * (2.0 * math.sqrt(2.0) / math.pi) * np.sin(0.5 * math.pi * grid.points))
        truth = math.exp(-0.5 * b**2)
        worst_numeric = max(worst_numeric, abs(wiener_intensity(target) - truth))
        x_scores = (basis * grid.weights) @ target.values
        for d in range(1, 7):
            worst_projected = max(worst_projected, abs(gaussian_intensity(x_scores, lam, d) - truth))
    ok = worst_numeric < 1e-3 and worst_projected < 1e-3
    report(
        8,
        "intensity cross-check",
        ok,
        f"derivative route {worst_numeric:.1e}, projected route {worst_projected:.1e}",
    )


def test_criterion_09_decay_classifier():
    j_hyper = np.arange(1, 28, dtype=float)  # exp(-j^2) underflows float64 past j = 27
    j_super = np.arange(3, 61, dtype=float)
    cases = [
        (np.exp(-(j_hyper**2)), DecayClass.HYPER),
        (np.exp(-j_super * np.log(np.log(j_super))), DecayClass.SUPER),
        (np.exp(-np.arange(1, 61, dtype=float)), DecayClass.EXPONENTIAL),
        (np.arange(1, 401, dtype=float) ** -2.0, DecayClass.SLOWER),
    ]
    labels = [classify_decay(lam, 40).label for lam, _ in cases]
    ok = all(label is expected for label, (_, expected) in zip(labels, cases))
    report(9, "decay classifier", ok, ", ".join(label.value for label in labels))


def _pseudo_sine_estimate(sample, targets, grid):
    e1 = sine_basis_function(grid)
    theta = sample.values @ (e1 * grid.weights)
    x = targets.values @ (e1 * grid.weights)
    h = bandwidth_normal_scale(ScoreMatrix(theta[:, None]))
    estimator = DensityEstimator(ScoreMatrix(theta[:, None]), h, KernelSpec("gaussian-radial", 1))
    return kde_evaluate_many(estimator, x[:, None])


def test_criterion_10_plug_in_stability():
    grid = Grid.uniform(0.0, math.pi, 100)
    b = np.linspace(-4.0, 4.0, 160)
    targets = target_curves("sine", b, grid)
    truths = true_intensity("sine", "std-normal", b)
    medians = {}
    kde_gap_200 = None
    for n in (200, 1000):
        plug_gaps, kde_gaps = [], []
        for rep in range(100):
            sample = sample_sine(n, grid, "std-normal", SeededRng(777, rep))
            _, estimated = estimate_surrogate_density(
                sample, fit_fpca(sample), targets, [1], kernel_family="gaussian-radial"
            )[1]
            pseudo = _pseudo_sine_estimate(sample, targets, grid)
            plug_gaps.append(np.mean(np.abs(estimated - pseudo)))
            kde_gaps.append(np.mean(np.abs(pseudo - truths)))
        medians[n] = float(np.median(plug_gaps))
        if n == 200:
            kde_gap_200 = float(np.median(kde_gaps))
    small_against_kde = medians[200] < 0.25 * kde_gap_200
    # The projector of this rank-one process is estimated exactly, so the
    # plug-in gap sits at rounding level for every n; treat medians below
    # 1e-12 as having already reached the zero limit the shrink clause
    # targets, rather than comparing rounding noise.
    at_zero = medians[200] < 1e-12 and medians[1000] < 1e-12
    shrinks = at_zero or (medians[1000] <= 0.6 * medians[200])
    report(
        10,
        "plug-in stability",
        small_against_kde and shrinks,
        f"medians {medians[200]:.2e} -> {medians[1000]:.2e}, KDE gap {kde_gap_200:.2e}",
    )


def test_criterion_11_determinism(tmp_path):
    from smallball.cli import main

    cfg = tmp_path / "cfg.txt"
    cfg.write_text("process = sine\ndist = std-normal\nn = 60\nd = 1\nreps = 4\n")
    blobs = []
    for run, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / run
        code = main(
            ["experiment", "--config", str(cfg), "--seed", "99", "--out", str(out), "--threads", threads]
        )
        assert code == 0
        blobs.append((out / "table1.csv").read_bytes() + (out / "ape.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(11, "determinism", ok, "threads 1 vs 4 and rerun byte-identical")
