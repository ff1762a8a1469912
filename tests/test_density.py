import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from smallball import (
    EPANECHNIKOV,
    GAUSSIAN,
    TRUNCATED_GAUSSIAN,
    DensityEstimator,
    FunctionalSample,
    KernelSpec,
    ScoreMatrix,
    SeededRng,
    bandwidth_normal_scale,
    bandwidth_rate,
    estimate_surrogate_density,
    fit_fpca,
    kde_evaluate_many,
    kernel_profile,
    resolve_bandwidth,
    sample_sine,
    sample_wiener,
    true_intensity,
)
from smallball.density import _BLOCK_ELEMENTS, _sphere_surface, _truncated_gaussian_mass
from smallball.processes import sine_basis_function, target_curves


class TestKernelProfile:
    def test_epanechnikov_height(self):
        assert kernel_profile(KernelSpec(EPANECHNIKOV, 1), 0.0) == pytest.approx(0.75)

    def test_compact_support(self):
        for family in (EPANECHNIKOV, TRUNCATED_GAUSSIAN):
            for d in (1, 3):
                assert kernel_profile(KernelSpec(family, d), 1.2) == 0.0

    def test_gaussian_height(self):
        assert kernel_profile(KernelSpec(GAUSSIAN, 1), 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            kernel_profile(KernelSpec(EPANECHNIKOV, 1), -0.1)

    @pytest.mark.parametrize("family", [EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN])
    def test_nan_radius_rejected(self, family):
        with pytest.raises(ValueError, match="radius"):
            kernel_profile(KernelSpec(family, 2), math.nan)
        with pytest.raises(ValueError, match="radius"):
            kernel_profile(KernelSpec(family, 2), np.array([0.5, math.nan]))

    @pytest.mark.parametrize("family", [EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN])
    def test_matches_closed_form(self, family):
        r = np.array([0.0, 0.3, 0.999, 1.0, 1.5, np.inf])
        for d in (1, 2, 3):
            np.testing.assert_allclose(
                kernel_profile(KernelSpec(family, d), r), _oracle_profile(family, d, r), rtol=1e-15, atol=0.0
            )

    @pytest.mark.parametrize("family", [EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_radial_normalization(self, family, d):
        spec = KernelSpec(family, d)
        upper = 1.0 if spec.family != GAUSSIAN else np.inf
        integral, _ = quad(lambda r: kernel_profile(spec, r) * r ** (d - 1), 0.0, upper)
        assert abs(_sphere_surface(d) * integral - 1.0) < 1e-10

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("boxcar", 1)


class TestTruncatedGaussianMass:
    """The radial mass int_0^1 exp(-u^2/2) u^(d-1) du behind the truncated-Gaussian constant."""

    @pytest.mark.parametrize("d", range(1, 65))
    def test_matches_quadrature(self, d):
        integral, _ = quad(lambda u: math.exp(-0.5 * u * u) * u ** (d - 1), 0.0, 1.0, epsabs=0.0, epsrel=2e-14)
        assert _truncated_gaussian_mass(d) == pytest.approx(integral, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d", range(1, 21))
    def test_matches_incomplete_gamma(self, d):
        assert _truncated_gaussian_mass(d) == pytest.approx(_gamma_form_mass(d), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_bit_equal_to_incomplete_gamma_at_small_d(self, d):
        # Truncated-Gaussian densities at these d keep the bytes they had
        # when the constant came from the incomplete gamma function.
        assert _truncated_gaussian_mass(d) == _gamma_form_mass(d)


class TestBandwidthRules:
    def test_rate_trivial(self):
        assert bandwidth_rate(1, 3, 2.0, 1.0) == 1.0

    def test_rate_exact_power(self):
        assert bandwidth_rate(100_000, 1, 2.0, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_rate_decreasing_in_n(self):
        values = [bandwidth_rate(n, 2, 2.0, 0.7) for n in (10, 100, 1000, 10_000)]
        assert np.all(np.diff(values) < 0)

    def test_rate_rejects_low_smoothness(self):
        with pytest.raises(ValueError):
            bandwidth_rate(100, 1, 1.5, 1.0)

    def test_normal_scale_reference_value(self):
        rng = np.random.default_rng(0)
        entries = rng.standard_normal((100, 1))
        entries = (entries - entries.mean()) / entries.std()
        h = bandwidth_normal_scale(ScoreMatrix(entries))
        assert h == pytest.approx((4.0 / 300.0) ** 0.2, rel=1e-12)

    def test_normal_scale_equivariance(self):
        rng = np.random.default_rng(1)
        entries = rng.standard_normal((50, 2))
        h = bandwidth_normal_scale(ScoreMatrix(entries))
        assert bandwidth_normal_scale(ScoreMatrix(3.0 * entries)) == pytest.approx(3.0 * h)

    def test_degenerate_scores_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_normal_scale(ScoreMatrix(np.zeros((10, 1))))

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan, math.inf])
    def test_explicit_value_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="explicit bandwidth"):
            resolve_bandwidth(ScoreMatrix(np.arange(10.0)[:, None]), h)


class TestKdeEvaluate:
    def test_single_point_height(self):
        est = DensityEstimator(ScoreMatrix(np.zeros((1, 1))), 1.0, KernelSpec(EPANECHNIKOV, 1))
        assert kde_evaluate_many(est, [[0.0]])[0] == pytest.approx(0.75)

    def test_outside_compact_support(self):
        est = DensityEstimator(ScoreMatrix(np.zeros((1, 1))), 1.0, KernelSpec(EPANECHNIKOV, 1))
        assert kde_evaluate_many(est, [[5.0]])[0] == 0.0

    def test_two_point_hand_value(self):
        est = DensityEstimator(
            ScoreMatrix(np.array([[0.5], [-0.5]])), 1.0, KernelSpec(EPANECHNIKOV, 1)
        )
        assert kde_evaluate_many(est, [[0.0]])[0] == pytest.approx(0.5625)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        est = DensityEstimator(
            ScoreMatrix(rng.standard_normal((40, 2))), 0.5, KernelSpec(EPANECHNIKOV, 2)
        )
        pts = rng.uniform(-4, 4, size=(200, 2))
        assert np.all(kde_evaluate_many(est, pts) >= 0.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_bandwidth_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            DensityEstimator(ScoreMatrix(np.zeros((3, 1))), h, KernelSpec(GAUSSIAN, 1))

    def test_non_finite_scores_rejected(self):
        entries = np.zeros((4, 2))
        entries[2, 1] = math.nan
        with pytest.raises(ValueError, match="score entries must be finite"):
            DensityEstimator(ScoreMatrix(entries), 1.0, KernelSpec(EPANECHNIKOV, 2))

    def test_dimension_mismatch(self):
        est = DensityEstimator(ScoreMatrix(np.zeros((3, 2))), 1.0, KernelSpec(EPANECHNIKOV, 2))
        with pytest.raises(ValueError):
            kde_evaluate_many(est, [[0.0]])[0]

    @pytest.mark.parametrize("family", [EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN])
    def test_integrates_to_one_1d(self, family):
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((60, 1))
        h = 0.45
        est = DensityEstimator(ScoreMatrix(entries), h, KernelSpec(family, 1))
        margin = h if family != GAUSSIAN else 10.0 * h
        lo, hi = entries.min() - margin, entries.max() + margin
        grid = np.linspace(lo, hi, 4001)
        vals = kde_evaluate_many(est, grid[:, None])
        assert abs(np.trapezoid(vals, grid) - 1.0) < 1e-3

    @pytest.mark.parametrize("family", [EPANECHNIKOV, GAUSSIAN])
    def test_integrates_to_one_2d(self, family):
        rng = np.random.default_rng(4)
        entries = rng.standard_normal((30, 2))
        h = 0.6
        est = DensityEstimator(ScoreMatrix(entries), h, KernelSpec(family, 2))
        margin = h if family == EPANECHNIKOV else 9.0 * h
        axes = [
            np.linspace(entries[:, k].min() - margin, entries[:, k].max() + margin, 281)
            for k in range(2)
        ]
        xx, yy = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        vals = kde_evaluate_many(est, pts).reshape(xx.shape)
        integral = np.trapezoid(np.trapezoid(vals, axes[1], axis=1), axes[0])
        assert abs(integral - 1.0) < 1e-3

    @pytest.mark.parametrize("family", [EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN])
    def test_non_finite_point_rejected(self, family):
        est = DensityEstimator(ScoreMatrix(np.zeros((3, 2))), 1.0, KernelSpec(family, 2))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"evaluation point 2 is not finite"):
                kde_evaluate_many(est, [[0.0, 0.0], [0.5, 0.1], [0.0, bad], [bad, 0.0]])

    def test_zero_outside_union_of_balls(self):
        entries = np.array([[0.0], [2.0]])
        h = 0.3
        est = DensityEstimator(ScoreMatrix(entries), h, KernelSpec(EPANECHNIKOV, 1))
        assert kde_evaluate_many(est, [[1.0]])[0] == 0.0
        assert kde_evaluate_many(est, [[2.2]])[0] > 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=80),
    d=st.integers(min_value=1, max_value=3),
    family=st.sampled_from([EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN]),
)
def test_kde_invariant_under_row_permutation(seed, n, d, family):
    rng = np.random.default_rng(seed)
    sample = rng.standard_normal((n, d))
    points = rng.uniform(-2.5, 2.5, size=(9, d))
    h = float(rng.uniform(0.3, 1.5))
    kernel = KernelSpec(family, d)
    base = kde_evaluate_many(DensityEstimator(ScoreMatrix(sample), h, kernel), points)
    permuted = kde_evaluate_many(DensityEstimator(ScoreMatrix(sample[rng.permutation(n)]), h, kernel), points)
    np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=0.0)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=3),
    family=st.sampled_from([EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN]),
    h=st.floats(min_value=0.05, max_value=5.0),
    offset=st.floats(min_value=0.0, max_value=1000.0),
)
def test_kde_stays_between_zero_and_the_kernel_peak(seed, n, d, family, h, offset):
    # 0 <= f_hat <= K(0) / h^d, each kernel term lying in [0, K(0)].  The
    # hard case is a target on n identical sample points `offset`
    # bandwidths from the origin, mirrored by n more at minus that point so
    # that the sample mean, where the evaluator centres, stays at the
    # origin: the GEMM then cancels squared norms of up to 10^6 to get
    # u^2 = 0, and without the clamp its rounding can give -u^2/2 > 0 and a
    # kernel term above K(0).
    rng = np.random.default_rng(seed)
    kernel = KernelSpec(family, d)
    peak = kernel_profile(kernel, 0.0) / h**d
    direction = rng.standard_normal(d)
    at = offset * h * direction / np.linalg.norm(direction)
    clusters = np.vstack([np.tile(at, (n, 1)), np.tile(-at, (n, 1))])
    spread = rng.standard_normal((n, d)) * h * rng.uniform(0.1, 3.0)
    points = np.vstack([at, -at, spread, rng.uniform(-3.0, 3.0, size=(5, d)) * h])
    for sample in (clusters, spread):
        values = kde_evaluate_many(DensityEstimator(ScoreMatrix(sample), h, kernel), points)
        assert np.all(values >= 0.0)
        assert np.all(values <= peak * (1.0 + 1e-14))
    # Half of the clusters' kernel terms sit at the target, the other half
    # 2 * offset bandwidths away, where the kernel is no higher.
    at_target = kde_evaluate_many(DensityEstimator(ScoreMatrix(clusters), h, kernel), at[None, :])[0]
    far = kernel_profile(kernel, 2.0 * offset) / h**d
    assert at_target <= 0.5 * (peak + far) * (1.0 + 1e-14)


def _gamma_form_mass(d):
    """int_0^1 exp(-u^2/2) u^(d-1) du as 2^(d/2-1) Gamma(d/2) P(d/2, 1/2)."""
    return 2.0 ** (0.5 * d - 1.0) * math.gamma(0.5 * d) * gammainc(0.5 * d, 0.5)


def _oracle_profile(family, d, r):
    """The radial profiles in closed form, written out apart from the package."""
    surface = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    if family == EPANECHNIKOV:
        c = surface * 2.0 / (d * (d + 2))
        return np.where(r <= 1.0, np.clip(1.0 - r**2, 0.0, None) / c, 0.0)
    if family == TRUNCATED_GAUSSIAN:
        c = surface * _gamma_form_mass(d)
        return np.where(r <= 1.0, np.exp(-0.5 * r**2) / c, 0.0)
    return (2.0 * math.pi) ** (-0.5 * d) * np.exp(-0.5 * r**2)


def _oracle_kde(entries, h, family, points):
    """Brute-force KDE over the (m, n, d) difference array: the evaluator the GEMM form replaced."""
    d = entries.shape[1]
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], 64):
        block = points[start : start + 64]
        dist = np.sqrt(np.sum((entries[None, :, :] - block[:, None, :]) ** 2, axis=2))
        out[start : start + block.shape[0]] = np.sum(_oracle_profile(family, d, dist / h), axis=1)
    return out / (entries.shape[0] * h**d)


def _assert_close_to(values, reference, rtol):
    # A term cut near the edge of a compact support carries absolute rounding
    # (from 1 - u^2 or the support test), so the relative bound gets an
    # absolute floor of 1e-12 of the largest estimate.
    np.testing.assert_allclose(values, reference, rtol=rtol, atol=1e-12 * np.max(reference))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("family", [EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "shift, scales", [(0.0, (1.0, 1.0, 1.0)), (5.0, (1.0, 0.1, 0.01))], ids=["centred", "shifted-scaled"]
    )
    def test_matches_oracle(self, family, d, shift, scales):
        rng = np.random.default_rng(7 + d)
        axes = np.array(scales[:d])
        entries = shift + axes * rng.standard_normal((400, d))
        points = shift + 1.3 * axes * rng.standard_normal((120, d))
        h = 0.35 * float(np.sqrt(np.mean(axes**2)))
        est = DensityEstimator(ScoreMatrix(entries), h, KernelSpec(family, d))
        oracle = _oracle_kde(entries, h, family, points)
        values = kde_evaluate_many(est, points)
        _assert_close_to(values, oracle, rtol=1e-12)
        assert np.array_equal(values == 0.0, oracle == 0.0)

    @pytest.mark.parametrize("family", [EPANECHNIKOV, GAUSSIAN])
    @pytest.mark.parametrize("d", [1, 3])
    def test_blocks_cover_every_point(self, family, d):
        # Two full blocks of targets and one more, so the last block is a partial one.
        n = 4000
        rows = _BLOCK_ELEMENTS // n
        assert rows > 1
        rng = np.random.default_rng(11)
        entries = rng.standard_normal((n, d))
        points = rng.uniform(-3.0, 3.0, size=(2 * rows + 1, d))
        est = DensityEstimator(ScoreMatrix(entries), 0.4, KernelSpec(family, d))
        _assert_close_to(kde_evaluate_many(est, points), _oracle_kde(entries, 0.4, family, points), rtol=1e-12)

    @pytest.mark.parametrize("family", [EPANECHNIKOV, GAUSSIAN])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_study_shape_spans_several_blocks(self, family, d):
        # A Wiener study replication: n = 1000 scores, m = 160 targets.
        n, m = 1000, 160
        assert m > 2 * (_BLOCK_ELEMENTS // n)
        rng = np.random.default_rng(13)
        entries = rng.standard_normal((n, d))
        points = rng.uniform(-4.0, 4.0, size=(m, d))
        h = bandwidth_normal_scale(ScoreMatrix(entries))
        est = DensityEstimator(ScoreMatrix(entries), h, KernelSpec(family, d))
        _assert_close_to(kde_evaluate_many(est, points), _oracle_kde(entries, h, family, points), rtol=1e-12)

    def test_block_memory_is_bounded(self):
        # The (m, n, d) difference array alone would take 100 * 50 000 * 3 * 8 bytes = 114 MiB.
        rng = np.random.default_rng(12)
        est = DensityEstimator(ScoreMatrix(rng.standard_normal((50_000, 3))), 0.3, KernelSpec(GAUSSIAN, 3))
        points = rng.standard_normal((100, 3))
        tracemalloc.start()
        try:
            kde_evaluate_many(est, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=80),
    d=st.integers(min_value=1, max_value=3),
    family=st.sampled_from([EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN]),
    offset=st.lists(st.floats(min_value=-1000.0, max_value=1000.0), min_size=3, max_size=3),
)
def test_kde_invariant_under_translation(seed, n, d, family, offset):
    # Offsets up to 1000 bandwidths: the GEMM form ||x||^2 + ||s||^2 - 2 x.s
    # keeps the law only because the evaluator centres on the sample mean.
    rng = np.random.default_rng(seed)
    sample = rng.standard_normal((n, d))
    points = rng.uniform(-2.5, 2.5, size=(9, d))
    h = float(rng.uniform(0.3, 1.5))
    kernel = KernelSpec(family, d)
    v = np.array(offset[:d])
    base = kde_evaluate_many(DensityEstimator(ScoreMatrix(sample), h, kernel), points)
    moved = kde_evaluate_many(DensityEstimator(ScoreMatrix(sample + v), h, kernel), points + v)
    _assert_close_to(moved, base, rtol=1e-10)


class TestSurrogateDensityPipeline:
    def test_d_beyond_numerical_rank_is_refused(self, sine_grid):
        # Rank one: every score past the first is rounding noise; a 2-d KDE
        # over that noise read 0.929 at b=0 on this sample, where the truth is 0.399.
        sample = sample_sine(80, sine_grid, "std-normal", SeededRng(21, 0))
        targets = target_curves("sine", [0.0], sine_grid)
        with pytest.raises(ValueError, match=r"d=2 exceeds the numerical rank 1 of the n=80"):
            estimate_surrogate_density(sample, fit_fpca(sample), targets, [2])
        _, values = estimate_surrogate_density(sample, fit_fpca(sample), targets, [1])[1]
        assert values[0] == pytest.approx(0.399, abs=0.1)

    def test_d_list_matches_one_d_at_a_time(self, unit_grid):
        # One projection at the largest d, sliced per d, against a projection at each d.
        sample = sample_wiener(300, unit_grid, 20, SeededRng(22, 0))
        targets = target_curves("wiener", [-1.0, 0.0, 0.5, 2.0], unit_grid)
        system = fit_fpca(sample)
        together = estimate_surrogate_density(sample, system, targets, (3, 1, 2), GAUSSIAN)
        assert list(together) == [3, 1, 2]
        for d, (target_scores, values) in together.items():
            alone_scores, alone = estimate_surrogate_density(sample, system, targets, [d], GAUSSIAN)[d]
            assert target_scores.shape == (4, d)
            np.testing.assert_allclose(target_scores, alone_scores, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(values, alone, rtol=1e-12)

    def test_symmetric_sample_symmetric_targets(self, sine_grid):
        e1 = sine_basis_function(sine_grid)
        a = np.concatenate([np.linspace(0.2, 2.0, 25), -np.linspace(0.2, 2.0, 25)])
        sample = FunctionalSample(sine_grid, a[:, None] * e1[None, :])
        targets = FunctionalSample(sine_grid, np.array([0.0, 0.9, -0.9])[:, None] * e1[None, :])
        _, values = estimate_surrogate_density(sample, fit_fpca(sample), targets, [1])[1]
        # Projections of a symmetric cloud are symmetric: the +x and -x
        # evaluations agree, and reflecting the whole sample changes nothing.
        assert values[1] == pytest.approx(values[2], rel=1e-12)
        reflected = FunctionalSample(sine_grid, -sample.values)
        _, mirrored = estimate_surrogate_density(reflected, fit_fpca(reflected), targets, [1])[1]
        assert mirrored[0] == pytest.approx(values[0], rel=1e-12)

    def test_table_scale_rmsep_ballpark(self, sine_grid):
        """Single-n replication of the reference study at reduced replications."""
        b = np.linspace(-4.0, 4.0, 160)
        truths = true_intensity("sine", "std-normal", b)
        targets = target_curves("sine", b, sine_grid)
        draws = []
        for rep in range(30):
            sample = sample_sine(1000, sine_grid, "std-normal", SeededRng(99, rep))
            _, values = estimate_surrogate_density(
                sample, fit_fpca(sample), targets, [1], kernel_family=GAUSSIAN, bandwidth_rule="normal-scale"
            )[1]
            draws.append(np.sum((values - truths) ** 2) / np.sum(truths**2))
        mean = float(np.mean(draws))
        assert 0.15e-2 < mean < 0.7e-2  # reference value 0.330e-2

    def test_estimated_projector_agrees_with_pseudo_estimator(self, sine_grid):
        """Plugging in estimated eigenfunctions barely moves the estimate."""
        n = 2000
        b = np.linspace(-4.0, 4.0, 160)
        truths = true_intensity("sine", "std-normal", b)
        targets = target_curves("sine", b, sine_grid)
        sample = sample_sine(n, sine_grid, "std-normal", SeededRng(100, 0))
        _, estimated = estimate_surrogate_density(
            sample, fit_fpca(sample), targets, [1], kernel_family=GAUSSIAN, bandwidth_rule="normal-scale"
        )[1]
        pseudo = _pseudo_estimate_sine(sample, targets, sine_grid)
        r_est = np.sum((estimated - truths) ** 2) / np.sum(truths**2)
        r_pseudo = np.sum((pseudo - truths) ** 2) / np.sum(truths**2)
        assert abs(r_est - r_pseudo) / r_pseudo < 0.05

    def test_pseudo_ratio_below_one_at_n500(self, sine_grid):
        """Projector plug-in error is negligible against the KDE error itself."""
        b = np.linspace(-4.0, 4.0, 160)
        targets = target_curves("sine", b, sine_grid)
        truths = true_intensity("sine", "std-normal", b)
        ratios = []
        for rep in range(20):
            sample = sample_sine(500, sine_grid, "std-normal", SeededRng(101, rep))
            _, estimated = estimate_surrogate_density(
                sample, fit_fpca(sample), targets, [1], kernel_family=GAUSSIAN, bandwidth_rule="normal-scale"
            )[1]
            pseudo = _pseudo_estimate_sine(sample, targets, sine_grid)
            plug_in = np.mean(np.abs(estimated - pseudo))
            kde_err = np.mean(np.abs(pseudo - truths))
            ratios.append(plug_in / kde_err)
        assert np.median(ratios) < 1.0

    def test_wiener_plug_in_error_shrinks_with_n(self, unit_grid):
        """Nondegenerate plug-in check: the Wiener projector is estimated."""
        b = np.linspace(-4.0, 4.0, 160)
        targets = target_curves("wiener", b, unit_grid)
        e1 = math.sqrt(2.0) * np.sin(0.5 * math.pi * unit_grid.points)
        medians = {}
        for n in (200, 1000):
            gaps = []
            for rep in range(60):
                sample = sample_wiener(n, unit_grid, 50, SeededRng(102, rep))
                _, estimated = estimate_surrogate_density(
                    sample, fit_fpca(sample), targets, [1], kernel_family=GAUSSIAN, bandwidth_rule="normal-scale"
                )[1]
                pseudo = _pseudo_estimate(sample, targets, e1, unit_grid)
                gaps.append(np.mean(np.abs(estimated - pseudo)))
            medians[n] = float(np.median(gaps))
        assert medians[200] > 1e-8
        assert medians[1000] < 0.7 * medians[200]


def _pseudo_estimate(sample, targets, true_basis, grid):
    """KDE on projections against a known eigenfunction (true mean zero)."""
    theta = sample.values @ (true_basis * grid.weights)
    x = targets.values @ (true_basis * grid.weights)
    h = bandwidth_normal_scale(ScoreMatrix(theta[:, None]))
    est = DensityEstimator(ScoreMatrix(theta[:, None]), h, KernelSpec(GAUSSIAN, 1))
    return kde_evaluate_many(est, x[:, None])


def _pseudo_estimate_sine(sample, targets, grid):
    return _pseudo_estimate(sample, targets, sine_basis_function(grid), grid)
