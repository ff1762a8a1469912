import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallball import (
    Curve,
    DecayClass,
    FunctionalSample,
    Grid,
    ProcessSpec,
    SeededRng,
    SmallBallWarning,
    ball_volume,
    classify_decay,
    correction_factor,
    empirical_smbp,
    estimate_surrogate_density,
    exp_power_intensity,
    factorize,
    fit_fpca,
    gaussian_intensity,
    sample_process,
    scores,
    select_dimension_hyper,
    select_dimension_prop1,
    tail_statistic,
    volume_factor,
    wiener_eigenvalues,
    wiener_intensity,
)
from smallball import grids
from smallball.density import KERNEL_FAMILIES
from smallball.smbp import FactorizationReport


class TestBallVolume:
    def test_low_dimensions(self):
        assert ball_volume(1, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert ball_volume(2, 1.0) == pytest.approx(math.pi, abs=1e-13)
        assert abs(ball_volume(3, 1.0) - 4.0 * math.pi / 3.0) < 1e-12

    def test_recurrence(self):
        # V_d = V_{d-2} * 2 pi eps^2 / d, checked across radii up to d = 50.
        for eps in (0.3, 1.0, 2.7):
            for d in range(3, 51):
                lhs = ball_volume(d, eps)
                rhs = ball_volume(d - 2, eps) * 2.0 * math.pi * eps**2 / d
                assert abs(lhs / rhs - 1.0) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ball_volume(3, 0.0)
        with pytest.raises(ValueError):
            ball_volume(0, 1.0)

    @pytest.mark.parametrize("d, eps", [(50, 1e-7), (9, 1e-38), (1, 1e308), (9, 1e40)])
    def test_volume_outside_the_float_range_refused(self, d, eps):
        # The first two underflow to 0, the last two overflow.
        with pytest.raises(ValueError, match=re.escape(f"at d = {d}, eps = {eps:g} is 0 or infinite")):
            ball_volume(d, eps)

    def test_smallest_and_largest_volumes_kept(self):
        assert 0.0 < ball_volume(50, 1e-6) < 1e-300
        assert 1e300 < ball_volume(1, 1e300) < math.inf


class TestTailStatistic:
    def test_identical_tails(self):
        assert tail_statistic([0.3, -0.2], [0.3, -0.2], 0.5) == 0.0

    def test_single_term_ratio_one(self):
        assert tail_statistic([0.0], [0.3], 0.3) == pytest.approx(1.0)

    def test_hand_value(self):
        assert tail_statistic([0.0, 0.0], [0.1, 0.2], 0.5) == pytest.approx(0.2)

    def test_scaling_in_eps(self):
        base = tail_statistic([0.0, 0.0], [0.1, 0.2], 0.5)
        assert tail_statistic([0.0, 0.0], [0.1, 0.2], 0.25) == pytest.approx(4.0 * base)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tail_statistic([0.1], [0.1, 0.2], 0.5)

    @pytest.mark.parametrize("eps", [1e-170, 1e-300, 1e170, 1e308])
    def test_any_finite_positive_eps(self, eps):
        # eps^2 leaves the float range, S does not.
        assert tail_statistic([0.0, 0.0], [0.6 * eps, 0.8 * eps], eps) == pytest.approx(1.0, rel=1e-15)
        assert tail_statistic([0.0], [0.0], eps) == 0.0

    def test_past_the_largest_float_is_inf(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert tail_statistic([0.0], [1.0], 1e-170) == math.inf
            assert tail_statistic([0.0], [1.0], 1e308) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
        st.floats(1e-6, 1e6),
    )
    def test_bytes_of_the_plain_formula(self, tail, eps):
        # Where eps^2 is a normal float, the power-of-two scaling changes no bit.
        theta = np.asarray(tail)
        plain = np.sum((theta - 0.25) ** 2) / eps**2
        assert tail_statistic(np.full(theta.size, 0.25), theta, eps) == plain


class TestCorrectionFactor:
    def test_zero_tails_give_one(self):
        tails = np.zeros((5, 3))
        assert correction_factor(tails, np.zeros(3), 0.01, 2) == 1.0

    def test_tails_matching_center_give_one(self):
        # Finite-dimensional case: every path's tail equals the center's tail.
        x_tail = np.array([0.4, -0.1])
        tails = np.tile(x_tail, (6, 1))
        assert correction_factor(tails, x_tail, 1e-9, 3) == 1.0

    def test_all_outside_gives_zero_with_warning(self):
        tails = np.full((4, 1), 10.0)
        with pytest.warns(SmallBallWarning):
            assert correction_factor(tails, np.zeros(1), 0.5, 2) == 0.0

    def test_hand_average(self):
        # Rows engineered so S = 0, 0.5, 2 with eps = 1; d = 2 averages
        # (1 + 0.5 + 0)/3.
        tails = np.array([[0.0], [math.sqrt(0.5)], [math.sqrt(2.0)]])
        assert correction_factor(tails, np.zeros(1), 1.0, 2) == pytest.approx(0.5)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        tails = rng.standard_normal((50, 4)) * 0.2
        psi = correction_factor(tails, np.zeros(4), 0.4, 3)
        assert 0.0 <= psi <= 1.0

    def test_nondecreasing_in_eps(self):
        rng = np.random.default_rng(1)
        tails = rng.standard_normal((100, 3)) * 0.3
        values = [correction_factor(tails, np.zeros(3), eps, 2) for eps in np.linspace(0.1, 2.0, 20)]
        assert np.all(np.diff(values) >= -1e-15)


class TestClassifyDecay:
    def test_hyper_example(self):
        lam = np.exp(-np.arange(1, 28, dtype=float) ** 2)
        report = classify_decay(lam, 40)
        assert report.label is DecayClass.HYPER
        assert report.horizon_effective == 26  # capped by float64 underflow of the sequence

    def test_super_not_hyper(self):
        j = np.arange(3, 61, dtype=float)
        report = classify_decay(np.exp(-j * np.log(np.log(j))), 40)
        assert report.label is DecayClass.SUPER

    def test_exponential_not_super(self):
        lam = np.exp(-np.arange(1, 61, dtype=float))
        assert classify_decay(lam, 40).label is DecayClass.EXPONENTIAL

    def test_polynomial_is_slower(self):
        lam = np.arange(1, 401, dtype=float) ** -2.0
        assert classify_decay(lam, 40).label is DecayClass.SLOWER

    def test_implication_chain(self):
        """A hyper verdict certifies the super and exponential criteria too."""
        lam = np.exp(-np.arange(1, 28, dtype=float) ** 2)
        report = classify_decay(lam, 40)
        assert report.label is DecayClass.HYPER
        w = slice(report.horizon_effective - report.window, report.horizon_effective)
        assert report.super_ratio[-1] < 0.35
        assert np.all(np.diff(report.super_ratio[w]) < 0)
        assert np.max(report.exponential_ratio[w]) < 100.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_decay(np.array([1.0, 0.5, 0.0, 0.1, 0.1]), 3)

    def test_estimated_hyper_spectrum(self, unit_grid):
        lam = np.exp(-np.arange(1, 9, dtype=float) ** 2)
        sample = sample_process(ProcessSpec("gaussian-kl", J=8, lambdas=lam), 2000, unit_grid, SeededRng(21, 0))
        system = fit_fpca(sample)
        estimated = system.eigenvalues[system.eigenvalues > 1e-12][:5]
        assert classify_decay(estimated, 4).label is DecayClass.HYPER


class TestSelectDimensionProp1:
    def test_geometric_example(self):
        lam = np.exp(-np.arange(1, 201, dtype=float))
        assert select_dimension_prop1(lam, 0.1, 1.0) == 9

    def test_zero_tail(self):
        lam = np.array([1.0] + [0.0] * 30)
        for eps in (0.9, 0.5, 0.05):
            assert select_dimension_prop1(lam, eps, 1.0) == 1

    def test_monotone_in_eps(self):
        lam = np.exp(-np.arange(1, 201, dtype=float))
        chosen = [select_dimension_prop1(lam, eps, 1.0) for eps in (0.8, 0.4, 0.2, 0.1, 0.05)]
        assert np.all(np.diff(chosen) >= 0)  # doubling eps never increases d

    def test_postcondition_by_brute_force(self):
        lam = np.exp(-np.arange(1, 201, dtype=float))
        for eps in (0.3, 0.1, 0.04):
            d = select_dimension_prop1(lam, eps, 1.0)
            target = eps**3
            assert d * lam[d:].sum() <= target
            assert d == 1 or (d - 1) * lam[d - 1 :].sum() > target

    def test_exhausted_sequence(self):
        with pytest.raises(ValueError, match="longer eigenvalue sequence|larger eps"):
            select_dimension_prop1(np.array([1.0, 0.9, 0.8]), 0.01, 1.0)


class TestSelectDimensionHyper:
    lam = np.exp(-np.arange(1, 28, dtype=float) ** 2)

    def test_golden_value(self):
        d, delta2 = select_dimension_hyper(self.lam, 0.05, 0.5)
        assert d == 3
        assert 0.0 < delta2 < 1.0

    def test_bracket_postcondition(self):
        for eps in (0.6, 0.2, 0.05, 0.01):
            d, delta2 = select_dimension_hyper(self.lam, eps, 0.5)
            b = (d * self.lam[d:].sum()) ** 0.5
            upper = self.lam[d - 1] ** (1.0 - delta2)
            assert b <= eps**2 <= upper

    def test_minimality_by_brute_force(self):
        # No smaller k can satisfy the lower bracket b(k) <= eps^2.
        for eps in (0.2, 0.05, 0.01):
            d, _ = select_dimension_hyper(self.lam, eps, 0.5)
            for k in range(1, d):
                assert (k * self.lam[k:].sum()) ** 0.5 > eps**2

    def test_large_eps_has_no_bracket(self):
        with pytest.raises(ValueError, match="no admissible dimension"):
            select_dimension_hyper(self.lam, 1.5, 0.5)

    def test_d_nondecreasing_as_eps_shrinks(self):
        chosen = [select_dimension_hyper(self.lam, eps, 0.5)[0] for eps in (0.2, 0.1, 0.05, 0.02)]
        assert np.all(np.diff(chosen) >= 0)


class TestVolumeFactor:
    def test_two_dimensional_value(self):
        log_phi, info = volume_factor(0.1, 2, DecayClass.SUPER)
        assert log_phi == pytest.approx(math.log(math.pi * math.e * 0.01), abs=1e-12)
        assert info["bracket_correction_omitted"] is True

    def test_vanishing_bracket(self):
        eps = math.sqrt(1.0 / (2.0 * math.pi * math.e))
        log_phi, _ = volume_factor(eps, 1, DecayClass.SUPER)
        assert log_phi == pytest.approx(0.0, abs=1e-12)

    def test_exponential_reports_alpha(self):
        _, info = volume_factor(0.1, 4, DecayClass.EXPONENTIAL, lambda_d=0.04)
        assert info["alpha"] == pytest.approx(0.5)

    @pytest.mark.parametrize("eps", [1e-170, 1e-300, 1e200])
    def test_any_finite_positive_eps(self, eps):
        # eps^2 underflows or overflows; the log volume does not.
        log_phi, _ = volume_factor(eps, 2, DecayClass.SUPER)
        assert log_phi == pytest.approx(math.log(math.pi * math.e) + 2.0 * math.log(eps), rel=1e-14)
        _, info = volume_factor(eps, 2, DecayClass.EXPONENTIAL, lambda_d=0.04)
        assert info["alpha"] == pytest.approx(5.0 * eps, rel=1e-15)

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError, match="ball_volume"):
            volume_factor(0.1, 2, DecayClass.HYPER)

    def test_stirling_ratio_pattern(self):
        # exp(volume_factor) / V_d approaches sqrt(pi d); monitored, not asserted
        # in production.  Here the trend is checked loosely.
        eps = 0.2
        ratios = []
        for d in (10, 20, 40):
            log_phi, _ = volume_factor(eps, d, DecayClass.SUPER)
            ratios.append(math.exp(log_phi) / ball_volume(d, eps) / math.sqrt(math.pi * d))
        assert abs(ratios[-1] - 1.0) < 0.05
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


class TestGaussianIntensity:
    def test_center(self):
        assert gaussian_intensity(np.zeros(3), np.array([1.0, 0.5, 0.2]), 3) == 1.0

    def test_single_score_at_one_sigma(self):
        lam = np.array([0.37])
        assert gaussian_intensity(np.sqrt(lam), lam, 1) == pytest.approx(math.exp(-0.5))

    def test_wiener_target_for_all_d(self):
        # Projecting x^b on the analytic basis gives intensity exp(-b^2/2)
        # at every truncation level.
        grid = Grid.uniform(0.0, 1.0, 100)
        lam = wiener_eigenvalues(6)
        basis = math.sqrt(2.0) * np.sin(
            (np.arange(1, 7)[:, None] - 0.5) * math.pi * grid.points[None, :]
        )
        for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
            x = b * (2.0 * math.sqrt(2.0) / math.pi) * np.sin(0.5 * math.pi * grid.points)
            x_scores = (basis * grid.weights) @ x
            for d in range(1, 7):
                value = gaussian_intensity(x_scores, lam, d)
                assert abs(value - math.exp(-0.5 * b**2)) < 1e-3

    def test_maximized_at_zero(self):
        lam = np.array([0.5, 0.25])
        base = gaussian_intensity(np.zeros(2), lam, 2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(2)
            assert gaussian_intensity(x, lam, 2) <= base

    def test_strictly_decreasing_in_each_score(self):
        lam = np.array([0.5, 0.25, 0.1])
        for j in range(3):
            values = []
            for size in (0.0, 0.3, 0.6, 1.2):
                x = np.zeros(3)
                x[j] = size
                values.append(gaussian_intensity(x, lam, 3))
            assert np.all(np.diff(values) < 0)

    def test_zero_eigenvalue_with_nonzero_score(self):
        with pytest.warns(SmallBallWarning):
            value = gaussian_intensity(np.array([0.1, 0.2]), np.array([1.0, 0.0]), 2)
        assert value == 0.0


class TestExpPowerIntensity:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_q2_matches_gaussian(self, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.05, 2.0, 4))[::-1]
        x = rng.standard_normal(4)
        assert exp_power_intensity(x, lam, 2.0, 4) == pytest.approx(
            gaussian_intensity(x, lam, 4), abs=1e-12
        )

    def test_center(self):
        assert exp_power_intensity(np.zeros(2), np.array([1.0, 0.5]), 4.0, 2) == 1.0

    def test_q4_single_score(self):
        lam = np.array([0.83])
        assert exp_power_intensity(np.sqrt(lam), lam, 4.0, 1) == pytest.approx(math.exp(-0.5))

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            exp_power_intensity(np.zeros(2), np.ones(2), 1.5, 2)


class TestWienerIntensity:
    def test_zero_curve(self, unit_grid):
        assert wiener_intensity(Curve(unit_grid, np.zeros(unit_grid.size))) == 1.0

    def test_target_curve(self, unit_grid):
        b = 1.0
        x = Curve(unit_grid, b * (2.0 * math.sqrt(2.0) / math.pi) * np.sin(0.5 * math.pi * unit_grid.points))
        assert abs(wiener_intensity(x) - math.exp(-0.5 * b**2)) < 1e-4

    def test_linear_curve(self, unit_grid):
        c = 1.3
        x = Curve(unit_grid, c * unit_grid.points)
        assert wiener_intensity(x) == pytest.approx(math.exp(-0.5 * c**2), abs=1e-6)

    def test_rejects_other_intervals(self):
        g = Grid.uniform(0.0, 2.0, 50)
        with pytest.raises(ValueError):
            wiener_intensity(Curve(g, np.zeros(50)))


class TestEmpiricalSmbp:
    def test_huge_radius(self, unit_grid):
        sample = sample_process(ProcessSpec("wiener", J=20), 50, unit_grid, SeededRng(30, 0))
        x = Curve(unit_grid, np.zeros(unit_grid.size))
        assert empirical_smbp(sample, x, 100.0) == 1.0

    def test_zero_radius(self, unit_grid):
        sample = sample_process(ProcessSpec("wiener", J=20), 50, unit_grid, SeededRng(31, 0))
        x = Curve(unit_grid, np.zeros(unit_grid.size))
        assert empirical_smbp(sample, x, 0.0) == 0.0

    def test_median_distance(self, unit_grid):
        sample = sample_process(ProcessSpec("wiener", J=20), 40, unit_grid, SeededRng(32, 0))
        x = Curve(unit_grid, np.zeros(unit_grid.size))
        diffs = sample.values - x.values
        dist = np.sqrt(np.sum(unit_grid.weights * diffs**2, axis=1))
        assert empirical_smbp(sample, x, float(np.median(dist))) == 0.5


def _one_shot_distances(sample: FunctionalSample, x: Curve) -> np.ndarray:
    """Each curve's distance to x as computed before row blocks: one difference array for the whole sample."""
    diffs = sample.values - x.values[None, :]
    return np.sqrt(np.sum(sample.grid.weights[None, :] * diffs**2, axis=1))


class TestEmpiricalSmbpRowBlocks:
    ROWS = 7  # rows per block under the shrunken budget

    @pytest.mark.parametrize("n", [ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 2])
    def test_blocked_hits_equal_one_shot(self, n, unit_grid, block_rows):
        sample = sample_process(ProcessSpec("wiener", J=20), n, unit_grid, SeededRng(40 + n, 0))
        x = Curve(unit_grid, 0.5 * sample.values[n // 2])
        dist = _one_shot_distances(sample, x)
        block_rows(self.ROWS, unit_grid.size)
        # Each eps = dist[i] puts curve i at distance exactly eps, which counts as a hit.
        for eps in [0.0, *dist.tolist(), float(np.nextafter(dist.min(), 0.0)), 2.0 * float(dist.max())]:
            hits = int(np.count_nonzero(dist <= eps))
            assert empirical_smbp(sample, x, eps) == hits / n

    def test_temporaries_stay_one_block(self, traced_peak):
        # 40 000 curves of 100 points are four blocks; the difference array of the whole sample would be four.
        grid = Grid.uniform(0.0, 1.0, 100)
        sample = FunctionalSample(grid, np.random.default_rng(41).standard_normal((40_000, grid.size)))
        x = Curve(grid, 0.5 * sample.values[0])
        fraction, peak = traced_peak(lambda: empirical_smbp(sample, x, 1.0))
        assert fraction == np.count_nonzero(_one_shot_distances(sample, x) <= 1.0) / sample.n
        assert peak < 1.5 * grids._ROW_BLOCK_FLOATS * 8



_EPS_CALLS = {
    "ball_volume": lambda eps, sample: ball_volume(2, eps),
    "tail_statistic": lambda eps, sample: tail_statistic([0.0], [0.1], eps),
    "empirical_smbp": lambda eps, sample: empirical_smbp(sample, sample.curve(0), eps),
    "select_dimension_hyper": lambda eps, sample: select_dimension_hyper(np.exp(-np.arange(1.0, 9.0) ** 2), eps, 0.5),
    "volume_factor": lambda eps, sample: volume_factor(eps, 2, DecayClass.SUPER),
}


@pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(_EPS_CALLS))
def test_non_finite_eps_refused(unit_grid, name, eps):
    # nan passes every `eps <= 0` test, and inf gives a meaningless volume or a probability of 1.
    sample = FunctionalSample(unit_grid, np.zeros((3, unit_grid.size)))
    with pytest.raises(ValueError, match="eps must be finite"):
        _EPS_CALLS[name](eps, sample)

class TestFactorize:
    def test_finite_dimensional_tail_drops_out(self, sine_grid):
        # Rank-one process: tail scores vanish, so phi_d = f_d * V_d exactly.
        e1 = np.sqrt(2.0 / np.pi) * np.sin(sine_grid.points)
        rng = np.random.default_rng(3)
        sample = FunctionalSample(sine_grid, rng.standard_normal(300)[:, None] * e1)
        system = fit_fpca(sample)
        x = Curve(sine_grid, 0.5 * e1)
        report = factorize(sample, x, 0.2, 1, system, 0.4, 5)
        assert report.correction == pytest.approx(1.0, abs=1e-10)
        assert report.phi_d == pytest.approx(0.4 * ball_volume(1, 0.2), rel=1e-9)
        assert report.phi_d == report.f_d_at_x * report.volume * report.correction

    def test_zero_correction_propagates(self, unit_grid):
        sample = sample_process(ProcessSpec("wiener", J=30), 100, unit_grid, SeededRng(33, 0))
        system = fit_fpca(sample)
        x = Curve(unit_grid, np.zeros(unit_grid.size))
        with pytest.warns(SmallBallWarning):
            report = factorize(sample, x, 1e-6, 1, system, 0.3, 10)
        assert report.phi_d == 0.0

    def test_json_fields(self, unit_grid):
        import json

        sample = sample_process(ProcessSpec("wiener", J=30), 100, unit_grid, SeededRng(34, 0))
        system = fit_fpca(sample)
        x = Curve(unit_grid, np.zeros(unit_grid.size))
        report = factorize(sample, x, 0.5, 2, system, 0.3, 10)
        payload = json.loads(report.to_json())
        assert set(payload) == {"d", "eps", "f_d", "volume", "correction", "phi_d", "tail_mass_omitted"}
        assert payload["d"] == 2

    def test_json_refuses_nan_and_infinity(self):
        report = FactorizationReport(d=1, eps=0.5, f_d_at_x=math.inf, volume=1.0, correction=0.0,
                                     phi_d=math.nan, tail_mass_omitted=0.0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json()

    @pytest.mark.parametrize("f_d", [math.inf, math.nan, 1e308])
    def test_phi_d_outside_the_float_range_refused(self, unit_grid, f_d):
        sample = sample_process(ProcessSpec("wiener", J=30), 100, unit_grid, SeededRng(34, 0))
        x = Curve(unit_grid, np.zeros(unit_grid.size))
        with pytest.raises(ValueError, match=r"is not finite at d = 1, eps = 3$"):
            factorize(sample, x, 3.0, 1, fit_fpca(sample), f_d, 10)

    def test_requires_d_below_J(self, unit_grid):
        sample = sample_process(ProcessSpec("wiener", J=10), 20, unit_grid, SeededRng(35, 0))
        system = fit_fpca(sample)
        x = Curve(unit_grid, np.zeros(unit_grid.size))
        with pytest.raises(ValueError):
            factorize(sample, x, 0.5, 5, system, 0.3, 5)


class TestCorrectionMonotonicityLaws:
    """Monotonicity laws of the correction factor on a fixed Wiener tail sample."""

    def setup_method(self):
        grid = Grid.uniform(0.0, 1.0, 100)
        sample = sample_process(ProcessSpec("wiener", J=30), 400, grid, SeededRng(36, 0))
        system = fit_fpca(sample)
        self.J = 12
        self.tails = scores(sample, system, self.J).entries
        x = Curve(grid, 0.8 * (2.0 * math.sqrt(2.0) / math.pi) * np.sin(0.5 * math.pi * grid.points))
        self.x_scores = scores(x, system, self.J)
        self.eps_grid = np.geomspace(0.05, 2.0, 20)

    def psi(self, eps, d):
        return correction_factor(self.tails[:, d:], self.x_scores[d:], eps, d)

    def test_unit_interval_and_monotone_grid(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallBallWarning)
            for d in range(1, 7):
                values = np.array([self.psi(eps, d) for eps in self.eps_grid])
                assert np.all((values >= 0.0) & (values <= 1.0))
                assert np.all(np.diff(values) >= -1e-14)

    def test_psi_power_monotone_in_d(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallBallWarning)
            for eps in self.eps_grid:
                powered = [self.psi(eps, d) ** (2.0 / d) for d in range(1, 7)]
                assert np.all(np.diff(powered) >= -1e-12)


class TestClassifyDecayFamilies:
    """The verdicts hold across parameter families, not just single exemplars."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_stretched_exponentials_are_hyper(self, beta, alpha):
        j = np.arange(1, 200, dtype=float)
        lam = np.exp(-beta * j**alpha)
        lam = lam[lam > 0]
        # Slow members of the family need a longer window before the
        # hyper ratio drops under the finite-horizon threshold.
        horizon = 120 if alpha < 2 else 40
        report = classify_decay(lam, horizon)
        assert report.label is DecayClass.HYPER, (beta, alpha, report.label)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_geometric_sequences_are_exponential_only(self, beta):
        lam = np.exp(-beta * np.arange(1, 80, dtype=float))
        lam = lam[lam > 0]
        assert classify_decay(lam, 40).label is DecayClass.EXPONENTIAL

    @pytest.mark.parametrize("power", [1.5, 2.0, 4.0])
    def test_polynomial_sequences_are_slower(self, power):
        lam = np.arange(1, 501, dtype=float) ** -power
        assert classify_decay(lam, 40).label is DecayClass.SLOWER


_SCALE_LAW_GRID = Grid.uniform(0.0, 1.0, 100)


def _small_ball_chain(sample, x, eps, d, family):
    """phi_d of the whole chain (fit, project, bandwidth, KDE, factorize) and the oracle's hit fraction."""
    system = fit_fpca(sample)
    centre = FunctionalSample(sample.grid, x.values[None, :])
    f_d = float(estimate_surrogate_density(sample, system, centre, [d], family)[d][1][0])
    return factorize(sample, x, eps, d, system, f_d, 8), empirical_smbp(sample, x, eps)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d=st.integers(1, 3),
    family=st.sampled_from(KERNEL_FAMILIES),
    k=st.one_of(st.integers(-30, 30), st.none()),
    c=st.sampled_from([1e-3, 7.3, 1e4]),
    eps=st.floats(0.2, 1.2),
)
def test_small_ball_scale_law(seed, d, family, k, c, eps):
    # Curves, centre and eps in other units: f_d scales by c^-d and V_d by c^d, so phi_d
    # stays; S, and so psi and the hits, are the same numbers.  A power of two is exact.
    c = c if k is None else 2.0**k
    sample = sample_process(ProcessSpec("wiener", J=20), 200, _SCALE_LAW_GRID, SeededRng(seed, 0))
    x = Curve(_SCALE_LAW_GRID, 0.5 * sample.values[0])
    report, hits = _small_ball_chain(sample, x, eps, d, family)
    scaled = FunctionalSample(_SCALE_LAW_GRID, c * sample.values)
    report_c, hits_c = _small_ball_chain(scaled, Curve(_SCALE_LAW_GRID, c * x.values), c * eps, d, family)
    assert report_c.phi_d == pytest.approx(report.phi_d, rel=1e-12, abs=0.0)
    if k is not None:
        assert (report_c.correction, hits_c) == (report.correction, hits)
