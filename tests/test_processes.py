import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from smallball import (
    Grid,
    ProcessSpec,
    SeededRng,
    default_b_grid,
    default_grid,
    draw_scalar,
    fit_fpca,
    sample_process,
    target_curves,
    true_intensity,
    wiener_eigenvalues,
    wiener_tail_mass,
)
from smallball import processes
from smallball.processes import fourier_sine_basis, sine_basis_function, wiener_basis


class TestDrawScalar:
    @pytest.mark.parametrize("dist", ["std-normal", "std-t5", "std-chisq8"])
    def test_standardized_moments(self, dist):
        draws = draw_scalar(dist, SeededRng(1, 0), size=1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_chisq_skewness(self):
        draws = draw_scalar("std-chisq8", SeededRng(2, 0), size=1_000_000)
        skew = np.mean((draws - draws.mean()) ** 3) / draws.std() ** 3
        assert abs(skew - 1.0) < 0.05

    def test_unknown_dist(self):
        with pytest.raises(ValueError):
            draw_scalar("cauchy", SeededRng(3, 0))


# One valid spec of each kind, with every field its kind reads set off its default.
SPECS = {
    "sine": ProcessSpec("sine", dist="std-chisq8"),
    "wiener": ProcessSpec("wiener", J=30),
    "gaussian-kl": ProcessSpec("gaussian-kl", J=6, lambdas=1.0 / np.arange(1, 8.0) ** 2),
    "exp-power-kl": ProcessSpec("exp-power-kl", J=5, lambdas=np.exp(-np.arange(1, 6.0)), q=3.0),
}


@pytest.mark.parametrize("kind", SPECS)
@pytest.mark.parametrize("n", [0, -1])
def test_n_below_one_refused_by_name(kind, n, unit_grid):
    with pytest.raises(ValueError, match=rf"^sample size n must be at least 1, got n = {n}$"):
        sample_process(SPECS[kind], n, unit_grid, SeededRng(7, 0))


class TestDeterminism:
    @pytest.mark.parametrize("kind", SPECS)
    def test_same_key_same_sample(self, kind, unit_grid):
        a = sample_process(SPECS[kind], 20, unit_grid, SeededRng(7, 3))
        b = sample_process(SPECS[kind], 20, unit_grid, SeededRng(7, 3))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", SPECS)
    def test_distinct_streams_differ(self, kind, unit_grid):
        a = sample_process(SPECS[kind], 20, unit_grid, SeededRng(7, 0))
        b = sample_process(SPECS[kind], 20, unit_grid, SeededRng(7, 1))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", SPECS)
    def test_stream_order_irrelevant(self, kind, unit_grid):
        forward = [sample_process(SPECS[kind], 5, unit_grid, SeededRng(9, s)).values for s in range(4)]
        backward = [sample_process(SPECS[kind], 5, unit_grid, SeededRng(9, s)).values for s in (3, 2, 1, 0)]
        for s in range(4):
            assert np.array_equal(forward[s], backward[3 - s])


class TestSineProcess:
    def test_rank_one_spectrum(self, sine_grid):
        sample = sample_process(ProcessSpec("sine"), 300, sine_grid, SeededRng(10, 0))
        system = fit_fpca(sample)
        assert system.eigenvalues[1] / system.eigenvalues[0] < 1e-10

    def test_leading_eigenvalue_near_one(self, sine_grid):
        sample = sample_process(ProcessSpec("sine"), 5000, sine_grid, SeededRng(11, 0))
        system = fit_fpca(sample)
        assert abs(system.eigenvalues[0] - 1.0) < 0.05

    def test_eigenfunction_recovers_basis(self, sine_grid):
        sample = sample_process(ProcessSpec("sine", dist="std-t5"), 500, sine_grid, SeededRng(12, 0))
        system = fit_fpca(sample)
        e1 = sine_basis_function(sine_grid)
        gap = np.sum(sine_grid.weights * (system.eigenfunctions[0] - e1) ** 2)
        flipped = np.sum(sine_grid.weights * (system.eigenfunctions[0] + e1) ** 2)
        assert min(gap, flipped) < 1e-10


class TestWienerProcess:
    def test_starts_at_zero(self, unit_grid):
        sample = sample_process(ProcessSpec("wiener", J=50), 50, unit_grid, SeededRng(13, 0))
        assert np.all(sample.values[:, 0] == 0.0)

    def test_pointwise_variance_at_endpoint(self, unit_grid):
        truncated_var = 2.0 * wiener_eigenvalues(50).sum()  # brute-force partial sum
        sample = sample_process(ProcessSpec("wiener", J=50), 2000, unit_grid, SeededRng(14, 0))
        estimate = sample.values[:, -1].var()
        assert abs(estimate - truncated_var) < 0.1

    def test_basis_is_built_once_per_grid_and_j(self, unit_grid):
        processes._basis_on.cache_clear()
        spec = ProcessSpec("wiener", J=20)
        first = sample_process(spec, 30, unit_grid, SeededRng(15, 0))
        again = sample_process(spec, 30, Grid(unit_grid.points.copy()), SeededRng(15, 0))
        info = processes._basis_on.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        draws = SeededRng(15, 0).generator().standard_normal((30, 20)) * np.sqrt(wiener_eigenvalues(20))
        built = draws @ wiener_basis(unit_grid, 20)
        assert first.values.tobytes() == again.values.tobytes() == built.tobytes()
        sample_process(spec, 30, Grid.uniform(0.0, 2.0, 100), SeededRng(15, 0))
        sample_process(ProcessSpec("wiener", J=21), 30, unit_grid, SeededRng(15, 0))
        assert processes._basis_on.cache_info().currsize == 3
        # Each kind has its own entry; the cache keeps the last four.
        for kind in ("sine", "gaussian-kl", "exp-power-kl"):
            sample_process(SPECS[kind], 30, unit_grid, SeededRng(15, 0))
        info = processes._basis_on.cache_info()
        assert (info.misses, info.currsize) == (6, 4)
        assert not processes._basis_on("sine", unit_grid.points.tobytes(), 50).flags.writeable

    def test_tail_mass(self):
        assert wiener_tail_mass(50) == pytest.approx(0.002, abs=3e-4)
        assert wiener_tail_mass(50) == pytest.approx(0.5 - wiener_eigenvalues(50).sum(), abs=1e-15)

    def test_empirical_fev(self, unit_grid):
        from smallball import fev

        sample = sample_process(ProcessSpec("wiener", J=50), 2000, unit_grid, SeededRng(0, 0))
        system = fit_fpca(sample)
        assert abs(fev(system.eigenvalues, 1) - 0.811) < 0.02


class TestKlGenerators:
    lam = np.exp(-np.arange(1, 9, dtype=float) ** 2)

    def test_score_variances(self, unit_grid):
        n = 4000
        sample = sample_process(ProcessSpec("gaussian-kl", J=8, lambdas=self.lam), n, unit_grid, SeededRng(15, 0))
        basis = fourier_sine_basis(unit_grid, 3)
        theta = sample.values @ (basis * unit_grid.weights).T
        for j in range(3):
            se = self.lam[j] * math.sqrt(2.0 / n)
            assert abs(theta[:, j].var() - self.lam[j]) < 3.5 * se

    def test_exp_power_q2_matches_gaussian_law(self, unit_grid):
        n = 4000
        gauss = sample_process(ProcessSpec("gaussian-kl", J=8, lambdas=self.lam), n, unit_grid, SeededRng(16, 0))
        spec = ProcessSpec("exp-power-kl", J=8, lambdas=self.lam, q=2.0)
        power = sample_process(spec, n, unit_grid, SeededRng(17, 0))
        e1 = fourier_sine_basis(unit_grid, 1)[0]
        w = unit_grid.weights
        _, p_value = ks_2samp(gauss.values @ (e1 * w), power.values @ (e1 * w))
        assert p_value > 0.01

    def test_exp_power_unit_variance(self, unit_grid):
        for q in (2.0, 3.0, 6.0):
            spec = ProcessSpec("exp-power-kl", J=1, lambdas=(1.0,), q=q)
            sample = sample_process(spec, 30_000, unit_grid, SeededRng(18, 0))
            e1 = fourier_sine_basis(unit_grid, 1)[0]
            theta = sample.values @ (e1 * unit_grid.weights)
            assert abs(theta.var() - 1.0) < 0.05

    def test_rejects_small_q(self):
        for q in (1.0, 1.999):
            with pytest.raises(ValueError, match=r"^the exponential-power family requires q >= 2$"):
                ProcessSpec("exp-power-kl", J=1, lambdas=(1.0,), q=q)


class TestProcessSpec:
    @staticmethod
    def _karhunen_loeve_sum(kind, n, grid, seed):
        """sum_j sqrt(lambda_j) xi_j e_j built term by term from the spec's Philox stream."""
        spec, g = SPECS[kind], SeededRng(seed, 2).generator()
        if kind == "sine":
            lam, basis = [1.0], sine_basis_function(grid)[None, :]
            xi = (g.chisquare(8, (n, 1)) - 8.0) / 4.0
        elif kind == "wiener":
            lam, basis = wiener_eigenvalues(spec.J), wiener_basis(grid, spec.J)
            xi = g.standard_normal((n, spec.J))
        else:
            lam, basis = spec.lambdas[: spec.J], fourier_sine_basis(grid, spec.J)
            if kind == "gaussian-kl":
                xi = g.standard_normal((n, spec.J))
            else:
                radius = g.gamma(1.0 / spec.q, size=(n, spec.J)) ** (1.0 / spec.q)
                sign = 2.0 * g.integers(0, 2, size=(n, spec.J)) - 1.0
                xi = sign * radius / math.sqrt(math.gamma(3.0 / spec.q) / math.gamma(1.0 / spec.q))
        return sum(math.sqrt(lam[j]) * xi[:, j, None] * basis[j][None, :] for j in range(len(lam)))

    @pytest.mark.parametrize("kind", SPECS)
    def test_sample_is_its_karhunen_loeve_sum(self, kind, unit_grid, sine_grid):
        grid = sine_grid if kind == "sine" else unit_grid
        for n in (1, 40):
            sample = sample_process(SPECS[kind], n, grid, SeededRng(20, 2))
            assert sample.grid is grid and sample.values.shape == (n, grid.size)
            expected = self._karhunen_loeve_sum(kind, n, grid, 20)
            np.testing.assert_allclose(sample.values, expected, rtol=0, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec(kind="brownian-bridge")
        with pytest.raises(ValueError):
            ProcessSpec(kind="gaussian-kl", J=4, lambdas=(1.0, 0.5))
        with pytest.raises(ValueError):
            ProcessSpec(kind="exp-power-kl", J=1, lambdas=(1.0,), q=1.5)

    # Valid settings of each kind, and a value other than the default for each field.
    READ = {
        "sine": {"dist": "std-t5"},
        "wiener": {"J": 7},
        "gaussian-kl": {"J": 2, "lambdas": (1.0, 0.5)},
        "exp-power-kl": {"J": 2, "lambdas": (1.0, 0.5), "q": 3.0},
    }
    OTHER = {"dist": "std-chisq8", "J": 7, "lambdas": (9.0, 8.0), "q": 7.0}

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("sine", "J"), ("sine", "lambdas"), ("sine", "q"),
            ("wiener", "dist"), ("wiener", "lambdas"), ("wiener", "q"),
            ("gaussian-kl", "dist"), ("gaussian-kl", "q"),
            ("exp-power-kl", "dist"),
        ],
    )
    def test_refuses_a_field_its_kind_does_not_read(self, kind, field):
        with pytest.raises(ValueError, match=f"^a {kind} process does not read {field}; leave it unset$"):
            ProcessSpec(kind=kind, **{**self.READ[kind], field: self.OTHER[field]})

    @pytest.mark.parametrize("kind", ["sine", "wiener", "gaussian-kl", "exp-power-kl"])
    def test_unread_fields_may_be_given_their_defaults(self, kind):
        defaults = {"dist": "std-normal", "J": 50, "lambdas": [], "q": 2}
        spec = ProcessSpec(kind=kind, **{**defaults, **self.READ[kind]})
        assert spec == ProcessSpec(kind=kind, **self.READ[kind])

    def test_default_grids(self):
        assert default_grid("sine").b == pytest.approx(math.pi)
        assert default_grid("wiener").b == 1.0
        assert default_grid("sine").size == 100


class TestTargets:
    def test_b_grid_ranges(self):
        b = default_b_grid("sine", "std-chisq8")
        assert b[0] == -2.0 and b[-1] == 6.0 and b.size == 160
        b = default_b_grid("sine", "std-normal")
        assert b[0] == -4.0 and b[-1] == 4.0

    def test_sine_targets_scale_basis(self, sine_grid):
        targets = target_curves("sine", [2.0], sine_grid)
        assert np.allclose(targets.values[0], 2.0 * sine_basis_function(sine_grid))

    def test_true_intensity_values(self):
        assert true_intensity("wiener", "std-normal", [0.0])[0] == 1.0
        assert true_intensity("sine", "std-normal", [0.0])[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        assert true_intensity("sine", "std-chisq8", [-2.0])[0] == 0.0

    def test_densities_integrate_to_one(self):
        b = np.linspace(-100.0, 100.0, 80001)
        for dist in ("std-normal", "std-t5", "std-chisq8"):
            values = true_intensity("sine", dist, b)
            assert abs(np.trapezoid(values, b) - 1.0) < 1e-3

    def test_densities_have_unit_variance(self):
        b = np.linspace(-100.0, 100.0, 80001)
        for dist in ("std-normal", "std-t5", "std-chisq8"):
            values = true_intensity("sine", dist, b)
            mean = np.trapezoid(b * values, b)
            var = np.trapezoid((b - mean) ** 2 * values, b)
            assert abs(mean) < 1e-6
            assert abs(var - 1.0) < 2e-3
