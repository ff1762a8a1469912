import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallball import (
    Curve,
    DensityEstimator,
    EigenSystem,
    FunctionalSample,
    Grid,
    KernelSpec,
    SeededRng,
    eigendecompose,
    empirical_covariance,
    empirical_mean,
    fev,
    fit_fpca,
    kde_evaluate_many,
    sample_sine,
    sample_wiener,
    scores,
    select_dimension_fev,
    wiener_eigenvalues,
    write_eigensystem_csv,
)
from smallball import grids


def unit_bump(grid: Grid) -> np.ndarray:
    """A smooth curve normalized to quadrature norm 1."""
    values = np.exp(-0.5 * ((grid.points - 0.4) / 0.15) ** 2)
    return values / np.sqrt(np.sum(grid.weights * values**2))


class TestMeanAndCovariance:
    def test_opposite_curves_average_to_zero(self, unit_grid):
        g = unit_bump(unit_grid)
        sample = FunctionalSample(unit_grid, np.stack([g, -g]))
        assert np.allclose(empirical_mean(sample).values, 0.0)

    def test_identical_curves(self, unit_grid):
        g = unit_bump(unit_grid)
        sample = FunctionalSample(unit_grid, np.tile(g, (4, 1)))
        assert np.allclose(empirical_mean(sample).values, g)
        assert np.allclose(empirical_covariance(sample), 0.0)

    def test_sine_coefficients_average(self, sine_grid):
        e1 = np.sqrt(2.0 / np.pi) * np.sin(sine_grid.points)
        sample = FunctionalSample(sine_grid, np.array([1.0, -1.0, 2.0])[:, None] * e1)
        assert np.allclose(empirical_mean(sample).values, (2.0 / 3.0) * e1)

    def test_rank_one_covariance(self, unit_grid):
        g = unit_bump(unit_grid)
        sample = FunctionalSample(unit_grid, np.stack([g, -g]))
        assert np.allclose(empirical_covariance(sample), np.outer(g, g))

    def test_covariance_exactly_symmetric(self, unit_grid):
        rng = np.random.default_rng(7)
        sample = FunctionalSample(unit_grid, rng.standard_normal((20, unit_grid.size)))
        cov = empirical_covariance(sample)
        assert np.array_equal(cov, cov.T)


class TestEigendecompose:
    def test_rank_one(self, unit_grid):
        e = unit_bump(unit_grid)
        c = 0.7
        sample = FunctionalSample(unit_grid, np.stack([c * e, -c * e]))
        system = fit_fpca(sample)
        assert system.eigenvalues[0] == pytest.approx(c**2, rel=1e-10)
        assert system.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        sign = np.sign(np.dot(system.eigenfunctions[0], e))
        assert np.allclose(sign * system.eigenfunctions[0], e, atol=1e-8)

    def test_zero_matrix(self, unit_grid):
        mean = Curve(unit_grid, np.zeros(unit_grid.size))
        system = eigendecompose(np.zeros((unit_grid.size, unit_grid.size)), unit_grid, mean)
        assert np.all(system.eigenvalues == 0.0)

    def test_rejects_clearly_negative_eigenvalue(self, unit_grid):
        # Eigenvalues -1e-3 * lambda_max are no rounding noise at any scale.
        sqw = np.sqrt(unit_grid.weights)
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((unit_grid.size, 3)))
        lam = np.array([1e4, 5e3, -10.0])
        cov = (q * lam) @ q.T / np.outer(sqw, sqw)
        mean = Curve(unit_grid, np.zeros(unit_grid.size))
        with pytest.raises(ValueError, match="broken"):
            eigendecompose(cov, unit_grid, mean)

    def test_rejects_asymmetric(self, unit_grid):
        mean = Curve(unit_grid, np.zeros(unit_grid.size))
        cov = np.zeros((unit_grid.size, unit_grid.size))
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(cov, unit_grid, mean)

    def test_wiener_leading_eigenvalue(self, unit_grid):
        sample = sample_wiener(2000, unit_grid, 50, SeededRng(0, 0))
        system = fit_fpca(sample)
        assert abs(system.eigenvalues[0] - 4.0 / np.pi**2) < 0.03

    def test_orthonormality_and_descending(self, unit_grid):
        sample = sample_wiener(300, unit_grid, 50, SeededRng(5, 0))
        system = fit_fpca(sample)
        w = unit_grid.weights
        gram = (system.eigenfunctions * w) @ system.eigenfunctions.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8
        assert np.all(np.diff(system.eigenvalues) <= 0)

    def test_trace_identity(self, unit_grid):
        sample = sample_wiener(150, unit_grid, 50, SeededRng(6, 0))
        system = fit_fpca(sample)
        centered = sample.values - sample.values.mean(axis=0)
        total = np.mean(np.sum(unit_grid.weights * centered**2, axis=1))
        assert system.eigenvalues.sum() == pytest.approx(total, rel=1e-8)

    def test_covariance_reconstruction(self, unit_grid):
        sample = sample_wiener(40, unit_grid, 50, SeededRng(7, 0))
        cov = empirical_covariance(sample)
        system = fit_fpca(sample)
        rebuilt = (system.eigenfunctions.T * system.eigenvalues) @ system.eigenfunctions
        rel = np.linalg.norm(rebuilt - cov) / np.linalg.norm(cov)
        assert rel < 1e-6


class TestScores:
    def exact_sine_system(self, sine_grid) -> EigenSystem:
        e1 = np.sqrt(2.0 / np.pi) * np.sin(sine_grid.points)
        return EigenSystem(
            grid=sine_grid,
            mean=np.zeros(sine_grid.size),
            eigenvalues=np.array([1.0]),
            eigenfunctions=e1[None, :],
        )

    def test_mean_curve_scores_to_zero(self, unit_grid):
        sample = sample_wiener(50, unit_grid, 20, SeededRng(8, 0))
        system = fit_fpca(sample)
        vec = scores(empirical_mean(sample), system, 5)
        assert np.max(np.abs(vec)) < 1e-12

    def test_target_projection_recovers_b(self, sine_grid):
        system = self.exact_sine_system(sine_grid)
        for b in (-1.5, 0.25, 3.0):
            x = Curve(sine_grid, b * np.sqrt(2.0 / np.pi) * np.sin(sine_grid.points))
            assert abs(scores(x, system, 1)[0] - b) < 1e-3

    def test_column_statistics(self, unit_grid):
        sample = sample_wiener(400, unit_grid, 50, SeededRng(9, 0))
        system = fit_fpca(sample)
        sm = scores(sample, system, 6)
        assert np.max(np.abs(sm.entries.mean(axis=0))) < 1e-10
        assert np.allclose(sm.entries.var(axis=0), system.eigenvalues[:6], rtol=1e-8)
        gram = sm.entries.T @ sm.entries / sm.n
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8
        assert np.allclose(np.diag(gram), system.eigenvalues[:6], atol=1e-8)

    def test_d_out_of_range(self, unit_grid):
        sample = sample_wiener(10, unit_grid, 10, SeededRng(10, 0))
        system = fit_fpca(sample)
        with pytest.raises(ValueError):
            scores(sample, system, unit_grid.size + 1)

    def test_sign_flip_leaves_kde_invariant(self, unit_grid):
        """Flipping an eigenfunction flips sample and target scores together."""
        sample = sample_wiener(200, unit_grid, 30, SeededRng(11, 0))
        system = fit_fpca(sample)
        flipped = EigenSystem(
            grid=system.grid,
            mean=system.mean,
            eigenvalues=system.eigenvalues,
            eigenfunctions=system.eigenfunctions * np.where(
                np.arange(system.eigenfunctions.shape[0]) == 1, -1.0, 1.0
            )[:, None],
        )
        x = sample.curve(3)
        for sys_ in (system, flipped):
            sm = scores(sample, sys_, 3)
            est = DensityEstimator(sm, 0.3, KernelSpec("epanechnikov-radial", 3))
            val = kde_evaluate_many(est, scores(x, sys_, 3)[None, :])[0]
            if sys_ is system:
                reference = val
        assert val == pytest.approx(reference, rel=1e-12)


class TestFev:
    def test_wiener_analytic_fractions(self):
        lam = wiener_eigenvalues(100_000)
        assert abs(fev(lam, 1) - 8.0 / np.pi**2) < 1e-4
        assert abs(fev(lam, 6) - 0.966) < 1e-3

    def test_full_dimension_is_one(self):
        lam = np.array([3.0, 2.0, 1.0])
        assert fev(lam, 3) == 1.0

    def test_monotone_in_d(self):
        lam = wiener_eigenvalues(50)
        values = [fev(lam, d) for d in range(1, 51)]
        assert np.all(np.diff(values) >= 0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fev(np.zeros(5), 1)


class TestSelectDimensionFev:
    def test_wiener_table_thresholds(self):
        lam = wiener_eigenvalues(50)  # the experiment-standard truncation
        assert select_dimension_fev(lam, 0.95) == 4
        assert select_dimension_fev(lam, 0.90) == 2

    def test_degenerate_spectrum(self):
        assert select_dimension_fev(np.array([1.0, 0.0, 0.0]), 0.5) == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            select_dimension_fev(np.array([1.0, 0.5]), 1.0)


def test_eigensystem_csv_export(tmp_path, unit_grid):
    sample = sample_wiener(50, unit_grid, 10, SeededRng(12, 0))
    system = fit_fpca(sample)
    path = tmp_path / "eig.csv"
    write_eigensystem_csv(system, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0].startswith("lambda,")
    first = np.array([float(v) for v in rows[1].split(",")])
    assert first[0] == pytest.approx(system.eigenvalues[0])
    assert np.allclose(first[1:], system.eigenfunctions[0])


def test_sine_sample_is_rank_one():
    grid = Grid.uniform(0.0, np.pi, 100)
    sample = sample_sine(200, grid, "std-normal", SeededRng(13, 0))
    system = fit_fpca(sample)
    assert system.eigenvalues[1] / system.eigenvalues[0] < 1e-10


def test_rank_bounded_by_sample_size(unit_grid):
    sample = sample_wiener(40, unit_grid, 50, SeededRng(14, 0))
    system = fit_fpca(sample)
    assert np.all(system.eigenvalues[40:] < 1e-12)


def test_numerical_rank(unit_grid, sine_grid):
    assert fit_fpca(sample_sine(80, sine_grid, "std-normal", SeededRng(21, 0))).rank == 1
    assert fit_fpca(sample_wiener(40, unit_grid, 50, SeededRng(14, 0))).rank == 39
    assert fit_fpca(sample_wiener(200, unit_grid, 12, SeededRng(14, 0))).rank == 12
    assert fit_fpca(FunctionalSample(unit_grid, np.ones((5, unit_grid.size)))).rank == 0


def test_units_do_not_decide_acceptance(unit_grid):
    # Rank-deficient (n < p) paths in other units: the rounding noise of the
    # null eigenvalues grows with the scale, and must still be clamped.
    sample = sample_wiener(50, unit_grid, 50, SeededRng(3, 0))
    system = fit_fpca(FunctionalSample(unit_grid, 1e4 * sample.values))
    assert system.rank == 49
    assert np.all(system.eigenvalues >= 0.0)


_SCALE_BASE = sample_wiener(30, Grid.uniform(0.0, 1.0, 100), 50, SeededRng(15, 0))
_SCALE_FIT = fit_fpca(_SCALE_BASE)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.floats(min_value=1e-3, max_value=1e4))
def test_scaling_law(c):
    scaled = fit_fpca(FunctionalSample(_SCALE_BASE.grid, c * _SCALE_BASE.values))
    r = _SCALE_FIT.rank
    assert scaled.rank == r
    np.testing.assert_allclose(scaled.eigenvalues[:r], c**2 * _SCALE_FIT.eigenvalues[:r], rtol=1e-8)
    np.testing.assert_allclose(scaled.eigenfunctions[:3], _SCALE_FIT.eigenfunctions[:3], atol=1e-8)


_SHIFT_TARGETS = sample_wiener(7, _SCALE_BASE.grid, 50, SeededRng(16, 0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.floats(min_value=-100.0, max_value=100.0))
def test_scores_invariant_under_a_constant_shift(c):
    # Adding the constant curve c to the sample moves only the mean, so the
    # scores of targets shifted by the same c do not change.
    grid = _SCALE_BASE.grid
    shifted = fit_fpca(FunctionalSample(grid, _SCALE_BASE.values + c))
    moved = FunctionalSample(grid, _SHIFT_TARGETS.values + c)
    for d in (1, 3):
        base = scores(_SHIFT_TARGETS, _SCALE_FIT, d).entries
        np.testing.assert_allclose(scores(moved, shifted, d).entries, base, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(scores(Curve(grid, moved.values[0]), shifted, d), base[0], rtol=0.0, atol=1e-8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p=st.integers(min_value=3, max_value=60),
    n=st.integers(min_value=2, max_value=40),
)
def test_eigenfunctions_orthonormal_on_nonuniform_grid(seed, p, n):
    rng = np.random.default_rng(seed)
    grid = Grid(np.cumsum(rng.uniform(0.01, 1.0, size=p)))
    system = fit_fpca(FunctionalSample(grid, rng.standard_normal((n, p)).cumsum(axis=1)))
    gram = (system.eigenfunctions * grid.weights) @ system.eigenfunctions.T
    np.testing.assert_allclose(gram, np.eye(p), rtol=0.0, atol=1e-10)


def _one_shot_covariance(sample: FunctionalSample) -> np.ndarray:
    """The covariance as computed before row blocks: one centred copy of the whole sample."""
    centered = sample.values - sample.values.mean(axis=0)
    cov = centered.T @ centered / sample.n
    return 0.5 * (cov + cov.T)


def _one_shot_scores(values: np.ndarray, system: EigenSystem, d: int) -> np.ndarray:
    """The projection as computed before row blocks."""
    return (values - system.mean) @ (system.eigenfunctions[:d] * system.grid.weights).T


class TestRowBlocks:
    ROWS = 7  # rows per block under the shrunken budget

    @pytest.mark.parametrize("n", [ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 2])
    def test_blocked_covariance_and_scores_match_one_shot(self, n, unit_grid, block_rows):
        sample = sample_wiener(n, unit_grid, 20, SeededRng(30 + n, 0))
        block_rows(self.ROWS, unit_grid.size)
        cov, oracle = empirical_covariance(sample), _one_shot_covariance(sample)
        np.testing.assert_allclose(cov, oracle, rtol=1e-13, atol=1e-13 * np.abs(oracle).max())
        assert np.array_equal(cov, cov.T)
        system = fit_fpca(sample)
        d = min(4, n - 1)
        got, want = scores(sample, system, d).entries, _one_shot_scores(sample.values, system, d)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        if n <= self.ROWS:  # one block is the one-shot arithmetic, bit for bit
            assert cov.tobytes() == oracle.tobytes() and got.tobytes() == want.tobytes()

    def test_curve_scores_under_blocks(self, unit_grid, block_rows):
        sample = sample_wiener(3 * self.ROWS, unit_grid, 20, SeededRng(31, 0))
        system = fit_fpca(sample)
        block_rows(self.ROWS, unit_grid.size)
        x = sample.curve(2 * self.ROWS)
        vec = scores(x, system, 3)
        assert vec.shape == (3,)
        assert vec.tobytes() == _one_shot_scores(x.values, system, 3).tobytes()
        np.testing.assert_allclose(vec, scores(sample, system, 3).entries[2 * self.ROWS], rtol=1e-13, atol=1e-15)

    def test_budget_below_one_row_takes_one_row_at_a_time(self, unit_grid, monkeypatch):
        sample = sample_wiener(5, unit_grid, 20, SeededRng(32, 0))
        monkeypatch.setattr(grids, "_ROW_BLOCK_FLOATS", 1)
        oracle = _one_shot_covariance(sample)
        np.testing.assert_allclose(empirical_covariance(sample), oracle, rtol=1e-13, atol=1e-13 * np.abs(oracle).max())


def test_temporaries_stay_one_block(traced_peak):
    # 40 000 curves of 100 points are four blocks; a centred copy of the sample would be four.
    block = grids._ROW_BLOCK_FLOATS * 8
    grid = Grid.uniform(0.0, 1.0, 100)
    sample = FunctionalSample(grid, np.random.default_rng(33).standard_normal((40_000, grid.size)))
    system, peak = traced_peak(lambda: fit_fpca(sample))
    assert peak < 1.5 * block
    projected, peak = traced_peak(lambda: scores(sample, system, 3))
    assert peak - projected.entries.nbytes < 1.5 * block


def test_fit_takes_the_sample_mean_once(unit_grid, monkeypatch):
    # The covariance centres at the mean the fit already took, bit for bit as if it took its own.
    sample = sample_wiener(50, unit_grid, 20, SeededRng(34, 0))
    mean = empirical_mean(sample)
    assert empirical_covariance(sample, mean).tobytes() == empirical_covariance(sample).tobytes()
    calls = []
    monkeypatch.setattr("smallball.fpca.empirical_mean", lambda s: calls.append(s) or mean)
    system = fit_fpca(sample)
    assert len(calls) == 1
    assert system.mean.tobytes() == mean.values.tobytes()
