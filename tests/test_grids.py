import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallball import (
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


class TestGrid:
    def test_trapezoid_weights(self):
        g = Grid.uniform(0.0, 1.0, 5)
        h = 0.25
        assert np.allclose(g.weights, [h / 2, h, h, h, h / 2])

    def test_weights_sum_to_interval_length(self):
        for a, b, p in [(0.0, 1.0, 7), (0.0, math.pi, 100), (-2.0, 5.0, 33)]:
            g = Grid.uniform(a, b, p)
            assert abs(g.weights.sum() - (b - a)) < 1e-12

    def test_nonuniform_weights(self):
        pts = np.array([0.0, 0.1, 0.4, 1.0])
        g = Grid(pts)
        assert np.allclose(g.weights, [0.05, 0.2, 0.45, 0.3])
        assert abs(g.weights.sum() - 1.0) < 1e-12

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, -1.0]))

    def test_immutable(self):
        g = Grid.uniform(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            g.points[0] = 3.0


class TestCurveValidation:
    def test_length_mismatch(self, unit_grid):
        with pytest.raises(ValueError):
            Curve(unit_grid, np.zeros(7))

    def test_nonfinite_rejected(self, unit_grid):
        values = np.zeros(unit_grid.size)
        values[3] = np.nan
        with pytest.raises(ValueError):
            Curve(unit_grid, values)

    def test_sample_shares_grid(self, unit_grid):
        other = Grid.uniform(0.0, 1.0, 50)
        with pytest.raises(GridMismatchError):
            FunctionalSample.from_curves(
                [Curve(unit_grid, np.zeros(100)), Curve(other, np.zeros(50))]
            )


class TestInnerProduct:
    def test_unit_norm_sine(self, sine_grid):
        f = Curve(sine_grid, np.sqrt(2.0 / np.pi) * np.sin(sine_grid.points))
        assert abs(inner_product(f, f) - 1.0) < 1e-3

    def test_zero_curve(self, sine_grid):
        z = Curve(sine_grid, np.zeros(sine_grid.size))
        g = Curve(sine_grid, np.cos(sine_grid.points))
        assert inner_product(z, g) == 0.0

    def test_constant_one_on_unit_interval(self, unit_grid):
        one = Curve(unit_grid, np.ones(unit_grid.size))
        assert inner_product(one, one) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_and_bilinearity(self, unit_grid):
        rng = np.random.default_rng(0)
        f = Curve(unit_grid, rng.standard_normal(unit_grid.size))
        g = Curve(unit_grid, rng.standard_normal(unit_grid.size))
        h = Curve(unit_grid, rng.standard_normal(unit_grid.size))
        assert inner_product(f, g) == pytest.approx(inner_product(g, f))
        fg = Curve(unit_grid, 2.0 * f.values + 3.0 * g.values)
        assert inner_product(fg, h) == pytest.approx(
            2.0 * inner_product(f, h) + 3.0 * inner_product(g, h)
        )

    def test_grid_mismatch(self, unit_grid):
        other = Grid.uniform(0.0, 1.0, 100)
        other = Grid(other.points + 0.0)  # same values, same weights -> matches
        f = Curve(unit_grid, np.ones(100))
        g = Curve(other, np.ones(100))
        assert inner_product(f, g) == pytest.approx(1.0)  # exact equality counts as same grid
        shifted = Grid.uniform(0.0, 2.0, 100)
        with pytest.raises(GridMismatchError):
            inner_product(f, Curve(shifted, np.ones(100)))


class TestNorm:
    def test_constant_one(self, unit_grid):
        one = Curve(unit_grid, np.ones(unit_grid.size))
        assert norm(one) == pytest.approx(1.0, abs=1e-14)

    def test_constant_scales(self):
        g = Grid.uniform(0.0, 3.0, 40)
        c = Curve(g, np.full(40, -2.5))
        assert norm(c) == pytest.approx(2.5 * math.sqrt(3.0), abs=1e-12)

    def test_identity_map(self):
        g = Grid.uniform(0.0, 1.0, 101)
        f = Curve(g, g.points)
        assert abs(norm(f) - 1.0 / math.sqrt(3.0)) < 1e-4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_cauchy_schwarz(data):
    p = data.draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    g = Grid.uniform(0.0, 1.0, p)
    f = Curve(g, rng.standard_normal(p) * 3.0)
    h = Curve(g, rng.standard_normal(p) * 3.0)
    # Exact inequality: the quadrature form is a genuine inner product.
    assert abs(inner_product(f, h)) <= norm(f) * norm(h) * (1.0 + 1e-12) + 1e-15


def test_quadrature_second_order_convergence():
    exact = 2.0  # integral of sin over [0, pi]
    errors = []
    for p in (51, 101, 201):
        g = Grid.uniform(0.0, np.pi, p)
        one = Curve(g, np.ones(p))
        f = Curve(g, np.sin(g.points))
        errors.append(abs(inner_product(f, one) - exact))
    # Halving the mesh should shrink the error by about 4.
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)


class TestCsv:
    def test_roundtrip(self, tmp_path, unit_grid):
        rng = np.random.default_rng(3)
        sample = FunctionalSample(unit_grid, rng.standard_normal((5, unit_grid.size)))
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, path)
        back = read_sample_csv(path)
        assert np.array_equal(back.grid.points, sample.grid.points)
        assert np.array_equal(back.values, sample.values)

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_sample_csv(path)
        assert err.value.line == 3

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_sample_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.0,0.5,1.0\n1.0,2.0,3.0\n\n1.0,{cell},3.0\n")
        with pytest.raises(CsvFormatError, match="finite") as err:
            read_sample_csv(path)
        assert err.value.line == 4

    def test_needs_curve_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("0.0,0.5,1.0\n")
        with pytest.raises(CsvFormatError):
            read_sample_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [("", 1), ("\n\n", 1), ("0.0,0.5,1.0\n", 2), ("\n\n0.0,0.5,1.0\n", 4), ("0.0,0.5,1.0\n\n", 2)],
    )
    def test_missing_row_reports_the_line_it_was_due(self, tmp_path, text, line):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match="grid row plus at least one curve row") as err:
            read_sample_csv(path)
        assert err.value.line == line
