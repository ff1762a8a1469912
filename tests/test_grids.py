import math
import os
import re
import shutil
import subprocess
import threading
import warnings

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
    grids,
    inner_product,
    norm,
    read_sample_csv,
    write_sample_csv,
)


def _oracle_read_sample_csv(path) -> FunctionalSample:
    """The reader as it was before numpy parsed the cells: Python float() per cell, line by line."""
    rows: list[list[float]] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            linenos.append(lineno)
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise CsvFormatError(lineno, f"cannot parse value: {exc}") from None
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise CsvFormatError(
                    lineno,
                    f"expected {len(rows[0])} columns, found {len(rows[-1])}",
                )
    if len(rows) < 2:
        raise CsvFormatError(linenos[-1] + 1 if linenos else 1, "need a grid row plus at least one curve row")
    table = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise CsvFormatError(linenos[bad[0]], "values must be finite (found nan or inf)")
    return FunctionalSample(Grid(table[0]), table[1:])


def _error_line(reader, path):
    with pytest.raises(CsvFormatError) as err:
        reader(path)
    return err.value.line


# Values whose text form is hard to round-trip: signed zero, subnormals, the
# extremes of the exponent range and 17 significant digits.
_AWKWARD = [-0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e300, 0.1 + 0.2, 1.0000000000000002, 123456789.12345679]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_AWKWARD))
_BLANKS = ["", "   ", "\t", " \t "]


@st.composite
def _samples(draw, max_rows=4):
    """A small sample with awkward values; grid points stay within 1e300 so their spacings are finite."""
    grid = sorted(draw(st.lists(_finite.filter(lambda v: abs(v) <= 1e300), min_size=2, max_size=5, unique=True)))
    n = draw(st.integers(min_value=1, max_value=max_rows))
    values = draw(st.lists(st.lists(_finite, min_size=len(grid), max_size=len(grid)), min_size=n, max_size=n))
    return FunctionalSample(Grid(np.array(grid)), np.array(values))


def _with_blanks(draw, lines):
    """Insert blank and whitespace-only lines at drawn positions."""
    lines = list(lines)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(st.sampled_from(_BLANKS)))
    return lines


def _write_lines(path, lines, newline):
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))


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

    def test_bad_cell_names_value_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n\n1.0,x,3.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_sample_csv(path)
        assert str(err.value) == "line 4: cannot parse value 'x' in column 2"

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"])
    def test_cells_float_accepts_but_the_parser_refuses(self, tmp_path, cell):
        # Python's float() reads digit-group underscores and non-ASCII digits; the C parser does not.
        path = tmp_path / "bad.csv"
        path.write_text(f"0.0,0.5,1.0\n1.0,2.0,3.0\n2.0,{cell},3.0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="cannot parse value") as err:
            read_sample_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_empty_file_raises_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError) as err:
                read_sample_csv(path)
        assert err.value.line == 1


def _read_through_pipe(tmp_path, text: str, read=read_sample_csv):
    """``read(fifo)`` of ``text`` fed through a named pipe, one line at a time, by a writer thread.

    The lines are split before the writer starts, so a reader measured inside
    ``read`` does not count a copy of the text.  A lone surrogate in ``text``
    is written as the byte it escapes.
    """
    fifo = tmp_path / "sample.fifo"
    os.mkfifo(fifo)
    lines = text.splitlines(keepends=True)

    def write():
        with open(fifo, "w", encoding="utf-8", errors="surrogateescape") as fh:
            for line in lines:
                fh.write(line)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
class TestCsvPipe:
    # A pipe is read in the same single pass as a file, errors and all.
    def test_pipe_reads_like_the_file(self, tmp_path, unit_grid):
        sample = FunctionalSample(unit_grid, np.random.default_rng(5).standard_normal((40, unit_grid.size)))
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, path)
        text = path.read_text(encoding="utf-8").replace("\n", "\n\n", 3)
        back, from_file = _read_through_pipe(tmp_path, text), read_sample_csv(path)
        assert back.grid.points.tobytes() == from_file.grid.points.tobytes() == sample.grid.points.tobytes()
        assert back.values.tobytes() == from_file.values.tobytes() == sample.values.tobytes()

    def test_bad_cell_on_the_last_line_is_named(self, tmp_path):
        text = "0.0,0.5,1.0\n1.0,2.0,3.0\n\n4.0,5.0,6.0\n1.0,x,3.0\n"
        with pytest.raises(CsvFormatError) as err:
            _read_through_pipe(tmp_path, text)
        assert str(err.value) == "line 5: cannot parse value 'x' in column 2"

    @pytest.mark.parametrize(
        "text, error",
        [
            ("x,0.5,1.0\n1.0,2.0,3.0\n", "line 1: cannot parse value 'x' in column 1"),
            ("0.0,0.5,1.0\n1.0,2.0\n4.0,5.0,6.0\n", "line 2: expected 3 columns, found 2"),
            ("0.0,0.5,1.0\n1.0,2.0,3.0\n\n4.0,nan,6.0\n7.0,8.0,9.0\n", "line 4: values must be finite (found nan or inf)"),
        ],
        ids=["bad cell on line 1", "short row on line 2", "nan on a later line"],
    )
    def test_fault_is_named(self, tmp_path, text, error):
        with pytest.raises(CsvFormatError) as err:
            _read_through_pipe(tmp_path, text)
        assert str(err.value) == error

    def test_read_peak_memory_under_twice_the_values(self, tmp_path, traced_peak):
        # The lines are parsed as they arrive: no list of them is held.
        grid = Grid.uniform(0.0, 1.0, 100)
        sample = FunctionalSample(grid, np.random.default_rng(6).standard_normal((2000, grid.size)))
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, path)
        text = path.read_text(encoding="utf-8")
        back, peak = _read_through_pipe(tmp_path, text, read=lambda fifo: traced_peak(lambda: read_sample_csv(fifo)))
        assert back.values.tobytes() == sample.values.tobytes()
        assert peak < 2 * back.values.nbytes


# A short row 0 sets the width, so row 1 is the one refused.
@pytest.mark.parametrize("fault, first_refusable", [("1.0,x,3.0\n", 0), ("1.0,2.0\n", 1)], ids=["bad cell", "short row"])
@pytest.mark.parametrize("row", [0, 1, 2, 25, 49])
def test_parser_refuses_a_line_before_taking_the_next(fault, first_refusable, row):
    lines = ["1.0,2.0,3.0\n"] * 50
    lines[row] = fault
    taken = []

    def counting():
        for line in lines:
            taken.append(line)
            yield line

    with pytest.raises(ValueError):
        grids._parse_rows(counting())
    refused = max(row, first_refusable)
    assert len(taken) == refused + 1, (
        f"the parser took {len(taken)} lines to refuse row {refused}; "
        "read_sample_csv names the last line it handed over as the bad one, so its line numbers depend on this"
    )


# The bad byte lies beyond the first 8 KiB chunk the text layer decodes, so it is met inside the parser's pass.
UNDECODABLE = "0.0,1.0,2.0\n" + "1.0,2.0,3.0\n" * 4000 + "1,\udcff,3\n" + "4.0,5.0,6.0\n"


def test_undecodable_bytes_past_the_first_read_name_their_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(UNDECODABLE.encode("utf-8", "surrogateescape"))
    with pytest.raises(CsvFormatError) as err:
        read_sample_csv(path)
    assert str(err.value) == "line 4002: byte 0xff in column 2 is not UTF-8"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_undecodable_bytes_in_a_pipe_name_their_line(tmp_path):
    with pytest.raises(CsvFormatError) as err:
        _read_through_pipe(tmp_path, UNDECODABLE)
    assert str(err.value) == "line 4002: byte 0xff in column 2 is not UTF-8"


def test_read_peak_memory_under_twice_the_values(tmp_path, traced_peak):
    # The cells are parsed straight from the file: no list of its lines is held.
    grid = Grid.uniform(0.0, 1.0, 100)
    sample = FunctionalSample(grid, np.random.default_rng(6).standard_normal((2000, grid.size)))
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)
    back, peak = traced_peak(lambda: read_sample_csv(path))
    assert back.values.tobytes() == sample.values.tobytes()
    assert peak < 2 * back.values.nbytes


def test_finiteness_check_stays_one_block(traced_peak):
    # A check over the whole array would build a 4 MB bool temporary here.
    grid = Grid.uniform(0.0, 1.0, 100)
    values = np.random.default_rng(7).standard_normal((40_000, grid.size))
    sample, peak = traced_peak(lambda: FunctionalSample(grid, values))
    assert sample.values is values
    assert peak <= grids._ROW_BLOCK_FLOATS + 2**16
    bad = values.copy()
    bad[-1, -1] = np.nan  # in the last block
    with pytest.raises(ValueError, match="sample values must be finite"):
        FunctionalSample(grid, bad)


def test_a_read_checks_finiteness_once(tmp_path, monkeypatch):
    path = tmp_path / "sample.csv"
    write_sample_csv(FunctionalSample(Grid.uniform(0.0, 1.0, 5), np.arange(20.0).reshape(4, 5)), path)
    checks = []
    real = grids._all_finite
    monkeypatch.setattr(grids, "_all_finite", lambda values: checks.append(values.shape) or real(values))
    read_sample_csv(path)
    assert checks == [(4, 5)]


@pytest.mark.parametrize(
    "text, error",
    [
        ("0.0,1.0,0.5\n1.0,2.0,3.0\n", "grid points must be strictly increasing"),
        ("0.0,1.0,0.5\n1.0,nan,3.0\n", "line 2: values must be finite"),
        ("0.0,nan,1.0\n1.0,2.0,3.0\n", "line 1: values must be finite"),
        ("0.0\n1.0\n", "a grid needs at least 2 points"),
    ],
)
def test_grid_faults_keep_their_errors(tmp_path, text, error):
    # A nan or inf is reported with its line even where the grid is also bad.
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=error):
        read_sample_csv(path)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), sample=_samples(), newline=st.sampled_from(["\n", "\r\n"]))
def test_reads_written_samples_bit_identical_to_float(tmp_path_factory, data, sample, newline):
    path = tmp_path_factory.mktemp("csv") / "sample.csv"
    write_sample_csv(sample, path)
    lines = _with_blanks(data.draw, path.read_text(encoding="utf-8").splitlines())
    _write_lines(path, lines, newline)
    back, oracle = read_sample_csv(path), _oracle_read_sample_csv(path)
    assert back.grid.points.tobytes() == oracle.grid.points.tobytes() == sample.grid.points.tobytes()
    assert back.values.tobytes() == oracle.values.tobytes() == sample.values.tobytes()


_FAULTS = ["bad cell", "empty cell", "short row", "long row", "trailing comma", "nan", "inf", "-inf"]


def _plant(fault: str, line: str, col: int) -> str:
    """``line`` with one fault; a cell fault replaces the cell in column ``col`` (0-based)."""
    cells = line.split(",")
    if fault == "short row":
        return ",".join(cells[:-1])
    if fault == "long row":
        return line + ",1.0"
    if fault == "trailing comma":
        return line + ","
    cells[col % len(cells)] = {"bad cell": "1.0.0", "empty cell": ""}.get(fault, fault)
    return ",".join(cells)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), sample=_samples(), fault=st.sampled_from(_FAULTS))
def test_planted_fault_reports_the_oracle_line(tmp_path_factory, data, sample, fault):
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    write_sample_csv(sample, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    target = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    lines[target] = _plant(fault, lines[target], data.draw(st.integers(min_value=0, max_value=4)))
    _write_lines(path, _with_blanks(data.draw, lines), data.draw(st.sampled_from(["\n", "\r\n"])))
    assert _error_line(read_sample_csv, path) == _error_line(_oracle_read_sample_csv, path)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), sample=_samples(max_rows=1), shape=st.sampled_from(["no curve row", "empty", "blank only"]))
def test_missing_rows_report_the_oracle_line(tmp_path_factory, data, sample, shape):
    path = tmp_path_factory.mktemp("csv") / "short.csv"
    write_sample_csv(sample, path)
    lines = {"no curve row": path.read_text(encoding="utf-8").splitlines()[:1], "empty": [], "blank only": [""]}[shape]
    _write_lines(path, _with_blanks(data.draw, lines), "\n")
    assert _error_line(read_sample_csv, path) == _error_line(_oracle_read_sample_csv, path)


def _serial_csv(path, values, header=None) -> bytes:
    """The reference: the one-process loop, a header row then each row's ``str`` cells."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(map(str, header)) + "\n")
        for row in values:
            fh.write(",".join(map(str, row.tolist())) + "\n")
    return path.read_bytes()


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split_into(monkeypatch):
    """``set_k(k, min_cells)`` makes a write see k usable cores and a part size floor of ``min_cells``.

    Returns the list of pids the writes then fork, in order.
    """
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def set_k(k: int, min_cells: int = 1):
        monkeypatch.setattr(grids, "_usable_cores", lambda: k)
        monkeypatch.setattr(grids, "_MIN_CELLS_PER_PART", min_cells)
        monkeypatch.setattr(os, "fork", counted_fork)
        return forked

    return set_k


def _values(rows: int, cols: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal((rows, cols)), axis=1) / 7.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
class TestSplitWrite:
    # A write split over k forked children gives the bytes of the serial loop.
    @pytest.mark.parametrize(
        "k, n", sorted({(k, n) for k in (1, 2, 3, 4) for n in (1, k - 1, k, k + 1, 13) if n >= 1})
    )
    @pytest.mark.parametrize("header", [None, [0.0, 0.25, 0.5, 1.0, 1e-300]])
    def test_every_k_writes_the_serial_bytes(self, tmp_path, split_into, k, n, header):
        values = _values(n, 5, seed=n + 10 * k)
        forked = split_into(k)
        path = tmp_path / "out.csv"
        grids.write_csv(path, values, header=header)
        assert path.read_bytes() == _serial_csv(tmp_path / "serial.csv", values, header)
        assert len(forked) == min(k, n) - 1
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "serial.csv"]
        _assert_no_child()

    @pytest.mark.parametrize("k", [1, 2])
    def test_extreme_values_write_their_str(self, tmp_path, split_into, k):
        # An array's cells are written with repr, the str of a Python float.
        cells = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 0.1, 123456789.0]
        values = np.array([cells, cells[::-1]])
        split_into(k)
        path = tmp_path / "out.csv"
        grids.write_csv(path, values)
        assert path.read_bytes() == _serial_csv(tmp_path / "serial.csv", values)
        assert path.read_text().splitlines()[0] == ",".join(str(c) for c in cells)

    @pytest.mark.skipif(not hasattr(os, "mkfifo") or shutil.which("cat") is None, reason="no named pipes or cat")
    def test_fifo_target(self, tmp_path, split_into):
        # The parts are appended to the one open handle, so a pipe takes them in order.
        values = _values(9, 4, seed=3)
        forked = split_into(3)
        fifo, got = tmp_path / "out.fifo", tmp_path / "got.csv"
        os.mkfifo(fifo)
        with open(got, "wb") as sink:
            reader = subprocess.Popen(["cat", str(fifo)], stdout=sink)
            try:
                grids.write_csv(fifo, values, header=["a", "b", "c", "d"])
            finally:
                assert reader.wait(timeout=30) == 0
        assert got.read_bytes() == _serial_csv(tmp_path / "serial.csv", values, ["a", "b", "c", "d"])
        assert len(forked) == 2
        assert sorted(os.listdir(tmp_path)) == ["got.csv", "out.fifo", "serial.csv"]
        _assert_no_child()

    @pytest.mark.parametrize("k", [2, 4])
    def test_split_sample_reads_back_bit_identical(self, tmp_path, split_into, k):
        # At the real part size floor: 1401 x 100 cells make at least 9 parts' worth.
        grid = Grid.uniform(0.0, 1.0, 100)
        sample = FunctionalSample(grid, _values(1401, grid.size, seed=k))
        forked = split_into(k, grids._MIN_CELLS_PER_PART)
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, path)
        assert len(forked) == k - 1
        assert path.read_bytes() == _serial_csv(tmp_path / "serial.csv", sample.values, grid.points.tolist())
        back = read_sample_csv(path)
        assert back.grid.points.tobytes() == grid.points.tobytes()
        assert back.values.tobytes() == sample.values.tobytes()
        _assert_no_child()

    def test_small_output_is_not_split(self, tmp_path, split_into):
        values = _values(2 * grids._MIN_CELLS_PER_PART // 100 - 1, 100, seed=1)
        forked = split_into(4, grids._MIN_CELLS_PER_PART)
        grids.write_csv(tmp_path / "out.csv", values)
        assert forked == []

    def test_no_split_where_no_part_file_can_be_made(self, tmp_path, split_into, monkeypatch):
        # A target such as /dev/stdout sits in a directory a user cannot write.
        values = _values(9, 4, seed=4)
        forked = split_into(3)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        path = tmp_path / "out.csv"
        grids.write_csv(path, values)
        assert forked == []
        assert path.read_bytes() == _serial_csv(tmp_path / "serial.csv", values)

    def test_a_failed_child_fails_the_write(self, tmp_path, split_into, monkeypatch):
        parent, write_rows = os.getpid(), grids._write_array_rows

        def fail_in_child(fh, values):
            if os.getpid() != parent:
                raise RuntimeError("formatter fault")
            write_rows(fh, values)

        monkeypatch.setattr(grids, "_write_array_rows", fail_in_child)
        forked = split_into(3)
        path = tmp_path / "out.csv"
        with pytest.raises(OSError, match=re.escape(str(path))) as err:
            grids.write_csv(path, _values(10, 3, seed=2))
        assert "exited with status 1" in str(err.value)
        assert len(forked) == 2
        assert os.listdir(tmp_path) == ["out.csv"]
        _assert_no_child()

    def test_a_fault_in_the_parent_part_still_reaps_the_children(self, tmp_path, split_into, monkeypatch):
        parent, write_rows = os.getpid(), grids._write_array_rows

        def fail_in_parent(fh, values):
            if os.getpid() == parent:
                raise RuntimeError("formatter fault")
            write_rows(fh, values)

        monkeypatch.setattr(grids, "_write_array_rows", fail_in_parent)
        forked = split_into(4)
        with pytest.raises(RuntimeError, match="formatter fault"):
            grids.write_csv(tmp_path / "out.csv", _values(10, 3, seed=2))
        assert len(forked) == 3
        assert os.listdir(tmp_path) == ["out.csv"]
        _assert_no_child()


def test_usable_cores_is_one_without_fork_or_with_a_thread(monkeypatch):
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1
    assert grids._usable_cores() == cores
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, daemon=True)
    waiter.start()
    try:
        assert grids._usable_cores() == 1
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.delattr(os, "fork", raising=False)
    assert grids._usable_cores() == 1
