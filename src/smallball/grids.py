"""Discretized curves on a shared grid and the quadrature inner product.

A curve is a vector of values on a fixed grid of abscissae over [a, b];
integrals are replaced by trapezoidal quadrature sums.  All objects are
immutable after construction and all operations are pure, so concurrent
read-only use needs no synchronization.  Constructors adopt the arrays
they are handed without copying and mark them read-only; pass a copy if
the buffer must stay writable elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Float64 values in one row block (8 MiB).  Every pass that centers the n
# curves of a sample works one block at a time, so its temporaries do not
# grow with n.
_ROW_BLOCK_FLOATS = 2**20


class GridMismatchError(ValueError):
    """Raised when two objects that must share a grid do not."""


class CsvFormatError(ValueError):
    """Raised on malformed sample CSV input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for strictly increasing abscissae.

    w_1 = (t_2 - t_1)/2, w_p = (t_p - t_{p-1})/2, interior
    w_k = (t_{k+1} - t_{k-1})/2, so that sum(w) = t_p - t_1 exactly.
    """
    w = np.empty_like(points)
    w[0] = 0.5 * (points[1] - points[0])
    w[-1] = 0.5 * (points[-1] - points[-2])
    w[1:-1] = 0.5 * (points[2:] - points[:-2])
    return w


@dataclass(frozen=True)
class Grid:
    """Strictly increasing abscissae t_1 < ... < t_p with trapezoid weights."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a grid needs at least 2 points in a 1-d array")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        weights = trapezoid_weights(points)
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, a: float, b: float, p: int) -> "Grid":
        """Equispaced grid of p points spanning [a, b]."""
        return cls(np.linspace(a, b, p))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    def matches(self, other: "Grid") -> bool:
        """Same grid by identity, or by exact point equality (weights follow from the points)."""
        return self is other or np.array_equal(self.points, other.points)


def _require_same_grid(a: Grid, b: Grid) -> None:
    if not a.matches(b):
        raise GridMismatchError("operands live on different grids")


@dataclass(frozen=True)
class Curve:
    """One discretized function: values on a shared grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.points.shape:
            raise ValueError("curve values must match the grid length")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FunctionalSample:
    """n curves observed on one common grid, stored as an (n, p) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.ndim != 2 or values.shape[1] != self.grid.size:
            raise ValueError("sample values must have shape (n, p) on the grid")
        if values.shape[0] < 1:
            raise ValueError("a sample needs at least one curve")
        if not _all_finite(values):
            raise ValueError("sample values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_curves(cls, curves: list[Curve]) -> "FunctionalSample":
        if not curves:
            raise ValueError("a sample needs at least one curve")
        grid = curves[0].grid
        for c in curves[1:]:
            _require_same_grid(grid, c.grid)
        return cls(grid, np.stack([c.values for c in curves]))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def curve(self, i: int) -> Curve:
        return Curve(self.grid, self.values[i])


def _row_step(values: np.ndarray) -> int:
    """Rows in one block of an (n, p) array: at most _ROW_BLOCK_FLOATS values, and at least one row."""
    n, width = values.shape
    return max(1, min(n, _ROW_BLOCK_FLOATS // width))


def _all_finite(values: np.ndarray) -> bool:
    """Whether an (n, p) array holds no nan or inf, tested one row block at a time."""
    step = _row_step(values)
    return all(np.isfinite(values[start : start + step]).all() for start in range(0, values.shape[0], step))


def _centered_blocks(values: np.ndarray, center: np.ndarray):
    """Yield (rows, values[rows] - center) for consecutive row blocks of an (n, p) array.

    Each block holds at most _ROW_BLOCK_FLOATS values (at least one row) and
    is written into one reused buffer, so a block is valid only until the
    next one is yielded; the caller may overwrite it in place.
    """
    n, width = values.shape
    step = _row_step(values)
    buffer = np.empty((step, width))
    for start in range(0, n, step):
        block = buffer[: min(step, n - start)]
        np.subtract(values[start : start + step], center, out=block)
        yield slice(start, start + block.shape[0]), block


def inner_product(f: Curve, g: Curve) -> float:
    """Quadrature inner product sum_k w_k f(t_k) g(t_k)."""
    _require_same_grid(f.grid, g.grid)
    return float(np.sum(f.grid.weights * f.values * g.values))


def norm(f: Curve) -> float:
    """Quadrature norm sqrt(<f, f>)."""
    return float(np.sqrt(inner_product(f, f)))


def _parse_rows(lines, usecols=None) -> np.ndarray:
    """The one value parser: comma-separated float64 cells in numpy's C reader, as a 2-d array.

    Each cell is converted by ``PyOS_string_to_double``, which rounds
    correctly, so a value reads back bit-identical to Python's ``float``.
    ``lines`` (any iterable of str) must hold at least one nonblank line:
    given none, loadtxt warns.
    """
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, usecols=usecols)


def _unparseable(lineno: int, line: str) -> CsvFormatError:
    """The error for a line the parser refuses, naming its first bad cell and 1-based column."""
    for col, cell in enumerate(line.strip().split(",")):
        try:
            _parse_rows([line], usecols=col)
        except ValueError:
            break
    return CsvFormatError(lineno, f"cannot parse value {cell!r} in column {col + 1}")


def _first_bad_line(lines) -> CsvFormatError:
    """The error for the first line that makes a sample CSV unreadable, found line by line.

    Each nonblank line is parsed alone by the same parser.  The checks run in
    the order a single pass over the file meets them: an unparseable cell or a
    wrong column count, then a missing curve row (at the line it was due),
    then the first line holding a nan or inf.
    """
    width = nonfinite = None
    rows = last = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = _parse_rows([line])[0]
        except ValueError:
            return _unparseable(lineno, line)
        if width is None:
            width = row.size
        elif row.size != width:
            return CsvFormatError(lineno, f"expected {width} columns, found {row.size}")
        if nonfinite is None and not np.isfinite(row).all():
            nonfinite = lineno
        rows, last = rows + 1, lineno
    if rows < 2:
        return CsvFormatError(last + 1, "need a grid row plus at least one curve row")
    return CsvFormatError(nonfinite, "values must be finite (found nan or inf)")


def read_sample_csv(path) -> FunctionalSample:
    """Read a sample from CSV: first row grid abscissae, one curve per row.

    UTF-8, comma separated, '.' decimal point; blank and whitespace-only lines
    are skipped.  All cells are parsed in one numpy C call that reads the
    lines straight from the file, so no copy of the text is held.  Malformed
    content (a cell that does not parse, a row of the wrong width, no curve
    row, a nan or inf) raises CsvFormatError with the 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # The error scan re-reads the file from the start; a pipe cannot be
        # re-read, so its lines are kept instead.
        seekable = fh.seekable()
        lines = fh if seekable else fh.readlines()
        rows = (line for line in lines if line.strip())
        head = list(itertools.islice(rows, 2))
        table = None
        if len(head) == 2:  # a grid row and a curve row; given no lines, loadtxt warns
            try:
                table = _parse_rows(itertools.chain(head, rows))
            except ValueError:
                pass
        if table is not None:
            # The sample's own check is the one finiteness pass over the values.
            # Any other refusal (a grid that does not increase) is not a matter
            # of one line and is raised as it is.
            try:
                return FunctionalSample(Grid(table[0]), table[1:])
            except ValueError:
                if _all_finite(table):
                    raise
        if seekable:
            fh.seek(0)
        raise _first_bad_line(lines)


def write_csv(path, rows, header=None) -> None:
    """Write an optional header row, then each row, as comma-separated ``str`` cells, one row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(map(str, header)) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_sample_csv(sample: FunctionalSample, path) -> None:
    """Write a sample in the CSV format accepted by read_sample_csv."""
    write_csv(path, (row.tolist() for row in sample.values), header=sample.grid.points.tolist())
