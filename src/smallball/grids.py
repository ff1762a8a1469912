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
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

# Float64 values in one row block (8 MiB).  Every pass that centers the n
# curves of a sample works one block at a time, so its temporaries do not
# grow with n.
_ROW_BLOCK_FLOATS = 2**20

# Cells each part of a split CSV write holds at least.  On a 2-core host a
# two-part write of 100-column rows overtook the serial one from 8 000
# cells when the child got the second core at once, and only from 30 000
# when it first queued behind its parent (medians of 21-61 interleaved
# writes per size), so a split starts at the later crossover.
_MIN_CELLS_PER_PART = 15_000


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

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def curve(self, i: int) -> Curve:
        return Curve(self.grid, self.values[i])


def _row_step(values: np.ndarray) -> int:
    """Rows in one block of an (n, p) array: at most _ROW_BLOCK_FLOATS values, and at least one row."""
    n, width = values.shape
    return max(1, min(n, _ROW_BLOCK_FLOATS // width))


def _first_nonfinite_row(values: np.ndarray) -> int | None:
    """Index of the first row of an (n, p) array holding a nan or inf, tested one row block at a time; None if none does."""
    step = _row_step(values)
    for start in range(0, values.shape[0], step):
        block = values[start : start + step]
        if not np.isfinite(block).all():
            return start + int(np.argmin(np.isfinite(block).all(axis=1)))
    return None


def _all_finite(values: np.ndarray) -> bool:
    """Whether an (n, p) array holds no nan or inf, tested one row block at a time."""
    return _first_nonfinite_row(values) is None


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
    """The error for a line the parser refuses, naming its first bad cell, or the byte in it that is not UTF-8."""
    for col, cell in enumerate(line.strip().split(",")):
        try:
            _parse_rows([line], usecols=col)
        except ValueError:
            break
    # The file is read with errors="surrogateescape": a byte that is not UTF-8 arrives as a lone surrogate.
    escaped = next((c for c in cell if "\udc80" <= c <= "\udcff"), None)
    if escaped is not None:
        return CsvFormatError(lineno, f"byte 0x{ord(escaped) - 0xDC00:02x} in column {col + 1} is not UTF-8")
    return CsvFormatError(lineno, f"cannot parse value {cell!r} in column {col + 1}")


def read_sample_csv(path) -> FunctionalSample:
    """Read a sample from CSV: first row grid abscissae, one curve per row.

    UTF-8, comma separated, '.' decimal point; blank and whitespace-only lines
    are skipped.  Files and pipes are read in one pass: the nonblank lines go
    straight from the open file into one numpy C call that parses every cell,
    so no copy of the text is held.  Malformed content (a cell that does not
    parse, a byte that is not UTF-8, a row of the wrong width, no curve row, a
    nan or inf) raises CsvFormatError with the 1-based line number.
    """
    linenos: list[int] = []  # the file line of each nonblank line handed to the parser
    last = ""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:

        def nonblank():
            nonlocal last
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    linenos.append(lineno)
                    last = line
                    yield line

        rows = nonblank()
        head = list(itertools.islice(rows, 1))  # given no lines at all, loadtxt warns
        try:
            table = _parse_rows(itertools.chain(head, rows)) if head else np.empty((0, 0))
        except ValueError:
            # The parser refuses a line before it takes the next one, so the
            # fault is on the last line taken.
            try:
                found = _parse_rows([last]).shape[1]
            except ValueError:
                raise _unparseable(linenos[-1], last) from None
            width = _parse_rows(head).shape[1]
            raise CsvFormatError(linenos[-1], f"expected {width} columns, found {found}") from None
    if table.shape[0] < 2:
        raise CsvFormatError((linenos[-1] if linenos else 0) + 1, "need a grid row plus at least one curve row")
    # The sample's own check is the one finiteness pass over the values.  Any
    # other refusal (a grid that does not increase) is not a matter of one line
    # and is raised as it is.
    try:
        return FunctionalSample(Grid(table[0]), table[1:])
    except ValueError:
        row = _first_nonfinite_row(table)
        if row is None:
            raise
        raise CsvFormatError(linenos[row], "values must be finite (found nan or inf)") from None


def _usable_cores() -> int:
    """Cores a write may split its rows over.

    1 without ``os.fork`` or ``os.sched_getaffinity``, or while another Python
    thread is alive: a forked child holds only the calling thread.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _write_array_rows(fh, values: np.ndarray) -> None:
    """The rows of a numeric array as Python numbers, whose ``repr`` is their ``str`` and is quicker to call."""
    for row in values:
        fh.write(",".join(map(repr, row.tolist())) + "\n")


def _write_array(fh, path, values: np.ndarray) -> None:
    """Write the rows of an (n, p) array to ``fh`` in k = min(usable cores, cells // _MIN_CELLS_PER_PART, n) parts."""
    n = values.shape[0]
    directory = os.path.dirname(os.path.abspath(path))
    k = min(_usable_cores(), values.size // _MIN_CELLS_PER_PART, n)
    if k < 2 or not os.access(directory, os.W_OK):
        _write_array_rows(fh, values)
        return
    bounds = [n * i // k for i in range(k + 1)]
    children: dict[str, int | None] = {}  # part file -> pid of the child formatting it, None once reaped
    try:
        for i in range(1, k):
            fd, part = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".part")
            os.close(fd)
            children[part] = None
            pid = os.fork()
            if pid == 0:
                # The child formats one part and leaves through os._exit, which
                # skips the caller's finally blocks, exit handlers and buffers.
                # The try opens before the first point where a signal can raise.
                status = 1
                try:
                    with open(part, "w", encoding="utf-8") as out:
                        _write_array_rows(out, values[bounds[i] : bounds[i + 1]])
                    status = 0
                finally:
                    os._exit(status)
            children[part] = pid
        _write_array_rows(fh, values[: bounds[1]])
        for i, (part, pid) in enumerate(children.items(), start=1):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children[part] = None
            if status != 0:
                raise OSError(
                    f"cannot write {path}: the child process formatting rows {bounds[i] + 1}-{bounds[i + 1]} "
                    f"exited with status {status}"
                )
            fh.flush()
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh.buffer)
    finally:
        for part, pid in children.items():
            if pid is not None:
                os.waitpid(pid, 0)
            os.unlink(part)


def write_csv(path, rows, header=None) -> None:
    """Write an optional header row, then each row, as comma-separated ``str`` cells.

    ``rows`` is an iterable of row sequences, written one row at a time, or an
    (n, p) numeric array, whose rows are written as Python numbers
    (``row.tolist()``).  An array of at least 2 * _MIN_CELLS_PER_PART cells
    is formatted on up to as many cores as this process may use: the calling
    process formats the first of k contiguous row parts into the output, a
    forked child formats each other part into a part file beside the output,
    and the parts are appended in order to the one open handle, so a pipe
    works as a target.  The bytes are the same for every k.  k is 1 (no fork)
    on one core, for a smaller array, without ``os.fork``, where the output's
    directory is not writable, or while another Python thread is alive.  A
    child that fails makes the write raise an OSError naming ``path``; no
    child or part file is left either way.  A child's memory is not counted
    in the caller's ``ru_maxrss``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(map(str, header)) + "\n")
        if isinstance(rows, np.ndarray):
            _write_array(fh, path, rows)
        else:
            for row in rows:
                fh.write(",".join(map(str, row)) + "\n")


def write_sample_csv(sample: FunctionalSample, path) -> None:
    """Write a sample in the CSV format accepted by read_sample_csv."""
    write_csv(path, sample.values, header=sample.grid.points.tolist())
