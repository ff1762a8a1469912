"""Discretized curves on a shared grid and the quadrature inner product.

A curve is a vector of values on a fixed grid of abscissae over [a, b];
integrals are replaced by trapezoidal quadrature sums.  All objects are
immutable after construction and all operations are pure, so concurrent
read-only use needs no synchronization.  Constructors adopt the arrays
they are handed without copying and mark them read-only; pass a copy if
the buffer must stay writable elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
        if not np.all(np.isfinite(values)):
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


def inner_product(f: Curve, g: Curve) -> float:
    """Quadrature inner product sum_k w_k f(t_k) g(t_k)."""
    _require_same_grid(f.grid, g.grid)
    return float(np.sum(f.grid.weights * f.values * g.values))


def norm(f: Curve) -> float:
    """Quadrature norm sqrt(<f, f>)."""
    return float(np.sqrt(inner_product(f, f)))


def read_sample_csv(path) -> FunctionalSample:
    """Read a sample from CSV: first row grid abscissae, one curve per row.

    UTF-8, comma separated, '.' decimal point.  Malformed content raises
    CsvFormatError with the 1-based line number.
    """
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
        # The missing row was due on the line after the last nonblank one.
        raise CsvFormatError(linenos[-1] + 1 if linenos else 1, "need a grid row plus at least one curve row")
    table = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise CsvFormatError(linenos[bad[0]], "values must be finite (found nan or inf)")
    return FunctionalSample(Grid(table[0]), table[1:])


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
