"""Empirical Karhunen-Loeve machinery for discretized curve samples.

The covariance operator is discretized on the sample grid and its
eigenproblem is solved in the quadrature geometry: with W = diag(weights),
the symmetric matrix W^{1/2} C W^{1/2} is decomposed and eigenvectors v are
mapped back to eigenfunctions W^{-1/2} v, so that the eigenfunctions are
orthonormal under the quadrature inner product rather than the plain
Euclidean one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Curve, FunctionalSample, Grid, GridMismatchError, _centered_blocks, write_csv

# Eigenvalues of an empirical covariance below this (times max(1, lambda_max),
# so the test follows the data's units) are rounding noise and get clamped to
# zero; anything more negative indicates a broken input.
NEGATIVE_EIGENVALUE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Estimated mean, descending eigenvalues, and orthonormal eigenfunctions.

    ``eigenfunctions`` has one function per row, on ``grid``; orthonormality
    holds in the quadrature inner product.
    """

    grid: Grid
    mean: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    def __post_init__(self):
        for name in ("mean", "eigenvalues", "eigenfunctions"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.mean.shape != self.grid.points.shape:
            raise ValueError("mean must live on the grid")
        if self.eigenfunctions.shape != (self.eigenvalues.size, self.grid.size):
            raise ValueError("eigenfunctions must be rows on the grid, one per eigenvalue")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be nonnegative after clamping")

    @property
    def rank(self) -> int:
        """Numerical rank: the count of eigenvalues above p * eps_mach * lambda_1."""
        lam = self.eigenvalues
        return int(np.count_nonzero(lam > lam.size * np.finfo(float).eps * lam.max(initial=0.0)))

    def require_rank(self, d: int, n: int) -> None:
        """Refuse a score dimension d above the rank: scores past it are rounding noise."""
        if d > self.rank:
            raise ValueError(
                f"d={d} exceeds the numerical rank {self.rank} of the n={n} curve sample; "
                f"use d <= {self.rank}"
            )


@dataclass(frozen=True)
class ScoreMatrix:
    """Projections of n centered curves onto the first d eigenfunctions."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.atleast_2d(np.asarray(self.entries, dtype=float))
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]


def empirical_mean(sample: FunctionalSample) -> Curve:
    """Pointwise average curve of the sample."""
    return Curve(sample.grid, sample.values.mean(axis=0))


def empirical_covariance(sample: FunctionalSample, mean: Curve | None = None) -> np.ndarray:
    """Pointwise empirical covariance matrix C_kl with 1/n normalization.

    Rows are centered at the sample mean (``mean``, if the caller already has
    it from ``empirical_mean``) and their cross products summed one row block
    at a time, so the temporaries stay one block whatever n is.  Symmetrized
    explicitly so C == C.T holds exactly in floating point.
    """
    if mean is None:
        mean = empirical_mean(sample)
    cov = None
    for _, centered in _centered_blocks(sample.values, mean.values):
        gram = centered.T @ centered
        if cov is None:
            cov = gram
        else:
            cov += gram
    cov /= sample.n
    return 0.5 * (cov + cov.T)


def eigendecompose(cov: np.ndarray, grid: Grid, mean: Curve) -> EigenSystem:
    """Solve the weighted eigenproblem of the discretized covariance operator.

    Eigenvalues come back descending, with values in
    (-NEGATIVE_EIGENVALUE_TOLERANCE * max(1, lambda_max), 0) clamped to zero;
    the symmetry check allows 1e-10 * max(1, max|C|).  Each eigenfunction is
    scaled so its entry of largest absolute value is positive, which makes
    runs reproducible under sign ambiguity.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (grid.size, grid.size):
        raise ValueError("covariance matrix must be p x p on the given grid")
    symmetry_tol = 1e-10 * max(1.0, float(np.abs(cov).max()))
    if np.max(np.abs(cov - cov.T)) > symmetry_tol:
        raise ValueError(f"covariance matrix is not symmetric to {symmetry_tol:g}")
    if not mean.grid.matches(grid):
        raise GridMismatchError("mean curve is not on the covariance grid")
    if np.any(grid.weights <= 0):
        raise ValueError("the weighted eigenproblem needs strictly positive quadrature weights")

    sqw = np.sqrt(grid.weights)
    sym = sqw[:, None] * cov * sqw[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)

    order = np.argsort(vals)[::-1]
    vals = vals[order]
    negative_tol = NEGATIVE_EIGENVALUE_TOLERANCE * max(1.0, float(vals[0]))
    if np.any(vals <= -negative_tol):
        raise ValueError(
            f"eigenvalue {vals.min():.3e} below -{negative_tol:g}; "
            "the covariance input is broken"
        )
    vals = np.where(vals < 0, 0.0, vals)

    # Map eigenvectors back to quadrature-orthonormal eigenfunctions.
    funcs = (vecs[:, order] / sqw[:, None]).T
    flip = funcs[np.arange(funcs.shape[0]), np.argmax(np.abs(funcs), axis=1)] < 0
    funcs[flip] *= -1.0

    return EigenSystem(grid=grid, mean=mean.values, eigenvalues=vals, eigenfunctions=funcs)


def fit_fpca(sample: FunctionalSample) -> EigenSystem:
    """Mean, covariance, and eigendecomposition of a sample in one call."""
    mean = empirical_mean(sample)
    return eigendecompose(empirical_covariance(sample, mean), sample.grid, mean)


def scores(curves: FunctionalSample | Curve, system: EigenSystem, d: int):
    """Project centered curves onto the first d estimated eigenfunctions.

    Returns a ScoreMatrix for a FunctionalSample and a length-d vector for a
    single Curve.  A sample is centered one row block at a time, straight into
    its rows of the result.
    """
    if d < 1 or d > system.eigenvalues.size:
        raise ValueError(f"d={d} is out of range (1..{system.eigenvalues.size})")
    if not curves.grid.matches(system.grid):
        raise GridMismatchError("curves and eigensystem grids differ")
    weighted_basis = (system.eigenfunctions[:d] * system.grid.weights).T
    if isinstance(curves, Curve):
        return (curves.values - system.mean) @ weighted_basis
    projected = np.empty((curves.n, d))
    for rows, centered in _centered_blocks(curves.values, system.mean):
        np.matmul(centered, weighted_basis, out=projected[rows])
    return ScoreMatrix(projected)


def _spectrum(eigenvalues) -> tuple[np.ndarray, float]:
    """A nonempty nonnegative spectrum and its positive total."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or np.any(lam < 0):
        raise ValueError("eigenvalues must be a nonempty nonnegative sequence")
    total = lam.sum()
    if total == 0:
        raise ValueError("all-zero spectrum has no explained-variance fractions")
    return lam, total


def fev(eigenvalues, d: int) -> float:
    """Fraction of explained variance of the leading d eigenvalues.

    The total is the sum of the supplied (finite) sequence, so for truncated
    spectra this is the finite-sequence proxy of the infinite-sum ratio.
    """
    lam, total = _spectrum(eigenvalues)
    if d < 1 or d > lam.size:
        raise ValueError(f"d={d} is out of range (1..{lam.size})")
    return float(lam[:d].sum() / total)


def select_dimension_fev(eigenvalues, threshold: float) -> int:
    """Smallest d whose fraction of explained variance reaches the threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    lam, total = _spectrum(eigenvalues)
    fractions = np.cumsum(lam) / total
    hits = np.nonzero(fractions >= threshold)[0]
    if hits.size == 0:
        raise ValueError(
            f"threshold {threshold} unreachable; maximum attainable FEV is {fractions[-1]:.6f}"
        )
    return int(hits[0]) + 1


def write_eigensystem_csv(system: EigenSystem, path) -> None:
    """Export an eigensystem: one row per eigenfunction, eigenvalue first."""
    write_csv(
        path,
        ([lam, *row.tolist()] for lam, row in zip(system.eigenvalues.tolist(), system.eigenfunctions)),
        header=["lambda", *system.grid.points.tolist()],
    )
