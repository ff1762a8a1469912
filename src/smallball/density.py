"""Kernel density estimation of the surrogate intensity on PC scores.

The estimator is the radial-bandwidth form (H = h^2 I): with score vectors
s_1..s_n in R^d and a radial kernel profile K,

    f_hat(x) = (1 / (n h^d)) sum_i K(||s_i - x|| / h).

Three profiles ship: the compactly supported Epanechnikov and truncated
Gaussian families (the ones the theory wants), and the plain Gaussian
radial kernel, which violates compact support but mirrors common KDE
software and is the default for table replication.  The truncated-Gaussian
constant is the sphere surface times the radial mass
int_0^1 exp(-u^2/2) u^(d-1) du = 2^(d/2-1) gamma(d/2, 1/2), a lower
incomplete gamma function that the all-positive series of DLMF 8.7.1 gives
to double precision with no Gamma function, so no overflow at large d.

The evaluator is exact.  It scales the scores, centred at the sample mean,
by h / sqrt(a), so that one GEMM [2 x, -1, -||x||^2] @ [s, ||s||^2, 1]^T
gives v = -a u^2 with u^2 = ||s_i - x||^2 / h^2 directly: a = 1/2 for the
Gaussian families, whose profile is then exp(v), and a = 1 for
Epanechnikov, whose profile is (1 + v)_+.  It works one block of (target,
sample) pairs at a time, 2**15 float64 (256 KiB, small enough to stay in
cache), or a single target row when n is larger, in four passes for the
Gaussian: the GEMM, a clamp at v <= 0 (rounding in the GEMM can leave a tiny
positive), the profile in place, and the row sums as one GEMV against a
vector of ones.  Each family's normalising constant is applied once per
call, with n h^d.  d = 1 takes the same GEMM: a broadcast x - s alone took
0.044 ms per 32 x 1000 block against 0.014 ms for the GEMM.  The GEMM
rounds v by about eps (||x||^2 + ||s||^2) in scaled units, so d = 1
estimates above 1e-3 of the largest moved by up to 2e-13 relative from the
direct difference (2e-12 for Epanechnikov, whose 1 + v cancels near the edge
of its support).  No square root is taken and compact support reads v >= -1
(Epanechnikov) or v >= -1/2 (truncated Gaussian), both u^2 <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fpca import ScoreMatrix

EPANECHNIKOV = "epanechnikov-radial"
TRUNCATED_GAUSSIAN = "truncated-gaussian-radial"
GAUSSIAN = "gaussian-radial"
KERNEL_FAMILIES = (EPANECHNIKOV, TRUNCATED_GAUSSIAN, GAUSSIAN)

# Smoothness order p of the "rate" bandwidth rule: a twice-differentiable density.
RATE_SMOOTHNESS = 2.0

# Float64 values in one (rows, n) block of squared distances: 256 KiB.
_BLOCK_ELEMENTS = 2**15


def _sphere_surface(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def _truncated_gaussian_mass(d: int) -> float:
    """int_0^1 exp(-u^2/2) u^(d-1) du = (e^(-1/2) / d) sum_k (1/2)^k / prod_{j<=k} (d/2 + j).

    Each term is at most a third of the one before, so the sum stops once a
    term no longer changes it: after 15 terms at d = 1 and fewer at larger d.
    """
    a = 0.5 * d
    term = total = 1.0
    k = 0
    while True:
        k += 1
        term *= 0.5 / (a + k)
        if total + term == total:
            return math.exp(-0.5) / d * total
        total += term


@dataclass(frozen=True)
class KernelSpec:
    """A radial kernel family together with the score dimension it acts in."""

    family: str
    dim: int

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; choose from {KERNEL_FAMILIES}")
        if self.dim < 1:
            raise ValueError("kernel dimension must be at least 1")


def _profile_constant(spec: KernelSpec) -> float:
    """The normalising constant c of a family: K(u) = profile(u) / c integrates to 1 over R^d.

    This is the one place that holds each family's constant.
    """
    d = spec.dim
    if spec.family == EPANECHNIKOV:
        return _sphere_surface(d) * 2.0 / (d * (d + 2))
    if spec.family == TRUNCATED_GAUSSIAN:
        return _sphere_surface(d) * _truncated_gaussian_mass(d)
    return (2.0 * math.pi) ** (0.5 * d)


def _exponent_factor(spec: KernelSpec) -> float:
    """The a of v = -a u^2, the variable the profiles act on: 1/2 for the Gaussian families, 1 else."""
    return 1.0 if spec.family == EPANECHNIKOV else 0.5


def _unscaled_profile(spec: KernelSpec, v: np.ndarray) -> np.ndarray:
    """c K(u) at v = -a u^2 <= 0, written over the float array v and returned.

    This is the one place that holds each family's shape and its compact
    support u^2 <= 1: v >= -1 for Epanechnikov, v >= -1/2 for the truncated
    Gaussian, whose profile, like the Gaussian's, is exp(v).
    """
    if spec.family == EPANECHNIKOV:
        v += 1.0
        np.maximum(v, 0.0, out=v)
    elif spec.family == TRUNCATED_GAUSSIAN:
        outside = v < -0.5
        np.exp(v, out=v)
        v[outside] = 0.0
    else:
        np.exp(v, out=v)
    return v


def kernel_profile(spec: KernelSpec, r) -> np.ndarray | float:
    """Evaluate the radial profile at r >= 0 so the d-dim kernel integrates to 1."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0):
        raise ValueError("radius must be nonnegative (and not NaN)")
    out = _unscaled_profile(spec, np.array(-_exponent_factor(spec) * r_arr**2, dtype=float))
    out /= _profile_constant(spec)
    return out if out.ndim else float(out)


def bandwidth_rate(n: int, d: int, p: float, c: float) -> float:
    """Minimax-rate bandwidth c * n^(-1/(2p+d)) for a p-times differentiable density."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if p < 2:
        raise ValueError("the smoothness order p must be at least 2")
    if c <= 0:
        raise ValueError("the rate constant c must be positive")
    return c * n ** (-1.0 / (2.0 * p + d))


def score_scale(score_matrix: ScoreMatrix) -> float:
    """Root mean per-coordinate variance of the scores (population variances)."""
    entries = score_matrix.entries
    if entries.shape[0] < 2:
        raise ValueError("need at least 2 score rows to estimate a scale")
    sigma2 = entries.var(axis=0).mean()
    if sigma2 <= 0:
        raise ValueError("scores are degenerate (zero variance)")
    return float(np.sqrt(sigma2))


def bandwidth_normal_scale(score_matrix: ScoreMatrix) -> float:
    """Normal-scale bandwidth for the radial form: sigma * (4/((d+2) n))^(1/(d+4))."""
    n, d = score_matrix.n, score_matrix.d
    return score_scale(score_matrix) * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


@dataclass(frozen=True)
class DensityEstimator:
    """Finite scores, a positive finite radial bandwidth, and a kernel of matching dimension."""

    scores: ScoreMatrix
    bandwidth: float
    kernel: KernelSpec

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        if not np.isfinite(self.scores.entries).all():
            raise ValueError("score entries must be finite")
        if self.kernel.dim != self.scores.d:
            raise ValueError(
                f"kernel dimension {self.kernel.dim} does not match score dimension {self.scores.d}"
            )


def kde_evaluate_many(estimator: DensityEstimator, points) -> np.ndarray:
    """Density estimates at an (m, d) array of finite points; d and h are named where a float cannot hold them."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = estimator.scores.d
    if pts.shape[1] != d:
        raise ValueError(f"evaluation points must have dimension {d}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"evaluation point {row} is not finite: {pts[row].tolist()}")
    entries, spec = estimator.scores.entries, estimator.kernel
    n, m, h = entries.shape[0], pts.shape[0], estimator.bandwidth
    with np.errstate(over="ignore", under="ignore"):
        normaliser = _profile_constant(spec) * n * np.float64(h) ** d
    if not 0.0 < normaliser < math.inf:
        raise ValueError(f"the KDE normaliser c n h^d is {normaliser:g} at d = {d}, h = {h:g}; rescale the curves")
    # Centre on the sample mean and divide by h / sqrt(a) once, so the GEMM
    # below yields v = -a ||x - s||^2 / h^2, the variable of the profile;
    # centring also keeps it from cancelling the squares of a far-off mean.
    ones = np.ones(n)
    centre = ones @ entries / n
    scale = h / math.sqrt(_exponent_factor(spec))
    sample = (entries - centre) / scale
    targets = (pts - centre) / scale
    # -||x - s||^2 = 2 x.s - ||s||^2 - ||x||^2 as one GEMM: [2 x, -1, -||x||^2] @ [s, ||s||^2, 1]^T.
    left = np.column_stack([2.0 * targets, np.full(m, -1.0), -np.einsum("ij,ij->i", targets, targets)])
    right = np.vstack([sample.T, np.einsum("ij,ij->i", sample, sample), ones])
    out = np.empty(m)
    rows = max(1, min(m, _BLOCK_ELEMENTS // n))
    block = np.empty((rows, n))
    for start in range(0, m, rows):
        stop = min(m, start + rows)
        v = block[: stop - start]
        np.matmul(left[start:stop], right, out=v)
        np.minimum(v, 0.0, out=v)  # rounding can leave a tiny positive
        np.matmul(_unscaled_profile(spec, v), ones, out=out[start:stop])
    with np.errstate(over="ignore"):
        out /= normaliser
    if not np.isfinite(out).all():
        raise ValueError(f"a KDE estimate at d = {d}, h = {h:g} is not finite; rescale the curves")
    return out


def resolve_bandwidth(score_matrix: ScoreMatrix, rule) -> float:
    """Turn a bandwidth rule into a number.

    Accepts a positive float (used as-is), "normal-scale", or "rate" (minimax
    exponent with smoothness RATE_SMOOTHNESS and the normal-scale sigma as
    constant).
    """
    if isinstance(rule, (int, float)):
        if not (math.isfinite(rule) and rule > 0):
            raise ValueError(f"explicit bandwidth must be positive and finite, got {rule!r}")
        return float(rule)
    if rule == "normal-scale":
        return bandwidth_normal_scale(score_matrix)
    if rule == "rate":
        return bandwidth_rate(score_matrix.n, score_matrix.d, RATE_SMOOTHNESS, score_scale(score_matrix))
    raise ValueError(f"unknown bandwidth rule {rule!r}")

