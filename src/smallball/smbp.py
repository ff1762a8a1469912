"""Small-ball probability factorization machinery.

For a Hilbert-valued random curve X and a center x, the probability
P(||X - x|| < eps) factorizes, for small radii, into the joint density of
the first d principal-component scores, the volume of the d-dimensional
ball, and a correction in (0, 1] that compensates truncating the expansion
at level d.  This module implements the factorization ingredients, the
eigenvalue-decay classification that governs how d may grow as eps shrinks,
the dimension selection rules, closed-form intensities for Gaussian-type
processes, and a Monte Carlo small-ball estimator used as a validation
oracle.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fpca import EigenSystem, scores
from .grids import Curve, FunctionalSample, GridMismatchError, _centered_blocks


class SmallBallWarning(UserWarning):
    """Signals a degenerate but well-defined small-ball computation."""


def _require_eps(eps: float, zero_ok: bool = False) -> None:
    """Refuse a radius that is nan, infinite, negative, or zero unless ``zero_ok``."""
    if not (math.isfinite(eps) and (eps >= 0 if zero_ok else eps > 0)):
        raise ValueError(f"eps must be finite and {'nonnegative' if zero_ok else 'positive'}, got {eps}")


def ball_volume(d: int, eps: float) -> float:
    """Volume of the d-dimensional Euclidean ball of radius eps.

    Evaluated through log-gamma so large d does not overflow.
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    _require_eps(eps)
    return math.exp(d * math.log(eps) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


def tail_statistic(x_tail_scores, theta_tail_scores, eps: float):
    """Scaled squared tail distance (1/eps^2) sum_j (theta_j - x_j)^2, row-wise.

    A 1-d ``theta_tail_scores`` gives one float; an (n, k) array gives the n
    per-row values against the length-k ``x_tail_scores``.
    """
    _require_eps(eps)
    x_tail = np.asarray(x_tail_scores, dtype=float)
    theta_tail = np.asarray(theta_tail_scores, dtype=float)
    if theta_tail.shape[-1:] != x_tail.shape:
        raise ValueError("tail score vectors must have equal length")
    s = np.sum((theta_tail - x_tail) ** 2, axis=-1) / eps**2
    return float(s) if s.ndim == 0 else s


def correction_factor(sample_scores_tail, x_tail, eps: float, d: int) -> float:
    """Monte Carlo plug-in for the truncation correction E[(1-S)^{d/2} 1{S<1}].

    ``sample_scores_tail`` holds one row of tail scores (components d+1..J)
    per sample curve; S is ``tail_statistic`` of each row against ``x_tail``.
    The result lies in [0, 1].  A value of exactly 0 means every row landed
    outside the S < 1 region, i.e. eps is too small for this truncation
    level; a warning is emitted so callers can enlarge eps or d.
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    tails = np.atleast_2d(np.asarray(sample_scores_tail, dtype=float))
    s = tail_statistic(np.asarray(x_tail, dtype=float).reshape(-1), tails, eps)
    base = np.clip(1.0 - s, 0.0, None)
    psi = float(np.mean(np.where(s < 1.0, base ** (0.5 * d), 0.0)))
    if psi == 0.0:
        warnings.warn(
            "correction factor is 0: every sample path has S >= 1, eps is too "
            "small for this truncation level",
            SmallBallWarning,
            stacklevel=2,
        )
    return psi


class DecayClass(enum.Enum):
    """Eigenvalue decay regimes, ordered from strongest to weakest."""

    HYPER = "hyper-exponential"
    SUPER = "super-exponential"
    EXPONENTIAL = "exponential"
    SLOWER = "slower"


# Finite-sequence stand-ins for the asymptotic decay conditions.  The
# conditions themselves are limits; these thresholds are the artifact's own
# calibration and are carried in the diagnostics so users can re-judge.
HYPER_FINAL_RATIO = 0.1
SUPER_FINAL_RATIO = 0.35
EXPONENTIAL_RATIO_BOUND = 100.0
_MONOTONE_RTOL = 1e-9


@dataclass(frozen=True)
class DecayReport:
    """Classification plus the ratio curves that produced it."""

    label: DecayClass
    d_grid: np.ndarray
    hyper_ratio: np.ndarray  # d * tail(d) / lambda_d
    super_ratio: np.ndarray  # lambda_{d+1} / lambda_d
    exponential_ratio: np.ndarray  # tail(d) / lambda_d
    horizon_effective: int
    window: int


def _strictly_decreasing(values: np.ndarray) -> bool:
    return bool(np.all(values[1:] < values[:-1] * (1.0 - _MONOTONE_RTOL)))


def _strictly_increasing(values: np.ndarray) -> bool:
    return bool(np.all(values[1:] > values[:-1] * (1.0 + _MONOTONE_RTOL)))


def classify_decay(lambdas, horizon: int) -> DecayReport:
    """Classify the decay regime of a positive eigenvalue sequence.

    Ratio curves are computed for d = 1..min(horizon, len-1); the decision
    looks at the last max(2, effective_horizon // 2) points: hyper and super
    require their ratio to decrease strictly across the window and end below
    the class threshold, exponential requires the tail/lambda_d ratio to stay
    bounded without strictly increasing across the window.  The classes nest,
    so a hyper verdict implies the super and exponential criteria also pass.

    The effective horizon is capped by the supplied sequence length (tail
    sums are finite-sequence proxies); the report records the effective one.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 4:
        raise ValueError("need a 1-d sequence of at least 4 eigenvalues")
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be strictly positive; slice off the zero tail")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")

    d_max = min(horizon, lam.size - 1)
    tail = np.cumsum(lam[::-1])[::-1]  # tail[k] = sum_{j >= k} over the sequence
    d_grid = np.arange(1, d_max + 1)
    tail_d = tail[d_grid]  # sum_{j >= d+1}, 1-based
    lam_d = lam[d_grid - 1]
    hyper_ratio = d_grid * tail_d / lam_d
    super_ratio = lam[d_grid] / lam_d
    exp_ratio = tail_d / lam_d

    window = max(2, d_max // 2)
    hw = slice(d_max - window, d_max)
    is_exponential = (
        float(np.max(exp_ratio[hw])) < EXPONENTIAL_RATIO_BOUND
        and not _strictly_increasing(exp_ratio[hw])
    )
    is_super = is_exponential and _strictly_decreasing(super_ratio[hw]) and (
        super_ratio[-1] < SUPER_FINAL_RATIO
    )
    is_hyper = is_super and _strictly_decreasing(hyper_ratio[hw]) and (
        hyper_ratio[-1] < HYPER_FINAL_RATIO
    )

    if is_hyper:
        label = DecayClass.HYPER
    elif is_super:
        label = DecayClass.SUPER
    elif is_exponential:
        label = DecayClass.EXPONENTIAL
    else:
        label = DecayClass.SLOWER
    return DecayReport(
        label=label,
        d_grid=d_grid,
        hyper_ratio=hyper_ratio,
        super_ratio=super_ratio,
        exponential_ratio=exp_ratio,
        horizon_effective=d_max,
        window=window,
    )


def select_dimension_prop1(lambdas, eps: float, delta: float) -> int:
    """Smallest k with k * sum_{j>k} lambda_j <= eps^(2+delta)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2 or np.any(lam < 0):
        raise ValueError("need a 1-d nonnegative sequence of at least 2 eigenvalues")
    target = eps ** (2.0 + delta)
    tail = np.cumsum(lam[::-1])[::-1]
    for k in range(1, lam.size):
        if k * tail[k] <= target:
            # Independent re-summation; slack covers summation-order rounding.
            if k * float(np.sum(lam[k:])) > target * (1.0 + 1e-12) + 1e-300:
                raise RuntimeError(f"k={k}: the re-summed tail breaks k*tail(k) <= {target:.3e}")
            return k
    raise ValueError(
        f"no k up to {lam.size - 1} satisfies k*tail(k) <= eps^(2+delta) = {target:.3e}; "
        "supply a longer eigenvalue sequence or a larger eps"
    )


def _delta2_interval(beta: float, log_lam: float, log_eps2: float):
    """Admissible delta_2 values: (beta, 1) intersected with eps^2 <= lambda^(1-delta_2)."""
    lo, hi = beta, 1.0
    if log_lam < 0:
        lo = max(lo, 1.0 - log_eps2 / log_lam)
    elif log_lam > 0:
        hi = min(hi, 1.0 - log_eps2 / log_lam)
    elif log_eps2 > 0:  # lambda == 1 and eps > 1: upper bound cannot hold
        return None
    if lo >= hi:
        return None
    return lo, hi


def select_dimension_hyper(lambdas, eps: float, delta1: float):
    """Bracketed selection of d for hyper-exponential spectra.

    Scans k = 1, 2, ... for the smallest k whose bracket
    b(k) = (k * tail(k))^(1-delta1)  <=  eps^2  <=  B(k) = lambda_k^(1-delta2)
    can be satisfied.  delta_2 is chosen as the midpoint of the admissible
    sub-interval of (beta(delta1), 1) on which the upper inequality actually
    holds, with beta(delta1) = 1 - (1-delta1) log(k*tail(k)) / log(lambda_k);
    any interior point of that interval is valid and the midpoint keeps the
    choice deterministic.  Returns (d, delta2) and re-checks both
    inequalities on the returned value.
    """
    if not 0.0 < delta1 < 1.0:
        raise ValueError("delta1 must lie in (0, 1)")
    _require_eps(eps)
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2 or np.any(lam <= 0):
        raise ValueError("need a 1-d strictly positive sequence of at least 2 eigenvalues")

    eps2 = eps * eps
    log_eps2 = 2.0 * math.log(eps)
    tail = np.cumsum(lam[::-1])[::-1]
    scanned = []
    for k in range(1, lam.size):
        k_tail = k * float(tail[k])
        b = k_tail ** (1.0 - delta1)
        log_lam = math.log(lam[k - 1])
        beta = 1.0 - (1.0 - delta1) * math.log(k_tail) / log_lam if log_lam != 0 else 0.0
        interval = _delta2_interval(beta, log_lam, log_eps2)
        # For diagnostics report B at the unconstrained midpoint of (beta, 1).
        upper = lam[k - 1] ** (0.5 * (1.0 - min(beta, 1.0)))
        scanned.append((k, b, upper))
        if interval is None or b > eps2:
            continue
        delta2 = 0.5 * (interval[0] + interval[1])
        upper_bound = lam[k - 1] ** (1.0 - delta2)
        if not b <= eps2 <= upper_bound:
            raise RuntimeError(f"k={k}: bracket {b:.3e} <= eps^2 = {eps2:.3e} <= {upper_bound:.3e} fails")
        return k, delta2
    bounds = ", ".join(f"k={k}: b={b:.3e}, B={B:.3e}" for k, b, B in scanned)
    raise ValueError(f"no admissible dimension for eps={eps}; scanned brackets: {bounds}")


def volume_factor(eps: float, d: int, decay: DecayClass, lambda_d: float | None = None):
    """Leading-order log volume term for super/exponential decay regimes.

    Returns (log_volume, info) with log_volume = (d/2) (log(2 pi e eps^2) -
    log d).  The remaining correction in the bracket (an o(1) term in the
    super-exponential regime, a delta(d, alpha) term in the exponential one)
    is only implicitly defined, so it is omitted; info flags the omission and,
    for the exponential class with lambda_d supplied, reports
    alpha = sqrt(eps^2 / lambda_d).
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    _require_eps(eps)
    if decay not in (DecayClass.SUPER, DecayClass.EXPONENTIAL):
        raise ValueError(
            f"volume_factor applies to super/exponential decay only; for {decay.value} "
            "spectra use ball_volume"
        )
    log_volume = 0.5 * d * (math.log(2.0 * math.pi * math.e * eps**2) - math.log(d))
    info = {"bracket_correction_omitted": True, "decay": decay.value}
    if decay is DecayClass.EXPONENTIAL and lambda_d is not None:
        info["alpha"] = math.sqrt(eps**2 / lambda_d)
    return log_volume, info


def gaussian_intensity(x_scores, lambdas, d: int) -> float:
    """Gaussian small-ball intensity exp(-1/2 sum_{j<=d} x_j^2 / lambda_j)."""
    x = np.asarray(x_scores, dtype=float).reshape(-1)[:d]
    lam = np.asarray(lambdas, dtype=float).reshape(-1)[:d]
    if x.size < d or lam.size < d:
        raise ValueError(f"need at least d={d} scores and eigenvalues")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    zero = lam == 0
    if np.any(zero):
        if np.any(x[zero] != 0):
            warnings.warn(
                "nonzero score on a zero eigenvalue: the center is outside the "
                "reproducing-kernel Hilbert space, intensity is 0",
                SmallBallWarning,
                stacklevel=2,
            )
            return 0.0
        x, lam = x[~zero], lam[~zero]
    return float(np.exp(-0.5 * np.sum(x**2 / lam)))


def exp_power_intensity(x_scores, lambdas, q: float, d: int) -> float:
    """Exponential-power intensity exp(-1/2 sum_{j<=d} (|x_j|/sqrt(lambda_j))^q).

    Reduces to gaussian_intensity at q = 2; q below 2 is rejected.
    """
    if q < 2:
        raise ValueError("the exponential-power family requires q >= 2")
    x = np.asarray(x_scores, dtype=float).reshape(-1)[:d]
    lam = np.asarray(lambdas, dtype=float).reshape(-1)[:d]
    if x.size < d or lam.size < d:
        raise ValueError(f"need at least d={d} scores and eigenvalues")
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be strictly positive")
    return float(np.exp(-0.5 * np.sum((np.abs(x) / np.sqrt(lam)) ** q)))


def wiener_intensity(x: Curve) -> float:
    """Closed-form Wiener intensity exp(-1/2 int_0^1 x'(t)^2 dt).

    The derivative is taken numerically (central differences inside,
    one-sided at the ends) and the square integrated by the grid quadrature;
    x must be smooth enough for that to be meaningful.
    """
    grid = x.grid
    if abs(grid.a) > 1e-9 or abs(grid.b - 1.0) > 1e-9:
        raise ValueError("wiener_intensity expects a grid spanning [0, 1]")
    if grid.size < 3:
        raise ValueError("need at least 3 grid points to differentiate")
    deriv = np.gradient(x.values, grid.points)
    return float(np.exp(-0.5 * np.sum(grid.weights * deriv**2)))


def empirical_smbp(sample: FunctionalSample, x: Curve, eps: float) -> float:
    """Monte Carlo small-ball probability: fraction of curves within eps of x.

    Each curve's distance sqrt(sum_k w_k (X_k - x_k)^2) is computed one row
    block at a time, in place in that block's differences.
    """
    if not sample.grid.matches(x.grid):
        raise GridMismatchError("sample and center live on different grids")
    _require_eps(eps, zero_ok=True)
    hits = 0
    for _, diffs in _centered_blocks(sample.values, x.values):
        diffs **= 2
        diffs *= sample.grid.weights
        hits += int(np.count_nonzero(np.sqrt(diffs.sum(axis=1)) <= eps))
    return hits / sample.n


@dataclass(frozen=True)
class FactorizationReport:
    """All ingredients of one small-ball factorization evaluation."""

    d: int
    eps: float
    f_d_at_x: float
    volume: float
    correction: float
    phi_d: float
    tail_mass_omitted: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "eps": self.eps,
                "f_d": self.f_d_at_x,
                "volume": self.volume,
                "correction": self.correction,
                "phi_d": self.phi_d,
                "tail_mass_omitted": self.tail_mass_omitted,
            }
        )


def factorize(
    sample: FunctionalSample,
    x: Curve,
    eps: float,
    d: int,
    system: EigenSystem,
    f_d_at_x: float,
    J: int,
) -> FactorizationReport:
    """Assemble the d-level small-ball approximation phi_d = f_d * V_d * psi.

    The correction psi is the Monte Carlo plug-in over the sample's tail
    scores for components d+1..J; the eigenvalue mass beyond J (as far as the
    eigensystem sees it) is reported so truncation bias can be judged.
    """
    if not 1 <= d < J:
        raise ValueError("need 1 <= d < J")
    if J > system.eigenvalues.size:
        raise ValueError(f"J={J} exceeds the {system.eigenvalues.size} available eigenfunctions")
    sample_scores = scores(sample, system, J).entries
    x_scores = scores(x, system, J)
    psi = correction_factor(sample_scores[:, d:], x_scores[d:], eps, d)
    volume = ball_volume(d, eps)
    phi_d = f_d_at_x * volume * psi
    tail_mass = float(np.sum(system.eigenvalues[J:]))
    return FactorizationReport(
        d=d,
        eps=eps,
        f_d_at_x=float(f_d_at_x),
        volume=volume,
        correction=psi,
        phi_d=phi_d,
        tail_mass_omitted=tail_mass,
    )
