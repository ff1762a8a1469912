"""Seeded generators for the simulated processes and their target curves.

Randomness flows through a counter-based Philox generator keyed by
(seed, stream): the same pair reproduces the same sample on any platform
and under any thread count, and distinct streams are statistically
independent, so Monte Carlo replications can run in parallel without
sharing state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .grids import FunctionalSample, Grid

SINE = "sine"
WIENER = "wiener"
GAUSSIAN_KL = "gaussian-kl"
EXP_POWER_KL = "exp-power-kl"
PROCESS_KINDS = (SINE, WIENER, GAUSSIAN_KL, EXP_POWER_KL)

STD_NORMAL = "std-normal"
STD_STUDENT_T5 = "std-t5"
STD_CHISQ8 = "std-chisq8"
DISTRIBUTIONS = (STD_NORMAL, STD_STUDENT_T5, STD_CHISQ8)

# The ProcessSpec fields each kind reads; a spec leaves every other field at its default.
_FIELDS_READ = {SINE: ("dist",), WIENER: ("J",), GAUSSIAN_KL: ("J", "lambdas"), EXP_POWER_KL: ("J", "lambdas", "q")}

GRID_POINTS = 100
B_GRID_POINTS = 160


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random stream: Philox keyed by a 64-bit seed and stream index."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.stream < 2**64:
            raise ValueError("stream index must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        key = (int(self.seed) << 64) | int(self.stream)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ProcessSpec:
    """Which simulated process to draw, with its distributional parameters."""

    kind: str
    dist: str = STD_NORMAL
    J: int = 50
    lambdas: tuple = ()
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}; choose from {PROCESS_KINDS}")
        lambdas = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lambdas)
        for field in fields(self)[1:]:  # every field after kind
            if field.name not in _FIELDS_READ[self.kind] and getattr(self, field.name) != field.default:
                raise ValueError(f"a {self.kind} process does not read {field.name}; leave it unset")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.dist!r}; choose from {DISTRIBUTIONS}")
        if self.J < 1:
            raise ValueError("truncation level J must be at least 1")
        if self.kind in (GAUSSIAN_KL, EXP_POWER_KL):
            if len(lambdas) < self.J:
                raise ValueError("need at least J eigenvalues for a KL process")
            lam = np.asarray(lambdas)
            if np.any(lam <= 0) or np.any(np.diff(lam) > 0):
                raise ValueError("KL eigenvalues must be positive and descending")
        if self.kind == EXP_POWER_KL and self.q < 2:
            raise ValueError("the exponential-power family requires q >= 2")


def default_grid(kind: str) -> Grid:
    """The standard 100-point mesh: [0, pi] for the sine process, else [0, 1]."""
    if kind == SINE:
        return Grid.uniform(0.0, math.pi, GRID_POINTS)
    return Grid.uniform(0.0, 1.0, GRID_POINTS)


def draw_scalar(dist: str, rng: SeededRng, size=None):
    """Zero-mean unit-variance draws from one of the three score laws."""
    g = rng.generator()
    if dist == STD_NORMAL:
        return g.standard_normal(size)
    if dist == STD_STUDENT_T5:
        return g.standard_t(5, size) / math.sqrt(5.0 / 3.0)
    if dist == STD_CHISQ8:
        return (g.chisquare(8, size) - 8.0) / 4.0
    raise ValueError(f"unknown distribution {dist!r}")


def sine_basis_function(grid: Grid) -> np.ndarray:
    """The unit-norm direction sqrt(2/pi) sin(t) of the sine process on [0, pi]."""
    return math.sqrt(2.0 / math.pi) * np.sin(grid.points)


def wiener_eigenvalues(J: int) -> np.ndarray:
    """Analytic Wiener covariance spectrum ((j - 0.5) pi)^-2, j = 1..J."""
    j = np.arange(1, J + 1)
    return ((j - 0.5) * math.pi) ** -2.0


def wiener_basis(grid: Grid, J: int) -> np.ndarray:
    """Orthonormal Wiener eigenfunctions sqrt(2) sin((j - 0.5) pi t), rows j = 1..J."""
    j = np.arange(1, J + 1)
    return math.sqrt(2.0) * np.sin((j[:, None] - 0.5) * math.pi * grid.points[None, :])


def wiener_tail_mass(J: int) -> float:
    """Variance mass left out by truncating the Wiener expansion at J terms."""
    return 0.5 - float(wiener_eigenvalues(J).sum())


def fourier_sine_basis(grid: Grid, J: int) -> np.ndarray:
    """Orthonormal sine basis sqrt(2/(b-a)) sin(j pi (t-a)/(b-a)), rows j = 1..J."""
    j = np.arange(1, J + 1)
    length = grid.b - grid.a
    phase = j[:, None] * math.pi * (grid.points[None, :] - grid.a) / length
    return math.sqrt(2.0 / length) * np.sin(phase)


def _exp_power_unit_variance(q: float, g: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance symmetric draws with density proportional to exp(-|x/alpha|^q).

    Uses the Gamma representation: sign * G^(1/q) with G ~ Gamma(1/q) has the
    exponential-power shape; dividing by its standard deviation
    sqrt(Gamma(3/q)/Gamma(1/q)) standardizes the variance.
    """
    radius = g.gamma(1.0 / q, size=shape) ** (1.0 / q)
    sign = g.integers(0, 2, size=shape) * 2.0 - 1.0
    sd = math.exp(0.5 * (math.lgamma(3.0 / q) - math.lgamma(1.0 / q)))
    return sign * radius / sd


@functools.lru_cache(maxsize=4)
def _basis_on(kind: str, points: bytes, J: int) -> np.ndarray:
    """The read-only Karhunen-Loeve basis of a kind, one row e_j per term, on the grid with these points (as bytes).

    Every replication of a study draws on one grid, so they share one entry;
    the cache keeps the last four (kind, grid, J) triples.
    """
    grid = Grid(np.frombuffer(points))
    if kind == SINE:
        basis = sine_basis_function(grid)[None, :]
    elif kind == WIENER:
        basis = wiener_basis(grid, J)
    else:
        basis = fourier_sine_basis(grid, J)
    basis.setflags(write=False)
    return basis


def sample_process(spec: ProcessSpec, n: int, grid: Grid, rng: SeededRng) -> FunctionalSample:
    """Draw n paths sum_j sqrt(lambda_j) xi_j e_j of the specified process on the grid.

    The sine process is the rank-one case lambda_1 = 1 with xi_1 ~ spec.dist. The
    scores of the other kinds are standard normal, or exponential-power(q) ones.
    """
    if n < 1:
        raise ValueError(f"sample size n must be at least 1, got n = {n}")
    basis = _basis_on(spec.kind, grid.points.tobytes(), spec.J)
    shape = (n, basis.shape[0])
    if spec.kind == EXP_POWER_KL:
        draws = _exp_power_unit_variance(spec.q, rng.generator(), shape)
    else:
        draws = draw_scalar(spec.dist, rng, shape)
    if spec.kind == WIENER:
        draws *= np.sqrt(wiener_eigenvalues(spec.J))
    elif spec.kind != SINE:
        draws *= np.sqrt(spec.lambdas[: spec.J])
    return FunctionalSample(grid, draws @ basis)


def default_b_grid(kind: str, dist: str) -> np.ndarray:
    """The standard target grid: 160 points over [-4, 4], or [-2, 6] for chi-square."""
    if kind == SINE and dist == STD_CHISQ8:
        return np.linspace(-2.0, 6.0, B_GRID_POINTS)
    return np.linspace(-4.0, 4.0, B_GRID_POINTS)


def target_curves(kind: str, b_values, grid: Grid) -> FunctionalSample:
    """Discretized target curves x^b on the process grid, one per b."""
    b = np.asarray(b_values, dtype=float).reshape(-1, 1)
    if not np.all(np.isfinite(b)):
        raise ValueError("b values must be finite")
    if kind == SINE:
        shape = sine_basis_function(grid)
    elif kind == WIENER:
        shape = (2.0 * math.sqrt(2.0) / math.pi) * np.sin(0.5 * math.pi * grid.points)
    else:
        raise ValueError(f"no target family is defined for process kind {kind!r}")
    return FunctionalSample(grid, b * shape[None, :])


def _std_t5_pdf(b: np.ndarray) -> np.ndarray:
    scale = math.sqrt(5.0 / 3.0)
    u = scale * b
    c = math.exp(math.lgamma(3.0) - math.lgamma(2.5)) / math.sqrt(5.0 * math.pi)
    return scale * c * (1.0 + u**2 / 5.0) ** -3.0


def _std_chisq8_pdf(b: np.ndarray) -> np.ndarray:
    v = 4.0 * b + 8.0
    # chi-square(8) density v^3 exp(-v/2) / 96, zero at and below the origin.
    return np.where(v > 0, 4.0 * np.clip(v, 0.0, None) ** 3 * np.exp(-np.clip(v, 0.0, None) / 2.0) / 96.0, 0.0)


def true_intensity(kind: str, dist: str, b_values) -> np.ndarray:
    """Exact intensity values at the targets x^b.

    For the sine process this is the score density f_a(b); for the Wiener
    process it is exp(-b^2/2).
    """
    b = np.asarray(b_values, dtype=float)
    if kind == WIENER:
        return np.exp(-0.5 * b**2)
    if kind != SINE:
        raise ValueError(f"no closed-form intensity is defined for process kind {kind!r}")
    if dist == STD_NORMAL:
        return np.exp(-0.5 * b**2) / math.sqrt(2.0 * math.pi)
    if dist == STD_STUDENT_T5:
        return _std_t5_pdf(b)
    if dist == STD_CHISQ8:
        return _std_chisq8_pdf(b)
    raise ValueError(f"unknown distribution {dist!r}")
