"""Workload inputs and independent reference results, written with numpy only.

Nothing here imports ``smallball``: the expected values that every op is
checked against come from a second implementation of the same formulas,
so a wrong number in the package cannot also hide in its own check.  The
formulas differ from the package only in evaluation order (GEMM
distances, one projection sliced per d, chunked sums), which moves
results by 1e-14 to 1e-11 relative, and values near zero by less than
``ATOL``; ``RTOL`` leaves room for that and for the same kind of
reordering in later versions of the package.

Run as a script, it writes one workload's input files and expected
results into a directory, in a process of its own, so that neither the
input generation nor the reference computation counts toward the peak
memory of the benchmark's worker:

    python3 perfbench/reference.py cli-csv 1 .perfbench_work/cli-csv
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-12

GRID = np.linspace(0.0, 1.0, 100)


def trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


WEIGHTS = trapezoid_weights(GRID)


def close(actual, expected, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """Equal shapes, NaN where expected is NaN, and |a - e| <= rtol |e| + atol elsewhere."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return False
    return bool(np.all(np.isclose(a, e, rtol=rtol, atol=atol, equal_nan=True)))


def derived_seed(seed: int, *path: int) -> int:
    """A 63-bit seed that depends only on the workload seed and an index path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0] >> 1)


# -- processes -------------------------------------------------------------


def wiener_lambdas(J: int) -> np.ndarray:
    return ((np.arange(1, J + 1) - 0.5) * math.pi) ** -2.0


def wiener_paths(seed: int, stream: int, n: int, J: int = 50) -> np.ndarray:
    """Truncated Karhunen-Loeve Wiener paths from the Philox key (seed, stream)."""
    g = np.random.Generator(np.random.Philox(key=(seed << 64) | stream))
    z = g.standard_normal((n, J))
    j = np.arange(1, J + 1)
    basis = math.sqrt(2.0) * np.sin((j[:, None] - 0.5) * math.pi * GRID[None, :])
    return (z * np.sqrt(wiener_lambdas(J))[None, :]) @ basis


def wiener_targets(b: np.ndarray) -> np.ndarray:
    return np.asarray(b, dtype=float)[:, None] * (
        (2.0 * math.sqrt(2.0) / math.pi) * np.sin(0.5 * math.pi * GRID)
    )[None, :]


KL_LAMBDAS = np.exp(-np.arange(1, 9, dtype=float) ** 2)
KL_BASIS = math.sqrt(2.0) * np.sin(np.arange(1, 9)[:, None] * math.pi * GRID[None, :])


def gaussian_kl_sample(seed: int, n: int) -> np.ndarray:
    """The factorize-large sample: 8 Gaussian KL components, eigenvalues exp(-j^2)."""
    rng = np.random.default_rng(derived_seed(seed, 0))
    return (rng.standard_normal((n, 8)) * np.sqrt(KL_LAMBDAS)) @ KL_BASIS


def gaussian_kl_centres(seed: int, count: int) -> np.ndarray:
    """Centre curves in the span of the KL basis, at typical distances from the mean."""
    rng = np.random.default_rng(derived_seed(seed, 1))
    return (rng.normal(0.0, 0.5, (count, 8)) * np.sqrt(KL_LAMBDAS)) @ KL_BASIS


# -- FPCA, KDE and the small-ball factorization ----------------------------


def fpca(values: np.ndarray, chunk: int = 50_000):
    """Mean, descending clamped eigenvalues, and sign-normalised eigenfunctions (rows)."""
    n = values.shape[0]
    mean = values.mean(axis=0)
    cov = np.zeros((values.shape[1],) * 2)
    for start in range(0, n, chunk):
        centred = values[start : start + chunk] - mean
        cov += centred.T @ centred
    cov = 0.5 * (cov + cov.T) / n
    sqw = np.sqrt(WEIGHTS)
    vals, vecs = np.linalg.eigh(sqw[:, None] * cov * sqw[None, :])
    vals, vecs = vals[::-1], vecs[:, ::-1]
    funcs = (vecs / sqw[:, None]).T
    peak = funcs[np.arange(funcs.shape[0]), np.argmax(np.abs(funcs), axis=1)]
    funcs *= np.where(peak < 0, -1.0, 1.0)[:, None]
    return mean, np.maximum(vals, 0.0), funcs


def project(values: np.ndarray, mean: np.ndarray, funcs: np.ndarray, d: int) -> np.ndarray:
    return (values - mean) @ (funcs[:d] * WEIGHTS).T


def normal_scale(s: np.ndarray) -> float:
    n, d = s.shape
    return math.sqrt(s.var(axis=0).mean()) * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


def kde(s: np.ndarray, x: np.ndarray, h: float, kernel: str) -> np.ndarray:
    """Radial KDE at the rows of x, with squared distances from the GEMM form."""
    n, d = s.shape
    u2 = x @ s.T
    u2 *= -2.0
    u2 += (x**2).sum(axis=1)[:, None]
    u2 += (s**2).sum(axis=1)[None, :]
    np.maximum(u2, 0.0, out=u2)
    u2 /= h**2
    if kernel == "gaussian-radial":
        u2 *= -0.5
        total = np.exp(u2, out=u2).sum(axis=1) * (2.0 * math.pi) ** (-0.5 * d)
    elif kernel == "epanechnikov-radial":
        sphere = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
        total = np.where(u2 <= 1.0, 1.0 - u2, 0.0).sum(axis=1) / (sphere * 2.0 / (d * (d + 2)))
    else:
        raise ValueError(f"no reference for kernel {kernel!r}")
    return total / (n * h**d)


def ball_volume(d: int, eps: float) -> float:
    return math.exp(d * math.log(eps) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


def correction(tails: np.ndarray, x_tail: np.ndarray, eps: float, d: int) -> float:
    s = ((tails - x_tail) ** 2).sum(axis=1) / eps**2
    return float(np.where(s < 1.0, np.clip(1.0 - s, 0.0, None) ** (0.5 * d), 0.0).mean())


def curve_distances(values: np.ndarray, x: np.ndarray, chunk: int = 50_000) -> np.ndarray:
    return np.concatenate(
        [np.sqrt(((values[i : i + chunk] - x) ** 2) @ WEIGHTS) for i in range(0, values.shape[0], chunk)]
    )


def factorization(values, system, x, eps: float, d: int, J: int, kernel: str) -> dict:
    """f_d at x, V_d(eps), psi over components d+1..J, phi_d and the omitted tail mass."""
    mean, lam, funcs = system
    s = project(values, mean, funcs, J)
    xs = project(x[None, :], mean, funcs, J)[0]
    f_d = float(kde(s[:, :d], xs[None, :d], normal_scale(s[:, :d]), kernel)[0])
    psi = correction(s[:, d:], xs[d:], eps, d)
    volume = ball_volume(d, eps)
    return {
        "f_d": f_d,
        "volume": volume,
        "correction": psi,
        "phi_d": f_d * volume * psi,
        "tail_mass_omitted": float(lam[J:].sum()),
    }


# -- per-workload expected results -----------------------------------------

STUDY_B = np.linspace(-4.0, 4.0, 160)


def wiener_study(base_seed: int, n: int, d_values, replications: int) -> dict:
    """RMSEP mean/std per d and mean APE (first d) of a Gaussian-kernel Wiener study."""
    truth = np.exp(-0.5 * STUDY_B**2)
    targets = wiener_targets(STUDY_B)
    rmseps, apes = [], []
    for rep in range(replications):
        values = wiener_paths(base_seed, rep, n)
        mean, lam, funcs = fpca(values)
        s = project(values, mean, funcs, max(d_values))
        t = project(targets, mean, funcs, max(d_values))
        row = []
        for d in d_values:
            est = kde(s[:, :d], t[:, :d], normal_scale(s[:, :d]), "gaussian-radial")
            est = est * math.prod(math.sqrt(2.0 * math.pi * v) for v in lam[:d])
            row.append(float(((est - truth) ** 2).sum() / (truth**2).sum()))
            if d == d_values[0]:
                apes.append(np.where(truth > 1e-6, np.abs(est - truth) / truth, np.nan))
        rmseps.append(row)
    r = np.asarray(rmseps)
    return {
        "rmsep_mean": r.mean(axis=0),
        "rmsep_std": r.std(axis=0, ddof=1) if replications > 1 else np.zeros(len(d_values)),
        "ape_mean": np.mean(apes, axis=0),
    }


FACTORIZE_N = 200_000
FACTORIZE_EPS = (0.8, 0.6, 0.4)
FACTORIZE_J = 8
FACTORIZE_CENTRES = 4
# d from the hyper-exponential bracket rule (delta1 = 0.5) on the true
# spectrum exp(-j^2); it does not depend on the seed.
FACTORIZE_D = {0.8: 1, 0.6: 1, 0.4: 1}


def factorize_large_expected(seed: int) -> dict:
    values = gaussian_kl_sample(seed, FACTORIZE_N)
    system = fpca(values)
    phi, hits = [], []
    for x in gaussian_kl_centres(seed, FACTORIZE_CENTRES):
        dist = curve_distances(values, x)
        phi.append(
            [factorization(values, system, x, eps, FACTORIZE_D[eps], FACTORIZE_J, "gaussian-radial")["phi_d"]
             for eps in FACTORIZE_EPS]
        )
        hits.append([int(np.count_nonzero(dist <= eps)) for eps in FACTORIZE_EPS])
    return {"phi_d": np.asarray(phi), "hits": np.asarray(hits)}


CLI_N = 2000
CLI_TARGETS = 160
CLI_FPCA_D = 6
CLI_DENSITY_D = 2
CLI_SMBP = {"eps": (0.6, 0.45, 0.3), "d": 1, "J": 10}


def write_curves_csv(values: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(map(repr, GRID.tolist())) + "\n")
        for row in values.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def cli_inputs_and_expected(seed: int, work: Path) -> dict:
    """Write the CLI's input CSVs and config; return what each command must output."""
    sample = wiener_paths(derived_seed(seed, 0), 0, CLI_N)
    targets = wiener_paths(derived_seed(seed, 0), 1, CLI_TARGETS)
    rng = np.random.default_rng(derived_seed(seed, 2))
    centre = wiener_targets(rng.uniform(-1.0, 1.0, 1))
    write_curves_csv(sample, work / "sample.csv")
    write_curves_csv(targets, work / "targets.csv")
    write_curves_csv(centre, work / "target.csv")
    (work / "wiener.cfg").write_text("process = wiener\nJ = 50\n", encoding="utf-8")
    simulate_seed = derived_seed(seed, 3)

    mean, lam, funcs = system = fpca(sample)
    s2 = project(sample, mean, funcs, CLI_DENSITY_D)
    t2 = project(targets, mean, funcs, CLI_DENSITY_D)
    smbp = [
        factorization(sample, system, centre[0], eps, CLI_SMBP["d"], CLI_SMBP["J"], "epanechnikov-radial")
        for eps in CLI_SMBP["eps"]
    ]
    return {
        "simulate_seed": np.asarray(simulate_seed, dtype=np.uint64),
        "simulate_sample": wiener_paths(simulate_seed, 0, CLI_N),
        "fpca_lambda": lam,
        "fpca_functions": funcs[:CLI_FPCA_D],
        "fpca_mean": mean,
        "fpca_scores": project(sample, mean, funcs, CLI_FPCA_D),
        "density_scores": t2,
        "density_f_hat": kde(s2, t2, normal_scale(s2), "epanechnikov-radial"),
        "smbp": np.asarray(
            [[r[k] for k in ("f_d", "volume", "correction", "phi_d", "tail_mass_omitted")] for r in smbp]
        ),
    }


def main(argv: list[str]) -> int:
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    work.mkdir(parents=True, exist_ok=True)
    if workload == "factorize-large":
        expected = factorize_large_expected(seed)
    elif workload == "cli-csv":
        expected = cli_inputs_and_expected(seed, work)
    else:
        raise SystemExit(f"no precomputed inputs for workload {workload!r}")
    np.savez(work / "expected.npz", **expected)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
