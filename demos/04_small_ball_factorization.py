"""The small-ball factorization against a Monte Carlo oracle.

For a Gaussian process with sharply decaying spectrum, the product of the
estimated score density, the ball volume, and the truncation correction
approximates P(||X - x|| < eps), and the relative error shrinks with the
radius.
"""

import numpy as np

from smallball import (
    GAUSSIAN,
    Curve,
    FunctionalSample,
    Grid,
    ProcessSpec,
    SeededRng,
    empirical_smbp,
    estimate_surrogate_density,
    factorize,
    fit_fpca,
    sample_process,
    select_dimension_hyper,
)

lam = np.exp(-np.arange(1, 9, dtype=float) ** 2)
grid = Grid.uniform(0.0, 1.0, 100)
print("sampling 100000 paths of a Gaussian process with lambda_j = exp(-j^2) ...")
sample = sample_process(ProcessSpec("gaussian-kl", J=8, lambdas=lam), 100_000, grid, SeededRng(4, 0))
system = fit_fpca(sample)
x = Curve(grid, np.zeros(grid.size))
center = FunctionalSample(grid, x.values[None, :])

print("\n  eps    d   f_d(0)     psi      phi_d     MC oracle   rel err")
for eps in (0.8, 0.6, 0.5, 0.4, 0.3):
    d, _ = select_dimension_hyper(lam, eps, 0.5)
    f_d = float(estimate_surrogate_density(sample, system, center, [d], GAUSSIAN)[d][1][0])
    rep = factorize(sample, x, eps, d, system, f_d, 8)
    oracle = empirical_smbp(sample, x, eps)
    print(f"  {eps:4.2f}   {d}   {f_d:.4f}   {rep.correction:.4f}   {rep.phi_d:.5f}   "
          f"{oracle:.5f}     {abs(rep.phi_d / oracle - 1.0):.3f}")

print("""
while d stays at 1 the relative error falls steadily with eps; at eps = 0.3
the bracket rule steps up to d = 2, trading truncation bias for a regime
where eps^2 is no longer small against lambda_2, so the error spikes before
the asymptotic regime of the larger d kicks in at smaller radii.""")

print("report for eps = 0.4 as JSON:")
d, _ = select_dimension_hyper(lam, 0.4, 0.5)
f_d = float(estimate_surrogate_density(sample, system, center, [d], GAUSSIAN)[d][1][0])
print(factorize(sample, x, 0.4, d, system, f_d, 8).to_json())
