"""Functional PCA of simulated Wiener paths.

The truncated Karhunen-Loeve construction makes the true eigenstructure
known exactly, so the estimated spectrum, eigenfunctions, and explained
variance fractions can be checked against closed forms.
"""

import numpy as np

from smallball import (
    Grid,
    ProcessSpec,
    SeededRng,
    fev,
    fit_fpca,
    sample_process,
    scores,
    select_dimension_fev,
    wiener_eigenvalues,
    wiener_tail_mass,
)

grid = Grid.uniform(0.0, 1.0, 100)
sample = sample_process(ProcessSpec("wiener", J=50), 2000, grid, SeededRng(2026, 0))
system = fit_fpca(sample)
analytic = wiener_eigenvalues(50)

print("estimated vs analytic spectrum (leading terms):")
print("   j    lambda_hat    lambda       ratio")
for j in range(6):
    print(f"  {j + 1:2d}    {system.eigenvalues[j]:.6f}    {analytic[j]:.6f}    "
          f"{system.eigenvalues[j] / analytic[j]:.3f}")
print(f"truncation at J = 50 leaves variance mass {wiener_tail_mass(50):.4f}")

print("\nfraction of explained variance:")
for d in range(1, 7):
    print(f"  FEV({d}) = {fev(system.eigenvalues, d):.3f}   (analytic {fev(analytic, d):.3f})")
print(f"smallest d with FEV >= 0.95: {select_dimension_fev(system.eigenvalues, 0.95)}")

sm = scores(sample, system, 4)
print("\nscore columns are centered with variance lambda_hat_j:")
print("  means:    ", np.round(sm.entries.mean(axis=0), 12))
print("  variances:", np.round(sm.entries.var(axis=0), 6))
print("  lambda:   ", np.round(system.eigenvalues[:4], 6))
