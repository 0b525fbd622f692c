"""Variable-density Euler and Euler-Boussinesq: reductions and contraction.

The inhomogeneous solver reduces to the homogeneous one at unit density, the
Boussinesq solver reduces exactly at zero temperature or zero gravity, and
the scalar-difference energies obey the transport-commutator contraction
audit between resolutions.
"""

import numpy as np

from eulerlab import (
    boussinesq_solve,
    density_contraction_check,
    inhom_solve,
    leray_project,
    make_grid,
    random_divfree,
    resample,
    solve,
    taylor_green,
    VelocityField,
)

grid = make_grid(2, 128)
u0 = random_divfree(grid, 3.0, seed=11)

# unit-density reduction
rho1 = grid.sample_scalar(lambda x, y: 1.0 + 0.0 * x)
ti = inhom_solve(rho1, u0, 0.1, 2e-3, snapshot_stride=50)
th = solve(u0, 0.1, 2e-3, snapshot_stride=50)
gap = max(np.max(np.abs(a.values - b.values))
          for a, b in zip(ti.final().velocity.components, th.final().velocity.components))
print(f"rho = 1 reduction: velocity gap vs homogeneous solver = {gap:.2e}")

# density contraction across resolutions
fine = make_grid(2, 256)
rho0 = fine.sample_scalar(lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x) * np.cos(np.pi * y))
uf = taylor_green(fine, 1.0)
a = inhom_solve(resample(rho0, grid), resample(uf, grid), 0.1, 2e-3, snapshot_stride=10)
b = inhom_solve(rho0, uf, 0.1, 1e-3, snapshot_stride=20)
rep = density_contraction_check(a, b, 1e-5)
print(f"density contraction 128 vs 256: pass = {rep.passed}, "
      f"max D = {max(rep.values):.2e}, budget = {rep.budget:.2e}")
print(f"  mass ledger drift: {abs(b.ledgers['mass'][-1] - b.ledgers['mass'][0]):.2e}")

# Boussinesq reductions
th0 = grid.sample_scalar(lambda x, y: 0.0 * x)
tb = boussinesq_solve(th0, u0, (0.0, -1.0), 0.05, 1e-3, snapshot_stride=25)
te = solve(u0, 0.05, 1e-3, snapshot_stride=25)
bitwise = all(np.array_equal(x.velocity.components[i].values, y.velocity.components[i].values)
              for x, y in zip(tb.states, te.states) for i in range(2))
print(f"\ntheta = 0 reduces to the homogeneous solver bitwise: {bitwise}")

# buoyancy spin-up from rest
th1 = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
rest = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
run = boussinesq_solve(th1, rest, (0.0, -1.0), 0.01, 1e-3, snapshot_stride=10)
expect = leray_project(VelocityField.from_arrays(grid, [0 * th1.values, -0.01 * th1.values]))
err = max(np.max(np.abs(a.values - b.values))
          for a, b in zip(run.final().velocity.components, expect.components))
print(f"spin-up from rest matches t * P(theta g) to {err:.2e} at t = 0.01")
