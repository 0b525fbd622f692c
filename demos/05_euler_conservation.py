"""The pseudo-spectral Euler solver: conservation, admissibility, weak form.

Taylor-Green is an exact steady solution and stays put to machine precision;
random smooth data conserves energy to the integrator's order; every resolved
run satisfies the energy-admissibility audit; and the trajectory satisfies
the weak formulation against band-limited divergence-free test functions.
"""

import numpy as np

from eulerlab import (
    WeakTestFunction,
    admissibility_check,
    cosine_window,
    enstrophy,
    low_mode_divfree,
    low_mode_scalar,
    make_grid,
    random_divfree,
    recover_pressure,
    solve,
    taylor_green,
    taylor_green_pressure,
    weak_residuals,
)

grid = make_grid(2, 128)

tg = taylor_green(grid, 1.0)
traj = solve(tg, 0.5, 1e-3, snapshot_stride=100)
e = traj.energy_ledger
print(f"Taylor-Green, T = 0.5: relative energy drift = "
      f"{max(abs(x - e[0]) for x in e) / e[0]:.2e}")

p = recover_pressure(tg)
p_exact = taylor_green_pressure(grid, 1.0)
print(f"recovered pressure vs hand-derived (A^2/4)(cos 2pi x + cos 2pi y): "
      f"max err = {np.max(np.abs(p.values - p_exact.values)):.2e}")

u0 = random_divfree(grid, 3.0, seed=11)
run = solve(u0, 0.25, 1e-3, snapshot_stride=50)
e = run.energy_ledger
ens = [enstrophy(s.scalars["vorticity"]) for s in run.states]
print(f"\nrandom smooth data, T = 0.25:")
print(f"  energy drift    = {abs(e[-1] - e[0]) / e[0]:.2e}")
print(f"  enstrophy drift = {abs(ens[-1] - ens[0]) / ens[0]:.2e}")
adm = admissibility_check(run, 1e-7)
print(f"  admissibility: pass = {adm.passed}, max violation = {adm.max_violation:.2e}")

print("\nweak-formulation residuals on the Taylor-Green run:")
tests = []
for i in range(3):
    psi = low_mode_divfree(traj.grid, 3, seed=100 + i)
    phi = low_mode_scalar(traj.grid, 3, seed=200 + i)
    tests += [WeakTestFunction(psi, cosine_window(0.5)), WeakTestFunction(phi, cosine_window(0.5))]
# one pass over the states for all six tests: each read rebuilds a state
residuals = weak_residuals(traj, tests)
for i in range(3):
    r1, r2 = residuals[2 * i], residuals[2 * i + 1]
    print(f"  test {i}: momentum identity {r1:.2e}, divergence identity {r2:.2e}")
