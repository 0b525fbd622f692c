"""Seeded workload generator and reference checks for the eulerlab benchmark.

A workload is a list of experiments; each experiment is one INI config that
``eulerlab.cli.run`` executes in its own process.  The benchmark seed is the
only input: it becomes ``[experiment] seed``, which keys every seeded
synthesis (``random_divfree``, ``lacunary``, the weak-form test functions).

``key_scalars`` reduces a ``report.json`` to the verdict and the numbers the
reference check compares; ``compare`` applies the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "WORKLOADS",
    "Workload",
    "compare",
    "configs",
    "key_scalars",
    "working_set",
]

# Relative tolerance of the reference check: loose enough for last-bit
# changes (reordered sums, a warm-started CG that stops at the same 1e-10
# residual), tight enough that any change of method shows.
RTOL = 1e-6
# Absolute floors for scalars that sit at round-off level on steady data.
ATOL = {
    "relative_drift": 1e-12,
    "max_w1_residual": 1e-13,
    "max_w2_residual": 1e-13,
}
DEFAULT_ATOL = 1e-14


@dataclass(frozen=True)
class Workload:
    why: str
    experiments: tuple[tuple[str, str], ...]  # (name, INI template)
    grids: tuple[int, ...]  # grid sizes the experiments run on


_SWEEP_SOLVER = """\
[sweep]
epsilons = 0.25 0.125 0.0625 0.03125
alpha = 0.6
p = 3.0
"""

_HOMOGENEOUS = """\
[experiment]
kind = uniqueness
seed = {seed}

[grid]
n = 128

[synth]
kind = random_divfree
slope = 2.0
amplitude = 1.0

[solver]
dt = 2e-3
T = 0.05
snapshot_stride = 5

[solver_b]
n = 256
dt = 1e-3
snapshot_stride = 10

""" + _SWEEP_SOLVER + "budget_route = convective\n"

_VARIABLE_DENSITY = """\
[experiment]
kind = inhom_uniqueness
seed = {seed}

[grid]
n = 64

[synth]
kind = random_divfree
slope = 2.0
amplitude = 1.0

[density]
amplitude = 0.2

[solver]
dt = 2e-3
T = 0.02
snapshot_stride = 2

[solver_b]
n = 128
dt = 1e-3
snapshot_stride = 4

""" + _SWEEP_SOLVER + "contraction_tolerance = 1e-5\n"

_LACUNARY_512 = """\
[experiment]
kind = {kind}
seed = {{seed}}

[grid]
n = 512

[synth]
kind = lacunary
alpha = {alpha}
j_max = 7

[sweep]
{epsilons}alpha = {alpha}
p = 3.0
"""

_EPSILONS_512 = "epsilons = 0.125 0.0625 0.03125 0.015625 0.0078125\n"

_ENERGY = """\
[experiment]
kind = energy_conservation
seed = {seed}

[grid]
n = 128

[synth]
kind = taylor_green
amplitude = 1.0

[solver]
dt = 1e-3
T = 0.2
snapshot_stride = 20
drift_tolerance = 1e-6
admissibility_tolerance = 1e-7

[output]
save_snapshots = 1
"""

_WEAK = """\
[experiment]
kind = weak_residual
seed = {seed}

[grid]
n = 128

[synth]
kind = taylor_green

[solver]
dt = 1e-3
T = 0.1
snapshot_stride = 5

[weak]
count = 10
kmax = 3
"""

_BOUSSINESQ = """\
[experiment]
kind = boussinesq_uniqueness
seed = {seed}

[grid]
n = 64

[synth]
kind = random_divfree
slope = 2.0
amplitude = 1.0

[buoyancy]
g = 0.0 -1.0
theta_amplitude = 0.2
theta_axis = 0

[solver]
dt = 2e-3
T = 0.05
snapshot_stride = 5

[solver_b]
n = 128
dt = 1e-3
snapshot_stride = 10

""" + _SWEEP_SOLVER

WORKLOADS = {
    "certify_homogeneous": Workload(
        why="two-leg uniqueness certificate on random_divfree data (128/256): "
        "solver-bound with real dynamics, bypasses the PCG pressure solve",
        experiments=(("uniqueness", _HOMOGENEOUS),),
        grids=(128, 256),
    ),
    "certify_variable_density": Workload(
        why="variable-density certificate (64/128): many small FFTs inside the "
        "PCG pressure solve, bypasses the homogeneous solver",
        experiments=(("inhom_uniqueness", _VARIABLE_DENSITY),),
        grids=(64, 128),
    ),
    "audit_sweep_512": Workload(
        why="Besov fit and commutator/CET sweeps on 512^2 lacunary fields: "
        "large working set, no time stepping",
        experiments=(
            ("besov_fit", _LACUNARY_512.format(kind="besov_fit", alpha=0.5, epsilons="")),
            ("commutator_scaling", _LACUNARY_512.format(
                kind="commutator_scaling", alpha=0.75, epsilons=_EPSILONS_512)),
            ("cet_scaling", _LACUNARY_512.format(
                kind="cet_scaling", alpha=0.6, epsilons=_EPSILONS_512)),
        ),
        grids=(512,),
    ),
    "ledgers_buoyancy": Workload(
        why="energy ledger with snapshot writes, weak residuals and the "
        "Boussinesq certificate: the only user of boussinesq_solve and snapshots",
        experiments=(
            ("energy_conservation", _ENERGY),
            ("weak_residual", _WEAK),
            ("boussinesq_uniqueness", _BOUSSINESQ),
        ),
        grids=(64, 128),
    ),
}


def configs(workload: str, seed: int) -> list[tuple[str, str]]:
    """INI text of each experiment of ``workload`` for the benchmark seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return [(name, text.format(seed=seed)) for name, text in WORKLOADS[workload].experiments]


def working_set(workload: str) -> list[str]:
    """Bytes of one float64 scalar and one 2D velocity field at each grid size."""
    out = []
    for n in WORKLOADS[workload].grids:
        scalar = n * n * 8
        out.append(f"n={n}: scalar {scalar // 1024} KiB, velocity {2 * scalar // 1024} KiB")
    return out


def key_scalars(report: dict) -> dict:
    """The verdict and the key scalars of one ``report.json``."""
    kind = report["experiment"]
    if kind in ("uniqueness", "inhom_uniqueness", "boussinesq_uniqueness"):
        return {
            "verdict": report["verdict"],
            "max_E": max(report["series"]["E"]),
            "slack": report["certificate"]["slack"],
            "fitted_alpha": report["hypothesis"]["fitted_alpha"],
        }
    if kind == "besov_fit":
        return {"fitted_alpha": report["fitted_alpha"], "seminorm": report["seminorm"]}
    if kind in ("commutator_scaling", "cet_scaling"):
        return {"verdict": report["pass"], "fitted_slope": report["fitted_slope"]}
    if kind == "energy_conservation":
        return {"verdict": report["pass"], "relative_drift": report["relative_drift"]}
    if kind == "weak_residual":
        return {
            "verdict": report["pass"],
            "max_w1_residual": report["max_w1_residual"],
            "max_w2_residual": report["max_w2_residual"],
        }
    raise ValueError(f"no key scalars defined for experiment {kind!r}")


def compare(got: dict, want: dict) -> list[str]:
    """Differences between two ``key_scalars`` results beyond the tolerance.

    Verdicts, exit codes and any non-float entry must match exactly.
    """
    problems = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if isinstance(a, float) and isinstance(b, float):
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    problems.append(f"{key}: {a!r} vs reference {b!r}")
            elif abs(a - b) > RTOL * max(abs(a), abs(b)) + ATOL.get(key, DEFAULT_ATOL):
                problems.append(f"{key}: {a!r} vs reference {b!r}")
        elif a != b:
            problems.append(f"{key}: {a!r} vs reference {b!r}")
    return problems
