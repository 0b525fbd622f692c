"""Acceptance gate: one test per criterion, at the stated scale and tolerance.

Each test prints a single PASS/FAIL line (run ``pytest -s`` or ``-rA`` to see
them all).  These run the full desk-scale configurations and take a few
minutes together; everything else in the suite is fast.
"""

import numpy as np
import pytest

from eulerlab.besov import fit_regularity_exponent
from eulerlab.commutator import scaling_experiment
from eulerlab.extensions import (
    boussinesq_solve,
    density_contraction_check,
    inhom_solve,
)
from eulerlab.grid_fields import (
    VelocityField,
    leray_project,
    lp_norm,
    make_grid,
    resample,
)
from eulerlab.mollify import make_kernel
from eulerlab.solver import (
    WeakTestFunction,
    admissibility_check,
    cosine_window,
    solve,
    weak_residual,
)
from eulerlab.synth import (
    SynthSpec,
    lacunary_field,
    low_mode_divfree,
    low_mode_scalar,
    random_divfree,
    shear_flow,
    taylor_green,
)
from eulerlab.uniqueness import (
    RunConfig,
    lipschitz_from_gradient,
    one_sided_lipschitz,
    uniqueness_experiment,
)

from _utils import linear_window

pytestmark = pytest.mark.acceptance

ACCEPT_EPS = [2.0**-k for k in range(3, 8)]  # 1/8 .. 1/128


def announce(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def grid512():
    return make_grid(2, 512)


@pytest.fixture(scope="module")
def grid256():
    return make_grid(2, 256)


@pytest.fixture(scope="module")
def tg_trajectory_256(grid256):
    # Taylor-Green at 256^2, dt = 1e-3, T = 1 (criteria 4, 5, 8 share it)
    return solve(taylor_green(grid256, 1.0), 1.0, 1e-3, snapshot_stride=100)


@pytest.fixture(scope="module")
def random_drifts(grid256):
    u0 = random_divfree(grid256, 3.0, seed=11, amplitude=1.0)
    finals = {}
    drifts = {}
    for dt in (2e-3, 1e-3, 5e-4):
        traj = solve(u0, 0.25, dt, snapshot_stride=10**9)
        e = traj.energy_ledger
        drifts[dt] = abs(e[-1] - e[0]) / e[0]
        finals[dt] = traj.final().velocity
    return drifts, finals, u0


def test_criterion_1_cet_rate(grid512):
    results = []
    for alpha in (0.4, 0.6, 0.8):
        u = lacunary_field(SynthSpec("lacunary", alpha=alpha, j_max=7, seed=42), grid512)
        v = lacunary_field(SynthSpec("lacunary", alpha=alpha, j_max=7, seed=7), grid512)
        report = scaling_experiment((u, v), "cet_trilinear", ACCEPT_EPS, 3.0, alpha=alpha)
        threshold = 3.0 * alpha - 1.0 - 0.15
        results.append((alpha, report.fitted_slope, threshold))
    ok = all(slope >= thr for _, slope, thr in results)
    detail = "; ".join(
        f"alpha={a}: slope {s:.3f} >= {t:.3f}" for a, s, t in results
    )
    announce(1, "CET trilinear rate", ok, detail)
    for alpha, slope, thr in results:
        assert slope >= thr


def test_criterion_2_commutator_rate(grid512):
    results = []
    for alpha in (0.6, 0.75, 0.9):
        v = lacunary_field(SynthSpec("lacunary", alpha=alpha, j_max=7, seed=42), grid512)
        report = scaling_experiment(
            v, "convective_commutator_lp", ACCEPT_EPS, 3.0, alpha=alpha
        )
        threshold = 2.0 * alpha - 1.0 - 0.15
        results.append((alpha, report.fitted_slope, threshold))
    ok = all(slope >= thr for _, slope, thr in results)
    detail = "; ".join(
        f"alpha={a}: slope {s:.3f} >= {t:.3f}" for a, s, t in results
    )
    announce(2, "convective commutator rate", ok, detail)
    for alpha, slope, thr in results:
        assert slope >= thr


def test_criterion_3_besov_round_trip(grid512):
    results = []
    for alpha in (0.35, 0.5, 0.75):
        u = lacunary_field(SynthSpec("lacunary", alpha=alpha, j_max=7, seed=42), grid512)
        fitted = fit_regularity_exponent(u, 3.0)
        results.append((alpha, fitted))
    ok = all(abs(f - a) <= 0.05 for a, f in results)
    detail = "; ".join(f"alpha={a}: fitted {f:.4f}" for a, f in results)
    announce(3, "Besov exponent round-trip", ok, detail)
    for alpha, fitted in results:
        assert fitted == pytest.approx(alpha, abs=0.05)


def test_criterion_4_solver_conservation(tg_trajectory_256, random_drifts):
    e = tg_trajectory_256.energy_ledger
    tg_drift = max(abs(x - e[0]) for x in e) / e[0]
    drifts, finals, _ = random_drifts
    grid = finals[2e-3].grid

    def diff(a, b):
        return lp_norm(
            VelocityField.from_arrays(
                grid, [x.values - y.values for x, y in zip(a.components, b.components)]
            ),
            2.0,
        )

    # trajectory self-convergence against the dt/4 reference: 4th order
    err_coarse = diff(finals[2e-3], finals[5e-4])
    err_fine = diff(finals[1e-3], finals[5e-4])
    traj_ratio = err_coarse / err_fine
    energy_ratio = drifts[2e-3] / drifts[1e-3]
    ok = (
        tg_drift <= 1e-8
        and drifts[2e-3] <= 1e-6
        and drifts[1e-3] <= 1e-6
        and energy_ratio >= 12.0
        and 11.0 <= traj_ratio <= 24.0
    )
    detail = (
        f"TG drift {tg_drift:.2e} <= 1e-8; random drift {drifts[1e-3]:.2e} <= 1e-6; "
        f"dt-halving: energy x{energy_ratio:.1f} (>=12), trajectory x{traj_ratio:.1f} (~16)"
    )
    announce(4, "solver conservation + 4th order", ok, detail)
    assert tg_drift <= 1e-8
    assert drifts[2e-3] <= 1e-6 and drifts[1e-3] <= 1e-6
    assert energy_ratio >= 12.0
    assert 11.0 <= traj_ratio <= 24.0


def test_criterion_5_admissibility(tg_trajectory_256, random_drifts, grid256):
    reports = [admissibility_check(tg_trajectory_256, 1e-7)]
    _, _, u0 = random_drifts
    traj = solve(u0, 0.25, 1e-3, snapshot_stride=50)
    reports.append(admissibility_check(traj, 1e-7))
    ok = all(r.passed for r in reports)
    detail = "; ".join(f"max_violation {r.max_violation:.2e}" for r in reports)
    announce(5, "admissibility of resolved runs", ok, detail)
    for r in reports:
        assert r.passed


def test_criterion_6_weak_residuals():
    grid = make_grid(2, 128)
    traj = solve(taylor_green(grid, 1.0), 0.5, 1e-3, snapshot_stride=10)
    w1 = []
    w2 = []
    for i in range(10):
        window = cosine_window(0.5) if i % 2 == 0 else linear_window(0.5)
        psi = low_mode_divfree(grid, 3, seed=100 + i)
        w1.append(weak_residual(traj, WeakTestFunction(psi, window)))
        phi = low_mode_scalar(grid, 3, seed=200 + i)
        w2.append(weak_residual(traj, WeakTestFunction(phi, window)))
    ok = max(w1) <= 1e-6 and max(w2) <= 1e-10
    detail = f"max W1 {max(w1):.2e} <= 1e-6; max W2 {max(w2):.2e} <= 1e-10"
    announce(6, "weak-formulation residuals", ok, detail)
    assert max(w1) <= 1e-6
    assert max(w2) <= 1e-10


def test_criterion_7_lipschitz_oracle(grid256):
    profile = grid256.sample_scalar(lambda x, y: np.sin(np.pi * y))
    shear = shear_flow(grid256, profile)
    kernel = make_kernel(grid256, 4 * grid256.spacing)
    c_shear = one_sided_lipschitz(shear, kernel)
    shear_ok = abs(c_shear - np.pi / 2) <= 0.02 * np.pi / 2

    # the rotation (-x2, x1) has a constant antisymmetric gradient
    rotation = np.zeros((2, 2) + grid256.shape)
    rotation[0, 1], rotation[1, 0] = -1.0, 1.0
    c_rot = lipschitz_from_gradient(rotation)
    rot_ok = c_rot <= 1e-8

    doubled = VelocityField.from_arrays(
        grid256, [2.0 * c.values for c in shear.components]
    )
    halved = VelocityField.from_arrays(
        grid256, [0.5 * c.values for c in shear.components]
    )
    homog_ok = (
        one_sided_lipschitz(doubled, kernel) == 2.0 * c_shear
        and one_sided_lipschitz(halved, kernel) == 0.5 * c_shear
    )
    ok = shear_ok and rot_ok and homog_ok
    detail = (
        f"shear C {c_shear:.5f} (pi/2 within 2%); rotation C {c_rot:.1e} <= 1e-8; "
        f"homogeneity exact: {homog_ok}"
    )
    announce(7, "one-sided Lipschitz oracle", ok, detail)
    assert shear_ok and rot_ok and homog_ok


def test_criterion_8_certification_pipeline():
    u0 = taylor_green(make_grid(2, 256), 1.0)
    report = uniqueness_experiment(
        u0,
        RunConfig(128, 2e-3, 1.0, snapshot_stride=25),
        RunConfig(256, 1e-3, 1.0, snapshot_stride=50),
        alpha=0.6,
        p_int=3.0,
        epsilons=[0.25, 0.125, 0.0625, 0.03125],
        budget_route="convective",
    )
    pair_ok = max(report.energy) <= 1e-6 and report.verdict == "pass"

    ident = uniqueness_experiment(
        taylor_green(make_grid(2, 128), 1.0),
        RunConfig(128, 2e-3, 0.1, snapshot_stride=10),
        RunConfig(128, 2e-3, 0.1, snapshot_stride=10),
        alpha=0.6,
        p_int=3.0,
        epsilons=[0.25, 0.125, 0.0625, 0.03125],
    )
    ident_ok = all(e == 0.0 for e in ident.energy) and ident.verdict == "pass"
    ok = pair_ok and ident_ok
    detail = (
        f"128/256 pair: maxE {max(report.energy):.2e} <= 1e-6, verdict {report.verdict}; "
        f"identical pair: E == 0 everywhere is {ident_ok}"
    )
    announce(8, "relative-energy certification pipeline", ok, detail)
    assert pair_ok and ident_ok


def test_criterion_9_inhomogeneous_pipeline():
    fine = make_grid(2, 256)
    rho0 = fine.sample_scalar(
        lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x) * np.cos(np.pi * y)
    )
    u0 = taylor_green(fine, 1.0)
    a = inhom_solve(resample(rho0, make_grid(2, 128)), resample(u0, make_grid(2, 128)),
                    0.1, 2e-3, snapshot_stride=10)
    b = inhom_solve(rho0, u0, 0.1, 1e-3, snapshot_stride=20)
    contraction = density_contraction_check(a, b, 1e-5)

    # rho = 1 reduction against the homogeneous solver
    grid = make_grid(2, 128)
    u0h = random_divfree(grid, 3.0, seed=11)
    rho1 = grid.sample_scalar(lambda x, y: 1.0 + 0.0 * x)
    ti = inhom_solve(rho1, u0h, 0.2, 2e-3, snapshot_stride=50)
    th = solve(u0h, 0.2, 2e-3, snapshot_stride=50)
    red = max(
        np.max(np.abs(x.values - y.values))
        for x, y in zip(ti.final().velocity.components, th.final().velocity.components)
    )
    ok = contraction.passed and red <= 1e-8
    detail = (
        f"density contraction max_violation {contraction.max_violation:.2e} "
        f"(tol 1e-5), pass={contraction.passed}; rho=1 reduction {red:.2e} <= 1e-8"
    )
    announce(9, "variable-density pipeline", ok, detail)
    assert contraction.passed
    assert red <= 1e-8


def test_criterion_10_boussinesq_reductions():
    grid = make_grid(2, 128)
    u0 = random_divfree(grid, 3.0, seed=11)
    th_zero = grid.sample_scalar(lambda x, y: 0.0 * x)
    tb = boussinesq_solve(th_zero, u0, (0.0, -1.0), 0.05, 1e-3, snapshot_stride=10)
    te = solve(u0, 0.05, 1e-3, snapshot_stride=10)
    bitwise = all(
        np.array_equal(a.velocity.components[i].values, b.velocity.components[i].values)
        for a, b in zip(tb.states, te.states)
        for i in range(2)
    )

    th_sin = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
    tg0 = boussinesq_solve(th_sin, u0, (0.0, 0.0), 0.05, 1e-3, snapshot_stride=10)
    decouple = max(
        np.max(np.abs(a.velocity.components[i].values - b.velocity.components[i].values))
        for a, b in zip(tg0.states, te.states)
        for i in range(2)
    )

    zero_u = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
    duh = []
    for theta_fn in (lambda x, y: np.sin(np.pi * y), lambda x, y: np.sin(np.pi * x)):
        th0 = grid.sample_scalar(theta_fn)
        run = boussinesq_solve(th0, zero_u, (0.0, -1.0), 0.01, 1e-3, snapshot_stride=10)
        expect = leray_project(
            VelocityField.from_arrays(grid, [0.0 * th0.values, -0.01 * th0.values])
        )
        duh.append(
            max(
                np.max(np.abs(a.values - b.values))
                for a, b in zip(run.final().velocity.components, expect.components)
            )
        )
    ok = bitwise and decouple <= 1e-8 and max(duh) <= 1e-4
    detail = (
        f"theta=0 bitwise: {bitwise}; g=0 decoupling {decouple:.2e} <= 1e-8; "
        f"Duhamel errors {duh[0]:.2e}, {duh[1]:.2e} <= 1e-4"
    )
    announce(10, "Boussinesq reductions", ok, detail)
    assert bitwise
    assert decouple <= 1e-8
    assert max(duh) <= 1e-4


def test_criterion_11_determinism(tmp_path):
    from eulerlab.cli import run as cli_run

    config = """
[experiment]
kind = uniqueness
seed = 5

[grid]
n = 64

[synth]
kind = taylor_green

[solver]
dt = 2e-3
T = 0.02
snapshot_stride = 2

[sweep]
epsilons = 0.5 0.25 0.125 0.0625
alpha = 0.6
p = 3.0
"""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_run(cfg, output_dir=out1) == 0
    assert cli_run(cfg, output_dir=out2) == 0
    pairs = [
        (out1 / name, out2 / name)
        for name in ("report.json", "series.csv", "budgets.csv", "manifest.json")
    ]
    same = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    announce(11, "byte-identical reports on re-run", same,
             f"{len(pairs)} artifacts compared")
    assert same
