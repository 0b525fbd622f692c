import numpy as np
import pytest

from eulerlab.errors import ConfigurationError, SolverAbort, StepSizeError
from eulerlab.grid_fields import (
    ScalarField,
    VelocityField,
    curl_2d,
    lp_norm,
    make_grid,
    max_norm,
)
from eulerlab.solver import (
    State,
    Trajectory,
    WeakTestFunction,
    admissibility_check,
    cosine_window,
    enstrophy,
    kinetic_energy,
    linear_window,
    recover_pressure,
    solve,
    weak_residual,
)
from eulerlab.extensions import boussinesq_solve, inhom_solve
from eulerlab.synth import taylor_green, taylor_green_pressure, random_divfree

from _utils import count_transforms, random_band_limited_scalar, random_band_limited_velocity


SYSTEMS = ("solve", "inhom_solve", "boussinesq_solve")


def run_system(system, u0, T, dt, scalar=None):
    """Integrate ``u0`` with one of the three solvers; the extensions start
    from ``scalar``, by default unit density or zero temperature."""
    grid = u0.grid
    if system == "solve":
        return solve(u0, T, dt)
    if system == "inhom_solve":
        rho = scalar if scalar is not None else grid.sample_scalar(lambda x, y: 1.0 + 0.0 * x)
        return inhom_solve(rho, u0, T, dt)
    theta = scalar if scalar is not None else grid.sample_scalar(lambda x, y: 0.0 * x)
    return boussinesq_solve(theta, u0, (0.0, -1.0), T, dt)


def velocity_l2_diff(a, b):
    return lp_norm(
        VelocityField.from_arrays(
            a.grid, [x.values - y.values for x, y in zip(a.components, b.components)]
        ),
        2.0,
    )


class TestStep:
    def test_zero_field_stays_zero(self):
        grid = make_grid(2, 64)
        u0 = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
        traj = solve(u0, 0.1, 0.05)
        assert all(max_norm(s.velocity) == 0.0 for s in traj.states)

    def test_taylor_green_steady(self):
        grid = make_grid(2, 128)
        tg = taylor_green(grid, 1.0)
        traj = solve(tg, 0.1, 1e-3, snapshot_stride=100)
        # exact steady solution: drift per unit time below 1e-8
        assert velocity_l2_diff(traj.final().velocity, tg) <= 1e-9

    def test_shear_flow_steady_exactly(self):
        # omega depends on x2 only while u2 = 0, so the conservative tendency
        # vanishes identically and the spectral state never changes.
        grid = make_grid(2, 64)
        u0 = grid.sample_velocity(
            lambda x, y: np.sin(np.pi * y), lambda x, y: 0.0 * x
        )
        state = solve(u0, 0.05, 0.005, snapshot_stride=1).states
        w0 = state[0].scalars["vorticity"].values
        for s in state[1:]:
            assert np.array_equal(s.scalars["vorticity"].values, w0)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_cfl_violation(self, system):
        grid = make_grid(2, 64)
        tg = taylor_green(grid, 1.0)
        with pytest.raises(StepSizeError) as err:
            run_system(system, tg, 1.0, 0.5)
        assert err.value.admissible_dt <= 0.5 * grid.spacing

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_nan_abort(self, system):
        grid = make_grid(2, 64)
        if system == "inhom_solve":
            # A shear flow has no pressure, so the overflow of rho*u in the
            # density transport aborts; test_pressure_solve covers vortex data.
            u0 = grid.sample_velocity(
                lambda x, y: 1e7 * np.sin(np.pi * y), lambda x, y: 0.0 * x
            )
            rho = grid.sample_scalar(lambda x, y: 1e300 * (1.0 + 0.5 * np.sin(np.pi * x)))
            T, dt = 2e-9, 1e-9
        else:
            # |u|^2 stays finite (CFL check passes) but u*omega overflows
            # inside the first tendency evaluation.
            big = 1.2e154
            u0 = grid.sample_velocity(
                lambda x, y: big * np.sin(np.pi * x) * np.cos(np.pi * y),
                lambda x, y: -big * np.cos(np.pi * x) * np.sin(np.pi * y),
            )
            rho = None
            T, dt = 2e-160, 1e-160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverAbort) as err:
                run_system(system, u0, T, dt, scalar=rho)
        assert err.value.time == dt


class TestSolve:
    def test_rejects_divergent_initial_data(self):
        grid = make_grid(2, 64)
        u0 = grid.sample_velocity(
            lambda x, y: np.sin(np.pi * x), lambda x, y: 0.0 * x
        )
        with pytest.raises(ConfigurationError, match="divergence-free"):
            solve(u0, 0.1, 1e-3)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_mismatched_horizon(self, system):
        grid = make_grid(2, 64)
        tg = taylor_green(grid, 1.0)
        with pytest.raises(ConfigurationError, match="integer multiple"):
            run_system(system, tg, 0.0105, 1e-3)

    def test_snapshot_cadence_and_ledger(self):
        grid = make_grid(2, 64)
        tg = taylor_green(grid, 0.5)
        traj = solve(tg, 0.02, 1e-3, snapshot_stride=5)
        assert traj.times == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02])
        assert len(traj.energy_ledger) == len(traj.states)

    def test_deterministic_rerun(self):
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 2.5, seed=3)
        a = solve(u0, 0.02, 1e-3, snapshot_stride=10)
        b = solve(u0, 0.02, 1e-3, snapshot_stride=10)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.scalars["vorticity"].values,
                                  sb.scalars["vorticity"].values)

    def test_energy_and_enstrophy_conservation(self):
        grid = make_grid(2, 128)
        u0 = random_divfree(grid, 3.0, seed=7)
        traj = solve(u0, 0.1, 1e-3, snapshot_stride=25)
        e = traj.energy_ledger
        assert abs(e[-1] - e[0]) / e[0] <= 1e-6
        ens = [enstrophy(s.scalars["vorticity"]) for s in traj.states]
        assert abs(ens[-1] - ens[0]) / ens[0] <= 1e-5

    def test_vorticity_mean_conserved(self):
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 2.0, seed=9)
        traj = solve(u0, 0.02, 1e-3, snapshot_stride=4)
        means = [s.scalars["vorticity"].mean() for s in traj.states]
        assert max(abs(m - means[0]) for m in means) <= 1e-12

    def test_velocity_state_invariants(self):
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 2.0, seed=11)
        traj = solve(u0, 0.01, 1e-3, snapshot_stride=5)
        for s in traj.states:
            assert s.velocity.check_divergence_free()
            w = s.scalars["vorticity"]
            assert np.max(np.abs(curl_2d(s.velocity).values - w.values)) <= 1e-10 * max(
                1.0, max_norm(w)
            )
            assert abs(recover_pressure(s.velocity).mean()) <= 1e-13


class TestRecoverPressure:
    def test_constant_velocity(self):
        grid = make_grid(2, 64)
        u = VelocityField.from_arrays(
            grid, [np.full(grid.shape, 2.0), np.full(grid.shape, -1.0)]
        )
        assert max_norm(recover_pressure(u)) <= 1e-13

    def test_taylor_green_analytic(self):
        # hand derivation: grad p = -(u.grad)u = -(A^2 pi/2)(sin 2pi x1, sin 2pi x2)
        grid = make_grid(2, 128)
        tg = taylor_green(grid, 1.0)
        p = recover_pressure(tg)
        expect = taylor_green_pressure(grid, 1.0)
        assert np.max(np.abs(p.values - expect.values)) <= 1e-10

    def test_invariant_under_constant_shift(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=13, divfree=True)
        shifted = VelocityField.from_arrays(
            grid, [u.components[0].values + 3.0, u.components[1].values - 2.0]
        )
        a = recover_pressure(u)
        b = recover_pressure(shifted)
        assert np.max(np.abs(a.values - b.values)) <= 1e-11

    def test_one_transform_per_unordered_product(self, monkeypatch):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=14, divfree=True)
        # the ordered-pair loop it replaces, as the oracle
        acc = np.zeros(grid.rshape, dtype=complex)
        for i in range(grid.dims):
            ki = grid.deriv_wavenumber(i)
            for j in range(grid.dims):
                kj = grid.deriv_wavenumber(j)
                t_hat = grid.rfftn(u.components[i].values * u.components[j].values)
                t_hat *= grid.dealias_mask
                acc = acc + ki * kj * t_hat
        expect = grid.irfftn(-acc * grid.inv_k_squared)
        calls = count_transforms(monkeypatch)
        p = recover_pressure(u)
        assert len(calls) == 4  # 3 products + 1 inverse
        assert np.array_equal(p.values, expect)


class TestAdmissibility:
    def test_zero_trajectory_passes(self):
        grid = make_grid(2, 64)
        u0 = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
        traj = solve(u0, 0.01, 5e-3)
        report = admissibility_check(traj, 1e-7)
        assert report.passed and report.max_violation == 0.0

    def test_taylor_green_passes(self):
        grid = make_grid(2, 128)
        tg = taylor_green(grid, 1.0)
        traj = solve(tg, 0.05, 1e-3, snapshot_stride=10)
        assert admissibility_check(traj, 1e-7).passed

    def test_constructed_violation_fails(self):
        grid = make_grid(2, 64)
        tg = taylor_green(grid, 1.0)
        traj = solve(tg, 0.02, 1e-3, snapshot_stride=5)
        doctored = Trajectory(
            traj.states, traj.dt, traj.config,
            [e + 0.1 * i for i, e in enumerate(traj.energy_ledger)],
        )
        report = admissibility_check(doctored, 1e-7)
        assert not report.passed
        assert report.worst_pair == (0.0, doctored.times[-1])
        assert report.max_violation == pytest.approx(0.1 * (len(traj.states) - 1))


class TestWeakResidual:
    def make_traj(self, n=128, T=0.2, dt=1e-3, stride=10, amplitude=1.0):
        grid = make_grid(2, n)
        return solve(taylor_green(grid, amplitude), T, dt, snapshot_stride=stride)

    def test_zero_trajectory(self):
        grid = make_grid(2, 64)
        u0 = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
        traj = solve(u0, 0.01, 5e-3)
        psi = random_band_limited_velocity(grid, 3, seed=1, divfree=True)
        assert weak_residual(traj, WeakTestFunction(psi, cosine_window(0.01))) == 0.0

    def test_taylor_green_momentum_residual(self):
        traj = self.make_traj()
        grid = traj.grid
        for seed, window in ((1, cosine_window(0.2)), (2, linear_window(0.2))):
            psi = random_band_limited_velocity(grid, 3, seed=seed, divfree=True)
            r = weak_residual(traj, WeakTestFunction(psi, window))
            assert r <= 1e-6

    def test_divergence_identity_residual(self):
        traj = self.make_traj()
        grid = traj.grid
        phi = random_band_limited_scalar(grid, 3, seed=3)
        r = weak_residual(traj, WeakTestFunction(phi, cosine_window(0.2)))
        assert r <= 1e-10

    def test_synthetic_linear_data_is_exact(self):
        # u(t) = (1 + b t) u0 makes every pairing linear/quadratic in t; the
        # momentum defect then has a closed form in the profile integrals.
        grid = make_grid(2, 32)
        u0 = random_band_limited_velocity(grid, 3, seed=4, divfree=True)
        states = []
        times = [0.0, 0.05, 0.1, 0.2]
        for t in times:
            scale = 1.0 + 0.5 * t
            u = VelocityField.from_arrays(grid, [scale * c.values for c in u0.components])
            states.append(State(t, u, {"vorticity": curl_2d(u)}))
        traj = Trajectory(states, 0.05, {}, [kinetic_energy(s.velocity) for s in states])
        phi = random_band_limited_scalar(grid, 3, seed=5)
        g = linear_window(0.2)
        r = weak_residual(traj, WeakTestFunction(phi, g))
        # velocity is divergence-free so the transport pairing vanishes
        assert r <= 1e-12

    def test_rejects_bad_test_functions(self):
        grid = make_grid(2, 64)
        not_divfree = grid.sample_velocity(
            lambda x, y: np.sin(np.pi * x), lambda x, y: 0.0 * x
        )
        with pytest.raises(ConfigurationError, match="divergence-free"):
            WeakTestFunction(not_divfree, cosine_window(1.0))
        rough = ScalarField(grid, np.random.default_rng(0).standard_normal(grid.shape))
        with pytest.raises(ConfigurationError, match="band-limited"):
            WeakTestFunction(rough, cosine_window(1.0))
        smooth = random_band_limited_scalar(grid, 3, seed=6)
        bad_profile = cosine_window(1.0)
        from eulerlab.solver import TimeProfile

        never_zero = TimeProfile(
            value=lambda t: 1.0,
            antiderivative=lambda t: t,
            antiderivative2=lambda t: t * t / 2,
            horizon=1.0,
        )
        with pytest.raises(ConfigurationError, match="vanish"):
            WeakTestFunction(smooth, never_zero)
