import numpy as np
import pytest

from eulerlab.errors import ConfigurationError, SolverAbort, StepSizeError
from eulerlab.grid_fields import (
    ScalarField,
    VelocityField,
    _dealiased_product,
    _max_speed,
    _squared_magnitude,
    curl_2d,
    gradient,
    lp_norm,
    make_grid,
    max_norm,
)
from eulerlab.solver import (
    RecordedStates,
    State,
    Trajectory,
    WeakTestFunction,
    admissibility_check,
    cosine_window,
    enstrophy,
    kinetic_energy,
    _biot_savart_velocity,
    _integrate_against,
    _rk4_stage,
    _Vorticity,
    recover_pressure,
    solve,
    steps_for_horizon,
    weak_residual,
    weak_residuals,
)
from eulerlab.extensions import boussinesq_solve, inhom_solve
from eulerlab.synth import (
    low_mode_divfree,
    low_mode_scalar,
    random_divfree,
    taylor_green,
    taylor_green_pressure,
)

from _utils import (
    FullLayoutVorticity,
    count_state_reads,
    full_layout_run,
    count_transforms,
    linear_window,
    random_band_limited_scalar,
    random_band_limited_velocity,
    traced_half_spectra,
)


SYSTEMS = ("solve", "inhom_solve", "boussinesq_solve")


def run_system(system, u0, T, dt, scalar=None, snapshot_stride=1):
    """Integrate ``u0`` with one of the three solvers; the extensions start
    from ``scalar``, by default unit density or zero temperature."""
    grid = u0.grid
    if system == "solve":
        return solve(u0, T, dt, snapshot_stride)
    if system == "inhom_solve":
        rho = scalar if scalar is not None else grid.sample_scalar(lambda x, y: 1.0 + 0.0 * x)
        return inhom_solve(rho, u0, T, dt, snapshot_stride)
    theta = scalar if scalar is not None else grid.sample_scalar(lambda x, y: 0.0 * x)
    return boussinesq_solve(theta, u0, (0.0, -1.0), T, dt, snapshot_stride)


def boosted_taylor_green(grid, U, t):
    """``U + TG(x - U t)``: the Galilean boost of the steady cell flow by the
    mean flow ``U``, an exact solution at time ``t``."""
    x, y = grid.meshgrid()
    a, b = np.pi * (x - U[0] * t), np.pi * (y - U[1] * t)
    return VelocityField.from_arrays(
        grid, [U[0] + np.sin(a) * np.cos(b), U[1] - np.cos(a) * np.sin(b)])


def constant_field(grid, value):
    return ScalarField(grid, np.full(grid.shape, value))


def conservative_tendency(grid, w_hat):
    """``-div(u w)`` in conservative form, five transforms: the oracle for
    the solver's stress form."""
    psi = -w_hat * grid.inv_k_squared
    u1 = grid.irfftn(-1j * grid.deriv_wavenumber(1) * psi)
    u2 = grid.irfftn(1j * grid.deriv_wavenumber(0) * psi)
    w = grid.irfftn(w_hat)
    f1 = _dealiased_product(grid, u1, w)
    f2 = _dealiased_product(grid, u2, w)
    return -(1j * grid.deriv_wavenumber(0) * f1 + 1j * grid.deriv_wavenumber(1) * f2)


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
        # omega depends on x2 only while u2 = 0: u1 u2 is zero and u1^2 has
        # no x1-modes, where the stress symbol k0 k1 lives, so the tendency
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

    def test_cfl_breach_between_snapshots_names_its_step(self):
        # From rest, theta = sin(pi x1) under g = (0, -G) drives the shear
        # u = (0, -G t sin(pi x1)), an exact solution whose speed is G t.
        # With dt = 0.01 on 32^2 the speed bound 0.5 h / dt = 3.125 is first
        # exceeded by the state at t = 0.04, which starts step 5; the only
        # snapshots are at t = 0 and T = 0.1.
        grid = make_grid(2, 32)
        theta = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        u0 = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
        with pytest.raises(StepSizeError) as err:
            boussinesq_solve(theta, u0, (0.0, -100.0), 0.1, 0.01, snapshot_stride=10)
        assert err.value.step == 5
        assert err.value.time == pytest.approx(0.04)
        assert "step 5 from t=0.04" in str(err.value)
        assert err.value.admissible_dt == pytest.approx(0.03125 / 4.0)

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


class TestStressForm:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_conservative_form(self, n):
        grid = make_grid(2, n)
        for seed in (1, 2):
            w_hat = random_band_limited_scalar(grid, grid.dealias_kmax, seed).hat
            expect = conservative_tendency(grid, w_hat)
            got, _ = _Vorticity(taylor_green(grid, 1.0)).advect(grid.to_band(w_hat))
            got = grid.from_band(got)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_zero_mode_exactly_zero(self):
        grid = make_grid(2, 64)
        w_hat = random_band_limited_scalar(grid, grid.dealias_kmax, 3).hat
        got, _ = _Vorticity(taylor_green(grid, 1.0)).advect(grid.to_band(w_hat))
        assert got[0, 0] == 0.0

    def test_velocity_and_speed(self):
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 2.0, seed=4)
        w_hat = grid.to_band(curl_2d(u0).hat)
        vort = _Vorticity(u0)
        _, (u1, u2) = vort.advect(w_hat)
        u = _biot_savart_velocity(grid, vort.biot_savart, w_hat)
        for a, b in zip((u1, u2), u.components):
            assert np.max(np.abs(a - b.values)) <= 1e-12 * max_norm(u)
        assert _max_speed((u1, u2)) == pytest.approx(u.max_speed(), rel=1e-12)
        # one square root, of the largest square: bitwise the max magnitude
        for w in (u0, u):
            speed = np.sqrt(_squared_magnitude([c.values for c in w.components]))
            assert w.max_speed() == float(speed.max())

    @pytest.mark.parametrize("system, per_stage", [("solve", 4), ("boussinesq_solve", 7)])
    def test_transforms_per_stage(self, monkeypatch, system, per_stage):
        # two horizons with the same two snapshots: the difference is the
        # stepping alone, 4 stages per step (the initial fields' spectra are
        # cached before counting, so both runs transform the same set-up)
        grid = make_grid(2, 32)
        u0 = random_divfree(grid, 2.0, seed=5)
        theta = random_band_limited_scalar(grid, 4, seed=6)
        for f in (theta, *u0.components):
            f.hat
        dt = 1e-3
        calls = count_transforms(monkeypatch)
        counts = []
        for n_steps in (2, 5):
            del calls[:]
            if system == "solve":
                solve(u0, n_steps * dt, dt, snapshot_stride=n_steps)
            else:
                boussinesq_solve(theta, u0, (0.0, -1.0), n_steps * dt, dt,
                                 snapshot_stride=n_steps)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 3 * 4 * per_stage

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("system", ["solve", "boussinesq_solve"])
    def test_band_state_matches_full_layout_oracle(self, system, n):
        # the solvers step the compressed dealias band; stepping whole
        # half-spectra through the same RK4 gives the same bits on the band
        # and zeros off it, and the states rebuilt from either agree
        grid = make_grid(2, n)
        u0 = random_divfree(grid, 2.0, seed=5)
        theta = random_band_limited_scalar(grid, 6, seed=6)
        g = (0.3, -1.0)
        dt, steps = 2e-3, 10
        if system == "solve":
            traj = solve(u0, steps * dt, dt)
            expect = full_layout_run(u0, dt, steps)
        else:
            traj = boussinesq_solve(theta, u0, g, steps * dt, dt)
            expect = full_layout_run(u0, dt, steps, theta, g)
        oracle = FullLayoutVorticity(u0)
        assert len(traj.states.hats) == len(expect) == steps + 1
        for k, (got, full) in enumerate(zip(traj.states.hats, expect)):
            for band, hat in zip(got, full, strict=True):
                assert band.shape == grid.band_shape
                assert np.array_equal(band, hat[grid.band_index])
                assert not np.any(hat[~grid.dealias_mask])
            state = traj.states[k]
            for c, u in zip(state.velocity.components, oracle.velocity(full[0])):
                assert np.array_equal(c.values, u)
            name = "vorticity" if system == "solve" else "theta"
            assert np.array_equal(state.scalars[name].values, grid.irfftn(full[-1]))

    def test_rk4_in_place_bitwise_textbook(self):
        gen = np.random.default_rng(7)

        def cplx(shape):
            return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

        ops = (cplx((8, 5)), cplx((8, 5)))
        hats = (cplx((8, 5)), cplx((8, 5)))
        kept = tuple(h.copy() for h in hats)
        dt = 0.3

        def rhs(hs, with_speed):
            return tuple(a * h for a, h in zip(ops, hs)), (2.5 if with_speed else None)

        def tendency(hs):
            return rhs(hs, False)[0]

        k1 = tendency(hats)
        k2 = tendency(tuple(h + (0.5 * dt) * k for h, k in zip(hats, k1)))
        k3 = tendency(tuple(h + (0.5 * dt) * k for h, k in zip(hats, k2)))
        k4 = tendency(tuple(h + dt * k for h, k in zip(hats, k3)))
        expect = tuple(h + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                       for h, a, b, c, d in zip(hats, k1, k2, k3, k4))
        got, speed = _rk4_stage(hats, dt, rhs)
        assert speed == 2.5
        for g, e, h, k in zip(got, expect, hats, kept):
            assert np.array_equal(g, e)
            assert np.array_equal(h, k)  # the step never writes its input


class TestSolve:
    def test_rejects_divergent_initial_data(self):
        grid = make_grid(2, 64)
        u0 = grid.sample_velocity(
            lambda x, y: np.sin(np.pi * x), lambda x, y: 0.0 * x
        )
        with pytest.raises(ConfigurationError, match="divergence-free"):
            solve(u0, 0.1, 1e-3)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_initial_data_rules(self, system):
        """Every solver rejects initial data on a grid that is not
        two-dimensional and a velocity that is not divergence-free, with one
        message per rule."""
        cube = make_grid(3, 8)
        at_rest = VelocityField.from_arrays(cube, [np.zeros(cube.shape)] * 3)
        with pytest.raises(ConfigurationError, match="support dims=2 only, got dims=3"):
            run_system(system, at_rest, 0.1, 0.05, scalar=constant_field(cube, 1.0))
        grid = make_grid(2, 32)
        divergent = grid.sample_velocity(lambda x, y: np.sin(np.pi * x), lambda x, y: 0.0 * x)
        with pytest.raises(ConfigurationError, match="^initial velocity is not divergence-free$"):
            run_system(system, divergent, 0.1, 0.05, scalar=constant_field(grid, 1.0))

    @pytest.mark.parametrize("system", SYSTEMS[1:])
    def test_initial_scalar_shares_the_grid(self, system):
        grid = make_grid(2, 32)
        with pytest.raises(ConfigurationError, match="^the initial fields must share a grid$"):
            run_system(system, taylor_green(grid, 1.0), 0.1, 0.05,
                       scalar=constant_field(make_grid(2, 16), 1.0))

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_boosted_taylor_green_is_exact(self, system):
        """The mean of u is conserved on the torus: the vorticity solvers carry
        it beside the vorticity, so the boosted cell flow stays exact, and the
        energy ledger starts at the kinetic energy of u0 (1.2, not the 1.0 of
        the vorticity's velocity alone)."""
        grid = make_grid(2, 64)
        U = (0.3, 0.1)
        u0 = boosted_taylor_green(grid, U, 0.0)
        traj = run_system(system, u0, 0.5, 2e-3, snapshot_stride=125)
        exact = boosted_taylor_green(grid, U, 0.5)
        got = traj.final().velocity
        assert max(np.abs(a.values - b.values).max()
                   for a, b in zip(got.components, exact.components)) <= 1e-10
        assert traj.energy_ledger[0] == kinetic_energy(u0)
        assert traj.energy_ledger[0] == pytest.approx(1.2, rel=1e-12)
        for s in traj.states:
            assert [c.mean() for c in s.velocity.components] == pytest.approx(U, abs=1e-14)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_mismatched_horizon(self, system):
        grid = make_grid(2, 64)
        tg = taylor_green(grid, 1.0)
        with pytest.raises(ConfigurationError, match="integer multiple"):
            run_system(system, tg, 0.0105, 1e-3)

    @pytest.mark.parametrize("T,dt,expected", [
        (0.02, 1e-3, 20), (0.0105, 1e-3, 0), (0.0, 1e-3, 0), (-0.02, 1e-3, 0),
        (1.0, 0.0, 0), (1.0, -0.5, 0), (-1.0, -0.5, 0),
        (float("inf"), 1e-3, 0), (float("nan"), 1e-3, 0), (1.0, float("nan"), 0),
        (1.0, float("inf"), 0), (float("inf"), float("inf"), 0),
    ])
    def test_steps_for_horizon(self, T, dt, expected):
        assert steps_for_horizon(T, dt) == expected

    def test_non_finite_horizon_or_step_rejected(self):
        """A non-finite ``T`` or ``dt`` is a configuration error, not an
        ``OverflowError`` or ``ValueError``."""
        tg = taylor_green(make_grid(2, 32), 1.0)
        with pytest.raises(ConfigurationError, match="T=inf must be a positive integer"):
            solve(tg, float("inf"), 1e-3)
        with pytest.raises(ConfigurationError, match="dt must be positive, got nan"):
            solve(tg, 0.01, float("nan"))

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


class TestRecordedStates:
    """A run records its integrator's spectral tuples and rebuilds each
    state from them when it is read."""

    @staticmethod
    def fields(state):
        return (*state.velocity.components, *state.scalars.values())

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_rereading_a_state_is_bitwise_equal(self, system):
        grid = make_grid(2, 32)
        traj = run_system(system, random_divfree(grid, 2.0, seed=3), 0.02, 1e-3)
        for i in (0, len(traj.states) // 2, -1):
            first, again = traj.states[i], traj.states[i]
            assert first.time == again.time == traj.times[i]
            for a, b in zip(self.fields(first), self.fields(again), strict=True):
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.hat, b.hat)

    @pytest.mark.parametrize("system, arrays", [
        ("solve", 1), ("inhom_solve", 3), ("boussinesq_solve", 2)])
    def test_recorded_arrays_are_read_only(self, system, arrays):
        grid = make_grid(2, 32)
        traj = run_system(system, random_divfree(grid, 2.0, seed=3), 0.02, 1e-3)
        assert isinstance(traj.states, RecordedStates)
        assert len(traj.states.hats) == len(traj.times)
        for hats in traj.states.hats:
            assert len(hats) == arrays
            assert not any(h.flags.writeable for h in hats)
        with pytest.raises(TypeError):
            traj.states[0] = traj.states[0]

    def test_metadata_rebuilds_nothing(self, monkeypatch):
        grid = make_grid(2, 32)
        traj = solve(random_divfree(grid, 2.0, seed=3), 0.02, 1e-3, snapshot_stride=5)
        calls = count_transforms(monkeypatch)
        assert traj.times == [0.0, 0.005, 0.01, 0.015, 0.02]
        assert traj.grid == grid
        assert len(traj.states) == 5
        assert traj.energy_drift() >= 0.0
        Trajectory(traj.states, traj.dt, traj.config, traj.energy_ledger)
        assert calls == []

    @staticmethod
    def band(grid):
        """One compressed dealias band in units of a half-spectrum (0.448 at 64^2)."""
        return np.prod(grid.band_shape) / np.prod(grid.rshape)

    def test_solve_holds_its_spectra(self):
        # S recorded band vorticity spectra and the two band Biot-Savart
        # symbols, with half a band of slack (held 8.24 bands); the samples
        # and cached spectra of S materialized states held 35.7
        # half-spectra, S full-layout spectra alone 2.2 S bands, and the
        # solve's work arrays about 17 bands
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 2.0, seed=3)
        for c in u0.components:
            c.hat  # the cached spectra are inputs, not the run's
        traj, held, _ = traced_half_spectra(
            grid, lambda: solve(u0, 0.05, 0.005, snapshot_stride=2))
        assert len(traj.states) == 6
        assert held <= (len(traj.states) + 2 + 0.5) * self.band(grid)

    @pytest.mark.parametrize("system, arrays", [("solve", 1), ("boussinesq_solve", 2)])
    def test_vorticity_run_holds_its_spectra_and_biot_savart(self, system, arrays):
        # the recorded band spectra, the two band Biot-Savart symbols and
        # half a band of slack: holding the real stress symbols as well
        # (one band), or the solve's work arrays, breaks the bound
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 2.0, seed=3)
        theta = constant_field(grid, 0.0)
        for c in (theta, *u0.components):
            c.hat  # the cached spectra are inputs, not the run's
        traj, held, _ = traced_half_spectra(
            grid, lambda: run_system(system, u0, 0.01, 0.005, scalar=theta))
        assert len(traj.states) == 3
        assert held <= (arrays * len(traj.states) + 2 + 0.5) * self.band(grid)

    def test_density_loss_aborts_at_its_snapshot(self):
        # a shear flow needs no pressure and folds cos(pi x1) until the
        # truncated density undershoots; the check runs as states are recorded
        grid = make_grid(2, 16)
        rho = grid.sample_scalar(lambda x, y: 1.0 + 0.95 * np.cos(np.pi * x))
        u0 = grid.sample_velocity(lambda x, y: np.sin(np.pi * y), lambda x, y: 0.0 * x)
        with pytest.raises(SolverAbort) as err:
            inhom_solve(rho, u0, 2.0, 0.02, snapshot_stride=5)
        assert err.value.time == 1.3
        assert "density lost positivity at t=1.3" in str(err.value)


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

    def test_one_pass_for_all_tests(self, monkeypatch):
        traj = self.make_traj(n=64, T=0.05, stride=10)
        grid = traj.grid
        tests = []
        for seed in range(3):
            tests.append(WeakTestFunction(
                random_band_limited_velocity(grid, 3, seed=seed, divfree=True),
                cosine_window(0.05)))
            tests.append(WeakTestFunction(
                random_band_limited_scalar(grid, 3, seed=seed), linear_window(0.05)))
        one_at_a_time = [weak_residual(traj, t) for t in tests]
        reads = count_state_reads(monkeypatch)
        assert weak_residuals(traj, iter(tests)) == one_at_a_time
        assert [i for _, i, _ in reads] == list(range(len(traj.states)))

    @staticmethod
    def physical_oracle(traj, tests):
        """The weak residuals by grid Riemann sums of the samples against the
        tests' sampled fields and spectral gradients."""
        grid, times, vol = traj.grid, traj.times, traj.grid.cell_volume
        velocities = [[c.values for c in s.velocity.components] for s in traj.states]
        out = []
        for test in tests:
            g = test.temporal
            if isinstance(test.spatial, VelocityField):
                psi = [c.values for c in test.spatial.components]
                grad = [[d.values for d in gradient(c).components] for c in test.spatial.components]
                momentum = [sum(np.sum(a * b) for a, b in zip(u, psi)) * vol for u in velocities]
                transport = [sum(np.sum(u[i] * u[j] * grad[i][j]) for i in range(2)
                                 for j in range(2)) * vol for u in velocities]
                integral = (_integrate_against(momentum, times, g, "derivative")
                            + _integrate_against(transport, times, g, "value"))
                boundary = momentum[-1] * g.value(times[-1]) - momentum[0] * g.value(times[0])
                out.append(abs(integral - boundary))
            else:
                grad_phi = [d.values for d in gradient(test.spatial).components]
                vals = [sum(np.sum(a * b) for a, b in zip(u, grad_phi)) * vol
                        for u in velocities]
                out.append(abs(_integrate_against(vals, times, g, "value")))
        return out

    @staticmethod
    def dynamic_tests(grid, T, count):
        for i in range(count):
            yield WeakTestFunction(low_mode_divfree(grid, 3, seed=1003 + i), cosine_window(T))
            yield WeakTestFunction(low_mode_scalar(grid, 3, seed=2003 + i), cosine_window(T))

    def test_band_pairings_match_physical_sums(self):
        # real dynamics, so the momentum residual is well above round-off
        grid = make_grid(2, 128)
        traj = solve(random_divfree(grid, slope=2.0, seed=3), 0.1, 1e-3, snapshot_stride=5)
        tests = list(self.dynamic_tests(grid, 0.1, 4))
        spectral = weak_residuals(traj, tests)
        oracle = self.physical_oracle(traj, tests)
        assert max(spectral[::2]) > 1e-6
        for a, b in zip(spectral, oracle):
            assert abs(a - b) <= 1e-15

    def test_peak_memory_follows_tests_not_snapshots(self):
        """The audit holds the tests' band spectra and one state at a time:
        its peak does not grow from 5 to 20 snapshots (holding every
        state's velocity samples would add about 30 half-spectra), and it
        grows with the number of tests."""
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, slope=2.0, seed=3)
        few, many = (solve(u0, 0.038, 1e-3, snapshot_stride=s) for s in (10, 2))
        assert (len(few.states), len(many.states)) == (5, 20)

        def peak(traj, count):
            return traced_half_spectra(
                grid, lambda: weak_residuals(traj, self.dynamic_tests(grid, 0.038, count)))[2]

        assert abs(peak(many, 4) - peak(few, 4)) < 1.0
        assert peak(few, 16) - peak(few, 4) > 5.0

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
