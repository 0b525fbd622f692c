import numpy as np
import pytest

import eulerlab.extensions
from eulerlab.errors import ConfigurationError
from eulerlab.grid_fields import (
    ScalarField,
    VelocityField,
    leray_project,
    lp_norm,
    make_grid,
    max_norm,
)
from eulerlab.extensions import (
    boussinesq_solve,
    boussinesq_uniqueness_experiment,
    density_contraction_check,
    inhom_solve,
    inhom_uniqueness_experiment,
    transport_step,
)
from eulerlab.solver import solve
from eulerlab.synth import random_divfree, taylor_green
from eulerlab.uniqueness import RunConfig


def zero_velocity(grid):
    return VelocityField.from_arrays(
        grid, [np.zeros(grid.shape)] * 2, divergence_free=True
    )


def smooth_density(grid, amp=0.2):
    return grid.sample_scalar(
        lambda x, y: 1.0 + amp * np.sin(np.pi * x) * np.cos(np.pi * y)
    )


class TestTransportStep:
    def test_constant_density_unchanged(self):
        grid = make_grid(2, 64)
        rho = grid.sample_scalar(lambda x, y: 2.0 + 0.0 * x)
        u = random_divfree(grid, 3.0, seed=1)
        out = transport_step(rho, u, 1e-3)
        assert np.max(np.abs(out.values - 2.0)) <= 1e-13

    def test_zero_velocity_unchanged(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid)
        out = transport_step(rho, zero_velocity(grid), 1e-3)
        assert np.max(np.abs(out.values - rho.values)) <= 1e-13

    def test_against_characteristics(self):
        # u = (0, A sin(pi x)) has vertical characteristics of constant speed
        # per column: rho(t, x, y) = rho0(x, y - t A sin(pi x)).
        grid = make_grid(2, 256)
        A = 0.5
        u = VelocityField(
            grid.sample_velocity(
                lambda x, y: 0.0 * x, lambda x, y: A * np.sin(np.pi * x)
            ).components,
            divergence_free=True,
        )
        rho = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        dt, nsteps = 1e-3, 250
        for _ in range(nsteps):
            rho = transport_step(rho, u, dt)
        x, y = grid.meshgrid()
        oracle = np.sin(np.pi * (y - nsteps * dt * A * np.sin(np.pi * x)))
        assert np.max(np.abs(rho.values - oracle)) <= 1e-6

    def test_steady_when_density_constant_along_flow(self):
        grid = make_grid(2, 64)
        u = VelocityField(
            grid.sample_velocity(
                lambda x, y: 0.0 * x, lambda x, y: np.sin(np.pi * x)
            ).components,
            divergence_free=True,
        )
        rho = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        out = transport_step(rho, u, 1e-3)
        assert np.max(np.abs(out.values - rho.values)) <= 1e-12

    def test_conserves_mass_exactly(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid, 0.5)
        u = random_divfree(grid, 2.5, seed=3)
        total = rho.values.sum() * grid.cell_volume
        for _ in range(20):
            rho = transport_step(rho, u, 1e-3)
        assert abs(rho.values.sum() * grid.cell_volume - total) <= 1e-12

    def test_l2_near_isometry(self):
        grid = make_grid(2, 256)
        rho = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        u = random_divfree(grid, 3.0, seed=5)
        n0 = lp_norm(rho, 2.0)
        for _ in range(100):
            rho = transport_step(rho, u, 1e-3)
        assert abs(lp_norm(rho, 2.0) - n0) / n0 <= 1e-6


class TestInhomSolve:
    def test_uniform_density_reduces_to_homogeneous(self):
        grid = make_grid(2, 128)
        u0 = random_divfree(grid, 3.0, seed=11)
        rho1 = grid.sample_scalar(lambda x, y: 1.0 + 0.0 * x)
        ti = inhom_solve(rho1, u0, 0.1, 2e-3, snapshot_stride=50)
        th = solve(u0, 0.1, 2e-3, snapshot_stride=50)
        for a, b in zip(ti.final().velocity.components, th.final().velocity.components):
            assert np.max(np.abs(a.values - b.values)) <= 1e-8

    def test_static_state(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid)
        traj = inhom_solve(rho, zero_velocity(grid), 0.05, 0.01)
        assert max_norm(traj.final().velocity) <= 1e-13
        assert np.max(np.abs(traj.final().density.values - rho.values)) <= 1e-13

    def test_mass_conserved(self):
        grid = make_grid(2, 128)
        rho = smooth_density(grid)
        u0 = random_divfree(grid, 3.0, seed=7)
        traj = inhom_solve(rho, u0, 0.1, 1e-3, snapshot_stride=50)
        m = traj.ledgers["mass"]
        assert abs(m[-1] - m[0]) / m[0] <= 1e-8

    def test_velocity_stays_divergence_free(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid, 0.4)
        u0 = random_divfree(grid, 2.5, seed=9)
        traj = inhom_solve(rho, u0, 0.02, 1e-3, snapshot_stride=10)
        for s in traj.states:
            assert s.velocity.check_divergence_free()

    def test_rejects_nonpositive_density(self):
        grid = make_grid(2, 64)
        rho = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        with pytest.raises(ConfigurationError, match="positive"):
            inhom_solve(rho, zero_velocity(grid), 0.01, 1e-3)

    def test_weighted_energy_admissible(self):
        grid = make_grid(2, 128)
        rho = smooth_density(grid)
        u0 = random_divfree(grid, 3.0, seed=13)
        traj = inhom_solve(rho, u0, 0.05, 1e-3, snapshot_stride=25)
        e = traj.energy_ledger
        assert abs(e[-1] - e[0]) / e[0] <= 1e-8


class TestDensityContraction:
    def test_identical_runs_all_zero(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid)
        u0 = random_divfree(grid, 3.0, seed=15)
        a = inhom_solve(rho, u0, 0.02, 1e-3, snapshot_stride=10)
        b = inhom_solve(rho, u0, 0.02, 1e-3, snapshot_stride=10)
        report = density_contraction_check(a, b, 1e-5)
        assert report.passed
        assert all(v == 0.0 for v in report.values)

    def test_resolution_pair_passes(self):
        coarse = make_grid(2, 64)
        fine = make_grid(2, 128)
        u0f = random_divfree(fine, 3.5, seed=17)
        rhof = smooth_density(fine)
        from eulerlab.grid_fields import resample

        a = inhom_solve(resample(rhof, coarse), resample(u0f, coarse), 0.05, 1e-3,
                        snapshot_stride=25)
        b = inhom_solve(rhof, u0f, 0.05, 1e-3, snapshot_stride=25)
        report = density_contraction_check(a, b, 1e-5)
        assert report.passed

    def test_constructed_violation_fails(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid)
        u0 = random_divfree(grid, 3.0, seed=19)
        a = inhom_solve(rho, u0, 0.02, 1e-3, snapshot_stride=10)
        b = inhom_solve(rho, u0, 0.02, 1e-3, snapshot_stride=10)
        # perturb the later densities of one run
        for i, s in enumerate(b.states):
            if i > 0:
                bad = s.density.values + 0.01 * i
                b.states[i] = type(s)(s.time, ScalarField(grid, bad), s.velocity)
        report = density_contraction_check(a, b, 1e-7)
        assert not report.passed
        assert report.worst_pair is not None
        assert report.worst_pair[0] == 0.0


class TestBoussinesq:
    def test_zero_theta_matches_homogeneous_bitwise(self):
        grid = make_grid(2, 128)
        u0 = random_divfree(grid, 3.0, seed=11)
        th0 = grid.sample_scalar(lambda x, y: 0.0 * x)
        tb = boussinesq_solve(th0, u0, (0.0, -1.0), 0.05, 1e-3, snapshot_stride=25)
        te = solve(u0, 0.05, 1e-3, snapshot_stride=25)
        for a, b in zip(tb.states, te.states):
            for ca, cb in zip(a.velocity.components, b.velocity.components):
                assert np.array_equal(ca.values, cb.values)

    def test_zero_gravity_decouples(self):
        grid = make_grid(2, 128)
        u0 = random_divfree(grid, 3.0, seed=11)
        th0 = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        tb = boussinesq_solve(th0, u0, (0.0, 0.0), 0.05, 1e-3, snapshot_stride=25)
        te = solve(u0, 0.05, 1e-3, snapshot_stride=25)
        for a, b in zip(tb.states, te.states):
            for ca, cb in zip(a.velocity.components, b.velocity.components):
                assert np.max(np.abs(ca.values - cb.values)) <= 1e-8

    def test_theta_total_conserved(self):
        grid = make_grid(2, 128)
        u0 = random_divfree(grid, 3.0, seed=21)
        th0 = grid.sample_scalar(lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x))
        tb = boussinesq_solve(th0, u0, (0.0, -1.0), 0.05, 1e-3, snapshot_stride=25)
        led = tb.ledgers["theta"]
        assert abs(led[-1] - led[0]) / abs(led[0]) <= 1e-8

    def test_duhamel_short_time(self):
        # from rest, u(t) = t * P(theta0 g) + O(t^3)
        grid = make_grid(2, 128)
        th0 = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        tb = boussinesq_solve(th0, zero_velocity(grid), (0.0, -1.0), 0.01, 1e-3,
                              snapshot_stride=10)
        expect = leray_project(
            VelocityField.from_arrays(grid, [0.0 * th0.values, -0.01 * th0.values])
        )
        for a, b in zip(tb.final().velocity.components, expect.components):
            assert np.max(np.abs(a.values - b.values)) <= 1e-4

    def test_duhamel_gradient_forcing_stays_at_rest(self):
        # theta0 g a pure gradient: the projected force vanishes and the flow
        # never starts.
        grid = make_grid(2, 64)
        th0 = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        tb = boussinesq_solve(th0, zero_velocity(grid), (0.0, -1.0), 0.01, 1e-3,
                              snapshot_stride=10)
        assert max_norm(tb.final().velocity) <= 1e-4


class TestExtendedExperiments:
    def test_inhom_identical_configs(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid)
        u0 = taylor_green(grid, 0.8)
        cfg = RunConfig(64, 2e-3, 0.05, snapshot_stride=5)
        report = inhom_uniqueness_experiment(
            rho, u0, cfg, cfg, alpha=0.6, p_int=3.0,
            epsilons=[0.5, 0.25, 0.125, 0.0625],
        )
        assert all(e == 0.0 for e in report.energy)
        assert all(v == 0.0 for v in report.contraction.values)
        assert report.verdict in ("pass", "hypothesis-not-met")

    def test_boussinesq_theta_zero_reduces(self):
        grid = make_grid(2, 64)
        th0 = grid.sample_scalar(lambda x, y: 0.0 * x)
        u0 = taylor_green(grid, 0.8)
        cfg_a = RunConfig(64, 2e-3, 0.05, snapshot_stride=5)
        cfg_b = RunConfig(64, 2e-3, 0.05, snapshot_stride=5)
        report = boussinesq_uniqueness_experiment(
            th0, u0, (0.0, -1.0), cfg_a, cfg_b, alpha=0.6, p_int=3.0,
            epsilons=[0.5, 0.25, 0.125, 0.0625],
        )
        assert all(e == 0.0 for e in report.energy)
        assert report.contraction.passed

    def test_boussinesq_resolution_pair(self):
        fine = make_grid(2, 128)
        th0 = fine.sample_scalar(lambda x, y: 0.2 * np.sin(np.pi * x))
        u0 = taylor_green(fine, 0.5)
        cfg_a = RunConfig(64, 2e-3, 0.05, snapshot_stride=5)
        cfg_b = RunConfig(128, 1e-3, 0.05, snapshot_stride=10)
        report = boussinesq_uniqueness_experiment(
            th0, u0, (0.0, -1.0), cfg_a, cfg_b, alpha=0.6, p_int=3.0,
            epsilons=[0.25, 0.125, 0.0625, 0.03125],
            contraction_tolerance=1e-5,
        )
        assert report.contraction.passed
        assert max(report.energy) <= 1e-5

    def test_empty_sweep_rejected_before_solving(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a pair with an empty sweep")

        monkeypatch.setattr(eulerlab.extensions, "run_pair", no_solve)
        grid = make_grid(2, 64)
        u0 = taylor_green(grid, 0.8)
        cfg = RunConfig(64, 2e-3, 0.004)
        with pytest.raises(ConfigurationError, match="epsilon"):
            inhom_uniqueness_experiment(
                smooth_density(grid), u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=[]
            )
        with pytest.raises(ConfigurationError, match="epsilon"):
            boussinesq_uniqueness_experiment(
                grid.sample_scalar(lambda x, y: 0.0 * x), u0, (0.0, -1.0), cfg, cfg,
                alpha=0.6, p_int=3.0, epsilons=[],
            )
