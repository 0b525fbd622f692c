import numpy as np
import pytest

import eulerlab.extensions
from eulerlab.errors import ConfigurationError
from eulerlab.commutator import transport_commutator
from eulerlab.grid_fields import (
    ScalarField,
    VelocityField,
    gradient,
    inner,
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
)
from eulerlab.mollify import make_kernel, resolved_epsilon
from eulerlab.solver import State, Trajectory, admissibility_check, solve
from eulerlab.synth import random_divfree, taylor_green
from eulerlab.uniqueness import RunConfig

from _utils import count_transforms


def zero_velocity(grid):
    return VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)


def smooth_density(grid, amp=0.2):
    return grid.sample_scalar(
        lambda x, y: 1.0 + amp * np.sin(np.pi * x) * np.cos(np.pi * y)
    )


class TestTransportStep:
    """The density equation ``d(rho)/dt = -div(rho u)`` of ``inhom_solve``
    against transport oracles; every velocity here is divergence-free."""

    @staticmethod
    def density_after(rho, u, dt, steps):
        traj = inhom_solve(rho, u, steps * dt, dt, snapshot_stride=steps)
        return traj.final().scalars["density"]

    def test_constant_density_unchanged(self):
        grid = make_grid(2, 64)
        rho = grid.sample_scalar(lambda x, y: 2.0 + 0.0 * x)
        u = random_divfree(grid, 3.0, seed=1)
        out = self.density_after(rho, u, 1e-3, 1)
        assert np.max(np.abs(out.values - 2.0)) <= 1e-13

    def test_zero_velocity_unchanged(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid)
        out = self.density_after(rho, zero_velocity(grid), 1e-3, 1)
        assert np.max(np.abs(out.values - rho.values)) <= 1e-13

    def test_against_characteristics(self):
        # u = (0, A sin(pi x)) is a steady shear under any density (its
        # advection vanishes, so the pressure is constant) with vertical
        # characteristics: rho(t, x, y) = rho0(x, y - t A sin(pi x)).
        grid = make_grid(2, 128)
        A = 0.5
        u = grid.sample_velocity(lambda x, y: 0.0 * x, lambda x, y: A * np.sin(np.pi * x))
        rho = grid.sample_scalar(lambda x, y: 2.0 + np.sin(np.pi * y))
        dt, nsteps = 2e-3, 125
        out = self.density_after(rho, u, dt, nsteps)
        x, y = grid.meshgrid()
        oracle = 2.0 + np.sin(np.pi * (y - nsteps * dt * A * np.sin(np.pi * x)))
        assert np.max(np.abs(out.values - oracle)) <= 1e-6

    def test_steady_when_density_constant_along_flow(self):
        grid = make_grid(2, 64)
        u = grid.sample_velocity(lambda x, y: 0.0 * x, lambda x, y: np.sin(np.pi * x))
        rho = grid.sample_scalar(lambda x, y: 2.0 + np.sin(np.pi * x))
        out = self.density_after(rho, u, 1e-3, 1)
        assert np.max(np.abs(out.values - rho.values)) <= 1e-12

    def test_conserves_mass_exactly(self):
        grid = make_grid(2, 64)
        rho = smooth_density(grid, 0.5)
        u = random_divfree(grid, 2.5, seed=3)
        total = rho.values.sum() * grid.cell_volume
        out = self.density_after(rho, u, 1e-3, 20)
        assert abs(out.values.sum() * grid.cell_volume - total) <= 1e-12

    def test_l2_near_isometry(self):
        grid = make_grid(2, 128)
        rho = grid.sample_scalar(lambda x, y: 2.0 + np.sin(np.pi * y))
        u = random_divfree(grid, 3.0, seed=5)
        n0 = lp_norm(rho, 2.0)
        out = self.density_after(rho, u, 1e-3, 20)
        assert abs(lp_norm(out, 2.0) - n0) / n0 <= 1e-6


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
        assert np.max(np.abs(traj.final().scalars["density"].values - rho.values)) <= 1e-13

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
        # one ordered-pair audit record, whose JSON the admissibility check shares
        assert admissibility_check(a, 1e-7).to_json_dict().keys() == report.to_json_dict().keys()

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
        states = []
        for i, s in enumerate(b.states):
            if i > 0:
                bad = s.scalars["density"].values + 0.01 * i
                s = State(s.time, s.velocity, {"density": ScalarField(grid, bad)})
            states.append(s)
        b = Trajectory(states, b.dt, b.config, b.energy_ledger, b.ledgers)
        report = density_contraction_check(a, b, 1e-7)
        assert not report.passed
        assert report.worst_pair is not None
        assert report.worst_pair[0] == 0.0


    def test_pairing_matches_the_physical_space_oracle(self, monkeypatch):
        """Each snapshot's spectral pairing equals the physical-space
        ``inner(tc_a - tc_b, gradient((rho_a - rho_b)_eps))`` to 1e-12."""
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 3.0, seed=21)
        # two shells: a one-shell density difference pairs to zero exactly
        rho_b = grid.sample_scalar(lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x) * np.cos(np.pi * y)
                                   + 0.1 * np.cos(2.0 * np.pi * y))
        a = inhom_solve(smooth_density(grid), u0, 0.02, 1e-3, snapshot_stride=10)
        b = inhom_solve(rho_b, u0, 0.02, 1e-3, snapshot_stride=10)
        kernel = make_kernel(grid, resolved_epsilon(grid))
        oracle = []
        for sa, sb in zip(a.states, b.states):
            ra, rb = sa.scalars["density"], sb.scalars["density"]
            tc_a = transport_commutator(ra, sa.velocity, kernel)
            tc_b = transport_commutator(rb, sb.velocity, kernel)
            diff_eps = ScalarField.from_hat(grid, (ra.hat - rb.hat) * kernel.multiplier)
            diff_tc = VelocityField.from_arrays(
                grid, [x.values - y.values for x, y in zip(tc_a.components, tc_b.components)])
            oracle.append(abs(inner(diff_tc, gradient(diff_eps))))
        pairings = []

        def recorded(values, times, _trapz=eulerlab.extensions._cumulative_trapz):
            pairings.append(list(values))
            return _trapz(values, times)

        monkeypatch.setattr(eulerlab.extensions, "_cumulative_trapz", recorded)
        density_contraction_check(a, b, 1e-5)
        assert len(pairings) == 1 and len(pairings[0]) == len(oracle) == 3
        assert min(oracle) > 0.0
        assert pairings[0] == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_seven_transforms_per_commutator(self, monkeypatch):
        """Past the kernel's one transform, each snapshot pair costs 14
        transforms, 7 per transport commutator: its spectra are paired as
        they are, none is transformed back to samples."""
        grid = make_grid(2, 32)
        u0 = random_divfree(grid, 3.0, seed=21)
        a = inhom_solve(smooth_density(grid), u0, 0.02, 1e-3, snapshot_stride=10)
        b = inhom_solve(smooth_density(grid, 0.3), u0, 0.02, 1e-3, snapshot_stride=10)
        # hold every state, so no rebuild of a recorded state is counted
        a, b = (Trajectory(list(t.states), t.dt, t.config, t.energy_ledger, t.ledgers)
                for t in (a, b))
        calls = count_transforms(monkeypatch)
        density_contraction_check(a, b, 1e-5)
        assert len(calls) == 1 + 14 * len(a.states)


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

    @pytest.mark.parametrize("g", [(float("nan"), -1.0), (0.0, float("inf")), (-1.0,)],
                             ids=["nan", "inf", "one-component"])
    def test_gravity_must_be_two_finite_numbers(self, g):
        grid = make_grid(2, 32)
        th0 = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        with pytest.raises(ConfigurationError, match="g must be two finite numbers"):
            boussinesq_solve(th0, taylor_green(grid, 1.0), g, 0.002, 1e-3)

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

    @pytest.mark.parametrize("eps", [
        [], [0.5, 0.25, 0.125, 0.01], [0.5, 0.25, 0.125, 0.0], [0.5, 0.25, 0.125, -0.1],
    ], ids=["empty", "below-floor", "zero", "negative"])
    def test_empty_sweep_rejected_before_solving(self, monkeypatch, eps):
        """An empty sweep, or one with an epsilon the B grid does not admit,
        fails before either leg is solved."""
        def no_solve(*args):
            raise AssertionError("solved a pair with a bad sweep")

        monkeypatch.setattr(eulerlab.extensions, "run_pair", no_solve)
        grid = make_grid(2, 64)
        u0 = taylor_green(grid, 0.8)
        cfg = RunConfig(64, 2e-3, 0.004)
        with pytest.raises(ConfigurationError, match="epsilon"):
            inhom_uniqueness_experiment(
                smooth_density(grid), u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=eps
            )
        with pytest.raises(ConfigurationError, match="epsilon"):
            boussinesq_uniqueness_experiment(
                grid.sample_scalar(lambda x, y: 0.0 * x), u0, (0.0, -1.0), cfg, cfg,
                alpha=0.6, p_int=3.0, epsilons=eps,
            )
