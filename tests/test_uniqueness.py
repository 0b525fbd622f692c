import math
from collections import Counter

import numpy as np
import pytest

import eulerlab.besov
import eulerlab.uniqueness
from eulerlab.commutator import ROUTES, scaling_experiment
from eulerlab.errors import ConfigurationError, GridMismatchError
from eulerlab.grid_fields import (
    VelocityField,
    gradient,
    inner,
    lp_norm,
    make_grid,
    resample,
)
from eulerlab.mollify import make_kernel, mollify
from eulerlab.synth import (
    SynthSpec,
    lacunary_field,
    low_mode_divfree,
    random_divfree,
    shear_flow,
    taylor_green,
)
from eulerlab.solver import State, Trajectory, solve
from eulerlab.uniqueness import (
    LipschitzSeries,
    RelativeEnergySeries,
    RunConfig,
    _certify_pair,
    _cumulative_trapz,
    _plain_energy,
    gronwall_certify,
    lipschitz_from_gradient,
    one_sided_lipschitz,
    relative_energy,
    run_pair,
    uniqueness_experiment,
)

from _utils import count_state_reads, random_band_limited_velocity


class TestRelativeEnergy:
    def test_identical_fields(self):
        grid = make_grid(2, 64)
        u = taylor_green(grid, 1.0)
        assert relative_energy(u, u) == 0.0

    def test_zero_vs_taylor_green(self):
        grid = make_grid(2, 128)
        u = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
        v = taylor_green(grid, 1.0)
        # equals the TG kinetic energy
        assert relative_energy(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=1, divfree=True)
        v = random_band_limited_velocity(grid, 8, seed=2, divfree=True)
        base = relative_energy(u, v)
        shift = (5, 11)
        us = VelocityField.from_arrays(
            grid, [np.roll(c.values, shift, axis=(0, 1)) for c in u.components]
        )
        vs = VelocityField.from_arrays(
            grid, [np.roll(c.values, shift, axis=(0, 1)) for c in v.components]
        )
        assert relative_energy(us, vs) == pytest.approx(base, rel=1e-12)

    def test_expansion_identity(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 10, seed=3, divfree=True)
        v = random_band_limited_velocity(grid, 10, seed=4, divfree=True)
        direct = relative_energy(u, v)
        expanded = (
            0.5 * lp_norm(u, 2.0) ** 2 + 0.5 * lp_norm(v, 2.0) ** 2 - inner(u, v)
        )
        assert direct == pytest.approx(expanded, abs=1e-10)

    def test_scalar_fields(self):
        """Two scalar fields: bitwise ``0.5 * sum((a - b)^2) * h^N``."""
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=5, divfree=True)
        a, b = u.components
        d = a.values - b.values
        assert relative_energy(a, b) == 0.5 * float(np.sum(d * d) * grid.cell_volume)
        assert relative_energy(a, a) == 0.0
        with pytest.raises(ConfigurationError, match="same kind"):
            relative_energy(a, u)

    def test_grid_mismatch(self):
        u = taylor_green(make_grid(2, 64), 1.0)
        v = taylor_green(make_grid(2, 128), 1.0)
        with pytest.raises(GridMismatchError):
            relative_energy(u, v)


class TestOneSidedLipschitz:
    def test_constant_field(self):
        grid = make_grid(2, 64)
        u = VelocityField.from_arrays(
            grid, [np.full(grid.shape, 2.0), np.full(grid.shape, -1.0)]
        )
        assert one_sided_lipschitz(u, make_kernel(grid, 4 * grid.spacing)) <= 1e-12

    def test_rotation_gradient_vanishes(self):
        # No periodic field carries the rotation, so probe the estimator's
        # eigenvalue stage with the rotation's (antisymmetric) gradient.
        grid = make_grid(2, 64)
        W = np.zeros((2, 2) + grid.shape)
        W[0, 1], W[1, 0] = -3.0, 3.0
        assert lipschitz_from_gradient(W) == 0.0

    def test_shear_profile(self):
        grid = make_grid(2, 256)
        profile = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        c = one_sided_lipschitz(shear_flow(grid, profile), make_kernel(grid, 4 * grid.spacing))
        assert c == pytest.approx(np.pi / 2.0, rel=0.02)

    def test_homogeneity_exact_power_of_two(self):
        grid = make_grid(2, 128)
        profile = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        v = shear_flow(grid, profile)
        doubled = VelocityField.from_arrays(grid, [2.0 * c.values for c in v.components])
        kernel = make_kernel(grid, 4 * grid.spacing)
        assert one_sided_lipschitz(doubled, kernel) == 2.0 * one_sided_lipschitz(v, kernel)

    def test_homogeneity_general(self):
        grid = make_grid(2, 64)
        v = random_band_limited_velocity(grid, 8, seed=5, divfree=True)
        lam = 1.7
        scaled = VelocityField.from_arrays(grid, [lam * c.values for c in v.components])
        kernel = make_kernel(grid, 4 * grid.spacing)
        assert one_sided_lipschitz(scaled, kernel) == pytest.approx(
            lam * one_sided_lipschitz(v, kernel), rel=1e-10
        )

    def test_bounded_by_gradient_max_norm(self):
        grid = make_grid(2, 64)
        eps = 4 * grid.spacing
        kernel = make_kernel(grid, eps)
        for seed in (6, 7, 8):
            v = random_band_limited_velocity(grid, 10, seed=seed, divfree=True)
            c = one_sided_lipschitz(v, kernel)
            W = np.array([[g.values for g in gradient(w).components]
                          for w in mollify(v, kernel).components])
            frob = np.sqrt(np.sum(W * W, axis=(0, 1)))
            assert c <= frob.max() * (1 + 1e-12)

    @pytest.mark.parametrize("dims,n", [(2, 64), (2, 128), (3, 16)])
    def test_bitwise_the_mollified_field_route(self, dims, n):
        """Taken straight from the mollified spectra, C is bitwise the value
        of the mollified field's gradient tensor, in 2D and in 3D."""
        grid = make_grid(dims, n)
        kernel = make_kernel(grid, 0.25)
        for seed in (0, 1, 2):
            v = random_divfree(grid, 2.0, seed=seed)
            grad = [[g.values for g in gradient(w).components]
                    for w in mollify(v, kernel).components]
            expect = lipschitz_from_gradient(np.array(grad))
            assert one_sided_lipschitz(v, kernel) == expect
            assert expect > 0.0

    def test_rejects_a_kernel_on_another_grid(self):
        v = random_divfree(make_grid(2, 64), 2.0, seed=0)
        with pytest.raises(GridMismatchError):
            one_sided_lipschitz(v, make_kernel(make_grid(2, 128), 0.25))

    def test_diagonal_gradient(self):
        grid = make_grid(2, 32)
        W = np.zeros((2, 2) + grid.shape)
        W[0, 0] = 0.7
        W[1, 1] = -0.7
        assert lipschitz_from_gradient(W) == pytest.approx(0.7, abs=1e-14)


class TestGronwallCertify:
    def axis(self):
        return [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_zero_energy_passes(self):
        t = self.axis()
        cert = gronwall_certify(
            RelativeEnergySeries(t, [0.0] * len(t)),
            LipschitzSeries(t, [1.0] * len(t), 0.1),
            commutator_budget=0.0,
            certify_tolerance=1e-6,
        )
        assert cert.passed
        assert cert.slack >= 0.0

    def test_equality_case_boundary(self):
        t = self.axis()
        c = 0.8
        E = [math.exp(c * s) for s in t]
        cert = gronwall_certify(
            RelativeEnergySeries(t, E),
            LipschitzSeries(t, [c] * len(t), 0.1),
            commutator_budget=0.0,
            certify_tolerance=1e-9,
        )
        assert cert.passed
        assert abs(cert.slack) <= 1e-12

    def test_constructed_violation_fails(self):
        t = self.axis()
        c = 1.0
        E = [math.exp(2.0 * c * s) for s in t]
        cert = gronwall_certify(
            RelativeEnergySeries(t, E),
            LipschitzSeries(t, [c] * len(t), 0.1),
            commutator_budget=0.0,
            certify_tolerance=1e-6,
        )
        assert not cert.passed
        assert cert.tau1 == 0.0 and cert.tau2 == 1.0
        assert cert.lhs == pytest.approx(math.exp(2.0))
        assert cert.bound == pytest.approx(math.exp(1.0))

    def test_budget_monotonicity(self):
        t = self.axis()
        E = [1.0, 1.2, 1.1, 1.4, 1.3]
        C = [0.1] * len(t)
        small = gronwall_certify(
            RelativeEnergySeries(t, E), LipschitzSeries(t, C, 0.1), 0.0, 1e-9
        )
        big = gronwall_certify(
            RelativeEnergySeries(t, E), LipschitzSeries(t, C, 0.1), 10.0, 1e-9
        )
        assert big.slack >= small.slack
        assert big.passed

    def test_nan_tolerance_rejected(self):
        t = self.axis()
        with pytest.raises(ConfigurationError, match="certify_tolerance"):
            gronwall_certify(
                RelativeEnergySeries(t, [0.0] * len(t)),
                LipschitzSeries(t, [1.0] * len(t), 0.1),
                commutator_budget=0.0,
                certify_tolerance=float("nan"),
            )

    def test_mismatched_axes(self):
        with pytest.raises(ConfigurationError, match="axes"):
            gronwall_certify(
                RelativeEnergySeries([0.0, 1.0], [0.0, 0.0]),
                LipschitzSeries([0.0, 0.5], [0.0, 0.0], 0.1),
                0.0,
                1e-9,
            )

    def test_series_validation(self):
        with pytest.raises(ConfigurationError):
            RelativeEnergySeries([0.0, 1.0], [0.0, -1.0])
        with pytest.raises(ConfigurationError):
            LipschitzSeries([0.0, 1.0], [0.5, -0.5], 0.1)


class TestUniquenessExperiment:
    EPS = [0.5, 0.25, 0.125, 0.0625]

    def test_identical_configs_zero_energy(self):
        u0 = taylor_green(make_grid(2, 64), 1.0)
        cfg = RunConfig(64, 2e-3, 0.05, snapshot_stride=5)
        report = uniqueness_experiment(
            u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=self.EPS
        )
        assert all(e == 0.0 for e in report.energy)
        assert report.verdict == "pass"

    def test_taylor_green_resolution_pair(self):
        u0 = taylor_green(make_grid(2, 128), 1.0)
        report = uniqueness_experiment(
            u0,
            RunConfig(64, 2e-3, 0.1, snapshot_stride=10),
            RunConfig(128, 1e-3, 0.1, snapshot_stride=20),
            alpha=0.6,
            p_int=3.0,
            epsilons=self.EPS,
        )
        assert report.verdict == "pass"
        assert max(report.energy) <= 1e-6
        # TG's one-sided constant is pi * amplitude
        assert report.lipschitz.c_values[0] == pytest.approx(np.pi, rel=0.02)
        assert report.hypothesis_met

    def test_hypothesis_gate_depends_on_route(self):
        grid = make_grid(2, 128)
        u0 = lacunary_field(SynthSpec("lacunary", alpha=0.4, j_max=5, seed=3), grid)
        kwargs = dict(alpha=0.4, p_int=3.0, epsilons=[0.5, 0.25, 0.125, 0.0625])
        cfg_a = RunConfig(128, 5e-4, 0.01, snapshot_stride=5)
        cfg_b = RunConfig(128, 2.5e-4, 0.01, snapshot_stride=10)
        conv = uniqueness_experiment(u0, cfg_a, cfg_b, budget_route="convective", **kwargs)
        tri = uniqueness_experiment(u0, cfg_a, cfg_b, budget_route="trilinear", **kwargs)
        # alpha ~ 0.4 sits between the 1/3 and 1/2 thresholds
        assert conv.verdict == "hypothesis-not-met"
        assert not conv.hypothesis_met
        assert tri.hypothesis_met
        assert tri.verdict in ("pass", "certificate-failed")

    @pytest.mark.parametrize("route, quantity, p", [
        ("convective", "convective_commutator_lp", 2.0),
        ("trilinear", "cet_trilinear", 3.0),
    ])
    def test_route_threshold_is_one_over_rate_power(self, route, quantity, p):
        """A route's hypothesis threshold is 1/p where its sweep's theory
        slope is p alpha - 1: the alpha at which the budget starts to decay."""
        grid = make_grid(2, 64)
        u0 = taylor_green(grid, 1.0)
        cfg = RunConfig(64, 2e-3, 0.004)
        report = uniqueness_experiment(u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=self.EPS,
                                       budget_route=route)
        assert report.required_alpha == 1.0 / p
        v = random_band_limited_velocity(grid, 12, seed=38, divfree=True)
        fields = v if quantity == "convective_commutator_lp" else (u0, v)
        sweep = scaling_experiment(fields, quantity, self.EPS, 3.0, alpha=report.alpha)
        assert sweep.theory_slope == p * report.alpha - 1.0

    def test_budget_is_the_scaling_sweep_of_b(self):
        """The convective budget is the scaling experiment's sweep of B's first
        velocity: its largest constant times ``eps^rate`` times the integrated
        squared seminorms, bit for bit."""
        eps = [0.25, 0.125, 0.0625, 0.03125]
        u0 = random_divfree(make_grid(2, 128), 2.0, seed=3)
        legs = (RunConfig(64, 2e-3, 0.02, snapshot_stride=5),
                RunConfig(128, 1e-3, 0.02, snapshot_stride=10))
        traj_a, traj_b = run_pair((u0,), *legs, solve)
        report = _certify_pair(traj_a, traj_b, 0.6, 3.0, eps, energy=_plain_energy,
                               budget_route="convective")
        s = scaling_experiment(traj_b.states[0].velocity, "convective_commutator_lp", eps, 3.0,
                               alpha=0.6)
        w = _cumulative_trapz([x * x for x in report.seminorm_series], report.times)[-1]
        assert report.budgets_values == [max(s.intercepts) * e**s.theory_slope * w
                                         for e in report.budgets_epsilons]

    def test_cadence_mismatch_rejected(self):
        u0 = taylor_green(make_grid(2, 64), 1.0)
        with pytest.raises(ConfigurationError, match="cadence"):
            uniqueness_experiment(
                u0,
                RunConfig(64, 2e-3, 0.05, snapshot_stride=5),
                RunConfig(64, 1e-3, 0.05, snapshot_stride=5),
                alpha=0.6,
                p_int=3.0,
                epsilons=self.EPS,
            )

    @pytest.mark.parametrize("cfg_b, match", [
        (RunConfig(64, 3e-3, 0.014, snapshot_stride=2), "T=0.014 must be a positive integer"),
        (RunConfig(12, 2e-3, 0.014, snapshot_stride=3), "n_per_axis must be a power of two"),
    ], ids=["b-dt-not-dividing-T", "b-n-not-a-power-of-two"])
    def test_run_pair_checks_both_legs_before_solving(self, cfg_b, match):
        """A B leg that cannot be integrated fails before the A leg is solved."""
        solved = []

        def solve_leg(*fields, **kwargs):
            solved.append(kwargs)
            return solve(*fields, **kwargs)

        u0 = taylor_green(make_grid(2, 64), 1.0)
        with pytest.raises(ConfigurationError, match=match):
            run_pair((u0,), RunConfig(32, 2e-3, 0.014, snapshot_stride=3), cfg_b, solve_leg)
        assert solved == []

    def test_leg_order_does_not_matter(self):
        """The finer leg is B whichever argument it is passed as, so swapping
        the legs gives the same report."""
        u0 = random_divfree(make_grid(2, 64), 2.0, seed=3)
        coarse = RunConfig(32, 2e-3, 0.02, snapshot_stride=5)
        fine = RunConfig(64, 1e-3, 0.02, snapshot_stride=10)
        kwargs = dict(alpha=0.6, p_int=3.0, epsilons=[0.25, 0.2, 0.15, 0.125])
        as_given = uniqueness_experiment(u0, coarse, fine, **kwargs)
        swapped = uniqueness_experiment(u0, fine, coarse, **kwargs)
        assert max(as_given.energy) > 0.0
        assert swapped.to_json_dict() == as_given.to_json_dict()

    def test_report_schema(self):
        u0 = taylor_green(make_grid(2, 64), 1.0)
        cfg = RunConfig(64, 2e-3, 0.02, snapshot_stride=2)
        report = uniqueness_experiment(
            u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=self.EPS
        )
        d = report.to_json_dict()
        assert set(d["series"].keys()) == {"t", "E", "C"}
        assert set(d["budgets"].keys()) == {"epsilon", "value"}
        for key in ("tau1", "tau2", "lhs", "bound", "slack", "pass"):
            assert key in d["certificate"]
        for key in ("fitted_alpha", "required_alpha", "met"):
            assert key in d["hypothesis"]
        assert "per_quantity" not in d["hypothesis"]
        assert "contraction" not in d

    def test_one_probe_per_b_snapshot(self, monkeypatch):
        calls = []
        probe = eulerlab.besov._probe

        def counted(*args):
            calls.append(args)
            return probe(*args)

        monkeypatch.setattr(eulerlab.besov, "_probe", counted)
        u0 = taylor_green(make_grid(2, 64), 1.0)
        cfg = RunConfig(64, 2e-3, 0.02, snapshot_stride=2)
        report = uniqueness_experiment(
            u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=self.EPS
        )
        # one probe per B snapshot (seminorm and fitted exponent together);
        # the budget constant reuses the first one
        assert len(report.times) == 6
        assert len(calls) == len(report.times)

    def test_one_lipschitz_kernel_per_series(self, monkeypatch):
        kernels = []

        def counted(grid, epsilon):
            kernels.append((grid.n_per_axis, epsilon))
            return make_kernel(grid, epsilon)

        monkeypatch.setattr(eulerlab.uniqueness, "make_kernel", counted)
        u0 = taylor_green(make_grid(2, 64), 1.0)
        cfg = RunConfig(64, 2e-3, 0.02, snapshot_stride=2)
        report = uniqueness_experiment(
            u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=self.EPS
        )
        # the C(t) kernel is built once for all six snapshots; the budget
        # sweep builds its own kernels in the commutator module
        assert len(report.times) == 6
        assert kernels == [(64, 4 * 2.0 / 64)]
        assert report.lipschitz.reg_epsilon == 4 * 2.0 / 64

    @pytest.mark.parametrize("route, eps", [
        ("nonsense", EPS), ("convective", []), ("convective", EPS[:3]),
        ("convective", [0.5, 0.25, 0.25, 0.125]),
        ("convective", [0.5, 0.25, 0.125, 0.01]), ("convective", [0.5, 0.25, 0.125, 0.0]),
        ("convective", [0.5, 0.25, 0.125, -0.1]), ("convective", [0.75, 0.5, 0.25, 0.125]),
    ])
    def test_bad_sweep_rejected_before_solving(self, monkeypatch, route, eps):
        def no_solve(*args):
            raise AssertionError("solved a pair with a bad sweep")

        monkeypatch.setattr(eulerlab.uniqueness, "run_pair", no_solve)
        u0 = taylor_green(make_grid(2, 64), 1.0)
        cfg = RunConfig(64, 2e-3, 0.004)
        with pytest.raises(ConfigurationError):
            uniqueness_experiment(
                u0, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=eps, budget_route=route
            )

    def test_sweep_checked_on_the_finer_leg(self, monkeypatch):
        """Epsilons are checked against the finer (B) leg's grid, where the
        sweep runs."""
        class Solved(Exception):
            pass

        def no_solve(*args):
            raise Solved

        monkeypatch.setattr(eulerlab.uniqueness, "run_pair", no_solve)
        u0 = taylor_green(make_grid(2, 128), 1.0)
        legs = (RunConfig(64, 2e-3, 0.004), RunConfig(128, 1e-3, 0.004, snapshot_stride=2))
        kwargs = dict(alpha=0.6, p_int=3.0)
        # 0.04 is below the 64-point floor (0.0625), not the 128-point one
        with pytest.raises(Solved):
            uniqueness_experiment(u0, *legs, epsilons=[0.5, 0.25, 0.125, 0.04], **kwargs)
        with pytest.raises(ConfigurationError, match=r"floor .* \(needs n >= 256\)"):
            uniqueness_experiment(u0, *legs, epsilons=[0.5, 0.25, 0.125, 0.02], **kwargs)

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(alpha=1.5), dict(p_int=0.5),
    ], ids=["alpha-0", "alpha-1.5", "p-0.5"])
    def test_bad_arguments_rejected_before_solving(self, monkeypatch, bad):
        """All three certify experiments reject a bad exponent or
        integrability without solving a leg."""
        import eulerlab.extensions
        from eulerlab.extensions import (
            boussinesq_uniqueness_experiment,
            inhom_uniqueness_experiment,
        )

        calls = []

        def counted(*args, _run_pair=eulerlab.uniqueness.run_pair):
            calls.append(args)
            return _run_pair(*args)

        monkeypatch.setattr(eulerlab.uniqueness, "run_pair", counted)
        monkeypatch.setattr(eulerlab.extensions, "run_pair", counted)
        grid = make_grid(2, 64)
        u0 = taylor_green(grid, 1.0)
        scalar = grid.sample_scalar(lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x))
        cfg = RunConfig(64, 2e-3, 0.004)
        kwargs = dict(dict(alpha=0.6, p_int=3.0, epsilons=self.EPS), **bad)
        runs = [
            lambda: uniqueness_experiment(u0, cfg, cfg, **kwargs),
            lambda: inhom_uniqueness_experiment(scalar, u0, cfg, cfg, **kwargs),
            lambda: boussinesq_uniqueness_experiment(scalar, u0, (0.0, -1.0), cfg, cfg,
                                                     **kwargs),
        ]
        for run in runs:
            with pytest.raises(ConfigurationError):
                run()
        assert len(calls) == 0

    def test_convective_p_below_two_rejected_before_solving(self, monkeypatch):
        """The convective budget is an L^(p/2) norm: all three certify
        experiments reject p in [1, 2) on that route without solving a leg;
        the trilinear route takes it."""
        import eulerlab.extensions
        from eulerlab.extensions import (
            boussinesq_uniqueness_experiment,
            inhom_uniqueness_experiment,
        )
        from eulerlab.uniqueness import _check_sweep

        calls = []

        def counted(*args, _run_pair=eulerlab.uniqueness.run_pair):
            calls.append(args)
            return _run_pair(*args)

        monkeypatch.setattr(eulerlab.uniqueness, "run_pair", counted)
        monkeypatch.setattr(eulerlab.extensions, "run_pair", counted)
        grid = make_grid(2, 64)
        u0 = taylor_green(grid, 1.0)
        scalar = grid.sample_scalar(lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x))
        cfg = RunConfig(64, 2e-3, 0.004)
        kwargs = dict(alpha=0.6, p_int=1.5, epsilons=self.EPS)
        runs = [
            lambda: uniqueness_experiment(u0, cfg, cfg, **kwargs),
            lambda: inhom_uniqueness_experiment(scalar, u0, cfg, cfg, **kwargs),
            lambda: boussinesq_uniqueness_experiment(scalar, u0, (0.0, -1.0), cfg, cfg,
                                                     **kwargs),
        ]
        for run in runs:
            with pytest.raises(ConfigurationError, match="p 1.5 is below 2"):
                run()
        assert len(calls) == 0
        _check_sweep("trilinear", self.EPS, cfg, cfg, 0.6, 1.5)

    def test_degenerate_b_snapshot_rejected(self):
        grid = make_grid(2, 64)
        zero = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
        cfg = RunConfig(64, 2e-3, 0.004)
        with pytest.raises(ConfigurationError, match="usable shift magnitudes"):
            uniqueness_experiment(
                zero, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=self.EPS
            )


class TestCertificateCanFail:
    """The certify tolerance is ten times B's energy drift alone.  On the
    64^2/128^2 Taylor-Green pair (T 0.1, convective budget 3.8e-4) a kick of
    the A leg fails the certificate, which a tolerance from A's drift, grown
    by the kick, would pass; perturbed initial data pass."""

    EPS = [0.25, 0.125, 0.0625, 0.03125]

    @staticmethod
    def legs():
        """B from Taylor-Green at 128^2, dt 1e-3, stride 10, and its data
        on A's 64^2 grid."""
        v0 = taylor_green(make_grid(2, 128), 1.0)
        return solve(v0, 0.1, 1e-3, snapshot_stride=10), resample(v0, make_grid(2, 64))

    @staticmethod
    def plus_kick(u, delta):
        """``u + delta w`` with ``w`` the mean-free ``low_mode_divfree(grid, 3, seed=11)``."""
        w = low_mode_divfree(u.grid, 3, seed=11)
        return VelocityField.from_arrays(u.grid, [a.values + delta * (b.values - b.mean())
                                                  for a, b in zip(u.components, w.components)])

    def certify(self, traj_a, traj_b):
        return _certify_pair(traj_a, traj_b, 0.6, 3.0, self.EPS, energy=_plain_energy,
                             budget_route="convective")

    @pytest.mark.parametrize("delta, verdict", [(0.0, "pass"), (0.1, "certificate-failed")])
    def test_kicked_leg_fails(self, delta, verdict):
        traj_b, u0 = self.legs()
        before = solve(u0, 0.04, 2e-3, snapshot_stride=5)
        after = solve(self.plus_kick(before.final().velocity, delta), 0.06, 2e-3,
                      snapshot_stride=5)
        # A runs to t = 0.04, is kicked there, and runs on from the kicked state
        states = list(before.states)[:-1] + list(after.states)
        traj_a = Trajectory([State(t, s.velocity, s.scalars)
                             for t, s in zip(traj_b.times, states, strict=True)],
                            2e-3, before.config, before.energy_ledger[:-1] + after.energy_ledger)
        report = self.certify(traj_a, traj_b)
        assert report.hypothesis_met
        assert report.verdict == verdict
        tolerance = report.certificate.certify_tolerance
        assert tolerance == 10 * max(traj_b.energy_drift(), 1e-16)
        if delta:
            # the kick moves A's energy: ten times A's drift would hide it
            assert tolerance < -report.certificate.slack < 10 * traj_a.energy_drift()

    def test_perturbed_data_pass(self):
        traj_b, u0 = self.legs()
        traj_a = solve(self.plus_kick(u0, 0.1), 0.1, 2e-3, snapshot_stride=5)
        report = self.certify(traj_a, traj_b)
        assert max(report.energy) > 1e-3
        assert report.verdict == "pass"


class TestOnePass:
    """``_certify_pair`` reads the recorded states of a pair in one pass, by
    index, and reads B's first state once more for the budget sweep."""

    EPS = [0.5, 0.25, 0.125, 0.0625]
    LEGS = (RunConfig(32, 2e-3, 0.02, snapshot_stride=2),
            RunConfig(64, 1e-3, 0.02, snapshot_stride=4))

    @pytest.mark.parametrize("system", ["convective", "trilinear", "density", "theta"])
    def test_each_state_read_once(self, monkeypatch, system):
        """Each index of each leg is read once, B's index 0 once more; the
        extended systems' contraction audit adds exactly one pass."""
        import eulerlab.extensions
        from eulerlab.extensions import (
            boussinesq_uniqueness_experiment,
            inhom_uniqueness_experiment,
        )

        reads = count_state_reads(monkeypatch)

        def solved(*args, _run_pair=run_pair):
            pair = _run_pair(*args)
            del reads[:]  # the solvers' own ledgers read every state
            return pair

        monkeypatch.setattr(eulerlab.uniqueness, "run_pair", solved)
        monkeypatch.setattr(eulerlab.extensions, "run_pair", solved)
        grid = make_grid(2, 64)
        u0 = random_divfree(grid, 2.0, seed=3)
        scalar = grid.sample_scalar(lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x))
        kwargs = dict(alpha=0.6, p_int=3.0, epsilons=self.EPS)
        if system == "density":
            report = inhom_uniqueness_experiment(scalar, u0, *self.LEGS, **kwargs)
        elif system == "theta":
            report = boussinesq_uniqueness_experiment(scalar, u0, (0.0, -1.0), *self.LEGS,
                                                      **kwargs)
        else:
            report = uniqueness_experiment(u0, *self.LEGS, budget_route=system, **kwargs)
        counts = {32: Counter(), 64: Counter()}
        for states, i, _ in reads:
            counts[states.grid.n_per_axis][i] += 1
        passes = 1 if system in ROUTES else 2
        indices = range(len(report.times))
        assert counts[32] == Counter({i: passes for i in indices})
        assert counts[64] == Counter({i: passes + (i == 0) for i in indices})

    @pytest.mark.parametrize("route", ["convective", "trilinear"])
    def test_few_rebuilt_states_alive(self, monkeypatch, route):
        """While a state is rebuilt, at most three earlier ones are alive:
        the previous pair and the current A state.  ``enumerate(zip(...))``
        over the legs keeps the pair from two reads back alive on alternate
        iterations, four."""
        traj_a, traj_b = run_pair((random_divfree(make_grid(2, 64), 2.0, seed=3),), *self.LEGS,
                                  solve)
        reads = count_state_reads(monkeypatch)
        _certify_pair(traj_a, traj_b, 0.6, 3.0, self.EPS, energy=_plain_energy,
                      budget_route=route)
        assert len(reads) == 2 * len(traj_a.times) + 1
        assert max(alive for _, _, alive in reads) <= 3
