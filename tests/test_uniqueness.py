import math

import numpy as np
import pytest

import eulerlab.besov
import eulerlab.uniqueness
from eulerlab.errors import ConfigurationError, GridMismatchError
from eulerlab.grid_fields import (
    VelocityField,
    gradient_tensor,
    inner,
    lp_norm,
    make_grid,
)
from eulerlab.mollify import make_kernel, mollify
from eulerlab.synth import (
    SynthSpec,
    lacunary_field,
    rigid_rotation_gradient,
    shear_flow,
    taylor_green,
)
from eulerlab.uniqueness import (
    LipschitzSeries,
    RelativeEnergySeries,
    RunConfig,
    gronwall_certify,
    lipschitz_from_gradient,
    one_sided_lipschitz,
    relative_energy,
    uniqueness_experiment,
)

from _utils import random_band_limited_velocity


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
        assert one_sided_lipschitz(u, 4 * grid.spacing) <= 1e-12

    def test_rotation_gradient_vanishes(self):
        # No periodic field carries the rotation, so probe the estimator's
        # eigenvalue stage with the rotation's (antisymmetric) gradient.
        grid = make_grid(2, 64)
        assert lipschitz_from_gradient(rigid_rotation_gradient(grid, 3.0)) == 0.0

    def test_shear_profile(self):
        grid = make_grid(2, 256)
        profile = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        c = one_sided_lipschitz(shear_flow(grid, profile), 4 * grid.spacing)
        assert c == pytest.approx(np.pi / 2.0, rel=0.02)

    def test_homogeneity_exact_power_of_two(self):
        grid = make_grid(2, 128)
        profile = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        v = shear_flow(grid, profile)
        doubled = VelocityField.from_arrays(grid, [2.0 * c.values for c in v.components])
        eps = 4 * grid.spacing
        assert one_sided_lipschitz(doubled, eps) == 2.0 * one_sided_lipschitz(v, eps)

    def test_homogeneity_general(self):
        grid = make_grid(2, 64)
        v = random_band_limited_velocity(grid, 8, seed=5, divfree=True)
        lam = 1.7
        scaled = VelocityField.from_arrays(grid, [lam * c.values for c in v.components])
        eps = 4 * grid.spacing
        assert one_sided_lipschitz(scaled, eps) == pytest.approx(
            lam * one_sided_lipschitz(v, eps), rel=1e-10
        )

    def test_bounded_by_gradient_max_norm(self):
        grid = make_grid(2, 64)
        eps = 4 * grid.spacing
        kernel = make_kernel(grid, eps)
        for seed in (6, 7, 8):
            v = random_band_limited_velocity(grid, 10, seed=seed, divfree=True)
            c = one_sided_lipschitz(v, eps)
            W = gradient_tensor(mollify(v, kernel))
            frob = np.sqrt(np.sum(W * W, axis=(0, 1)))
            assert c <= frob.max() * (1 + 1e-12)

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
        # one probe per B snapshot (seminorm and fitted exponent together)
        # plus the budget sweep's seminorm of B's initial velocity
        assert len(report.times) == 6
        assert len(calls) == len(report.times) + 1

    @pytest.mark.parametrize("route, eps", [("nonsense", EPS), ("convective", [])])
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

    def test_degenerate_b_snapshot_rejected(self):
        grid = make_grid(2, 64)
        zero = VelocityField.from_arrays(grid, [np.zeros(grid.shape)] * 2)
        cfg = RunConfig(64, 2e-3, 0.004)
        with pytest.raises(ConfigurationError, match="usable shift magnitudes"):
            uniqueness_experiment(
                zero, cfg, cfg, alpha=0.6, p_int=3.0, epsilons=self.EPS
            )
