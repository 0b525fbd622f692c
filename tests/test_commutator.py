import numpy as np
import pytest

from eulerlab.commutator import (
    ROUTES,
    _BY_QUANTITY,
    _sweep,
    _sweep_problems,
    cet_trilinear,
    convective_commutator,
    scaling_experiment,
    transport_commutator,
)
from eulerlab.errors import ConfigurationError
from eulerlab.grid_fields import (
    ScalarField,
    VelocityField,
    _dealiased_product,
    _div_hat,
    lp_norm,
    make_grid,
    max_norm,
)
from eulerlab.mollify import make_kernel, mollify
from eulerlab.synth import SynthSpec, lacunary_field, taylor_green

from _utils import (
    count_transforms,
    direct_convolution,
    random_band_limited_scalar,
    random_band_limited_velocity,
    traced_half_spectra,
)

EPS_SWEEP = [0.25, 0.125, 0.0625, 0.03125]


def constant_velocity(grid, vals):
    return VelocityField.from_arrays(grid, [np.full(grid.shape, v) for v in vals])


class TestConvectiveCommutator:
    def test_constant_field_vanishes(self):
        grid = make_grid(2, 64)
        v = constant_velocity(grid, (1.5, -2.0))
        k = make_kernel(grid, 0.2)
        assert max_norm(convective_commutator(v, k)) <= 1e-14

    def test_single_mode_against_direct_quadrature(self):
        # Rebuild both terms with physical-space convolutions (oracle) and
        # spectral derivatives; the single pi-mode keeps products alias-free.
        grid = make_grid(2, 64)
        v = grid.sample_velocity(
            lambda x, y: np.sin(np.pi * x), lambda x, y: 0.0 * x
        )
        kern = make_kernel(grid, 0.2)
        result = convective_commutator(v, kern)

        ve = [direct_convolution(c.values, kern) for c in v.components]
        vv = [c.values for c in v.components]

        def div_tensor(t):
            out = []
            for i in range(2):
                acc = np.zeros(grid.rshape, dtype=complex)
                for j in range(2):
                    acc = acc + 1j * grid.deriv_wavenumber(j) * grid.rfftn(t[i][j])
                out.append(grid.irfftn(acc))
            return out

        smooth = div_tensor([[ve[i] * ve[j] for j in range(2)] for i in range(2)])
        raw = div_tensor([[vv[i] * vv[j] for j in range(2)] for i in range(2)])
        oracle = [s - direct_convolution(r, kern) for s, r in zip(smooth, raw)]
        for comp, expect in zip(result.components, oracle):
            assert np.max(np.abs(comp.values - expect)) <= 1e-8

    def test_quadratic_evenness_exact(self):
        grid = make_grid(2, 64)
        base = random_band_limited_velocity(grid, 12, seed=3, divfree=True)
        # rebuild both operands from raw samples so neither carries a cached
        # transform; negation is then exact through every linear stage
        v = VelocityField.from_arrays(grid, [c.values.copy() for c in base.components])
        neg = VelocityField.from_arrays(grid, [-c.values for c in base.components])
        k = make_kernel(grid, 0.125)
        a = convective_commutator(v, k)
        b = convective_commutator(neg, k)
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.values, cb.values)

    def test_lacunary_rate(self):
        grid = make_grid(2, 256)
        v = lacunary_field(SynthSpec("lacunary", alpha=0.75, j_max=6, seed=42), grid)
        report = scaling_experiment(v, "convective_commutator_lp", EPS_SWEEP, 4.0, alpha=0.75)
        assert report.fitted_slope >= 2 * 0.75 - 1 - report.slope_tolerance
        assert report.passed


class TestCetTrilinear:
    def test_constant_u_vanishes(self):
        grid = make_grid(2, 64)
        u = constant_velocity(grid, (2.0, 1.0))
        v = random_band_limited_velocity(grid, 8, seed=5, divfree=True)
        k = make_kernel(grid, 0.2)
        assert abs(cet_trilinear(u, v, k)) <= 1e-13

    def test_v_equals_u_vanishes(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 10, seed=6, divfree=True)
        k = make_kernel(grid, 0.125)
        assert cet_trilinear(u, u, k) == 0.0

    def test_affine_in_v(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=7, divfree=True)
        v1 = random_band_limited_velocity(grid, 8, seed=8, divfree=True)
        v2 = random_band_limited_velocity(grid, 8, seed=9, divfree=True)
        k = make_kernel(grid, 0.125)
        theta = 0.3
        mix = VelocityField.from_arrays(
            grid,
            [
                theta * a.values + (1 - theta) * b.values
                for a, b in zip(v1.components, v2.components)
            ],
        )
        lhs = cet_trilinear(u, mix, k)
        rhs = theta * cet_trilinear(u, v1, k) + (1 - theta) * cet_trilinear(u, v2, k)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_lacunary_rate(self):
        grid = make_grid(2, 256)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=6, seed=7), grid)
        v = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=6, seed=42), grid)
        report = scaling_experiment((u, v), "cet_trilinear", EPS_SWEEP, 3.0, alpha=0.6)
        assert report.fitted_slope >= 3 * 0.6 - 1 - report.slope_tolerance
        assert report.passed

    def test_alpha_04_slope_window(self):
        grid = make_grid(2, 256)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.4, j_max=6, seed=7), grid)
        v = lacunary_field(SynthSpec("lacunary", alpha=0.4, j_max=6, seed=42), grid)
        report = scaling_experiment((u, v), "cet_trilinear", EPS_SWEEP, 3.0, alpha=0.4)
        assert 3 * 0.4 - 1 - 0.15 <= report.fitted_slope <= 3 * 0.4 - 1 + 0.5


class TestTransportCommutator:
    def test_constant_density_vanishes(self):
        # (c u)_eps - c u_eps = 0 for constant density.
        grid = make_grid(2, 64)
        rho = grid.sample_scalar(lambda x, y: 2.0 + 0.0 * x)
        u = random_band_limited_velocity(grid, 10, seed=11, divfree=True)
        k = make_kernel(grid, 0.125)
        out = transport_commutator(rho, u, k)
        assert max_norm(out) <= 1e-12 * max_norm(u)

    def test_bilinear_scaling(self):
        grid = make_grid(2, 64)
        rho = random_band_limited_scalar(grid, 10, seed=12)
        u = random_band_limited_velocity(grid, 10, seed=13, divfree=True)
        k = make_kernel(grid, 0.125)
        base = transport_commutator(rho, u, k)
        scaled = transport_commutator(ScalarField(grid, 2.0 * rho.values), u, k)
        for a, b in zip(base.components, scaled.components):
            assert np.allclose(2.0 * a.values, b.values, atol=1e-14)


class TestScalingExperiment:
    def test_smooth_input_supercritical(self):
        # Taylor-Green is a single spectral shell: the eps^2 terms of both
        # commutator halves cancel and the decay is quartic.
        grid = make_grid(2, 256)
        tg = taylor_green(grid, 1.0)
        report = scaling_experiment(tg, "convective_commutator_lp", EPS_SWEEP, 3.0)
        assert report.magnitudes[-1] <= 1e-5
        assert report.fitted_slope >= 1.85
        assert report.passed

    def test_constant_field_vacuous(self):
        grid = make_grid(2, 128)
        v = constant_velocity(grid, (1.0, 0.0))
        report = scaling_experiment(
            v, "convective_commutator_lp", EPS_SWEEP, 3.0, alpha=0.5
        )
        assert report.vacuous and report.passed

    def test_intercept_spread_bounded(self):
        grid = make_grid(2, 256)
        v = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=6, seed=42), grid)
        report = scaling_experiment(v, "convective_commutator_lp", EPS_SWEEP, 3.0, alpha=0.6)
        spread = max(report.intercepts) / min(report.intercepts)
        assert spread <= 10.0

    def test_upper_bound_holds_with_fitted_constant(self):
        grid = make_grid(2, 256)
        v = lacunary_field(SynthSpec("lacunary", alpha=0.75, j_max=6, seed=9), grid)
        report = scaling_experiment(v, "convective_commutator_lp", EPS_SWEEP, 3.0, alpha=0.75)
        c_fit = max(report.intercepts)
        s = report.seminorms["v"]
        for eps, mag in zip(report.epsilons, report.magnitudes):
            assert mag <= eps**report.theory_slope * c_fit * s**2 * (1 + 1e-12)

    def test_validation_errors(self):
        grid = make_grid(2, 64)
        v = random_band_limited_velocity(grid, 8, seed=1, divfree=True)
        with pytest.raises(ConfigurationError, match="at least 4"):
            scaling_experiment(v, "convective_commutator_lp", [0.25, 0.125, 0.0625], 3.0)
        with pytest.raises(ConfigurationError, match="floor"):
            scaling_experiment(v, "convective_commutator_lp", [0.25, 0.125, 0.0625, 0.001], 3.0)
        with pytest.raises(ConfigurationError, match="unknown quantity"):
            scaling_experiment(v, "nonsense", EPS_SWEEP, 3.0)
        with pytest.raises(ConfigurationError, match="pair"):
            scaling_experiment(v, "cet_trilinear", EPS_SWEEP, 3.0)

    @pytest.mark.parametrize("quantity", ["convective_commutator_lp", "cet_trilinear"])
    def test_unordered_sweep_runs_from_the_largest_scale(self, quantity):
        """An unordered sweep of distinct scales gives the report of the same
        scales sorted largest first."""
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=1, divfree=True)
        v = random_band_limited_velocity(grid, 8, seed=2, divfree=True)
        fields = v if quantity == "convective_commutator_lp" else (u, v)
        unordered = scaling_experiment(fields, quantity, [0.125, 0.5, 0.0625, 0.25], 3.0,
                                       alpha=0.6)
        assert unordered == scaling_experiment(fields, quantity, [0.5, 0.25, 0.125, 0.0625],
                                               3.0, alpha=0.6)
        assert unordered.epsilons == [0.5, 0.25, 0.125, 0.0625]

    def test_one_input_shape_per_quantity(self):
        """The convective sweep measures one field: a pair (whose second
        field it would ignore while fitting alpha from both) or a 1-tuple is
        rejected, as is a 1-tuple for the pairing."""
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=1, divfree=True)
        v = random_band_limited_velocity(grid, 8, seed=2, divfree=True)
        for fields in ((u, v), (u,)):
            with pytest.raises(ConfigurationError, match="one velocity field"):
                scaling_experiment(fields, "convective_commutator_lp", EPS_SWEEP, 3.0)
        with pytest.raises(ConfigurationError, match="pair"):
            scaling_experiment((u,), "cet_trilinear", EPS_SWEEP, 3.0)

    def test_convective_p_below_two_rejected_before_probing(self, monkeypatch):
        """The convective commutator is measured in L^(p/2): p in [1, 2) is
        rejected before either field is probed; the pairing takes it."""
        import eulerlab.besov

        def no_probe(*args):
            raise AssertionError("probed a field for a sweep that cannot run")

        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 8, seed=1, divfree=True)
        v = random_band_limited_velocity(grid, 8, seed=2, divfree=True)
        monkeypatch.setattr(eulerlab.besov, "_probe", no_probe)
        for alpha in (None, 0.6):
            with pytest.raises(ConfigurationError, match="p 1.5 is below 2"):
                scaling_experiment(u, "convective_commutator_lp", EPS_SWEEP, 1.5, alpha=alpha)
        monkeypatch.undo()
        report = scaling_experiment((u, v), "cet_trilinear", [0.5, 0.25, 0.125, 0.0625], 1.5,
                                    alpha=0.6)
        assert report.p_int == 1.5

    @pytest.mark.parametrize("quantity", ["convective_commutator_lp", "cet_trilinear"])
    def test_alpha_fitted_from_one_probe_per_field(self, monkeypatch, quantity):
        """Without ``alpha`` each field is probed once: the exponent is fitted
        from the probe's rows and the seminorm read from the same rows, with
        the report bitwise that of passing the fitted mean explicitly."""
        import eulerlab.besov
        from eulerlab.besov import fit_regularity_exponent

        grid = make_grid(2, 128)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=5, seed=4), grid)
        v = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=5, seed=5), grid)
        fields = u if quantity == "convective_commutator_lp" else (u, v)
        count = 1 if quantity == "convective_commutator_lp" else 2
        alpha = float(np.mean([fit_regularity_exponent(f, 3.0) for f in (u, v)[:count]]))
        expect = scaling_experiment(fields, quantity, EPS_SWEEP, 3.0, alpha=alpha)
        calls = []
        probe = eulerlab.besov._probe

        def counted(h, p_int):
            calls.append(p_int)
            return probe(h, p_int)

        monkeypatch.setattr(eulerlab.besov, "_probe", counted)
        got = scaling_experiment(fields, quantity, EPS_SWEEP, 3.0)
        assert len(calls) == count
        assert got.to_json_dict() == expect.to_json_dict()


def old_convective_commutator(v, kernel):
    """``convective_commutator`` before the product tensor: every ordered
    pair transformed on its own."""
    grid = v.grid
    v_eps = mollify(v, kernel)
    vv = [c.values for c in v.components]
    ve = [c.values for c in v_eps.components]
    smooth_hats = [
        [_dealiased_product(grid, ve[i], ve[j]) for j in range(grid.dims)]
        for i in range(grid.dims)
    ]
    raw_hats = [
        [_dealiased_product(grid, vv[i], vv[j]) for j in range(grid.dims)]
        for i in range(grid.dims)
    ]
    div_smooth = [_div_hat(grid, row) for row in smooth_hats]
    div_raw = [_div_hat(grid, row) for row in raw_hats]
    comps = []
    for i in range(grid.dims):
        hat = div_smooth[i] - div_raw[i] * kernel.multiplier
        comps.append(ScalarField.from_hat(grid, hat))
    return VelocityField(comps)


def physical_cet_trilinear(u, v, kernel):
    """``cet_trilinear`` before the Parseval pairing: each ``m_ij`` and each
    gradient transformed back and paired by a Riemann sum.  Returns the
    pairing and its row-major table of terms."""
    grid = u.grid
    u_eps = mollify(u, kernel)
    v_eps = mollify(v, kernel)
    uu = [c.values for c in u.components]
    ue = [c.values for c in u_eps.components]
    terms = [[0.0] * grid.dims for _ in range(grid.dims)]
    for i in range(grid.dims):
        for j in range(i, grid.dims):
            m = grid.irfftn(
                _dealiased_product(grid, uu[i], uu[j]) * kernel.multiplier
                - _dealiased_product(grid, ue[i], ue[j])
            )
            for a, b in {(i, j), (j, i)}:
                diff_hat = v_eps.components[a].hat - u_eps.components[a].hat
                g = grid.irfftn(1j * grid.deriv_wavenumber(b) * diff_hat)
                terms[a][b] = float(np.sum(m * g))
    total = 0.0
    for row in terms:
        for t in row:
            total += t
    return total * grid.cell_volume, [t * grid.cell_volume for row in terms for t in row]


class TestPairReuse:
    """Symmetric products are transformed once per unordered pair.  The
    convective commutator is bitwise that of the ordered-pair loops; the
    spectral CET pairing matches the physical-space one to round-off."""

    @pytest.fixture
    def fields(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 12, seed=31, divfree=True)
        v = random_band_limited_velocity(grid, 12, seed=32, divfree=True)
        return u, v, make_kernel(grid, 0.25)

    @pytest.mark.parametrize("dims,n", [(2, 64), (3, 16)])
    def test_convective_bitwise(self, dims, n):
        grid = make_grid(dims, n)
        v = random_band_limited_velocity(grid, 4, seed=33, divfree=True)
        kernel = make_kernel(grid, 0.25)
        new, old = convective_commutator(v, kernel), old_convective_commutator(v, kernel)
        for a, b in zip(new.components, old.components):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("dims,n", [(2, 64), (3, 16)])
    def test_cet_matches_physical_space(self, dims, n):
        grid = make_grid(dims, n)
        u = random_band_limited_velocity(grid, 4, seed=34, divfree=True)
        v = random_band_limited_velocity(grid, 4, seed=35, divfree=True)
        kernel = make_kernel(grid, 0.25)
        expect, terms = physical_cet_trilinear(u, v, kernel)
        got = cet_trilinear(u, v, kernel)
        assert abs(got - expect) <= 1e-13 * sum(abs(t) for t in terms)

    def test_convective_transform_count(self, fields, monkeypatch):
        u, _, kernel = fields
        calls = count_transforms(monkeypatch)
        convective_commutator(u, kernel)
        # 3 raw products + 2 mollified components + 3 products + 2 result components
        assert len(calls) == 10

    def test_cet_transform_count(self, fields, monkeypatch):
        u, v, kernel = fields
        calls = count_transforms(monkeypatch)
        cet_trilinear(u, v, kernel)
        # 3 raw products + 2 mollified components of u + 3 products
        assert len(calls) == 8


class TestSweep:
    """A sweep builds the epsilon-independent terms once and evaluates each
    scale through the same helper as the public functions."""

    EPS = [0.5, 0.25, 0.125, 0.0625]

    @pytest.fixture
    def fields(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 12, seed=36, divfree=True)
        v = random_band_limited_velocity(grid, 12, seed=37, divfree=True)
        return u, v

    def magnitudes(self, quantity, fields):
        """The magnitudes of a sweep of ``quantity``'s route on ``fields``; the
        seminorms and ``alpha`` scale only the constants."""
        route = _BY_QUANTITY[quantity]
        return _sweep(route, fields, [1.0] * len(fields), 0.6, self.EPS, 3.0)[1]

    def test_convective_equals_public_calls(self, fields):
        v, _ = fields
        got = self.magnitudes("convective_commutator_lp", (v,))
        expect = [lp_norm(convective_commutator(v, make_kernel(v.grid, e)), 1.5)
                  for e in self.EPS]
        assert got == expect

    def test_cet_equals_public_calls(self, fields):
        u, v = fields
        got = self.magnitudes("cet_trilinear", (u, v))
        expect = [abs(cet_trilinear(u, v, make_kernel(u.grid, e))) for e in self.EPS]
        assert got == expect

    def test_convective_sweep_builds_no_fields(self, fields, monkeypatch):
        """The convective sweep stays on arrays: no ``ScalarField.from_hat``
        per scale (the kernel's own samples are a plain ``ScalarField``)."""
        v, _ = fields
        calls = []
        from_hat = ScalarField.from_hat.__func__

        def counted(cls, grid, hat):
            calls.append(hat.shape)
            return from_hat(cls, grid, hat)

        monkeypatch.setattr(ScalarField, "from_hat", classmethod(counted))
        self.magnitudes("convective_commutator_lp", (v,))
        assert calls == []

    @pytest.mark.parametrize("quantity,count", [
        # 3 raw products, then per epsilon 1 kernel + 7
        ("convective_commutator_lp", 3 + 4 * 8),
        # 3 raw products, then per epsilon 1 kernel + 5
        ("cet_trilinear", 3 + 4 * 6),
    ])
    def test_transform_count(self, fields, monkeypatch, quantity, count):
        u, v = fields
        calls = count_transforms(monkeypatch)
        self.magnitudes(quantity, (u, v) if _BY_QUANTITY[quantity].pair else (u,))
        assert len(calls) == count


class TestMemory:
    """The CET sweep holds only the product table across scales, and one
    scale's pairing streams ``m_ij`` pair by pair (``tracemalloc`` sees
    numpy's data buffers; the bounds sit between the streamed and the
    all-at-once layouts, 3 vs 5 held and 5 vs 8-9 transient)."""

    @pytest.fixture
    def fields(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 12, seed=38, divfree=True)
        v = random_band_limited_velocity(grid, 12, seed=39, divfree=True)
        for c in (*u.components, *v.components):
            c.hat  # the cached spectra are inputs, not the sweep's
        return u, v

    def test_cet_raw_holds_only_products(self, fields):
        from eulerlab.grid_fields import _dealiased_product_tensor

        u, _ = fields
        raw, held, _ = traced_half_spectra(
            u.grid, lambda: _dealiased_product_tensor(u.grid, [c.values for c in u.components]))
        assert len(raw) == 2
        assert held <= 3.5

    def test_cet_at_transient_peak(self, fields):
        from eulerlab.commutator import _cet_at
        from eulerlab.grid_fields import _dealiased_product_tensor

        u, v = fields
        products = _dealiased_product_tensor(u.grid, [c.values for c in u.components])
        kernel = make_kernel(u.grid, 0.25)
        value, _, peak = traced_half_spectra(
            u.grid, lambda: _cet_at(u, v, products, kernel))
        assert value == cet_trilinear(u, v, kernel)
        assert peak <= 6.0


class TestSweepProblems:
    """``_sweep_problems`` names each broken rule of a sweep once."""

    GRID = make_grid(2, 64)  # admits scales in [0.0625, 0.5]

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("epsilons, p_int, problem, routes", [
        ([0.5, 0.25, 0.125, 0.0625], 3.0, None, ()),
        ([0.0625, 0.5, 0.125, 0.25], 3.0, None, ()),
        ([0.5, 0.25, 0.125], 3.0, "need at least 4 epsilons for a rate fit, got 3", ROUTES),
        ([0.5, 0.25, 0.125, 0.125], 3.0, "the sweep's epsilons must be distinct", ROUTES),
        ([0.5, 0.25, 0.125, 0.03125], 3.0, "below the admissible floor", ROUTES),
        ([0.5, 0.25, 0.125, 0.0], 3.0, "epsilon 0.0 is not positive", ROUTES),
        ([1.0, 0.5, 0.25, 0.125], 3.0, "epsilon 1.0 above the maximum 0.5", ROUTES),
        ([0.5, 0.25, 0.125, 0.0625], 1.5, "p 1.5 is below 2", ("convective",)),
    ], ids=["sorted", "unordered", "three", "repeated", "below-floor", "zero", "above-max",
            "p-below-two"])
    def test_one_message_per_rule(self, route, epsilons, p_int, problem, routes):
        problems = _sweep_problems(ROUTES[route], epsilons, self.GRID, p_int)
        if route in routes:
            assert len(problems) == 1
            assert problem in problems[0]
        else:
            assert problems == []

    def test_every_broken_rule_is_reported(self):
        """Three scales, one repeated and one below the floor, at a p the
        convective route does not admit: four problems, in rule order."""
        problems = _sweep_problems(ROUTES["convective"], [0.5, 0.01, 0.5], self.GRID, 1.5)
        assert [p.split()[:2] for p in problems] == [
            ["p", "1.5"], ["need", "at"], ["the", "sweep's"], ["epsilon", "0.01"]]
