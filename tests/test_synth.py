import numpy as np
import pytest

from eulerlab.besov import fit_regularity_exponent
from eulerlab.errors import ConfigurationError
from eulerlab.grid_fields import (
    PeriodicGrid,
    VelocityField,
    _div_hat,
    divergence,
    gradient,
    leray_project,
    lp_norm,
    make_grid,
    max_norm,
)
from eulerlab.synth import (
    SynthSpec,
    field_from_spec,
    lacunary_field,
    low_mode_divfree,
    low_mode_scalar,
    random_divfree,
    shear_flow,
    taylor_green,
    taylor_green_pressure,
)

from _utils import count_transforms


class TestSynthSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            SynthSpec("vortex_sheet")

    def test_lacunary_needs_alpha(self):
        with pytest.raises(ConfigurationError):
            SynthSpec("lacunary", j_max=4)


class TestLacunary:
    def test_deterministic(self):
        grid = make_grid(2, 128)
        spec = SynthSpec("lacunary", alpha=0.5, j_max=5, seed=42)
        a = lacunary_field(spec, grid)
        b = lacunary_field(spec, grid)
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.values, cb.values)

    def test_divergence_free(self):
        for n, j_max, seed in ((128, 5, 1), (512, 7, 7)):
            grid = make_grid(2, n)
            u = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=j_max, seed=seed), grid)
            assert u.check_divergence_free()
            assert max_norm(divergence(u)) <= 1e-10 * max_norm(u)

    def test_spectrum_exactly_transverse(self):
        # no projection runs after synthesis, so k . u_hat must cancel exactly
        for n, j_max in ((64, 4), (512, 7)):
            grid = make_grid(2, n)
            for seed, alpha in ((0, 0.3), (5, 0.6), (31, 0.9)):
                spec = SynthSpec("lacunary", alpha=alpha, j_max=j_max, seed=seed)
                u = lacunary_field(spec, grid)
                assert not np.any(_div_hat(grid, [c.hat for c in u.components]))

    def test_band_limit_enforced(self):
        grid = make_grid(2, 64)  # dealias_kmax = 21
        with pytest.raises(ConfigurationError, match="dealiased band"):
            lacunary_field(SynthSpec("lacunary", alpha=0.5, j_max=5, seed=0), grid)

    def test_round_trip_exponent(self):
        grid = make_grid(2, 256)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.5, j_max=6, seed=42), grid)
        assert fit_regularity_exponent(u, 3.0) == pytest.approx(0.5, abs=0.05)

    def test_single_octave_is_smooth(self):
        grid = make_grid(2, 256)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.5, j_max=1, seed=3), grid)
        assert fit_regularity_exponent(u, 3.0) >= 0.9


class TestSpectralLacunary:
    """The spectral construction against the physical-space one it replaced:
    one cosine carrier per octave mode, summed on the lattice, then a Leray
    projection."""

    # finest octave per grid size, inside the dealiased band
    J_MAX = {64: 4, 128: 5, 512: 7}

    @staticmethod
    def physical_space(spec, grid):
        gen = np.random.Generator(np.random.Philox(key=spec.seed))
        directions = ((1, 0), (0, 1), (1, 1), (1, -1))
        x = grid.meshgrid()
        out = [np.zeros(grid.shape) for _ in range(grid.dims)]
        ir = 2.0 ** (2.0 - 2.0 * spec.alpha)
        ir_boost = np.sqrt(ir / (ir - 1.0))
        for j in range(1, spec.j_max + 1):
            scale = spec.amplitude * 2.0 ** (-spec.alpha * j)
            if j == 1:
                scale *= ir_boost
            order = gen.permutation(len(directions))
            for m in order:
                d = np.asarray(directions[m], dtype=float)
                amp = gen.uniform(0.75, 1.25)
                phase = gen.uniform(0.0, 2.0 * np.pi)
                sign = 1.0 if gen.integers(0, 2) == 1 else -1.0
                e = sign * np.array([-d[1], d[0]]) / np.linalg.norm(d)
                carrier = np.cos((1 << j) * np.pi * (d[0] * x[0] + d[1] * x[1]) + phase)
                for a in range(grid.dims):
                    out[a] += scale * amp * e[a] * carrier
        return leray_project(VelocityField.from_arrays(grid, out))

    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_matches_physical_space(self, n):
        grid = make_grid(2, n)
        for alpha in (0.35, 0.6, 0.9):
            for seed in range(4):
                spec = SynthSpec("lacunary", alpha=alpha, j_max=self.J_MAX[n], seed=seed)
                got = lacunary_field(spec, grid)
                expect = self.physical_space(spec, grid)
                tol = 1e-13 * expect.max_speed()
                for c, e in zip(got.components, expect.components):
                    assert np.max(np.abs(c.values - e.values)) <= tol

    def test_amplitude_scales_linearly(self):
        grid = make_grid(2, 128)
        one = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=5, seed=2), grid)
        three = lacunary_field(
            SynthSpec("lacunary", alpha=0.6, j_max=5, seed=2, amplitude=3.0), grid
        )
        assert three.max_speed() == pytest.approx(3.0 * one.max_speed(), rel=1e-14)
        for a, b in zip(one.components, three.components):
            np.testing.assert_allclose(b.values, 3.0 * a.values, rtol=0.0,
                                       atol=1e-14 * three.max_speed())

    def test_no_forward_transform_and_no_coordinates(self, monkeypatch):
        grid = make_grid(2, 128)
        calls = count_transforms(monkeypatch)

        def no_meshgrid(self):
            raise AssertionError("lacunary synthesis sampled coordinates")

        monkeypatch.setattr(PeriodicGrid, "meshgrid", no_meshgrid)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=5, seed=1), grid)
        assert calls.count("rfftn") == 0
        assert calls.count("irfftn") == grid.dims
        # each component arrives with the spectrum its samples came from
        for c in u.components:
            assert c._hat is not None
            np.testing.assert_allclose(np.fft.rfftn(c.values), c._hat, rtol=0.0,
                                       atol=1e-12 * grid.n_per_axis**2 * u.max_speed())


class TestTaylorGreen:
    def test_divergence(self):
        grid = make_grid(2, 256)
        u = taylor_green(grid, 1.0)
        assert max_norm(divergence(u)) <= 1e-12

    def test_kinetic_energy(self):
        # 0.5 * int |u|^2 = 0.5 * (1 + 1) * amplitude^2 per the product-mode
        # quadrature (int sin^2 = int cos^2 = 1 on [-1,1]).
        grid = make_grid(2, 256)
        u = taylor_green(grid, 1.0)
        assert 0.5 * lp_norm(u, 2.0) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude(self):
        grid = make_grid(2, 64)
        u = taylor_green(grid, 0.0)
        assert max_norm(u) == 0.0

    def test_pressure_sampled(self):
        grid = make_grid(2, 64)
        p = taylor_green_pressure(grid, 2.0)
        assert p.values[0, 0] == pytest.approx(0.25 * 4.0 * 2.0, abs=1e-12)


class TestShearFlow:
    def test_divergence_exact(self):
        grid = make_grid(2, 128)
        profile = grid.sample_scalar(lambda x, y: np.sin(np.pi * y))
        u = shear_flow(grid, profile)
        assert max_norm(divergence(u)) <= 1e-12

    def test_rejects_x1_dependence(self):
        grid = make_grid(2, 64)
        profile = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        with pytest.raises(ConfigurationError, match="x2 only"):
            shear_flow(grid, profile)

    def test_constant_profile_has_zero_gradient(self):
        grid = make_grid(2, 64)
        profile = grid.sample_scalar(lambda x, y: 2.0 + 0.0 * x)
        u = shear_flow(grid, profile)
        T = np.array([[g.values for g in gradient(c).components] for c in u.components])
        assert np.max(np.abs(T)) <= 1e-12


class TestRandomDivfree:
    def test_deterministic(self):
        grid = make_grid(2, 128)
        a = random_divfree(grid, 3.0, seed=9)
        b = random_divfree(grid, 3.0, seed=9)
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.values, cb.values)

    def test_divergence_free(self):
        grid = make_grid(2, 128)
        u = random_divfree(grid, 2.0, seed=5)
        assert max_norm(divergence(u)) <= 1e-10 * max_norm(u)

    def test_steep_slope_is_regular(self):
        grid = make_grid(2, 256)
        u = random_divfree(grid, 3.0, seed=4)
        assert fit_regularity_exponent(u, 2.0) >= 0.8

    def test_amplitude_normalization(self):
        grid = make_grid(2, 128)
        u = random_divfree(grid, 2.5, seed=6, amplitude=0.5)
        assert u.max_speed() == pytest.approx(0.5, rel=1e-12)


class TestFieldFromSpec:
    def test_dispatch(self):
        grid = make_grid(2, 64)
        for kind, kw in (
            ("taylor_green", {}),
            ("shear", {}),
            ("constant", {}),
            ("lacunary", {"alpha": 0.5, "j_max": 3}),
            ("random_divfree", {"slope": 3.0}),
        ):
            u = field_from_spec(SynthSpec(kind, seed=1, **kw), grid)
            assert u.grid == grid


class TestGridVocabulary:
    """The generators draw bands and transforms from the grid; the oracles
    are the generators' former private loops and direct numpy calls."""

    @staticmethod
    def old_mask(grid, kmax):
        n = grid.n_per_axis
        mask = np.ones(grid.rshape, dtype=bool)
        for axis in range(grid.dims):
            f = (
                np.arange(n // 2 + 1, dtype=float)
                if axis == grid.dims - 1
                else np.fft.fftfreq(n, 1.0 / n)
            )
            shape = [1] * grid.dims
            shape[axis] = -1
            mask &= (np.abs(f) <= kmax).reshape(shape)
        return mask

    @staticmethod
    def normalized(grid, comps, amplitude):
        u = leray_project(VelocityField.from_arrays(grid, comps))
        speed = u.max_speed()
        return [amplitude / speed * c.values for c in u.components]

    def test_random_divfree_bitwise(self):
        grid = make_grid(2, 64)
        gen = np.random.Generator(np.random.Philox(key=3))
        n = grid.n_per_axis
        kmag2 = np.zeros(grid.rshape)
        for axis in range(grid.dims):
            f = (
                np.arange(n // 2 + 1, dtype=float)
                if axis == grid.dims - 1
                else np.fft.fftfreq(n, 1.0 / n)
            )
            shape = [1] * grid.dims
            shape[axis] = -1
            kmag2 = kmag2 + (f.reshape(shape)) ** 2
        with np.errstate(divide="ignore"):
            envelope = np.where(kmag2 > 0.0, np.sqrt(kmag2) ** (-2.5), 0.0)
        envelope *= grid.dealias_mask
        hats = [np.fft.rfftn(gen.standard_normal(grid.shape)) * envelope for _ in range(2)]
        expect = self.normalized(grid, [grid.irfftn(h) for h in hats], 0.7)
        got = random_divfree(grid, 2.5, seed=3, amplitude=0.7)
        for c, e in zip(got.components, expect):
            assert np.array_equal(c.values, e)

    def test_low_mode_divfree_bitwise(self):
        grid = make_grid(2, 32)
        gen = np.random.Generator(np.random.Philox(key=8))
        mask = self.old_mask(grid, 3)
        comps = [grid.irfftn(np.fft.rfftn(gen.standard_normal(grid.shape)) * mask)
                 for _ in range(2)]
        expect = self.normalized(grid, comps, 1.0)
        got = low_mode_divfree(grid, 3, seed=8)
        for c, e in zip(got.components, expect):
            assert np.array_equal(c.values, e)

    def test_low_mode_scalar_bitwise(self):
        grid = make_grid(2, 32)
        noise = np.random.Generator(np.random.Philox(key=5)).standard_normal(grid.shape)
        vals = grid.irfftn(np.fft.rfftn(noise) * self.old_mask(grid, 4))
        vals *= 1.0 / np.abs(vals).max()
        assert np.array_equal(low_mode_scalar(grid, 4, seed=5).values, vals)

    @pytest.mark.parametrize("kmax", [0, 11])
    def test_kmax_outside_dealiased_band(self, kmax):
        grid = make_grid(2, 32)
        for make in (low_mode_scalar, low_mode_divfree):
            with pytest.raises(ConfigurationError, match=r"kmax must lie in \[1, 10\]"):
                make(grid, kmax, seed=0)
