from pathlib import Path

import numpy as np
import pytest

import eulerlab
from eulerlab.errors import ConfigurationError, GridMismatchError
from eulerlab.grid_fields import (
    ScalarField,
    VelocityField,
    _BandWork,
    _dealiased_product,
    _dealiased_product_tensor,
    _div_hat,
    _leray_hats,
    divergence,
    gradient,
    inner,
    leray_project,
    lp_norm,
    make_grid,
    max_norm,
    resample,
)

from _utils import (
    count_transforms,
    fd4_gradient,
    random_band_limited_scalar,
    random_band_limited_velocity,
)


class TestMakeGrid:
    def test_spacing(self):
        grid = make_grid(2, 64)
        assert grid.spacing == 2.0 / 64
        assert grid.spacing * grid.n_per_axis == 2.0

    def test_point_count_3d(self):
        grid = make_grid(3, 8)
        assert int(np.prod(grid.shape)) == 512

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            make_grid(2, 7)

    def test_rejects_low_dims_and_small_n(self):
        with pytest.raises(ConfigurationError):
            make_grid(1, 64)
        with pytest.raises(ConfigurationError):
            make_grid(2, 4)

    @pytest.mark.parametrize("dims,n", [(2, 8), (2, 64), (2, 512), (3, 16)])
    def test_inverse_laplacian_symbol(self, dims, n):
        """``1/|k|^2`` of the derivative multipliers, 0 where ``|k|^2`` is 0,
        bitwise as the out-of-place formula gives it."""
        grid = make_grid(dims, n)
        k2 = sum(grid.deriv_wavenumber(a) ** 2 for a in range(dims))
        with np.errstate(divide="ignore"):
            expect = np.where(k2 > 0.0, 1.0 / np.where(k2 > 0.0, k2, 1.0), 0.0)
        assert np.array_equal(grid.inv_k_squared, expect)
        assert not grid.inv_k_squared.flags.writeable

    def test_wavenumbers_are_pi_multiples(self):
        grid = make_grid(2, 16)
        k = grid.wavenumbers[0]
        ints = np.fft.fftfreq(16, 1.0 / 16)
        assert np.array_equal(k, np.pi * ints)


class TestFieldContainers:
    def test_values_frozen(self):
        grid = make_grid(2, 16)
        f = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_rejects_nonfinite(self):
        grid = make_grid(2, 16)
        bad = np.full(grid.shape, np.nan)
        with pytest.raises(ConfigurationError):
            ScalarField(grid, bad)

    def test_component_grid_mismatch(self):
        a = make_grid(2, 16)
        b = make_grid(2, 32)
        fa = a.sample_scalar(lambda x, y: x * 0.0)
        fb = b.sample_scalar(lambda x, y: x * 0.0)
        with pytest.raises(GridMismatchError):
            VelocityField([fa, fb])

    def test_spectral_roundtrip(self):
        grid = make_grid(2, 64)
        f = random_band_limited_scalar(grid, 20, seed=7)
        back = grid.irfftn(f.hat)
        assert np.max(np.abs(back - f.values)) <= 1e-12 * max(1.0, np.abs(f.values).max())

    def test_from_hat_keeps_the_inverse_transform(self, monkeypatch):
        grid = make_grid(2, 32)
        hat = random_band_limited_scalar(grid, 8, seed=2).hat
        returned = []
        irfftn = type(grid).irfftn

        def recorded(self, h):
            returned.append(irfftn(self, h))
            return returned[-1]

        monkeypatch.setattr(type(grid), "irfftn", recorded)
        f = ScalarField.from_hat(grid, hat)
        assert len(returned) == 1 and f.values is returned[0]
        assert not f.values.flags.writeable
        assert np.array_equal(f.values, ScalarField(grid, irfftn(grid, hat)).values)
        assert np.array_equal(f.hat, hat) and f.hat is not hat
        with pytest.raises(ConfigurationError):
            ScalarField.from_hat(grid, np.full(grid.rshape, np.nan + 0j))


class TestGradient:
    def test_constant_is_zero(self):
        grid = make_grid(2, 32)
        f = grid.sample_scalar(lambda x, y: 5.0 + 0.0 * x)
        g = gradient(f)
        assert max_norm(g) <= 1e-13

    def test_single_mode_analytic(self):
        grid = make_grid(2, 64)
        f = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        g = gradient(f)
        x, _ = grid.meshgrid()
        assert np.max(np.abs(g.components[0].values - np.pi * np.cos(np.pi * x))) <= 1e-12
        assert np.max(np.abs(g.components[1].values)) <= 1e-13

    def test_matches_fd4_at_fd_rate(self):
        # The FD oracle converges at 4th order to the spectral derivative.
        errs = []
        for n in (64, 128):
            grid = make_grid(2, n)
            f = random_band_limited_scalar(grid, 6, seed=11)
            g = gradient(f)
            fd = fd4_gradient(f.values, axis=0, spacing=grid.spacing)
            errs.append(np.max(np.abs(g.components[0].values - fd)))
        assert errs[1] <= errs[0] / 8.0


class TestDivergence:
    def test_constant_field(self):
        grid = make_grid(2, 32)
        u = grid.sample_velocity(lambda x, y: 1.0 + 0.0 * x, lambda x, y: -2.0 + 0.0 * x)
        assert max_norm(divergence(u)) <= 1e-13

    def test_analytic(self):
        grid = make_grid(2, 64)
        u = grid.sample_velocity(lambda x, y: np.sin(np.pi * x), lambda x, y: 0.0 * x)
        d = divergence(u)
        x, _ = grid.meshgrid()
        assert np.max(np.abs(d.values - np.pi * np.cos(np.pi * x))) <= 1e-12

    def test_after_projection(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 18, seed=3)
        p = leray_project(u)
        assert max_norm(divergence(p)) <= 1e-10 * max_norm(p)
        assert p.check_divergence_free()


class TestLerayProject:
    def test_kills_zero_mean_gradients(self):
        grid = make_grid(2, 64)
        phi = random_band_limited_scalar(grid, 12, seed=5)
        g = gradient(phi)
        proj = leray_project(g)
        assert max_norm(proj) <= 1e-11 * max(1.0, max_norm(g))

    def test_idempotent(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 18, seed=9)
        once = leray_project(u)
        twice = leray_project(once)
        scale = max(1.0, max_norm(once))
        for a, b in zip(once.components, twice.components):
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale

    def test_transverse_mode_is_fixed_point(self):
        grid = make_grid(2, 64)
        u = grid.sample_velocity(lambda x, y: np.sin(np.pi * y), lambda x, y: 0.0 * x)
        p = leray_project(u)
        # Each mode of u is transverse (k along x2, amplitude along x1): k.u_hat = 0.
        for a, b in zip(u.components, p.components):
            assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_preserves_constants(self):
        grid = make_grid(2, 16)
        u = grid.sample_velocity(lambda x, y: 3.0 + 0.0 * x, lambda x, y: -1.0 + 0.0 * x)
        p = leray_project(u)
        assert np.allclose(p.components[0].values, 3.0, atol=1e-13)
        assert np.allclose(p.components[1].values, -1.0, atol=1e-13)


class TestLpNorm:
    def test_constant(self):
        grid = make_grid(2, 32)
        f = grid.sample_scalar(lambda x, y: 1.0 + 0.0 * x)
        assert lp_norm(f, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_single_mode(self):
        # integral of sin^2(pi x) over [-1,1] is 1, times 2 on the idle axis.
        grid = make_grid(2, 64)
        f = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_homogeneity(self):
        grid = make_grid(2, 32)
        f = random_band_limited_scalar(grid, 8, seed=2)
        lam = 3.7
        scaled = ScalarField(grid, lam * f.values)
        assert lp_norm(scaled, 3.0) == pytest.approx(lam * lp_norm(f, 3.0), rel=1e-12)

    def test_rejects_p_below_one(self):
        grid = make_grid(2, 16)
        f = grid.sample_scalar(lambda x, y: 0.0 * x)
        with pytest.raises(ConfigurationError):
            lp_norm(f, 0.5)

    def test_rejects_nan_p(self):
        grid = make_grid(2, 16)
        f = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        u = grid.sample_velocity(lambda x, y: np.sin(np.pi * x), lambda x, y: np.cos(np.pi * y))
        for field in (f, u):
            with pytest.raises(ConfigurationError, match="p must be >= 1"):
                lp_norm(field, float("nan"))

    def test_vector_uses_euclidean_magnitude(self):
        grid = make_grid(2, 32)
        u = grid.sample_velocity(lambda x, y: 3.0 + 0.0 * x, lambda x, y: 4.0 + 0.0 * x)
        # |u| = 5 everywhere, |Omega| = 4.
        assert lp_norm(u, 2.0) == pytest.approx(10.0, abs=1e-12)


class TestAdjointness:
    def test_gradient_divergence_adjoint(self):
        grid = make_grid(2, 64)
        f = random_band_limited_scalar(grid, 15, seed=21)
        u = random_band_limited_velocity(grid, 15, seed=22)
        lhs = inner(gradient(f), u)
        rhs = -inner(f, divergence(u))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


class TestThreeDimensional:
    # the solver is 2D-only, but the field calculus must work in 3D
    def test_gradient_and_leray(self):
        grid = make_grid(3, 16)
        f = grid.sample_scalar(lambda x, y, z: np.sin(np.pi * x) * np.cos(np.pi * z))
        g = gradient(f)
        x, _, z = grid.meshgrid()
        assert np.max(
            np.abs(g.components[0].values - np.pi * np.cos(np.pi * x) * np.cos(np.pi * z))
        ) <= 1e-12
        u = grid.sample_velocity(
            lambda x, y, z: np.sin(np.pi * y),
            lambda x, y, z: np.sin(np.pi * z),
            lambda x, y, z: np.sin(np.pi * x),
        )
        p = leray_project(u)
        assert max_norm(divergence(p)) <= 1e-10 * max(1.0, max_norm(p))

    def test_lp_norm(self):
        grid = make_grid(3, 16)
        one = grid.sample_scalar(lambda x, y, z: 1.0 + 0.0 * x)
        # |Omega| = 8 in 3D
        assert lp_norm(one, 2.0) == pytest.approx(np.sqrt(8.0), abs=1e-12)


class TestResample:
    def test_band_limited_restriction_exact(self):
        fine = make_grid(2, 128)
        coarse = make_grid(2, 64)
        f = random_band_limited_scalar(fine, 10, seed=4)
        r = resample(f, coarse)
        # Modes <= 10 are exactly representable at 64, so restriction subsamples.
        assert np.max(np.abs(r.values - f.values[::2, ::2])) <= 1e-12

    def test_prolong_then_restrict_is_identity(self):
        coarse = make_grid(2, 64)
        fine = make_grid(2, 128)
        f = random_band_limited_scalar(coarse, 12, seed=6)
        back = resample(resample(f, fine), coarse)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_same_grid_passthrough(self):
        grid = make_grid(2, 32)
        f = random_band_limited_scalar(grid, 5, seed=8)
        assert resample(f, grid) is f


def old_dealias_mask(grid):
    """The dealias-mask loop of ``PeriodicGrid.__init__`` before ``band_mask``."""
    mask = np.ones(grid.rshape, dtype=bool)
    for axis in range(grid.dims):
        f = grid._freq_half if axis == grid.dims - 1 else grid._freq_full
        keep = np.abs(f) <= grid.dealias_kmax
        shape = [1] * grid.dims
        shape[axis] = -1
        mask &= keep.reshape(shape)
    return mask


def old_low_mode_mask(grid, kmax):
    """The synthesis module's private ``_low_mode_mask`` before ``band_mask``."""
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


class TestBands:
    @pytest.mark.parametrize("dims,n", [(2, 16), (2, 64), (3, 8)])
    def test_dealias_mask_is_the_dealias_band(self, dims, n):
        grid = make_grid(dims, n)
        assert np.array_equal(grid.band_mask(grid.dealias_kmax), old_dealias_mask(grid))
        assert np.array_equal(grid.dealias_mask, old_dealias_mask(grid))

    @pytest.mark.parametrize("kmax", [1, 3, 10, 21])
    def test_band_mask_matches_low_mode_mask(self, kmax):
        grid = make_grid(2, 64)
        assert np.array_equal(grid.band_mask(kmax), old_low_mode_mask(grid, kmax))

    @pytest.mark.parametrize("dims,n", [(2, 16), (3, 8)])
    def test_derivative_multipliers_zero_nyquist(self, dims, n):
        grid = make_grid(dims, n)
        for axis in range(dims):
            if axis == dims - 1:
                f = np.arange(n // 2 + 1, dtype=float)
                f[-1] = 0.0
            else:
                f = np.fft.fftfreq(n, d=1.0 / n)
                f[n // 2] = 0.0
            shape = [1] * dims
            shape[axis] = -1
            assert np.array_equal(grid.deriv_wavenumber(axis), (np.pi * f).reshape(shape))

    @pytest.mark.parametrize("dims,n", [(2, 16), (3, 8)])
    def test_spectral_constants_are_read_only(self, dims, n):
        """``ik`` holds ``1j`` times each derivative multiplier, and neither
        it nor ``parseval_weights`` can be written."""
        grid = make_grid(dims, n)
        assert isinstance(grid.ik, tuple) and len(grid.ik) == dims
        for axis, ik in enumerate(grid.ik):
            assert np.array_equal(ik, 1j * grid.deriv_wavenumber(axis))
            assert not ik.flags.writeable
            with pytest.raises(ValueError):
                ik[...] = 0.0
        assert grid.parseval_weights.shape == (2 * grid.rshape[-1],)
        assert not grid.parseval_weights.flags.writeable
        with pytest.raises(ValueError):
            grid.parseval_weights[0] = 0.0

    def test_integer_k_squared(self):
        grid = make_grid(2, 16)
        kx = np.fft.fftfreq(16, 1.0 / 16)[:, None]
        ky = np.arange(9, dtype=float)[None, :]
        assert np.array_equal(grid.integer_k_squared(), kx**2 + ky**2)


BAND_GRIDS = [(2, 8), (2, 16), (2, 64), (2, 128)]


class TestBandTransforms:
    """Band mode of ``rfftn``/``irfftn``: numpy's passes pruned to the
    compressed dealias band, with the same bits."""

    @staticmethod
    def random_band(grid, gen):
        band = gen.standard_normal(grid.band_shape) + 1j * gen.standard_normal(grid.band_shape)
        band[(0,) * grid.dims] = band[(0,) * grid.dims].real
        return band

    @pytest.mark.parametrize("dims,n", BAND_GRIDS + [(3, 16)])
    def test_band_layout(self, dims, n):
        grid = make_grid(dims, n)
        k = grid.dealias_kmax
        assert grid.band_shape == (2 * k + 1,) * (dims - 1) + (k + 1,)
        mask = np.zeros(grid.rshape, dtype=bool)
        mask[grid.band_index] = True
        assert np.array_equal(mask, grid.dealias_mask)
        hat = np.arange(np.prod(grid.rshape), dtype=complex).reshape(grid.rshape)
        assert np.array_equal(grid.to_band(hat), hat[grid.dealias_mask].reshape(grid.band_shape))
        assert np.array_equal(grid.from_band(grid.to_band(hat)), hat * grid.dealias_mask)
        for band_ik, ik in zip(grid.band_ik, grid.ik):
            assert np.array_equal(np.broadcast_to(band_ik, grid.band_shape), grid.to_band(ik))
            assert not band_ik.flags.writeable

    @pytest.mark.parametrize("dims,n", BAND_GRIDS)
    def test_forward_is_bitwise_the_full_transform_on_the_band(self, dims, n):
        grid = make_grid(dims, n)
        gen = np.random.default_rng(n + dims)
        work, out = _BandWork(grid), np.empty(grid.band_shape, dtype=complex)
        for _ in range(2):  # samples that are not band-limited, then band-limited ones
            for x in (gen.standard_normal(grid.shape),
                      grid.irfftn(grid.from_band(self.random_band(grid, gen)))):
                expect = grid.rfftn(x)[grid.band_index]
                assert np.array_equal(grid.rfftn(x, band=_BandWork(grid)), expect)
                got = grid.rfftn(x, band=work, out=out)  # reused: work, out
                assert got is out
                assert np.array_equal(got, expect)
                assert np.array_equal(got, (grid.rfftn(x) * grid.dealias_mask)[grid.band_index])

    @pytest.mark.parametrize("dims,n", BAND_GRIDS)
    def test_inverse_is_bitwise_the_full_transform_of_the_padded_band(self, dims, n):
        grid = make_grid(dims, n)
        gen = np.random.default_rng(2 * n + dims)
        work, out = _BandWork(grid), np.empty(grid.shape)
        for _ in range(2):  # random band spectra, then spectra of rough samples
            for spectrum in (self.random_band(grid, gen),
                             grid.rfftn(gen.standard_normal(grid.shape), band=work)):
                expect = grid.irfftn(grid.from_band(spectrum))
                assert np.array_equal(grid.irfftn(spectrum, band=_BandWork(grid)), expect)
                got = grid.irfftn(spectrum, band=work, out=out)  # reused: work, out
                assert got is out
                assert np.array_equal(got, expect)

    def test_band_work_needs_a_2d_grid(self):
        with pytest.raises(ConfigurationError, match="dims=2 only, got dims=3"):
            _BandWork(make_grid(3, 16))


class TestProductTensor:
    def test_symmetric_and_equal_to_each_ordered_product(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 12, seed=21)
        arrays = [c.values for c in u.components]
        table = _dealiased_product_tensor(grid, arrays)
        for i in range(grid.dims):
            for j in range(grid.dims):
                assert table[i][j] is table[j][i]
                assert np.array_equal(table[i][j], _dealiased_product(grid, arrays[i], arrays[j]))

    def test_one_transform_per_unordered_pair(self, monkeypatch):
        grid = make_grid(3, 8)
        arrays = [c.values for c in random_band_limited_velocity(grid, 2, seed=4).components]
        calls = count_transforms(monkeypatch)
        _dealiased_product_tensor(grid, arrays)
        assert calls == ["rfftn"] * 6


class TestInPlaceAccumulation:
    """``_div_hat`` and ``_leray_hats`` accumulate in place, bitwise equal
    to their former out-of-place expressions."""

    @staticmethod
    def old_div_hat(grid, hats):
        acc = np.zeros(grid.rshape, dtype=complex)
        for axis, h in enumerate(hats):
            acc = acc + 1j * grid.deriv_wavenumber(axis) * h
        return acc

    @staticmethod
    def old_leray_hats(grid, hats):
        k_dot = np.zeros(grid.rshape, dtype=complex)
        for axis, h in enumerate(hats):
            k_dot = k_dot + grid.deriv_wavenumber(axis) * h
        scale = k_dot * grid.inv_k_squared
        return [h - grid.deriv_wavenumber(axis) * scale for axis, h in enumerate(hats)]

    @pytest.mark.parametrize("dims,n", [(2, 64), (3, 16)])
    def test_bitwise(self, dims, n):
        grid = make_grid(dims, n)
        hats = [c.hat for c in random_band_limited_velocity(grid, n // 2, seed=22).components]
        assert np.array_equal(_div_hat(grid, hats), self.old_div_hat(grid, hats))
        for new, old in zip(_leray_hats(grid, hats), self.old_leray_hats(grid, hats)):
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("dims,n", [(2, 64), (3, 16)])
    def test_band_divergence_is_the_full_one_on_the_band(self, dims, n):
        grid = make_grid(dims, n)
        hats = [c.hat for c in random_band_limited_velocity(grid, n // 2, seed=23).components]
        bands = iter([grid.to_band(h) for h in hats])  # drawn one at a time
        assert np.array_equal(_div_hat(grid, bands, band=True),
                              grid.to_band(_div_hat(grid, hats)))


def test_numpy_fft_only_in_grid_fields():
    """Every transform goes through ``PeriodicGrid.rfftn``/``irfftn``, so FFT
    counts and any future backend have one choke point."""
    package = Path(eulerlab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "grid_fields.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "np.fft" in line or "numpy.fft" in line:
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
