import numpy as np
import pytest

from eulerlab.errors import ConfigurationError, GridMismatchError
from eulerlab.grid_fields import (
    divergence,
    gradient,
    leray_project,
    lp_norm,
    make_grid,
    max_norm,
)
from eulerlab.mollify import make_kernel, mollify

from _utils import (
    direct_convolution,
    random_band_limited_scalar,
    random_band_limited_velocity,
    traced_half_spectra,
)


class TestMakeKernel:
    def test_unit_mass(self):
        grid = make_grid(2, 256)
        k = make_kernel(grid, 0.1)
        assert abs(k.mass() - 1.0) <= 1e-12

    def test_under_resolved_rejected(self):
        grid = make_grid(2, 64)
        with pytest.raises(ConfigurationError, match="n >="):
            make_kernel(grid, 0.01)
        # the n that would resolve the smallest subnormal exceeds any float
        with pytest.raises(ConfigurationError, match=r"n >= \d{300}"):
            make_kernel(grid, 5e-324)

    def test_compact_support_exact(self):
        grid = make_grid(2, 128)
        eps = 0.125
        k = make_kernel(grid, eps)
        r2 = np.zeros(grid.shape)
        for off in grid.offsets():
            r2 = r2 + np.broadcast_to(off * off, grid.shape)
        outside = r2 >= eps * eps
        assert np.all(k.values.values[outside] == 0.0)

    def test_nonnegative(self):
        grid = make_grid(2, 128)
        k = make_kernel(grid, 0.2)
        assert np.all(k.values.values >= 0.0)

    def test_epsilon_bounds(self):
        grid = make_grid(2, 64)
        with pytest.raises(ConfigurationError):
            make_kernel(grid, 0.75)
        for eps in (0.0, -0.1, float("nan")):
            with pytest.raises(ConfigurationError, match="not positive"):
                make_kernel(grid, eps)
        # marginal kernels (between 2 and 4 cells) exist but are flagged
        marginal = make_kernel(grid, 2.5 * grid.spacing)
        assert not marginal.fully_resolved
        assert make_kernel(grid, 0.25).fully_resolved


def full_grid_kernel(grid, eps):
    """``make_kernel``'s samples and multiplier before the support patch:
    the bump evaluated on the whole grid."""
    r2 = np.zeros(grid.shape)
    for off in grid.offsets():
        r2 = r2 + np.broadcast_to(off * off, grid.shape)
    s = r2 / (eps * eps)
    vals = np.zeros(grid.shape)
    interior = s < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        vals[interior] = np.exp(-1.0 / (1.0 - s[interior]))
    vals /= vals.sum() * grid.cell_volume
    return vals, grid.rfftn(vals) * grid.cell_volume


class TestSupportPatch:
    """The bump is sampled on the lattice points within eps of the origin,
    bitwise as on the full grid, at a fraction of the memory."""

    @pytest.mark.parametrize("dims,n", [(2, 8), (2, 16), (2, 32), (2, 64), (2, 128),
                                        (2, 256), (2, 512), (3, 8), (3, 16)])
    def test_matches_full_grid_sampler(self, dims, n):
        grid = make_grid(dims, n)
        h = grid.spacing
        epsilons = {2.0 * h, 2.5 * h, 3.0 * h, 4.0 * h, 0.1, 0.3, 0.5}
        epsilons |= set(np.geomspace(2.0 * h, 0.5, 6).tolist())
        for eps in sorted(e for e in epsilons if 2.0 * h <= e <= 0.5):
            k = make_kernel(grid, eps)
            vals, mult = full_grid_kernel(grid, eps)
            assert np.array_equal(k.values.values, vals), eps
            assert k.mass() == float(vals.sum() * grid.cell_volume), eps
            assert np.array_equal(k.multiplier, mult), eps

    def test_peak_memory(self):
        grid = make_grid(2, 64)
        _, _, peak = traced_half_spectra(grid, lambda: make_kernel(grid, 0.25))
        # samples, their transform and the transform's own temporary; the
        # full-grid sampler peaks above 5
        assert peak <= 4.0

    def test_built_kernel_holds_multiplier_and_patch(self):
        # the full-grid samples are scattered from the patch only when read
        grid = make_grid(2, 256)
        kernel, held, _ = traced_half_spectra(grid, lambda: make_kernel(grid, 0.0625))
        assert kernel.fully_resolved
        assert held <= 1.2


class TestMollify:
    def test_constant_preserved(self):
        grid = make_grid(2, 64)
        f = grid.sample_scalar(lambda x, y: 3.0 + 0.0 * x)
        k = make_kernel(grid, 0.2)
        out = mollify(f, k)
        assert np.max(np.abs(out.values - 3.0)) <= 1e-12

    def test_commutes_with_gradient(self):
        grid = make_grid(2, 64)
        f = random_band_limited_scalar(grid, 10, seed=3)
        k = make_kernel(grid, 0.15)
        a = gradient(mollify(f, k))
        b = mollify(gradient(f), k)
        for ca, cb in zip(a.components, b.components):
            assert np.max(np.abs(ca.values - cb.values)) <= 1e-12 * max(1.0, max_norm(a))

    def test_matches_direct_convolution(self):
        grid = make_grid(2, 64)
        f = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        k = make_kernel(grid, 0.2)
        out = mollify(f, k)
        oracle = direct_convolution(f.values, k)
        assert np.max(np.abs(out.values - oracle)) <= 1e-8
        # the mode is damped, not annihilated
        assert 0.1 < max_norm(out) < 1.0

    def test_grid_mismatch(self):
        f = make_grid(2, 64).sample_scalar(lambda x, y: 0.0 * x)
        k = make_kernel(make_grid(2, 128), 0.2)
        with pytest.raises(GridMismatchError):
            mollify(f, k)

    def test_preserves_divfree_flag_and_property(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 12, seed=5, divfree=True)
        k = make_kernel(grid, 0.1)
        out = mollify(u, k)
        assert out.check_divergence_free()
        assert max_norm(divergence(out)) <= 1e-10 * max(1.0, max_norm(out))


class TestMollifyProperties:
    def test_l2_contraction(self):
        grid = make_grid(2, 64)
        k = make_kernel(grid, 0.2)
        for seed in (1, 2, 3):
            f = random_band_limited_scalar(grid, 20, seed=seed)
            assert lp_norm(mollify(f, k), 2.0) <= lp_norm(f, 2.0) * (1.0 + 1e-12)

    def test_approach_monotone_on_dyadic_sequence(self):
        grid = make_grid(2, 64)
        f = random_band_limited_scalar(grid, 2, seed=11)
        errs = []
        for eps in (0.5, 0.25, 0.125, 0.0625):
            k = make_kernel(grid, eps)
            diff = mollify(f, k).values - f.values
            errs.append(float(np.sqrt(np.sum(diff**2) * grid.cell_volume)))
        for big, small in zip(errs, errs[1:]):
            assert small <= big + 1e-10

    def test_commutes_with_leray(self):
        grid = make_grid(2, 64)
        u = random_band_limited_velocity(grid, 12, seed=7)
        k = make_kernel(grid, 0.1)
        a = mollify(leray_project(u), k)
        b = leray_project(mollify(u, k))
        scale = max(1.0, max_norm(a))
        for ca, cb in zip(a.components, b.components):
            assert np.max(np.abs(ca.values - cb.values)) <= 1e-12 * scale
