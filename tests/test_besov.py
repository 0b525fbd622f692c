import tracemalloc

import numpy as np
import pytest

from eulerlab import besov
from eulerlab.besov import (
    _check_usable,
    _diff_rows,
    _probe,
    _shift_diff_norm,
    _shifts,
    besov_seminorm,
    fit_regularity_exponent,
    translation_difference_norm,
)
from eulerlab.errors import ConfigurationError
from eulerlab.grid_fields import ScalarField, VelocityField, lp_norm, make_grid
from eulerlab.mollify import make_kernel, mollify
from eulerlab.synth import SynthSpec, lacunary_field, random_divfree

from _utils import random_band_limited_scalar, rng


class TestTranslationDifferenceNorm:
    def test_constant_is_zero(self):
        grid = make_grid(2, 32)
        h = grid.sample_scalar(lambda x, y: 2.5 + 0.0 * x)
        assert translation_difference_norm(h, (0.25, 0.0), 3.0) == 0.0

    def test_half_period_doubles(self):
        grid = make_grid(2, 64)
        h = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        # sin(pi(x+1)) = -sin(pi x), so the difference is 2h.
        d = translation_difference_norm(h, (1.0, 0.0), 3.0)
        assert d == pytest.approx(2.0 * lp_norm(h, 3.0), rel=1e-12)

    def test_reflection_symmetry(self):
        grid = make_grid(2, 64)
        h = random_band_limited_scalar(grid, 12, seed=3)
        xi = (0.125, -0.0625)
        a = translation_difference_norm(h, xi, 2.0)
        b = translation_difference_norm(h, tuple(-c for c in xi), 2.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_non_aligned_shift(self):
        grid = make_grid(2, 32)
        h = grid.sample_scalar(lambda x, y: 0.0 * x)
        with pytest.raises(ConfigurationError):
            translation_difference_norm(h, (0.001, 0.0), 2.0)

    def test_rejects_nan_p(self):
        grid = make_grid(2, 32)
        h = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        with pytest.raises(ConfigurationError, match="p must be >= 1"):
            translation_difference_norm(h, (0.25, 0.0), float("nan"))


class TestBesovSeminorm:
    def test_constant_field(self):
        grid = make_grid(2, 64)
        h = grid.sample_scalar(lambda x, y: 1.0 + 0.0 * x)
        est = besov_seminorm(h, 0.5, 2.0)
        assert est.seminorm == 0.0
        assert np.isnan(est.fitted_alpha)

    def test_homogeneity(self):
        grid = make_grid(2, 64)
        h = random_band_limited_scalar(grid, 10, seed=5)
        scaled = ScalarField(grid, 3.0 * h.values)
        a = besov_seminorm(h, 0.5, 3.0)
        b = besov_seminorm(scaled, 0.5, 3.0)
        assert b.seminorm == pytest.approx(3.0 * a.seminorm, rel=1e-12)
        assert b.fitted_alpha == pytest.approx(a.fitted_alpha, abs=1e-9)

    def test_seminorm_is_max_table_ratio(self):
        grid = make_grid(2, 64)
        h = random_band_limited_scalar(grid, 10, seed=6)
        est = besov_seminorm(h, 0.4, 2.0)
        assert est.seminorm == pytest.approx(max(r for _, _, r in est.shift_table))
        mags = [m for m, _, _ in est.shift_table]
        assert mags == sorted(mags)
        assert min(mags) >= grid.spacing

    def test_lacunary_round_trip(self):
        grid = make_grid(2, 512)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.5, j_max=7, seed=42), grid)
        est = besov_seminorm(u, 0.5, 3.0)
        assert 0.45 <= est.fitted_alpha <= 0.55

    def test_subadditive(self):
        grid = make_grid(2, 64)
        h1 = random_band_limited_scalar(grid, 9, seed=7)
        h2 = random_band_limited_scalar(grid, 9, seed=8)
        both = ScalarField(grid, h1.values + h2.values)
        s = besov_seminorm(both, 0.5, 3.0).seminorm
        s1 = besov_seminorm(h1, 0.5, 3.0).seminorm
        s2 = besov_seminorm(h2, 0.5, 3.0).seminorm
        assert s <= s1 + s2 + 1e-10

    def test_holder_between_integrabilities(self):
        # ||g||_2 <= ||g||_3 |Omega|^(1/2-1/3) pointwise in the shift table.
        grid = make_grid(2, 64)
        for seed in (1, 2, 3):
            h = random_band_limited_scalar(grid, 11, seed=seed)
            s2 = besov_seminorm(h, 0.5, 2.0).seminorm
            s3 = besov_seminorm(h, 0.5, 3.0).seminorm
            assert s2 <= s3 * 4.0 ** (1.0 / 2.0 - 1.0 / 3.0) + 1e-10

    def test_mollification_never_increases(self):
        grid = make_grid(2, 64)
        h = random_band_limited_scalar(grid, 15, seed=9)
        k = make_kernel(grid, 0.125)
        s = besov_seminorm(h, 0.5, 3.0).seminorm
        s_eps = besov_seminorm(mollify(h, k), 0.5, 3.0).seminorm
        assert s_eps <= s + 1e-10

    def test_rejects_bad_alpha(self):
        grid = make_grid(2, 32)
        h = grid.sample_scalar(lambda x, y: 0.0 * x)
        with pytest.raises(ConfigurationError):
            besov_seminorm(h, 1.5, 2.0)


class TestFitRegularityExponent:
    def test_smooth_field_near_one(self):
        grid = make_grid(2, 256)
        h = random_band_limited_scalar(grid, 2, seed=11)
        assert fit_regularity_exponent(h, 2.0) >= 0.95

    def test_lacunary_alpha_035(self):
        grid = make_grid(2, 512)
        u = lacunary_field(SynthSpec("lacunary", alpha=0.35, j_max=7, seed=42), grid)
        assert fit_regularity_exponent(u, 3.0) == pytest.approx(0.35, abs=0.05)

    def test_white_noise_flat(self):
        grid = make_grid(2, 256)
        h = ScalarField(grid, rng(12).standard_normal(grid.shape))
        assert fit_regularity_exponent(h, 2.0) <= 0.05

    def test_too_few_magnitudes(self):
        grid = make_grid(2, 8)
        h = grid.sample_scalar(lambda x, y: np.sin(np.pi * x))
        with pytest.raises(ConfigurationError, match="usable shift magnitudes"):
            fit_regularity_exponent(h, 2.0)
        est = besov_seminorm(h, 0.5, 2.0)  # the estimate path: no exception
        with pytest.raises(ConfigurationError, match="usable shift magnitudes"):
            _check_usable(grid, est.shift_table)


class TestShiftPolicy:
    def test_default_covers_dyadic_range(self):
        grid = make_grid(2, 128)
        shifts = _shifts(grid)
        counts = sorted({m for m, _ in shifts})
        assert counts == [2**j for j in range(len(counts))]
        assert max(counts) * grid.spacing <= 0.5 < 2 * max(counts) * grid.spacing
        assert len({d for _, d in shifts}) == 4
        assert len(shifts) == 4 * len(counts)

    @pytest.mark.parametrize("dims, n", [(2, 64), (3, 32)], ids=["2d", "3d"])
    def test_no_inner_axis_step_wraps_past_half(self, dims, n, monkeypatch):
        """After the probe's sign normalization no probed shift steps more
        than ``n // 2`` along an inner axis, where the wrapped part of every
        row is rewritten block by block."""
        seen = set()

        def recording(values, ks, r0, r1, out):
            seen.add(ks)
            _diff_rows(values, ks, r0, r1, out)

        monkeypatch.setattr(besov, "_diff_rows", recording)
        grid = make_grid(dims, n)
        besov_seminorm(random_band_limited_scalar(grid, 4, seed=1), 0.5, 3.0)
        assert len(seen) == len(_shifts(grid))
        assert max(k for ks in seen for k in ks[1:]) <= n // 2


def roll_norm(h, steps, p_int):
    """``||h(. + steps * spacing) - h||_p`` the plain way: ``np.roll`` copies,
    the Euclidean magnitude by a square root, then raised to ``p``."""
    grid = h.grid
    axes = tuple(range(grid.dims))
    neg = tuple(-s for s in steps)
    sq = np.zeros(grid.shape)
    for c in h.components:
        d = np.roll(c.values, neg, axis=axes) - c.values
        sq += d * d
    return float((np.sum(np.sqrt(sq) ** p_int) * grid.cell_volume) ** (1.0 / p_int))


class TestShiftDiffKernel:
    """The tiled probe kernel against the ``np.roll`` route."""

    STEPS = ((1, 0), (0, 3), (4, 4), (16, -16), (32, 0))

    @pytest.mark.parametrize("p_int", [1.0, 2.0, 3.0, 4.0, 4.5])
    def test_vector_path_matches_square_root_route(self, p_int):
        grid = make_grid(2, 128)
        fields = (
            lacunary_field(SynthSpec("lacunary", alpha=0.6, j_max=5, seed=4), grid),
            random_divfree(grid, 2.0, seed=9),
        )
        for u in fields:
            for steps in self.STEPS:
                expect = roll_norm(u, steps, p_int)
                got = _shift_diff_norm(u, steps, p_int)
                assert abs(got - expect) <= 1e-14 * expect

    @pytest.mark.parametrize("p_int", [1.0, 2.0, 3.0, 4.0, 4.5])
    def test_scalar_path_bitwise(self, p_int):
        """One kernel for both kinds: a scalar field's norm is bitwise that
        of the vector field with it as the only nonzero component."""
        grid = make_grid(2, 64)
        h = random_band_limited_scalar(grid, 12, seed=5)
        padded = VelocityField([h, ScalarField(grid, np.zeros(grid.shape))])
        for steps in self.STEPS:
            got = _shift_diff_norm(h, steps, p_int)
            assert got == _shift_diff_norm(padded, steps, p_int)
            expect = roll_norm(h, steps, p_int)
            assert abs(got - expect) <= 1e-13 * expect


class TestCircularDiff:
    """The tiled circular difference is bitwise the ``np.roll`` one, for
    every tile height, including tiles whose source rows wrap."""

    @pytest.mark.parametrize("dims,n,steps", [
        (2, 16, (0, 0)), (2, 16, (3, 0)), (2, 16, (0, -5)), (2, 16, (-7, 9)),
        (2, 16, (16, -16)), (2, 16, (21, -35)),
        (3, 8, (0, 0, 0)), (3, 8, (1, -2, 3)), (3, 8, (-8, 0, 8)), (3, 8, (11, -13, 5)),
    ])
    def test_matches_roll(self, dims, n, steps):
        values = rng(dims * 100 + n).standard_normal((n,) * dims)
        axes = tuple(range(dims))
        expect = np.roll(values, tuple(-s for s in steps), axis=axes) - values
        ks = tuple(s % n for s in steps)
        for rows in (1, 3, n):
            out = np.full(values.shape, np.nan)
            for r0 in range(0, n, rows):
                r1 = min(r0 + rows, n)
                _diff_rows(values, ks, r0, r1, out[r0:r1].reshape(-1))
            assert np.array_equal(out, expect)


class TestProbeAgainstRoll:
    """Every probed shift, through the probe and through
    ``translation_difference_norm``, against :func:`roll_norm`."""

    @pytest.mark.parametrize("dims,n,tile_rows", [
        (2, 32, 5), (2, 128, None), (3, 16, 3), (3, 16, None),
    ])
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("p_int", [1.0, 2.0, 2.5, 3.0])
    def test_every_probed_shift(self, dims, n, tile_rows, vector, p_int, monkeypatch):
        if tile_rows is not None:  # several tiles, a short last one
            monkeypatch.setattr(besov, "TILE_ROWS", tile_rows)
        grid = make_grid(dims, n)
        comps = [ScalarField(grid, rng(10 * dims + a).standard_normal(grid.shape))
                 for a in range(dims)]
        h = VelocityField(comps) if vector else comps[0]
        rows = _probe(h, p_int)
        expect = []
        for m, d in _shifts(grid):
            steps = tuple(m * c for c in d)
            want = roll_norm(h, steps, p_int)
            got = translation_difference_norm(h, tuple(s * grid.spacing for s in steps), p_int)
            assert abs(got - want) <= 1e-13 * want
            expect.append((grid.spacing * m * float(np.linalg.norm(d)), want))
        expect.sort(key=lambda r: r[0])
        assert [r[0] for r in rows] == [r[0] for r in expect]
        for (_, got), (_, want) in zip(rows, expect):
            assert abs(got - want) <= 1e-13 * want


def test_probe_scratch_is_tile_sized():
    """At 256^2 the probe's scratch stays below one field's samples
    (512 KiB); a full-size work buffer is two of them."""
    grid = make_grid(2, 256)
    u = lacunary_field(SynthSpec("lacunary", alpha=0.5, j_max=6, seed=3), grid)
    besov_seminorm(u, 0.5, 3.0)  # first-call set-up is not the probe's scratch
    tracemalloc.start()
    try:
        besov_seminorm(u, 0.5, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grid.shape[0] * grid.shape[1] * 8
