import numpy as np
import pytest

from eulerlab.besov import (
    ShiftPolicy,
    _check_usable,
    besov_seminorm,
    fit_regularity_exponent,
    translation_difference_norm,
)
from eulerlab.errors import ConfigurationError
from eulerlab.grid_fields import ScalarField, lp_norm, make_grid
from eulerlab.mollify import make_kernel, mollify
from eulerlab.synth import SynthSpec, lacunary_field

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

    def test_csv_export(self, tmp_path):
        grid = make_grid(2, 32)
        h = random_band_limited_scalar(grid, 5, seed=10)
        est = besov_seminorm(h, 0.5, 2.0)
        path = tmp_path / "shifts.csv"
        est.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "xi_magnitude,lp_diff_norm,ratio"
        assert len(lines) == len(est.shift_table) + 1


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
        pol = ShiftPolicy.default(grid)
        assert pol.step_counts[0] == 1
        assert max(pol.step_counts) * grid.spacing <= 0.5
        assert len(pol.directions) == 4
