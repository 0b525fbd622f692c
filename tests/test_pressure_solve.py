"""The variable-density pressure solve: half-spectrum PCG against a dense
oracle, exactness of the preconditioner for uniform density, its iteration
count at high contrast, the warm start, the transform budgets of one solve
and of whole RK steps, the work arrays (bitwise against the allocating
stage, and the peak of a warm solve), and non-finite input."""

import numpy as np
import pytest

from eulerlab.errors import SolverAbort
from eulerlab.extensions import _DensityWork, _gradient_over_rho, inhom_solve
from eulerlab.grid_fields import ScalarField, _parseval_dot, make_grid
from eulerlab.synth import taylor_green

from _utils import (
    allocating_inhom_run,
    count_transforms,
    random_band_limited_scalar,
    random_band_limited_velocity,
    traced_half_spectra,
)


def problem(n, seed=0, amp=0.3):
    """Smooth random ``beta = 1/rho`` and the spectral divergence of a random
    band-limited vector field as right-hand side."""
    grid = make_grid(2, n)
    rho = 1.0 + amp * random_band_limited_scalar(grid, 3, seed).values
    v = random_band_limited_velocity(grid, 5, seed + 1)
    rhs_div = sum(1j * grid.deriv_wavenumber(a) * c.hat for a, c in enumerate(v.components))
    return grid, 1.0 / rho, rhs_div


def solve(grid, beta, rhs_div, p0=None):
    return _gradient_over_rho(_DensityWork(grid), 1.0 / beta, rhs_div, p0)


def physical(grid, hats):
    return np.stack([np.fft.irfftn(h, s=grid.shape, axes=(0, 1)) for h in hats])


def dense_reference(grid, beta, rhs_div):
    """``beta grad p`` from a least-squares solve of the assembled matrix of
    ``-div(beta grad .)`` in physical space."""
    size = beta.size
    axes = (1, 2)
    basis_hat = np.fft.rfftn(np.eye(size).reshape((size,) + grid.shape), axes=axes)
    ks = [1j * grid.deriv_wavenumber(a) for a in range(grid.dims)]
    out_hat = 0.0
    for k in ks:
        g = np.fft.irfftn(k * basis_hat, s=grid.shape, axes=axes)
        out_hat = out_hat + k * np.fft.rfftn(beta * g, axes=axes)
    columns = -np.fft.irfftn(out_hat, s=grid.shape, axes=axes).reshape(size, size)
    b = -np.fft.irfftn(rhs_div, s=grid.shape, axes=(0, 1)).ravel()
    p, *_ = np.linalg.lstsq(columns.T, b, rcond=None)
    p_hat = np.fft.rfftn(p.reshape(grid.shape))
    return np.stack([beta * np.fft.irfftn(k * p_hat, s=grid.shape, axes=(0, 1)) for k in ks])


@pytest.mark.parametrize("dims, n", [(2, 16), (3, 8)], ids=["2d", "3d"])
def test_parseval_weights_give_the_grid_inner_product(dims, n):
    grid = make_grid(dims, n)
    f = random_band_limited_scalar(grid, n // 2, 1)
    g = random_band_limited_scalar(grid, n // 2, 2)
    # interleaved: one weight per real and one per imaginary part
    w = grid.parseval_weights[::2]
    assert np.array_equal(grid.parseval_weights[1::2], w)
    spectral = np.sum(w * (np.conj(f.hat) * g.hat).real)
    assert spectral == pytest.approx(np.sum(f.values * g.values), rel=1e-13)
    assert _parseval_dot(f.hat, g.hat, grid.parseval_weights) == pytest.approx(spectral, rel=1e-13)


@pytest.mark.parametrize("n, amp", [(16, 0.3), (32, 0.3), (32, 0.8)],
                         ids=["16", "32", "32-contrast"])
def test_matches_dense_solve(n, amp):
    grid, beta, rhs_div = problem(n, amp=amp)
    flux_hats, _, iterations = solve(grid, beta, rhs_div)
    assert iterations > 1
    ref = dense_reference(grid, beta, rhs_div)
    got = physical(grid, flux_hats)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_uniform_density_converges_in_one_iteration():
    grid, _, rhs_div = problem(32)
    _, _, iterations = solve(grid, np.full(grid.shape, 0.8), rhs_div)
    assert iterations == 1


def test_warm_start_from_converged_pressure():
    grid, beta, rhs_div = problem(32, seed=4)
    flux_hats, p_hat, _ = solve(grid, beta, rhs_div)
    warm_hats, warm_p, iterations = solve(grid, beta, rhs_div, p0=p_hat)
    assert iterations == 0
    assert np.array_equal(warm_p, p_hat)
    cold, warm = physical(grid, flux_hats), physical(grid, warm_hats)
    assert np.max(np.abs(warm - cold)) <= 1e-13 * np.max(np.abs(cold))


@pytest.mark.parametrize("n", [64, 128])
def test_few_iterations_at_high_contrast(n):
    # rho spans [0.2, 1.8]: a mean-coefficient preconditioner needs 23-31
    # iterations here, the inverse-coefficient sandwich 7-9
    grid, beta, rhs_div = problem(n, amp=0.8)
    _, _, iterations = solve(grid, beta, rhs_div)
    assert 1 < iterations <= 10


def test_eight_transforms_per_iteration(monkeypatch):
    grid, beta, rhs_div = problem(32, seed=2)
    calls = count_transforms(monkeypatch)
    _, p_hat, iterations = solve(grid, beta, rhs_div)
    assert iterations > 1
    # four for the operator, four for the preconditioner (the last iteration
    # skips it, the initial direction pays it)
    assert len(calls) == 8 * iterations
    # a warm start pays one operator application for its initial residual
    calls.clear()
    _, _, iterations = solve(grid, beta, rhs_div, p0=0.5 * p_hat)
    assert iterations > 0
    assert len(calls) == 8 * iterations + 4


def test_rk_step_transform_budget(monkeypatch):
    # per stage: 8 transforms outside the pressure solve, 4 for the warm
    # start and 8 per CG iteration: about 133 per step here, against about
    # 163 with a mean-coefficient preconditioner at 4 per iteration
    grid = make_grid(2, 32)
    rho = grid.sample_scalar(lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x) * np.cos(np.pi * y))
    u0 = taylor_green(grid, 1.0)
    calls = count_transforms(monkeypatch)
    inhom_solve(rho, u0, 0.04, 0.01, snapshot_stride=4)
    assert len(calls) / 4 <= 145


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("amp", [0.2, 0.8])
def test_recorded_spectra_match_the_allocating_stage(n, amp):
    # six steps: every stage after the first warm-starts its pressure solve
    grid = make_grid(2, n)
    u0 = random_band_limited_velocity(grid, n // 6, seed=n, divfree=True)
    rho0 = ScalarField(grid, 1.0 + amp * random_band_limited_scalar(grid, 4, n + 1).values)
    dt, steps = 2e-3, 6
    traj = inhom_solve(rho0, u0, steps * dt, dt)
    oracle = allocating_inhom_run(rho0, u0, dt, steps)
    assert len(traj.states.hats) == len(oracle) == steps + 1
    for got, want in zip(traj.states.hats, oracle):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_warm_solve_allocates_only_what_it_returns():
    # the fresh arrays are the pressure and the two flux accumulators, plus
    # the inverse transform's own intermediate; the iteration runs in the
    # work arrays (allocating every vector peaked at 18 half-spectra)
    grid, beta, rhs_div = problem(64, seed=5, amp=0.8)
    rho = 1.0 / beta
    work = _DensityWork(grid)
    _, p_hat, _ = _gradient_over_rho(work, rho, rhs_div)
    p0 = 0.5 * p_hat
    (_, _, iterations), held, peak = traced_half_spectra(
        grid, lambda: _gradient_over_rho(work, rho, rhs_div, p0))
    assert iterations > 1
    assert held <= 3.1
    assert peak <= 5.0


def test_non_finite_input_returns_at_once():
    grid, beta, rhs_div = problem(16)
    with np.errstate(invalid="ignore"):
        flux_hats, _, iterations = solve(grid, beta, rhs_div * np.nan)
        assert iterations == 0
        assert not np.all(np.isfinite(flux_hats[0]))
        flux_hats, _, iterations = solve(grid, beta * np.nan, rhs_div)
    assert iterations == 1
    assert not np.all(np.isfinite(flux_hats[0]))


def test_overflowing_velocity_aborts_with_time():
    # u*u overflows in the first pressure right-hand side: the solve must hand
    # non-finite values to the integrator, not spin until its iteration cap
    grid = make_grid(2, 32)
    u0 = taylor_green(grid, 1.2e154)
    rho = grid.sample_scalar(lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x) * np.cos(np.pi * y))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverAbort) as err:
            inhom_solve(rho, u0, 2e-160, 1e-160)
    assert err.value.time == 1e-160
