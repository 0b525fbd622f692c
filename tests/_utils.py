"""Shared helpers for the test suite: deterministic random fields and oracles."""

import math
import tracemalloc
import weakref

import numpy as np

from eulerlab.grid_fields import (
    PeriodicGrid,
    ScalarField,
    VelocityField,
    _dealiased_product_tensor,
    _div_hat,
    _leray_hats,
    _parseval_dot,
    curl_2d,
    leray_project,
)
from eulerlab.extensions import POISSON_TOLERANCE
from eulerlab.solver import RecordedStates, TimeProfile, _rk4_stage


def count_transforms(monkeypatch) -> list:
    """Record one entry per ``PeriodicGrid.rfftn``/``irfftn`` call from now on."""
    calls = []
    for name in ("rfftn", "irfftn"):
        method = getattr(PeriodicGrid, name)

        def counted(self, arr, *args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(self, arr, *args, **kwargs)

        monkeypatch.setattr(PeriodicGrid, name, counted)
    return calls


def count_state_reads(monkeypatch) -> list:
    """Record ``(states, index, alive)`` for every item read from a
    ``RecordedStates`` from now on; each read rebuilds a state, and ``alive``
    counts the states rebuilt by earlier reads that are still alive when this
    one starts."""
    reads, built = [], []
    getitem = RecordedStates.__getitem__

    def counted(self, i):
        if isinstance(i, slice):
            return getitem(self, i)  # its items are read through here
        alive = sum(ref() is not None for ref in built)
        state = getitem(self, i)
        reads.append((self, i, alive))
        built.append(weakref.ref(state))
        return state

    monkeypatch.setattr(RecordedStates, "__getitem__", counted)
    return reads


def traced_half_spectra(grid: PeriodicGrid, fn):
    """Call ``fn()`` under ``tracemalloc``, which sees numpy's data buffers;
    return its result, the memory still held when it returns and the peak,
    both in units of one complex half-spectrum on ``grid``."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = np.prod(grid.rshape) * 16
    return result, held / unit, peak / unit


class FullLayoutVorticity:
    """The vorticity formulation on whole half-spectra, as the solvers
    stepped it before they kept only the dealias band: the oracle of
    ``solver._Vorticity``.  The symbols carry the 2/3 mask and every
    spectrum is full-size; the values on the band must agree bitwise."""

    def __init__(self, u0: VelocityField):
        grid = u0.grid
        k0, k1 = grid.deriv_wavenumber(0), grid.deriv_wavenumber(1)
        self.grid = grid
        mean = [c.hat[0, 0] for c in u0.components]
        self.biot_savart = ((1j * k1 * grid.inv_k_squared, mean[0]),
                            (-1j * k0 * grid.inv_k_squared, mean[1]))
        self.stress = ((k0 * k0 - k1 * k1) * grid.dealias_mask, k0 * k1 * grid.dealias_mask)

    def velocity(self, w_hat: np.ndarray) -> list:
        out = []
        for b, mean in self.biot_savart:
            u_hat = w_hat * b
            u_hat[0, 0] = mean
            out.append(self.grid.irfftn(u_hat))
        return out

    def advect(self, w_hat: np.ndarray):
        """``-div(u w)`` in spectral form and the physical velocity ``(u1, u2)``."""
        grid = self.grid
        u1, u2 = self.velocity(w_hat)
        p_hat = grid.rfftn(u1 * u2)
        q = u2 - u1
        q *= u2 + u1
        q_hat = grid.rfftn(q)
        s_p, s_q = self.stress
        p_hat *= s_p
        q_hat *= s_q
        p_hat += q_hat
        return p_hat, (u1, u2)


def div_onto_zeros(grid: PeriodicGrid, hats) -> np.ndarray:
    """``sum_j i k_j h_j`` added onto a zeroed array, fresh: the spectral
    divergence as the solvers summed it before they started from the first
    term, which moves no value (at most the sign of a zero)."""
    acc = np.zeros(grid.rshape, dtype=complex)
    for ik, h in zip(grid.ik, hats):
        acc += ik * h
    return acc


def dealiased(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2/3-dealiased half-spectrum of ``a * b``, fresh."""
    hat = grid.rfftn(a * b)
    hat *= grid.dealias_mask
    return hat


def masked_band_spectra(u: VelocityField) -> tuple:
    """What a weak-form test pairs with at a state of velocity ``u``, taken
    on whole half-spectra and gathered through ``grid.dealias_mask``, as
    ``solver._band_spectra`` took it before the band transforms: its
    oracle.  ``u`` and ``-div(u (x) u)``, components end to end, and
    ``-div u``."""
    grid = u.grid
    mask = grid.dealias_mask
    hats = [c.hat for c in u.components]
    flux = [_div_hat(grid, row)
            for row in _dealiased_product_tensor(grid, [c.values for c in u.components])]
    return (np.concatenate([h[mask] for h in hats]),
            np.concatenate([-h[mask] for h in flux]),
            -_div_hat(grid, hats)[mask])


def full_layout_run(u0: VelocityField, dt: float, steps: int, theta=None, g=None) -> list:
    """The spectral states of ``steps`` RK4 steps of ``solve`` (``theta``
    None) or ``boussinesq_solve`` on :class:`FullLayoutVorticity`, the
    initial state first."""
    grid = u0.grid
    vort = FullLayoutVorticity(u0)
    hats = (curl_2d(u0).hat * grid.dealias_mask,)
    if theta is not None:
        torque = 1j * (g[1] * grid.deriv_wavenumber(0) - g[0] * grid.deriv_wavenumber(1))
        hats += (theta.hat * grid.dealias_mask,)

    def rhs(hs, with_speed):
        dw, u = vort.advect(hs[0])
        if theta is None:
            return (dw,), None
        dw += torque * hs[1]
        theta_phys = grid.irfftn(hs[1])
        return (dw, -div_onto_zeros(grid, [dealiased(grid, theta_phys, ui) for ui in u])), None

    states = [hats]
    for _ in range(steps):
        hats, _ = _rk4_stage(hats, dt, rhs)
        states.append(hats)
    return states


def allocating_inhom_run(rho0: ScalarField, u0: VelocityField, dt: float, steps: int) -> list:
    """The spectral states of ``steps`` RK4 steps of ``inhom_solve`` with the
    pressure CG and stage tendency as they ran before their work arrays:
    every spectrum fresh, every divergence summed onto zeros.  The oracle
    of ``extensions._DensityWork``; the initial state comes first.  The
    non-finite and non-convergent exits are left out."""
    grid = u0.grid
    dims = grid.dims
    inv_k2 = grid.inv_k_squared

    def neg_div_flux(coef, p_hat):
        flux = [grid.rfftn(coef * grid.irfftn(ik * p_hat)) for ik in grid.ik]
        acc = div_onto_zeros(grid, flux)
        return np.negative(acc, out=acc), flux

    def precondition(rho, r):
        z, _ = neg_div_flux(rho, r * inv_k2)
        z *= inv_k2
        return z

    def dot(a, b):
        return _parseval_dot(a, b, grid.parseval_weights)

    def pressure(rho, rhs_div, p0):
        beta = 1.0 / rho
        b = -rhs_div
        b_norm = math.sqrt(dot(b, b))
        if b_norm == 0.0:
            return [np.zeros(grid.rshape, dtype=complex) for _ in range(dims)], None
        if p0 is None:
            x = np.zeros(grid.rshape, dtype=complex)
            flux = [np.zeros(grid.rshape, dtype=complex) for _ in range(dims)]
            r = b
        else:
            Ax, flux = neg_div_flux(beta, p0)
            x = p0.copy()
            r = b - Ax
        if math.sqrt(dot(r, r)) <= POISSON_TOLERANCE * b_norm:
            return flux, x
        d = precondition(rho, r)
        rz = dot(r, d)
        while True:
            Ad, flux_d = neg_div_flux(beta, d)
            step = rz / dot(d, Ad)
            x += step * d
            for f, fd in zip(flux, flux_d):
                f += step * fd
            r -= step * Ad
            if math.sqrt(dot(r, r)) <= POISSON_TOLERANCE * b_norm:
                return flux, x
            z = precondition(rho, r)
            rz_new = dot(r, z)
            d *= rz_new / rz
            d += z
            rz = rz_new

    p_hat = None

    def rhs(hats, with_speed):
        nonlocal p_hat
        rho = grid.irfftn(hats[0])
        u = [grid.irfftn(h) for h in hats[1:]]
        d_rho = -div_onto_zeros(grid, [dealiased(grid, rho, ui) for ui in u])
        table = {(i, j): dealiased(grid, u[i], u[j]) for i in range(dims) for j in range(i, dims)}
        adv = [div_onto_zeros(grid, [table[min(i, j), max(i, j)] for j in range(dims)])
               for i in range(dims)]
        bgp, p_hat = pressure(rho, -div_onto_zeros(grid, adv), p_hat)
        return (d_rho, *_leray_hats(grid, [-adv[i] - bgp[i] for i in range(dims)])), None

    hats = tuple(f.hat * grid.dealias_mask for f in (rho0, *u0.components))
    states = [hats]
    for _ in range(steps):
        hats, _ = _rk4_stage(hats, dt, rhs)
        states.append(hats)
    return states


def linear_window(T: float) -> TimeProfile:
    """``1 - t/T``: the gentlest C^1 weight vanishing at the horizon, a
    second profile beside the package's ``cosine_window``."""
    return TimeProfile(
        value=lambda t: 1.0 - t / T,
        antiderivative=lambda t: t - t * t / (2.0 * T),
        antiderivative2=lambda t: t * t / 2.0 - t**3 / (6.0 * T),
        horizon=T,
    )


def offsets(grid: PeriodicGrid) -> list[np.ndarray]:
    """Signed periodic offsets from the origin along each axis.

    Entry ``j`` is the coordinate of lattice point ``j`` relative to the
    origin under the minimum-image convention, so a kernel sampled on
    these offsets is centred at index 0.
    """
    n = grid.n_per_axis
    idx = np.arange(n)
    signed = np.where(idx < n // 2, idx, idx - n)
    out = []
    for axis in range(grid.dims):
        shape = [1] * grid.dims
        shape[axis] = -1
        out.append((grid.spacing * signed).reshape(shape))
    return out


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_band_limited_scalar(grid: PeriodicGrid, kmax: int, seed: int) -> ScalarField:
    """Gaussian field with spectrum truncated to |k_i| <= kmax (integer units)."""
    noise = rng(seed).standard_normal(grid.shape)
    hat = np.fft.rfftn(noise)
    n = grid.n_per_axis
    mask = np.ones(grid.rshape, dtype=bool)
    for axis in range(grid.dims):
        if axis == grid.dims - 1:
            f = np.arange(n // 2 + 1)
        else:
            f = np.fft.fftfreq(n, 1.0 / n)
        shape = [1] * grid.dims
        shape[axis] = -1
        mask &= (np.abs(f) <= kmax).reshape(shape)
    hat *= mask
    values = np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(grid.dims)))
    values /= max(np.abs(values).max(), 1e-300)
    return ScalarField(grid, values)


def random_band_limited_velocity(
    grid: PeriodicGrid, kmax: int, seed: int, divfree: bool = False
) -> VelocityField:
    comps = [
        random_band_limited_scalar(grid, kmax, seed + 101 * (a + 1))
        for a in range(grid.dims)
    ]
    u = VelocityField(comps)
    return leray_project(u) if divfree else u


def fd4_gradient(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """4th-order centered finite difference on the periodic lattice."""
    f1 = np.roll(values, -1, axis=axis)
    f2 = np.roll(values, -2, axis=axis)
    b1 = np.roll(values, 1, axis=axis)
    b2 = np.roll(values, 2, axis=axis)
    return (-f2 + 8.0 * f1 - 8.0 * b1 + b2) / (12.0 * spacing)


def direct_convolution(values: np.ndarray, kernel) -> np.ndarray:
    """Physical-space quadrature convolution over the kernel support (oracle)."""
    kvals = kernel.values.values
    out = np.zeros_like(values)
    support = np.argwhere(kvals != 0.0)
    for idx in support:
        shift = tuple(int(i) for i in idx)
        out += kvals[shift] * np.roll(values, shift, axis=(0, 1))
    return out * kernel.grid.cell_volume
