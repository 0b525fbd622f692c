"""Shared helpers for the test suite: deterministic random fields and oracles."""

import tracemalloc
import weakref

import numpy as np

from eulerlab.grid_fields import (
    PeriodicGrid,
    ScalarField,
    VelocityField,
    leray_project,
)
from eulerlab.solver import RecordedStates


def count_transforms(monkeypatch) -> list:
    """Record one entry per ``PeriodicGrid.rfftn``/``irfftn`` call from now on."""
    calls = []
    for name in ("rfftn", "irfftn"):
        method = getattr(PeriodicGrid, name)

        def counted(self, arr, _method=method, _name=name):
            calls.append(_name)
            return _method(self, arr)

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
