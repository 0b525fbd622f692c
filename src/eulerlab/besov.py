"""Besov-seminorm estimation from translation-difference statistics.

The continuum seminorm sups ``||h(.+xi) - h||_{L^p} / |xi|^alpha`` over all
shifts; on the torus every translation is admissible, and grid-aligned shifts
are exact circular index maps, so no interpolation enters.  A finite family
of dyadic shifts replaces the sup, and the regularity exponent is recovered as the
log-log slope of the difference norms, excluding shifts so small that they are
discretization-dominated.

Each shift's norm is one streaming pass over tiles of :data:`TILE_ROWS`
axis-0 rows through two tile-sized buffers: a tile's difference is one
contiguous subtract over the flattened samples, offset by the flattened
shift, plus a narrow subtract that rewrites the positions whose inner index
wraps.  The components' squares are summed in place, and at ``p = 3``, the
integrability every shipped config uses, ``|d|^3`` is summed as
``|d|^2 sqrt(|d|^2)`` by an einsum instead of ``np.power``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .grid_fields import Field, PeriodicGrid

__all__ = [
    "BesovEstimate",
    "translation_difference_norm",
    "besov_seminorm",
    "fit_regularity_exponent",
]

# Shifts closer to the lattice constant than this factor are excluded from
# exponent fits (their differences probe discretization, not regularity).
FIT_EXCLUSION_FACTOR = 4.0

# Shifts beyond this fraction of the domain probe the box topology: periodic
# differences fold back once a shift passes half a constituent wavelength, so
# they flatten regardless of regularity.  Coarse grids keep at least the
# 4h..16h band so a fit always has three usable magnitudes.
FIT_MAX_SHIFT = 0.125
FIT_MAX_SPACING_FACTOR = 16.0

# Axis-0 rows per tile of a shift's pass: 64 rows of a 512^2 field are
# 256 KiB, so a tile's difference and its running |d|^2 stay in cache.
TILE_ROWS = 64


def _fit_bounds(grid: PeriodicGrid) -> tuple[float, float]:
    lo = FIT_EXCLUSION_FACTOR * grid.spacing
    hi = max(FIT_MAX_SHIFT, FIT_MAX_SPACING_FACTOR * grid.spacing)
    return lo, hi


def _shifts(grid: PeriodicGrid) -> list[tuple[int, tuple[int, ...]]]:
    """The probed shifts as ``(m, d)``: dyadic lattice step counts ``m`` from
    1 while ``m * spacing <= 1/2``, each along every axis, the diagonal and
    the antidiagonal ``d``.  The shift vector is ``m * d * spacing``.  The
    antidiagonal flips axis 0 alone, so no inner-axis step wraps past half
    the axis, where most of each tile would be rewritten block by block."""
    axes = [tuple(1 if a == ax else 0 for a in range(grid.dims)) for ax in range(grid.dims)]
    diag = tuple([1] * grid.dims)
    anti = (-1,) + diag[1:]
    counts, m = [], 1
    while m * grid.spacing <= 0.5:
        counts.append(m)
        m *= 2
    return [(m, d) for m in counts for d in axes + [diag, anti]]


@dataclass
class BesovEstimate:
    """Result of probing one field at one (alpha, p) pair.

    ``shift_table`` rows are ``(|xi|, ||delta_xi h||_p, ratio)`` ordered by
    increasing magnitude; ``seminorm`` is the max ratio; ``fitted_alpha`` the
    least-squares slope of the log-log table over the trusted shift range
    (NaN when the field has too few nonzero differences to fit).
    """

    alpha: float
    p_int: float
    seminorm: float
    shift_table: list[tuple[float, float, float]]
    fitted_alpha: float


def _steps_from_xi(grid: PeriodicGrid, xi: Sequence[float]) -> tuple[int, ...]:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.dims,):
        raise ConfigurationError(
            f"shift vector needs {grid.dims} components, got shape {xi.shape}"
        )
    steps = xi / grid.spacing
    rounded = np.rint(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9:
        raise ConfigurationError(
            f"shift {xi.tolist()} is not an integer multiple of spacing={grid.spacing}"
        )
    return tuple(int(s) for s in rounded)


def _pieces(k: int, n: int) -> list[tuple[slice, slice]]:
    """``(destination, source)`` index ranges of one axis under a circular
    shift by ``k`` in ``[0, n)``: first the part that stays in range, then
    the part that wraps."""
    if k == 0:
        return [(slice(0, n), slice(0, n))]
    return [(slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))]


def _diff_rows(values: np.ndarray, ks: tuple[int, ...], r0: int, r1: int,
               out: np.ndarray) -> None:
    """Write ``values[x + ks] - values[x]`` (indices mod n, ``ks`` in
    ``[0, n)``) for the axis-0 rows ``r0:r1`` into the flat buffer ``out``.

    On the flattened array the shift is one offset, so a single contiguous
    subtract is right wherever no index past axis 0 wraps; its source range
    wraps at most once, at the end of the array.  The positions whose inner
    index wraps are then rewritten block by block."""
    shape = values.shape
    flat = values.reshape(-1)
    size = flat.size
    off = 0
    for k, n in zip(ks, shape):
        off = off * n + k
    lo, hi = r0 * (size // shape[0]), r1 * (size // shape[0])
    cut = min(max(size - off, lo), hi)
    if cut > lo:
        np.subtract(flat[lo + off:cut + off], flat[lo:cut], out=out[:cut - lo])
    if cut < hi:
        np.subtract(flat[cut + off - size:hi + off - size], flat[cut:hi],
                    out=out[cut - lo:hi - lo])
    if not any(ks[1:]):
        return
    blocks = itertools.product(*(_pieces(k, n) for k, n in zip(ks[1:], shape[1:])))
    next(blocks)  # no inner index wraps: the flat pass is right there
    tile = out[:hi - lo].reshape((r1 - r0,) + shape[1:])
    start = (r0 + ks[0]) % shape[0]
    first = min(r1 - r0, shape[0] - start)
    # (tile rows, their rows in values, the rows they are shifted from)
    rows = [(slice(0, first), slice(r0, r0 + first), slice(start, start + first))]
    if first < r1 - r0:  # the source rows wrap past the last row
        rows.append((slice(first, r1 - r0), slice(r0 + first, r1), slice(0, r1 - r0 - first)))
    for block in blocks:
        dst, src = tuple(b[0] for b in block), tuple(b[1] for b in block)
        for in_tile, here, there in rows:
            np.subtract(values[(there,) + src], values[(here,) + dst],
                        out=tile[(in_tile,) + dst])


def _shift_diff_norm(h: Field, steps: tuple[int, ...], p_int: float) -> float:
    """``||h(. + steps * spacing) - h||_p``, tile by tile: the components'
    squared differences are summed in place into ``|d|^2``, whose ``p/2``
    power is summed; at ``p = 3`` as ``sum |d|^2 sqrt(|d|^2)`` by an einsum,
    which wakes no threaded BLAS as ``np.dot`` would, so the sum does not
    depend on the thread count."""
    grid = h.grid
    shape = grid.shape
    # ||h(. + xi) - h|| = ||h(. - xi) - h|| on the torus: take the sign whose
    # last-axis wrap, the part rewritten in every row, is the narrower
    if steps[-1] % shape[-1] > shape[-1] // 2:
        steps = tuple(-s for s in steps)
    ks = tuple(s % n for s, n in zip(steps, shape))
    first, *rest = (c.values for c in h.components)
    inner = first.size // shape[0]
    rows = min(TILE_ROWS, shape[0])
    sq_buf, d_buf = np.empty(rows * inner), np.empty(rows * inner)
    total = 0.0
    for r0 in range(0, shape[0], rows):
        r1 = min(r0 + rows, shape[0])
        sq, d = sq_buf[:(r1 - r0) * inner], d_buf[:(r1 - r0) * inner]
        _diff_rows(first, ks, r0, r1, sq)
        np.multiply(sq, sq, out=sq)
        for values in rest:
            _diff_rows(values, ks, r0, r1, d)
            np.multiply(d, d, out=d)
            sq += d
        if p_int == 3.0:
            total += float(np.einsum("i,i->", sq, np.sqrt(sq, out=d)))
        else:
            total += float(np.sum(np.power(sq, 0.5 * p_int, out=sq)))
    return float((total * grid.cell_volume) ** (1.0 / p_int))


def translation_difference_norm(h: Field, xi: Sequence[float], p_int: float) -> float:
    """L^p norm of ``h(. + xi) - h`` for a grid-aligned shift ``xi``."""
    if not p_int >= 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p_int}")
    return _shift_diff_norm(h, _steps_from_xi(h.grid, xi), p_int)


def _probe(h: Field, p_int: float) -> list[tuple[float, float]]:
    """``(|xi|, ||delta_xi h||_p)`` over :func:`_shifts`, by magnitude."""
    grid = h.grid
    rows = []
    for m, d in _shifts(grid):
        mag = grid.spacing * m * math.sqrt(sum(c * c for c in d))
        rows.append((mag, _shift_diff_norm(h, tuple(m * c for c in d), p_int)))
    rows.sort(key=lambda r: r[0])
    return rows


def _fit_slope(rows: list[tuple[float, float]], fit_min: float, fit_max: float) -> float:
    pts = [(m, v) for m, v in rows if fit_min <= m <= fit_max and v > 0.0]
    if len({m for m, _ in pts}) < 2:
        return float("nan")
    logs = np.log([m for m, _ in pts])
    logv = np.log([v for _, v in pts])
    slope = np.polyfit(logs, logv, 1)[0]
    return float(slope)


def _check_exponents(alpha: float, p_int: float) -> None:
    """Reject an exponent outside (0, 1) or an integrability below 1."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    if not p_int >= 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p_int}")


def _estimate(grid: PeriodicGrid, rows: list[tuple[float, float]], alpha: float,
              p_int: float) -> BesovEstimate:
    """The estimate at ``(alpha, p_int)`` from the probe ``rows`` of a field
    on ``grid``."""
    table = [(m, v, v / m**alpha) for m, v in rows]
    seminorm = max((r[2] for r in table), default=0.0)
    fitted = _fit_slope(rows, *_fit_bounds(grid))
    return BesovEstimate(alpha, p_int, seminorm, table, fitted)


def besov_seminorm(h: Field, alpha: float, p_int: float) -> BesovEstimate:
    """Estimate the seminorm and the realized exponent over the probed
    shifts."""
    _check_exponents(alpha, p_int)
    return _estimate(h.grid, _probe(h, p_int), alpha, p_int)


def _check_usable(grid: PeriodicGrid, rows) -> None:
    """Raise ConfigurationError unless at least three shift magnitudes in the
    fit range carry a nonzero difference in the probe ``rows`` (``(|xi|,
    ||delta_xi h||_p, ...)``) of a field on ``grid``."""
    fit_min, fit_max = _fit_bounds(grid)
    usable = {r[0] for r in rows if fit_min <= r[0] <= fit_max and r[1] > 0.0}
    if len(usable) < 3:
        raise ConfigurationError(
            f"only {len(usable)} usable shift magnitudes (need >= 3); "
            "enlarge the grid"
        )


def _probe_fit(h: Field, p_int: float) -> tuple[list[tuple[float, float]], float]:
    """One probe of ``h``: its rows and the exponent fitted from them."""
    rows = _probe(h, p_int)
    _check_usable(h.grid, rows)
    return rows, _fit_slope(rows, *_fit_bounds(h.grid))


def fit_regularity_exponent(h: Field, p_int: float) -> float:
    """Log-log slope of the difference norms over the probed shifts."""
    return _probe_fit(h, p_int)[1]
