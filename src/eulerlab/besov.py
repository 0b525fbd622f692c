"""Besov-seminorm estimation from translation-difference statistics.

The continuum seminorm sups ``||h(.+xi) - h||_{L^p} / |xi|^alpha`` over all
shifts; on the torus every translation is admissible, and grid-aligned shifts
are exact circular index maps, so no interpolation enters.  A finite family
of dyadic shifts replaces the sup, and the regularity exponent is recovered as the
log-log slope of the difference norms, excluding shifts so small that they are
discretization-dominated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid_fields import Field, PeriodicGrid, ScalarField

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


def _fit_bounds(grid: PeriodicGrid) -> tuple[float, float]:
    lo = FIT_EXCLUSION_FACTOR * grid.spacing
    hi = max(FIT_MAX_SHIFT, FIT_MAX_SPACING_FACTOR * grid.spacing)
    return lo, hi


def _shifts(grid: PeriodicGrid) -> list[tuple[int, tuple[int, ...]]]:
    """The probed shifts as ``(m, d)``: dyadic lattice step counts ``m`` from
    1 while ``m * spacing <= 1/2``, each along every axis, the diagonal and
    the antidiagonal ``d``.  The shift vector is ``m * d * spacing``."""
    axes = [tuple(1 if a == ax else 0 for a in range(grid.dims)) for ax in range(grid.dims)]
    diag = tuple([1] * grid.dims)
    anti = tuple(1 if a % 2 == 0 else -1 for a in range(grid.dims))
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


def _circular_diff(values: np.ndarray, steps: tuple[int, ...], out: np.ndarray) -> None:
    """Write ``values[x + steps] - values[x]`` (indices mod n) into ``out``.

    Each axis splits into the part whose shifted index stays in range and
    the part that wraps; the shifted samples are copied into ``out`` block
    by block and ``values`` is subtracted in place, so no rolled copy is
    allocated and the subtraction runs over contiguous memory."""
    per_axis = []
    for s, n in zip(steps, values.shape):
        k = s % n
        if k == 0:
            per_axis.append([(slice(None), slice(None))])
        else:
            per_axis.append([(slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))])
    for blocks in itertools.product(*per_axis):
        out[tuple(b[0] for b in blocks)] = values[tuple(b[1] for b in blocks)]
    out -= values


def _shift_diff_norm(h: Field, steps: tuple[int, ...], p_int: float,
                     work: Optional[np.ndarray] = None) -> float:
    """``||h(. + steps * spacing) - h||_p``.

    ``work`` (shape ``(2,) + grid.shape``) holds a vector field's running
    ``|d|^2`` and the difference of one component (or of a scalar field),
    and the power is taken in place there.  A probe passes one buffer to
    all its shifts: fresh temporaries per shift can cost a page fault per
    page touched, depending on how the heap happens to be laid out.
    """
    grid = h.grid
    sq, d = np.empty((2,) + grid.shape) if work is None else work
    if isinstance(h, ScalarField):
        _circular_diff(h.values, steps, d)
        powered = np.power(np.abs(d, out=d), p_int, out=d)
    else:
        sq.fill(0.0)
        for c in h.components:
            _circular_diff(c.values, steps, d)
            d *= d
            sq += d
        # |d|^p straight from |d|^2, without a square root in between
        powered = np.power(sq, 0.5 * p_int, out=sq)
    return float((np.sum(powered) * grid.cell_volume) ** (1.0 / p_int))


def translation_difference_norm(h: Field, xi: Sequence[float], p_int: float) -> float:
    """L^p norm of ``h(. + xi) - h`` for a grid-aligned shift ``xi``."""
    if not p_int >= 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p_int}")
    return _shift_diff_norm(h, _steps_from_xi(h.grid, xi), p_int)


def _probe(h: Field, p_int: float) -> list[tuple[float, float]]:
    """``(|xi|, ||delta_xi h||_p)`` over :func:`_shifts`, by magnitude."""
    grid = h.grid
    work = np.empty((2,) + grid.shape)
    rows = []
    for m, d in _shifts(grid):
        mag = grid.spacing * m * float(np.linalg.norm(d))
        rows.append((mag, _shift_diff_norm(h, tuple(m * c for c in d), p_int, work)))
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
