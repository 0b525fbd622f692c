"""Besov-seminorm estimation from translation-difference statistics.

The continuum seminorm sups ``||h(.+xi) - h||_{L^p} / |xi|^alpha`` over all
shifts; on the torus every translation is admissible, and grid-aligned shifts
are exact circular index maps, so no interpolation enters.  A finite dyadic
shift policy replaces the sup, and the regularity exponent is recovered as the
log-log slope of the difference norms, excluding shifts so small that they are
discretization-dominated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid_fields import Field, PeriodicGrid, ScalarField

__all__ = [
    "ShiftPolicy",
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


@dataclass(frozen=True)
class ShiftPolicy:
    """Finite family of probe shifts: dyadic step counts along fixed directions.

    ``step_counts`` are lattice steps (the dyadic magnitudes); ``directions``
    are integer lattice directions.  The probed shift vectors are
    ``steps * direction * spacing`` with true Euclidean magnitudes recorded.
    """

    step_counts: tuple[int, ...]
    directions: tuple[tuple[int, ...], ...]

    @classmethod
    def default(cls, grid: PeriodicGrid) -> "ShiftPolicy":
        steps = []
        j = 0
        while (1 << j) * grid.spacing <= 0.5:
            steps.append(1 << j)
            j += 1
        axes = [
            tuple(1 if a == ax else 0 for a in range(grid.dims))
            for ax in range(grid.dims)
        ]
        diag = tuple([1] * grid.dims)
        anti = tuple(1 if a % 2 == 0 else -1 for a in range(grid.dims))
        return cls(tuple(steps), tuple(axes + [diag, anti]))


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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["xi_magnitude", "lp_diff_norm", "ratio"])
            for row in self.shift_table:
                writer.writerow([repr(row[0]), repr(row[1]), repr(row[2])])


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


def _shift_diff_norm(h: Field, steps: tuple[int, ...], p_int: float) -> float:
    grid = h.grid
    axes = tuple(range(grid.dims))
    neg = tuple(-s for s in steps)
    if isinstance(h, ScalarField):
        mag = np.abs(np.roll(h.values, neg, axis=axes) - h.values)
    else:
        sq = np.zeros(grid.shape)
        for c in h.components:
            d = np.roll(c.values, neg, axis=axes) - c.values
            sq += d * d
        mag = np.sqrt(sq)
    return float((np.sum(mag**p_int) * grid.cell_volume) ** (1.0 / p_int))


def translation_difference_norm(h: Field, xi: Sequence[float], p_int: float) -> float:
    """L^p norm of ``h(. + xi) - h`` for a grid-aligned shift ``xi``."""
    if p_int < 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p_int}")
    return _shift_diff_norm(h, _steps_from_xi(h.grid, xi), p_int)


def _probe(h: Field, policy: ShiftPolicy, p_int: float) -> list[tuple[float, float]]:
    grid = h.grid
    rows = []
    for m in policy.step_counts:
        for d in policy.directions:
            steps = tuple(m * c for c in d)
            mag = grid.spacing * m * float(np.linalg.norm(d))
            rows.append((mag, _shift_diff_norm(h, steps, p_int)))
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


def besov_seminorm(
    h: Field,
    alpha: float,
    p_int: float,
    shifts: Optional[ShiftPolicy] = None,
) -> BesovEstimate:
    """Estimate the seminorm and the realized exponent under a shift policy."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    if p_int < 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p_int}")
    policy = shifts if shifts is not None else ShiftPolicy.default(h.grid)
    rows = _probe(h, policy, p_int)
    table = [(m, v, v / m**alpha) for m, v in rows]
    seminorm = max((r[2] for r in table), default=0.0)
    fitted = _fit_slope(rows, *_fit_bounds(h.grid))
    return BesovEstimate(alpha, p_int, seminorm, table, fitted)


def _check_usable(grid: PeriodicGrid, rows) -> None:
    """Raise ConfigurationError unless at least three shift magnitudes in the
    fit range carry a nonzero difference in the probe ``rows`` (``(|xi|,
    ||delta_xi h||_p, ...)``) of a field on ``grid``."""
    fit_min, fit_max = _fit_bounds(grid)
    usable = {r[0] for r in rows if fit_min <= r[0] <= fit_max and r[1] > 0.0}
    if len(usable) < 3:
        raise ConfigurationError(
            f"only {len(usable)} usable shift magnitudes (need >= 3); "
            "enlarge the grid or the shift policy"
        )


def fit_regularity_exponent(
    h: Field,
    p_int: float,
    shifts: Optional[ShiftPolicy] = None,
) -> float:
    """Log-log slope of the difference norms with the default shift policy."""
    policy = shifts if shifts is not None else ShiftPolicy.default(h.grid)
    rows = _probe(h, policy, p_int)
    _check_usable(h.grid, rows)
    return _fit_slope(rows, *_fit_bounds(h.grid))
