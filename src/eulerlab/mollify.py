"""Discrete standard mollifier and the smoothing operator f -> f * kernel.

The kernel is the classical radial bump ``exp(-1/(1 - (r/eps)^2))`` sampled on
the lattice under the minimum-image metric, clipped to the open ball of radius
``eps``, and renormalized so its discrete mass is exactly one.  The bump is
evaluated only on its support patch, the wrapped block of lattice points within
``eps`` of the origin along every axis, so a kernel build holds the samples and
their transform but no full-grid temporaries, and the built kernel keeps the
transform and the patch: its full-grid samples are scattered from the patch
only when read.  Smoothing is exact periodic
convolution of the sampled kernel, realized as multiplication in the
half-spectrum; it is linear, commutes with spectral derivatives, and never
increases any L^p norm (the weights are nonnegative with unit mass).

``eps`` must resolve on the grid.  Kernels need ``eps >= 2 * spacing`` to
exist at all (below that only the center sample survives); the bump is deemed
fully resolved from ``4 * spacing`` up, and kernels between the two bounds are
flagged ``fully_resolved=False`` so scaling sweeps can reach one octave closer
to the grid while tests on kernel fidelity stay in the resolved regime.

:func:`epsilon_problem` is the one rule for a support radius (positive, at
least :func:`min_epsilon`, at most ``MAX_EPSILON``): ``make_kernel``, the
scaling and certification sweeps and ``eulerlab validate`` all ask it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid_fields import Field, PeriodicGrid, ScalarField, VelocityField

__all__ = ["MollifierKernel", "make_kernel", "mollify", "epsilon_problem",
           "RESOLVED_SPACING_FACTOR", "MAX_EPSILON"]

# Support radius, in grid cells, above which the sampled bump is considered
# faithful to the continuum profile.
RESOLVED_SPACING_FACTOR = 4.0
_MIN_SPACING_FACTOR = 2.0
MAX_EPSILON = 0.5


class MollifierKernel:
    """Sampled unit-mass bump with precomputed convolution multiplier.

    Attributes
    ----------
    grid : PeriodicGrid
    epsilon : float
        Support radius in domain units.
    values : ScalarField
        Nonnegative kernel samples, vanishing outside the eps-ball; built on
        each read from the support patch the kernel holds.
    multiplier : ndarray
        Half-spectrum symbol of ``h^N * kernel``; multiplying a field's
        transform by it performs the quadrature-weighted convolution.
    fully_resolved : bool
        True when ``epsilon >= 4 * spacing``.
    """

    __slots__ = ("grid", "epsilon", "_patch", "_index", "multiplier", "fully_resolved")

    def __init__(self, grid: PeriodicGrid, epsilon: float, patch: np.ndarray,
                 index: tuple, multiplier: np.ndarray, fully_resolved: bool):
        self.grid = grid
        self.epsilon = epsilon
        self._patch = patch
        self._index = index
        self.multiplier = multiplier
        self.fully_resolved = fully_resolved

    @property
    def values(self) -> ScalarField:
        vals = np.zeros(self.grid.shape)
        vals[self._index] = self._patch
        return ScalarField(self.grid, vals)

    def mass(self) -> float:
        """Discrete mass ``sum(values) * h^N`` (unity by construction)."""
        return float(self.values.values.sum() * self.grid.cell_volume)

    def __repr__(self) -> str:
        return f"MollifierKernel(grid={self.grid!r}, epsilon={self.epsilon})"


def min_epsilon(grid: PeriodicGrid) -> float:
    """Smallest admissible support radius on this grid."""
    return _MIN_SPACING_FACTOR * grid.spacing


def resolved_epsilon(grid: PeriodicGrid) -> float:
    """Smallest support radius at which the bump is fully resolved."""
    return RESOLVED_SPACING_FACTOR * grid.spacing


def epsilon_problem(grid: PeriodicGrid, epsilon: float) -> str | None:
    """Why ``epsilon`` is no admissible support radius on ``grid`` (below the
    floor: naming the smallest power-of-two n that admits it), or None."""
    if not epsilon > 0.0:
        return f"epsilon {epsilon} is not positive"
    floor = min_epsilon(grid)
    if epsilon < floor:
        # halving the float floor is exact, so no huge n is ever converted
        n_needed, floor_needed = 8, _MIN_SPACING_FACTOR * (2.0 / 8)
        while floor_needed > epsilon:
            n_needed, floor_needed = 2 * n_needed, floor_needed / 2
        return (f"epsilon {epsilon} below the admissible floor {floor} for "
                f"n={grid.n_per_axis} (needs n >= {n_needed})")
    if epsilon > MAX_EPSILON:
        return f"epsilon {epsilon} above the maximum {MAX_EPSILON}"
    return None


def make_kernel(grid: PeriodicGrid, epsilon: float) -> MollifierKernel:
    """Sample and normalize the standard bump of support radius ``epsilon``."""
    problem = epsilon_problem(grid, epsilon)
    if problem:
        raise ConfigurationError(problem)

    # Sample the support patch: signed offsets up to eps / spacing plus one
    # cell against rounding, within the minimum image.  Normalizing over the
    # full grid sums the same array as sampling the whole grid would.
    n = grid.n_per_axis
    reach = min(int(epsilon / grid.spacing) + 1, n // 2)
    signed = np.arange(-reach, reach + 1)
    off = grid.spacing * signed
    r2 = 0.0
    for sq in np.ix_(*[off * off] * grid.dims):
        r2 = r2 + sq
    s = r2 / (epsilon * epsilon)
    patch = np.zeros(s.shape)
    interior = s < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        patch[interior] = np.exp(-1.0 / (1.0 - s[interior]))
    index = np.ix_(*[signed % n] * grid.dims)
    vals = np.zeros(grid.shape)
    vals[index] = patch
    vals /= vals.sum() * grid.cell_volume

    multiplier = grid.rfftn(vals)
    multiplier *= grid.cell_volume
    multiplier.setflags(write=False)
    return MollifierKernel(
        grid,
        float(epsilon),
        vals[index],
        index,
        multiplier,
        fully_resolved=epsilon >= resolved_epsilon(grid),
    )


def mollify(f: Field, kernel: MollifierKernel) -> Field:
    """Periodic convolution with the kernel via spectral multiplication.

    Preserves the divergence constraint: the symbol is scalar, so smoothing
    commutes with divergence and Leray projection.
    """
    if isinstance(f, VelocityField):
        return VelocityField([mollify(c, kernel) for c in f.components])
    return ScalarField.from_hat(f.grid, _mollified_hat(f, kernel))


def _mollified_hat(f: ScalarField, kernel: MollifierKernel) -> np.ndarray:
    """Half-spectrum of ``f`` convolved with the kernel."""
    if f.grid != kernel.grid:
        raise GridMismatchError("field and kernel live on different grids")
    return f.hat * kernel.multiplier
