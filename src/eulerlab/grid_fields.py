"""Periodic grid, field containers, and spectral calculus on the flat torus.

The domain is the torus ``[-1, 1)^N`` sampled on a uniform lattice with a
power-of-two number of points per axis.  Scalar and velocity fields carry a
lazily computed real-to-complex transform; differentiation, divergence, and
Leray projection act on that half-spectrum and are exact for band-limited
fields.  Integrals are plain Riemann sums, which are spectrally accurate for
smooth periodic integrands.

Conventions
-----------
* Axis ``i`` of a value array corresponds to coordinate ``x_{i+1}``; sample
  ``j`` along an axis sits at ``-1 + j * spacing`` (C order, row-major).
* The domain period is 2, so admissible wavenumbers are integer multiples
  of pi.
* Derivative multipliers zero the Nyquist mode (its sign is ambiguous in the
  real transform); band-limited fields never populate it.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigurationError, GridMismatchError

__all__ = [
    "PeriodicGrid",
    "ScalarField",
    "VelocityField",
    "Field",
    "make_grid",
    "gradient",
    "divergence",
    "curl_2d",
    "leray_project",
    "lp_norm",
    "max_norm",
    "inner",
    "gradient_tensor",
    "resample",
]


class PeriodicGrid:
    """Uniform lattice on the torus ``[-1, 1)^dims`` with spectral machinery.

    Parameters
    ----------
    dims : int
        Spatial dimension, at least 2.
    n_per_axis : int
        Samples per axis; a power of two, at least 8.

    Precomputed attributes include per-axis wavenumbers (integer multiples of
    pi), broadcastable derivative multipliers for the half-spectrum layout,
    the inverse Laplacian symbol, and the 2/3-rule dealias mask.
    """

    def __init__(self, dims: int, n_per_axis: int):
        if dims < 2:
            raise ConfigurationError(f"dims must be >= 2, got {dims}")
        if n_per_axis < 8 or (n_per_axis & (n_per_axis - 1)) != 0:
            raise ConfigurationError(
                f"n_per_axis must be a power of two >= 8, got {n_per_axis}"
            )
        self.dims = dims
        self.n_per_axis = n_per_axis
        self.spacing = 2.0 / n_per_axis
        self.shape = (n_per_axis,) * dims
        # Half-spectrum layout of numpy's rfftn: last axis holds n//2 + 1 modes.
        self.rshape = (n_per_axis,) * (dims - 1) + (n_per_axis // 2 + 1,)
        self.cell_volume = self.spacing**dims

        n = n_per_axis
        self._freq_full = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., -n/2, ..., -1
        self._freq_half = np.arange(n // 2 + 1, dtype=float)

        # Per-axis wavenumbers pi*k over the symmetric integer range.
        self.wavenumbers = [np.pi * self._freq_full.copy() for _ in range(dims)]

        # Derivative multipliers broadcast against the half-spectrum, with the
        # Nyquist entry zeroed per axis.
        self._k_deriv = []
        for axis in range(dims):
            if axis == dims - 1:
                f = self._freq_half.copy()
                f[-1] = 0.0
            else:
                f = self._freq_full.copy()
                f[n // 2] = 0.0
            shape = [1] * dims
            shape[axis] = -1
            self._k_deriv.append((np.pi * f).reshape(shape))

        k2 = np.zeros(self.rshape)
        for k in self._k_deriv:
            k2 = k2 + k * k
        self.k_squared = k2
        with np.errstate(divide="ignore"):
            inv = np.where(k2 > 0.0, 1.0 / np.where(k2 > 0.0, k2, 1.0), 0.0)
        self.inv_k_squared = inv

        # 2/3-rule mask: keep |k| <= kmax_int with 3*kmax_int < n, so aliases
        # of products of kept modes land outside the kept band.
        self.dealias_kmax = (n - 1) // 3
        mask = np.ones(self.rshape, dtype=bool)
        for axis in range(dims):
            f = self._freq_half if axis == dims - 1 else self._freq_full
            keep = np.abs(f) <= self.dealias_kmax
            shape = [1] * dims
            shape[axis] = -1
            mask &= keep.reshape(shape)
        self.dealias_mask = mask

        for arr in (self.k_squared, self.inv_k_squared, self.dealias_mask):
            arr.setflags(write=False)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis."""
        return -1.0 + self.spacing * np.arange(self.n_per_axis)

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per axis, ``indexing='ij'``."""
        axes = [self.axis_coordinate(a) for a in range(self.dims)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def offsets(self) -> list[np.ndarray]:
        """Signed periodic offsets from the origin along each axis.

        Entry ``j`` is the coordinate of lattice point ``j`` relative to the
        origin under the minimum-image convention, so a kernel sampled on
        these offsets is centred at index 0.
        """
        n = self.n_per_axis
        idx = np.arange(n)
        signed = np.where(idx < n // 2, idx, idx - n)
        out = []
        for axis in range(self.dims):
            shape = [1] * self.dims
            shape[axis] = -1
            out.append((self.spacing * signed).reshape(shape))
        return out

    def deriv_wavenumber(self, axis: int) -> np.ndarray:
        """Broadcastable derivative multiplier for ``axis`` (Nyquist zeroed)."""
        return self._k_deriv[axis]

    def sample_scalar(self, fn: Callable[..., np.ndarray]) -> "ScalarField":
        """Sample ``fn(x1, ..., xN)`` on the lattice."""
        values = np.asarray(fn(*self.meshgrid()), dtype=float)
        values = np.broadcast_to(values, self.shape).copy()
        return ScalarField(self, values)

    def sample_velocity(self, *fns: Callable[..., np.ndarray]) -> "VelocityField":
        """Sample one callable per component on the lattice."""
        if len(fns) != self.dims:
            raise ConfigurationError(
                f"expected {self.dims} component functions, got {len(fns)}"
            )
        return VelocityField([self.sample_scalar(f) for f in fns])

    def rfftn(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values)

    def irfftn(self, hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(hat, s=self.shape, axes=tuple(range(self.dims)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PeriodicGrid)
            and self.dims == other.dims
            and self.n_per_axis == other.n_per_axis
        )

    def __hash__(self) -> int:
        return hash((self.dims, self.n_per_axis))

    def __repr__(self) -> str:
        return f"PeriodicGrid(dims={self.dims}, n_per_axis={self.n_per_axis})"


def make_grid(dims: int, n_per_axis: int) -> PeriodicGrid:
    """Build a :class:`PeriodicGrid`, rejecting invalid shapes."""
    return PeriodicGrid(dims, n_per_axis)


class ScalarField:
    """Real scalar samples on a :class:`PeriodicGrid` with a cached transform.

    Fields are value-semantic: the sample array is frozen at construction and
    the half-spectrum is computed lazily on first use.
    """

    __slots__ = ("grid", "values", "_hat")

    def __init__(self, grid: PeriodicGrid, values: np.ndarray, *, _hat=None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ConfigurationError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._hat = _hat

    @classmethod
    def from_hat(cls, grid: PeriodicGrid, hat: np.ndarray) -> "ScalarField":
        """Build a field from half-spectrum coefficients."""
        values = grid.irfftn(hat)
        out = cls(grid, values)
        out._hat = hat.copy()
        out._hat.setflags(write=False)
        return out

    @property
    def hat(self) -> np.ndarray:
        """Half-spectrum transform of the samples (cached)."""
        if self._hat is None:
            h = self.grid.rfftn(self.values)
            h.setflags(write=False)
            self._hat = h
        return self._hat

    def mean(self) -> float:
        return float(self.values.mean())

    def __repr__(self) -> str:
        return f"ScalarField(grid={self.grid!r})"


class VelocityField:
    """Vector field as one :class:`ScalarField` per axis.

    ``divergence_free`` is a constructor-trusted flag set by operations that
    guarantee the property (Leray projection, streamfunction recovery); use
    :meth:`check_divergence_free` to re-validate.
    """

    __slots__ = ("grid", "components", "divergence_free")

    def __init__(self, components: Sequence[ScalarField], *, divergence_free: bool = False):
        components = tuple(components)
        if not components:
            raise ConfigurationError("velocity field needs at least one component")
        grid = components[0].grid
        if any(c.grid != grid for c in components):
            raise GridMismatchError("velocity components live on different grids")
        if len(components) != grid.dims:
            raise ConfigurationError(
                f"expected {grid.dims} components, got {len(components)}"
            )
        self.grid = grid
        self.components = components
        self.divergence_free = divergence_free

    @classmethod
    def from_arrays(
        cls, grid: PeriodicGrid, arrays: Sequence[np.ndarray], *, divergence_free: bool = False
    ) -> "VelocityField":
        return cls([ScalarField(grid, a) for a in arrays], divergence_free=divergence_free)

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean speed."""
        sq = np.zeros(self.grid.shape)
        for c in self.components:
            sq += c.values * c.values
        return np.sqrt(sq)

    def max_speed(self) -> float:
        return float(self.magnitude().max())

    def check_divergence_free(self, rel_tol: float = 1e-10) -> bool:
        """Re-validate the divergence-free flag against the discrete operator."""
        ref = max(max_norm(self), 1e-300)
        return max_norm(divergence(self)) <= rel_tol * ref

    def __iter__(self):
        return iter(self.components)

    def __repr__(self) -> str:
        return (
            f"VelocityField(grid={self.grid!r}, divergence_free={self.divergence_free})"
        )


Field = Union[ScalarField, VelocityField]


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid!r} vs {b.grid!r}")


def gradient(f: ScalarField) -> VelocityField:
    """Spectral gradient; exact for band-limited fields."""
    grid = f.grid
    comps = []
    for axis in range(grid.dims):
        comps.append(
            ScalarField(grid, grid.irfftn(1j * grid.deriv_wavenumber(axis) * f.hat))
        )
    return VelocityField(comps)


def _dealiased_product(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half-spectrum of the pointwise product ``a * b``, 2/3-dealiased."""
    hat = grid.rfftn(a * b)
    hat *= grid.dealias_mask
    return hat


def _div_hat(grid: PeriodicGrid, hats: Sequence[np.ndarray]) -> np.ndarray:
    """Spectral divergence ``sum_j i k_j h_j`` of one spectrum per axis."""
    acc = np.zeros(grid.rshape, dtype=complex)
    for axis, h in enumerate(hats):
        acc = acc + 1j * grid.deriv_wavenumber(axis) * h
    return acc


def _leray_hats(grid: PeriodicGrid, hats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``h - k (k.h)/|k|^2`` on one spectrum per axis."""
    k_dot = np.zeros(grid.rshape, dtype=complex)
    for axis, h in enumerate(hats):
        k_dot = k_dot + grid.deriv_wavenumber(axis) * h
    scale = k_dot * grid.inv_k_squared
    return [h - grid.deriv_wavenumber(axis) * scale for axis, h in enumerate(hats)]


def divergence(u: VelocityField) -> ScalarField:
    """Spectral divergence, summed over axes."""
    grid = u.grid
    return ScalarField(grid, grid.irfftn(_div_hat(grid, [c.hat for c in u.components])))


def curl_2d(u: VelocityField) -> ScalarField:
    """Scalar curl ``d(u2)/dx1 - d(u1)/dx2`` of a planar field."""
    grid = u.grid
    if grid.dims != 2:
        raise ConfigurationError("curl_2d requires a 2D grid")
    hat = (
        1j * grid.deriv_wavenumber(0) * u.components[1].hat
        - 1j * grid.deriv_wavenumber(1) * u.components[0].hat
    )
    return ScalarField(grid, grid.irfftn(hat))


def leray_project(u: VelocityField) -> VelocityField:
    """Project onto divergence-free fields: ``u_hat -= k (k.u_hat)/|k|^2``.

    Identity on the zero mode (and on modes the derivative stencil cannot
    see); idempotent; the result is flagged divergence-free.
    """
    grid = u.grid
    hats = _leray_hats(grid, [c.hat for c in u.components])
    return VelocityField([ScalarField.from_hat(grid, h) for h in hats], divergence_free=True)


def lp_norm(f: Field, p_int: float) -> float:
    """Uniform-grid L^p norm ``(sum |f|^p h^N)^(1/p)``.

    Vector fields use the pointwise Euclidean magnitude.
    """
    if p_int < 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p_int}")
    mag = np.abs(f.values) if isinstance(f, ScalarField) else f.magnitude()
    return float((np.sum(mag**p_int) * f.grid.cell_volume) ** (1.0 / p_int))


def max_norm(f: Field) -> float:
    """Pointwise sup norm (Euclidean magnitude for vector fields)."""
    if isinstance(f, ScalarField):
        return float(np.abs(f.values).max())
    return f.max_speed()


def inner(f: Field, g: Field) -> float:
    """Discrete L^2 pairing ``sum f.g h^N``."""
    _require_same_grid(f, g)
    if isinstance(f, ScalarField) and isinstance(g, ScalarField):
        return float(np.sum(f.values * g.values) * f.grid.cell_volume)
    if isinstance(f, VelocityField) and isinstance(g, VelocityField):
        acc = 0.0
        for a, b in zip(f.components, g.components):
            acc += np.sum(a.values * b.values)
        return float(acc * f.grid.cell_volume)
    raise ConfigurationError("inner product requires two fields of the same kind")


def gradient_tensor(u: VelocityField) -> np.ndarray:
    """Full velocity gradient, shape ``(N, N) + grid.shape``; entry ``[i, j]``
    is ``d(u_i)/dx_j``."""
    grid = u.grid
    out = np.empty((grid.dims, grid.dims) + grid.shape)
    for i, c in enumerate(u.components):
        for j in range(grid.dims):
            out[i, j] = grid.irfftn(1j * grid.deriv_wavenumber(j) * c.hat)
    return out


def _resample_hat(src_grid: PeriodicGrid, hat: np.ndarray, dst_grid: PeriodicGrid) -> np.ndarray:
    """Map half-spectrum coefficients between resolutions (truncate or pad).

    Target Nyquist rows are zeroed, matching the derivative convention; the
    scale factor accounts for numpy's backward normalization.
    """
    n_s, n_d = src_grid.n_per_axis, dst_grid.n_per_axis
    out = np.zeros(dst_grid.rshape, dtype=complex)
    n_keep = min(n_s, n_d) // 2  # strictly-below-Nyquist modes per side
    src_idx = []
    dst_idx = []
    for axis in range(src_grid.dims - 1):
        src_idx.append(np.r_[0:n_keep, n_s - n_keep + 1 : n_s])
        dst_idx.append(np.r_[0:n_keep, n_d - n_keep + 1 : n_d])
    src_idx.append(np.r_[0:n_keep])
    dst_idx.append(np.r_[0:n_keep])
    out[np.ix_(*dst_idx)] = hat[np.ix_(*src_idx)]
    out *= (n_d / n_s) ** src_grid.dims
    return out


def resample(f: Field, grid: PeriodicGrid) -> Field:
    """Spectral restriction/prolongation onto another grid (same torus).

    Truncation drops modes at and above the target Nyquist band; band-limited
    fields resample exactly.
    """
    if isinstance(f, VelocityField):
        comps = [resample(c, grid) for c in f.components]
        return VelocityField(comps, divergence_free=f.divergence_free)
    if f.grid.dims != grid.dims:
        raise GridMismatchError("resample cannot change the spatial dimension")
    if f.grid.n_per_axis == grid.n_per_axis:
        return f
    return ScalarField.from_hat(grid, _resample_hat(f.grid, f.hat, grid))
