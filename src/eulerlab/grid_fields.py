"""Periodic grid, field containers, and spectral calculus on the flat torus.

The domain is the torus ``[-1, 1)^N`` sampled on a uniform lattice with a
power-of-two number of points per axis.  Scalar and velocity fields carry a
lazily computed real-to-complex transform; differentiation, divergence, and
Leray projection act on that half-spectrum and are exact for band-limited
fields.  Integrals are plain Riemann sums, which are spectrally accurate for
smooth periodic integrands.  Both field kinds have ``components``: a
velocity's one scalar field per axis, and a scalar field's ``(self,)``, so
a norm or pairing that walks components takes either kind.

The grid owns the two per-grid constants of every spectral pairing: the
derivative symbols ``ik`` and the interleaved ``parseval_weights`` that
:func:`_parseval_dot` takes.  The kernels here, the commutator pairings,
the pressure CG and the weak-form audit all read them; no other module
rebuilds them.

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

import itertools
import math
from typing import Callable, Iterable, Sequence, Union

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

    Precomputed attributes include the broadcastable derivative multipliers
    for the half-spectrum layout (integer multiples of pi, read through
    :meth:`deriv_wavenumber`), the derivative symbols ``ik`` (``1j`` times
    each multiplier), the inverse Laplacian symbol, the 2/3-rule dealias
    mask ``band_mask(dealias_kmax)``, the ``band_index`` of that band's
    compressed layout (``band_shape``), the derivative symbols on it
    (``band_ik``) and the interleaved ``parseval_weights``; all are
    read-only.  Every
    transform goes through :meth:`rfftn` and :meth:`irfftn`, whose band
    mode maps a 2-D grid's samples to the compressed band and back.
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

        # Integer frequencies per axis, broadcastable against the half-spectrum.
        self._frequencies = []
        for axis in range(dims):
            f = self._freq_half if axis == dims - 1 else self._freq_full
            shape = [1] * dims
            shape[axis] = -1
            self._frequencies.append(f.reshape(shape))

        # Derivative multipliers, with the Nyquist entry zeroed per axis.
        self._k_deriv = [
            np.pi * np.where(np.abs(f) == n // 2, 0.0, f) for f in self._frequencies
        ]
        # The derivative symbols i k: a kernel's (1j * k) * h is bitwise the
        # left-to-right product 1j * k * h.
        self.ik = tuple(1j * k for k in self._k_deriv)

        # |k|^2 is built and inverted in one buffer; modes with |k|^2 = 0
        # (the mean, and Nyquist modes whose multipliers are zeroed) get 0.
        inv = np.zeros(self.rshape)
        for k in self._k_deriv:
            inv += k * k
        zero = inv == 0.0
        inv[zero] = 1.0
        np.divide(1.0, inv, out=inv)
        inv[zero] = 0.0
        self.inv_k_squared = inv

        # 2/3-rule mask: keep |k| <= kmax_int with 3*kmax_int < n, so aliases
        # of products of kept modes land outside the kept band.
        self.dealias_kmax = (n - 1) // 3
        self.dealias_mask = self.band_mask(self.dealias_kmax)

        # The compressed dealias band: on each leading axis the rows 0..k and
        # then -k..-1 (the half-spectrum's own order), on the last axis the
        # columns 0..k; band_index picks it out of a half-spectrum, and
        # band_ik holds the derivative symbols' band entries, as broadcastable
        # as ik itself.
        k = self.dealias_kmax
        rows = np.r_[0 : k + 1, n - k : n]
        self.band_shape = (2 * k + 1,) * (dims - 1) + (k + 1,)
        self.band_index = np.ix_(*[rows] * (dims - 1), np.arange(k + 1))
        self.band_ik = tuple(np.take(ik, idx.ravel(), axis=axis)
                             for axis, (ik, idx) in enumerate(zip(self.ik, self.band_index)))

        # Parseval weights w over the last half-spectrum axis, with sum_x f g
        # = sum_k w Re(conj(F) G) for real fields on N points: 1/N on the
        # first and last columns, which are their own mirror images, and 2/N
        # elsewhere, where each coefficient also stands for its mirror.  They
        # are stored interleaved, one weight per real and per imaginary part,
        # the layout _parseval_dot reads.
        size = float(np.prod(self.shape))
        w = np.full(self.rshape[-1], 2.0 / size)
        w[0] = w[-1] = 1.0 / size
        self.parseval_weights = np.repeat(w, 2)

        for arr in (self.inv_k_squared, self.dealias_mask, self.parseval_weights, *self.ik,
                    *self._k_deriv, *self.band_index, *self.band_ik):
            arr.setflags(write=False)

    def band_mask(self, kmax: int) -> np.ndarray:
        """Half-spectrum modes whose integer frequencies all satisfy
        ``|k_i| <= kmax``."""
        mask = np.ones(self.rshape, dtype=bool)
        for f in self._frequencies:
            mask &= np.abs(f) <= kmax
        return mask

    def integer_k_squared(self) -> np.ndarray:
        """``|k|^2`` in integer frequency units on the half-spectrum (Nyquist
        modes included)."""
        acc = np.zeros(self.rshape)
        for f in self._frequencies:
            acc = acc + f**2
        return acc

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per axis, ``indexing='ij'``."""
        axis = -1.0 + self.spacing * np.arange(self.n_per_axis)
        return list(np.meshgrid(*[axis] * self.dims, indexing="ij"))

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

    def to_band(self, hat: np.ndarray) -> np.ndarray:
        """The compressed dealias band of a half-spectrum (or of a symbol
        that broadcasts to one), fresh."""
        return np.broadcast_to(hat, self.rshape)[self.band_index]

    def from_band(self, band: np.ndarray) -> np.ndarray:
        """The half-spectrum that holds the compressed ``band`` and zeros."""
        hat = np.zeros(self.rshape, dtype=complex)
        hat[self.band_index] = band
        return hat

    def rfftn(self, values: np.ndarray, band: "_BandWork" = None,
              out: np.ndarray = None) -> np.ndarray:
        """Half-spectrum of the real samples ``values`` (numpy's ``rfftn``),
        in ``out`` when given, else fresh.

        Given ``band``, a ``_BandWork`` of this 2-D grid, the compressed
        dealias band (:attr:`band_shape`), bitwise
        ``rfftn(values)[band_index]``: numpy's two passes in numpy's order,
        but the complex pass over axis 0 runs only over the band's columns,
        and the passes write into ``band``'s arrays.
        """
        if band is None:
            return np.fft.rfftn(values, out=out)
        k = self.dealias_kmax
        half = np.fft.rfft(values, axis=-1, out=band.half)
        columns = np.fft.fft(half[:, : k + 1], axis=0, out=band.full[:, : k + 1])
        out = np.empty(self.band_shape, dtype=complex) if out is None else out
        out[: k + 1] = columns[: k + 1]
        out[k + 1 :] = columns[-k:]
        return out

    def irfftn(self, hat: np.ndarray, band: "_BandWork" = None,
               out: np.ndarray = None) -> np.ndarray:
        """Real samples of the half-spectrum ``hat`` (numpy's ``irfftn``),
        in ``out`` when given, else fresh.

        Given ``band``, a ``_BandWork`` of this 2-D grid, ``hat`` is the
        compressed dealias band and the result is bitwise
        ``irfftn(from_band(hat))``: the complex pass over axis 0 runs only
        over the band's columns, on a zero-padded copy in ``band``'s arrays.
        """
        if band is None:
            return np.fft.irfftn(hat, s=self.shape, axes=tuple(range(self.dims)), out=out)
        k = self.dealias_kmax
        padded = band.padded  # zero outside the band rows
        padded[: k + 1] = hat[: k + 1]
        padded[-k:] = hat[k + 1 :]
        np.fft.ifft(padded, axis=0, out=band.full[:, : k + 1])
        return np.fft.irfft(band.full, n=self.n_per_axis, axis=-1, out=out)

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


class _BandWork:
    """The scratch of :meth:`PeriodicGrid.rfftn` and :meth:`~PeriodicGrid.irfftn`
    in band mode on a 2-D grid, which passing one selects, so a caller that
    keeps one allocates nothing full-size per transform.  ``half`` takes
    the forward real pass; ``full``, zero beyond the band columns, takes
    either complex pass over those columns and feeds the inverse real pass;
    ``padded``, zero outside the band rows, is the inverse complex pass's
    input.  ``spectrum`` is a band spectrum for a caller's temporaries,
    which no transform touches."""

    __slots__ = ("half", "full", "padded", "spectrum")

    def __init__(self, grid: PeriodicGrid):
        if grid.dims != 2:
            raise ConfigurationError(f"band transforms support dims=2 only, got dims={grid.dims}")
        self.half = np.empty(grid.rshape, dtype=complex)
        self.full = np.zeros(grid.rshape, dtype=complex)
        self.padded = np.zeros((grid.n_per_axis, grid.dealias_kmax + 1), dtype=complex)
        self.spectrum = np.empty(grid.band_shape, dtype=complex)


def make_grid(dims: int, n_per_axis: int) -> PeriodicGrid:
    """Build a :class:`PeriodicGrid`, rejecting invalid shapes."""
    return PeriodicGrid(dims, n_per_axis)


class ScalarField:
    """Real scalar samples on a :class:`PeriodicGrid` with a cached transform.

    Fields are value-semantic: the sample array is frozen at construction and
    the half-spectrum is computed lazily on first use.
    """

    __slots__ = ("grid", "values", "_hat")

    def __init__(self, grid: PeriodicGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ConfigurationError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        self._adopt(grid, values.copy())

    def _adopt(self, grid: PeriodicGrid, values: np.ndarray) -> None:
        """Freeze ``values``, an array no one else holds, as the samples."""
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("field values must be finite")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._hat = None

    @classmethod
    def _adopting(cls, grid: PeriodicGrid, values: np.ndarray) -> "ScalarField":
        """A field of ``values``, a fresh array no one else holds, uncopied."""
        out = cls.__new__(cls)
        out._adopt(grid, values)
        return out

    @classmethod
    def from_hat(cls, grid: PeriodicGrid, hat: np.ndarray) -> "ScalarField":
        """Build a field from half-spectrum coefficients; the inverse
        transform's fresh array becomes the samples, uncopied."""
        out = cls._adopting(grid, grid.irfftn(hat))
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

    @property
    def components(self) -> tuple["ScalarField"]:
        """``(self,)``: a scalar field is its own one component, so code that
        walks a field's components takes either kind."""
        return (self,)

    def mean(self) -> float:
        return float(self.values.mean())

    def __repr__(self) -> str:
        return f"ScalarField(grid={self.grid!r})"


class VelocityField:
    """Vector field as one :class:`ScalarField` per axis; use
    :meth:`check_divergence_free` to check the divergence constraint."""

    __slots__ = ("grid", "components")

    def __init__(self, components: Sequence[ScalarField]):
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

    @classmethod
    def from_arrays(cls, grid: PeriodicGrid, arrays: Sequence[np.ndarray]) -> "VelocityField":
        return cls([ScalarField(grid, a) for a in arrays])

    def max_speed(self) -> float:
        """Largest pointwise Euclidean speed."""
        return _max_speed([c.values for c in self.components])

    def check_divergence_free(self, rel_tol: float = 1e-10) -> bool:
        """Whether the discrete divergence vanishes relative to the field's size."""
        ref = max(max_norm(self), 1e-300)
        return max_norm(divergence(self)) <= rel_tol * ref

    def __iter__(self):
        return iter(self.components)

    def __repr__(self) -> str:
        return f"VelocityField(grid={self.grid!r})"


Field = Union[ScalarField, VelocityField]


def _squared_magnitude(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Pointwise ``|a|^2`` of the component samples ``arrays``, fresh."""
    sq = arrays[0] * arrays[0]
    for c in arrays[1:]:
        sq += c * c
    return sq


def _max_speed(arrays: Sequence[np.ndarray]) -> float:
    """Largest pointwise Euclidean norm of the component samples ``arrays``:
    one square root, of the largest square (bitwise the max magnitude)."""
    return math.sqrt(float(_squared_magnitude(arrays).max()))


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid!r} vs {b.grid!r}")


def gradient(f: ScalarField) -> VelocityField:
    """Spectral gradient; exact for band-limited fields."""
    grid = f.grid
    return VelocityField([
        ScalarField._adopting(grid, grid.irfftn(ik * f.hat)) for ik in grid.ik
    ])


def _dealiased_product(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray,
                       out: np.ndarray = None, samples: np.ndarray = None) -> np.ndarray:
    """Half-spectrum of the pointwise product ``a * b``, 2/3-dealiased, in
    ``out`` when given, else fresh; ``samples``, when given, takes the
    product."""
    hat = grid.rfftn(np.multiply(a, b, out=samples), out=out)
    hat *= grid.dealias_mask
    return hat


def _dealiased_product_tensor(
    grid: PeriodicGrid, arrays: Sequence[np.ndarray],
    out: Iterable[np.ndarray] = None, samples: np.ndarray = None,
) -> list[list[np.ndarray]]:
    """Symmetric table of the half-spectra of ``a_i * a_j``, 2/3-dealiased.

    Entries ``[i][j]`` and ``[j][i]`` are one array, transformed once: the
    pointwise product commutes exactly in floating point.  Given ``out``,
    one half-spectrum per unordered pair in row order, and ``samples``, the
    table is written into them, as :func:`_dealiased_product` would be.
    """
    dims = len(arrays)
    spectra = itertools.repeat(None) if out is None else iter(out)
    table = [[None] * dims for _ in range(dims)]
    for i in range(dims):
        for j in range(i, dims):
            table[i][j] = table[j][i] = _dealiased_product(
                grid, arrays[i], arrays[j], next(spectra), samples)
    return table


def _div_hat(grid: PeriodicGrid, hats: Iterable[np.ndarray], band: bool = False,
             out: np.ndarray = None, term: np.ndarray = None) -> np.ndarray:
    """Spectral divergence ``sum_j i k_j h_j`` of one spectrum per axis:
    half-spectra, or with ``band`` compressed dealias bands; in ``out``
    when given, else fresh.

    The sum starts from its first term and adds the others in place, each
    in ``term`` when given: every fresh full-size temporary costs page
    faults on large grids.  Each term is added before the next spectrum is
    drawn, so ``hats`` may be a generator that yields one buffer over and
    over."""
    terms = zip(grid.band_ik if band else grid.ik, hats)
    ik, h = next(terms)
    acc = np.multiply(ik, h, out=out)
    for ik, h in terms:
        acc += np.multiply(ik, h, out=term)
    return acc


def _negative(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``-a`` of a complex array into ``out``, which may be ``a`` itself;
    both must be contiguous along their last axis.  Bitwise numpy's complex
    negative, which flips the sign of each part, but taken as one pass over
    the interleaved real view: numpy's complex loop runs 2-5 times slower."""
    np.negative(a.view(np.float64), out=out.view(np.float64))
    return out


def _div_product_hats(grid: PeriodicGrid, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Spectral ``div(a (x) a)``, ``sum_j d_j(a_i a_j)`` per component, of the
    samples ``arrays``: the dealiased product table, one divergence per row."""
    return [_div_hat(grid, row) for row in _dealiased_product_tensor(grid, arrays)]


def _leray_hats(grid: PeriodicGrid, hats: Sequence[np.ndarray],
                out: Sequence[np.ndarray] = None, scale: np.ndarray = None,
                term: np.ndarray = None) -> list[np.ndarray]:
    """``h - k (k.h)/|k|^2`` on one spectrum per axis, in ``out`` when given
    (``hats`` itself projects in place), else fresh; ``scale`` and
    ``term``, when given, take ``(k.h)/|k|^2`` and each product by ``k``."""
    if scale is None:
        scale = np.zeros(grid.rshape, dtype=complex)
    else:
        scale.fill(0.0)
    for axis, h in enumerate(hats):
        scale += np.multiply(grid.deriv_wavenumber(axis), h, out=term)
    scale *= grid.inv_k_squared
    out = [None] * len(hats) if out is None else out
    return [np.subtract(h, np.multiply(grid.deriv_wavenumber(axis), scale, out=term), out=o)
            for axis, (h, o) in enumerate(zip(hats, out))]


def _parseval_dot(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """``sum_k w Re(conj(a) b)`` of two C-contiguous half-spectra in one
    einsum pass over their interleaved real views: no ``w * b`` temporary,
    and no multithreaded BLAS to wake, as ``np.vdot`` would.  ``weights`` is
    ``grid.parseval_weights`` for whole half-spectra, or those weights
    broadcast and masked alike for spectra taken on a band."""
    return float(np.einsum("ij,ij,j->", a.view(np.float64).reshape(-1, weights.size),
                           b.view(np.float64).reshape(-1, weights.size), weights))


def divergence(u: VelocityField) -> ScalarField:
    """Spectral divergence, summed over axes."""
    grid = u.grid
    return ScalarField._adopting(grid, grid.irfftn(_div_hat(grid, [c.hat for c in u.components])))


def curl_2d(u: VelocityField) -> ScalarField:
    """Scalar curl ``d(u2)/dx1 - d(u1)/dx2`` of a planar field."""
    grid = u.grid
    if grid.dims != 2:
        raise ConfigurationError("curl_2d requires a 2D grid")
    hat = grid.ik[0] * u.components[1].hat - grid.ik[1] * u.components[0].hat
    return ScalarField._adopting(grid, grid.irfftn(hat))


def leray_project(u: VelocityField) -> VelocityField:
    """Project onto divergence-free fields: ``u_hat -= k (k.u_hat)/|k|^2``.

    Identity on the zero mode (and on modes the derivative stencil cannot
    see); idempotent.
    """
    grid = u.grid
    hats = _leray_hats(grid, [c.hat for c in u.components])
    return VelocityField([ScalarField.from_hat(grid, h) for h in hats])


def _lp_norm(grid: PeriodicGrid, arrays: Sequence[np.ndarray], p_int: float) -> float:
    """``(sum |a|^p h^N)^(1/p)`` of the pointwise Euclidean magnitude of the
    component samples ``arrays`` (one array: its absolute value)."""
    if not p_int >= 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p_int}")
    mag = np.abs(arrays[0]) if len(arrays) == 1 else np.sqrt(_squared_magnitude(arrays))
    return float((np.sum(mag**p_int) * grid.cell_volume) ** (1.0 / p_int))


def lp_norm(f: Field, p_int: float) -> float:
    """Uniform-grid L^p norm ``(sum |f|^p h^N)^(1/p)``.

    Vector fields use the pointwise Euclidean magnitude.
    """
    return _lp_norm(f.grid, [c.values for c in f.components], p_int)


def max_norm(f: Field) -> float:
    """Pointwise sup norm (Euclidean magnitude for vector fields)."""
    if isinstance(f, ScalarField):
        return float(np.abs(f.values).max())
    return f.max_speed()


def inner(f: Field, g: Field) -> float:
    """Discrete L^2 pairing ``sum f.g h^N``."""
    _require_same_grid(f, g)
    if len(f.components) != len(g.components):
        raise ConfigurationError("inner product requires two fields of the same kind")
    acc = 0.0
    for a, b in zip(f.components, g.components):
        acc += np.sum(a.values * b.values)
    return float(acc * f.grid.cell_volume)


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
        return VelocityField([resample(c, grid) for c in f.components])
    if f.grid.dims != grid.dims:
        raise GridMismatchError("resample cannot change the spatial dimension")
    if f.grid.n_per_axis == grid.n_per_axis:
        return f
    return ScalarField.from_hat(grid, _resample_hat(f.grid, f.hat, grid))
