"""Deterministic generators of velocity fields with known structure.

All generators are pure functions of their arguments; randomness comes from a
Philox counter-based generator keyed on the caller's seed, so identical inputs
give bitwise-identical fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .grid_fields import (
    PeriodicGrid,
    ScalarField,
    VelocityField,
    leray_project,
)

__all__ = [
    "SynthSpec",
    "lacunary_field",
    "taylor_green",
    "taylor_green_pressure",
    "shear_flow",
    "random_divfree",
    "low_mode_divfree",
    "field_from_spec",
]

KINDS = ("lacunary", "taylor_green", "shear", "random_divfree", "constant")

# Lattice directions probed per octave; four of them so no single axis
# dominates the translation statistics.
_OCTAVE_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))


@dataclass(frozen=True)
class SynthSpec:
    """Declarative description of a synthetic field."""

    kind: str
    alpha: Optional[float] = None
    j_max: Optional[int] = None
    seed: int = 0
    amplitude: float = 1.0
    slope: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown synth kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "lacunary":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ConfigurationError("lacunary fields need alpha in (0, 1)")
            if self.j_max is None or self.j_max < 1:
                raise ConfigurationError("lacunary fields need j_max >= 1")
        if self.kind == "random_divfree" and self.slope is None:
            raise ConfigurationError("random_divfree needs a spectral slope")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def lacunary_field(spec: SynthSpec, grid: PeriodicGrid) -> VelocityField:
    """Octave superposition with amplitudes 2^(-alpha j) at frequencies 2^j pi.

    Each octave carries the four lattice directions in seeded random order
    with random amplitude jitter, phase, and transverse orientation; every
    mode is transverse to its wavevector, so the field is divergence-free by
    construction.  Translation differences then scale like |xi|^alpha between
    the finest and coarsest octave wavelengths.

    Every mode ``cos(pi k.x + phase)`` sits on the lattice at the integer
    frequency ``k = 2^j d``, so the field is built in spectral space: each
    mode's coefficient is written straight into a zeroed half-spectrum per
    component and one inverse transform per component gives the samples.
    For the four lattice directions every coefficient is exactly transverse
    (``k . e`` cancels term by term in floating point), so no projection is
    needed, and the returned components carry their spectra.
    """
    if spec.kind != "lacunary":
        raise ConfigurationError(f"spec kind is {spec.kind!r}, not 'lacunary'")
    if grid.dims != 2:
        raise ConfigurationError("lacunary synthesis is implemented for dims=2 only")
    top = (1 << spec.j_max) * max(abs(c) for d in _OCTAVE_DIRECTIONS for c in d)
    if top > grid.dealias_kmax:
        raise ConfigurationError(
            f"finest octave j_max={spec.j_max} exceeds the dealiased band "
            f"(|k| <= {grid.dealias_kmax}) on n={grid.n_per_axis}"
        )
    gen = _rng(spec.seed)
    n = grid.n_per_axis
    hats = [np.zeros(grid.rshape, dtype=complex) for _ in range(grid.dims)]
    # The box truncates the octave ladder below frequency pi; the coarsest
    # octave absorbs the missing infrared tail (geometric sum of the Taylor
    # responses of the absent octaves), otherwise dyadic-shift statistics sag
    # below the |xi|^alpha law as alpha -> 1.
    ir = 2.0 ** (2.0 - 2.0 * spec.alpha)
    ir_boost = np.sqrt(ir / (ir - 1.0))
    for j in range(1, spec.j_max + 1):
        scale = spec.amplitude * 2.0 ** (-spec.alpha * j)
        if j == 1:
            scale *= ir_boost
        order = gen.permutation(len(_OCTAVE_DIRECTIONS))
        for m in order:
            d = np.asarray(_OCTAVE_DIRECTIONS[m], dtype=float)
            amp = gen.uniform(0.75, 1.25)
            phase = gen.uniform(0.0, 2.0 * np.pi)
            sign = 1.0 if gen.integers(0, 2) == 1 else -1.0
            e = sign * np.array([-d[1], d[0]]) / np.linalg.norm(d)
            k0, k1 = ((1 << j) * c for c in _OCTAVE_DIRECTIONS[m])
            # numpy's unnormalised transform of the cosine carries half the
            # sample count at +k and its conjugate at -k.  Sample 0 sits at
            # x = -1, which shifts the phase by -pi (k0 + k1): a whole number
            # of turns, since k0 + k1 = 2^j (d0 + d1) is even.
            coef = 0.5 * n**grid.dims * np.exp(1j * phase)
            # The half-spectrum keeps k1 >= 0, so the k1 = 0 column holds both.
            slots = []
            if k1 >= 0:
                slots.append(((k0 % n, k1), coef))
            if k1 <= 0:
                slots.append((((-k0) % n, -k1), np.conj(coef)))
            for a in range(grid.dims):
                for idx, value in slots:
                    hats[a][idx] += scale * amp * e[a] * value
    return VelocityField([ScalarField.from_hat(grid, h) for h in hats])


def taylor_green(grid: PeriodicGrid, amplitude: float) -> VelocityField:
    """Steady 2D Euler cell flow ``A (sin(pi x1) cos(pi x2), -cos(pi x1) sin(pi x2))``."""
    if grid.dims != 2:
        raise ConfigurationError("taylor_green requires dims=2")
    x, y = grid.meshgrid()
    u1 = amplitude * np.sin(np.pi * x) * np.cos(np.pi * y)
    u2 = -amplitude * np.cos(np.pi * x) * np.sin(np.pi * y)
    return VelocityField.from_arrays(grid, [u1, u2])


def taylor_green_pressure(grid: PeriodicGrid, amplitude: float) -> ScalarField:
    """Pressure balancing the cell flow: ``(A^2/4)(cos(2 pi x1) + cos(2 pi x2))``.

    Derived from ``grad p = -(u . grad) u``; the advection term reduces to
    ``(A^2 pi / 2)(sin(2 pi x1), sin(2 pi x2))``.
    """
    x, y = grid.meshgrid()
    return ScalarField(
        grid, 0.25 * amplitude**2 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))
    )


def shear_flow(grid: PeriodicGrid, profile: ScalarField) -> VelocityField:
    """Unidirectional flow ``(profile(x2), 0)``; divergence-free for any profile."""
    if grid.dims != 2:
        raise ConfigurationError("shear_flow requires dims=2")
    if profile.grid != grid:
        raise ConfigurationError("profile must live on the target grid")
    vals = profile.values
    if np.max(np.abs(vals - vals[:1, :])) > 1e-12 * max(1.0, np.abs(vals).max()):
        raise ConfigurationError("shear profile must depend on x2 only")
    return VelocityField.from_arrays(grid, [vals.copy(), np.zeros(grid.shape)])


def _filtered_noise(grid: PeriodicGrid, gen: np.random.Generator,
                    symbol: np.ndarray) -> np.ndarray:
    """One Gaussian white-noise sample with its half-spectrum scaled by ``symbol``."""
    return grid.irfftn(grid.rfftn(gen.standard_normal(grid.shape)) * symbol)


def _solenoidal_at_speed(grid: PeriodicGrid, comps, amplitude: float) -> VelocityField:
    """Leray-project the components and scale the max speed to ``amplitude``
    (a vanishing field is returned as projected)."""
    u = leray_project(VelocityField.from_arrays(grid, comps))
    speed = u.max_speed()
    if speed == 0.0:
        return u
    arrays = [amplitude / speed * c.values for c in u.components]
    return VelocityField.from_arrays(grid, arrays)


def _kmax_problem(grid: PeriodicGrid, kmax: int) -> str | None:
    """Why ``kmax`` is no band of a low-mode field on ``grid``, or None."""
    if kmax < 1 or kmax > grid.dealias_kmax:
        return f"kmax must lie in [1, {grid.dealias_kmax}] on n={grid.n_per_axis}"
    return None


def _check_kmax(grid: PeriodicGrid, kmax: int) -> None:
    problem = _kmax_problem(grid, kmax)
    if problem:
        raise ConfigurationError(problem)


def random_divfree(
    grid: PeriodicGrid, slope: float, seed: int, amplitude: float = 1.0
) -> VelocityField:
    """Power-law Gaussian field ``|u_hat(k)| ~ |k|^(-slope)``, solenoidal and
    band-limited to the dealiased range; max speed normalized to ``amplitude``."""
    gen = _rng(seed)
    kmag2 = grid.integer_k_squared()
    with np.errstate(divide="ignore"):
        envelope = np.where(kmag2 > 0.0, np.sqrt(kmag2) ** (-slope), 0.0)
    envelope *= grid.dealias_mask
    comps = [_filtered_noise(grid, gen, envelope) for _ in range(grid.dims)]
    return _solenoidal_at_speed(grid, comps, amplitude)


def low_mode_scalar(grid: PeriodicGrid, kmax: int, seed: int) -> ScalarField:
    """Gaussian scalar confined to integer modes ``|k_i| <= kmax``, sup-norm
    normalized to 1."""
    _check_kmax(grid, kmax)
    vals = _filtered_noise(grid, _rng(seed), grid.band_mask(kmax))
    top = np.abs(vals).max()
    if top > 0.0:
        vals *= 1.0 / top
    return ScalarField(grid, vals)


def low_mode_divfree(grid: PeriodicGrid, kmax: int, seed: int) -> VelocityField:
    """Gaussian solenoidal field confined to integer modes ``|k_i| <= kmax``;
    max speed normalized to 1.  Useful as a weak-formulation test
    function (band-limited far below the dealias cutoff)."""
    _check_kmax(grid, kmax)
    gen = _rng(seed)
    mask = grid.band_mask(kmax)
    comps = [_filtered_noise(grid, gen, mask) for _ in range(grid.dims)]
    return _solenoidal_at_speed(grid, comps, 1.0)


def field_from_spec(spec: SynthSpec, grid: PeriodicGrid) -> VelocityField:
    """Dispatch a :class:`SynthSpec` to its generator."""
    if spec.kind == "lacunary":
        return lacunary_field(spec, grid)
    if spec.kind == "taylor_green":
        return taylor_green(grid, spec.amplitude)
    if spec.kind == "shear":
        profile = grid.sample_scalar(lambda *xs: spec.amplitude * np.sin(np.pi * xs[1]))
        return shear_flow(grid, profile)
    if spec.kind == "random_divfree":
        return random_divfree(grid, spec.slope, spec.seed, spec.amplitude)
    if spec.kind == "constant":
        arrays = [np.full(grid.shape, spec.amplitude)] + [
            np.zeros(grid.shape) for _ in range(grid.dims - 1)
        ]
        return VelocityField.from_arrays(grid, arrays)
    raise ConfigurationError(f"unknown synth kind {spec.kind!r}")
