"""Mollification commutators and their epsilon-scaling against theory rates.

Two quantities are exposed: the convective commutator
``div(v_eps (x) v_eps) - (div(v (x) v))_eps`` whose L^(p/2) norm decays like
``eps^(2 alpha - 1)`` for fields in the alpha-Besov class, and the trilinear
pairing ``int [(u (x) u)_eps - u_eps (x) u_eps] : grad(v_eps - u_eps)`` whose
magnitude decays like ``eps^(3 alpha - 1)``.  A transport variant
``(rho u)_eps - rho_eps u_eps`` serves the inhomogeneous system.

``ROUTES`` is the one home of the two budget routes: each names its quantity,
whether it sweeps a ``(u, v)`` pair, and the power ``p`` of its rate
``eps^(p alpha - 1)``, which decays exactly when ``alpha > 1/p``, the
route's hypothesis threshold.
``_sweep`` is the one epsilon sweep of a route, shared by
``scaling_experiment``, which fits its log-log slope and passes it when the
slope comes within the constant ``SLOPE_TOLERANCE`` (0.15) of the rate
``p alpha - 1``, and ``uniqueness._certify_pair``, which charges its largest
constant as the route's budget.

Quadratic products are evaluated pointwise and 2/3-dealiased before any
derivative is taken, matching the solver convention, so every term is the
Galerkin product of band-limited fields.  A dealiased spectrum is zero
outside the compressed dealias band (``grid.band_shape``, 44% of a
half-spectrum at 512^2), so the sweeps take every product in the grid's
band mode, with transient scratch, and keep only band spectra:
``div(v (x) v)``, the product table, ``m_ij``, the gradient factors and
the band entries of the kernel's multiplier, each bitwise the whole
half-spectrum's entries on the band.  Only the mollified samples
``v_eps`` and ``u_eps`` come from whole half-spectra, since the fields
need not be band-limited.

An epsilon sweep builds the transformed terms that do not depend on
epsilon once (``div(v (x) v)``; the product spectra of ``u_i u_j``) and
then spends 7 transforms per scale on the convective commutator and 5 on
the trilinear pairing, besides the kernel's own.  The pairing never leaves
spectral space: ``m_ij`` meets ``d_b(v_eps - u_eps)_a`` in a Parseval sum
over the band (``grid_fields._parseval_dot``, with the grid's ``band_ik``
and the band's share of ``parseval_weights``), and it streams: each
``m_ij`` is paired and freed before the next is built.  The factors
``v - u`` are not hoisted: they cost no transform, since the fields cache
their spectra, and held for the whole sweep they would add one band
spectrum per component to its peak memory.  Across its scales a sweep
holds its input fields (samples and cached spectra), the kernel and the
band terms built once; a scale's peak is the mollified samples with one
product and its forward transform's transient half-spectrum.
The per-scale kernels return arrays, not fields, and so does
``_transport_at``, whose spectra the scalar-contraction audit of
:mod:`~eulerlab.extensions` pairs the same way, on whole half-spectra.
The public single-scale functions run the same code on terms they build
themselves.  ``_sweep_problems`` is the one home of a sweep's rules;
sweeps run from the largest scale down, whatever order the scales are
given in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .besov import _check_exponents, _estimate, _probe_fit, besov_seminorm
from .errors import ConfigurationError, GridMismatchError
from .grid_fields import (
    PeriodicGrid,
    ScalarField,
    VelocityField,
    _band_product_tensor,
    _dealiased_product,
    _div_product_bands,
    _lp_norm,
    _parseval_dot,
)
from .mollify import MollifierKernel, epsilon_problem, make_kernel
from .reporting import _as_json

__all__ = [
    "ScalingReport",
    "convective_commutator",
    "cet_trilinear",
    "transport_commutator",
    "scaling_experiment",
    "SLOPE_TOLERANCE",
]

# Finite grids and finite eps ranges bias log-log fits; calibrated headroom
# for the pass verdict.
SLOPE_TOLERANCE = 0.15

# Magnitudes below this are quadrature noise; sweeps that never rise above it
# are reported as vacuous passes.
VACUOUS_MAGNITUDE = 1e-14


class Route(NamedTuple):
    """A budget route: its sweep quantity, rate power ``p`` and arity."""

    quantity: str
    power: float
    pair: bool  # sweeps (u, v), not v alone

    def seminorm_factor(self, squared: float, seminorms: Sequence[float]) -> float:
        """``s_v^2`` or ``s_u^2 (s_u + s_v)`` from the seminorms in sweep order and
        the first one ``squared`` in the caller's form (``s ** 2``, ``s * s``)."""
        return squared * (seminorms[0] + seminorms[1]) if self.pair else squared


ROUTES = {"convective": Route("convective_commutator_lp", 2.0, False),
          "trilinear": Route("cet_trilinear", 3.0, True)}
_BY_QUANTITY = {r.quantity: r for r in ROUTES.values()}


def _sweep_problems(route: Route, epsilons: Sequence[float], grid: PeriodicGrid,
                    p_int: float) -> list[str]:
    """Every reason a sweep of ``route`` over ``epsilons`` on ``grid`` at the
    integrability ``p_int`` cannot run, in this order: the convective
    commutator, the route on one field, is measured in L^(p/2) (see
    :func:`_sweep`), a norm only from ``p >= 2`` on; a rate fit needs at
    least 4 distinct scales; and ``grid`` must admit each scale."""
    problems = []
    if not route.pair and not p_int >= 2.0:
        problems.append(f"p {p_int} is below 2, the least the convective commutator's "
                        "L^(p/2) norm admits")
    if len(epsilons) < 4:
        problems.append(f"need at least 4 epsilons for a rate fit, got {len(epsilons)}")
    if len(set(epsilons)) != len(epsilons):
        problems.append("the sweep's epsilons must be distinct")
    problems += filter(None, (epsilon_problem(grid, eps) for eps in epsilons))
    return problems


def _convective_at(v: VelocityField, div_raw: Sequence[np.ndarray],
                   kernel: MollifierKernel) -> list[np.ndarray]:
    """The convective commutator's component samples at one scale, given
    ``div_raw``, the band spectra ``_div_product_bands`` of ``v``: 7
    transforms, the last 5 in band mode."""
    grid = v.grid
    v_eps = [grid.irfftn(c.hat * kernel.multiplier) for c in v.components]
    bands = _div_product_bands(grid, v_eps)
    del v_eps  # free the mollified samples before the inverse transforms
    mult = grid.to_band(kernel.multiplier)
    for b, raw in zip(bands, div_raw):
        b -= raw * mult
    return [grid.irfftn(b, band=True) for b in bands]


def convective_commutator(v: VelocityField, kernel: MollifierKernel) -> VelocityField:
    """``div(v_eps (x) v_eps) - (div(v (x) v))_eps`` as a vector field."""
    if v.grid != kernel.grid:
        raise GridMismatchError("field and kernel live on different grids")
    div_raw = _div_product_bands(v.grid, [c.values for c in v.components])
    return VelocityField.from_arrays(v.grid, _convective_at(v, div_raw, kernel))


def _cet_at(u: VelocityField, v: VelocityField, products: Sequence[Sequence[np.ndarray]],
            kernel: MollifierKernel) -> float:
    """The trilinear pairing at one scale, given ``products``, the band
    spectra ``_band_product_tensor`` of ``u``: 5 transforms, the last 3 in
    band mode.

    ``m_ij = (u_i u_j)_eps - u_eps,i u_eps,j`` is symmetric, so each
    unordered pair is built once on the band, paired with both
    ``d_j(v_eps - u_eps)_i`` and ``d_i(v_eps - u_eps)_j`` through
    ``_parseval_dot`` with the band's share of the Parseval weights and
    freed, so neither factor is transformed back; the gradient factors are
    rebuilt on the band from the fields' cached spectra for each pairing,
    and the terms are summed in row-major order.
    """
    grid = u.grid
    mult = grid.to_band(kernel.multiplier)
    weights = grid.parseval_weights[: 2 * grid.band_shape[-1]]  # the band's columns

    def grad_diff(a: int, b: int) -> np.ndarray:
        """``d_b(v_eps - u_eps)_a``, built in place: one band spectrum."""
        g = grid.to_band(v.components[a].hat)
        g -= grid.to_band(u.components[a].hat)
        g *= mult
        g *= grid.band_ik[b]
        return g

    u_eps = [grid.irfftn(c.hat * kernel.multiplier) for c in u.components]
    terms = [[0.0] * grid.dims for _ in range(grid.dims)]
    for i in range(grid.dims):
        for j in range(i, grid.dims):
            m = grid.rfftn(u_eps[i] * u_eps[j], band=True)
            if j == grid.dims - 1:
                u_eps[i] = None  # its last product
            np.subtract(products[i][j] * mult, m, out=m)
            for a, b in {(i, j), (j, i)}:
                terms[a][b] = _parseval_dot(m, grad_diff(a, b), weights)
            del m  # free m_ij before the next product is transformed
    total = 0.0
    for row in terms:
        for t in row:
            total += t
    return total * grid.cell_volume


def cet_trilinear(u: VelocityField, v: VelocityField, kernel: MollifierKernel) -> float:
    """Single-slice trilinear pairing
    ``int [(u (x) u)_eps - u_eps (x) u_eps] : grad(v_eps - u_eps) dx``."""
    grid = u.grid
    if grid != v.grid or grid != kernel.grid:
        raise GridMismatchError("fields and kernel live on different grids")
    products = _band_product_tensor(grid, [c.values for c in u.components])
    return _cet_at(u, v, products, kernel)


def _transport_at(rho: ScalarField, u: VelocityField,
                  kernel: MollifierKernel) -> list[np.ndarray]:
    """The transport commutator's component spectra: 7 transforms in 2D
    (``rho_eps``, the two ``u_eps`` components and the four products), none
    of them back to samples of the result."""
    grid = rho.grid
    mult = kernel.multiplier
    rho_eps = grid.irfftn(rho.hat * mult)
    hats = []
    for c in u.components:
        hat = _dealiased_product(grid, rho.values, c.values) * mult
        hat -= _dealiased_product(grid, rho_eps, grid.irfftn(c.hat * mult))
        hats.append(hat)
    return hats


def transport_commutator(
    rho: ScalarField, u: VelocityField, kernel: MollifierKernel
) -> VelocityField:
    """``(rho u)_eps - rho_eps u_eps`` as a vector field."""
    grid = rho.grid
    if grid != u.grid or grid != kernel.grid:
        raise GridMismatchError("fields and kernel live on different grids")
    return VelocityField([ScalarField.from_hat(grid, h) for h in _transport_at(rho, u, kernel)])


@dataclass
class ScalingReport:
    """Outcome of one dyadic epsilon sweep against a theory rate.

    ``intercepts`` are the per-epsilon constants ``magnitude / (eps^rate *
    seminorm factor)``; their spread across the sweep measures how uniform the
    bound's constant is.
    """

    quantity: str
    alpha: float
    p_int: float
    epsilons: list[float]
    magnitudes: list[float]
    fitted_slope: float
    theory_slope: float
    passed: bool
    vacuous: bool
    intercepts: list[float]
    seminorms: dict[str, float]
    slope_tolerance: float

    def to_json_dict(self) -> dict:
        return _as_json(self)


def _sweep(route: Route, fields: Sequence[VelocityField], seminorms: Sequence[float],
           alpha: float, epsilons: Sequence[float],
           p_int: float) -> tuple[float, list[float], list[float], bool]:
    """Sweep ``route`` over ``epsilons`` on ``fields``, ``(v,)`` or ``(u, v)``
    on a pair route, whose seminorms are ``seminorms`` in the same order: the
    rate ``p alpha - 1``, the magnitudes (the absolute trilinear pairing or
    the convective commutator's L^(p/2) norm), the constants ``magnitude /
    (eps^rate * seminorm factor)`` (zero when every magnitude is quadrature
    noise) and whether the sweep is vacuous.  The epsilon-independent terms
    are built once for the whole sweep."""
    rate = route.power * alpha - 1.0
    bound_factor = route.seminorm_factor(seminorms[0] ** 2, seminorms)
    grid = fields[0].grid
    v = fields[-1]
    if route.pair:
        u = fields[0]
        products = _band_product_tensor(grid, [c.values for c in u.components])
        magnitudes = [abs(_cet_at(u, v, products, make_kernel(grid, eps))) for eps in epsilons]
    else:
        div_raw = _div_product_bands(grid, [c.values for c in v.components])
        magnitudes = [_lp_norm(grid, _convective_at(v, div_raw, make_kernel(grid, eps)),
                               p_int / 2.0) for eps in epsilons]
    if all(m <= VACUOUS_MAGNITUDE for m in magnitudes):
        return rate, magnitudes, [0.0 for _ in epsilons], True
    denom = max(bound_factor, 1e-300)
    return rate, magnitudes, [m / (e**rate * denom) for m, e in zip(magnitudes, epsilons)], False


def scaling_experiment(
    fields: Union[VelocityField, Sequence[VelocityField]],
    quantity: str,
    epsilons: Sequence[float],
    p_int: float = 3.0,
    *,
    alpha: Optional[float] = None,
) -> ScalingReport:
    """Evaluate a commutator quantity over a dyadic epsilon sweep and fit its
    log-log decay rate.

    ``fields`` is one velocity field for ``"convective_commutator_lp"`` and a
    ``(u, v)`` pair for ``"cet_trilinear"``.  The scales are swept and
    reported largest first.  ``alpha`` defaults to the exponent fitted from
    the input fields themselves (their mean for a pair), so the theory slope
    tracks the realized regularity rather than a nominal label.
    """
    if quantity not in _BY_QUANTITY:
        raise ConfigurationError(
            f"unknown quantity {quantity!r}; choose from {tuple(_BY_QUANTITY)}")
    route = _BY_QUANTITY[quantity]
    if not route.pair and isinstance(fields, VelocityField):
        fields = (fields,)
    elif not route.pair or isinstance(fields, VelocityField) or len(fields) != 2:
        raise ConfigurationError(f"{quantity} needs a (u, v) field pair" if route.pair
                                 else f"{quantity} takes one velocity field")
    epsilons = sorted((float(e) for e in epsilons), reverse=True)
    problems = _sweep_problems(route, epsilons, fields[0].grid, p_int)
    if problems:
        raise ConfigurationError(problems[0])

    if alpha is None:
        # one probe per field gives both its exponent and its seminorm
        probed = [_probe_fit(f, p_int) for f in fields]
        alpha = float(np.mean([fit for _, fit in probed]))
        _check_exponents(alpha, p_int)
        semi = [_estimate(f.grid, rows, alpha, p_int).seminorm
                for f, (rows, _) in zip(fields, probed)]
    else:
        semi = [besov_seminorm(f, alpha, p_int).seminorm for f in fields]
    seminorms = dict(zip(("u", "v") if route.pair else ("v",), semi))
    theory_slope, magnitudes, intercepts, vacuous = _sweep(route, fields, semi, alpha,
                                                           epsilons, p_int)
    if vacuous:
        fitted_slope = float("nan")
        passed = True
    else:
        loge = np.log(epsilons)
        logm = np.log(np.maximum(magnitudes, 1e-300))
        fitted_slope = float(np.polyfit(loge, logm, 1)[0])
        passed = fitted_slope >= theory_slope - SLOPE_TOLERANCE
    return ScalingReport(
        quantity=quantity,
        alpha=float(alpha),
        p_int=float(p_int),
        epsilons=epsilons,
        magnitudes=magnitudes,
        fitted_slope=fitted_slope,
        theory_slope=float(theory_slope),
        passed=passed,
        vacuous=vacuous,
        intercepts=intercepts,
        seminorms=seminorms,
        slope_tolerance=SLOPE_TOLERANCE,
    )
