"""Mollification commutators and their epsilon-scaling against theory rates.

Two quantities are exposed: the convective commutator
``div(v_eps (x) v_eps) - (div(v (x) v))_eps`` whose L^(p/2) norm decays like
``eps^(2 alpha - 1)`` for fields in the alpha-Besov class, and the trilinear
pairing ``int [(u (x) u)_eps - u_eps (x) u_eps] : grad(v_eps - u_eps)`` whose
magnitude decays like ``eps^(3 alpha - 1)``.  A transport variant
``(rho u)_eps - rho_eps u_eps`` serves the inhomogeneous system.

Quadratic products are evaluated pointwise and 2/3-dealiased before any
derivative is taken, matching the solver convention, so every term is the
Galerkin product of band-limited fields.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .besov import besov_seminorm, fit_regularity_exponent
from .errors import ConfigurationError, GridMismatchError
from .grid_fields import (
    ScalarField,
    VelocityField,
    _dealiased_product,
    _div_hat,
    lp_norm,
)
from .mollify import MollifierKernel, make_kernel, min_epsilon, mollify

__all__ = [
    "ScalingReport",
    "convective_commutator",
    "cet_trilinear",
    "transport_commutator",
    "scaling_experiment",
    "DEFAULT_SLOPE_TOLERANCE",
]

# Finite grids and finite eps ranges bias log-log fits; calibrated headroom
# for the pass verdict.
DEFAULT_SLOPE_TOLERANCE = 0.15

# Magnitudes below this are quadrature noise; sweeps that never rise above it
# are reported as vacuous passes.
VACUOUS_MAGNITUDE = 1e-14

QUANTITIES = ("convective_commutator_lp", "cet_trilinear")


def convective_commutator(v: VelocityField, kernel: MollifierKernel) -> VelocityField:
    """``div(v_eps (x) v_eps) - (div(v (x) v))_eps`` as a vector field."""
    grid = v.grid
    if grid != kernel.grid:
        raise GridMismatchError("field and kernel live on different grids")
    v_eps = mollify(v, kernel)
    vv = [c.values for c in v.components]
    ve = [c.values for c in v_eps.components]
    smooth_hats = [
        [_dealiased_product(grid, ve[i], ve[j]) for j in range(grid.dims)]
        for i in range(grid.dims)
    ]
    raw_hats = [
        [_dealiased_product(grid, vv[i], vv[j]) for j in range(grid.dims)]
        for i in range(grid.dims)
    ]
    div_smooth = [_div_hat(grid, row) for row in smooth_hats]
    div_raw = [_div_hat(grid, row) for row in raw_hats]
    comps = []
    for i in range(grid.dims):
        hat = div_smooth[i] - div_raw[i] * kernel.multiplier
        comps.append(ScalarField.from_hat(grid, hat))
    return VelocityField(comps)


def cet_trilinear(u: VelocityField, v: VelocityField, kernel: MollifierKernel) -> float:
    """Single-slice trilinear pairing
    ``int [(u (x) u)_eps - u_eps (x) u_eps] : grad(v_eps - u_eps) dx``."""
    grid = u.grid
    if grid != v.grid or grid != kernel.grid:
        raise GridMismatchError("fields and kernel live on different grids")
    u_eps = mollify(u, kernel)
    v_eps = mollify(v, kernel)
    uu = [c.values for c in u.components]
    ue = [c.values for c in u_eps.components]
    total = 0.0
    for i in range(grid.dims):
        diff_hat = v_eps.components[i].hat - u_eps.components[i].hat
        for j in range(grid.dims):
            m_hat = (
                _dealiased_product(grid, uu[i], uu[j]) * kernel.multiplier
                - _dealiased_product(grid, ue[i], ue[j])
            )
            m = grid.irfftn(m_hat)
            g = grid.irfftn(1j * grid.deriv_wavenumber(j) * diff_hat)
            total += float(np.sum(m * g))
    return total * grid.cell_volume


def transport_commutator(
    rho: ScalarField, u: VelocityField, kernel: MollifierKernel
) -> VelocityField:
    """``(rho u)_eps - rho_eps u_eps`` as a vector field."""
    grid = rho.grid
    if grid != u.grid or grid != kernel.grid:
        raise GridMismatchError("fields and kernel live on different grids")
    rho_eps = mollify(rho, kernel)
    u_eps = mollify(u, kernel)
    comps = []
    for i in range(grid.dims):
        hat = (
            _dealiased_product(grid, rho.values, u.components[i].values)
            * kernel.multiplier
            - _dealiased_product(grid, rho_eps.values, u_eps.components[i].values)
        )
        comps.append(ScalarField.from_hat(grid, hat))
    return VelocityField(comps)


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
        return {
            "quantity": self.quantity,
            "alpha": self.alpha,
            "p": self.p_int,
            "epsilons": list(self.epsilons),
            "magnitudes": list(self.magnitudes),
            "fitted_slope": self.fitted_slope,
            "theory_slope": self.theory_slope,
            "pass": self.passed,
            "vacuous": self.vacuous,
            "intercepts": list(self.intercepts),
            "seminorms": dict(self.seminorms),
            "slope_tolerance": self.slope_tolerance,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _as_pair(fields) -> tuple[VelocityField, Optional[VelocityField]]:
    if isinstance(fields, VelocityField):
        return fields, None
    fields = tuple(fields)
    if len(fields) == 1:
        return fields[0], None
    if len(fields) == 2:
        return fields[0], fields[1]
    raise ConfigurationError("fields must be one velocity field or a (u, v) pair")


def scaling_experiment(
    fields: Union[VelocityField, Sequence[VelocityField]],
    quantity: str,
    epsilons: Sequence[float],
    p_int: float = 3.0,
    *,
    alpha: Optional[float] = None,
    slope_tolerance: float = DEFAULT_SLOPE_TOLERANCE,
    jobs: int = 1,
) -> ScalingReport:
    """Evaluate a commutator quantity over a dyadic epsilon sweep and fit its
    log-log decay rate.

    ``alpha`` defaults to the exponent fitted from the input fields themselves
    (their mean when two are given), so the theory slope tracks the realized
    regularity rather than a nominal label.
    """
    if quantity not in QUANTITIES:
        raise ConfigurationError(f"unknown quantity {quantity!r}; choose from {QUANTITIES}")
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 4:
        raise ConfigurationError("need at least 4 epsilons for a rate fit")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ConfigurationError("epsilons must be strictly decreasing")

    primary, secondary = _as_pair(fields)
    grid = primary.grid
    if quantity == "cet_trilinear" and secondary is None:
        raise ConfigurationError("cet_trilinear needs a (u, v) field pair")
    if min(epsilons) < min_epsilon(grid):
        raise ConfigurationError(
            f"smallest epsilon {min(epsilons)} below the admissible floor "
            f"{min_epsilon(grid)} for n={grid.n_per_axis}"
        )

    if alpha is None:
        alphas = [fit_regularity_exponent(primary, p_int)]
        if secondary is not None:
            alphas.append(fit_regularity_exponent(secondary, p_int))
        alpha = float(np.mean(alphas))

    if quantity == "convective_commutator_lp":
        theory_slope = 2.0 * alpha - 1.0
        s_v = besov_seminorm(primary, alpha, p_int).seminorm
        seminorms = {"v": s_v}
        bound_factor = s_v**2

        def measure(eps: float) -> float:
            kern = make_kernel(grid, eps)
            return lp_norm(convective_commutator(primary, kern), p_int / 2.0)

    else:
        theory_slope = 3.0 * alpha - 1.0
        s_u = besov_seminorm(primary, alpha, p_int).seminorm
        s_w = besov_seminorm(secondary, alpha, p_int).seminorm
        seminorms = {"u": s_u, "v": s_w}
        bound_factor = s_u**2 * (s_u + s_w)

        def measure(eps: float) -> float:
            kern = make_kernel(grid, eps)
            return abs(cet_trilinear(primary, secondary, kern))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            magnitudes = list(pool.map(measure, epsilons))
    else:
        magnitudes = [measure(e) for e in epsilons]

    vacuous = all(m <= VACUOUS_MAGNITUDE for m in magnitudes)
    if vacuous:
        fitted_slope = float("nan")
        passed = True
        intercepts = [0.0 for _ in epsilons]
    else:
        loge = np.log(epsilons)
        logm = np.log(np.maximum(magnitudes, 1e-300))
        fitted_slope = float(np.polyfit(loge, logm, 1)[0])
        passed = fitted_slope >= theory_slope - slope_tolerance
        denom = max(bound_factor, 1e-300)
        intercepts = [
            m / (e**theory_slope * denom) for m, e in zip(magnitudes, epsilons)
        ]
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
        slope_tolerance=float(slope_tolerance),
    )
