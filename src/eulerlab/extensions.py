"""Inhomogeneous incompressible Euler and Euler-Boussinesq extensions.

The inhomogeneous system evolves ``(rho, u)`` with conservative spectral
transport of the density and the velocity form of the momentum equation,
``du/dt = -(u.grad)u - grad(p)/rho``; the pressure solves the
variable-coefficient equation ``div(grad(p)/rho) = -div((u.grad)u)`` by
preconditioned conjugate gradients, so the velocity stays exactly solenoidal.
The CG iterate lives on half-spectrum coefficients: inner products are the
grid inner products through Parseval (weight 1 on the first and last columns
of the last axis, 2 elsewhere), the constant-density spectral inverse
preconditions by a pure multiply, each iteration costs four transforms, and
each RK stage starts from the previous stage's pressure.

The Boussinesq system advances the vorticity with the homogeneous advection
tendency plus the buoyancy torque ``curl(theta g)``, and transports
``theta`` conservatively.  With ``theta = 0`` the torque is an exact zero
array and the vorticity arithmetic is identical to the homogeneous solver, so
the reduction holds value-for-value, not merely to a tolerance.

Both systems step through the homogeneous solver's single integrator
(``solver.integrate``) and return its ``Trajectory`` with one extra named
ledger: ``"mass"`` or ``"theta"``.  Their A/B certifications run the legs
through ``uniqueness.run_pair`` and certify through the homogeneous pipeline's
one ``uniqueness._certify_pair``; all they add is data: the relative energy
(rho-weighted for the variable-density system), the exponents of every
quantity the uniqueness statement lists, and the scalar-contraction audit.
They charge the convective budget at the sweep's smallest epsilon.  The
result is the one ``UniquenessReport``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .besov import fit_regularity_exponent
from .commutator import transport_commutator
from .errors import (
    ConfigurationError,
    PoissonConvergenceError,
    SolverAbort,
)
from .grid_fields import (
    PeriodicGrid,
    ScalarField,
    VelocityField,
    _dealiased_product,
    _div_hat,
    _leray_hats,
    curl_2d,
    gradient,
    resample,
)
from .mollify import make_kernel, resolved_epsilon
from .solver import (
    DEFAULT_CFL,
    Trajectory,
    _check_cfl,
    _check_initial_velocity,
    _rk4_stage,
    _run_config,
    _velocity_field,
    _velocity_hats,
    _vorticity_flux_tendency,
    integrate,
    kinetic_energy,
    ordered_pair_audit,
)
from .uniqueness import (
    RunConfig,
    UniquenessReport,
    _certify_pair,
    _check_sweep,
    _plain_energy,
    _shared_times,
    _trapz,
    run_pair,
)

__all__ = [
    "InhomState",
    "BoussinesqState",
    "transport_step",
    "inhom_solve",
    "density_contraction_check",
    "DensityContractionReport",
    "boussinesq_solve",
    "boussinesq_uniqueness_experiment",
    "inhom_uniqueness_experiment",
]

POISSON_TOLERANCE = 1e-10
POISSON_MAX_ITER = 500


# ---------------------------------------------------------------------------
# density transport


def _transport_tendency(grid: PeriodicGrid, rho: np.ndarray, u: Sequence[np.ndarray]) -> np.ndarray:
    """``-div(rho u)`` in spectral form (zero mode exactly untouched)."""
    return -_div_hat(grid, [_dealiased_product(grid, rho, ui) for ui in u])


def transport_step(
    rho: ScalarField, u: VelocityField, dt: float, cfl: float = DEFAULT_CFL
) -> ScalarField:
    """One 4-stage step of ``d(rho)/dt = -div(rho u)`` with ``u`` frozen."""
    grid = rho.grid
    if grid != u.grid:
        raise ConfigurationError("density and velocity must share a grid")
    _check_cfl(u.max_speed(), grid, dt, cfl)
    uvals = [c.values for c in u.components]

    def rhs(hats: tuple) -> tuple:
        return (_transport_tendency(grid, grid.irfftn(hats[0]), uvals),)

    (new_hat,) = _rk4_stage((rho.hat * grid.dealias_mask,), dt, rhs)
    return ScalarField.from_hat(grid, new_hat)


# ---------------------------------------------------------------------------
# inhomogeneous solver


@dataclass
class InhomState:
    """One slice of the inhomogeneous system: positive density and a
    divergence-free velocity."""

    time: float
    density: ScalarField
    velocity: VelocityField

    @property
    def grid(self) -> PeriodicGrid:
        return self.density.grid

    def mass(self) -> float:
        return float(self.density.values.sum() * self.grid.cell_volume)

    def weighted_energy(self) -> float:
        mag2 = np.zeros(self.grid.shape)
        for c in self.velocity.components:
            mag2 += c.values * c.values
        return 0.5 * float(np.sum(self.density.values * mag2) * self.grid.cell_volume)


def _parseval_weights(grid: PeriodicGrid) -> np.ndarray:
    """Half-spectrum weights ``w`` with ``sum_x f g = sum_k w Re(conj(F) G)``
    for real fields ``f``, ``g`` on ``N`` points: ``1/N`` on the first and
    last columns of the last axis, which are their own mirror images, and
    ``2/N`` elsewhere, where each coefficient also stands for its mirror."""
    size = float(np.prod(grid.shape))
    w = np.full(grid.rshape, 2.0 / size)
    w[..., 0] = 1.0 / size
    w[..., -1] = 1.0 / size
    return w


def _pressure_gradient_over_rho(
    grid: PeriodicGrid,
    beta: np.ndarray,
    rhs_div: np.ndarray,
    tol: float,
    max_iter: int,
    p0: Optional[np.ndarray] = None,
):
    """Solve ``div(beta grad p) = rhs_div`` (beta = 1/rho, both sides
    spectral) by preconditioned CG on half-spectrum coefficients.

    ``-div(beta grad .)`` is symmetric positive definite on zero-mean fields
    in the grid inner product, evaluated here through Parseval with the
    half-spectrum weights, so the iteration is the physical-space one without
    its transforms.  The preconditioner is the constant-coefficient inverse
    with the mean of beta, a pure multiply (exact for uniform density, where
    CG converges in a single iteration); one operator application costs two
    inverse and two forward transforms.  ``p0`` warm-starts the iterate: when
    its residual already meets ``tol`` the solve returns after 0 iterations.

    Returns ``(flux_hats, p_hat, iterations)`` with ``flux_hats`` the
    spectral components of ``beta * grad p``, accumulated alongside the
    iterate so no transform is spent on them at the end.  ``p_hat`` is None
    where there is nothing to warm-start from: a zero right-hand side (exact
    zero fluxes) or non-finite input (non-finite fluxes, returned at once for
    the integrator to report).
    """
    w = _parseval_weights(grid)
    ik = [1j * grid.deriv_wavenumber(a) for a in range(grid.dims)]
    precondition = grid.inv_k_squared / float(beta.mean())

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.vdot(a, w * b).real)

    def apply_op(p_hat: np.ndarray):
        """``-div(beta grad p)`` and the flux ``beta grad p``, spectral."""
        flux = [grid.rfftn(beta * grid.irfftn(k * p_hat)) for k in ik]
        div = ik[0] * flux[0]
        for k, f in zip(ik[1:], flux[1:]):
            div += k * f
        return -div, flux

    def filled(value: float) -> list[np.ndarray]:
        return [np.full(grid.rshape, value, dtype=complex) for _ in range(grid.dims)]

    b = -rhs_div
    b_norm = math.sqrt(dot(b, b))
    if b_norm == 0.0:
        return filled(0.0), None, 0
    if not math.isfinite(b_norm):
        return filled(np.nan), None, 0
    if p0 is None:
        x = np.zeros(grid.rshape, dtype=complex)
        flux = filled(0.0)
        r = b
    else:
        Ax, flux = apply_op(p0)
        x = p0.copy()
        r = b - Ax
    r_norm = math.sqrt(dot(r, r))
    if r_norm <= tol * b_norm:
        return flux, x, 0
    # updates run in place: fewer short-lived arrays keep the heap small
    d = r * precondition
    rz = dot(r, d)
    for it in range(1, max_iter + 1):
        Ad, flux_d = apply_op(d)
        dAd = dot(d, Ad)
        if not math.isfinite(dAd):
            return filled(np.nan), None, it
        if dAd <= 0.0:
            raise PoissonConvergenceError(
                "pressure operator lost positivity (density too irregular?)",
                it,
                r_norm,
            )
        step = rz / dAd
        x += step * d
        for f, fd in zip(flux, flux_d):
            f += step * fd
        r -= step * Ad
        r_norm = math.sqrt(dot(r, r))
        if r_norm <= tol * b_norm:
            return flux, x, it
        z = r * precondition
        rz_new = dot(r, z)
        d *= rz_new / rz
        d += z
        rz = rz_new
    raise PoissonConvergenceError(
        f"pressure solve did not reach {tol} in {max_iter} iterations",
        max_iter,
        r_norm / b_norm,
    )


def _inhom_velocity_tendency(
    grid: PeriodicGrid,
    rho: np.ndarray,
    u: Sequence[np.ndarray],
    tol: float,
    max_iter: int,
    p0: Optional[np.ndarray],
) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """``-(u.grad)u - grad(p)/rho`` with the constraint-enforcing pressure,
    returned in spectral form and Leray-scrubbed of the CG residual, together
    with the pressure (the next stage's warm start)."""
    # u_i u_j is symmetric in (i, j): transform each product once
    prods = {}
    for i in range(grid.dims):
        for j in range(i, grid.dims):
            prods[i, j] = prods[j, i] = _dealiased_product(grid, u[i], u[j])
    adv_hats = [_div_hat(grid, [prods[i, j] for j in range(grid.dims)])
                for i in range(grid.dims)]
    beta = 1.0 / rho
    rhs_div = _div_hat(grid, adv_hats)  # div((u.grad)u) for div-free u
    bgp_hats, p_hat, _ = _pressure_gradient_over_rho(grid, beta, -rhs_div, tol, max_iter, p0)
    f_hats = [-adv_hats[i] - bgp_hats[i] for i in range(grid.dims)]
    # scrub the leftover CG residual so stage velocities stay solenoidal
    return _leray_hats(grid, f_hats), p_hat


def inhom_solve(
    rho0: ScalarField,
    u0: VelocityField,
    T: float,
    dt: float,
    snapshot_stride: int = 1,
    cfl: float = DEFAULT_CFL,
    poisson_tol: float = POISSON_TOLERANCE,
    poisson_max_iter: int = POISSON_MAX_ITER,
    config: Optional[dict] = None,
) -> Trajectory:
    """Integrate the variable-density system from positive density and
    solenoidal velocity; the energy ledger records ``0.5 int rho |u|^2`` and
    the ``"mass"`` ledger ``int rho``."""
    grid = rho0.grid
    if grid.dims != 2:
        raise ConfigurationError("the inhomogeneous solver supports dims=2 only")
    if grid != u0.grid:
        raise ConfigurationError("density and velocity must share a grid")
    if float(rho0.values.min()) <= 0.0:
        raise ConfigurationError("initial density must be strictly positive")
    _check_initial_velocity(u0)

    def materialize(t: float, hats: tuple) -> InhomState:
        rho = ScalarField.from_hat(grid, hats[0])
        vel = VelocityField([ScalarField.from_hat(grid, h) for h in hats[1:]],
                            divergence_free=True)
        if float(rho.values.min()) <= 0.0:
            raise SolverAbort(f"density lost positivity at t={t}", t)
        return InhomState(t, rho, vel)

    p_hat = None  # the last stage's pressure warm-starts the next solve

    def rhs(hats: tuple) -> tuple:
        nonlocal p_hat
        rho_phys = grid.irfftn(hats[0])
        u_phys = [grid.irfftn(h) for h in hats[1:]]
        d_rho = _transport_tendency(grid, rho_phys, u_phys)
        d_u, p_hat = _inhom_velocity_tendency(
            grid, rho_phys, u_phys, poisson_tol, poisson_max_iter, p_hat
        )
        return (d_rho, *d_u)

    hats = tuple(f.hat * grid.dealias_mask for f in (rho0, *u0.components))
    states = integrate(grid, hats, rhs, materialize, T, dt, snapshot_stride, cfl)
    return Trajectory(states, dt, _run_config(config, grid, T, dt, snapshot_stride, cfl),
                      [s.weighted_energy() for s in states],
                      {"mass": [s.mass() for s in states]})


@dataclass
class DensityContractionReport:
    """Audit of ``0.5 int |rho - r|^2`` against the mollified transport
    commutator budget."""

    passed: bool
    max_violation: float
    worst_pair: Optional[tuple[float, float]]
    budget: float
    tolerance: float
    times: list[float]
    values: list[float]

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "max_violation": self.max_violation,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "budget": self.budget,
            "tolerance": self.tolerance,
            "series": {"t": list(self.times), "D": list(self.values)},
        }


def _scalar_l2_half(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return 0.5 * float(np.sum(d * d) * grid.cell_volume)


def density_contraction_check(
    traj_a,
    traj_b,
    tolerance: float,
    working_epsilon: Optional[float] = None,
    field: str = "density",
) -> DensityContractionReport:
    """Verify the scalar-difference energy never grows beyond the mollified
    transport-commutator budget plus tolerance, over all ordered pairs.

    ``field`` selects which scalar to audit (density for the inhomogeneous
    system, theta for Boussinesq); both trajectories must share snapshot
    times.
    """
    times = _shared_times(traj_a, traj_b)
    grid_a, grid_b = traj_a.grid, traj_b.grid
    cmp_grid = grid_a if grid_a.n_per_axis <= grid_b.n_per_axis else grid_b
    eps = working_epsilon if working_epsilon is not None else resolved_epsilon(cmp_grid)
    kernel = make_kernel(cmp_grid, eps)

    values = []
    pairing = []
    for sa, sb in zip(traj_a.states, traj_b.states):
        ra = resample(getattr(sa, field), cmp_grid)
        rb = resample(getattr(sb, field), cmp_grid)
        ua = resample(sa.velocity, cmp_grid)
        ub = resample(sb.velocity, cmp_grid)
        values.append(_scalar_l2_half(cmp_grid, ra.values, rb.values))
        tc_a = transport_commutator(ra, ua, kernel)
        tc_b = transport_commutator(rb, ub, kernel)
        diff_eps = ScalarField.from_hat(
            cmp_grid, (ra.hat - rb.hat) * kernel.multiplier
        )
        grad_diff = gradient(diff_eps)
        s = 0.0
        for i in range(cmp_grid.dims):
            s += float(
                np.sum(
                    (tc_a.components[i].values - tc_b.components[i].values)
                    * grad_diff.components[i].values
                )
            )
        pairing.append(abs(s * cmp_grid.cell_volume))
    budget = _trapz(pairing, times)
    worst, worst_pair = ordered_pair_audit(times, values, budget)
    return DensityContractionReport(
        passed=worst <= tolerance,
        max_violation=worst,
        worst_pair=worst_pair,
        budget=budget,
        tolerance=tolerance,
        times=times,
        values=values,
    )


# ---------------------------------------------------------------------------
# Boussinesq


@dataclass
class BoussinesqState:
    """Temperature, divergence-free velocity, and the buoyancy direction."""

    time: float
    theta: ScalarField
    velocity: VelocityField
    g: tuple[float, float]

    @property
    def grid(self) -> PeriodicGrid:
        return self.theta.grid

    def theta_total(self) -> float:
        return float(self.theta.values.sum() * self.grid.cell_volume)


def boussinesq_solve(
    theta0: ScalarField,
    u0: VelocityField,
    g: Sequence[float],
    T: float,
    dt: float,
    snapshot_stride: int = 1,
    cfl: float = DEFAULT_CFL,
    config: Optional[dict] = None,
) -> Trajectory:
    """Vorticity dynamics with buoyancy torque ``curl(theta g)`` and
    conservative transport of ``theta``; the ``"theta"`` ledger records
    ``int theta``.

    The vorticity tendency is the homogeneous advection term plus the torque,
    added afterwards; a vanishing ``theta`` therefore reproduces the
    homogeneous solver's arithmetic exactly.
    """
    grid = theta0.grid
    if grid.dims != 2:
        raise ConfigurationError("the Boussinesq solver supports dims=2 only")
    if grid != u0.grid:
        raise ConfigurationError("theta and velocity must share a grid")
    g = (float(g[0]), float(g[1]))
    _check_initial_velocity(u0)
    torque_symbol = 1j * (g[1] * grid.deriv_wavenumber(0) - g[0] * grid.deriv_wavenumber(1))

    def rhs(hats: tuple) -> tuple:
        wh, th = hats
        u1, u2 = (grid.irfftn(h) for h in _velocity_hats(grid, wh))
        dw = _vorticity_flux_tendency(grid, wh, u1, u2) + torque_symbol * th
        dth = _transport_tendency(grid, grid.irfftn(th), [u1, u2])
        return dw, dth

    def materialize(t: float, hats: tuple) -> BoussinesqState:
        vel = _velocity_field(grid, hats[0])
        return BoussinesqState(t, ScalarField.from_hat(grid, hats[1]), vel, g)

    hats = (curl_2d(u0).hat * grid.dealias_mask, theta0.hat * grid.dealias_mask)
    states = integrate(grid, hats, rhs, materialize, T, dt, snapshot_stride, cfl)
    cfg = _run_config(config, grid, T, dt, snapshot_stride, cfl)
    cfg["g"] = list(g)
    return Trajectory(states, dt, cfg, [kinetic_energy(s.velocity) for s in states],
                      {"theta": [s.theta_total() for s in states]})


# ---------------------------------------------------------------------------
# uniqueness experiments for the extended systems


def _fit_quantity(f, p_int: float) -> float:
    """Exponent fit that treats degenerate (constant) fields as maximally
    regular instead of unfittable."""
    try:
        return fit_regularity_exponent(f, p_int)
    except ConfigurationError:
        return 1.0


def _product_field(rho: ScalarField, u: VelocityField) -> VelocityField:
    return VelocityField.from_arrays(
        rho.grid, [rho.values * c.values for c in u.components]
    )


def _weighted_energy(sa: InhomState, ua: VelocityField, ub: VelocityField) -> float:
    """``0.5 int rho_a |u_a - u_b|^2`` on the velocities' grid."""
    grid = ua.grid
    w = resample(sa.density, grid).values
    d2 = np.zeros(grid.shape)
    for x, y in zip(ua.components, ub.components):
        d = x.values - y.values
        d2 += d * d
    return 0.5 * float(np.sum(w * d2) * grid.cell_volume)


def _extended_experiment(
    traj_a: Trajectory,
    traj_b: Trajectory,
    scalar_name: str,
    energy_of,
    alpha: float,
    p_int: float,
    epsilons: Sequence[float],
    *,
    contraction_tolerance: float,
    certify_tolerance: Optional[float],
) -> UniquenessReport:
    """Fit the Besov hypothesis over every quantity the uniqueness statement
    lists, for both legs at mid-horizon (B's velocity is fitted from the
    pair series), audit the scalar contraction, and certify the pair against
    the convective budget at the sweep's smallest epsilon."""
    mid = len(traj_a.times) // 2
    sa, sb = traj_a.states[mid], traj_b.states[mid]
    scal_a = getattr(sa, scalar_name)
    scal_b = getattr(sb, scalar_name)
    fields = {
        scalar_name + "_a": scal_a,
        scalar_name + "_b": scal_b,
        "momentum_a": _product_field(scal_a, sa.velocity),
        "momentum_b": _product_field(scal_b, sb.velocity),
        "velocity_a": sa.velocity,
    }
    hypothesis = {name: _fit_quantity(f, p_int) for name, f in fields.items()}
    # the contraction audit mollifies on the comparison grid, whose resolved
    # scale may be coarser than the velocity sweep's smallest epsilon
    work_eps = min(float(e) for e in epsilons)
    contraction = density_contraction_check(
        traj_a, traj_b, contraction_tolerance,
        working_epsilon=max(work_eps, resolved_epsilon(traj_a.grid)),
        field=scalar_name,
    )
    return _certify_pair(
        traj_a, traj_b, alpha, p_int, epsilons, energy=energy_of,
        budget_route="convective", working_epsilon=None,
        reg_epsilon=None, certify_tolerance=certify_tolerance,
        hypothesis=hypothesis, audit=contraction,
    )


def inhom_uniqueness_experiment(
    rho0: ScalarField,
    u0: VelocityField,
    cfg_a: RunConfig,
    cfg_b: RunConfig,
    alpha: float,
    p_int: float,
    epsilons: Sequence[float],
    *,
    contraction_tolerance: float = 1e-5,
    certify_tolerance: Optional[float] = None,
) -> UniquenessReport:
    """A/B certification for the inhomogeneous system: weighted relative
    energy with C(t) from the finer run, plus the density contraction audit."""
    _check_sweep("convective", epsilons)
    traj_a, traj_b = run_pair((rho0, u0), cfg_a, cfg_b, inhom_solve)
    return _extended_experiment(
        traj_a, traj_b, "density", _weighted_energy, alpha, p_int, epsilons,
        contraction_tolerance=contraction_tolerance,
        certify_tolerance=certify_tolerance,
    )


def boussinesq_uniqueness_experiment(
    theta0: ScalarField,
    u0: VelocityField,
    g: Sequence[float],
    cfg_a: RunConfig,
    cfg_b: RunConfig,
    alpha: float,
    p_int: float,
    epsilons: Sequence[float],
    *,
    contraction_tolerance: float = 1e-5,
    certify_tolerance: Optional[float] = None,
) -> UniquenessReport:
    """A/B certification for the Boussinesq system: homogeneous-style
    relative-energy certificate plus the theta contraction audit, with C(t)
    estimated from the finer run's velocity."""
    _check_sweep("convective", epsilons)
    traj_a, traj_b = run_pair(
        (theta0, u0), cfg_a, cfg_b, functools.partial(boussinesq_solve, g=g)
    )
    return _extended_experiment(
        traj_a, traj_b, "theta", _plain_energy, alpha, p_int, epsilons,
        contraction_tolerance=contraction_tolerance,
        certify_tolerance=certify_tolerance,
    )
