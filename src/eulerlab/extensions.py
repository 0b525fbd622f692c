"""Inhomogeneous incompressible Euler and Euler-Boussinesq extensions.

The inhomogeneous system evolves ``(rho, u)`` with conservative spectral
transport of the density and the velocity form of the momentum equation,
``du/dt = -(u.grad)u - grad(p)/rho``; the pressure solves the
variable-coefficient equation ``div(grad(p)/rho) = -div((u.grad)u)`` by
preconditioned conjugate gradients, so the velocity stays exactly solenoidal.
The CG iterate lives on half-spectrum coefficients: inner products are the
grid inner products through Parseval, with the grid's ``parseval_weights``,
derivatives multiply by the grid's ``ik``, and each RK stage starts from the
previous stage's pressure.  The preconditioner is the inverse-coefficient
sandwich ``(-lap)^-1 (-div(rho grad((-lap)^-1 .)))``: exact for uniform
density, it clusters the spectrum at 1 otherwise, so a solve takes a few
iterations even at high density contrast.  An iteration costs eight
transforms, four for the operator and four for the preconditioner.

The Boussinesq system advances the vorticity with the homogeneous advection
tendency plus the buoyancy torque ``curl(theta g)``, and transports
``theta`` conservatively.  With ``theta = 0`` the torque is an exact zero
array and the vorticity arithmetic is identical to the homogeneous solver, so
the reduction holds value-for-value, not merely to a tolerance.

Both systems step through the homogeneous solver's single integrator
(``solver.integrate``) and return its ``Trajectory`` with one extra named
ledger: ``"mass"`` or ``"theta"``.  Its states are rebuilt on access from
the recorded spectra ``(rho, u1, u2)``, whole half-spectra, or ``(w,
theta)``, dealias bands as ``solver.solve`` steps them, three inverse
transforms per read; the variable-density run checks each recorded density
for positivity as it is recorded.  Their A/B certifications run the legs
through ``uniqueness.run_pair`` and certify through the homogeneous pipeline's
one ``uniqueness._certify_pair``; all they add is data: the relative energy
(rho-weighted for the variable-density system), the transported scalar's
name, whose mid-horizon exponents (with those of the momentum and the
velocity) the pipeline's one pass fits, and the scalar-contraction audit: a
``solver.PairAudit`` of the scalars' ``uniqueness.relative_energy``.
They charge the convective budget at the sweep's smallest epsilon.  The
result is the one ``UniquenessReport``.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .commutator import _transport_at
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
    _div_product_hats,
    _leray_hats,
    _max_speed,
    _parseval_dot,
    _squared_magnitude,
    curl_2d,
    resample,
)
from .mollify import make_kernel, resolved_epsilon
from .solver import (
    PairAudit,
    State,
    Trajectory,
    _biot_savart_velocity,
    _check_initial,
    _Vorticity,
    integrate,
    kinetic_energy,
)
from .uniqueness import (
    RunConfig,
    UniquenessReport,
    _certify_pair,
    _check_sweep,
    _cumulative_trapz,
    _plain_energy,
    _shared_times,
    relative_energy,
    run_pair,
)

__all__ = [
    "inhom_solve",
    "density_contraction_check",
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


# ---------------------------------------------------------------------------
# inhomogeneous solver


def _total(f: ScalarField) -> float:
    """``int f``: the mass of a density, the heat content of a temperature."""
    return float(f.values.sum() * f.grid.cell_volume)


def _weighted_kinetic_energy(grid: PeriodicGrid, rho: np.ndarray,
                             u: Sequence[np.ndarray]) -> float:
    """``0.5 int rho |u|^2`` from samples."""
    return 0.5 * float(np.sum(rho * _squared_magnitude(u)) * grid.cell_volume)


def _flux(grid: PeriodicGrid, coef: np.ndarray, p_hat: np.ndarray) -> list[np.ndarray]:
    """``coef grad p``, spectral: two transforms per axis."""
    return [grid.rfftn(coef * grid.irfftn(ik * p_hat)) for ik in grid.ik]


def _neg_div(grid: PeriodicGrid, flux: Sequence[np.ndarray]) -> np.ndarray:
    """``-div(flux)``, spectral, in a fresh array."""
    div = grid.ik[0] * flux[0]
    for ik, f in zip(grid.ik[1:], flux[1:]):
        div += ik * f
    return np.negative(div, out=div)


def _precondition(grid: PeriodicGrid, rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The inverse-coefficient sandwich ``L (-div(rho grad(L r)))`` with
    ``L = (-lap)^-1``: four transforms."""
    inv_k2 = grid.inv_k_squared
    z = _neg_div(grid, _flux(grid, rho, r * inv_k2))
    z *= inv_k2
    return z


def _gradient_over_rho(grid: PeriodicGrid, rho: np.ndarray, rhs_div: np.ndarray,
                       p0: Optional[np.ndarray] = None):
    """Solve ``div(grad(p)/rho) = rhs_div`` (both sides spectral) by
    preconditioned CG on half-spectrum coefficients.

    ``A = -div(beta grad .)``, ``beta = 1/rho``, is symmetric positive
    definite on zero-mean fields in the grid inner product, taken here
    through Parseval, so the iteration is the physical-space one without
    its transforms.  The preconditioner is ``P = L (-div(rho grad .)) L``
    with ``L = (-lap)^-1``.  With ``R = grad L^(1/2)``, an isometry onto
    gradient fields, ``P A`` is similar to ``I - R* rho (I - Q) beta R``
    (``Q`` the projection onto gradient fields): exact for uniform
    density, where CG converges in one iteration, and otherwise clustered
    at 1, with only the solenoidal part of ``beta grad p`` left to
    iterate on.  An iteration costs eight transforms, four for ``A`` and
    four for ``P``.  ``p0`` warm-starts the iterate for four more; when
    its residual already meets the tolerance the solve returns after 0
    iterations.  The solve stops at ``|r| <= POISSON_TOLERANCE |b|``.

    Returns ``(flux_hats, p_hat, iterations)`` with ``flux_hats`` the
    spectral components of ``beta * grad p``, accumulated alongside the
    iterate so no transform is spent on them at the end.  ``p_hat`` is
    None where there is nothing to warm-start from: a zero right-hand side
    (exact zero fluxes) or non-finite input (non-finite fluxes, returned
    at once for the integrator to report).
    """
    beta = 1.0 / rho

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return _parseval_dot(a, b, grid.parseval_weights)

    def apply_op(p_hat: np.ndarray):
        """``-div(beta grad p)`` and the flux ``beta grad p``, spectral."""
        flux = _flux(grid, beta, p_hat)
        return _neg_div(grid, flux), flux

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
    if r_norm <= POISSON_TOLERANCE * b_norm:
        return flux, x, 0
    # updates run in place: fewer short-lived arrays keep the heap small
    d = _precondition(grid, rho, r)
    rz = dot(r, d)
    for it in range(1, POISSON_MAX_ITER + 1):
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
        if r_norm <= POISSON_TOLERANCE * b_norm:
            return flux, x, it
        z = _precondition(grid, rho, r)
        rz_new = dot(r, z)
        d *= rz_new / rz
        d += z
        rz = rz_new
    raise PoissonConvergenceError(
        f"pressure solve did not reach {POISSON_TOLERANCE} in {POISSON_MAX_ITER} iterations",
        POISSON_MAX_ITER,
        r_norm / b_norm,
    )


def _inhom_velocity_tendency(
    grid: PeriodicGrid,
    rho: np.ndarray,
    u: Sequence[np.ndarray],
    p0: Optional[np.ndarray],
) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """``-(u.grad)u - grad(p)/rho`` with the constraint-enforcing pressure,
    returned in spectral form and Leray-scrubbed of the CG residual, together
    with the pressure (the next stage's warm start)."""
    adv_hats = _div_product_hats(grid, u)
    rhs_div = _div_hat(grid, adv_hats)  # div((u.grad)u) for div-free u
    bgp_hats, p_hat, _ = _gradient_over_rho(grid, rho, -rhs_div, p0)
    f_hats = [-adv_hats[i] - bgp_hats[i] for i in range(grid.dims)]
    # scrub the leftover CG residual so stage velocities stay solenoidal
    return _leray_hats(grid, f_hats), p_hat


def inhom_solve(
    rho0: ScalarField,
    u0: VelocityField,
    T: float,
    dt: float,
    snapshot_stride: int = 1,
) -> Trajectory:
    """Integrate the variable-density system from positive density and
    solenoidal velocity; the energy ledger records ``0.5 int rho |u|^2`` and
    the ``"mass"`` ledger ``int rho``."""
    grid = _check_initial(u0, rho0)
    if float(rho0.values.min()) <= 0.0:
        raise ConfigurationError("initial density must be strictly positive")

    def materialize(t: float, hats: tuple) -> State:
        vel = VelocityField([ScalarField.from_hat(grid, h) for h in hats[1:]])
        return State(t, vel, {"density": ScalarField.from_hat(grid, hats[0])})

    def check(t: float, hats: tuple) -> None:
        if float(grid.irfftn(hats[0]).min()) <= 0.0:
            raise SolverAbort(f"density lost positivity at t={t}", t)

    p_hat = None  # the last stage's pressure warm-starts the next solve

    def rhs(hats: tuple, with_speed: bool) -> tuple:
        nonlocal p_hat
        rho_phys = grid.irfftn(hats[0])
        u_phys = [grid.irfftn(h) for h in hats[1:]]
        d_rho = _transport_tendency(grid, rho_phys, u_phys)
        d_u, p_hat = _inhom_velocity_tendency(grid, rho_phys, u_phys, p_hat)
        return (d_rho, *d_u), _max_speed(u_phys) if with_speed else None

    def ledgers(s: State) -> dict:
        rho = s.scalars["density"]
        return {"energy": _weighted_kinetic_energy(grid, rho.values,
                                                   [c.values for c in s.velocity.components]),
                "mass": _total(rho)}

    hats = tuple(f.hat * grid.dealias_mask for f in (rho0, *u0.components))
    return integrate(grid, hats, rhs, materialize, T, dt, snapshot_stride, ledgers, check)


def density_contraction_check(
    traj_a,
    traj_b,
    tolerance: float,
    working_epsilon: Optional[float] = None,
    field: str = "density",
) -> PairAudit:
    """Verify the scalar ``relative_energy`` never grows beyond the mollified
    transport-commutator budget plus tolerance, over all ordered pairs.

    ``field`` selects which scalar to audit (density for the inhomogeneous
    system, theta for Boussinesq); both trajectories must share snapshot
    times.  The pairing ``int (tc_a - tc_b) . grad(rho_a - rho_b)_eps`` is a
    Parseval sum of the commutators' spectra, as ``commutator._transport_at``
    returns them, against ``i k (rho_a - rho_b)_eps``: no factor is
    transformed back.
    """
    times = _shared_times(traj_a, traj_b)
    grid_a, grid_b = traj_a.grid, traj_b.grid
    cmp_grid = grid_a if grid_a.n_per_axis <= grid_b.n_per_axis else grid_b
    eps = working_epsilon if working_epsilon is not None else resolved_epsilon(cmp_grid)
    kernel = make_kernel(cmp_grid, eps)

    values = []
    pairing = []
    for sa, sb in zip(traj_a.states, traj_b.states):
        ra = resample(sa.scalars[field], cmp_grid)
        rb = resample(sb.scalars[field], cmp_grid)
        ua = resample(sa.velocity, cmp_grid)
        ub = resample(sb.velocity, cmp_grid)
        values.append(relative_energy(ra, rb))
        tc_a = _transport_at(ra, ua, kernel)
        tc_b = _transport_at(rb, ub, kernel)
        diff_eps = (ra.hat - rb.hat) * kernel.multiplier
        acc = 0.0
        for ik, a, b in zip(cmp_grid.ik, tc_a, tc_b):
            acc += _parseval_dot(a - b, ik * diff_eps, cmp_grid.parseval_weights)
        pairing.append(abs(acc * cmp_grid.cell_volume))
    return PairAudit.of(times, values, _cumulative_trapz(pairing, times)[-1], tolerance)


# ---------------------------------------------------------------------------
# Boussinesq


def boussinesq_solve(
    theta0: ScalarField,
    u0: VelocityField,
    g: Sequence[float],
    T: float,
    dt: float,
    snapshot_stride: int = 1,
) -> Trajectory:
    """Vorticity dynamics with buoyancy torque ``curl(theta g)`` and
    conservative transport of ``theta``; the ``"theta"`` ledger records
    ``int theta``, and the run config adds the gravity vector ``g`` (two
    finite numbers).

    The vorticity tendency is the homogeneous advection term plus the torque,
    added afterwards; a vanishing ``theta`` therefore reproduces the
    homogeneous solver's arithmetic exactly.  The advection term's physical
    velocity also carries ``theta``, so a stage costs seven transforms.  Both
    spectra live on the dealias band, as in :func:`~eulerlab.solver.solve`.
    """
    grid = _check_initial(u0, theta0)
    g = tuple(float(x) for x in g)
    if len(g) != 2 or not all(map(math.isfinite, g)):
        raise ConfigurationError(f"g must be two finite numbers, got {g}")
    torque_symbol = grid.to_band(
        1j * (g[1] * grid.deriv_wavenumber(0) - g[0] * grid.deriv_wavenumber(1)))
    vort = _Vorticity(u0)

    def rhs(hats: tuple, with_speed: bool) -> tuple:
        wh, th = hats
        dw, u = vort.advect(wh)
        dw += torque_symbol * th
        dth = vort.transport(th)
        return (dw, dth), _max_speed(u) if with_speed else None

    biot_savart = vort.biot_savart

    def materialize(t: float, hats: tuple) -> State:
        return State(t, _biot_savart_velocity(grid, biot_savart, hats[0]),
                     {"theta": ScalarField.from_hat(grid, grid.from_band(hats[1]))})

    hats = (grid.to_band(curl_2d(u0).hat), grid.to_band(theta0.hat))
    traj = integrate(grid, hats, rhs, materialize, T, dt, snapshot_stride,
                     lambda s: {"energy": kinetic_energy(s.velocity),
                                "theta": _total(s.scalars["theta"])})
    traj.config["g"] = list(g)
    return traj


# ---------------------------------------------------------------------------
# uniqueness experiments for the extended systems


def _weighted_energy(sa: State, ua: VelocityField, ub: VelocityField) -> float:
    """``0.5 int rho_a |u_a - u_b|^2`` on the velocities' grid."""
    grid = ua.grid
    return _weighted_kinetic_energy(
        grid, resample(sa.scalars["density"], grid).values,
        [x.values - y.values for x, y in zip(ua.components, ub.components)],
    )


def _extended_experiment(
    initial: tuple,
    cfg_a: RunConfig,
    cfg_b: RunConfig,
    solve_leg,
    scalar_name: str,
    energy_of,
    alpha: float,
    p_int: float,
    epsilons: Sequence[float],
    *,
    contraction_tolerance: float,
) -> UniquenessReport:
    """Check the sweep, solve the pair from the ``initial`` fields with
    ``solve_leg``, audit the contraction of the transported scalar
    ``scalar_name``, and certify the pair against the convective budget at
    the sweep's smallest epsilon, with the Besov hypothesis over every
    quantity the uniqueness statement lists."""
    _check_sweep("convective", epsilons, cfg_a, cfg_b, alpha, p_int)
    traj_a, traj_b = run_pair(initial, cfg_a, cfg_b, solve_leg)
    # the contraction audit mollifies on the comparison grid, whose resolved
    # scale may be coarser than the velocity sweep's smallest epsilon
    work_eps = min(float(e) for e in epsilons)
    contraction = density_contraction_check(
        traj_a, traj_b, contraction_tolerance,
        working_epsilon=max(work_eps, resolved_epsilon(traj_a.grid)),
        field=scalar_name,
    )
    return _certify_pair(traj_a, traj_b, alpha, p_int, epsilons, energy=energy_of,
                         budget_route="convective", scalar=scalar_name, audit=contraction)


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
) -> UniquenessReport:
    """A/B certification for the inhomogeneous system: weighted relative
    energy with C(t) from the finer run, plus the density contraction audit."""
    return _extended_experiment(
        (rho0, u0), cfg_a, cfg_b, inhom_solve, "density", _weighted_energy, alpha, p_int,
        epsilons, contraction_tolerance=contraction_tolerance,
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
) -> UniquenessReport:
    """A/B certification for the Boussinesq system: homogeneous-style
    relative-energy certificate plus the theta contraction audit, with C(t)
    estimated from the finer run's velocity."""
    return _extended_experiment(
        (theta0, u0), cfg_a, cfg_b, functools.partial(boussinesq_solve, g=g), "theta",
        _plain_energy, alpha, p_int, epsilons, contraction_tolerance=contraction_tolerance,
    )
