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
A solve builds one set of work arrays (``_DensityWork``) that every stage
overwrites: the samples, the five dealiased product spectra, the advection
rows and the CG's vectors and temporary.  The CG updates and the Leray
scrub run in place, so only what the integrator keeps is fresh: the
tendencies (the velocity's are the CG's flux accumulators) and the
pressure.  Each operation keeps the order and operands of its allocating
form, so every result is bitwise the same, and every transform still goes
through the grid.

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
    _dealiased_product_tensor,
    _div_hat,
    _leray_hats,
    _max_speed,
    _negative,
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
    _band_states,
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
# inhomogeneous solver


def _total(f: ScalarField) -> float:
    """``int f``: the mass of a density, the heat content of a temperature."""
    return float(f.values.sum() * f.grid.cell_volume)


def _weighted_kinetic_energy(grid: PeriodicGrid, rho: np.ndarray,
                             u: Sequence[np.ndarray]) -> float:
    """``0.5 int rho |u|^2`` from samples."""
    return 0.5 * float(np.sum(rho * _squared_magnitude(u)) * grid.cell_volume)


class _DensityWork:
    """The work arrays of the variable-density system on ``grid``, which one
    solve builds once, as :class:`~eulerlab.solver._Vorticity` builds its
    own; each call overwrites them.

    Samples: a stage's density ``rho`` and velocity ``u`` (one row per
    axis), the CG's ``beta = 1/rho``, and ``product``, which takes one
    pointwise product or one gradient component at a time.  Half-spectra:
    the five dealiased ``products`` (``rho u_i``, then ``u_i u_j`` for
    ``i <= j``), the advection ``rows`` ``div(u_i u)``, and the pressure
    CG's ``residual``, search ``direction``, preconditioned residual ``z``,
    operator ``image`` ``A d``, the direction's ``flux`` (one per axis) and
    one temporary ``term``.
    """

    __slots__ = ("grid", "rho", "u", "beta", "product", "products", "rows",
                 "residual", "direction", "z", "image", "flux", "term")

    def __init__(self, grid: PeriodicGrid):
        dims = grid.dims
        self.grid = grid
        self.rho = np.empty(grid.shape)
        self.u = np.empty((dims, *grid.shape))
        self.beta = np.empty(grid.shape)
        self.product = np.empty(grid.shape)
        self.products = np.empty((dims + dims * (dims + 1) // 2, *grid.rshape), dtype=complex)
        self.rows = np.empty((dims, *grid.rshape), dtype=complex)
        self.residual, self.direction, self.z, self.image, self.term = np.empty(
            (5, *grid.rshape), dtype=complex)
        self.flux = np.empty((dims, *grid.rshape), dtype=complex)


def _transport_tendency(work: _DensityWork, rho: np.ndarray,
                        u: Sequence[np.ndarray]) -> np.ndarray:
    """``-div(rho u)`` in spectral form (zero mode exactly untouched), fresh;
    the products and their spectra go into ``work``'s arrays."""
    grid = work.grid
    flux = [_dealiased_product(grid, rho, ui, out=out, samples=work.product)
            for ui, out in zip(u, work.products)]
    div = _div_hat(grid, flux, term=work.term)
    return _negative(div, div)


def _neg_div_flux(work: _DensityWork, coef: np.ndarray, p_hat: np.ndarray, out: np.ndarray,
                  flux: Sequence[np.ndarray]) -> tuple[np.ndarray, Sequence[np.ndarray]]:
    """``-div(coef grad p)`` in ``out``, which may be ``p_hat`` itself, and
    the flux ``coef grad p`` in ``flux``, one half-spectrum per axis,
    spectral: two transforms per axis."""
    grid, g = work.grid, work.product
    for ik, f in zip(grid.ik, flux):
        grid.irfftn(np.multiply(ik, p_hat, out=work.term), out=g)
        grid.rfftn(np.multiply(coef, g, out=g), out=f)
    div = _div_hat(grid, flux, out=out, term=work.term)
    return _negative(div, div), flux


def _precondition(work: _DensityWork, rho: np.ndarray, r: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The inverse-coefficient sandwich ``L (-div(rho grad(L r)))`` with
    ``L = (-lap)^-1``, in ``out`` when given, else fresh: four transforms."""
    inv_k2 = work.grid.inv_k_squared
    z = np.multiply(r, inv_k2, out=out)
    _neg_div_flux(work, rho, z, z, work.flux)
    z *= inv_k2
    return z


def _gradient_over_rho(work: _DensityWork, rho: np.ndarray, rhs_div: np.ndarray,
                       p0: Optional[np.ndarray] = None):
    """Solve ``div(grad(p)/rho) = rhs_div`` (both sides spectral) on
    ``work``'s grid by preconditioned CG on half-spectrum coefficients.

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

    The iteration's vectors and temporaries are ``work``'s arrays, which
    ``rhs_div`` may be, and its updates run in place.

    Returns ``(flux_hats, p_hat, iterations)`` with ``flux_hats`` the
    spectral components of ``beta * grad p``, accumulated alongside the
    iterate so no transform is spent on them at the end.  Both are fresh.
    ``p_hat`` is None where there is nothing to warm-start from: a zero
    right-hand side (exact zero fluxes) or non-finite input (non-finite
    fluxes, returned at once for the integrator to report).
    """
    grid, term = work.grid, work.term
    beta = np.divide(1.0, rho, out=work.beta)

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return _parseval_dot(a, b, grid.parseval_weights)

    def filled(value: float) -> list[np.ndarray]:
        return [np.full(grid.rshape, value, dtype=complex) for _ in range(grid.dims)]

    b = _negative(rhs_div, work.residual)
    b_norm = math.sqrt(dot(b, b))
    if b_norm == 0.0:
        return filled(0.0), None, 0
    if not math.isfinite(b_norm):
        return filled(np.nan), None, 0
    r = b  # the residual overwrites b
    if p0 is None:
        x = np.zeros(grid.rshape, dtype=complex)
        flux = filled(0.0)
    else:
        flux = [np.empty(grid.rshape, dtype=complex) for _ in range(grid.dims)]
        Ax, _ = _neg_div_flux(work, beta, p0, work.image, flux)
        x = p0.copy()
        r -= Ax
    r_norm = math.sqrt(dot(r, r))
    if r_norm <= POISSON_TOLERANCE * b_norm:
        return flux, x, 0
    d = _precondition(work, rho, r, work.direction)
    rz = dot(r, d)
    for it in range(1, POISSON_MAX_ITER + 1):
        Ad, flux_d = _neg_div_flux(work, beta, d, work.image, work.flux)
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
        x += np.multiply(step, d, out=term)
        for f, fd in zip(flux, flux_d):
            f += np.multiply(step, fd, out=term)
        r -= np.multiply(step, Ad, out=term)
        r_norm = math.sqrt(dot(r, r))
        if r_norm <= POISSON_TOLERANCE * b_norm:
            return flux, x, it
        z = _precondition(work, rho, r, work.z)
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
    work: _DensityWork,
    rho: np.ndarray,
    u: Sequence[np.ndarray],
    p0: Optional[np.ndarray],
) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """``-(u.grad)u - grad(p)/rho`` with the constraint-enforcing pressure,
    returned in spectral form and Leray-scrubbed of the CG residual, together
    with the pressure (the next stage's warm start).  The tendencies are the
    CG's fresh flux accumulators, overwritten in place; every other
    spectrum is one of ``work``'s arrays."""
    grid, term = work.grid, work.term
    table = _dealiased_product_tensor(grid, u, work.products[grid.dims:], work.product)
    adv_hats = [_div_hat(grid, row, out=out, term=term) for row, out in zip(table, work.rows)]
    rhs_div = _div_hat(grid, adv_hats, out=work.residual, term=term)  # div((u.grad)u), div-free u
    bgp_hats, p_hat, _ = _gradient_over_rho(work, rho, _negative(rhs_div, rhs_div), p0)
    for adv, bgp in zip(adv_hats, bgp_hats):
        np.subtract(_negative(adv, adv), bgp, out=bgp)
    # scrub the leftover CG residual so stage velocities stay solenoidal
    return _leray_hats(grid, bgp_hats, bgp_hats, work.z, term), p_hat


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

    work = _DensityWork(grid)
    p_hat = None  # the last stage's pressure warm-starts the next solve

    def rhs(hats: tuple, with_speed: bool) -> tuple:
        nonlocal p_hat
        rho, u = grid.irfftn(hats[0], out=work.rho), work.u
        for h, ui in zip(hats[1:], u):
            grid.irfftn(h, out=ui)
        d_rho = _transport_tendency(work, rho, u)
        d_u, p_hat = _inhom_velocity_tendency(work, rho, u, p_hat)
        return (d_rho, *d_u), _max_speed(u) if with_speed else None

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
    torque_symbol = grid.to_band(g[1] * grid.ik[0] - g[0] * grid.ik[1])
    vort = _Vorticity(u0)

    def rhs(hats: tuple, with_speed: bool) -> tuple:
        wh, th = hats
        dw, u = vort.advect(wh)
        dw += torque_symbol * th
        dth = vort.transport(th)
        return (dw, dth), _max_speed(u) if with_speed else None

    hats = (grid.to_band(curl_2d(u0).hat), grid.to_band(theta0.hat))
    traj = integrate(grid, hats, rhs, _band_states(grid, vort.biot_savart, "theta"),
                     T, dt, snapshot_stride,
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
