"""Relative energy, the one-sided Lipschitz estimator, and Gronwall
certification of the uniqueness pipelines.

The certified inequality is the discrete shadow of the relative-energy
closure: for every ordered pair of recorded times,

    E(t2) <= E(t1) * exp(int_{t1}^{t2} C dt) + commutator_budget + tolerance,

where ``E`` is the integrated relative energy between two runs, ``C(t)`` is
the smallest constant with ``zeta . grad(v_eps) . zeta >= -C |zeta|^2``
pointwise (the largest eigenvalue of the negated symmetric mollified
gradient, estimated from the designated regular solution only), the budget
is the commutator bound at the working mollifier scale, always the sweep's
smallest epsilon, and the tolerance is ten times the pair's larger energy
drift, so discretization error cannot masquerade as non-uniqueness.

One pipeline certifies all three systems: ``_certify_pair`` takes a solved
A/B pair, computes the per-snapshot series in one pass that reads each
recorded state once per leg (with one Besov probe per B snapshot, and the
extended systems' mid-horizon exponents), reads B's first state again for the
route budget, certifies and returns the one ``UniquenessReport``.  The
homogeneous experiment feeds it ``run_pair(..., solve)``; the variable-density
and Boussinesq experiments (:mod:`~eulerlab.extensions`) add a weighted
energy, the transported scalar's name and a scalar-contraction audit (a
``solver.PairAudit``) as data.
All three first pass ``_check_sweep``, which checks the sweep against
``commutator._sweep_problems`` on the finer leg's grid and checks ``alpha``
and ``p``, before solving anything.

The budget routes live in ``commutator.ROUTES``: a route whose budget decays
like ``eps^(p alpha - 1)`` needs ``alpha > 1/p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .besov import BesovEstimate, _check_exponents, _check_usable, besov_seminorm
from .commutator import ROUTES, Route, _sweep, _sweep_problems
from .errors import ConfigurationError, GridMismatchError
from .grid_fields import (
    Field,
    PeriodicGrid,
    VelocityField,
    make_grid,
    resample,
)
from .mollify import MollifierKernel, _mollified_hat, make_kernel, resolved_epsilon
from .reporting import _as_json
from .solver import PairAudit, _run_steps, solve

__all__ = [
    "RelativeEnergySeries",
    "LipschitzSeries",
    "GronwallCertificate",
    "RunConfig",
    "UniquenessReport",
    "relative_energy",
    "lipschitz_from_gradient",
    "one_sided_lipschitz",
    "gronwall_certify",
    "uniqueness_experiment",
]

# The extended systems gate the smallest per-quantity exponent at the
# trilinear threshold whatever the budget route; matching it to the route
# (ROADMAP item 3) changes recorded verdicts.
EXTENDED_REQUIRED_ALPHA = 1.0 / 3.0


def relative_energy(u: Field, v: Field) -> float:
    """``int 0.5 |u - v|^2`` by grid quadrature of two velocity fields or of
    two scalar fields; zero iff the fields agree."""
    if u.grid != v.grid:
        raise GridMismatchError("relative energy needs a shared grid")
    if len(u.components) != len(v.components):
        raise ConfigurationError("relative energy needs two fields of the same kind")
    acc = 0.0
    for a, b in zip(u.components, v.components):
        d = a.values - b.values
        acc += float(np.sum(d * d))
    return 0.5 * acc * u.grid.cell_volume


def lipschitz_from_gradient(grad: np.ndarray) -> float:
    """Largest eigenvalue of ``-sym(W)`` over the grid for a gradient tensor
    ``W[i, j] = d(u_i)/dx_j``.

    This is the smallest constant C with ``zeta . W zeta >= -C |zeta|^2``
    pointwise for all directions (the antisymmetric part never contributes).
    Clamped at zero: trace-free gradients always admit a nonnegative C, and
    the certified condition requires a nonnegative rate.
    """
    dims = grad.shape[0]
    if dims == 2:
        return _lipschitz_2d(grad[0, 0].copy(), grad[0, 1].copy(),
                             grad[1, 0].copy(), grad[1, 1].copy())
    sym = 0.5 * (grad + np.swapaxes(grad, 0, 1))
    mats = np.moveaxis(sym.reshape(dims, dims, -1), -1, 0)
    eigs = np.linalg.eigvalsh(-mats)
    return max(0.0, float(eigs[:, -1].max()))


def _lipschitz_2d(a: np.ndarray, b01: np.ndarray, b10: np.ndarray,
                  c: np.ndarray) -> float:
    """:func:`lipschitz_from_gradient` of the planar gradient ``[[a, b01],
    [b10, c]]``: ``-(a + c)/2 + sqrt(((a - c)/2)^2 + ((b01 + b10)/2)^2)``,
    evaluated in the four arrays, which are overwritten."""
    b = b01
    b += b10
    b *= 0.5
    b *= b
    lam = np.add(a, c, out=b10)
    lam *= -0.5
    a -= c
    a *= 0.5
    a *= a
    a += b
    lam += np.sqrt(a, out=a)
    return max(0.0, float(lam.max()))


def one_sided_lipschitz(v: VelocityField, kernel: MollifierKernel) -> float:
    """Smallest one-sided Lipschitz constant of the field mollified by
    ``kernel``: :func:`lipschitz_from_gradient` of the gradient taken
    straight from the mollified spectra (no mollified field is built)."""
    grid = v.grid
    hats = [_mollified_hat(c, kernel) for c in v.components]

    def d(i: int, j: int) -> np.ndarray:  # d(v_eps_i)/dx_j, a fresh array
        return grid.irfftn(grid.ik[j] * hats[i])

    if grid.dims == 2:
        return _lipschitz_2d(d(0, 0), d(0, 1), d(1, 0), d(1, 1))
    return lipschitz_from_gradient(np.array([[d(i, j) for j in range(grid.dims)]
                                             for i in range(grid.dims)]))


@dataclass
class RelativeEnergySeries:
    """Integrated relative energy sampled on a shared time axis."""

    times: list[float]
    values: list[float]

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ConfigurationError("times and values must align")
        if any(v < -1e-15 for v in self.values):
            raise ConfigurationError("relative energy must be nonnegative")


@dataclass
class LipschitzSeries:
    """Estimated C(t) on a time axis with its regularization scale."""

    times: list[float]
    c_values: list[float]
    reg_epsilon: float

    def __post_init__(self):
        if len(self.times) != len(self.c_values):
            raise ConfigurationError("times and values must align")
        if any(not math.isfinite(c) or c < 0.0 for c in self.c_values):
            raise ConfigurationError("C(t) must be finite and nonnegative")


@dataclass
class GronwallCertificate:
    """Worst ordered-pair audit of the Gronwall inequality."""

    tau1: float
    tau2: float
    lhs: float
    bound: float
    slack: float
    passed: bool
    commutator_budget: float
    certify_tolerance: float

    def to_json_dict(self) -> dict:
        return _as_json(self)


def gronwall_certify(
    E_series: RelativeEnergySeries,
    C_series: LipschitzSeries,
    commutator_budget: float,
    certify_tolerance: float,
) -> GronwallCertificate:
    """Check ``E(t2) <= E(t1) exp(int C) + budget + tolerance`` for every
    ordered pair on the shared axis and record the worst one."""
    if not certify_tolerance > 0.0:
        raise ConfigurationError("certify_tolerance must be positive")
    times = _shared_times(E_series, C_series)
    E = E_series.values
    cum = _cumulative_trapz(C_series.c_values, times)
    worst = None
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            bound = E[i] * math.exp(cum[j] - cum[i]) + commutator_budget
            slack = bound - E[j]
            if worst is None or slack < worst[0]:
                worst = (slack, i, j, bound)
    if worst is None:
        # single-sample axis: nothing to compare, trivially certified
        return GronwallCertificate(
            times[0], times[0], E[0], E[0] + commutator_budget,
            commutator_budget, True, commutator_budget, certify_tolerance,
        )
    slack, i, j, bound = worst
    return GronwallCertificate(
        tau1=times[i],
        tau2=times[j],
        lhs=E[j],
        bound=bound,
        slack=slack,
        passed=slack >= -certify_tolerance,
        commutator_budget=commutator_budget,
        certify_tolerance=certify_tolerance,
    )


@dataclass(frozen=True)
class RunConfig:
    """Solver configuration for one leg of an A/B experiment."""

    grid_n: int
    dt: float
    T: float
    snapshot_stride: int = 1

    def cadence(self) -> float:
        return self.dt * self.snapshot_stride


def _check_cadences(cadence_a: float, cadence_b: float) -> None:
    """Both legs must record snapshots at the same physical times."""
    if abs(cadence_a - cadence_b) > 1e-12:
        raise ConfigurationError(
            f"snapshot cadences differ: {cadence_a} vs {cadence_b} (dt * stride must match)"
        )


@dataclass
class UniquenessReport:
    """Everything the certification pipeline measured, JSON-ready."""

    times: list[float]
    energy: list[float]
    lipschitz: LipschitzSeries
    budgets_epsilons: list[float]
    budgets_values: list[float]
    certificate: GronwallCertificate
    fitted_alpha: float
    required_alpha: float
    hypothesis_met: bool
    verdict: str
    alpha: float
    p_int: float
    working_epsilon: float
    seminorm_series: list[float]
    fitted_alpha_series: list[float]
    budget_route: str
    quantity_alphas: Optional[dict] = None
    contraction: Optional[PairAudit] = None

    def to_json_dict(self) -> dict:
        out = {
            "series": {
                "t": list(self.times),
                "E": list(self.energy),
                "C": list(self.lipschitz.c_values),
            },
            "budgets": {
                "epsilon": list(self.budgets_epsilons),
                "value": list(self.budgets_values),
            },
            "certificate": self.certificate.to_json_dict(),
            "hypothesis": {
                "fitted_alpha": self.fitted_alpha,
                "required_alpha": self.required_alpha,
                "met": self.hypothesis_met,
            },
            "verdict": self.verdict,
            "alpha": self.alpha,
            "p": self.p_int,
            "working_epsilon": self.working_epsilon,
            "budget_route": self.budget_route,
            "seminorm_series": list(self.seminorm_series),
            "fitted_alpha_series": list(self.fitted_alpha_series),
        }
        if self.quantity_alphas is not None:
            out["hypothesis"]["per_quantity"] = dict(self.quantity_alphas)
        if self.contraction is not None:
            out["contraction"] = self.contraction.to_json_dict()
        return out


def _cumulative_trapz(values: Sequence[float], times: Sequence[float]) -> list[float]:
    """Trapezoid integrals of ``values`` from ``times[0]`` to each time."""
    cum = [0.0]
    for i in range(len(times) - 1):
        cum.append(cum[-1] + 0.5 * (values[i] + values[i + 1]) * (times[i + 1] - times[i]))
    return cum


def _shared_times(a, b) -> list[float]:
    """The time axis two recorded series share (to 1e-12), or an error."""
    times = a.times
    if len(times) != len(b.times) or any(
        abs(s - t) > 1e-12 for s, t in zip(times, b.times)
    ):
        raise ConfigurationError("the two series recorded different time axes")
    return times


def run_pair(fields: Sequence, cfg_a: RunConfig, cfg_b: RunConfig, solve_leg):
    """Integrate both legs from shared initial ``fields`` (restricted
    spectrally to each leg's grid) with ``solve_leg(*fields, T=, dt=,
    snapshot_stride=)``; snapshot cadences must agree in physical time.
    Both legs' grids, steps and horizons are checked before either is solved.

    Returns ``(A, B)`` with B the finer leg, the designated regular solution.
    """
    if abs(cfg_a.T - cfg_b.T) > 1e-12:
        raise ConfigurationError("both runs must share the horizon T")
    _check_cadences(cfg_a.cadence(), cfg_b.cadence())
    legs = []
    for cfg in (cfg_a, cfg_b):
        _run_steps(cfg.T, cfg.dt, cfg.snapshot_stride)
        legs.append((cfg, make_grid(fields[0].grid.dims, cfg.grid_n)))
    traj = [
        solve_leg(*(resample(f, grid) for f in fields), T=cfg.T, dt=cfg.dt,
                  snapshot_stride=cfg.snapshot_stride)
        for cfg, grid in legs
    ]
    if cfg_a.grid_n > cfg_b.grid_n:
        traj.reverse()
    return traj[0], traj[1]


def _plain_energy(sa, ua: VelocityField, ub: VelocityField) -> float:
    return relative_energy(ua, ub)


def _pair_series(traj_a, traj_b, energy, alpha: float, p_int: float, route: Route,
                 scalar: Optional[str]):
    """The one pass over a pair, reading each state once and by index (``zip``
    keeps more alive): ``(E series, C series, B's Besov estimates, (u_a0,
    seminorms_a), exponents)``, E from ``energy(state_a, u_a, u_b)`` on A's
    grid.  A pair ``route`` adds A's first velocity on B's grid and the
    seminorms there; ``scalar`` adds the mid-horizon exponents."""
    times = _shared_times(traj_a, traj_b)
    cmp_grid, grid_b = traj_a.grid, traj_b.grid
    reg_epsilon = resolved_epsilon(grid_b)
    kernel = make_kernel(grid_b, reg_epsilon)
    energies, c_vals, estimates, seminorms_a = [], [], [], []
    ua0 = exponents = None
    for k in range(len(times)):
        sa, sb = traj_a.states[k], traj_b.states[k]
        v = sb.velocity
        energies.append(energy(sa, resample(sa.velocity, cmp_grid), resample(v, cmp_grid)))
        c_vals.append(one_sided_lipschitz(v, kernel))
        estimates.append(besov_seminorm(v, alpha, p_int))
        if route.pair:
            ua = resample(sa.velocity, grid_b)
            ua0 = ua if k == 0 else ua0
            seminorms_a.append(besov_seminorm(ua, alpha, p_int).seminorm)
        if scalar and k == len(times) // 2:
            fields = {"velocity_a": sa.velocity}
            for leg, s in (("_a", sa), ("_b", sb)):
                rho = fields[scalar + leg] = s.scalars[scalar]
                fields["momentum" + leg] = VelocityField.from_arrays(
                    rho.grid, [rho.values * c.values for c in s.velocity.components])
            exponents = {name: _fitted_or_regular(f.grid, besov_seminorm(f, alpha, p_int))
                         for name, f in fields.items()}
            exponents["velocity_b"] = _fitted_or_regular(grid_b, estimates[-1])
    return (RelativeEnergySeries(times, energies), LipschitzSeries(times, c_vals, reg_epsilon),
            estimates, (ua0, seminorms_a), exponents)


def _check_sweep(budget_route: str, epsilons: Sequence[float], cfg_a: RunConfig,
                 cfg_b: RunConfig, alpha: float, p_int: float) -> None:
    """Reject an exponent ``alpha`` outside (0, 1) or an integrability
    ``p_int`` below 1, an unknown budget route, or the first of the route's
    ``commutator._sweep_problems`` on the finer leg's grid (where the sweep
    runs), so a bad configuration fails before solving."""
    _check_exponents(alpha, p_int)
    if budget_route not in ROUTES:
        raise ConfigurationError(f"budget_route must be one of {tuple(ROUTES)}")
    grid_b = make_grid(2, max(cfg_a.grid_n, cfg_b.grid_n))
    problems = _sweep_problems(ROUTES[budget_route], epsilons, grid_b, p_int)
    if problems:
        raise ConfigurationError(problems[0])


def _fitted_or_regular(grid: PeriodicGrid, estimate: BesovEstimate) -> float:
    """The exponent fitted by a probe of a field on ``grid``; a field too
    degenerate to fit (constant) counts as maximally regular, 1.0."""
    try:
        _check_usable(grid, estimate.shift_table)
    except ConfigurationError:
        return 1.0
    return estimate.fitted_alpha


def _certify_pair(
    traj_a,
    traj_b,
    alpha: float,
    p_int: float,
    epsilons: Sequence[float],
    *,
    energy,
    budget_route: str,
    scalar: Optional[str] = None,
    audit: Optional[PairAudit] = None,
) -> UniquenessReport:
    """Certify the relative-energy Gronwall inequality of a solved A/B pair.

    B is the designated regular solution (see ``uniqueness_experiment`` for
    the budget routes); ``energy(state_a, u_a, u_b)`` is the relative energy
    of one snapshot.

    Without ``scalar`` the median of B's per-snapshot fitted exponents
    must exceed the route's threshold ``1/p``.  With the name of an extended
    system's transported scalar (``"density"``, ``"theta"``), the minimum of
    the mid-horizon exponents of both legs' scalar, momentum and velocity
    must exceed ``EXTENDED_REQUIRED_ALPHA``.  ``audit`` (a scalar-contraction
    report) must pass as well and is reported as ``contraction``.
    """
    epsilons = sorted((float(e) for e in epsilons), reverse=True)
    route = ROUTES[budget_route]
    e_series, c_series, estimates, (ua0, seminorms_a), exponents = _pair_series(
        traj_a, traj_b, energy, alpha, p_int, route, scalar)
    times = e_series.times
    seminorms = [e.seminorm for e in estimates]

    if exponents is None:
        for e in estimates:
            _check_usable(traj_b.grid, e.shift_table)
        fitted_alpha = float(np.median([e.fitted_alpha for e in estimates]))
        required = 1.0 / route.power
    else:
        fitted_alpha = float(min(exponents.values()))
        required = EXTENDED_REQUIRED_ALPHA
    met = fitted_alpha > required

    # B's first state is read again: held through the pass it raises the peak
    v0 = traj_b.states[0].velocity
    fields, series = ((ua0, v0), (seminorms_a, seminorms)) if route.pair else \
        ((v0,), (seminorms,))
    weight = _cumulative_trapz(
        [route.seminorm_factor(s[0] * s[0], s) for s in zip(*series)], times)[-1]
    rate, _, intercepts, _ = _sweep(route, fields, [s[0] for s in series], alpha, epsilons,
                                    p_int)
    c_fit = max(intercepts)
    budgets = [c_fit * e**rate * weight for e in epsilons]
    work_eps = epsilons[-1]  # the smallest, as the sweep runs largest first
    tolerance = 10.0 * max(traj_a.energy_drift(), traj_b.energy_drift(), 1e-16)
    certificate = gronwall_certify(e_series, c_series, budgets[-1], tolerance)
    if not met:
        verdict = "hypothesis-not-met"
    elif certificate.passed and (audit is None or audit.passed):
        verdict = "pass"
    else:
        verdict = "certificate-failed"
    return UniquenessReport(
        times=times,
        energy=e_series.values,
        lipschitz=c_series,
        budgets_epsilons=epsilons,
        budgets_values=budgets,
        certificate=certificate,
        fitted_alpha=fitted_alpha,
        required_alpha=required,
        hypothesis_met=met,
        verdict=verdict,
        alpha=float(alpha),
        p_int=float(p_int),
        working_epsilon=work_eps,
        seminorm_series=seminorms,
        fitted_alpha_series=[e.fitted_alpha for e in estimates],
        budget_route=budget_route,
        quantity_alphas=exponents,
        contraction=audit,
    )


def uniqueness_experiment(
    u0: VelocityField,
    cfg_a: RunConfig,
    cfg_b: RunConfig,
    alpha: float,
    p_int: float,
    epsilons: Sequence[float],
    *,
    budget_route: str = "convective",
) -> UniquenessReport:
    """Run the A/B pair and certify the relative-energy Gronwall inequality.

    The B leg (or the higher-resolution leg when they differ) plays the role
    of the regular solution: C(t), the per-slice Besov statistics, and the
    commutator budget are estimated from it alone.  ``budget_route`` names
    the bound in ``commutator.ROUTES``: ``"convective"`` (rate
    ``2 alpha - 1``, hypothesis alpha > 1/2) or ``"trilinear"`` (rate
    ``3 alpha - 1``, hypothesis alpha > 1/3).
    """
    _check_sweep(budget_route, epsilons, cfg_a, cfg_b, alpha, p_int)
    traj_a, traj_b = run_pair((u0,), cfg_a, cfg_b, solve)
    return _certify_pair(traj_a, traj_b, alpha, p_int, epsilons, energy=_plain_energy,
                         budget_route=budget_route)
