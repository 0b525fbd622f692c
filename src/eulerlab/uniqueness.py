"""Relative energy, the one-sided Lipschitz estimator, and Gronwall
certification of the uniqueness pipelines.

The certified inequality is the discrete shadow of the relative-energy
closure: for every ordered pair of recorded times,

    E(t2) <= E(t1) * exp(int_{t1}^{t2} C dt) + commutator_budget + tolerance,

where ``E`` is the integrated relative energy between two runs, ``C(t)`` is
the smallest constant with ``zeta . grad(v_eps) . zeta >= -C |zeta|^2``
pointwise (the largest eigenvalue of the negated symmetric mollified
gradient, estimated from the designated regular solution only), and the
budget is the commutator bound at the working mollifier scale.

One pipeline certifies all three systems: ``_certify_pair`` takes a solved
A/B pair, computes the per-snapshot series (with one Besov probe per B
snapshot), the route budget, the Gronwall certificate and the verdict, and
returns the one ``UniquenessReport``.  The homogeneous experiment feeds it
``run_pair(..., solve)``; the variable-density and Boussinesq experiments
(:mod:`~eulerlab.extensions`) add a weighted energy, a per-quantity
hypothesis and a scalar-contraction audit as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .besov import _check_usable, besov_seminorm
from .commutator import scaling_experiment
from .errors import ConfigurationError, GridMismatchError
from .grid_fields import (
    VelocityField,
    gradient_tensor,
    make_grid,
    resample,
)
from .mollify import make_kernel, mollify, resolved_epsilon
from .solver import solve

if TYPE_CHECKING:
    from .extensions import DensityContractionReport

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

# Each certification route pairs a commutator budget with the regularity
# threshold its hypothesis needs: the convective route decays like
# eps^(2a-1) and needs a > 1/2; the trilinear route decays like
# eps^(3a-1) and needs a > 1/3.
ROUTE_THRESHOLDS = {"convective": 0.5, "trilinear": 1.0 / 3.0}

# The extended systems gate the smallest per-quantity exponent at the
# trilinear threshold whatever the budget route; matching it to the route
# (ROADMAP item 2) changes recorded verdicts.
EXTENDED_REQUIRED_ALPHA = 1.0 / 3.0


def relative_energy(u: VelocityField, v: VelocityField) -> float:
    """``int 0.5 |u - v|^2`` by grid quadrature; zero iff the fields agree."""
    if u.grid != v.grid:
        raise GridMismatchError("relative energy needs a shared grid")
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
        a = grad[0, 0]
        c = grad[1, 1]
        b = 0.5 * (grad[0, 1] + grad[1, 0])
        lam = -0.5 * (a + c) + np.sqrt((0.5 * (a - c)) ** 2 + b * b)
        return max(0.0, float(lam.max()))
    sym = 0.5 * (grad + np.swapaxes(grad, 0, 1))
    mats = np.moveaxis(sym.reshape(dims, dims, -1), -1, 0)
    eigs = np.linalg.eigvalsh(-mats)
    return max(0.0, float(eigs[:, -1].max()))


def one_sided_lipschitz(v: VelocityField, reg_epsilon: float) -> float:
    """Smallest one-sided Lipschitz constant of the mollified field."""
    kernel = make_kernel(v.grid, reg_epsilon)
    return lipschitz_from_gradient(gradient_tensor(mollify(v, kernel)))


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

    def integral(self) -> float:
        """Trapezoid of C over the whole axis."""
        return _trapz(self.c_values, self.times)


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
        return {
            "tau1": self.tau1,
            "tau2": self.tau2,
            "lhs": self.lhs,
            "bound": self.bound,
            "slack": self.slack,
            "pass": self.passed,
            "commutator_budget": self.commutator_budget,
            "certify_tolerance": self.certify_tolerance,
        }


def gronwall_certify(
    E_series: RelativeEnergySeries,
    C_series: LipschitzSeries,
    commutator_budget: float,
    certify_tolerance: float,
) -> GronwallCertificate:
    """Check ``E(t2) <= E(t1) exp(int C) + budget + tolerance`` for every
    ordered pair on the shared axis and record the worst one."""
    if certify_tolerance <= 0.0:
        raise ConfigurationError("certify_tolerance must be positive")
    if len(E_series.times) != len(C_series.times) or any(
        abs(a - b) > 1e-12 * max(1.0, abs(a)) for a, b in zip(E_series.times, C_series.times)
    ):
        raise ConfigurationError("mismatched time axes between E and C series")
    times = E_series.times
    E = E_series.values
    C = C_series.c_values
    cum = [0.0]
    for i in range(len(times) - 1):
        cum.append(cum[-1] + 0.5 * (C[i] + C[i + 1]) * (times[i + 1] - times[i]))
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
    cfl: float = 0.5

    def cadence(self) -> float:
        return self.dt * self.snapshot_stride


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
    contraction: Optional[DensityContractionReport] = None

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


def _trapz(values: Sequence[float], times: Sequence[float]) -> float:
    acc = 0.0
    for i in range(len(times) - 1):
        acc += 0.5 * (values[i] + values[i + 1]) * (times[i + 1] - times[i])
    return acc


def _shared_times(traj_a, traj_b) -> list[float]:
    times = traj_a.times
    if len(times) != len(traj_b.times) or any(
        abs(a - b) > 1e-12 for a, b in zip(times, traj_b.times)
    ):
        raise ConfigurationError("trajectories recorded different time axes")
    return times


def run_pair(fields: Sequence, cfg_a: RunConfig, cfg_b: RunConfig, solve_leg):
    """Integrate both legs from shared initial ``fields`` (restricted
    spectrally to each leg's grid) with ``solve_leg(*fields, T=, dt=,
    snapshot_stride=, cfl=)``; snapshot cadences must agree in physical time.

    Returns ``(A, B)`` with B the finer leg, the designated regular solution.
    """
    if abs(cfg_a.T - cfg_b.T) > 1e-12:
        raise ConfigurationError("both runs must share the horizon T")
    if abs(cfg_a.cadence() - cfg_b.cadence()) > 1e-12:
        raise ConfigurationError(
            "snapshot cadences differ: "
            f"{cfg_a.cadence()} vs {cfg_b.cadence()} (dt * stride must match)"
        )
    traj = []
    for cfg in (cfg_a, cfg_b):
        grid = make_grid(fields[0].grid.dims, cfg.grid_n)
        traj.append(
            solve_leg(
                *(resample(f, grid) for f in fields), T=cfg.T, dt=cfg.dt,
                snapshot_stride=cfg.snapshot_stride, cfl=cfg.cfl,
            )
        )
    if cfg_a.grid_n > cfg_b.grid_n:
        traj.reverse()
    return traj[0], traj[1]


def _plain_energy(sa, ua: VelocityField, ub: VelocityField) -> float:
    return relative_energy(ua, ub)


def _pair_series(traj_a, traj_b, energy, reg_epsilon: float, alpha: float, p_int: float):
    """Per-snapshot relative energy ``energy(state_a, u_a, u_b)`` (velocities
    on A's grid), C(t) and the Besov estimate of B's velocity, as
    ``(E series, C series, estimates)``."""
    times = _shared_times(traj_a, traj_b)
    cmp_grid = traj_a.grid
    energies = []
    c_vals = []
    estimates = []
    for sa, sb in zip(traj_a.states, traj_b.states):
        ua = resample(sa.velocity, cmp_grid)
        ub = resample(sb.velocity, cmp_grid)
        energies.append(energy(sa, ua, ub))
        v = sb.velocity
        c_vals.append(one_sided_lipschitz(v, reg_epsilon))
        estimates.append(besov_seminorm(v, alpha, p_int))
    return (RelativeEnergySeries(times, energies),
            LipschitzSeries(times, c_vals, reg_epsilon), estimates)


def _check_sweep(budget_route: str, epsilons: Sequence[float]) -> None:
    """Reject an unknown budget route or an empty epsilon sweep, so a bad
    configuration fails before any leg is solved."""
    if budget_route not in ROUTE_THRESHOLDS:
        raise ConfigurationError("budget_route must be 'convective' or 'trilinear'")
    if len(epsilons) == 0:
        raise ConfigurationError("need at least one epsilon for the budget sweep")


def _certify_pair(
    traj_a,
    traj_b,
    alpha: float,
    p_int: float,
    epsilons: Sequence[float],
    *,
    energy,
    budget_route: str,
    working_epsilon: Optional[float],
    reg_epsilon: Optional[float],
    certify_tolerance: Optional[float],
    hypothesis: Optional[dict] = None,
    audit: Optional[DensityContractionReport] = None,
) -> UniquenessReport:
    """Certify the relative-energy Gronwall inequality of a solved A/B pair.

    B is the designated regular solution (see ``uniqueness_experiment`` for
    the budget routes); ``energy(state_a, u_a, u_b)`` is the relative energy
    of one snapshot.

    Without ``hypothesis`` the median of B's per-snapshot fitted exponents
    must exceed the route's threshold.  ``hypothesis`` maps further quantities
    to exponents fitted at mid-horizon; B's mid-horizon velocity exponent
    joins them as ``velocity_b``, and their minimum must exceed
    ``EXTENDED_REQUIRED_ALPHA``.  ``audit`` (a scalar-contraction report) must
    pass as well and is reported as ``contraction``.
    """
    epsilons = sorted((float(e) for e in epsilons), reverse=True)
    grid_v = traj_b.grid
    reg_eps = reg_epsilon if reg_epsilon is not None else resolved_epsilon(grid_v)
    e_series, c_series, estimates = _pair_series(
        traj_a, traj_b, energy, reg_eps, alpha, p_int
    )
    times = e_series.times
    seminorms = [e.seminorm for e in estimates]

    if hypothesis is None:
        for e in estimates:
            _check_usable(grid_v, e.shift_table)
        fitted_alpha = float(np.median([e.fitted_alpha for e in estimates]))
        required = ROUTE_THRESHOLDS[budget_route]
    else:
        mid = estimates[len(times) // 2]
        try:
            _check_usable(grid_v, mid.shift_table)
            velocity_b = mid.fitted_alpha
        except ConfigurationError:
            velocity_b = 1.0  # a constant field is maximally regular
        hypothesis = dict(hypothesis, velocity_b=velocity_b)
        fitted_alpha = float(min(hypothesis.values()))
        required = EXTENDED_REQUIRED_ALPHA
    met = fitted_alpha > required

    v0 = traj_b.states[0].velocity
    if budget_route == "convective":
        sweep = scaling_experiment(
            v0, "convective_commutator_lp", epsilons, p_int, alpha=alpha
        )
        rate = 2.0 * alpha - 1.0
        weight = _trapz([s * s for s in seminorms], times)
    else:
        u0_on_v = resample(traj_a.states[0].velocity, grid_v)
        sweep = scaling_experiment(
            (u0_on_v, v0), "cet_trilinear", epsilons, p_int, alpha=alpha
        )
        rate = 3.0 * alpha - 1.0
        su = [
            besov_seminorm(resample(s.velocity, grid_v), alpha, p_int).seminorm
            for s in traj_a.states
        ]
        weight = _trapz(
            [a * a * (a + b) for a, b in zip(su, seminorms)], times
        )
    c_fit = max(sweep.intercepts) if not sweep.vacuous else 0.0
    budgets = [c_fit * e**rate * weight for e in epsilons]
    work_eps = float(working_epsilon) if working_epsilon is not None else min(epsilons)
    budget = c_fit * work_eps**rate * weight

    # by default ten times the pair's larger energy drift, so discretization
    # error cannot masquerade as non-uniqueness
    if certify_tolerance is None:
        certify_tolerance = 10.0 * max(traj_a.energy_drift(), traj_b.energy_drift(), 1e-16)
    certificate = gronwall_certify(e_series, c_series, budget, float(certify_tolerance))
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
        quantity_alphas=hypothesis,
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
    working_epsilon: Optional[float] = None,
    reg_epsilon: Optional[float] = None,
    certify_tolerance: Optional[float] = None,
) -> UniquenessReport:
    """Run the A/B pair and certify the relative-energy Gronwall inequality.

    The B leg (or the higher-resolution leg when they differ) plays the role
    of the regular solution: C(t), the per-slice Besov statistics, and the
    commutator budget are estimated from it alone.  ``budget_route`` selects
    the bound: ``"convective"`` uses the convective commutator at rate
    ``2 alpha - 1`` (hypothesis alpha > 1/2); ``"trilinear"`` uses the
    trilinear pairing at rate ``3 alpha - 1`` (hypothesis alpha > 1/3).
    The default tolerance is ten times the pair's measured energy drift, so
    discretization error cannot masquerade as non-uniqueness.
    """
    _check_sweep(budget_route, epsilons)
    traj_a, traj_b = run_pair((u0,), cfg_a, cfg_b, solve)
    return _certify_pair(
        traj_a, traj_b, alpha, p_int, epsilons, energy=_plain_energy,
        budget_route=budget_route, working_epsilon=working_epsilon,
        reg_epsilon=reg_epsilon, certify_tolerance=certify_tolerance,
    )
