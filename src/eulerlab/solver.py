"""Pseudo-spectral weak solutions of 2D incompressible Euler on the torus.

Vorticity-streamfunction formulation: the scalar vorticity is advanced with
the classical 4-stage explicit integrator, velocity is recovered through the
spectral Biot-Savart map (which enforces the divergence constraint
identically) plus the initial velocity's mean, which the flow conserves and
the vorticity does not see, and the advection term is taken in stress form,
``-div(u w) = (d2^2 - d1^2)(u1 u2) + d1 d2 (u1^2 - u2^2)`` for solenoidal
``u`` with ``w = curl u``.  The products are taken pointwise and the
2/3-dealias mask is folded into the real stress symbols, so the term is the
Galerkin product of band-limited fields, its spatial mean vanishes exactly,
and one tendency costs four transforms: ``u1`` and ``u2`` inverse, the two
products forward; the vorticity itself never leaves spectral space.
Pressure never enters the time loop; it is recovered diagnostically from the
div-div Poisson equation.

The vorticity lives on the compressed dealias band (``grid.band_shape``),
outside which every dealiased spectrum is zero: the state, its RK4 stages
and the symbols hold only the band, and the transforms run in the grid's
band mode, whose complex pass over axis 0 is pruned to the band's columns
and bitwise equal to the whole half-spectrum's on the band.  The passes,
the velocity samples, the products and the temporary band spectra write
into work arrays that one solve allocates once (:class:`_Vorticity`), so
a stage allocates no full-size array.

A run records the integrator's own spectral state at each snapshot (for this
solver the band vorticity spectrum alone), read-only and uncopied, and
rebuilds a snapshot's :class:`State` from it, scattered into a whole
half-spectrum, each time the state is read.  One rebuild
costs the system's inverse transforms (three here: ``u1``, ``u2`` and the
vorticity), so a caller that reads a state twice should hold it; the
trajectory's times, grid, length and ledgers rebuild nothing.  All three
systems step through :func:`integrate`, which also builds the run's
:class:`Trajectory`: it rebuilds each recorded state once for all of the
system's ledgers and records the run's parameters as its config.

Energy and enstrophy of the dealiased semi-discretization are conserved in
continuous time; all recorded drift is the integrator's and shrinks like
dt^4.  Each step's dt is checked against the fixed CFL number ``CFL`` at
the speed of its first stage.  Under-resolved runs are legal but show up as
admissibility violations in the energy ledger, a checked property, never an
enforced one; the check reports a ``PairAudit``, the one ordered-pair record
that the extensions' scalar-contraction audit reports as well.

The weak-form audit pairs recorded states with ``WeakTestFunction`` tests in
spectral space: each pairing is a Parseval sum over the dealiased band,
which is exact to round-off because the test's band check admits only tests
band-limited below the dealias cutoff.  The audit keeps each test's band
spectra and reads every state once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, SolverAbort, StepSizeError
from .grid_fields import (
    PeriodicGrid,
    ScalarField,
    VelocityField,
    _BandWork,
    _dealiased_product_tensor,
    _div_hat,
    _div_product_hats,
    _max_speed,
    _parseval_dot,
    _require_same_grid,
    curl_2d,
    lp_norm,
)
from .reporting import _as_json

__all__ = [
    "State",
    "RecordedStates",
    "Trajectory",
    "TimeProfile",
    "WeakTestFunction",
    "cosine_window",
    "solve",
    "integrate",
    "steps_for_horizon",
    "cfl_dt_bound",
    "ordered_pair_audit",
    "recover_pressure",
    "admissibility_check",
    "PairAudit",
    "weak_residual",
    "weak_residuals",
    "kinetic_energy",
    "enstrophy",
]

CFL = 0.5  # every step's dt stays within CFL * spacing / speed


def kinetic_energy(u: VelocityField) -> float:
    """``0.5 * int |u|^2``."""
    return 0.5 * lp_norm(u, 2.0) ** 2


def enstrophy(w: ScalarField) -> float:
    """``int w^2`` of the scalar vorticity."""
    return lp_norm(w, 2.0) ** 2


def _velocity_hat(w_hat: np.ndarray, b: np.ndarray, mean: complex,
                  out: np.ndarray = None) -> np.ndarray:
    """One velocity component's spectrum ``w_hat * b`` with the zero-mode
    coefficient ``mean``, which the vorticity does not carry, in ``out``
    (fresh when not given)."""
    u_hat = np.multiply(w_hat, b, out=out)
    u_hat[0, 0] = mean
    return u_hat


def _biot_savart_velocity(grid: PeriodicGrid, biot_savart: tuple,
                          w_band: np.ndarray) -> VelocityField:
    """The velocity of the band vorticity spectrum ``w_band``
    (``biot_savart`` is :class:`_Vorticity`'s pairs of a band symbol and a
    zero-mode coefficient), with full half-spectra."""
    return VelocityField([
        ScalarField.from_hat(grid, grid.from_band(_velocity_hat(w_band, b, mean)))
        for b, mean in biot_savart])


class _Vorticity:
    """The spectral symbols and work arrays of the vorticity formulation on
    the grid of the initial velocity ``u0``, built once per solve.  Its
    spectra are compressed dealias bands (``grid.band_shape``), on which
    every symbol lives: Biot-Savart ``u_i_hat = w_hat * b_i`` with
    ``b = (i k1/|k|^2, -i k0/|k|^2)``, each paired with ``u0``'s zero-mode
    coefficient (the mean flow, which the vorticity does not see and the
    dynamics conserve), the real stress symbols ``k0^2 - k1^2`` and
    ``k0 k1``, which vanish at k = 0.  The work arrays are the band
    transforms' scratch (whose ``spectrum`` takes the velocity spectra and
    the temporary product spectra), the velocity samples ``u`` and two
    sample-space product buffers; each call overwrites them.  A recorded
    trajectory keeps the Biot-Savart pairs only."""

    def __init__(self, u0: VelocityField):
        grid = u0.grid
        k0, k1 = grid.deriv_wavenumber(0), grid.deriv_wavenumber(1)
        self.grid = grid
        mean = [c.hat[0, 0] for c in u0.components]
        self.biot_savart = ((grid.to_band(1j * k1 * grid.inv_k_squared), mean[0]),
                            (grid.to_band(-1j * k0 * grid.inv_k_squared), mean[1]))
        self.stress = (grid.to_band(k0 * k0 - k1 * k1), grid.to_band(k0 * k1))
        self.work = _BandWork(grid)
        self.u = np.empty((2, *grid.shape))
        self.products = np.empty((2, *grid.shape))

    def advect(self, w_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``-div(u w)`` of the band spectrum ``w_hat``, a fresh band
        spectrum, and the physical velocity ``u`` (the work array).

        The tendency is ``s_P * P_hat + s_Q * Q_hat`` with ``P = u1 u2`` and
        ``Q = (u2 - u1)(u2 + u1)``: four transforms.
        """
        grid, work = self.grid, self.work
        for (b, mean), u in zip(self.biot_savart, self.u):
            u_hat = _velocity_hat(w_hat, b, mean, out=work.spectrum)
            grid.irfftn(u_hat, band=work, out=u)
        u1, u2 = self.u
        p, q = self.products
        p_hat = grid.rfftn(np.multiply(u1, u2, out=p), band=work)
        np.subtract(u2, u1, out=q)
        q *= np.add(u2, u1, out=p)
        q_hat = grid.rfftn(q, band=work, out=work.spectrum)
        s_p, s_q = self.stress
        p_hat *= s_p
        q_hat *= s_q
        p_hat += q_hat
        return p_hat, self.u

    def transport(self, s_hat: np.ndarray) -> np.ndarray:
        """``-div(u s)`` of the band spectrum ``s_hat`` of a scalar carried by
        the velocity ``u`` of the last :meth:`advect`, a fresh band
        spectrum: three transforms."""
        grid, work = self.grid, self.work
        s, prod = self.products
        grid.irfftn(s_hat, band=work, out=s)
        acc = _div_hat(grid, (grid.rfftn(np.multiply(s, u, out=prod), band=work,
                                         out=work.spectrum) for u in self.u), band=True)
        return np.negative(acc, out=acc)


def _rk4_stage(hats: tuple, dt: float, rhs: Callable[[tuple, bool], tuple]) -> tuple:
    """One classical 4-stage step of ``d(hats)/dt = rhs(hats)``, elementwise
    over a tuple of spectral arrays; returns the new state and the largest
    speed of ``hats``.

    ``rhs(hats, with_speed)`` returns ``(tendencies, speed)``: fresh arrays,
    which this step overwrites, and the largest speed of ``hats`` when
    ``with_speed`` is set (else None); only the first stage asks for it.
    The stage inputs and the final combine run in place, in the operation
    order of ``h + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, so the step is bitwise
    equal to that formula evaluated out of place.
    """

    def stage_input(ks: tuple, scale: float) -> tuple:
        out = []
        for h, k in zip(hats, ks):
            x = k * scale
            x += h
            out.append(x)
        return tuple(out)

    k1, speed = rhs(hats, True)
    k2, _ = rhs(stage_input(k1, 0.5 * dt), False)
    k3, _ = rhs(stage_input(k2, 0.5 * dt), False)
    k4, _ = rhs(stage_input(k3, dt), False)
    for h, a, b, c, d in zip(hats, k1, k2, k3, k4):
        b *= 2.0
        b += a
        c *= 2.0
        b += c
        b += d
        b *= dt / 6.0
        b += h
    return k2, speed


@dataclass
class State:
    """One recorded time slice: the divergence-free velocity and the named
    scalars its system carries (``"vorticity"``, ``"density"`` or
    ``"theta"``)."""

    time: float
    velocity: VelocityField
    scalars: dict[str, ScalarField]


class RecordedStates(Sequence):
    """The read-only states of one run: item ``i`` is
    ``materialize(times[i], hats[i])``, rebuilt from the integrator's
    recorded spectral tuple ``hats[i]`` each time it is read, so every read
    returns the same bytes and costs the system's inverse transforms."""

    def __init__(self, grid: PeriodicGrid, times: Sequence[float], hats: Sequence[tuple],
                 materialize: Callable[[float, tuple], State]):
        self.grid = grid
        self.times = tuple(times)
        self.hats = tuple(hats)
        self._materialize = materialize

    def __len__(self) -> int:
        return len(self.hats)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._materialize(self.times[i], self.hats[i])


@dataclass
class Trajectory:
    """Time-ordered states with the kinetic-energy ledger and any
    further named ledgers (``"mass"`` for variable density, ``"theta"`` for
    Boussinesq), each holding one entry per state.

    A solver's states are :class:`RecordedStates`, rebuilt on every read:
    a caller that reads a state twice should hold it.  The trajectory keeps
    its times and grid itself, so ``times``, ``grid``, ``len(states)`` and
    the ledgers rebuild nothing."""

    states: Sequence[State]
    dt: float
    config: dict
    energy_ledger: list[float]
    ledgers: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.states, RecordedStates):
            times, grid = self.states.times, self.states.grid
        else:
            times = [s.time for s in self.states]
            grid = self.states[0].velocity.grid if self.states else None
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("trajectory times must be strictly increasing")
        for name, ledger in {"energy": self.energy_ledger, **self.ledgers}.items():
            if len(ledger) != len(self.states):
                raise ConfigurationError(f"{name} ledger must have one entry per state")
        self._times = tuple(times)
        self._grid = grid

    @property
    def times(self) -> list[float]:
        return list(self._times)

    @property
    def grid(self) -> PeriodicGrid:
        return self._grid

    def final(self) -> State:
        return self.states[-1]

    def energy_drift(self) -> float:
        """Largest deviation of the energy ledger from its initial entry."""
        e0 = self.energy_ledger[0]
        return max(abs(e - e0) for e in self.energy_ledger)


def cfl_dt_bound(grid: PeriodicGrid, speed: float, cfl: float) -> float:
    """Largest step the CFL number ``cfl`` admits at ``speed`` (inf at rest)."""
    return cfl * grid.spacing / speed if speed > 0.0 else math.inf


def _check_cfl(speed: float, grid: PeriodicGrid, dt: float, step: int, t: float) -> None:
    """Reject step ``step``, which starts at ``t`` with largest speed
    ``speed``, when ``dt`` exceeds the bound of :data:`CFL`."""
    limit = cfl_dt_bound(grid, speed, CFL)
    if dt > limit:
        raise StepSizeError(
            f"step {step} from t={t}: dt={dt} violates the CFL bound at speed "
            f"{speed}; admissible dt <= {limit} (margin {limit - dt:.3g})",
            limit, step=step, time=t,
        )


def steps_for_horizon(T: float, dt: float) -> int:
    """Number of ``dt`` steps spanning ``T``; 0 unless ``T`` is a positive
    integer multiple of ``dt`` and both are finite."""
    if not (dt > 0.0 and math.isfinite(T / dt)):
        return 0
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        return 0
    return n_steps


def _run_steps(T: float, dt: float, snapshot_stride: int) -> int:
    """The number of steps of a run, after rejecting a nonpositive or NaN
    ``dt``, a ``snapshot_stride`` below 1 or a horizon ``T`` that is not a
    positive integer multiple of ``dt``."""
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if snapshot_stride < 1:
        raise ConfigurationError("snapshot_stride must be >= 1")
    n_steps = steps_for_horizon(T, dt)
    if not n_steps:
        raise ConfigurationError(f"T={T} must be a positive integer multiple of dt={dt}")
    return n_steps


def _check_initial(u0: VelocityField, *scalars: ScalarField) -> PeriodicGrid:
    """The grid of a solver's initial data, after rejecting a grid that is
    not two-dimensional, ``scalars`` off the velocity ``u0``'s grid and a
    ``u0`` that is not divergence-free."""
    grid = u0.grid
    if grid.dims != 2:
        raise ConfigurationError(f"the solvers support dims=2 only, got dims={grid.dims}")
    if any(f.grid != grid for f in scalars):
        raise ConfigurationError("the initial fields must share a grid")
    if not u0.check_divergence_free(1e-8):
        raise ConfigurationError("initial velocity is not divergence-free")
    return grid


def integrate(
    grid: PeriodicGrid,
    hats: tuple,
    rhs: Callable[[tuple, bool], tuple],
    materialize: Callable[[float, tuple], State],
    T: float,
    dt: float,
    snapshot_stride: int,
    ledgers: Callable[[State], dict[str, float]],
    check: Optional[Callable[[float, tuple], None]] = None,
) -> Trajectory:
    """Advance the spectral state ``hats`` to ``T`` in RK4 steps of ``dt``
    and return the run's :class:`Trajectory`.

    ``rhs`` follows :func:`_rk4_stage`'s contract.  The spectral tuple is
    recorded, read-only and uncopied, at t = 0, every ``snapshot_stride``
    steps and at ``T``, and ``materialize(t, hats)`` rebuilds a recorded
    :class:`State` on access.  Every step is checked against the CFL bound at
    the speed its first stage measures; a breach raises
    :class:`StepSizeError` naming the step, and a non-finite state aborts the
    run.  ``check(t, hats)``, when given, vets each recorded tuple as it is
    recorded.  ``ledgers(state)`` gives one entry per ledger name, the
    kinetic energy under ``"energy"``; each recorded state is rebuilt once
    for all of them.  The trajectory's config holds the run's parameters.
    """
    n_steps = _run_steps(T, dt, snapshot_stride)
    times, records = [], []

    def record(t: float, hats: tuple) -> None:
        # the step never writes into its input, so the tuple is kept as is
        for h in hats:
            h.setflags(write=False)
        if check is not None:
            check(t, hats)
        times.append(t)
        records.append(hats)

    record(0.0, hats)
    for k in range(1, n_steps + 1):
        hats, speed = _rk4_stage(hats, dt, rhs)
        _check_cfl(speed, grid, dt, k, (k - 1) * dt)
        t = k * dt
        if not all(np.all(np.isfinite(h)) for h in hats):
            raise SolverAbort(f"non-finite state at t={t}", t)
        if k % snapshot_stride == 0 or k == n_steps:
            record(t, hats)
    states = RecordedStates(grid, times, records, materialize)
    rows = [ledgers(s) for s in states]  # one rebuild per state for every ledger
    series = {name: [row[name] for row in rows] for name in rows[0]}
    config = {"T": T, "dt": dt, "snapshot_stride": snapshot_stride, "cfl": CFL,
              "grid_n": grid.n_per_axis}
    return Trajectory(states, dt, config, series.pop("energy"), series)


def solve(
    u0: VelocityField,
    T: float,
    dt: float,
    snapshot_stride: int = 1,
) -> Trajectory:
    """Integrate from divergence-free initial data, recording snapshots every
    ``snapshot_stride`` steps (the final state is always recorded)."""
    grid = _check_initial(u0)
    vort = _Vorticity(u0)

    def rhs(hats: tuple, with_speed: bool) -> tuple:
        dw, u = vort.advect(hats[0])
        return (dw,), _max_speed(u) if with_speed else None

    biot_savart = vort.biot_savart

    def materialize(t: float, hats: tuple) -> State:
        return State(t, _biot_savart_velocity(grid, biot_savart, hats[0]),
                     {"vorticity": ScalarField.from_hat(grid, grid.from_band(hats[0]))})

    w_hat = grid.to_band(curl_2d(u0).hat)
    return integrate(grid, (w_hat,), rhs, materialize, T, dt, snapshot_stride,
                     lambda s: {"energy": kinetic_energy(s.velocity)})


def recover_pressure(u: VelocityField) -> ScalarField:
    """Zero-mean solution of ``-lap p = div div (u (x) u)`` (spectral)."""
    grid = u.grid
    prods = _dealiased_product_tensor(grid, [c.values for c in u.components])
    acc = np.zeros(grid.rshape, dtype=complex)
    for i in range(grid.dims):
        ki = grid.deriv_wavenumber(i)
        for j in range(grid.dims):
            kj = grid.deriv_wavenumber(j)
            acc = acc + ki * kj * prods[i][j]
    return ScalarField.from_hat(grid, -acc * grid.inv_k_squared)


def ordered_pair_audit(
    times: Sequence[float], values: Sequence[float], budget: float
) -> tuple[float, Optional[tuple[float, float]]]:
    """Largest ``(values[j] - values[i]) - budget`` over ordered pairs i < j,
    clamped at 0, and the time pair attaining it (None when nothing gains).

    One pass with a running minimum: on ties the earliest minimum and the
    earliest maximizing j win.
    """
    worst = 0.0
    worst_pair = None
    run_min = values[0]
    run_min_t = times[0]
    for t, v in zip(times[1:], values[1:]):
        gain = (v - run_min) - budget
        if gain > worst:
            worst = gain
            worst_pair = (run_min_t, t)
        if v < run_min:
            run_min = v
            run_min_t = t
    return worst, worst_pair


@dataclass
class PairAudit:
    """The :func:`ordered_pair_audit` of a recorded series against a budget and
    a tolerance, as the admissibility and scalar-contraction audits report it."""

    passed: bool
    max_violation: float
    worst_pair: Optional[tuple[float, float]]
    budget: float
    tolerance: float
    times: list[float]
    values: list[float]

    @classmethod
    def of(cls, times: Sequence[float], values: Sequence[float], budget: float,
           tolerance: float) -> "PairAudit":
        worst, worst_pair = ordered_pair_audit(times, values, budget)
        return cls(worst <= tolerance, worst, worst_pair, budget, tolerance,
                   list(times), list(values))

    def to_json_dict(self) -> dict:
        out = _as_json(self)
        out["series"] = {"t": out.pop("times"), "D": out.pop("values")}
        return out


def admissibility_check(traj: Trajectory, tolerance: float) -> PairAudit:
    """Verify the ledger never rises by more than ``tolerance`` between any
    ordered pair of recorded times."""
    return PairAudit.of(traj.times, traj.energy_ledger, 0.0, tolerance)


@dataclass(frozen=True)
class TimeProfile:
    """C^1 temporal weight on [0, T) with analytic integrals.

    ``antiderivative`` integrates ``value`` and ``antiderivative2`` integrates
    ``antiderivative`` (constants are irrelevant; only differences are used).
    They let the residual quadrature integrate the known profile exactly, so
    the only quadrature error left is the piecewise-linear reconstruction of
    the measured pairings.
    """

    value: Callable[[float], float]
    antiderivative: Callable[[float], float]
    antiderivative2: Callable[[float], float]
    horizon: float


def cosine_window(T: float) -> TimeProfile:
    """``(1 + cos(pi t / T)) / 2``: unit mass at t=0, vanishing with zero
    slope at t=T."""
    w = math.pi / T
    return TimeProfile(
        value=lambda t: 0.5 * (1.0 + math.cos(w * t)),
        antiderivative=lambda t: 0.5 * t + 0.5 / w * math.sin(w * t),
        antiderivative2=lambda t: 0.25 * t * t - 0.5 / (w * w) * math.cos(w * t),
        horizon=T,
    )


@dataclass
class WeakTestFunction:
    """Separable test function ``profile(t) * spatial(x)``.

    Vector-valued spatial parts must be discretely divergence-free and
    band-limited below the dealias cutoff; the temporal profile must vanish
    at the horizon.
    """

    spatial: Union[VelocityField, ScalarField]
    temporal: TimeProfile

    def __post_init__(self):
        grid = self.spatial.grid
        if (isinstance(self.spatial, VelocityField)
                and not self.spatial.check_divergence_free(1e-12)):
            raise ConfigurationError("vector test function must be divergence-free")
        for h in (c.hat for c in self.spatial.components):
            tail = np.abs(h[~grid.dealias_mask])
            if tail.size and tail.max() > 1e-12 * max(1.0, np.abs(h).max()):
                raise ConfigurationError(
                    "test function must be band-limited below the dealias cutoff"
                )
        if abs(self.temporal.value(self.temporal.horizon)) > 1e-12:
            raise ConfigurationError("temporal profile must vanish at the horizon")


def _integrate_against(values: Sequence[float], times: Sequence[float],
                       g: TimeProfile, weight: str) -> float:
    """Integrate the piecewise-linear interpolant of sampled ``values``
    against the analytic profile (weight ``"value"``) or its derivative
    (weight ``"derivative"``); the profile part is integrated exactly."""
    acc = 0.0
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        dt = t1 - t0
        a0 = values[i]
        slope = (values[i + 1] - a0) / dt
        if weight == "derivative":
            # int (a0 + s(t-t0)) g' = a0 dg + s (dt g1 - dG)
            dg = g.value(t1) - g.value(t0)
            dG = g.antiderivative(t1) - g.antiderivative(t0)
            acc += a0 * dg + slope * (dt * g.value(t1) - dG)
        else:
            # int (a0 + s(t-t0)) g = a0 dG + s (dt G1 - dG2)
            dG = g.antiderivative(t1) - g.antiderivative(t0)
            dG2 = g.antiderivative2(t1) - g.antiderivative2(t0)
            acc += a0 * dG + slope * (dt * g.antiderivative(t1) - dG2)
    return acc


def _band_spectra(u: VelocityField) -> tuple:
    """What a weak-form test pairs with at a state of velocity ``u``, as
    spectra on the dealiased band: ``u`` and ``-div(u (x) u)``, components
    end to end, and ``-div u``.  The velocity spectra are the components'
    cached ones; the products cost one transform per pair of components."""
    grid = u.grid
    mask = grid.dealias_mask
    hats = [c.hat for c in u.components]
    flux = _div_product_hats(grid, [c.values for c in u.components])
    return (np.concatenate([h[mask] for h in hats]),
            np.concatenate([-h[mask] for h in flux]),
            -_div_hat(grid, hats)[mask])


def weak_residuals(traj: Trajectory, tests: Iterable[WeakTestFunction]) -> list[float]:
    """Absolute defect of the weak formulation over the recorded span, one
    per test function.

    Vector tests check the momentum identity (time integral of
    ``u . dpsi/dt + u(x)u : grad psi`` against the boundary pairing); scalar
    tests check the divergence identity ``int u . grad phi = 0``.  The spatial
    pairings are sampled at snapshots and reconstructed piecewise-linearly in
    time; the temporal profile is integrated exactly, so the residual floor
    is set by the solution's own variation, not by the window's derivatives.

    Every pairing is a Parseval sum over the dealiased band, times the cell
    volume: ``WeakTestFunction`` admits only tests band-limited below the
    dealias cutoff, so the grid sum of a test against any field equals, to
    round-off, the sum over the band of their spectra (the derivative
    moved onto the state: ``u (x) u : grad psi`` pairs ``-div(u (x) u)``
    with ``psi``, and ``u . grad phi`` pairs ``-div u`` with ``phi``).
    ``tests`` is consumed first, one at a time, keeping only each test's
    band spectra (a generator keeps one test's fields alive); then every
    state is read once, whatever the number of tests, and its samples are
    dropped before the next is read.
    """
    grid = traj.grid
    mask = grid.dealias_mask
    band = []
    for test in tests:
        _require_same_grid(traj, test.spatial)
        band.append((test.temporal, isinstance(test.spatial, VelocityField),
                     np.concatenate([c.hat[mask] for c in test.spatial.components])))
    # the band's share of the interleaved weights, then one copy per component
    weights = np.repeat(np.broadcast_to(grid.parseval_weights[::2], grid.rshape)[mask], 2)
    vector_weights = np.tile(weights, grid.dims)
    volume = grid.cell_volume
    series = [[] for _ in band]
    for k in range(len(traj.states)):
        u, flux, div = _band_spectra(traj.states[k].velocity)
        for (_, vector, spec), out in zip(band, series):
            if vector:
                out.append((_parseval_dot(u, spec, vector_weights) * volume,
                            _parseval_dot(flux, spec, vector_weights) * volume))
            else:
                out.append(_parseval_dot(div, spec, weights) * volume)
    times = traj.times
    out = []
    for (g, vector, _), vals in zip(band, series):
        if vector:
            momentum, transport = zip(*vals)
            integral = _integrate_against(momentum, times, g, "derivative")
            integral += _integrate_against(transport, times, g, "value")
            boundary = momentum[-1] * g.value(times[-1]) - momentum[0] * g.value(times[0])
            out.append(abs(integral - boundary))
        else:
            out.append(abs(_integrate_against(vals, times, g, "value")))
    return out


def weak_residual(traj: Trajectory, test: WeakTestFunction) -> float:
    """:func:`weak_residuals` of the one test function ``test``."""
    return weak_residuals(traj, [test])[0]
