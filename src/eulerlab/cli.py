"""Experiment runner: parse an INI config, execute a named experiment, and
persist deterministic artifacts.

Config grammar (INI as understood by :mod:`configparser`; ``#``/``;``
comments, ``key = value`` pairs under ``[section]`` headers; list values are
whitespace-separated).  ``_KEYS`` lists every key each kind reads; parsing
converts and checks every key once and rejects unknown names, keys only other
kinds read, missing keys and bad values.  See the README for the key reference.

Exit status: 0 on pass/complete, 2 on certificate failure, 3 when a Besov
hypothesis is not met, 1 on configuration or runtime errors.

Determinism: ``report.json``, CSV series, snapshots, and ``manifest.json``
depend only on the config (plus the seed override); wall-clock metadata is
segregated into ``metadata.json``.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .besov import besov_seminorm
from .commutator import ROUTES, Route, _sweep_problems, scaling_experiment
from .errors import EulerLabError, ConfigurationError
from .extensions import (
    boussinesq_uniqueness_experiment,
    inhom_uniqueness_experiment,
)
from .grid_fields import PeriodicGrid, make_grid, resample
from .mollify import MAX_EPSILON, min_epsilon, resolved_epsilon
from .reporting import config_hash, dump_csv, dump_json
from .snapshots import save_trajectory
from .solver import (
    CFL,
    WeakTestFunction,
    admissibility_check,
    cfl_dt_bound,
    cosine_window,
    enstrophy,
    solve,
    steps_for_horizon,
    weak_residuals,
)
from .synth import KINDS as SYNTH_KINDS
from .synth import SynthSpec, _kmax_problem, field_from_spec, low_mode_divfree, low_mode_scalar
from .uniqueness import RunConfig, _check_cadences, uniqueness_experiment

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAIL = 2
EXIT_HYPOTHESIS = 3

_VERDICT_CODES = {
    "pass": EXIT_OK,
    "certificate-failed": EXIT_CERT_FAIL,
    "hypothesis-not-met": EXIT_HYPOTHESIS,
}

OUTPUT_ROOT_ENV = "EULERLAB_OUT"

# ---------------------------------------------------------------------------
# the key table

_REQUIRED = object()


class _Key(NamedTuple):
    """How one ``[section] key`` is read: ``convert`` raises ``ValueError``
    or ``KeyError`` on bad text, every number read must be finite (an infinite
    tolerance gates nothing) and ``ok`` rejects values outside ``allowed``;
    ``default`` stands in when the key is absent (``None``: absent, or filled
    by ``_fill_derived``)."""

    convert: Callable[[str], object]
    allowed: str
    default: object = _REQUIRED
    ok: Callable[[object], bool] = lambda value: True

    def read(self, raw: str):
        value = self.convert(raw)
        finite = not isinstance(value, (float, list)) or np.isfinite(value).all()
        if not (finite and self.ok(value)):
            raise ValueError(raw)
        return value


def _one_of(options: dict, default: str) -> _Key:
    """A name from ``options``, read as the value it maps to."""
    return _Key(options.__getitem__, ", ".join(options), options[default])


def _section(name: str, **keys: _Key) -> dict:
    return {(name, key): spec for key, spec in keys.items()}


_INT = partial(_Key, lambda raw: int(raw, 0), "an integer")
_COUNT = partial(_Key, lambda raw: int(raw, 0), "a positive integer", ok=lambda v: v >= 1)
_SEED = _Key(lambda raw: int(raw, 0), "a nonnegative integer", 0, lambda v: v >= 0)
_FLOAT = partial(_Key, float, "a number")
_POSITIVE = partial(_Key, float, "a positive number", ok=lambda v: v > 0.0)
_NONNEGATIVE = partial(_Key, float, "a nonnegative number", ok=lambda v: v >= 0.0)
_EXPONENT = partial(_Key, float, "a number in (0, 1)", ok=lambda v: 0.0 < v < 1.0)
_INTEGRABILITY = partial(_Key, float, "a number >= 1", ok=lambda v: v >= 1.0)
_FLOATS = partial(_Key, lambda raw: [float(tok) for tok in raw.split()])

_COMMON = {
    # the kind picks the table, so it is checked before the table is read
    **_section("experiment", kind=_Key(str, "an experiment kind"), seed=_SEED),
    **_section("grid", n=_INT()),
    **_section(
        "synth", kind=_one_of({k: k for k in SYNTH_KINDS}, "taylor_green"),
        alpha=_EXPONENT(None), j_max=_INT(None), slope=_FLOAT(None), amplitude=_FLOAT(1.0),
    ),
    **_section("output", dir=_Key(str, "a path", None)),
}
# the field audits (2D or 3D); the solvers are two-dimensional and read no dims
_AUDIT = {**_section("grid", dims=_one_of({"2": 2, "3": 3}, "2")),
          **_section("sweep", p=_INTEGRABILITY(3.0))}
# the scaling kinds fit [sweep] alpha from the fields when it is absent
_SWEEP = {**_AUDIT, **_section("sweep", alpha=_EXPONENT(None), epsilons=_FLOATS("numbers"))}
_SOLVE = _section("solver", dt=_POSITIVE(), T=_POSITIVE(), snapshot_stride=_COUNT(1))
# the A/B certifications: the B leg's keys default to the A leg's
_PAIR = {**_SOLVE, **_section(
    "solver_b", n=_INT(None), dt=_POSITIVE(None), snapshot_stride=_COUNT(None),
), **_section(
    "sweep", alpha=_EXPONENT(0.6), p=_INTEGRABILITY(3.0), epsilons=_FLOATS("numbers"),
)}
_EXTENDED = {**_PAIR, **_section("sweep", contraction_tolerance=_NONNEGATIVE(1e-5))}

_KEYS = {
    # [sweep] alpha defaults to [synth] alpha, else 0.5
    "besov_fit": {**_COMMON, **_AUDIT, **_section("sweep", alpha=_EXPONENT(None))},
    "commutator_scaling": {**_COMMON, **_SWEEP},
    "cet_scaling": {**_COMMON, **_SWEEP},
    "energy_conservation": {**_COMMON, **_SOLVE, **_section(
        "solver", drift_tolerance=_NONNEGATIVE(1e-6), admissibility_tolerance=_NONNEGATIVE(1e-7),
    ), **_section("output", save_snapshots=_INT(1))},
    "uniqueness": {**_COMMON, **_PAIR, **_section(
        "sweep", budget_route=_one_of({r: r for r in ROUTES}, "convective"))},
    "inhom_uniqueness": {**_COMMON, **_EXTENDED, **_section("density", amplitude=_FLOAT(0.2))},
    "boussinesq_uniqueness": {**_COMMON, **_EXTENDED, **_section(
        "buoyancy", g=_FLOATS("two numbers", (0.0, -1.0), lambda g: len(g) == 2),
        theta_amplitude=_FLOAT(0.2), theta_axis=_one_of({"0": 0, "1": 1}, "0"),
    )},
    "weak_residual": {**_COMMON, **_SOLVE, **_section(
        "weak", count=_COUNT(10), kmax=_INT(3), w1_tolerance=_NONNEGATIVE(1e-6),
        w2_tolerance=_NONNEGATIVE(1e-10))},
}

EXPERIMENTS = tuple(_KEYS)
_ANY_KIND = {sk for table in _KEYS.values() for sk in table}
_SECTIONS = {section for section, _ in _ANY_KIND}


def _fill_derived(kind: str, v: dict) -> None:
    """Fill the defaults that other values decide."""
    if kind == "besov_fit" and v["sweep", "alpha"] is None:
        v["sweep", "alpha"] = 0.5 if v["synth", "alpha"] is None else v["synth", "alpha"]
    if ("solver_b", "n") not in v:
        return
    if v["solver_b", "dt"] is not None and v["solver_b", "snapshot_stride"] is None:
        # keep the physical cadence aligned when only dt changes
        ratio = v["solver", "dt"] * v["solver", "snapshot_stride"] / v["solver_b", "dt"]
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError("solver_b.dt incompatible with the snapshot cadence; "
                                     "set solver_b.snapshot_stride explicitly")
        v["solver_b", "snapshot_stride"] = round(ratio)
    for key, source in (("n", "grid"), ("dt", "solver"), ("snapshot_stride", "solver")):
        if v["solver_b", key] is None:
            v["solver_b", key] = v[source, key]
    _check_cadences(v["solver", "dt"] * v["solver", "snapshot_stride"],
                    v["solver_b", "dt"] * v["solver_b", "snapshot_stride"])


class ExperimentConfig:
    """One config file, converted and checked against its kind's key table;
    index it by ``(section, key)``."""

    def __init__(self, parser: configparser.ConfigParser, text: str,
                 seed_override: Optional[int] = None):
        self.hash = config_hash(text)
        self.kind = parser.get("experiment", "kind", fallback=None)
        if self.kind not in _KEYS:
            raise ConfigurationError(
                "missing key 'kind' in [experiment]" if self.kind is None
                else f"unknown experiment kind '{self.kind}'; choose from {EXPERIMENTS}"
            )
        table = _KEYS[self.kind]
        errors = []
        for section in parser.sections():
            if section not in _SECTIONS:
                errors.append(f"unknown section [{section}]")
                continue
            for key in parser[section]:
                if (section, key) not in table:
                    errors.append(f"[{section}] {key} does not apply to kind '{self.kind}'"
                                  if (section, key) in _ANY_KIND
                                  else f"unknown key '{key}' in [{section}]")
        self.values = {}
        for (section, key), spec in table.items():
            raw = parser.get(section, key, fallback=None)
            if raw is None:
                if spec.default is _REQUIRED:
                    errors.append(f"missing key '{key}' in [{section}]")
                self.values[section, key] = spec.default
                continue
            try:
                self.values[section, key] = spec.read(raw)
            except (ValueError, KeyError):
                errors.append(
                    f"bad value for '{key}' in [{section}]: {raw!r} (allowed: {spec.allowed})"
                )
        if seed_override is not None:
            if not _SEED.ok(seed_override):
                errors.append(f"bad value for --seed-override: {seed_override} "
                              f"(allowed: {_SEED.allowed})")
            self.values["experiment", "seed"] = seed_override
        if errors:
            raise ConfigurationError("; ".join(errors))
        self.seed = self.values["experiment", "seed"]
        _fill_derived(self.kind, self.values)

    def __getitem__(self, section_key: tuple[str, str]):
        return self.values[section_key]


def parse_config(path, seed_override: Optional[int] = None) -> ExperimentConfig:
    text = Path(path).read_text()
    # values are read literally: a '%' is a character, not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.optionxform = str  # keep key case ('T' is not 't')
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    return ExperimentConfig(parser, text, seed_override)


def _build_grid(cfg: ExperimentConfig):
    # only the field audits read [grid] dims; the solvers are two-dimensional
    return make_grid(cfg.values.get(("grid", "dims"), 2), cfg["grid", "n"])


def _fine_grid(cfg: ExperimentConfig) -> PeriodicGrid:
    """The grid the initial data are synthesized on and the budget sweeps
    run on: the finer leg of an A/B pair, else the configured grid."""
    grids = [_build_grid(cfg)]
    if ("solver_b", "n") in cfg.values:  # the A/B certifications' B leg
        grids.append(make_grid(2, cfg["solver_b", "n"]))
    return max(grids, key=lambda g: g.n_per_axis)


def _build_synth_spec(cfg: ExperimentConfig) -> SynthSpec:
    return SynthSpec(seed=cfg.seed, **{
        key: cfg["synth", key] for key in ("kind", "alpha", "j_max", "amplitude", "slope")
    })


def _derived_quantities(cfg: ExperimentConfig, u0) -> dict:
    """The quantities ``validate`` prints; ``u0`` is the initial field on
    :func:`_fine_grid`."""
    out = {}
    grid = _build_grid(cfg)
    out["spacing"] = grid.spacing
    out["dealias_kmax"] = grid.dealias_kmax
    out["epsilon_min"] = min_epsilon(grid)
    out["epsilon_resolved"] = resolved_epsilon(grid)
    out["epsilon_max"] = MAX_EPSILON
    out["initial_max_speed"], out["cfl_dt_bound"] = _initial_cfl(u0, grid)
    return out


def _initial_cfl(u0, grid: PeriodicGrid) -> tuple[float, float]:
    """The largest speed of ``u0`` restricted to ``grid``, the field a leg
    on ``grid`` starts from, and the CFL bound on ``dt`` there: lacunary
    data peak well above their amplitude."""
    speed = resample(u0, grid).max_speed()
    return speed, cfl_dt_bound(grid, speed, CFL)


def _cfl_problems(cfg: ExperimentConfig, u0) -> list:
    """One diagnostic per solver leg whose ``dt`` exceeds the CFL bound at
    the speed of the initial field on the leg's grid, the check a run makes
    before its first step.  ``u0`` is the initial field on :func:`_fine_grid`."""
    diags = []
    for section, n_key in (("solver", ("grid", "n")), ("solver_b", ("solver_b", "n"))):
        if (section, "dt") not in cfg.values:
            continue
        grid = make_grid(2, cfg[n_key])
        speed, bound = _initial_cfl(u0, grid)
        dt = cfg[section, "dt"]
        if dt > bound:
            diags.append(f"[{section}] dt={dt} exceeds the CFL bound {bound} at the initial "
                         f"speed {speed} on n={grid.n_per_axis}")
    return diags


# the scaling kinds' budget routes
_SCALED = {"commutator_scaling": ROUTES["convective"], "cet_scaling": ROUTES["trilinear"]}


def _swept_route(cfg: ExperimentConfig) -> Optional[Route]:
    """The budget route the kind sweeps, or None; the extended
    certifications budget the convective route."""
    if ("solver_b", "n") in cfg.values:  # the A/B certifications
        return ROUTES[cfg.values.get(("sweep", "budget_route"), "convective")]
    return _SCALED.get(cfg.kind)


def _range_checks(cfg: ExperimentConfig) -> list:
    """The checks that join several keys."""
    diags = []
    grid = _fine_grid(cfg)
    route = _swept_route(cfg)
    if route:
        diags += [f"[sweep] {problem}" for problem in _sweep_problems(
            route, cfg["sweep", "epsilons"], grid, cfg["sweep", "p"])]
    _build_synth_spec(cfg)
    kmax = cfg.values.get(("weak", "kmax"))  # read by a single-grid kind
    problem = kmax is not None and _kmax_problem(grid, kmax)
    if problem:
        diags.append(f"[weak] {problem}")
    T = cfg.values.get(("solver", "T"))
    dts = [cfg.values[leg, "dt"] for leg in ("solver", "solver_b") if (leg, "dt") in cfg.values]
    diags += [f"T={T} is not an integer multiple of dt={dt}"
              for dt in dict.fromkeys(dts) if not steps_for_horizon(T, dt)]
    return diags


# ---------------------------------------------------------------------------
# experiment bodies: each returns (exit_code, verdict_line, report_dict, tables),
# where tables maps an artifact name to the (header, rows) of its CSV; `run`
# writes each table as <name>.csv and adds the experiment, config hash and
# seed to the report


def _exp_besov_fit(cfg: ExperimentConfig, outdir: Path):
    grid = _build_grid(cfg)
    spec = _build_synth_spec(cfg)
    field = field_from_spec(spec, grid)
    alpha = cfg["sweep", "alpha"]
    p = cfg["sweep", "p"]
    est = besov_seminorm(field, alpha, p)
    report = {
        "alpha": alpha,
        "p": p,
        "seminorm": est.seminorm,
        "fitted_alpha": est.fitted_alpha,
        "synth": spec.kind,
    }
    line = f"besov_fit: fitted_alpha={est.fitted_alpha:.4f} seminorm={est.seminorm:.4f}"
    return EXIT_OK, line, report, {
        "shift_table": (["xi_magnitude", "lp_diff_norm", "ratio"], est.shift_table)
    }


def _exp_scaling(cfg: ExperimentConfig, outdir: Path):
    route = _SCALED[cfg.kind]
    grid = _build_grid(cfg)
    spec = _build_synth_spec(cfg)
    v = field_from_spec(spec, grid)
    fields = (field_from_spec(replace(spec, seed=spec.seed + 1), grid), v) if route.pair else v
    report_obj = scaling_experiment(
        fields, route.quantity, cfg["sweep", "epsilons"], cfg["sweep", "p"],
        alpha=cfg["sweep", "alpha"],
    )
    report = report_obj.to_json_dict()
    code = EXIT_OK if report_obj.passed else EXIT_CERT_FAIL
    flag = " (vacuous)" if report_obj.vacuous else ""
    line = (
        f"{cfg.kind}: fitted_slope={report_obj.fitted_slope:.4f} "
        f"theory={report_obj.theory_slope:.4f} pass={report_obj.passed}{flag}"
    )
    return code, line, report, {"scaling": (
        ["epsilon", "magnitude", "intercept"],
        zip(report_obj.epsilons, report_obj.magnitudes, report_obj.intercepts),
    )}


def _single_run(cfg: ExperimentConfig):
    """Solve from the configured initial data on the configured grid."""
    grid = _build_grid(cfg)
    u0 = field_from_spec(_build_synth_spec(cfg), grid)
    return solve(u0, cfg["solver", "T"], cfg["solver", "dt"],
                 snapshot_stride=cfg["solver", "snapshot_stride"])


def _exp_energy_conservation(cfg: ExperimentConfig, outdir: Path):
    traj = _single_run(cfg)
    drift_tol = cfg["solver", "drift_tolerance"]
    drift = traj.energy_drift() / max(traj.energy_ledger[0], 1e-300)
    adm = admissibility_check(traj, cfg["solver", "admissibility_tolerance"])
    energy = [(t, e, enstrophy(s.scalars["vorticity"]))
              for t, e, s in zip(traj.times, traj.energy_ledger, traj.states)]
    if cfg["output", "save_snapshots"]:
        save_trajectory(traj, outdir / "snapshots")
    passed = drift <= drift_tol and adm.passed
    report = {
        "relative_drift": drift,
        "drift_tolerance": drift_tol,
        "admissibility": {
            "pass": adm.passed,
            "max_violation": adm.max_violation,
            "tolerance": adm.tolerance,
        },
        "pass": passed,
    }
    line = f"energy_conservation: drift={drift:.3e} admissible={adm.passed} pass={passed}"
    return (EXIT_OK if passed else EXIT_CERT_FAIL), line, report, {
        "energy": (["t", "kinetic_energy", "enstrophy"], energy)
    }


def _exp_certify(cfg: ExperimentConfig, outdir: Path):
    """The three A/B certifications: one report, per-kind series columns."""
    T = cfg["solver", "T"]
    cfg_a = RunConfig(cfg["grid", "n"], cfg["solver", "dt"], T, cfg["solver", "snapshot_stride"])
    cfg_b = RunConfig(cfg["solver_b", "n"], cfg["solver_b", "dt"], T,
                      cfg["solver_b", "snapshot_stride"])
    fine = _fine_grid(cfg)
    u0 = field_from_spec(_build_synth_spec(cfg), fine)
    args = (cfg_a, cfg_b, cfg["sweep", "alpha"], cfg["sweep", "p"], cfg["sweep", "epsilons"])
    if cfg.kind == "uniqueness":
        rep = uniqueness_experiment(u0, *args, budget_route=cfg["sweep", "budget_route"])
        columns = {"seminorm": rep.seminorm_series, "fitted_alpha": rep.fitted_alpha_series}
        tables = {"budgets": (["epsilon", "budget"],
                              zip(rep.budgets_epsilons, rep.budgets_values))}
        tail = f"slack={rep.certificate.slack:.3e}"
    else:
        kw = dict(contraction_tolerance=cfg["sweep", "contraction_tolerance"])
        if cfg.kind == "inhom_uniqueness":
            amp = cfg["density", "amplitude"]
            rho0 = fine.sample_scalar(
                lambda x, y: 1.0 + amp * np.sin(np.pi * x) * np.cos(np.pi * y)
            )
            rep = inhom_uniqueness_experiment(rho0, u0, *args, **kw)
        else:
            amp = cfg["buoyancy", "theta_amplitude"]
            axis = cfg["buoyancy", "theta_axis"]
            theta0 = fine.sample_scalar(lambda *xs: amp * np.sin(np.pi * xs[axis]))
            rep = boussinesq_uniqueness_experiment(
                theta0, u0, cfg["buoyancy", "g"], *args, **kw
            )
        columns = {"D_scalar": rep.contraction.values}
        tables = {}
        tail = f"contraction_pass={rep.contraction.passed}"
    tables["series"] = (
        ["t", "E", "C", *columns],
        zip(rep.times, rep.energy, rep.lipschitz.c_values, *columns.values()),
    )
    report = rep.to_json_dict()
    line = f"{cfg.kind}: verdict={rep.verdict} maxE={max(rep.energy):.3e} {tail}"
    return _VERDICT_CODES[rep.verdict], line, report, tables


def _exp_weak_residual(cfg: ExperimentConfig, outdir: Path):
    traj = _single_run(cfg)
    grid = traj.grid
    T = cfg["solver", "T"]
    count, kmax, window = cfg["weak", "count"], cfg["weak", "kmax"], cosine_window(T)
    w1_tol, w2_tol = cfg["weak", "w1_tolerance"], cfg["weak", "w2_tolerance"]

    def tests():  # built one at a time, as weak_residuals consumes them
        for i in range(count):
            yield WeakTestFunction(low_mode_divfree(grid, kmax, seed=cfg.seed + 1000 + i),
                                   window)
            yield WeakTestFunction(low_mode_scalar(grid, kmax, seed=cfg.seed + 2000 + i),
                                   window)

    residuals = weak_residuals(traj, tests())
    w1, w2 = residuals[::2], residuals[1::2]
    worst_w1 = max([0.0, *w1])
    worst_w2 = max([0.0, *w2])
    passed = worst_w1 <= w1_tol and worst_w2 <= w2_tol
    report = {
        "count": count,
        "max_w1_residual": worst_w1,
        "max_w2_residual": worst_w2,
        "w1_tolerance": w1_tol,
        "w2_tolerance": w2_tol,
        "pass": passed,
    }
    line = (
        f"weak_residual: max_w1={worst_w1:.3e} max_w2={worst_w2:.3e} pass={passed}"
    )
    return (EXIT_OK if passed else EXIT_CERT_FAIL), line, report, {
        "residuals": (["test_index", "w1_residual", "w2_residual"], zip(range(count), w1, w2))
    }


_BODIES = {
    "besov_fit": _exp_besov_fit,
    "commutator_scaling": _exp_scaling,
    "cet_scaling": _exp_scaling,
    "energy_conservation": _exp_energy_conservation,
    "uniqueness": _exp_certify,
    "inhom_uniqueness": _exp_certify,
    "boussinesq_uniqueness": _exp_certify,
    "weak_residual": _exp_weak_residual,
}


def _resolve_outdir(cfg: ExperimentConfig, config_path, flag_value) -> Path:
    if flag_value:
        return Path(flag_value)
    if cfg["output", "dir"] is not None:
        return Path(cfg["output", "dir"])
    root = os.environ.get(OUTPUT_ROOT_ENV, "eulerlab_out")
    return Path(root) / Path(config_path).stem


def run(config_path, output_dir=None, jobs: int = 1, seed_override=None) -> int:
    """Execute the configured experiment; returns the process exit status.

    ``jobs`` is accepted for older callers and ignored: every run is serial.
    """
    try:
        cfg = parse_config(config_path, seed_override)
        diags = _range_checks(cfg)
        if diags:
            for d in diags:
                print(f"error: {d}", file=sys.stderr)
            return EXIT_ERROR
        outdir = _resolve_outdir(cfg, config_path, output_dir)
        created = not outdir.exists()
        outdir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        try:
            code, line, report, tables = _BODIES[cfg.kind](cfg, outdir)
        except BaseException:
            # a failed run leaves no empty directory of its own behind
            if created and not any(outdir.iterdir()):
                outdir.rmdir()
            raise
        for name, (header, rows) in tables.items():
            dump_csv(outdir / f"{name}.csv", header, rows)
        report["experiment"] = cfg.kind
        report["config_hash"] = cfg.hash
        report["seed"] = cfg.seed
        dump_json(report, outdir / "report.json")
        manifest = {
            "config_hash": cfg.hash,
            "experiment": cfg.kind,
            "artifacts": {**{name: f"{name}.csv" for name in tables}, "report": "report.json"},
        }
        dump_json(manifest, outdir / "manifest.json")
        dump_json(
            {"wall_seconds": time.time() - started, "finished_unix": time.time()},
            outdir / "metadata.json",
        )
        print(line)
        return code
    except EulerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def validate(config_path) -> int:
    """Parse and range-check without executing; print derived quantities."""
    try:
        cfg = parse_config(config_path)
        diags = _range_checks(cfg)
        u0 = field_from_spec(_build_synth_spec(cfg), _fine_grid(cfg))
        derived = _derived_quantities(cfg, u0)
        diags += _cfl_problems(cfg, u0)
    except EulerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for d in diags:
        print(f"diagnostic: {d}")
    print(f"experiment: {cfg.kind}")
    for key, value in sorted(derived.items()):
        print(f"  {key} = {value}")
    return EXIT_OK if not diags else EXIT_ERROR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Run or validate a numerical uniqueness-laboratory experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed-override", type=int, default=None)
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.output_dir, seed_override=args.seed_override)
    return validate(args.config)


if __name__ == "__main__":
    sys.exit(main())
