"""Experiment runner: parse an INI config, execute a named experiment, and
persist deterministic artifacts.

Config grammar (INI as understood by :mod:`configparser`; ``#``/``;``
comments, ``key = value`` pairs under ``[section]`` headers; list values are
whitespace-separated).  Sections and keys are validated strictly: unknown
names are rejected.  See the README for the full key reference.

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
from pathlib import Path
from typing import Optional

import numpy as np

from .besov import besov_seminorm
from .commutator import scaling_experiment
from .errors import EulerLabError, ConfigurationError
from .extensions import (
    boussinesq_uniqueness_experiment,
    inhom_uniqueness_experiment,
)
from .grid_fields import make_grid
from .mollify import min_epsilon, resolved_epsilon
from .reporting import config_hash, dump_csv, dump_json
from .snapshots import save_trajectory
from .solver import (
    WeakTestFunction,
    admissibility_check,
    cfl_dt_bound,
    cosine_window,
    enstrophy,
    linear_window,
    solve,
    steps_for_horizon,
    weak_residual,
)
from .synth import SynthSpec, field_from_spec, low_mode_divfree, low_mode_scalar
from .uniqueness import ROUTE_THRESHOLDS, RunConfig, uniqueness_experiment

EXPERIMENTS = (
    "besov_fit",
    "commutator_scaling",
    "cet_scaling",
    "energy_conservation",
    "uniqueness",
    "inhom_uniqueness",
    "boussinesq_uniqueness",
    "weak_residual",
)

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

# section -> allowed keys
_SCHEMA = {
    "experiment": {"kind", "seed"},
    "grid": {"dims", "n"},
    "synth": {"kind", "alpha", "j_max", "amplitude", "slope", "seed"},
    "solver": {"dt", "T", "snapshot_stride", "cfl", "drift_tolerance",
               "admissibility_tolerance"},
    "solver_b": {"n", "dt", "snapshot_stride", "cfl"},
    "sweep": {"epsilons", "alpha", "p", "budget_route", "working_epsilon",
              "slope_tolerance", "certify_tolerance", "contraction_tolerance"},
    "density": {"amplitude"},
    "buoyancy": {"g", "theta_amplitude", "theta_axis"},
    "weak": {"count", "kmax", "w1_tolerance", "w2_tolerance", "window"},
    "output": {"dir", "save_snapshots"},
}

# [sweep] keys that only some kinds read; the other kinds reject them instead
# of ignoring them.  The extended kinds charge the convective budget at the
# smallest epsilon; which route suits the rho-weighted energy is open
# (ROADMAP item 4).
_SWEEP_KEY_KINDS = {
    "budget_route": {"uniqueness"},
    "working_epsilon": {"uniqueness"},
    "certify_tolerance": {"uniqueness", "inhom_uniqueness", "boussinesq_uniqueness"},
    "contraction_tolerance": {"inhom_uniqueness", "boussinesq_uniqueness"},
    "slope_tolerance": {"commutator_scaling", "cet_scaling"},
}


class ExperimentConfig:
    """Validated view of one parsed config file."""

    def __init__(self, parser: configparser.ConfigParser, text: str):
        self.text = text
        self.hash = config_hash(text)
        unknown = []
        for section in parser.sections():
            if section not in _SCHEMA:
                unknown.append(f"unknown section [{section}]")
                continue
            for key in parser[section]:
                if key not in _SCHEMA[section]:
                    unknown.append(f"unknown key '{key}' in [{section}]")
        if unknown:
            raise ConfigurationError("; ".join(unknown))
        if not parser.has_section("experiment"):
            raise ConfigurationError("missing [experiment] section")
        self._p = parser
        self.kind = self.get_str("experiment", "kind")
        if self.kind not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment kind '{self.kind}'; choose from {EXPERIMENTS}"
            )
        self.seed = self.get_int("experiment", "seed", 0)

    def has(self, section: str, key: str) -> bool:
        return self._p.has_option(section, key)

    def get_str(self, section: str, key: str, default: Optional[str] = None) -> str:
        if not self._p.has_option(section, key):
            if default is None:
                raise ConfigurationError(f"missing key '{key}' in [{section}]")
            return default
        return self._p.get(section, key).strip()

    def _convert(self, section, key, conv, default):
        if not self._p.has_option(section, key):
            if default is None:
                raise ConfigurationError(f"missing key '{key}' in [{section}]")
            return default
        raw = self._p.get(section, key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for '{key}' in [{section}]: {raw!r}") from exc

    def get_int(self, section, key, default=None) -> int:
        return self._convert(section, key, lambda r: int(r, 0), default)

    def get_float(self, section, key, default=None) -> float:
        return self._convert(section, key, float, default)

    def get_optional_float(self, section, key) -> Optional[float]:
        return self.get_float(section, key) if self.has(section, key) else None

    def get_floats(self, section, key, default=None) -> list:
        return self._convert(
            section, key, lambda r: [float(tok) for tok in r.split()], default
        )


def parse_config(path, seed_override: Optional[int] = None) -> ExperimentConfig:
    text = Path(path).read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep key case ('T' is not 't')
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    cfg = ExperimentConfig(parser, text)
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg


def _build_grid(cfg: ExperimentConfig):
    dims = cfg.get_int("grid", "dims", 2)
    n = cfg.get_int("grid", "n")
    return make_grid(dims, n)


def _build_synth_spec(cfg: ExperimentConfig) -> SynthSpec:
    kind = cfg.get_str("synth", "kind", "taylor_green")
    seed = cfg.get_int("synth", "seed", cfg.seed)
    kw = {}
    if cfg.has("synth", "alpha"):
        kw["alpha"] = cfg.get_float("synth", "alpha")
    if cfg.has("synth", "j_max"):
        kw["j_max"] = cfg.get_int("synth", "j_max")
    if cfg.has("synth", "slope"):
        kw["slope"] = cfg.get_float("synth", "slope")
    return SynthSpec(
        kind, seed=seed, amplitude=cfg.get_float("synth", "amplitude", 1.0), **kw
    )


def _run_configs(cfg: ExperimentConfig) -> tuple[RunConfig, RunConfig]:
    n_a = cfg.get_int("grid", "n")
    dt_a = cfg.get_float("solver", "dt")
    T = cfg.get_float("solver", "T")
    stride_a = cfg.get_int("solver", "snapshot_stride", 1)
    cfl = cfg.get_float("solver", "cfl", 0.5)
    a = RunConfig(n_a, dt_a, T, stride_a, cfl)
    n_b = cfg.get_int("solver_b", "n", n_a)
    dt_b = cfg.get_float("solver_b", "dt", dt_a)
    default_stride = stride_a
    if cfg.has("solver_b", "dt") and not cfg.has("solver_b", "snapshot_stride"):
        # keep the physical cadence aligned when only dt changes
        ratio = a.cadence() / dt_b
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError(
                "solver_b.dt incompatible with the snapshot cadence; set "
                "solver_b.snapshot_stride explicitly"
            )
        default_stride = round(ratio)
    stride_b = cfg.get_int("solver_b", "snapshot_stride", default_stride)
    b = RunConfig(n_b, dt_b, T, stride_b, cfg.get_float("solver_b", "cfl", cfl))
    return a, b


def _derived_quantities(cfg: ExperimentConfig) -> dict:
    out = {}
    grid = _build_grid(cfg)
    out["spacing"] = grid.spacing
    out["dealias_kmax"] = grid.dealias_kmax
    out["epsilon_min"] = min_epsilon(grid)
    out["epsilon_resolved"] = resolved_epsilon(grid)
    out["epsilon_max"] = 0.5
    # The CFL bound comes from the synthesized initial field: lacunary data
    # peak well above their amplitude.
    speed = field_from_spec(_build_synth_spec(cfg), grid).max_speed()
    cfl = cfg.get_float("solver", "cfl", 0.5)
    out["initial_max_speed"] = speed
    out["cfl_dt_bound"] = cfl_dt_bound(grid, speed, cfl)
    return out


def _range_checks(cfg: ExperimentConfig) -> list:
    diags = []
    grid = _build_grid(cfg)
    if cfg._p.has_section("sweep") and cfg.has("sweep", "epsilons"):
        # budget sweeps run on the finer leg of an A/B pair
        n_sweep = max(grid.n_per_axis, cfg.get_int("solver_b", "n", grid.n_per_axis))
        sweep_grid = make_grid(grid.dims, n_sweep)
        for eps in cfg.get_floats("sweep", "epsilons"):
            if eps < min_epsilon(sweep_grid):
                diags.append(
                    f"epsilon {eps} below the admissible floor {min_epsilon(sweep_grid)} "
                    f"(needs n >= {int(np.ceil(4.0 / eps))} rounded to a power of two)"
                )
            if eps > 0.5:
                diags.append(f"epsilon {eps} above the maximum 0.5")
    for key, kinds in _SWEEP_KEY_KINDS.items():
        if cfg.has("sweep", key) and cfg.kind not in kinds:
            diags.append(f"[sweep] {key} does not apply to kind '{cfg.kind}'")
    if cfg.has("sweep", "budget_route"):
        route = cfg.get_str("sweep", "budget_route")
        if route not in ROUTE_THRESHOLDS:
            diags.append(f"budget_route '{route}' is not one of {sorted(ROUTE_THRESHOLDS)}")
    if cfg._p.has_section("synth"):
        _build_synth_spec(cfg)
    if cfg._p.has_section("solver"):
        dt = cfg.get_float("solver", "dt")
        T = cfg.get_float("solver", "T")
        if dt <= 0 or T <= 0:
            diags.append("dt and T must be positive")
        elif not steps_for_horizon(T, dt):
            diags.append(f"T={T} is not an integer multiple of dt={dt}")
    return diags


# ---------------------------------------------------------------------------
# experiment bodies: each returns (exit_code, verdict_line, report_dict, extras)


def _exp_besov_fit(cfg: ExperimentConfig, outdir: Path):
    grid = _build_grid(cfg)
    spec = _build_synth_spec(cfg)
    field = field_from_spec(spec, grid)
    alpha = cfg.get_float("sweep", "alpha", spec.alpha if spec.alpha else 0.5)
    p = cfg.get_float("sweep", "p", 3.0)
    est = besov_seminorm(field, alpha, p)
    est.to_csv(outdir / "shift_table.csv")
    report = {
        "experiment": "besov_fit",
        "alpha": alpha,
        "p": p,
        "seminorm": est.seminorm,
        "fitted_alpha": est.fitted_alpha,
        "synth": spec.kind,
    }
    line = f"besov_fit: fitted_alpha={est.fitted_alpha:.4f} seminorm={est.seminorm:.4f}"
    return EXIT_OK, line, report, {"shift_table": "shift_table.csv"}


def _exp_scaling(cfg: ExperimentConfig, outdir: Path, quantity: str):
    grid = _build_grid(cfg)
    spec = _build_synth_spec(cfg)
    v = field_from_spec(spec, grid)
    epsilons = cfg.get_floats("sweep", "epsilons")
    p = cfg.get_float("sweep", "p", 3.0)
    alpha = cfg.get_optional_float("sweep", "alpha")
    tol = cfg.get_float("sweep", "slope_tolerance", 0.15)
    if quantity == "cet_trilinear":
        spec_u = SynthSpec(
            spec.kind, alpha=spec.alpha, j_max=spec.j_max,
            seed=spec.seed + 1, amplitude=spec.amplitude, slope=spec.slope,
        )
        fields = (field_from_spec(spec_u, grid), v)
    else:
        fields = v
    report_obj = scaling_experiment(
        fields, quantity, epsilons, p, alpha=alpha, slope_tolerance=tol,
    )
    dump_csv(
        outdir / "scaling.csv",
        ["epsilon", "magnitude", "intercept"],
        zip(report_obj.epsilons, report_obj.magnitudes, report_obj.intercepts),
    )
    report = report_obj.to_json_dict()
    report["experiment"] = cfg.kind
    code = EXIT_OK if report_obj.passed else EXIT_CERT_FAIL
    flag = " (vacuous)" if report_obj.vacuous else ""
    line = (
        f"{cfg.kind}: fitted_slope={report_obj.fitted_slope:.4f} "
        f"theory={report_obj.theory_slope:.4f} pass={report_obj.passed}{flag}"
    )
    return code, line, report, {"scaling": "scaling.csv"}


def _single_run(cfg: ExperimentConfig):
    """Solve from the configured initial data on the configured grid."""
    grid = _build_grid(cfg)
    u0 = field_from_spec(_build_synth_spec(cfg), grid)
    return solve(
        u0, cfg.get_float("solver", "T"), cfg.get_float("solver", "dt"),
        snapshot_stride=cfg.get_int("solver", "snapshot_stride", 1),
        cfl=cfg.get_float("solver", "cfl", 0.5),
    )


def _pair_initial(cfg: ExperimentConfig):
    """Both legs' run configs and the initial velocity on the finer grid."""
    cfg_a, cfg_b = _run_configs(cfg)
    spec = _build_synth_spec(cfg)
    fine = make_grid(2, max(cfg_a.grid_n, cfg_b.grid_n))
    return cfg_a, cfg_b, fine, field_from_spec(spec, fine)


def _exp_energy_conservation(cfg: ExperimentConfig, outdir: Path):
    traj = _single_run(cfg)
    drift_tol = cfg.get_float("solver", "drift_tolerance", 1e-6)
    adm_tol = cfg.get_float("solver", "admissibility_tolerance", 1e-7)
    drift = traj.energy_drift() / max(traj.energy_ledger[0], 1e-300)
    adm = admissibility_check(traj, adm_tol)
    dump_csv(
        outdir / "energy.csv",
        ["t", "kinetic_energy", "enstrophy"],
        [
            (t, e, enstrophy(s.scalars["vorticity"]))
            for t, e, s in zip(traj.times, traj.energy_ledger, traj.states)
        ],
    )
    if cfg.get_int("output", "save_snapshots", 1):
        save_trajectory(traj, outdir / "snapshots")
    passed = drift <= drift_tol and adm.passed
    report = {
        "experiment": "energy_conservation",
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
    return (EXIT_OK if passed else EXIT_CERT_FAIL), line, report, {"energy": "energy.csv"}


def _theta_profile(cfg: ExperimentConfig, grid):
    amp = cfg.get_float("buoyancy", "theta_amplitude", 0.2)
    axis = cfg.get_int("buoyancy", "theta_axis", 0)
    if axis not in (0, 1):
        raise ConfigurationError("theta_axis must be 0 or 1")
    return grid.sample_scalar(lambda *xs: amp * np.sin(np.pi * xs[axis]))


def _exp_certify(cfg: ExperimentConfig, outdir: Path):
    """The three A/B certifications: one report, per-kind series columns."""
    cfg_a, cfg_b, fine, u0 = _pair_initial(cfg)
    args = (
        cfg_a, cfg_b,
        cfg.get_float("sweep", "alpha", 0.6),
        cfg.get_float("sweep", "p", 3.0),
        cfg.get_floats("sweep", "epsilons"),
    )
    certify_tolerance = cfg.get_optional_float("sweep", "certify_tolerance")
    if cfg.kind == "uniqueness":
        rep = uniqueness_experiment(
            u0, *args, certify_tolerance=certify_tolerance,
            budget_route=cfg.get_str("sweep", "budget_route", "convective"),
            working_epsilon=cfg.get_optional_float("sweep", "working_epsilon"),
        )
        columns = {"seminorm": rep.seminorm_series, "fitted_alpha": rep.fitted_alpha_series}
        dump_csv(outdir / "budgets.csv", ["epsilon", "budget"],
                 zip(rep.budgets_epsilons, rep.budgets_values))
        artifacts = {"series": "series.csv", "budgets": "budgets.csv"}
        tail = f"slack={rep.certificate.slack:.3e}"
    else:
        kw = dict(
            contraction_tolerance=cfg.get_float("sweep", "contraction_tolerance", 1e-5),
            certify_tolerance=certify_tolerance,
        )
        if cfg.kind == "inhom_uniqueness":
            amp = cfg.get_float("density", "amplitude", 0.2)
            rho0 = fine.sample_scalar(
                lambda x, y: 1.0 + amp * np.sin(np.pi * x) * np.cos(np.pi * y)
            )
            rep = inhom_uniqueness_experiment(rho0, u0, *args, **kw)
        else:
            g = cfg.get_floats("buoyancy", "g", [0.0, -1.0])
            if len(g) != 2:
                raise ConfigurationError("buoyancy g needs two components")
            theta0 = _theta_profile(cfg, fine)
            rep = boussinesq_uniqueness_experiment(theta0, u0, g, *args, **kw)
        columns = {"D_scalar": rep.contraction.values}
        artifacts = {"series": "series.csv"}
        tail = f"contraction_pass={rep.contraction.passed}"
    dump_csv(
        outdir / "series.csv",
        ["t", "E", "C", *columns],
        zip(rep.times, rep.energy, rep.lipschitz.c_values, *columns.values()),
    )
    report = rep.to_json_dict()
    report["experiment"] = cfg.kind
    line = f"{cfg.kind}: verdict={rep.verdict} maxE={max(rep.energy):.3e} {tail}"
    return _VERDICT_CODES[rep.verdict], line, report, artifacts


def _exp_weak_residual(cfg: ExperimentConfig, outdir: Path):
    traj = _single_run(cfg)
    grid = traj.grid
    T = cfg.get_float("solver", "T")
    count = cfg.get_int("weak", "count", 10)
    kmax = cfg.get_int("weak", "kmax", 3)
    w1_tol = cfg.get_float("weak", "w1_tolerance", 1e-6)
    w2_tol = cfg.get_float("weak", "w2_tolerance", 1e-10)
    window_kind = cfg.get_str("weak", "window", "cosine")
    window = {"cosine": cosine_window, "linear": linear_window}.get(window_kind)
    if window is None:
        raise ConfigurationError("weak window must be 'cosine' or 'linear'")
    rows = []
    worst_w1 = 0.0
    worst_w2 = 0.0
    for i in range(count):
        psi = low_mode_divfree(grid, kmax, seed=cfg.seed + 1000 + i)
        r1 = weak_residual(traj, WeakTestFunction(psi, window(T)))
        phi = low_mode_scalar(grid, kmax, seed=cfg.seed + 2000 + i)
        r2 = weak_residual(traj, WeakTestFunction(phi, window(T)))
        rows.append((i, r1, r2))
        worst_w1 = max(worst_w1, r1)
        worst_w2 = max(worst_w2, r2)
    dump_csv(outdir / "residuals.csv", ["test_index", "w1_residual", "w2_residual"], rows)
    passed = worst_w1 <= w1_tol and worst_w2 <= w2_tol
    report = {
        "experiment": "weak_residual",
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
        "residuals": "residuals.csv"
    }


_BODIES = {
    "besov_fit": _exp_besov_fit,
    "commutator_scaling": lambda c, o: _exp_scaling(c, o, "convective_commutator_lp"),
    "cet_scaling": lambda c, o: _exp_scaling(c, o, "cet_trilinear"),
    "energy_conservation": _exp_energy_conservation,
    "uniqueness": _exp_certify,
    "inhom_uniqueness": _exp_certify,
    "boussinesq_uniqueness": _exp_certify,
    "weak_residual": _exp_weak_residual,
}


def _resolve_outdir(cfg: ExperimentConfig, config_path, flag_value) -> Path:
    if flag_value:
        return Path(flag_value)
    if cfg._p.has_section("output") and cfg.has("output", "dir"):
        return Path(cfg.get_str("output", "dir"))
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
        outdir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        code, line, report, artifacts = _BODIES[cfg.kind](cfg, outdir)
        report["config_hash"] = cfg.hash
        report["seed"] = cfg.seed
        dump_json(report, outdir / "report.json")
        manifest = {
            "config_hash": cfg.hash,
            "experiment": cfg.kind,
            "artifacts": dict(artifacts, report="report.json"),
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
        derived = _derived_quantities(cfg)
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
