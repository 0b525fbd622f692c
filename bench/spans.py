"""Outside-in tracing of eulerlab's public functions.

``install`` wraps each function in ``TARGETS`` at every module attribute bound
to it (modules import each other's functions by name, so wrapping one binding
would miss calls) and records one span per call in memory: name, start, end,
parent span and an optional attribute (points transformed, RK4 steps, a field
fingerprint, bytes written).  ``layer_counters`` and ``self_time_table`` turn
the spans of one process into the per-layer numbers.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import sys
import time
from pathlib import Path

__all__ = [
    "COUNT_METRICS",
    "LAYER_METRICS",
    "TARGETS",
    "Tracer",
    "install",
    "layer_counters",
    "layer_metrics",
    "resolve",
    "self_time_table",
]

# (module, attribute path, attribute recorded per call)
TARGETS = (
    ("grid_fields", "PeriodicGrid.rfftn", "points_in"),
    ("grid_fields", "PeriodicGrid.irfftn", "points_out"),
    ("grid_fields", "resample", None),
    ("solver", "solve", "steps"),
    ("solver", "admissibility_check", None),
    ("solver", "weak_residual", None),
    ("extensions", "inhom_solve", "steps"),
    ("extensions", "boussinesq_solve", "steps"),
    ("extensions", "density_contraction_check", None),
    ("besov", "besov_seminorm", "field"),
    ("besov", "fit_regularity_exponent", "field"),
    ("besov", "translation_difference_norm", "field"),
    ("mollify", "make_kernel", "kernel"),
    ("mollify", "mollify", None),
    ("commutator", "scaling_experiment", None),
    ("commutator", "convective_commutator", None),
    ("commutator", "cet_trilinear", None),
    ("commutator", "transport_commutator", None),
    ("synth", "field_from_spec", None),
    ("synth", "low_mode_divfree", None),
    ("synth", "low_mode_scalar", None),
    ("uniqueness", "one_sided_lipschitz", None),
    ("uniqueness", "relative_energy", None),
    ("uniqueness", "gronwall_certify", None),
    ("snapshots", "save_trajectory", "dir_bytes"),
    ("snapshots", "write_field", "file_bytes"),
    ("reporting", "dump_json", "file_bytes"),
    ("reporting", "dump_csv", "file_bytes"),
)

# the CLI's wall-clock sidecar: its length follows the digits of the time,
# so it is left out of the byte counts, which must repeat exactly
VOLATILE_ARTIFACT = "metadata.json"

FFT = ("grid_fields.PeriodicGrid.rfftn", "grid_fields.PeriodicGrid.irfftn")
PROBES = ("besov.besov_seminorm", "besov.fit_regularity_exponent",
          "besov.translation_difference_norm")
EVALS = ("commutator.convective_commutator", "commutator.cet_trilinear",
         "commutator.transport_commutator")
SOLVERS = {  # span name -> counter prefix
    "solver.solve": "solve",
    "extensions.inhom_solve": "inhom",
    "extensions.boussinesq_solve": "boussinesq",
}
# counter -> span names whose outermost calls it times
TIMED = {
    "solve_s": ("solver.solve",),
    "audit_s": ("solver.admissibility_check", "solver.weak_residual"),
    "inhom_s": ("extensions.inhom_solve",),
    "boussinesq_s": ("extensions.boussinesq_solve",),
    "contraction_s": ("extensions.density_contraction_check",),
    "probe_s": PROBES,
    "make_kernel_s": ("mollify.make_kernel",),
    "mollify_s": ("mollify.mollify",),
    "sweep_s": ("commutator.scaling_experiment",),
    "eval_s": EVALS,
    "field_s": ("synth.field_from_spec",),
    "lipschitz_s": ("uniqueness.one_sided_lipschitz",),
    "relative_energy_s": ("uniqueness.relative_energy",),
    "gronwall_s": ("uniqueness.gronwall_certify",),
    "snapshots_s": ("snapshots.save_trajectory", "snapshots.write_field"),
    "reporting_s": ("reporting.dump_json", "reporting.dump_csv"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric -> (unit, value from the summed counters)
LAYER_METRICS = {
    "grid_fields.fft_calls": ("count", lambda c: c["fft_calls"]),
    "grid_fields.fft_points": ("count", lambda c: c["fft_points"]),
    "grid_fields.fft_s": ("s", lambda c: c["fft_s"]),
    "solver.solve_s": ("s", lambda c: c["solve_s"]),
    "solver.solve_self_s": ("s", lambda c: c["solve_s"] - c["solve_fft_s"]),
    "solver.fft_per_step": ("1/step", lambda c: _ratio(c["solve_ffts"], c["solve_steps"])),
    "solver.audit_s": ("s", lambda c: c["audit_s"]),
    "extensions.inhom_solve_s": ("s", lambda c: c["inhom_s"]),
    "extensions.inhom_solve_self_s": ("s", lambda c: c["inhom_s"] - c["inhom_fft_s"]),
    "extensions.inhom_fft_per_step": (
        "1/step", lambda c: _ratio(c["inhom_ffts"], c["inhom_steps"])),
    "extensions.boussinesq_solve_s": ("s", lambda c: c["boussinesq_s"]),
    "extensions.boussinesq_fft_per_step": (
        "1/step", lambda c: _ratio(c["boussinesq_ffts"], c["boussinesq_steps"])),
    "extensions.contraction_s": ("s", lambda c: c["contraction_s"]),
    "besov.probe_calls": ("count", lambda c: c["probe_calls"]),
    "besov.probe_s": ("s", lambda c: c["probe_s"]),
    "besov.unique_probe_ratio": (
        "ratio", lambda c: _ratio(c["probe_distinct"], c["probe_calls"])),
    "mollify.make_kernel_calls": ("count", lambda c: c["make_kernel_calls"]),
    "mollify.kernel_reuse_ratio": (
        "ratio", lambda c: _ratio(c["kernel_distinct"], c["make_kernel_calls"])),
    "mollify.make_kernel_s": ("s", lambda c: c["make_kernel_s"]),
    "mollify.mollify_s": ("s", lambda c: c["mollify_s"]),
    "commutator.sweep_s": ("s", lambda c: c["sweep_s"]),
    "commutator.eval_calls": ("count", lambda c: c["eval_calls"]),
    "commutator.eval_s": ("s", lambda c: c["eval_s"]),
    "synth.field_s": ("s", lambda c: c["field_s"]),
    "uniqueness.lipschitz_s": ("s", lambda c: c["lipschitz_s"]),
    "uniqueness.relative_energy_s": ("s", lambda c: c["relative_energy_s"]),
    "uniqueness.gronwall_s": ("s", lambda c: c["gronwall_s"]),
    "snapshots.write_s": ("s", lambda c: c["snapshots_s"]),
    "snapshots.bytes_written": ("B", lambda c: c["snapshots_bytes"]),
    "reporting.write_s": ("s", lambda c: c["reporting_s"]),
    "reporting.bytes_written": ("B", lambda c: c["reporting_bytes"]),
    "trace.coverage": ("ratio", lambda c: _ratio(c["covered_s"], c["wall_s"])),
}
# metrics that count work and must repeat exactly between traced runs
COUNT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items()
    if unit in ("count", "1/step", "B") or name.endswith("_ratio")
)


def _fingerprint(field) -> str:
    h = hashlib.blake2b(digest_size=16)
    for comp in getattr(field, "components", None) or [field]:
        h.update(comp.values)
    return h.hexdigest()


def _size(path) -> int:
    path = Path(path)
    if path.name == VOLATILE_ARTIFACT:
        return 0
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


def _recorder(kind, fn):
    """Return ``(args, kwargs, result) -> attribute`` for one target."""
    if kind == "points_in":  # PeriodicGrid.rfftn(self, values)
        return lambda args, kwargs, result: args[1].size
    if kind == "points_out":  # PeriodicGrid.irfftn(self, hat)
        return lambda args, kwargs, result: math.prod(args[0].shape)
    sig = inspect.signature(fn)
    first = next(iter(sig.parameters))

    def arg(args, kwargs, name):
        return sig.bind(*args, **kwargs).arguments[name]

    if kind == "steps":
        return lambda a, k, r: round(arg(a, k, "T") / arg(a, k, "dt"))
    if kind == "field":
        return lambda a, k, r: _fingerprint(arg(a, k, first))
    if kind == "kernel":
        def kernel_key(a, k, r):
            grid = arg(a, k, "grid")
            return f"{grid.dims}/{grid.n_per_axis}/{float(arg(a, k, 'epsilon'))!r}"
        return kernel_key
    if kind == "dir_bytes":
        return lambda a, k, r: _size(arg(a, k, "outdir"))
    if kind == "file_bytes":
        return lambda a, k, r: _size(arg(a, k, "path"))
    raise ValueError(f"unknown span attribute {kind!r}")


class Tracer:
    """In-memory span log of one process: ``[name, start, end, parent, attr]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, record=None):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if record is not None:
                span[4] = record(args, kwargs, result)
            return result

        return traced


def resolve(module: str, path: str):
    """``(owner, attribute name, function)`` of one target; raises if gone."""
    owner = importlib.import_module(f"eulerlab.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    fn = getattr(owner, parts[-1])
    if not callable(fn):
        raise TypeError(f"eulerlab.{module}.{path} is not callable")
    return owner, parts[-1], fn


def _eulerlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "eulerlab" or name.startswith("eulerlab."))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target at every module attribute bound to it.

    Returns ``(owner, attribute, original)`` for each rebinding, so a caller
    can undo the installation.
    """
    importlib.import_module("eulerlab.cli")
    undo = []
    for module, path, kind in TARGETS:
        owner, attr, fn = resolve(module, path)
        wrapped = tracer.wrap(f"{module}.{path}", fn, None if kind is None else _recorder(kind, fn))
        if inspect.isclass(owner):
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            continue
        for mod in _eulerlab_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, name, fn))
                    setattr(mod, name, wrapped)
    return undo


def _outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named there."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def _duration(span) -> float:
    return span[2] - span[1]


def layer_counters(spans, wall_s: float) -> dict:
    """Additive per-process counters; ``layer_metrics`` combines them."""
    c = {"wall_s": wall_s}
    for key, names in TIMED.items():
        c[key] = sum((_duration(spans[i]) for i in _outermost(spans, set(names))), 0.0)
    ffts = [s for s in spans if s[0] in FFT]
    c["fft_calls"] = len(ffts)
    c["fft_points"] = sum(s[4] or 0 for s in ffts)
    c["fft_s"] = sum(_duration(s) for s in ffts)
    for prefix in SOLVERS.values():
        c[f"{prefix}_ffts"] = 0
        c[f"{prefix}_fft_s"] = 0.0
        c[f"{prefix}_steps"] = 0
    for name, prefix in SOLVERS.items():
        c[f"{prefix}_steps"] = sum(spans[i][4] or 0 for i in _outermost(spans, {name}))
    for span in ffts:
        p = span[3]
        while p >= 0 and spans[p][0] not in SOLVERS:
            p = spans[p][3]
        if p >= 0:
            prefix = SOLVERS[spans[p][0]]
            c[f"{prefix}_ffts"] += 1
            c[f"{prefix}_fft_s"] += _duration(span)
    probes = _outermost(spans, set(PROBES))
    c["probe_calls"] = len(probes)
    c["probe_distinct"] = len({spans[i][4] for i in probes})
    kernels = [s for s in spans if s[0] == "mollify.make_kernel"]
    c["make_kernel_calls"] = len(kernels)
    c["kernel_distinct"] = len({s[4] for s in kernels})
    c["eval_calls"] = len(_outermost(spans, set(EVALS)))
    for key, names in (("snapshots_bytes", ("snapshots.save_trajectory", "snapshots.write_field")),
                       ("reporting_bytes", ("reporting.dump_json", "reporting.dump_csv"))):
        c[key] = sum(spans[i][4] or 0 for i in _outermost(spans, set(names)))
    c["covered_s"] = sum(_duration(s) for s in spans if s[3] < 0)
    return c


def layer_metrics(counters: list[dict]) -> dict:
    """Per-layer metric values from the counters of one repetition's processes."""
    total = {}
    for c in counters:
        for key, value in c.items():
            total[key] = total.get(key, 0) + value
    return {name: fn(total) for name, (_, fn) in LAYER_METRICS.items()}


def self_time_table(spans, wall_s: float) -> list[tuple[str, int, float, float]]:
    """Rows ``(name, calls, inclusive s, self s)``, largest self time first.

    The last row holds the experiment body's own, untraced time, so the self
    times sum to ``wall_s``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += _duration(span)
    rows = {}
    for i, span in enumerate(spans):
        p = span[3]
        while p >= 0 and spans[p][0] != span[0]:
            p = spans[p][3]
        calls, inclusive, own = rows.get(span[0], (0, 0.0, 0.0))
        if p < 0:  # outermost call of this name
            inclusive += _duration(span)
        rows[span[0]] = (calls + 1, inclusive, own + _duration(span) - child_time[i])
    table = sorted(((n, *v) for n, v in rows.items()), key=lambda r: -r[3])
    covered = sum(_duration(s) for s in spans if s[3] < 0)
    table.append(("cli.<body, untraced>", 1, wall_s, wall_s - covered))
    return table
