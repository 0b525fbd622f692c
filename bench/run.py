"""The eulerlab benchmark: run one workload for a fixed time and report.

    python3 bench/run.py --workload certify_homogeneous --seed 5 --seconds 25 --trace 0

Each repetition runs every experiment of the workload through
``eulerlab.cli.run``, one fresh single-threaded process at a time
(``bench/worker.py``), until ``--seconds`` have passed.  With ``--trace 0`` the
run also starts set-up probes and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics.  A calibration process (``bench/calibrate.py``) runs next
to every process; its median time gives the host factor that scales
``wall_s`` and ``setup_s`` to the reference host's speed.  ``--workload all``
runs every workload in turn.

Every run is checked: exit status 0, 2 or 3, a ``report.json`` identical
byte for byte across repetitions, and verdict and key scalars equal to
``bench/references.json`` when it holds the (workload, seed).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Machine details and raw samples go to
``.bench_work/results/``, traced spans and self-time tables to
``.bench_work/trace/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4
# Median spawn-to-exit time of ``calibrate.py`` on the reference host.  Times
# are scaled by this over the run's own median, so they read in seconds of a
# host running at the reference speed.
CALIBRATION_REF_S = 0.22
HARD_LIMIT_S = 170.0  # every run ends within this, whatever --seconds says
COMPLETED_EXITS = (0, 2, 3)  # pass, certificate failed, hypothesis not met

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "completed_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def machine(env: dict) -> dict:
    """Core count, CPU, caches, numpy/FFT and Python versions, thread variables."""
    import numpy
    import numpy.fft  # noqa: F401  (loads the backend module named below)

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": "pocketfft (" + ", ".join(
            sorted(m for m in sys.modules if m.startswith("numpy.fft._"))) + ")",
        "thread_env": {v: env[v] for v in THREAD_VARS if v in env},
        "thread_env_inherited": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                name = f"L{level}" + ("d" if kind == "Data" else "")
                info["caches"][name] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


@dataclass
class Run:
    """One process: a set-up probe or a full experiment run."""

    experiment: str
    rep: int
    traced: bool = False
    exit: int = 1
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mib: float | None = None
    report_hash: str | None = None
    scalars: dict | None = None
    counters: dict | None = None
    table: list | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def launch(config: Path, outdir: Path, env: dict, deadline: float, *, experiment: str,
           rep: int, setup_only: bool = False, spans_path: Path | None = None) -> Run:
    """Run ``worker.py`` once and read back its marks and artifacts."""
    run = Run(experiment, rep, traced=spans_path is not None)
    result_path = outdir.parent / f"{outdir.name}.result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(config), str(outdir), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_path is not None:
        cmd += ["--spans", str(spans_path), "--run-id", f"rep{rep}/{experiment}"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        run.problems.append("timed out")
        return run
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        run.problems.append(f"no result (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        return run
    run.exit = proc.returncode
    run.rss_mib = result["maxrss_kib"] / 1024.0
    if result["error"]:
        run.problems.append("raised: " + result["error"].strip().splitlines()[-1])
    if result["body_start"] is None:
        run.problems.append(f"never reached the experiment body (exit {run.exit}): "
                            + proc.stderr.strip()[-500:])
        return run
    run.setup_s = result["body_start"] - spawned
    if setup_only:
        if run.exit != 0:
            run.problems.append(f"set-up probe exited {run.exit}")
        return run
    if run.exit not in COMPLETED_EXITS:
        run.problems.append(f"exit {run.exit}: {proc.stderr.strip()[-500:]}")
        return run
    run.wall_s = result["end"] - result["body_start"]
    run.counters = result.get("counters")
    run.table = result.get("table")
    report = (outdir / "report.json").read_bytes()
    run.report_hash = hashlib.sha256(report).hexdigest()
    run.scalars = {"exit": run.exit, **workloads.key_scalars(json.loads(report))}
    return run


def calibrate(env: dict, deadline: float) -> float:
    """Seconds from spawn to exit of one ``calibrate.py`` process."""
    spawned = time.monotonic()
    subprocess.run([sys.executable, str(BENCH / "calibrate.py")], env=env, cwd=ROOT,
                   capture_output=True, check=True, timeout=max(1.0, deadline - spawned))
    return time.monotonic() - spawned


def check(runs: list[Run], workload: str, seed: int) -> None:
    """Mark runs whose report differs from the other repeats or the reference."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    ref = refs.get(workload, {}).get(str(seed), {})
    full = [r for r in runs if r.report_hash is not None]
    for name in {r.experiment for r in full}:
        mine = [r for r in full if r.experiment == name]
        usual, _ = Counter(r.report_hash for r in mine).most_common(1)[0]
        for r in mine:
            if r.report_hash != usual:
                r.problems.append("report.json differs from the other repeats")
            if name in ref:
                r.problems += workloads.compare(r.scalars, ref[name])


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict,
            workdir: Path) -> tuple[list[Run], list[float]]:
    """Set-up probes (untraced only), then repetitions until ``seconds`` pass.

    A calibration process runs next to every probe and experiment process;
    its times are returned with the runs.
    """
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    configs = []
    for name, text in workloads.configs(workload, seed):
        path = workdir / f"{name}.ini"
        path.write_text(text)
        configs.append((name, path))
    runs, cal = [], []
    first_name, first_config = configs[0]
    # untimed warm-up: the first import compiles bytecode, which users pay once
    launch(first_config, workdir / "warmup", env, deadline, experiment=first_name, rep=-1,
           setup_only=True)
    if not trace:
        for i in range(SETUP_PROBES):
            runs.append(launch(first_config, workdir / f"probe{i}", env, deadline,
                               experiment=first_name, rep=-1, setup_only=True))
            cal.append(calibrate(env, deadline))
    measure_start = time.monotonic()
    rep = 0
    while rep < (2 if trace else 1) or time.monotonic() - measure_start < seconds:
        traced = trace and rep % 2 == 1
        for name, config in configs:
            cal.append(calibrate(env, deadline))
            outdir = workdir / f"rep{rep}" / name
            outdir.parent.mkdir(parents=True, exist_ok=True)
            spans_path = outdir.parent / f"{name}.spans.jsonl" if traced else None
            runs.append(launch(config, outdir, env, deadline, experiment=name, rep=rep,
                               spans_path=spans_path))
            shutil.rmtree(outdir, ignore_errors=True)
        rep += 1
        per_rep = (time.monotonic() - measure_start) / rep
        if time.monotonic() + 2 * per_rep > deadline:
            break  # another repetition could overrun the hard limit
    check(runs, workload, seed)
    return runs, cal


def _reps(runs: list[Run], traced: bool) -> list[list[Run]]:
    """Complete repetitions: every experiment ran, none failed."""
    by_rep = {}
    for r in runs:
        if r.rep >= 0 and r.traced == traced:
            by_rep.setdefault(r.rep, []).append(r)
    return [rs for _, rs in sorted(by_rep.items()) if not any(r.failed for r in rs)]


def median_wall(runs: list[Run], traced: bool) -> float:
    """Sum over the workload's experiments of each one's median wall time.

    The median over the run's repeats follows the host's usual speed.  The
    fastest repeat depends on whether the run catches one of a shared host's
    brief fast spells, and it spread more between runs.
    """
    walls = {}
    for r in runs:
        if r.wall_s is not None and not r.failed and r.traced == traced:
            walls.setdefault(r.experiment, []).append(r.wall_s)
    return sum(statistics.median(v) for v in walls.values())


def end_to_end(runs: list[Run], cal: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled times behind them.

    ``wall_s`` and ``setup_s`` are scaled by the host factor: the reference
    calibration time over this run's median.  The calibration runs no
    eulerlab code, so the factor follows the shared host's speed and nothing
    else; a slower program still reads slower.
    """
    reps = _reps(runs, traced=False)
    setups = [r.setup_s for r in runs if r.setup_s is not None and not r.failed]
    failed = sum(r.failed for r in runs)
    wall = median_wall(runs, traced=False)
    setup = statistics.median(setups) if setups else 0.0
    factor = CALIBRATION_REF_S / statistics.median(cal)
    return {
        "wall_s": wall * factor,
        "setup_s": setup * factor,
        "peak_rss_mb": statistics.median(max(r.rss_mib for r in rs) for rs in reps)
        if reps else 0.0,
        "completed_frac": (len(runs) - failed) / len(runs),
    }, {"unscaled wall_s": wall, "unscaled setup_s": setup, "host_factor": factor}


def per_layer(runs: list[Run]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians of times over traced repetitions, counts
    from the first; notes list counts that did not repeat exactly."""
    traced = [spans.layer_metrics([r.counters for r in rs]) for rs in _reps(runs, traced=True)]
    untraced = _reps(runs, traced=False)
    if not traced or not untraced:
        return {name: 0.0 for name in spans.LAYER_METRICS} | {"trace.overhead_s": 0.0}, [
            "no complete traced and untraced repetition"]
    notes = []
    metrics = {}
    for name in spans.LAYER_METRICS:
        values = [m[name] for m in traced]
        if name in spans.COUNT_METRICS:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                notes.append(f"{name} differs between traced repetitions: {values}")
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (median_wall(runs, traced=True)
                                  - median_wall(runs, traced=False))
    return metrics, notes


def merged_table(runs: list[Run]) -> list[tuple]:
    """Self-time rows of the first complete traced repetition, summed over its
    experiments."""
    reps = _reps(runs, traced=True)
    rows = {}
    for r in reps[0] if reps else []:
        for name, calls, inclusive, own in r.table:
            c, i, o = rows.get(name, (0, 0.0, 0.0))
            rows[name] = (c + calls, i + inclusive, o + own)
    return sorted(((n, *v) for n, v in rows.items()), key=lambda row: -row[3])


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "trace.overhead_s":
        return "s"
    return spans.LAYER_METRICS[name][0]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict,
                 info: dict) -> tuple[dict, int, int]:
    """Measure one workload, print its report; return metrics, attempted, failed."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runs, cal = measure(workload, seed, seconds, trace, env, workdir)
        tag = f"{workload}-seed{seed}"
        unscaled = {}
        if trace:
            metrics, notes = per_layer(runs)
            trace_dir = WORK / "trace"
            trace_dir.mkdir(exist_ok=True)
            with open(trace_dir / f"{tag}.spans.jsonl", "w") as out:
                for path in sorted(workdir.glob("rep*/*.spans.jsonl")):
                    out.write(path.read_text())
            table = merged_table(runs)
            lines = [f"{'span':44s} {'calls':>8s} {'incl_s':>9s} {'self_s':>9s}"]
            lines += [f"{n:44s} {c:8d} {i:9.4f} {o:9.4f}" for n, c, i, o in table]
            (trace_dir / f"{tag}.selftime.txt").write_text("\n".join(lines) + "\n")
        else:
            (metrics, unscaled), notes, lines = end_to_end(runs, cal), [], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(runs)
    failed = sum(r.failed for r in runs)
    reps = len({r.rep for r in runs if r.rep >= 0})
    print(f"== {workload} seed={seed} trace={int(trace)}: {reps} repetitions, "
          f"{attempted} processes")
    print(f"   why: {workloads.WORKLOADS[workload].why}")
    print("   working set: " + "; ".join(workloads.working_set(workload))
          + f" (L2 per core {info['caches'].get('L2', '?')})")
    for name, value in metrics.items():
        print(f"   {name:40s} {value:14.6g} {unit_of(name)}")
    for name, value in unscaled.items():
        print(f"   {name:40s} {value:14.6g}")
    print(f"   {'failed_frac':40s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for r in runs:
        for problem in r.problems:
            print(f"   FAILED rep {r.rep} {r.experiment}: {problem}")
    for note in notes:
        print(f"   NOTE {note}")
    if lines:
        print("   self time, first traced repetition:")
        for line in lines:
            print("     " + line)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": info, "metrics": metrics, "unscaled": unscaled, "calibration_s": cal,
        "attempted": attempted, "failed": failed,
        "runs": [{k: v for k, v in vars(r).items() if k not in ("counters", "table")}
                 for r in runs],
    }, indent=1))
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eulerlab" / "__init__.py").is_file():
        print(f"error: no eulerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    env = child_env()
    info = machine(env)
    print("machine: " + json.dumps(info, sort_keys=True))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace), env, info)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
