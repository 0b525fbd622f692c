"""Tests of the benchmark itself: trace targets, count repeatability, the
reference tolerance and the seeded generator.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_trace_target_exists():
    for module, path, _ in spans.TARGETS:
        owner, attr, fn = spans.resolve(module, path)
        assert callable(fn), f"eulerlab.{module}.{path}"


def test_every_experiment_body_can_be_timed():
    import eulerlab.cli as cli

    assert callable(cli.run)
    assert set(cli._BODIES) == set(cli.EXPERIMENTS)
    for workload in workloads.WORKLOADS.values():
        for name, _ in workload.experiments:
            assert name in cli.EXPERIMENTS


def test_install_rebinds_every_binding():
    undo = spans.install(spans.Tracer())
    try:
        originals = [fn for _, _, fn in undo]
        for module, path, _ in spans.TARGETS:
            _, _, fn = spans.resolve(module, path)
            assert hasattr(fn, "__wrapped__"), f"eulerlab.{module}.{path} is not wrapped"
        for mod in spans._eulerlab_modules():
            for name, value in vars(mod).items():
                held = [value]
                if isinstance(value, dict):
                    held = list(value.values())
                elif isinstance(value, (list, tuple)):
                    held = list(value)
                for item in held:
                    assert not any(item is fn for fn in originals), (
                        f"{mod.__name__}.{name} still reaches an untraced target")
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


def test_self_time_table_sums_to_wall():
    # a(0..10) calls b(1..4) and b(5..6); b(1..4) calls c(2..3)
    log = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
    ]
    table = {row[0]: row[1:] for row in spans.self_time_table(log, 12.0)}
    assert table["a"] == (1, 10.0, 6.0)
    assert table["b"] == (2, 4.0, 3.0)
    assert table["c"] == (1, 1.0, 1.0)
    assert table["cli.<body, untraced>"][2] == pytest.approx(2.0)
    assert sum(row[2] for row in table.values()) == pytest.approx(12.0)


def test_tolerance_passes_last_bits_and_fails_a_flipped_verdict():
    ref = {"exit": 0, "verdict": "pass", "max_E": 1.8e-4, "slack": 6.1e-2,
           "fitted_alpha": 0.61, "relative_drift": 0.0}
    last_bit = {k: math.nextafter(v, math.inf) if isinstance(v, float) else v
                for k, v in ref.items()}
    assert workloads.compare(last_bit, ref) == []
    assert workloads.compare(dict(ref, max_E=1.8e-4 * (1 + 1e-9)), ref) == []
    assert workloads.compare(dict(ref, relative_drift=4e-16), ref) == []
    assert workloads.compare(dict(ref, verdict="certificate-failed"), ref)
    assert workloads.compare(dict(ref, exit=2), ref)
    assert workloads.compare(dict(ref, fitted_alpha=0.61 * (1 + 1e-4)), ref)
    assert workloads.compare(dict(ref, slack=float("nan")), ref)


def test_references_cover_every_experiment():
    refs = json.loads(run.REFERENCES.read_text())
    assert set(refs) == set(workloads.WORKLOADS)
    seeds = {w: set(by_seed) for w, by_seed in refs.items()}
    assert len(set(map(frozenset, seeds.values()))) == 1, "workloads ship different seeds"
    for name, workload in workloads.WORKLOADS.items():
        for seed, entry in refs[name].items():
            assert set(entry) == {e for e, _ in workload.experiments}, (name, seed)
            for scalars in entry.values():
                assert scalars["exit"] in run.COMPLETED_EXITS


def test_generator_is_seeded_and_valid(tmp_path, capsys):
    import eulerlab.cli as cli

    for name in workloads.WORKLOADS:
        first = workloads.configs(name, 7)
        assert first == workloads.configs(name, 7)
        assert first != workloads.configs(name, 8)
        for experiment, text in first:
            path = tmp_path / f"{name}-{experiment}.ini"
            path.write_text(text)
            assert cli.validate(path) == 0, capsys.readouterr().out
            assert cli.parse_config(path).seed == 7


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_traced_runs(name, tmp_path):
    env = run.child_env()
    deadline = run.time.monotonic() + run.HARD_LIMIT_S
    counts = []
    for attempt in range(2):
        counters = []
        for experiment, text in workloads.configs(name, 3):
            config = tmp_path / f"{experiment}.ini"
            config.write_text(text)
            r = run.launch(config, tmp_path / f"{attempt}-{experiment}", env, deadline,
                           experiment=experiment, rep=attempt,
                           spans_path=tmp_path / f"{attempt}-{experiment}.spans.jsonl")
            assert not r.problems, r.problems
            counters.append(r.counters)
        metrics = spans.layer_metrics(counters)
        assert metrics["trace.coverage"] >= 0.9
        counts.append({k: metrics[k] for k in spans.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["grid_fields.fft_calls"] > 0


def test_calibration_runs_no_program_code():
    # the host factor must follow the host only, never a change to eulerlab
    code = ("import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
            "assert not any(m.startswith('eulerlab') for m in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH / "calibrate.py")],
                          env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_homogeneous",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
