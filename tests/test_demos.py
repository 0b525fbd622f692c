"""Smoke tests: every narrative script under ``demos/`` runs to its end, and
the demo configs' artifacts keep their checked-in digests."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.slow
def test_digests_match_the_checked_in_file():
    """Every artifact of every demo config has the SHA-256 that
    ``demos/digests.txt`` records (about 20 s)."""
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, str(root / "demos" / "digests.py"),
         "--check", str(root / "demos" / "digests.txt")],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr[-2000:]
