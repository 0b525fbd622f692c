"""Print the SHA-256 of every artifact of every demo config.

    python demos/digests.py > digests.txt
    python demos/digests.py --check demos/digests.txt

Each ``demos/configs/*.ini`` runs through ``eulerlab.cli.run`` in a fresh
temporary directory, with ``eulerlab`` imported from ``src/`` of the checkout
this script belongs to.  One line ``<sha256>  <config>/<artifact>`` is printed
per artifact, in sorted order; ``metadata.json`` holds wall-clock data and is
left out.  Run the script in two checkouts and ``diff`` the outputs: a change
that moves no number prints the same lines.

With ``--check FILE`` nothing is printed but a unified diff of ``FILE``
against the printed lines, so order and repeats count: ``-`` marks a line of
the file and ``+`` a printed line.  ``demos/digests.txt`` holds the lines of
the checked-in code on numpy 2.4.6, and ``tests/test_demos.py`` runs the
check, so a change that moves a number fails the suite until it regenerates
the file and names the moved lines.

BLAS and OpenMP are pinned to one thread before numpy loads, so the digests do
not depend on how a threaded BLAS splits a dot product.  The exit status is 1
when any config exits 1 (a configuration or runtime error) or, with
``--check``, when any line differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.ini"))
VOLATILE_ARTIFACT = "metadata.json"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def digest_lines(config: Path, outdir: Path) -> list[str]:
    """``<sha256>  <config stem>/<artifact>`` for every file under ``outdir``."""
    lines = []
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        if path.name == VOLATILE_ARTIFACT:
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {config.stem}/{path.relative_to(outdir).as_posix()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="SHA-256 of every demo config's artifacts")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="print only the lines that differ from FILE; exit 1 if any do")
    args = parser.parse_args(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import eulerlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: eulerlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    failed = False
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            outdir = Path(tmp) / config.stem
            with contextlib.redirect_stdout(sys.stderr):  # the verdict lines
                code = cli.run(config, output_dir=outdir)
            print(f"{config.stem}: exit {code}", file=sys.stderr)
            failed |= code == cli.EXIT_ERROR
            lines += digest_lines(config, outdir)
    if args.check is None:
        for line in lines:
            print(line)
    else:
        expected = args.check.read_text().splitlines()
        diff = list(difflib.unified_diff(expected, lines, str(args.check), "run", lineterm=""))
        for line in diff:
            print(line)
        failed |= bool(diff)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
