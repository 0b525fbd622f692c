"""Print the SHA-256 of every artifact of every demo config.

    python demos/digests.py > digests.txt

Each ``demos/configs/*.ini`` runs through ``eulerlab.cli.run`` in a fresh
temporary directory, with ``eulerlab`` imported from ``src/`` of the checkout
this script belongs to.  One line ``<sha256>  <config>/<artifact>`` is printed
per artifact, in sorted order; ``metadata.json`` holds wall-clock data and is
left out.  Run the script in two checkouts and ``diff`` the outputs: a change
that moves no number prints the same lines.

BLAS and OpenMP are pinned to one thread before numpy loads, so the digests do
not depend on how a threaded BLAS splits a dot product.  The exit status is 1
when any config exits 1 (a configuration or runtime error), else 0.
"""

from __future__ import annotations

import contextlib
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


def main() -> int:
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import eulerlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: eulerlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            outdir = Path(tmp) / config.stem
            with contextlib.redirect_stdout(sys.stderr):  # the verdict lines
                code = cli.run(config, output_dir=outdir)
            print(f"{config.stem}: exit {code}", file=sys.stderr)
            failed |= code == cli.EXIT_ERROR
            for line in digest_lines(config, outdir):
                print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
