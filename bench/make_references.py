"""Write ``bench/references.json``: exit status, verdict and key scalars of
every experiment for each shipped (workload, seed).

    python3 bench/make_references.py FIRST_SEED LAST_SEED

Each experiment runs once per seed through ``worker.py``.  A run that does
not complete (exit 1 or an exception) stops the script: a shipped seed must
have no failing operation.  Run it only when the program's results are meant
to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    first, last = (int(a) for a in (argv or sys.argv[1:]))
    env = run.child_env()
    refs = {name: {} for name in workloads.WORKLOADS}
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        for seed in range(first, last + 1):
            for name in workloads.WORKLOADS:
                entry = {}
                for experiment, text in workloads.configs(name, seed):
                    config = workdir / f"{experiment}.ini"
                    config.write_text(text)
                    deadline = time.monotonic() + run.HARD_LIMIT_S
                    r = run.launch(config, workdir / experiment, env, deadline,
                                   experiment=experiment, rep=0)
                    if r.problems:
                        print(f"{name} seed {seed} {experiment}: {r.problems}", file=sys.stderr)
                        return 1
                    entry[experiment] = r.scalars
                    shutil.rmtree(workdir / experiment)
                refs[name][str(seed)] = entry
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{e}={s.get('verdict', s['exit'])}" for e, s in entry.items()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
