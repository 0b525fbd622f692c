"""One benchmark process: ``eulerlab.cli.run`` on one config, with time marks.

    python3 bench/worker.py CONFIG OUTDIR RESULT [--setup-only] [--spans FILE --run-id ID]

The parent notes the clock just before it starts this process.  Here the
experiment bodies in ``cli._BODIES`` are wrapped to note when the body
starts, and the clock is read again once ``cli.run`` returns, after the last
artifact is written.  Both are ``time.monotonic`` (one system-wide clock on
Linux), so the parent gets set-up time as body start minus spawn, and wall
time as return minus body start.  ``--setup-only`` stops at the body.
``--spans`` installs the tracer and writes its spans and per-layer counters.

RESULT receives ``{"exit", "body_start", "end", "maxrss_kib", "error"}``
plus, when traced, ``"counters"`` and ``"table"``.  The exit status is the
one ``cli.run`` returned, or 1 on an error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class BodyReached(Exception):
    """Raised at the start of the experiment body in set-up probes."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("outdir")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    marks = {}
    result = {"exit": 1, "body_start": None, "end": None, "error": None}
    tracer = None
    # eulerlab must come from this checkout, never from an installed copy
    sys.path.insert(0, str(SRC))
    try:
        import eulerlab.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"eulerlab imported from {cli.__file__}, not {SRC}")
        if args.spans:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)

        def hook(body):
            def timed(cfg, outdir):
                marks["body"] = time.monotonic()
                if args.setup_only:
                    raise BodyReached
                return body(cfg, outdir)
            return timed

        for kind, body in list(cli._BODIES.items()):
            cli._BODIES[kind] = hook(body)
        result["exit"] = cli.run(args.config, output_dir=args.outdir, jobs=1)
        result["end"] = time.monotonic()
    except BodyReached:
        result["exit"] = 0
    except Exception:
        result["exit"] = 1
        result["error"] = traceback.format_exc()
    result["body_start"] = marks.get("body")
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None and result["end"] is not None:
        wall = result["end"] - result["body_start"]
        result["counters"] = spans.layer_counters(tracer.spans, wall)
        result["table"] = spans.self_time_table(tracer.spans, wall)
        with open(args.spans, "w") as fh:
            for i, (name, start, end, parent, attr) in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "run": args.run_id, "id": i, "parent": parent, "name": name,
                    "start": start, "end": end, "attr": attr,
                }) + "\n")
    Path(args.result).write_text(json.dumps(result))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
