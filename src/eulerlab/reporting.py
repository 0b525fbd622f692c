"""Deterministic JSON/CSV artifact writers for the CLI and the snapshot store.

Reports carry no timestamps and are dumped with sorted keys, so identical
inputs produce byte-identical files; volatile metadata lives in a separate
sidecar written by the CLI.  A report record (``ScalingReport``,
``GronwallCertificate``, ``PairAudit``) takes its JSON keys from its own
fields through ``_as_json`` and writes no file; only the names in
``_RENAMED`` differ.  The CLI adds the ``experiment`` key to every report
and writes every CSV table an experiment returns.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from typing import Iterable, Sequence

__all__ = ["dump_json", "dump_csv", "config_hash"]

# field name -> JSON key, where the key is the report's established name
_RENAMED = {"passed": "pass", "p_int": "p"}


def _as_json(record) -> dict:
    """The fields of the dataclass ``record`` as a JSON-ready dict, keyed by
    field name except as ``_RENAMED`` says."""
    return {_RENAMED.get(k, k): v for k, v in dataclasses.asdict(record).items()}


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(c) if isinstance(c, float) else c for c in row])


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
