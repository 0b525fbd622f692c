"""Binary field snapshots and trajectory persistence.

Format: a 32-byte header (magic ``EULB``, version u16, dims u16, n_per_axis
u32, component count u32, 16 reserved bytes), then each component's samples
row-major as little-endian 64-bit floats.  Trajectories become one snapshot
per recorded state plus a ``manifest.json`` carrying times, ledgers, the
component names, and the configuration hash.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .grid_fields import Field, PeriodicGrid, ScalarField, VelocityField
from .reporting import config_hash, dump_json
from .solver import State, Trajectory

__all__ = [
    "write_field",
    "read_field",
    "save_trajectory",
    "load_trajectory",
    "FORMAT_VERSION",
]

MAGIC = b"EULB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHII16s")


def _write_snapshot(path, grid: PeriodicGrid, components: Sequence[np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC, FORMAT_VERSION, grid.dims, grid.n_per_axis,
                len(components), b"\x00" * 16,
            )
        )
        for comp in components:
            if comp.shape != grid.shape:
                raise ConfigurationError("component shape does not match the grid")
            fh.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())


def _read_snapshot(path) -> tuple[PeriodicGrid, list[np.ndarray]]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigurationError(f"{path}: truncated header")
        magic, version, dims, n, count, _ = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ConfigurationError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ConfigurationError(f"{path}: unsupported version {version}")
        per = n**dims
        # a header that claims more than the file holds must not size a grid
        if 8 * count * per > os.fstat(fh.fileno()).st_size - _HEADER.size:
            raise ConfigurationError(f"{path}: truncated payload")
        grid = PeriodicGrid(dims, n)
        out = []
        for _ in range(count):
            buf = fh.read(8 * per)
            if len(buf) != 8 * per:
                raise ConfigurationError(f"{path}: truncated payload")
            out.append(np.frombuffer(buf, dtype="<f8").astype(float).reshape(grid.shape))
        return grid, out


def write_field(path, field: Field) -> None:
    """Persist one scalar or velocity field."""
    _write_snapshot(path, field.grid, [c.values for c in field.components])


def read_field(path) -> Field:
    """Load a field; one component reads as a scalar, ``dims`` as a velocity."""
    grid, comps = _read_snapshot(path)
    if len(comps) == 1:
        return ScalarField(grid, comps[0])
    if len(comps) == grid.dims:
        return VelocityField.from_arrays(grid, comps)
    raise ConfigurationError(
        f"{path}: {len(comps)} components fit neither a scalar nor a velocity"
    )


# manifest kind -> the extra ledgers its trajectories carry
_KINDS = {"Trajectory": [], "InhomTrajectory": ["mass"], "BoussinesqTrajectory": ["theta"]}


def save_trajectory(traj: Trajectory, outdir) -> Path:
    """Write one snapshot per state plus the manifest; returns the manifest
    path."""
    kind = next((k for k, extra in _KINDS.items() if list(traj.ledgers) == extra), None)
    if kind is None:
        raise ConfigurationError(f"no trajectory kind carries the ledgers {list(traj.ledgers)}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = traj.grid
    names = [f"u{i + 1}" for i in range(grid.dims)]
    files = []
    for idx, state in enumerate(traj.states):  # each read rebuilds the state
        if idx == 0:
            names += list(state.scalars)
        fname = f"state_{idx:06d}.eulb"
        fields = (*state.velocity.components, *state.scalars.values())
        _write_snapshot(outdir / fname, grid, [f.values for f in fields])
        files.append(fname)
    config_text = json.dumps(traj.config, sort_keys=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "components": names,
        "times": traj.times,
        "energy_ledger": traj.energy_ledger,
        "dt": traj.dt,
        "config": traj.config,
        "config_hash": config_hash(config_text),
        "files": files,
    }
    for name, ledger in traj.ledgers.items():
        manifest[f"{name}_ledger"] = ledger
    path = outdir / "manifest.json"
    dump_json(manifest, path)
    return path


def load_trajectory(outdir) -> Trajectory:
    """Rebuild a trajectory from a snapshot directory; a manifest that
    records no state, lists a different number of files than times, or
    names other components than a snapshot holds is rejected."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    if manifest.get("kind") not in _KINDS:
        raise ConfigurationError(f"unknown trajectory kind {manifest.get('kind')!r}")
    extra = _KINDS[manifest["kind"]]
    required = ["components", "times", "files", "dt", "config", "energy_ledger"]
    required += [f"{name}_ledger" for name in extra]
    missing = [k for k in required if k not in manifest]
    if missing:
        raise ConfigurationError(f"{outdir}: manifest lacks {', '.join(missing)}")
    names, times, files = manifest["components"], manifest["times"], manifest["files"]
    if not times:
        raise ConfigurationError(f"{outdir}: manifest records no states")
    if len(files) != len(times):
        raise ConfigurationError(
            f"{outdir}: manifest lists {len(files)} files for {len(times)} times")
    states = []
    for t, fname in zip(times, files):
        # the velocity components come first, then the state's scalars
        grid, comps = _read_snapshot(outdir / fname)
        if len(comps) != len(names):
            raise ConfigurationError(f"{outdir / fname}: holds {len(comps)} components, "
                                     f"the manifest names {len(names)}")
        scalars = {name: ScalarField(grid, a)
                   for name, a in zip(names[grid.dims:], comps[grid.dims:])}
        states.append(State(t, VelocityField.from_arrays(grid, comps[:grid.dims]), scalars))
    ledgers = {name: manifest[f"{name}_ledger"] for name in extra}
    return Trajectory(states, manifest["dt"], manifest["config"],
                      manifest["energy_ledger"], ledgers)
