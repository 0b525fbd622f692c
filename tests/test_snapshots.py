import json
import re
import struct

import numpy as np
import pytest

from eulerlab.errors import ConfigurationError
from eulerlab.grid_fields import ScalarField, make_grid
from eulerlab.extensions import boussinesq_solve, inhom_solve
from eulerlab.snapshots import load_trajectory, read_field, save_trajectory, write_field
from eulerlab.solver import Trajectory, solve
from eulerlab.synth import random_divfree, taylor_green

from _utils import random_band_limited_scalar


class TestFieldRoundTrip:
    def test_scalar(self, tmp_path):
        grid = make_grid(2, 64)
        f = random_band_limited_scalar(grid, 10, seed=1)
        path = tmp_path / "f.eulb"
        write_field(path, f)
        back = read_field(path)
        assert isinstance(back, ScalarField)
        assert np.array_equal(back.values, f.values)

    def test_velocity(self, tmp_path):
        grid = make_grid(2, 64)
        u = taylor_green(grid, 1.0)
        path = tmp_path / "u.eulb"
        write_field(path, u)
        back = read_field(path)
        for a, b in zip(back.components, u.components):
            assert np.array_equal(a.values, b.values)

    def test_header_layout(self, tmp_path):
        grid = make_grid(2, 16)
        u = taylor_green(grid, 1.0)
        path = tmp_path / "u.eulb"
        write_field(path, u)
        raw = path.read_bytes()
        assert raw[:4] == b"EULB"
        assert int.from_bytes(raw[4:6], "little") == 1  # version
        assert int.from_bytes(raw[6:8], "little") == 2  # dims
        assert int.from_bytes(raw[8:12], "little") == 16  # n_per_axis
        assert int.from_bytes(raw[12:16], "little") == 2  # components
        assert len(raw) == 32 + 2 * 16 * 16 * 8

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.eulb"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ConfigurationError, match="magic"):
            read_field(path)

    @pytest.mark.parametrize("dims, n", [(70, 8), (3, 2**20)], ids=["dims-70", "n-2^20"])
    def test_rejects_a_header_larger_than_its_payload(self, tmp_path, dims, n):
        """A header that claims more samples than the file holds is a
        truncated payload, found before a grid of the claimed size is built."""
        path = tmp_path / "big.eulb"
        header = struct.pack("<4sHHII16s", b"EULB", 1, dims, n, 1, b"\x00" * 16)
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(ConfigurationError, match="truncated payload"):
            read_field(path)


class TestTrajectoryRoundTrip:
    def test_homogeneous(self, tmp_path):
        grid = make_grid(2, 64)
        traj = solve(random_divfree(grid, 3.0, seed=2), 0.01, 1e-3, snapshot_stride=5)
        save_trajectory(traj, tmp_path / "run")
        back = load_trajectory(tmp_path / "run")
        assert back.times == pytest.approx(traj.times)
        assert back.energy_ledger == pytest.approx(traj.energy_ledger)
        for a, b in zip(back.states, traj.states):
            for ca, cb in zip(a.velocity.components, b.velocity.components):
                assert np.array_equal(ca.values, cb.values)

    def test_inhomogeneous(self, tmp_path):
        grid = make_grid(2, 64)
        rho = grid.sample_scalar(lambda x, y: 1.0 + 0.1 * np.sin(np.pi * x))
        traj = inhom_solve(rho, taylor_green(grid, 0.5), 0.01, 1e-3, snapshot_stride=5)
        save_trajectory(traj, tmp_path / "run")
        back = load_trajectory(tmp_path / "run")
        assert back.ledgers["mass"] == pytest.approx(traj.ledgers["mass"])
        assert np.array_equal(
            back.final().scalars["density"].values, traj.final().scalars["density"].values
        )

    def test_boussinesq(self, tmp_path):
        grid = make_grid(2, 64)
        th = grid.sample_scalar(lambda x, y: 0.1 * np.sin(np.pi * x))
        traj = boussinesq_solve(
            th, taylor_green(grid, 0.5), (0.0, -1.0), 0.01, 1e-3, snapshot_stride=5
        )
        save_trajectory(traj, tmp_path / "run")
        back = load_trajectory(tmp_path / "run")
        assert back.ledgers["theta"] == pytest.approx(traj.ledgers["theta"])
        assert np.array_equal(back.final().scalars["theta"].values,
                              traj.final().scalars["theta"].values)

    def test_manifest_contents(self, tmp_path):
        grid = make_grid(2, 64)
        traj = solve(taylor_green(grid, 1.0), 0.01, 1e-3, snapshot_stride=5)
        save_trajectory(traj, tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        for key in ("times", "energy_ledger", "config", "config_hash", "files",
                    "components"):
            assert key in manifest
        assert len(manifest["files"]) == len(traj.states)


def small_runs(grid):
    """One short run of each system, keyed by the manifest kind it writes."""
    rho = grid.sample_scalar(lambda x, y: 1.0 + 0.1 * np.sin(np.pi * x))
    th = grid.sample_scalar(lambda x, y: 0.1 * np.sin(np.pi * x))
    u0 = taylor_green(grid, 0.5)
    return {
        "Trajectory": solve(u0, 0.004, 1e-3, snapshot_stride=2),
        "InhomTrajectory": inhom_solve(rho, u0, 0.004, 1e-3, snapshot_stride=2),
        "BoussinesqTrajectory": boussinesq_solve(
            th, u0, (0.0, -1.0), 0.004, 1e-3, snapshot_stride=2
        ),
    }


class TestManifestValidation:
    EXTRA_LEDGER = {
        "Trajectory": None,
        "InhomTrajectory": "mass_ledger",
        "BoussinesqTrajectory": "theta_ledger",
    }
    SCALAR = {
        "Trajectory": "vorticity",
        "InhomTrajectory": "density",
        "BoussinesqTrajectory": "theta",
    }

    def save(self, traj, path):
        save_trajectory(traj, path)
        return json.loads((path / "manifest.json").read_text())

    def rewrite(self, path, manifest):
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_kind_and_ledger_keys_per_system(self, tmp_path):
        for kind, traj in small_runs(make_grid(2, 32)).items():
            manifest = self.save(traj, tmp_path / kind)
            assert manifest["kind"] == kind
            ledgers = {k for k in manifest if k.endswith("_ledger")}
            extra = self.EXTRA_LEDGER[kind]
            assert ledgers == {"energy_ledger"} | ({extra} if extra else set())
            assert manifest["components"] == ["u1", "u2", self.SCALAR[kind]]
            back = load_trajectory(tmp_path / kind)
            assert back.ledgers == traj.ledgers
            for state in back.states:
                assert list(state.scalars) == [self.SCALAR[kind]]

    def test_save_rejects_ledgers_no_kind_carries(self, tmp_path):
        traj = small_runs(make_grid(2, 32))["Trajectory"]
        odd = Trajectory(traj.states, traj.dt, traj.config, traj.energy_ledger,
                         {"salinity": [0.0] * len(traj.states)})
        with pytest.raises(ConfigurationError, match="salinity"):
            save_trajectory(odd, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_rejects_short_extra_ledger(self, tmp_path):
        runs = small_runs(make_grid(2, 32))
        for kind in ("InhomTrajectory", "BoussinesqTrajectory"):
            path = tmp_path / kind
            manifest = self.save(runs[kind], path)
            manifest[self.EXTRA_LEDGER[kind]].pop()
            self.rewrite(path, manifest)
            with pytest.raises(ConfigurationError, match="ledger"):
                load_trajectory(path)

    def test_rejects_unordered_times(self, tmp_path):
        runs = small_runs(make_grid(2, 32))
        for kind in ("InhomTrajectory", "BoussinesqTrajectory"):
            path = tmp_path / kind
            manifest = self.save(runs[kind], path)
            manifest["times"][1], manifest["times"][2] = (
                manifest["times"][2], manifest["times"][1]
            )
            self.rewrite(path, manifest)
            with pytest.raises(ConfigurationError, match="increasing"):
                load_trajectory(path)

    def test_rejects_unknown_kind_without_files(self, tmp_path):
        manifest = self.save(small_runs(make_grid(2, 32))["Trajectory"], tmp_path)
        manifest.update(kind="MysteryTrajectory", files=[], times=[])
        self.rewrite(tmp_path, manifest)
        with pytest.raises(ConfigurationError, match="unknown trajectory kind"):
            load_trajectory(tmp_path)

    @pytest.mark.parametrize("kind,key", [
        ("Trajectory", "times"),
        ("Trajectory", "files"),
        ("Trajectory", "energy_ledger"),
        ("InhomTrajectory", "mass_ledger"),
        ("BoussinesqTrajectory", "theta_ledger"),
    ])
    def test_rejects_missing_key(self, tmp_path, kind, key):
        manifest = self.save(small_runs(make_grid(2, 32))[kind], tmp_path)
        del manifest[key]
        self.rewrite(tmp_path, manifest)
        with pytest.raises(ConfigurationError, match=key):
            load_trajectory(tmp_path)

    def test_rejects_more_files_than_times(self, tmp_path):
        """A manifest listing 4 files for 3 times is an error naming the
        directory, not a trajectory that ignores the extra file."""
        manifest = self.save(small_runs(make_grid(2, 32))["Trajectory"], tmp_path)
        assert len(manifest["times"]) == 3
        extra = "state_000003.eulb"
        (tmp_path / extra).write_bytes((tmp_path / manifest["files"][-1]).read_bytes())
        manifest["files"].append(extra)
        self.rewrite(tmp_path, manifest)
        with pytest.raises(ConfigurationError,
                           match=f"{re.escape(str(tmp_path))}: .*4 files for 3 times"):
            load_trajectory(tmp_path)

    def test_rejects_components_the_snapshots_do_not_hold(self, tmp_path):
        """A component the snapshots do not hold is an error naming the
        snapshot, not a state loaded without it."""
        manifest = self.save(small_runs(make_grid(2, 32))["Trajectory"], tmp_path)
        manifest["components"].append("density")
        self.rewrite(tmp_path, manifest)
        first = re.escape(str(tmp_path / manifest["files"][0]))
        with pytest.raises(ConfigurationError, match=f"{first}: holds 3 components"):
            load_trajectory(tmp_path)

    def test_rejects_empty_manifest(self, tmp_path):
        """A manifest with no times, files or energies is an error naming the
        directory, not a 0-state trajectory without a grid."""
        manifest = self.save(small_runs(make_grid(2, 32))["Trajectory"], tmp_path)
        manifest.update(times=[], files=[], energy_ledger=[])
        self.rewrite(tmp_path, manifest)
        with pytest.raises(ConfigurationError,
                           match=f"{re.escape(str(tmp_path))}: manifest records no states"):
            load_trajectory(tmp_path)
