import json

import pytest

from eulerlab.cli import main, parse_config, run, validate
from eulerlab.errors import ConfigurationError


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL_ENERGY = """
[experiment]
kind = energy_conservation
seed = 7

[grid]
n = 128

[synth]
kind = taylor_green
amplitude = 1.0

[solver]
dt = 1e-3
T = 0.05
snapshot_stride = 10
"""

BESOV = """
[experiment]
kind = besov_fit
seed = 3

[grid]
n = 256

[synth]
kind = lacunary
alpha = 0.5
j_max = 6

[sweep]
alpha = 0.5
p = 3.0
"""

UNIQUENESS = """
[experiment]
kind = uniqueness
seed = 5

[grid]
n = 64

[synth]
kind = taylor_green

[solver]
dt = 2e-3
T = 0.02
snapshot_stride = 2

[sweep]
epsilons = 0.5 0.25 0.125 0.0625
alpha = 0.6
p = 3.0
"""


# per-kind initial-data sections of the three certify kinds
CERTIFY_EXTRA = {
    "uniqueness": "",
    "inhom_uniqueness": "\n[density]\namplitude = 0.2\n",
    "boussinesq_uniqueness": "\n[buoyancy]\ng = 0.0 -1.0\ntheta_amplitude = 0.2\n",
}


def certify_config(kind, sweep=""):
    """UNIQUENESS run as ``kind``, with extra ``[sweep]`` lines."""
    text = UNIQUENESS.replace("kind = uniqueness", f"kind = {kind}")
    return text + sweep + CERTIFY_EXTRA[kind]


class TestParseAndValidate:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_ENERGY + "\nwibble = 3\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_ENERGY + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigurationError, match="unknown section"):
            parse_config(cfg)

    def test_unknown_experiment_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "[experiment]\nkind = teleportation\n\n[grid]\nn = 64\n"
        )
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            parse_config(cfg)

    def test_validate_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_ENERGY)
        assert validate(cfg) == 0
        out = capsys.readouterr().out
        assert "spacing" in out
        assert "epsilon_min" in out
        assert "cfl_dt_bound" in out

    def test_validate_power_of_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_ENERGY.replace("n = 128", "n = 7"))
        assert validate(cfg) == 1
        assert "power of two" in capsys.readouterr().err

    def test_validate_under_resolved_epsilon(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            UNIQUENESS.replace("epsilons = 0.5 0.25 0.125 0.0625",
                               "epsilons = 0.5 0.25 0.125 0.01"),
        )
        assert validate(cfg) == 1
        out = capsys.readouterr().out
        assert "below the admissible floor" in out
        assert "n >=" in out


class TestRun:
    def test_energy_conservation_minimal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_ENERGY)
        out = tmp_path / "out"
        assert run(cfg, output_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert report["relative_drift"] <= 1e-6
        assert (out / "energy.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "metadata.json").exists()
        assert (out / "snapshots" / "manifest.json").exists()

    def test_grid_7_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_ENERGY.replace("n = 128", "n = 7"))
        assert run(cfg, output_dir=tmp_path / "o") == 1
        assert "power of two" in capsys.readouterr().err

    def test_besov_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BESOV)
        out = tmp_path / "out"
        assert run(cfg, output_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["fitted_alpha"] - 0.5) <= 0.05
        assert (out / "shift_table.csv").exists()

    def test_uniqueness_identical_configs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, UNIQUENESS)
        out = tmp_path / "out"
        assert run(cfg, output_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "pass"
        assert all(e == 0.0 for e in report["series"]["E"])

    @pytest.mark.parametrize("kind", sorted(CERTIFY_EXTRA))
    def test_byte_identical_reports(self, tmp_path, kind):
        cfg = write_config(tmp_path, certify_config(kind))
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run(cfg, output_dir=out1) == 0
        assert run(cfg, output_dir=out2) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        report = json.loads((out1 / "report.json").read_text())
        extended = kind != "uniqueness"
        assert ("contraction" in report) == extended
        assert ("per_quantity" in report["hypothesis"]) == extended
        for key in ("budgets", "budget_route", "seminorm_series", "fitted_alpha_series"):
            assert key in report

    @pytest.mark.parametrize("kind, line", [
        ("inhom_uniqueness", "budget_route = convective"),
        ("inhom_uniqueness", "working_epsilon = 0.25"),
        ("boussinesq_uniqueness", "budget_route = trilinear"),
        ("boussinesq_uniqueness", "working_epsilon = 0.25"),
        ("uniqueness", "contraction_tolerance = 1e-300"),
        ("uniqueness", "slope_tolerance = 1e-300"),
        ("uniqueness", "budget_route = nonsense"),
    ])
    def test_sweep_key_the_kind_does_not_read_rejected(self, tmp_path, kind, line):
        """A [sweep] key the kind would ignore (or an unknown route) exits 1
        before anything runs."""
        cfg = write_config(tmp_path, certify_config(kind, line + "\n"))
        assert validate(cfg) == 1
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_hashless_fields(self, tmp_path):
        cfg = write_config(tmp_path, BESOV)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run(cfg, output_dir=out1) == 0
        assert run(cfg, output_dir=out2, seed_override=11) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["seed"] != r2["seed"]

    def test_main_entry(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_ENERGY)
        code = main(["run", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert code == 0
        assert "energy_conservation" in capsys.readouterr().out

    def test_env_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EULERLAB_OUT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, MINIMAL_ENERGY, name="myexp.ini")
        assert run(cfg) == 0
        assert (tmp_path / "root" / "myexp" / "report.json").exists()


class TestWeakResidualExperiment:
    def test_small_run(self, tmp_path, capsys):
        text = """
[experiment]
kind = weak_residual
seed = 2

[grid]
n = 64

[synth]
kind = taylor_green

[solver]
dt = 1e-3
T = 0.02
snapshot_stride = 2

[weak]
count = 3
kmax = 3
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(cfg, output_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_w1_residual"] <= 1e-6
        assert report["max_w2_residual"] <= 1e-10
