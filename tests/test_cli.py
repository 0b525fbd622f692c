import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

from eulerlab import cli
from eulerlab.besov import besov_seminorm
from eulerlab.cli import _KEYS, EXPERIMENTS, main, parse_config, run, validate
from eulerlab.errors import ConfigurationError
from eulerlab.grid_fields import VelocityField, make_grid, resample
from eulerlab.synth import SynthSpec, field_from_spec

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = sorted(ROOT.glob("demos/configs/*.ini"))

# the kind groups that the README's config table names in its "Read by" column
SCALING = {"commutator_scaling", "cet_scaling"}
EXTENDED = {"inhom_uniqueness", "boussinesq_uniqueness"}
CERTIFY = {"uniqueness"} | EXTENDED
README_GROUPS = {
    "all": set(EXPERIMENTS),
    "audits": {"besov_fit"} | SCALING,
    "scaling": SCALING,
    "certify": CERTIFY,
    "extended": EXTENDED,
    "solvers": {"energy_conservation", "weak_residual"} | CERTIFY,
}


def readme_key_table():
    """``(section, key) -> kinds`` as the README's config table lists them."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| Section | Key | Read by | Meaning (default) |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        section_cell, key_cell, kinds_cell = (c.strip() for c in line.split("|")[1:4])
        section = section_cell.strip("`[]") or section
        kinds = set().union(
            *(README_GROUPS.get(name, {name.strip("`")}) for name in kinds_cell.split(", "))
        )
        for key in re.findall(r"`(\w+)`", key_cell):
            rows[section, key] = kinds
    return rows


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


WEAK = MINIMAL_ENERGY.replace("energy_conservation", "weak_residual") + "\n[weak]\n"
COMMUTATOR = (BESOV.replace("besov_fit", "commutator_scaling")
              + "epsilons = 0.25 0.125 0.0625 0.03125\n")
# each tolerance key -> a config whose last section is the key's
TOLERANCE_CONFIGS = {
    "drift_tolerance": MINIMAL_ENERGY,
    "admissibility_tolerance": MINIMAL_ENERGY,
    "w1_tolerance": WEAK,
    "w2_tolerance": WEAK,
    "contraction_tolerance": UNIQUENESS.replace("= uniqueness", "= inhom_uniqueness"),
}
# Taylor-Green (speed 1) on 32^2 at dt = 0.05, above the CFL bound 0.5 h / 1 = 0.03125
ENERGY_CFL_BREACH = MINIMAL_ENERGY.replace("n = 128", "n = 32").replace(
    "dt = 1e-3\nT = 0.05\nsnapshot_stride = 10", "dt = 0.05\nT = 0.05")

# keys that no demo config sets, each kept for a reason
UNSET_KEYS = {
    ("grid", "dims"): "the field audits' dimension N, which the 2D solvers do not read",
    ("output", "dir"): "a deployment path, not a property of the experiment",
    ("output", "save_snapshots"): "the benchmark's ledgers_buoyancy workload sets it",
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

    @pytest.mark.parametrize("text, message", [
        pytest.param(MINIMAL_ENERGY.replace("n = 128\n", ""), "missing key 'n' in [grid]",
                     id="missing-grid-n"),
        pytest.param("kind = besov_fit\n" + BESOV, "config parse error", id="no-section"),
        # a B dt without a stride must divide A's cadence, 2 * 2e-3
        pytest.param(UNIQUENESS + "\n[solver_b]\ndt = 3e-3\n",
                     "solver_b.dt incompatible with the snapshot cadence", id="b-dt-off-cadence"),
    ])
    def test_unreadable_config_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(write_config(tmp_path, text))

    def test_besov_alpha_defaults_to_synth_alpha(self, tmp_path):
        """``besov_fit`` takes ``[sweep] alpha`` from ``[synth] alpha``, or
        0.5 when neither is set."""
        text = BESOV.replace("alpha = 0.5\np", "p").replace("alpha = 0.5", "alpha = 0.35")
        assert parse_config(write_config(tmp_path, text))["sweep", "alpha"] == 0.35
        text = text.replace("kind = lacunary\nalpha = 0.35\nj_max = 6", "kind = taylor_green")
        assert parse_config(write_config(tmp_path, text))["sweep", "alpha"] == 0.5

    def test_readme_table_names_every_key(self):
        """The README's config table lists exactly the key table's
        ``(section, key)`` pairs, each with the kinds that read it."""
        readers = {}
        for kind, keys in _KEYS.items():
            for section_key in keys:
                readers.setdefault(section_key, set()).add(kind)
        assert readme_key_table() == readers

    def test_every_key_is_set_by_a_demo_config(self):
        """Every key some kind reads is set by at least one demo config, or
        is one of the few ``UNSET_KEYS`` kept for a reason: a setting that no
        caller changes is a constant, not a key."""
        keys = {section_key for table in _KEYS.values() for section_key in table}
        demo_set = set()
        for path in DEMO_CONFIGS:
            parsed = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parsed.optionxform = str  # keep key case, as the runner does
            parsed.read_string(path.read_text())
            demo_set |= {(s, key) for s in parsed.sections() for key in parsed[s]}
        assert sorted(keys - demo_set) == sorted(UNSET_KEYS)

    def test_validate_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_ENERGY)
        assert validate(cfg) == 0
        out = capsys.readouterr().out
        assert "spacing" in out
        assert "epsilon_min" in out
        assert "cfl_dt_bound" in out

    def test_validate_cfl_bound_from_initial_speed(self, tmp_path, capsys):
        # lacunary data peak near 4x their amplitude, so the bound must come
        # from the synthesized field, not from [synth] amplitude
        text = (
            "[experiment]\nkind = energy_conservation\nseed = 7\n\n"
            "[grid]\nn = 512\n\n"
            "[synth]\nkind = lacunary\nalpha = 0.6\nj_max = 7\namplitude = 1.0\n\n"
            "[solver]\ndt = 1e-4\nT = 0.01\n"
        )
        assert validate(write_config(tmp_path, text)) == 0
        printed = dict(
            line.strip().split(" = ") for line in capsys.readouterr().out.splitlines()
            if " = " in line
        )
        grid = make_grid(2, 512)
        u = field_from_spec(SynthSpec("lacunary", alpha=0.6, j_max=7, seed=7), grid)
        assert u.max_speed() > 3.5
        assert float(printed["initial_max_speed"]) == u.max_speed()
        assert float(printed["cfl_dt_bound"]) == 0.5 * grid.spacing / u.max_speed()

    def test_validate_synthesizes_on_the_finer_leg(self, tmp_path, capsys):
        """A certify kind synthesizes its initial data on the finer leg, so
        ``validate`` accepts an octave that only B's grid resolves, as ``run``
        does, and prints the speed of the field the A leg starts from."""
        text = certify_config("uniqueness").replace(
            "kind = taylor_green", "kind = lacunary\nalpha = 0.6\nj_max = 5"
        ) + "\n[solver_b]\nn = 128\n"
        assert validate(write_config(tmp_path, text)) == 0
        printed = dict(
            line.strip().split(" = ") for line in capsys.readouterr().out.splitlines()
            if " = " in line
        )
        u0 = field_from_spec(SynthSpec("lacunary", alpha=0.6, j_max=5, seed=5), make_grid(2, 128))
        grid = make_grid(2, 64)
        speed = resample(u0, grid).max_speed()
        assert float(printed["initial_max_speed"]) == speed
        assert float(printed["cfl_dt_bound"]) == 0.5 * grid.spacing / speed

    def test_validate_every_demo_config(self, capsys):
        assert len(DEMO_CONFIGS) == 10
        for path in DEMO_CONFIGS:
            assert validate(path) == 0, path.name

    @pytest.mark.parametrize("text, section, bound", [
        pytest.param(ENERGY_CFL_BREACH, "solver", 0.03125, id="solver"),
        # A: dt 2e-3 on 64^2 (bound 0.015625); B: dt 0.01 on 128^2 (bound 0.0078125)
        pytest.param(UNIQUENESS.replace("snapshot_stride = 2", "snapshot_stride = 5")
                     + "\n[solver_b]\nn = 128\ndt = 0.01\n", "solver_b", 0.0078125,
                     id="solver_b"),
    ])
    def test_validate_rejects_a_cfl_breach(self, tmp_path, capsys, text, section, bound):
        """Each leg's ``dt`` is checked against the CFL bound at the initial
        speed on its own grid, as the run checks it before step 1."""
        cfg = write_config(tmp_path, text)
        assert validate(cfg) == 1
        diags = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("diagnostic:")]
        assert len(diags) == 1
        assert diags[0].startswith(f"diagnostic: [{section}] dt=")
        assert f"CFL bound {bound} " in diags[0]
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert "violates the CFL bound" in capsys.readouterr().err

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

    @pytest.mark.parametrize("eps", ["0", "-0.1"])
    def test_validate_nonpositive_epsilon(self, tmp_path, capsys, eps):
        """A nonpositive sweep epsilon is named as such: no floor hint with
        a negative n, and no division by zero."""
        cfg = write_config(tmp_path, UNIQUENESS.replace("0.0625", eps))
        assert validate(cfg) == 1
        out = capsys.readouterr().out
        assert f"epsilon {float(eps)} is not positive" in out
        assert "n >=" not in out


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

    def test_constant_flow_keeps_its_energy(self, tmp_path, capsys, monkeypatch):
        """The mean flow is conserved, so a constant flow keeps its kinetic
        energy, 2.0 on the torus of area 4, and its speed bounds dt: at
        dt = 0.05 on 32^2 the CFL bound 0.5 h / 1 = 0.03125 stops step 1.
        No synth kind is a constant flow, so the run's initial field is
        replaced by the unit flow along x1."""
        monkeypatch.setattr(cli, "field_from_spec", lambda spec, grid: VelocityField.from_arrays(
            grid, [np.ones(grid.shape), np.zeros(grid.shape)]))
        text = MINIMAL_ENERGY.replace("n = 128", "n = 32")
        out = tmp_path / "out"
        assert run(write_config(tmp_path, text), output_dir=out) == 0
        rows = (out / "energy.csv").read_text().splitlines()[1:]
        assert len(rows) == 6
        assert all(float(row.split(",")[1]) == 2.0 for row in rows)
        text = text.replace("dt = 1e-3\nT = 0.05\nsnapshot_stride = 10", "dt = 0.05\nT = 0.05")
        assert run(write_config(tmp_path, text), output_dir=tmp_path / "o") == 1
        assert "step 1 from t=0.0: dt=0.05 violates the CFL bound" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        pytest.param(ENERGY_CFL_BREACH, "step 1 from t=0.0: dt=0.05 violates", id="cfl"),
        pytest.param(MINIMAL_ENERGY.replace("n = 128", "n = 32").replace(
            "kind = taylor_green", "kind = lacunary\nalpha = 0.6\nj_max = 5"),
            "finest octave j_max=5 exceeds the dealiased band", id="octave"),
    ])
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys, text, message):
        """A run that fails in its body removes the output directory it
        created; a directory that was there before stays."""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(cfg, output_dir=out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        out.mkdir()
        assert run(cfg, output_dir=out) == 1
        assert out.is_dir()

    @pytest.mark.parametrize("text, section", [
        pytest.param(MINIMAL_ENERGY + "cfl = 0.5\n", "solver", id="solver"),
        pytest.param(certify_config("uniqueness", "[solver_b]\ncfl = 0.5\n"), "solver_b",
                     id="solver_b"),
    ])
    def test_cfl_is_not_a_key(self, tmp_path, capsys, text, section):
        """The CFL number is the constant ``solver.CFL``; no config sets it."""
        cfg = write_config(tmp_path, text)
        assert validate(cfg) == 1
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert f"unknown key 'cfl' in [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, section, key", [
        pytest.param(certify_config("uniqueness", "working_epsilon = 0.0625\n"), "sweep",
                     "working_epsilon", id="working_epsilon"),
        *(pytest.param(certify_config(kind, "certify_tolerance = 1e-6\n"), "sweep",
                       "certify_tolerance", id=f"certify_tolerance-{kind}")
          for kind in sorted(CERTIFY_EXTRA)),
        pytest.param(certify_config("uniqueness", "certify_tolerance = inf\n"), "sweep",
                     "certify_tolerance", id="certify_tolerance-inf"),
        *(pytest.param(COMMUTATOR + f"slope_tolerance = {value}\n", "sweep", "slope_tolerance",
                       id=f"slope_tolerance-{value}") for value in ("0.15", "nan", "-1")),
        pytest.param(WEAK + "window = linear\n", "weak", "window", id="window"),
        pytest.param(BESOV.replace("[synth]\n", "[synth]\nseed = 3\n"), "synth", "seed",
                     id="synth-seed"),
    ])
    def test_fixed_setting_is_not_a_key(self, tmp_path, capsys, text, section, key):
        """The budget's scale (the smallest epsilon), the certify tolerance
        (ten times the drift), the slope headroom (``SLOPE_TOLERANCE``), the
        weak-form window (cosine) and the synthesis seed (the experiment's)
        are fixed: a config that sets one exits 1 before anything runs."""
        cfg = write_config(tmp_path, text)
        assert validate(cfg) == 1
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.count(f"unknown key '{key}' in [{section}]") == 2

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        """A seed must be a nonnegative integer, from the config or from
        ``--seed-override``: a negative one exits 1, naming the seed, and
        leaves no output directory."""
        cfg = write_config(tmp_path, BESOV)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--seed-override", "-5", "--output-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "bad value for --seed-override: -5 (allowed: a nonnegative integer)" in err
        assert run(cfg, output_dir=out, seed_override=0) == 0

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
        lines = (out / "shift_table.csv").read_text().strip().splitlines()
        assert lines[0] == "xi_magnitude,lp_diff_norm,ratio"
        u = field_from_spec(SynthSpec("lacunary", alpha=0.5, j_max=6, seed=3), make_grid(2, 256))
        assert len(lines) == len(besov_seminorm(u, 0.5, 3.0).shift_table) + 1

    @pytest.mark.parametrize("alpha", ["", "alpha = 0.99\n"], ids=["fitted", "alpha-too-high"])
    @pytest.mark.parametrize("kind", sorted(SCALING))
    def test_scaling_kinds(self, tmp_path, capsys, kind, alpha):
        """A scaling run exits 0 on a passing slope fit and 2 otherwise, and
        writes one ``scaling.csv`` row per epsilon, the largest first."""
        text = (BESOV.replace("besov_fit", kind).replace("n = 256", "n = 64")
                .replace("j_max = 6", "j_max = 4").replace("alpha = 0.5\np", alpha + "p")
                + "epsilons = 0.125 0.5 0.25 0.0625\n")
        out = tmp_path / "out"
        code = run(write_config(tmp_path, text), output_dir=out)
        report = json.loads((out / "report.json").read_text())
        assert code == (0 if report["pass"] else 2)
        assert report["pass"] is not bool(alpha)
        lines = (out / "scaling.csv").read_text().strip().splitlines()
        assert lines[0] == "epsilon,magnitude,intercept"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.5, 0.25, 0.125, 0.0625]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == {"scaling": "scaling.csv", "report": "report.json"}

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

    @pytest.mark.parametrize("text", [
        pytest.param(certify_config("uniqueness", "[density]\namplitude = 0.2\n"),
                     id="density-amplitude-on-uniqueness"),
        *(pytest.param(certify_config(kind).replace("[grid]\n", "[grid]\ndims = 2\n"),
                       id=f"grid-dims-on-{kind}") for kind in sorted(CERTIFY_EXTRA)),
        pytest.param(MINIMAL_ENERGY + "\n[solver_b]\nn = 256\n",
                     id="solver_b-n-on-energy_conservation"),
        pytest.param(certify_config("inhom_uniqueness", "[weak]\ncount = 3\n"),
                     id="weak-count-on-inhom_uniqueness"),
        pytest.param(certify_config("uniqueness", "[output]\nsave_snapshots = 0\n"),
                     id="output-save_snapshots-on-uniqueness"),
        pytest.param(MINIMAL_ENERGY.replace("energy_conservation", "weak_residual")
                     + "drift_tolerance = 1e-6\n", id="solver-drift_tolerance-on-weak_residual"),
    ])
    def test_key_another_kind_reads_rejected(self, tmp_path, capsys, text):
        """A key that only other kinds read exits 1 before anything runs."""
        cfg = write_config(tmp_path, text)
        assert validate(cfg) == 1
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        assert "does not apply to kind" in capsys.readouterr().err

    @pytest.mark.parametrize("text, allowed", [
        pytest.param(certify_config("boussinesq_uniqueness").replace(
            "theta_amplitude = 0.2", "theta_amplitude = 0.2\ntheta_axis = 5"), "0, 1",
            id="theta_axis"),
        pytest.param(certify_config("boussinesq_uniqueness").replace("g = 0.0 -1.0", "g = -1.0"),
                     "two numbers", id="one-component-g"),
        pytest.param(certify_config("boussinesq_uniqueness").replace("g = 0.0 -1.0",
                                                                     "g = nan -1.0"),
                     "two numbers", id="non-finite-g"),
        pytest.param(MINIMAL_ENERGY.replace("dt = 1e-3", "dt = -1e-3"), "a positive number",
                     id="negative-dt"),
        pytest.param(MINIMAL_ENERGY.replace("T = 0.05", "T = inf"), "a positive number",
                     id="infinite-T"),
        pytest.param(MINIMAL_ENERGY + "drift_tolerance = inf\n", "a nonnegative number",
                     id="infinite-drift-tolerance"),
        pytest.param(UNIQUENESS.replace("alpha = 0.6", "alpha = 1.5"), "a number in (0, 1)",
                     id="certify-alpha-above-one"),
        pytest.param(BESOV.replace("alpha = 0.5\np", "alpha = 0\np"), "a number in (0, 1)",
                     id="besov-alpha-zero"),
        # besov_fit takes its [sweep] alpha from [synth] alpha
        *(pytest.param(BESOV.replace("alpha = 0.5\np", "p").replace(
            "kind = lacunary\nalpha = 0.5\nj_max = 6", f"kind = taylor_green\nalpha = {alpha}"),
            "a number in (0, 1)", id=f"synth-alpha-{alpha}") for alpha in ("1.5", "0")),
        pytest.param(BESOV.replace("seed = 3", "seed = -1"), "a nonnegative integer",
                     id="negative-seed"),
        # n 8 keeps a 4D grid small should the key accept it
        *(pytest.param(BESOV.replace("n = 256", f"n = 8\ndims = {dims}"), "2, 3",
                       id=f"dims-{dims}") for dims in (70, 4)),
        pytest.param(UNIQUENESS.replace("p = 3.0", "p = 0.5"), "a number >= 1",
                     id="certify-p-below-one"),
        pytest.param(WEAK + "count = 0\n", "a positive integer", id="zero-weak-count"),
        pytest.param(UNIQUENESS.replace("snapshot_stride = 2", "snapshot_stride = 0"),
                     "a positive integer", id="zero-stride"),
        pytest.param(certify_config("uniqueness", "[solver_b]\nsnapshot_stride = 0\n"),
                     "a positive integer", id="zero-b-stride"),
        pytest.param(WEAK + "count = -3\n", "a positive integer", id="negative-weak-count"),
    ])
    def test_bad_value_rejected_before_solving(self, tmp_path, capsys, text, allowed):
        """A value outside the key's allowed values exits 1 before anything
        runs, and the message names the allowed values."""
        cfg = write_config(tmp_path, text)
        assert validate(cfg) == 1
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "bad value for" in err
        assert f"(allowed: {allowed})" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("key", sorted(TOLERANCE_CONFIGS))
    def test_tolerance_must_be_nonnegative(self, tmp_path, capsys, key, value):
        """A NaN or negative tolerance is a configuration error naming the
        key, not a failed check at exit 2."""
        cfg = write_config(tmp_path, TOLERANCE_CONFIGS[key] + f"{key} = {value}\n")
        assert validate(cfg) == 1
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert f"bad value for '{key}'" in err
        assert "(allowed: a nonnegative number)" in err

    @pytest.mark.parametrize("kmax", [0, 11, 40])
    def test_weak_kmax_outside_the_band_rejected_before_solving(self, tmp_path, capsys, kmax):
        """The test functions' band must lie in [1, dealias_kmax]: at n = 32
        that is [1, 10], checked by validate and before run solves."""
        text = WEAK.replace("n = 128", "n = 32") + f"kmax = {kmax}\n"
        cfg = write_config(tmp_path, text)
        assert validate(cfg) == 1
        assert "[weak] kmax must lie in [1, 10] on n=32" in capsys.readouterr().out
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        assert "[weak] kmax must lie in [1, 10] on n=32" in capsys.readouterr().err
        assert validate(write_config(tmp_path, text.replace(f"kmax = {kmax}", "kmax = 10"))) == 0

    def test_convective_p_below_two_rejected_before_solving(self, tmp_path, capsys):
        """The convective route measures its commutator in L^(p/2): a p in
        [1, 2) fails validate and run, naming ``[sweep] p``, before anything
        is solved or written.  The pairing and the trilinear route take it."""
        scaling = COMMUTATOR
        convective = [scaling] + [certify_config(kind) for kind in sorted(CERTIFY_EXTRA)]
        for text in convective:
            cfg = write_config(tmp_path, text.replace("p = 3.0", "p = 1.5"))
            assert validate(cfg) == 1
            assert "[sweep] p 1.5 is below 2" in capsys.readouterr().out
            assert run(cfg, output_dir=tmp_path / "out") == 1
            assert not (tmp_path / "out").exists()
            assert "[sweep] p 1.5 is below 2" in capsys.readouterr().err
        trilinear = [scaling.replace("commutator_scaling", "cet_scaling"),
                     certify_config("uniqueness", "budget_route = trilinear\n")]
        for text in trilinear:
            assert validate(write_config(tmp_path, text.replace("p = 3.0", "p = 1.5"))) == 0

    @pytest.mark.parametrize("epsilons, problem", [
        pytest.param("0.5 0.25 0.125", "need at least 4 epsilons for a rate fit, got 3",
                     id="three-certify-epsilons"),
        pytest.param("0.5 0.25 0.125 0.125", "the sweep's epsilons must be distinct",
                     id="repeated-certify-epsilon"),
    ])
    def test_bad_sweep_rejected_before_solving(self, tmp_path, capsys, monkeypatch, epsilons,
                                               problem):
        """A sweep that parses but breaks a rule of ``_sweep_problems`` fails
        validate and run with a ``[sweep]`` diagnostic, and nothing runs."""
        import eulerlab.cli

        def no_run(*args, **kwargs):
            raise AssertionError("ran a certification with a bad sweep")

        monkeypatch.setattr(eulerlab.cli, "uniqueness_experiment", no_run)
        cfg = write_config(tmp_path, UNIQUENESS.replace("0.5 0.25 0.125 0.0625", epsilons))
        assert validate(cfg) == 1
        assert f"diagnostic: [sweep] {problem}" in capsys.readouterr().out
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        assert f"error: [sweep] {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("solver_b, message", [
        pytest.param("n = 64\ndt = 3e-3", "T=0.014 is not an integer multiple of dt=0.003",
                     id="b-dt-not-dividing-T"),
        pytest.param("n = 12", "n_per_axis must be a power of two >= 8, got 12",
                     id="b-n-not-a-power-of-two"),
    ])
    def test_bad_b_leg_rejected_before_solving(self, tmp_path, capsys, monkeypatch, solver_b,
                                               message):
        """A B leg that ``run`` could not integrate fails ``validate`` as
        well, and ``run`` fails before solving either leg."""
        import eulerlab.uniqueness

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a leg of a pair with a bad B leg")

        monkeypatch.setattr(eulerlab.uniqueness, "solve", no_solve)
        text = (UNIQUENESS.replace("n = 64", "n = 32").replace("T = 0.02", "T = 0.014")
                .replace("snapshot_stride = 2", "snapshot_stride = 3")
                + "\n[solver_b]\n")
        assert validate(write_config(tmp_path, text + "n = 64\n")) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, text + solver_b + "\n")
        assert validate(cfg) == 1
        assert message in "".join(capsys.readouterr())
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    def test_unordered_scaling_sweep_accepted(self, tmp_path):
        """Scaling sweeps run from the largest scale whatever the order they
        are given in, as the certifications' sweeps do."""
        text = COMMUTATOR.replace(
            "0.25 0.125 0.0625 0.03125", "0.0625 0.25 0.03125 0.125")
        assert validate(write_config(tmp_path, text)) == 0

    def test_percent_in_value_read_literally(self, tmp_path, capsys):
        """A '%' is a plain character in a value, not an interpolation."""
        cfg = write_config(tmp_path, MINIMAL_ENERGY + f"\n[output]\ndir = {tmp_path}/out%1\n")
        assert parse_config(cfg)["output", "dir"] == f"{tmp_path}/out%1"
        assert validate(cfg) == 0
        assert run(cfg) == 0
        assert (tmp_path / "out%1" / "report.json").exists()

    def test_differing_cadences_rejected_before_solving(self, tmp_path, capsys):
        """B's dt * stride must match A's; both set by hand are checked at
        parse time, before any output directory exists."""
        text = (ROOT / "demos/configs/inhom_uniqueness.ini").read_text().replace(
            "[solver_b]\nn = 128\ndt = 1e-3\nsnapshot_stride = 20",
            "[solver_b]\nn = 128\ndt = 1e-3\nsnapshot_stride = 30")
        cfg = write_config(tmp_path, text)
        assert validate(cfg) == 1
        assert run(cfg, output_dir=tmp_path / "out") == 1
        assert not (tmp_path / "out").exists()
        assert "snapshot cadences differ: 0.02 vs 0.03" in capsys.readouterr().err

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

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_ENERGY)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

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

    def test_dynamic_demo_fails_at_a_coarse_stride(self, tmp_path):
        """The evolving-data demo passes at its stride of 2; at stride 5 the
        time reconstruction leaves a momentum residual (about 1.4e-6) above
        the 1e-6 gate, and the run exits 2."""
        text = (ROOT / "demos/configs/weak_residual_dynamic.ini").read_text()
        assert "snapshot_stride = 2\n" in text
        cfg = write_config(tmp_path, text.replace("snapshot_stride = 2\n", "snapshot_stride = 5\n"))
        out = tmp_path / "out"
        assert run(cfg, output_dir=out) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        assert 1e-6 < report["max_w1_residual"] < 2e-6
        assert report["max_w2_residual"] <= 1e-10
