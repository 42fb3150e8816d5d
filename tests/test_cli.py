"""Command-line and scenario-runner tests: outputs, round trips, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qubitfr
from qubitfr import scenarios
from qubitfr.channel import PulseChannelParams, invert_pump_probability
from qubitfr.cli import main
from qubitfr.core import PhaseRotatingDrive
from qubitfr.scenarios import (ConfigError, ScenarioConfig, get_preset,
                               load_config, run_scenario, with_overrides)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_python(*args):
    """A fresh interpreter that imports qubitfr from this tree."""
    src = str(Path(qubitfr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def run_cli(*args):
    return run_python("-m", "qubitfr.cli", *args)


def small_phase_config(**overrides):
    base = dict(
        name="case", kind="fr", drive_family="phase",
        omega0=2.0 * math.pi * 0.8e-3, theta=2.0 * math.pi / 616.0,
        tau=616.0, t_f_grid=tuple(n * 616.0 for n in range(4)),
        beta=0.0, p_absorb=0.25, p_pump=0.45,
        mode="deterministic", n_trajectories=2000, master_seed=99)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            small_phase_config(kind="sideways")

    def test_amplitude_requires_tau_a(self):
        with pytest.raises(ConfigError, match="tau_a"):
            small_phase_config(drive_family="amplitude", theta=None)

    def test_pump_or_target_required(self):
        with pytest.raises(ConfigError):
            small_phase_config(p_pump=None)

    def test_bloch_kind_is_deterministic_only(self):
        with pytest.raises(ConfigError):
            small_phase_config(kind="bloch", mode="both")

    def test_grid_must_ascend(self):
        with pytest.raises(ConfigError):
            small_phase_config(t_f_grid=(616.0, 0.0))

    def test_round_trip_through_dict(self):
        cfg = small_phase_config()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        data = small_phase_config().to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("master_seed", -5), ("master_seed", 2**64), ("master_seed", True),
        ("master_seed", 7.0), ("n_trajectories", True), ("n_trajectories", 10.0)])
    def test_seed_and_counts_must_be_exact_ints_in_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_phase_config(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("name", "a/b"), ("name", "a\\b"), ("name", ".."), ("name", "."),
        ("prefix", "../up"), ("prefix", "/abs"), ("name", "x" * 201),
        ("prefix", "x" * 201), ("name", "\u00e9" * 101),
        ("name", "a\ud800b")])
    def test_file_names_must_be_plain(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_phase_config(**{field: value})

    def test_pulse_count_is_capped(self):
        cap = scenarios.MAX_PULSES
        with pytest.raises(ConfigError, match="pulses"):
            small_phase_config(tau=1e-9, t_f_grid=(0.0, 1.0))
        with pytest.raises(ConfigError, match="pulses"):
            small_phase_config(t_f_grid=(0.0, (cap + 1) * 616.0))
        with pytest.raises(ConfigError, match="pulses"):
            small_phase_config(tau=1e-300, t_f_grid=(0.0, 1e300))
        assert small_phase_config(t_f_grid=(0.0, cap * 616.0 + 300.0))
        # Rabi scenarios fire no pulses, whatever tau is.
        assert small_phase_config(kind="rabi", tau=1e-9, t_f_grid=(0.0, 1.0))

    def test_sampling_work_is_capped(self, tmp_path, capsys):
        # Validation alone decides; no trajectory is started here.
        cap = scenarios.MAX_SAMPLED_STEPS
        # Four grid points with 0..3 pulses; "final" samples only the last.
        assert small_phase_config(n_trajectories=cap // 8)
        with pytest.raises(ConfigError, match="n_trajectories"):
            small_phase_config(n_trajectories=cap // 8 + 1)
        with pytest.raises(ConfigError, match="n_trajectories"):
            small_phase_config(mc_grid="all", n_trajectories=cap // 8)
        with pytest.raises(ConfigError, match="n_trajectories"):
            with_overrides(get_preset("fig6e"), n_trajectories=10**15)
        assert main(["run", "fig6e", "--trajectories", str(10**15),
                     "--outdir", str(tmp_path)]) == 2
        assert "n_trajectories" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        for cfg in scenarios.PRESETS.values():
            modes = ("deterministic",) if cfg.kind == "bloch" else scenarios.MODES
            for mode in modes:
                assert with_overrides(cfg, mode=mode, mc_grid="all")

    @pytest.mark.parametrize("field,value", [
        ("tau", math.nan), ("beta", -math.inf), ("p_absorb", "0.25"),
        ("omega0", True), ("t_f_grid", (0.0, "616"))])
    def test_floats_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_phase_config(**{field: value})

    def test_extreme_seeds_accepted(self):
        assert small_phase_config(master_seed=0).master_seed == 0
        assert small_phase_config(master_seed=2**64 - 1).master_seed == 2**64 - 1

    def test_with_overrides_revalidates(self):
        cfg = small_phase_config()
        assert with_overrides(cfg, master_seed=7).master_seed == 7
        with pytest.raises(ConfigError):
            with_overrides(cfg, mode="bogus")


class TestResolve:
    def test_pump_inversion_failure_is_config_error(self):
        with pytest.raises(ConfigError, match="inversion"):
            scenarios.resolve(small_phase_config(
                p_pump=None, target_upper_population=0.9))

    def test_inversion_requires_absorption(self):
        with pytest.raises(ConfigError, match="inversion"):
            scenarios.resolve(small_phase_config(
                p_pump=None, target_upper_population=0.2, p_absorb=0.0))

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5])
    def test_target_outside_unit_interval_is_config_error(self, target):
        with pytest.raises(ConfigError, match="inversion"):
            scenarios.resolve(small_phase_config(
                p_pump=None, target_upper_population=target))

    def test_derived_block_reports_channel_quantities(self):
        res = scenarios.resolve(get_preset("fig5c"))
        d = res.derived
        assert d["p_pump"] == pytest.approx(0.4498, abs=5e-4)
        assert d["p_up_infinity"] == pytest.approx(0.138, abs=1e-9)
        assert d["beta_r_gap"] == pytest.approx(
            math.log((1.0 - 0.138) / 0.138), abs=1e-9)
        assert d["k_factor"] + d["k_factor_projective"] == pytest.approx(2.0)

    def test_presets_all_resolve(self):
        for name in scenarios.PRESETS:
            res = scenarios.resolve(get_preset(name))
            assert 0.0 <= res.channel.p_pump <= 1.0


class TestRunScenario:
    def test_writes_csv_and_manifest(self, tmp_path):
        manifest = run_scenario(small_phase_config(), outdir=tmp_path)
        assert (tmp_path / "case.csv").exists()
        assert (tmp_path / "case_manifest.json").exists()
        on_disk = json.loads((tmp_path / "case_manifest.json").read_text())
        assert on_disk["scenario"] == "case"
        assert on_disk["csv_files"] == ["case.csv"]
        assert manifest["derived"]["p_pump"] == 0.45
        rows = read_rows(tmp_path / "case.csv")
        assert len(rows) == 4
        assert rows[0]["mode"] == "deterministic"
        assert float(rows[0]["fr_value"]) == pytest.approx(1.0)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "case.csv", "case_manifest.json"]

    def test_longest_prefix_fits_the_file_system(self, tmp_path):
        prefix = "p" * scenarios.MAX_NAME_LENGTH
        run_scenario(small_phase_config(prefix=prefix), outdir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{prefix}.csv", f"{prefix}_manifest.json"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        run_scenario(small_phase_config(), outdir=tmp_path)
        before = (tmp_path / "case.csv").read_bytes()

        def fail(value):
            raise OSError("synthetic write failure")

        monkeypatch.setattr(scenarios, "_fmt", fail)
        with pytest.raises(OSError, match="synthetic"):
            run_scenario(small_phase_config(beta=0.5), outdir=tmp_path)
        assert (tmp_path / "case.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "case.csv", "case_manifest.json"]

    def test_deterministic_rerun_is_byte_identical(self, tmp_path):
        run_scenario(small_phase_config(), outdir=tmp_path / "a")
        run_scenario(small_phase_config(), outdir=tmp_path / "b")
        assert (tmp_path / "a/case.csv").read_bytes() == \
            (tmp_path / "b/case.csv").read_bytes()

    def test_manifest_reproduces_run_byte_identically(self, tmp_path):
        cfg = small_phase_config(mode="both", n_trajectories=1500)
        first = run_scenario(cfg, outdir=tmp_path / "a")
        reloaded = load_config(first["manifest_path"])
        assert reloaded == cfg
        run_scenario(reloaded, outdir=tmp_path / "b")
        assert (tmp_path / "a/case.csv").read_bytes() == \
            (tmp_path / "b/case.csv").read_bytes()

    def test_manifest_with_thread_count_reproduces_run(self, tmp_path):
        # Earlier versions wrote the sampler's thread count into the
        # manifest; loading one drops that key and reproduces the CSV.
        cfg = small_phase_config(mode="both", n_trajectories=1500)
        first = run_scenario(cfg, outdir=tmp_path / "a")
        path = Path(first["manifest_path"])
        manifest = json.loads(path.read_text())
        manifest["scenario_config"]["workers"] = 4
        path.write_text(json.dumps(manifest))
        assert load_config(path) == cfg
        run_scenario(path, outdir=tmp_path / "b")
        assert (tmp_path / "a/case.csv").read_bytes() == \
            (tmp_path / "b/case.csv").read_bytes()

    def test_montecarlo_rows_follow_deterministic_rows(self, tmp_path):
        cfg = small_phase_config(mode="both", n_trajectories=1500)
        run_scenario(cfg, outdir=tmp_path)
        rows = read_rows(tmp_path / "case.csv")
        assert [r["mode"] for r in rows] == ["deterministic"] * 4 + \
            ["montecarlo"]
        mc = rows[-1]
        assert float(mc["t_f_ns"]) == pytest.approx(3 * 616.0)
        assert float(mc["err_fr_value"]) > 0.0

    def test_env_var_sets_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(scenarios.OUTDIR_ENV, str(tmp_path / "from_env"))
        run_scenario(small_phase_config())
        assert (tmp_path / "from_env" / "case.csv").exists()

    def test_bloch_rows_have_arc_structure(self, tmp_path):
        run_scenario(with_overrides(get_preset("fig2bcd"),
                                    t_f_grid=(0.0, 410.0, 820.0)),
                     outdir=tmp_path)
        rows = read_rows(tmp_path / "fig2bcd.csv")
        assert {r["initial_state"] for r in rows} == {"up", "down"}
        flagged = [r for r in rows if r["post_pulse"] == "1"]
        assert len(flagged) == 2 * 2  # one per pulse and start state
        assert all(abs(float(r["ry"])) < 1e-12 for r in rows
                   if r["initial_state"] == "up")

    def test_energetics_first_law_column_is_tiny(self, tmp_path):
        cfg = with_overrides(get_preset("fig3a"),
                             t_f_grid=tuple(n * 205.0 for n in range(9)))
        run_scenario(cfg, outdir=tmp_path)
        rows = read_rows(tmp_path / "fig3a.csv")
        assert all(abs(float(r["first_law_residual"])) < 1e-9 for r in rows)
        assert float(rows[-1]["mean_heat"]) > 0.0

    def test_rabi_rows_carry_closed_form_column(self, tmp_path):
        cfg = with_overrides(get_preset("fig5a"),
                             t_f_grid=(0.0, 154.0, 308.0, 616.0))
        run_scenario(cfg, outdir=tmp_path)
        rows = read_rows(tmp_path / "fig5a.csv")
        assert "closed_form_p_up_given_up" in rows[0]
        for row in rows:
            assert float(row["p_up_given_up"]) == pytest.approx(
                float(row["closed_form_p_up_given_up"]), abs=1e-12)
        assert float(rows[-1]["p_up_given_up"]) == pytest.approx(1.0)

    def test_compute_failures_map_to_contract_errors(self, tmp_path,
                                                     monkeypatch):
        def boom(res):
            raise ValueError("synthetic numeric failure")

        monkeypatch.setitem(scenarios._ROW_BUILDERS, "fr", boom)
        with pytest.raises(scenarios.NumericalContractError):
            run_scenario(small_phase_config(), outdir=tmp_path)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("value", ["5", '["name"]'])
    def test_manifest_config_must_be_an_object(self, tmp_path, value):
        path = tmp_path / "manifest.json"
        path.write_text('{"scenario_config": ' + value + "}")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)


class TestCli:
    def test_presets_lists_catalog(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in scenarios.PRESETS:
            assert name in out

    def test_run_preset(self, tmp_path, capsys):
        code = main(["run", "fig4a", "--outdir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig4a.csv" in out
        assert (tmp_path / "fig4a_manifest.json").exists()

    def test_run_config_file_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "case.json"
        cfg_path.write_text(json.dumps(small_phase_config().to_dict()))
        code = main(["run", str(cfg_path), "--outdir", str(tmp_path),
                     "--mode", "both", "--trajectories", "1200",
                     "--seed", "31", "--mc-grid", "all"])
        assert code == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "case_manifest.json").read_text())
        sc = manifest["scenario_config"]
        assert (sc["mode"], sc["n_trajectories"], sc["master_seed"],
                sc["mc_grid"]) == ("both", 1200, 31, "all")
        assert "workers" not in sc

    def test_workers_option_is_gone(self, tmp_path):
        proc = run_cli("run", "fig6e", "--workers", "2", "--outdir", str(tmp_path))
        assert proc.returncode == 2
        assert "--workers" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_unknown_preset_or_file_is_config_error(self, tmp_path, capsys):
        assert main(["run", "no_such_preset", "--outdir", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = small_phase_config().to_dict()
        data["kind"] = "sideways"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad), "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("case", ["directory", "not_utf8", "huge_integer"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, case):
        path = tmp_path / "cfg.json"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b'{"name": "\xff\xfe"}')
        else:
            path.write_text('{"n_trajectories": ' + "9" * 5000 + "}")
        outdir = tmp_path / "out"
        proc = run_cli("run", str(path), "--outdir", str(outdir))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not outdir.exists()

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_out_of_range_seed_is_config_error(self, tmp_path, seed):
        proc = run_cli("run", "fig6e", "--mode", "montecarlo", "--seed", seed,
                       "--outdir", str(tmp_path))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "master_seed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("overrides", [
        {"omega0": -1}, {"theta": -1}, {"beta": math.inf},
        {"target_upper_population": "0.1"}, {"t_f_grid": [0.0, math.nan]},
        {"tau": math.nan}], ids=["omega0", "theta", "beta", "target",
                                 "t_f_grid", "tau"])
    def test_bad_config_values_are_config_errors(self, tmp_path, overrides):
        cfg_path = tmp_path / "bad.json"
        data = small_phase_config().to_dict()
        data.update(overrides)
        cfg_path.write_text(json.dumps(data))
        proc = run_cli("run", str(cfg_path), "--outdir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", [("name", "../evil_escape"),
                                             ("prefix", "../evil_prefix")])
    def test_outputs_stay_inside_outdir(self, tmp_path, field, value):
        cfg_path = tmp_path / "cfg" / "escape.json"
        cfg_path.parent.mkdir()
        data = small_phase_config().to_dict()
        data[field] = value
        cfg_path.write_text(json.dumps(data))
        outdir = tmp_path / "a" / "out"
        proc = run_cli("run", str(cfg_path), "--outdir", str(outdir))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        written = {p for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {cfg_path}

    def test_huge_pulse_count_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "huge.json"
        data = small_phase_config().to_dict()
        data.update(tau=1e-9, t_f_grid=[0.0, 1.0])
        cfg_path.write_text(json.dumps(data))
        proc = run_cli("run", str(cfg_path), "--outdir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "pulses" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["long_name", "outdir_is_file"])
    def test_output_path_errors_are_config_errors(self, tmp_path, case):
        data = small_phase_config().to_dict()
        outdir = tmp_path / "out"
        if case == "long_name":
            data["name"] = "n" * 300
        else:
            outdir.write_text("not a directory")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        proc = run_cli("run", str(cfg_path), "--outdir", str(outdir))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            ["cfg.json"] + (["out"] if case == "outdir_is_file" else []))

    def test_largest_seed_runs(self, tmp_path, capsys):
        assert main(["run", "fig6e", "--mode", "montecarlo",
                     "--seed", str(2**64 - 1), "--trajectories", "200",
                     "--outdir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fig6e_manifest.json").read_text())
        assert manifest["scenario_config"]["master_seed"] == 2**64 - 1
        rows = read_rows(tmp_path / "fig6e.csv")
        assert [r["mode"] for r in rows] == ["montecarlo"]

    def test_contract_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(res):
            raise ValueError("synthetic numeric failure")

        monkeypatch.setitem(scenarios._ROW_BUILDERS, "fr", boom)
        assert main(["run", "fig4a", "--outdir", str(tmp_path)]) == 3
        assert "contract" in capsys.readouterr().err

    def test_invert_matches_direct_inversion(self, capsys):
        assert main(["invert", "--target", "0.138", "--tau-theta", "616",
                     "--p-absorb", "0.25"]) == 0
        out = capsys.readouterr().out
        drive = PhaseRotatingDrive(2.0 * math.pi * 0.8e-3,
                                   2.0 * math.pi / 616.0)
        expected = invert_pump_probability(drive, 0.25, 616.0, 0.138)
        printed = float(out.splitlines()[0].split()[1])
        assert printed == pytest.approx(expected, abs=1e-15)
        assert "beta_r * gap" in out

    def test_invert_rejects_silly_targets(self, capsys):
        assert main(["invert", "--target", "0.9",
                     "--tau-theta", "616"]) == 2
        assert main(["invert", "--target", "0.1",
                     "--tau-theta", "-4"]) == 2
        capsys.readouterr()

    def test_invert_without_absorption_is_config_error(self):
        proc = run_cli("invert", "--target", "0.138", "--tau-theta", "616",
                       "--p-absorb", "0")
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_import_loads_no_scipy():
    proc = run_python("-c", "import qubitfr, sys; print(sorted(m for m in "
                      "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
