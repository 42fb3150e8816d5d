"""Command-line and scenario-runner tests: outputs, round trips, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import qubitfr
from qubitfr import protocol, scenarios
from qubitfr.channel import invert_pump_probability
from qubitfr.cli import main
from qubitfr.core import PhaseRotatingDrive
from qubitfr.scenarios import (ConfigError, ScenarioConfig, get_preset,
                               load_config, run_scenario, with_overrides)
from output_digest import SAMPLED_ARGS, strict_json


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path):
    """A written manifest, parsed as strict JSON: ``Infinity`` or ``NaN``
    raises ValueError naming the file."""
    return strict_json(Path(path).read_text(encoding="utf-8"), str(path))


def run_python(*args, env=None):
    """A fresh interpreter that imports qubitfr from this tree, with the
    variables in ``env`` added to its environment."""
    src = str(Path(qubitfr.__file__).resolve().parent.parent)
    env = {**os.environ, **(env or {})}
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

    @pytest.mark.parametrize("grid", [5, "0", {}, None])
    def test_grid_must_be_a_list(self, grid):
        data = small_phase_config().to_dict()
        data["t_f_grid"] = grid
        with pytest.raises(ConfigError, match="t_f_grid must be a list"):
            ScenarioConfig.from_dict(data)

    def test_rabi_kind_needs_the_phase_drive(self):
        # Its closed-form column is the rotating drive's; an amplitude
        # drive has no theta to evaluate it with.
        with pytest.raises(ConfigError, match="rabi scenarios need the phase drive"):
            small_phase_config(kind="rabi", drive_family="amplitude", tau_a=616.0)

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

    def test_grid_length_is_capped(self, tmp_path, capsys):
        # Validation alone decides; no grid point is run here.
        cap = scenarios.MAX_GRID_POINTS
        assert small_phase_config(t_f_grid=[0.0] * cap)
        message = f"t_f_grid has {cap + 1} points; at most {cap} are allowed"
        with pytest.raises(ConfigError, match=message):
            small_phase_config(t_f_grid=[0.0] * (cap + 1))
        cfg_path = tmp_path / "long_grid.json"
        cfg_path.write_text(json.dumps(
            dict(get_preset("fig5d").to_dict(), t_f_grid=[0.0] * (cap + 1))))
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

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
        # Past the float range the step count still formats.
        cfg_path = tmp_path / "huge_count.json"
        cfg_path.write_text(json.dumps(
            dict(get_preset("fig6e").to_dict(), n_trajectories=10**308)))
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
        assert "n_trajectories" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        for cfg in scenarios.PRESETS.values():
            modes = ("deterministic",) if cfg.kind == "bloch" else scenarios.MODES
            for mode in modes:
                assert with_overrides(cfg, mode=mode, mc_grid="all")

    @pytest.mark.parametrize("field,value", [
        ("tau", math.nan), ("beta", -math.inf), ("p_absorb", "0.25"),
        ("omega0", True), ("t_f_grid", (0.0, "616")),
        *(pytest.param(field, value, id=f"{field}-huge_int")
          for field, value in [("omega0", 10**400), ("tau", 10**400),
                               ("beta", 10**400), ("p_pump", 10**400),
                               ("t_f_grid", (0.0, 10**400))])])
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
        # The k-factor closed form lands near the exact channel inversion.
        assert d["p_pump_closed_form"] == pytest.approx(d["p_pump"], abs=5e-4)
        assert not any(key.endswith("_projective") for key in d)

    def test_presets_all_resolve(self):
        for name in scenarios.PRESETS:
            res = scenarios.resolve(get_preset(name))
            assert 0.0 <= res.channel.p_pump <= 1.0


class TestRunScenario:
    def test_writes_csv_and_manifest(self, tmp_path):
        manifest = run_scenario(small_phase_config(), outdir=tmp_path)
        assert (tmp_path / "case.csv").exists()
        assert (tmp_path / "case_manifest.json").exists()
        on_disk = read_manifest(tmp_path / "case_manifest.json")
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

        class Unwritable:
            def __str__(self):
                raise OSError("synthetic write failure")

        real = scenarios.table

        def rows_ending_in_an_unwritable_cell(res):
            header, rows = real(res)
            return header, rows[:-1] + [rows[-1] + [Unwritable()]]

        monkeypatch.setattr(scenarios, "table", rows_ending_in_an_unwritable_cell)
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
        manifest = read_manifest(path)
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
        def boom(atoms, gamma):
            raise ValueError("synthetic numeric failure")

        monkeypatch.setattr(protocol, "fr_functional", boom)
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

    @pytest.mark.parametrize("mode", ["deterministic", "montecarlo", "both"])
    def test_manifest_records_rng_layout_when_sampling(self, tmp_path, mode):
        # The package version is read from the package, so a checkout that
        # is not installed records it too; numpy's only where the sampler ran.
        import numpy

        manifest = run_scenario(small_phase_config(mode=mode, n_trajectories=200),
                                outdir=tmp_path)
        on_disk = read_manifest(manifest["manifest_path"])
        if mode == "deterministic":
            assert "rng_layout" not in on_disk
            assert on_disk["versions"] == {"qubitfr": "0.1.0"}
        else:
            assert on_disk["rng_layout"] == 3
            assert on_disk["versions"] == {"qubitfr": "0.1.0",
                                           "numpy": numpy.__version__}

    def test_deterministic_manifest_without_layout_loads(self, tmp_path):
        manifest = run_scenario(small_phase_config(), outdir=tmp_path)
        path = Path(manifest["manifest_path"])
        assert "rng_layout" not in read_manifest(path)
        assert load_config(path) == small_phase_config()

    def test_plain_sampling_config_needs_no_layout(self, tmp_path):
        # Only a manifest pins the realizations of a run; a config file
        # asks for a fresh run with this version's layout.
        cfg = small_phase_config(mode="both")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("layout", [None, 1, 2, "3"],
                             ids=["absent", "1", "2", "string"])
    def test_manifest_of_another_rng_layout_is_rejected(self, tmp_path, layout):
        # A sampled manifest of another layout cannot be reproduced, so
        # `run` refuses it with exit 2 before anything is written.
        cfg = small_phase_config(mode="both", n_trajectories=200)
        path = Path(run_scenario(cfg, outdir=tmp_path / "first")["manifest_path"])
        manifest = read_manifest(path)
        if layout is None:
            del manifest["rng_layout"]
        else:
            manifest["rng_layout"] = layout
        path.write_text(json.dumps(manifest))
        outdir = tmp_path / "out"
        outdir.mkdir()
        proc = run_cli("run", str(path), "--outdir", str(outdir))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert ("no rng_layout" if layout is None
                else f"rng_layout {layout!r}") in proc.stderr
        assert "samples only with rng_layout 3" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not list(outdir.iterdir())


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
        manifest = read_manifest(tmp_path / "case_manifest.json")
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
        {"tau": math.nan}, {"omega0": 10**400}, {"tau": 10**400},
        {"beta": 10**400}, {"p_pump": 10**400}, {"t_f_grid": [0.0, 10**400]},
        {"mode": "montecarlo", "n_trajectories": 10**308},
        {"kind": "rabi", "drive_family": "amplitude", "tau_a": 616.0}],
        ids=["omega0", "theta", "beta", "target", "t_f_grid", "tau",
             "huge_int_omega0", "huge_int_tau", "huge_int_beta",
             "huge_int_p_pump", "huge_int_t_f_grid", "huge_n_trajectories",
             "rabi_on_amplitude"])
    def test_bad_config_values_are_config_errors(self, tmp_path, overrides):
        cfg_path = tmp_path / "bad.json"
        data = small_phase_config().to_dict()
        data.update(overrides)
        cfg_path.write_text(json.dumps(data))
        proc = run_cli("run", str(cfg_path), "--outdir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("configuration error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"t_f_grid": [float(n) for n in range(99_999)] + [math.nan]},
         "t_f_grid must be a list of finite numbers; entry 99999 is nan"),
        ({"kind": "k" * 10**5}, "unknown kind 'kkk"),
        ({"omega0": [1.0] * 10**5}, "omega0 must be a finite number, got [1.0, "),
        ({"name": "a/" * 50_000}, "name must be a plain file name"),
        ({"master_seed": "1" * 10**5}, "master_seed must be an integer, got '111")],
        ids=["nan_in_long_grid", "long_kind", "long_omega0", "long_name",
             "long_seed_string"])
    def test_huge_config_values_give_short_messages(self, tmp_path, capsys,
                                                    overrides, message):
        cfg_path = tmp_path / "huge_value.json"
        cfg_path.write_text(json.dumps({**small_phase_config().to_dict(),
                                        **overrides}))
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"configuration error: {message}")
        assert len(err.encode()) < 300, len(err.encode())

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
        manifest = read_manifest(tmp_path / "fig6e_manifest.json")
        assert manifest["scenario_config"]["master_seed"] == 2**64 - 1
        rows = read_rows(tmp_path / "fig6e.csv")
        assert [r["mode"] for r in rows] == ["montecarlo"]

    def test_contract_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(atoms, gamma):
            raise ValueError("synthetic numeric failure")

        monkeypatch.setattr(protocol, "fr_functional", boom)
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

    @pytest.mark.parametrize("preset,overrides,field", [
        ("fig6e", {"theta": 1e-320, "p_pump": 0.3,
                   "target_upper_population": None}, "theta"),
        ("fig6e", {"theta": 1e308}, "theta"),
        ("fig5a", {"theta": 1e306}, "theta"),
        ("fig4b", {"tau_a": 1e-320}, "tau_a"),
        ("fig6e", {"omega0": 1e307}, "omega0"),
        ("fig4b", {"omega0": 1e306}, "omega0"),
        ("fig6e", {"theta": 1e308, "t_f_grid": [0.0]}, "theta"),
        ("fig4b", {"beta": 1e306}, "beta"),
        ("fig6e", {"beta": 1e306}, "beta"),
        ("fig5b", {"beta": 1e306}, "beta"),
        ("fig4b", {"beta": -1e306}, "beta"),
        # |beta| gap = 700 passes alone; beta_r gap = 11.5 at this plateau
        # takes |beta - beta_r| gap past 709.78.
        ("fig6e", {"omega0": 0.005, "theta": 1.0, "tau": 2.0 * math.pi,
                   "t_f_grid": [0.0, 2.0 * math.pi], "beta": -700.0,
                   "target_upper_population": 1e-5}, "beta"),
    ], ids=["period", "phase_grid", "phase_rabi", "tau_a", "omega0_phase",
            "omega0_amplitude", "phase_tau", "beta_fr_amplitude",
            "beta_fr_phase", "beta_conditional", "beta_negative",
            "beta_minus_beta_r"])
    def test_overflowing_drive_phase_is_config_error(self, tmp_path, capsys,
                                                     preset, overrides, field):
        data = get_preset(preset).to_dict()
        data.update(overrides)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} = "), err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("preset,field,value", [
        ("fig4b", "theta", 0.01),
        ("fig4b", "target_upper_population", 0.3),
        ("fig6e", "tau_a", 616.0),
    ])
    def test_field_the_drive_ignores_is_config_error(self, tmp_path, capsys,
                                                     preset, field, value):
        # Each used to resolve and run with the field neither used nor reported.
        with pytest.raises(ConfigError, match=f"^{field} = {value!r} has no use"):
            with_overrides(get_preset(preset), **{field: value})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**get_preset(preset).to_dict(),
                                        field: value}))
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {field} = "), captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("drive_args,field", [
        (["--theta", "1e-320"], "theta = 1e-320"),
        (["--theta", "1", "--omega0", "1e308"], "omega0 = "),
    ], ids=["period", "dressed_phase"])
    def test_invert_with_overflowing_period_is_config_error(self, capsys,
                                                            drive_args, field):
        assert main(["invert", "--target", "0.138", *drive_args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {field}")
        assert captured.out == ""

    def test_degenerate_channel_is_config_error(self, tmp_path, capsys):
        # At theta = 1e308 the period map leaves rz alone, and the inverted
        # pump of 0 conserves it too: the fixed point is not unique.
        message = ("configuration error: pump inversion failed: "
                   "p_absorb = 0.25, p_pump = 0.0, tau = ")
        assert main(["invert", "--target", "0.138", "--theta", "1e308",
                     "--omega0", "0.005"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message), captured.err
        assert "unique fixed point" in captured.err
        assert captured.out == ""
        tau = PhaseRotatingDrive(0.005, 1e308).tau_theta
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_phase_config(
            kind="conditional", omega0=0.005, theta=1e308, tau=tau,
            t_f_grid=(0.0, tau), p_pump=None,
            target_upper_population=0.138).to_dict()))
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message), captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_inversion_that_misses_the_target_is_config_error(self, capsys):
        # Near theta >> omega0 the inverted pump rounds to 0, whose plateau
        # is 1/2; this used to print p_pump 0.0 and exit 0.
        assert main(["invert", "--target", "0.033059807879091796",
                     "--theta", "1e4", "--omega0", "0.9459512814479974",
                     "--p-absorb", "0.6937820608755615"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "configuration error: pump inversion failed: p_pump = 0.0 puts the "
            "plateau at 0.5, not at the target population 0.033059807879091796"
            ), captured.err
        assert captured.out == ""

    def test_given_pump_is_not_held_to_the_target(self, tmp_path):
        # With p_pump given nothing is inverted; the miss is only reported.
        data = {**get_preset("fig6e").to_dict(), "p_pump": 0.3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path), "--outdir", str(tmp_path)]) == 0
        derived = read_manifest(tmp_path / "fig6e_manifest.json")["derived"]
        assert derived["asymptote_gap_to_target"] > 0.05

    @pytest.mark.parametrize("name", ["fig5b", "fig5c", "fig5d"])
    def test_invert_prints_the_derived_block_of_run(self, tmp_path, capsys, name):
        cfg = get_preset(name)
        assert main(["run", name, "--outdir", str(tmp_path)]) == 0
        d = read_manifest(tmp_path / f"{name}_manifest.json")["derived"]
        capsys.readouterr()
        assert main(["invert", "--target", repr(cfg.target_upper_population),
                     "--tau-theta", repr(cfg.tau)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"p_pump            {d['p_pump']!r}",
            f"closed-form p_pump {d['p_pump_closed_form']!r}",
            f"alpha             {math.degrees(d['alpha_rad']):.4f} deg",
            f"k factor          {d['k_factor']!r}",
            f"beta_r * gap      {d['beta_r_gap']!r}",
        ]

    def test_invert_without_absorption_is_config_error(self):
        proc = run_cli("invert", "--target", "0.138", "--tau-theta", "616",
                       "--p-absorb", "0")
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr


INVERT_FIELDS = ("target", "period", "omega0", "p_absorb")
BOUNDARY_FLOATS = st.sampled_from([
    0.0, -0.0, 0.5, 1.0, -1.0, 5e-324, 1e-320, 1e-9, 1e9, 1e306, 1e308,
    sys.float_info.max, math.inf, -math.inf, math.nan])


@settings(max_examples=200)
@given(period_flag=st.sampled_from(["--theta", "--tau-theta"]),
       typical=st.fixed_dictionaries({
           "target": st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           "period": st.floats(1e-3, 1e4), "omega0": st.floats(1e-4, 1.0),
           "p_absorb": st.floats(0.0, 1.0)}),
       hostile=st.dictionaries(st.sampled_from(INVERT_FIELDS),
                               BOUNDARY_FLOATS | st.floats(), max_size=4))
def test_invert_exits_0_or_2_with_a_message(period_flag, typical, hostile):
    """Typical values with up to four of them replaced by boundary or
    arbitrary floats, NaN and infinities included."""
    v = {**typical, **hostile}
    # "--flag=value" keeps argparse from reading "-1e-05" as an option.
    argv = ["invert", f"--target={v['target']!r}", f"{period_flag}={v['period']!r}",
            f"--omega0={v['omega0']!r}", f"--p-absorb={v['p_absorb']!r}"]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        p_pump = float(out.splitlines()[0].split()[1])
        assert 0.0 <= p_pump <= 1.0


# SHA-256 of each preset's deterministic CSV.  Any change to these bytes,
# however small, is a change to the published numbers and must be deliberate:
# re-derive with ``python3 tests/output_digest.py`` and say why.  The
# deterministic path runs on Python floats with its operation order written
# in the code and loads no numpy, so neither the BLAS kernels nor numpy's
# SIMD loops can move these digests; test_pinned_outputs_do_not_depend_on_
# the_host holds that.  They still rest on the platform's libm (cos, sin,
# exp, log), which IEEE 754 does not require to round correctly.
PRESET_CSV_SHA256 = {
    "fig2a":
        "fcde37385e718a0d84afa8acfa88cc686c616b5320d8635c623674f8e58f8e37",
    "fig2bcd":
        "81f9d4f5c587f26146dd7ea0a62557dcb6af59128290e7b57448603a0ae21164",
    "fig3a":
        "65df6f743e62148cadb5eeb432942348da2c74d7c749c6d8421fa6da5a40aeb3",
    "fig3b":
        "86cb8f41514845d088c01391ada55280dec5cc16d29e545c83ca858c04b1e74b",
    "fig4a":
        "cf37e784231016b3551fb53209de9e19e481581d5c00b028630f8ae5ea7d73a2",
    "fig4b":
        "79af9a552480739f24436d62f41ea240dc28c66c9b739d9a31a5bee742e1259c",
    "fig5a":
        "552d56e4871985c43fe0d55b61ecdb4438cc4f6f4173d5c12034e1d94d772b86",
    "fig5b":
        "1a7ba374cf85985724be0f8fba72ec71160dfaa5e38e94c9f31818fecc8cc685",
    "fig5c":
        "fc9402301ef8f7f34453f88a472c71e9b9bfb45b9bb78da5c86f25503dc6e543",
    "fig5d":
        "3fdd92ff180975b6d38c9fc4dc6755a8068939d4118efa73805cc348c2569fc7",
    "fig6a":
        "7222fbae2c14b25092f25d7e82f42d790dd0c6e302cd8e3a02824c69647ac139",
    "fig6b":
        "385f250eeeca2ae14335c240d739e5a05e1783fe88da349d57250ebdfabb7ff9",
    "fig6c":
        "cd0454dee70aba0b97fb06916c406a02c5b1943420856e17fe7d3247015546d1",
    "fig6d":
        "a7fc58e2533a2c42071e031e01477d8f488f3c7df6e33495dc2c55d7d585e0e6",
    "fig6e":
        "258fea7a442c9b6bd13a84685eb8b4d945b5e010a5be33d2780c6b35ccfe03fc",
    "fig6f":
        "eeeea5667b12381b8785e65890196d23ca68b63cd76cb46e1b1566db3dc09e49",
}

# SHA-256 of the stdout of two catalog commands, pinned on the same terms.
STDOUT_SHA256 = {
    ("presets",):
        "b2a471151d77e41b3b87cb155443c0e2ae7ac1fd399c49f51433ddd92b263ef1",
    ("invert", "--target", "0.138", "--tau-theta", "616"):
        "8c8e690fbc82f544fe6e6b9a2ced51e3acffae5e54a98494404037f1e5722c0b",
}


def test_every_preset_is_pinned():
    assert sorted(PRESET_CSV_SHA256) == sorted(scenarios.PRESETS)


@pytest.mark.parametrize("name", sorted(PRESET_CSV_SHA256))
def test_preset_csv_bytes_are_pinned(name, tmp_path):
    scenarios.run_scenario(name, outdir=tmp_path)
    data = (tmp_path / f"{name}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PRESET_CSV_SHA256[name]
    assert read_manifest(tmp_path / f"{name}_manifest.json")["scenario"] == name


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=lambda a: a[0])
def test_command_stdout_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[argv]


def test_output_digest_reports_changed_and_missing_labels():
    import output_digest

    saved = ["aa  presets/fig2a.csv", "bb  presets/fig3a.csv", "cc  stdout of presets"]
    current = ["aa  presets/fig2a.csv", "bd  presets/fig3a.csv", "dd  sampled/x.csv"]
    assert output_digest.differing_labels(saved, saved) == []
    assert output_digest.differing_labels(saved, current) == [
        "presets/fig3a.csv", "sampled/x.csv", "stdout of presets"]


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_strict_json_rejects_non_standard_constants(constant):
    text = '{"derived": {"tau_theta_ns": ' + constant + '}}'
    assert json.loads(text)  # the json module's default accepts them
    with pytest.raises(ValueError, match=f"x_manifest.json holds {constant}"):
        strict_json(text, "x_manifest.json")


def test_import_loads_no_scipy():
    # The package root imports nothing, so the check starts from the CLI.
    proc = run_python("-c", "import qubitfr.cli, sys; print(sorted(m for m in "
                      "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


COLD_COMMANDS = [
    ("run", "fig5d"), ("presets",),
    ("invert", "--target", "0.138", "--tau-theta", "616"), ("check", "--skip-mc")]
# Runs a command in a fresh interpreter; prints its exit code, then which
# of the modules numpy, importlib.metadata, dataclasses and inspect it
# loaded.  A module the interpreter had loaded before the script started
# (say, from a site hook) is not counted.
LOADED_SCRIPT = """
import sys
before = set(sys.modules)
import contextlib, io, json
from qubitfr.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("numpy", "importlib.metadata", "dataclasses",
                                     "inspect")
                         if m in sys.modules and m not in before]]))
"""


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=lambda a: a[0])
def test_cold_commands_load_no_numpy(argv, tmp_path):
    outdir = ["--outdir", str(tmp_path)] if argv[0] == "run" else []
    proc = run_python("-c", LOADED_SCRIPT, *argv, *outdir)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_sampled_run_loads_numpy_and_records_its_version(tmp_path):
    proc = run_python("-c", LOADED_SCRIPT, "run", "fig2a", "--mode", "montecarlo",
                      "--trajectories", "200", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0 and "numpy" in loaded
    import numpy

    versions = read_manifest(tmp_path / "fig2a_manifest.json")["versions"]
    assert versions["numpy"] == numpy.__version__


# Runs every preset into argv[1] and prints the SHA-256 of the stdout of
# each command in the JSON list argv[2].
PINNED_SCRIPT = """
import contextlib, hashlib, io, json, sys
from qubitfr import cli, scenarios
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["run", name, "--outdir", sys.argv[1]])
             for name in scenarios.PRESETS]
stdout = {}
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(argv))
    stdout[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps([codes, stdout]))
"""


def other_host_env():
    """Environment that holds OpenBLAS to its Nehalem kernels and turns
    numpy's AVX-512 loops off, for a child process only."""
    from numpy._core import _multiarray_umath as umath

    env = {"OPENBLAS_CORETYPE": "Nehalem"}
    avx512 = [f for f in umath.__cpu_dispatch__
              if (f == "X86_V4" or f.startswith("AVX512"))
              and umath.__cpu_features__.get(f)]
    if avx512:  # numpy refuses to disable a feature it did not dispatch
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(avx512)
    return env


def test_pinned_outputs_do_not_depend_on_the_host(tmp_path):
    """The pinned CSVs and stdout, in a child process with
    ``other_host_env``."""
    commands = [list(argv) for argv in STDOUT_SHA256]
    proc = run_python("-c", PINNED_SCRIPT, str(tmp_path), json.dumps(commands),
                      env=other_host_env())
    assert proc.returncode == 0, proc.stderr
    codes, stdout = json.loads(proc.stdout)
    assert set(codes) == {0}
    assert {name: hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
            for name in PRESET_CSV_SHA256} == PRESET_CSV_SHA256
    assert stdout == {" ".join(argv): digest for argv, digest in STDOUT_SHA256.items()}


@pytest.fixture
def no_numpy_env(tmp_path):
    """Environment whose ``sitecustomize`` blocks numpy's import, as in an
    install without the mc extra, for a child process only."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text('import sys\nsys.modules["numpy"] = None\n')
    return {"PYTHONPATH": str(site)}


def test_pinned_outputs_do_not_need_numpy(tmp_path, no_numpy_env):
    """Every preset's deterministic CSV and the catalog commands' stdout
    keep their pins without numpy, and ``check --skip-mc`` passes."""
    commands = [list(argv) for argv in STDOUT_SHA256] + [["check", "--skip-mc"]]
    proc = run_python("-c", PINNED_SCRIPT, str(tmp_path), json.dumps(commands),
                      env=no_numpy_env)
    assert proc.returncode == 0, proc.stderr
    codes, stdout = json.loads(proc.stdout)
    assert codes == [0] * (len(scenarios.PRESETS) + len(commands))
    assert {name: hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
            for name in PRESET_CSV_SHA256} == PRESET_CSV_SHA256
    assert {key: stdout[key] for key in map(" ".join, STDOUT_SHA256)} == {
        " ".join(argv): digest for argv, digest in STDOUT_SHA256.items()}


@pytest.mark.parametrize("argv, hint", [
    (("run", "fig4b", "--mode", "montecarlo"), "qubitfr[mc]"),
    (("check",), "--skip-mc")], ids=["run", "check"])
def test_sampled_commands_without_numpy_exit_2_naming_the_mc_extra(
        argv, hint, tmp_path, no_numpy_env):
    outdir = ["--outdir", str(tmp_path)] if argv[0] == "run" else []
    proc = run_python("-m", "qubitfr.cli", *argv, *outdir, env=no_numpy_env)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("configuration error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "mc extra" in proc.stderr and hint in proc.stderr


def test_failed_run_creates_no_output_directory(tmp_path, monkeypatch, capsys,
                                                no_numpy_env):
    """A run that fails while computing its rows (exit 3) or for want of
    numpy (exit 2) leaves no empty output directory behind."""
    def boom(atoms, gamma):
        raise ValueError("synthetic numeric failure")

    with monkeypatch.context() as mp:
        mp.setattr(protocol, "fr_functional", boom)
        assert main(["run", "fig4a", "--outdir", str(tmp_path / "computed")]) == 3
    assert not (tmp_path / "computed").exists()
    proc = run_python("-m", "qubitfr.cli", "run", "fig4b", "--mode", "montecarlo",
                      "--outdir", str(tmp_path / "sampled"), env=no_numpy_env)
    assert proc.returncode == 2, proc.stderr
    assert not (tmp_path / "sampled").exists()


@pytest.mark.parametrize("name", sorted(scenarios.PRESETS))
def test_table_cells_are_plain_scalars(name):
    """Every cell ``run`` hands to ``csv`` is exactly an int, float or str,
    deterministic and sampled rows alike: ``csv`` writes ``repr`` of a float
    and ``str`` of any other cell, so a numpy scalar would reach a CSV as
    ``np.float64(...)`` under numpy 2."""
    cfg = get_preset(name)
    configs = [cfg] + ([] if cfg.kind == "bloch" else [with_overrides(
        cfg, mode="both", mc_grid="all", n_trajectories=300)])
    for config in configs:
        _, rows = scenarios.table(scenarios.resolve(config))
        assert {type(cell) for row in rows for cell in row} <= {int, float, str}


# Runs each preset named in argv[2:] sampled at every grid point into argv[1].
SAMPLED_SCRIPT = f"""
import sys
from qubitfr.cli import main
for name in sys.argv[2:]:
    assert main(["run", name, "--outdir", sys.argv[1], *{SAMPLED_ARGS!r}]) == 0
"""


def test_sampled_outputs_do_not_depend_on_the_host(tmp_path):
    """Sampled CSVs, error columns included, are the same bytes in this
    process and in a child with ``other_host_env``: the error columns
    come from the counts with libm, not from numpy's loops."""
    names = ["fig4b", "fig6e"]
    for name in names:
        assert main(["run", name, "--outdir", str(tmp_path / "here"),
                     *SAMPLED_ARGS]) == 0
    proc = run_python("-c", SAMPLED_SCRIPT, str(tmp_path / "child"), *names,
                      env=other_host_env())
    assert proc.returncode == 0, proc.stderr
    for name in names:
        assert ((tmp_path / "child" / f"{name}.csv").read_bytes()
                == (tmp_path / "here" / f"{name}.csv").read_bytes()), name


def float_bits(values):
    """Hex form of each float: unlike ==, this tells 0.0 from -0.0."""
    return [float(v).hex() for v in values]


def test_linspace_matches_numpy_on_every_grid():
    """The preset grids, the 17-point sub-grids of the Bloch rows, and the
    51-point det_sweep_long grids, bit for bit, so t_f columns keep their
    bytes."""
    import numpy as np

    dense = [cfg.t_f_grid for cfg in scenarios.PRESETS.values()
             if cfg.t_f_grid != tuple(n * cfg.tau for n in range(len(cfg.t_f_grid)))]
    assert len(dense) == 6  # fig2a, 3a, 3b, 4a, 4b and 5a
    for grid in dense:
        assert float_bits(grid) == float_bits(np.linspace(0.0, grid[-1], len(grid)))
    bloch = get_preset("fig2bcd").t_f_grid
    cases = [(t0, t1, 17) for t0, t1 in zip(bloch, bloch[1:])]
    cases += [(0.0, 500 * get_preset(name).tau, 51)
              for name in ("fig5b", "fig5c", "fig5d", "fig4b")]
    for args in cases:
        assert float_bits(scenarios.linspace(*args)) == float_bits(np.linspace(*args)), args


@given(start=st.floats(-1e6, 1e6), span=st.floats(0.0, 1e6),
       num=st.integers(2, 300))
def test_linspace_matches_numpy_on_generated_grids(start, span, num):
    import numpy as np

    stop = start + span
    assert float_bits(scenarios.linspace(start, stop, num)) == float_bits(
        np.linspace(start, stop, num))


# Values that any config field may be given: huge ints, subnormals, bools,
# strings, nulls, containers and non-finite floats.  Ints stay small or
# past every cap, so that a valid sampled run stays cheap.
HOSTILE = (st.sampled_from([
    10**400, -10**400, 2**64, 2**1024, 5e-324, -5e-324, 1e-310, True, False,
    "", "x", "0.5", "../x", "a/b", "..", "\0", "\ud800", "n" * 300, None, [], {},
    math.nan, math.inf, -math.inf, -0.0, 1e308, sys.float_info.max])
    | st.floats() | st.integers(-3, 40) | st.integers(min_value=2**64)
    | st.text(max_size=4))
TYPICAL = {
    "phase": dict(
        name="fuzz", kind="conditional", drive_family="phase",
        omega0=2.0 * math.pi * 0.8e-3, theta=2.0 * math.pi / 616.0, tau=616.0,
        t_f_grid=[0.0, 616.0, 1000.0], beta=0.0, p_absorb=0.25,
        target_upper_population=0.138, n_trajectories=20),
    "amplitude": dict(
        name="fuzz", kind="energetics", drive_family="amplitude",
        omega0=math.pi / 616.0, tau_a=616.0, tau=410.0,
        t_f_grid=[0.0, 205.0, 820.0], beta=2.0 * 616.0 / math.pi, p_absorb=0.25,
        p_pump=0.0, n_trajectories=20)}
# The grid-length cap while the property below runs.  A valid grid at the
# real cap, scenarios.MAX_GRID_POINTS, takes seconds to run, so the property
# lowers it to draw grids at and one point past it; test_grid_length_is_capped
# holds the real cap.
GRID_CAP = 6
FIELDS = list(ScenarioConfig.fields())


def grids_of_length(n):
    return st.lists(st.floats(0.0, 3000.0), min_size=n, max_size=n).map(sorted)


FIELD_VALUES = {
    "kind": st.sampled_from(scenarios.KINDS), "mode": st.sampled_from(scenarios.MODES),
    "drive_family": st.sampled_from(scenarios.FAMILIES),
    "mc_grid": st.sampled_from(scenarios.MC_GRIDS),
    "p_absorb": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    "p_pump": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    "target_upper_population": st.floats(0.0, 1.0),
    "beta": st.floats(-1e4, 1e4), "tau": st.floats(1e-3, 2000.0),
    "t_f_grid": (st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=4).map(sorted)
                 | st.lists(HOSTILE, max_size=3) | HOSTILE
                 | grids_of_length(GRID_CAP) | grids_of_length(GRID_CAP + 1)),
    "prefix": st.none() | st.sampled_from(["p", "x" * 200]),
}


# A generous wall-time bound on one example of the property test below: a
# typical example takes milliseconds, so only a hang or a runaway sweep
# reaches it.
EXAMPLE_SECONDS = 5.0


@settings(max_examples=120)
@given(base=st.sampled_from(sorted(TYPICAL)),
       changes=st.dictionaries(st.sampled_from(FIELDS), HOSTILE, max_size=3),
       chosen=st.fixed_dictionaries({}, optional=FIELD_VALUES),
       dropped=st.sets(st.sampled_from(FIELDS), max_size=1))
def test_run_config_exits_0_or_2_with_a_message(base, changes, chosen, dropped):
    """A typical config with some fields given other valid or boundary
    values (grids at the lowered length cap and one point past it among
    them), up to three given hostile values, and at most one removed."""
    data = {**TYPICAL[base], **chosen, **changes}
    for name in dropped:
        data.pop(name, None)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg_path = root / "cfg" / "config.json"
        cfg_path.parent.mkdir()
        cfg_path.write_text(json.dumps(data))
        outdir = root / "out"
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(),
              mock.patch.object(scenarios, "MAX_GRID_POINTS", GRID_CAP)):
            warnings.simplefilter("error")
            code = main(["run", str(cfg_path), "--outdir", str(outdir)])
        elapsed = time.perf_counter() - start
        written = sorted(str(p.relative_to(root)) for p in root.rglob("*")
                         if p.is_file())
    out, err = out.getvalue(), err.getvalue()
    assert elapsed < EXAMPLE_SECONDS, (data, elapsed)
    assert code in (0, 2), (data, code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert written == ["cfg/config.json"]
    else:
        assert err == ""
        prefix = data.get("prefix") or data["name"]
        assert written == ["cfg/config.json", f"out/{prefix}.csv",
                           f"out/{prefix}_manifest.json"]
