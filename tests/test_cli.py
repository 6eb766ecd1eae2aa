import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfcs
from nfcs.cli import _COMMAND_TO_KIND, main, parse_config_file
from nfcs.harness import CONFIG_FIELDS, ConfigError, ExperimentConfig, parse_rows


def run_cli(args):
    return main(args)


def test_runs_to_stdout(capsys):
    code = run_cli(
        [
            "coherence-error",
            "--seed",
            "3",
            "--trials",
            "20",
            "--config",
            "/dev/null",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = parse_rows(out, "csv")
    assert rows and rows[0].seed == 3


def test_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "result.csv"
    code = run_cli(
        ["rip-probe", "--seed", "4", "--trials", "50", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    rows = parse_rows(out.read_text(), "csv")
    assert {r.metric for r in rows} == {"xi_hat", "violation_rate"}


def test_json_format(tmp_path):
    out = tmp_path / "result.json"
    code = run_cli(
        ["rip-probe", "--seed", "4", "--trials", "30", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    rows = parse_rows(out.read_text(), "json")
    assert rows


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
# quick run on a small array
array.n_antennas = 64
experiment.trials = 2
experiment.snr_db_list = 5
experiment.n_measurements = 32
experiment.methods = dmu_block_omp
"""
    )
    code = run_cli(["nmse-vs-snr", "--seed", "5", "--config", str(cfg)])
    assert code == 0
    rows = parse_rows(capsys.readouterr().out, "csv")
    assert all(r.trials == 2 for r in rows)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment.bogus_key = 5\n")
    code = run_cli(["nmse-vs-snr", "--seed", "1", "--config", str(cfg)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_bad_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment.trials = lots\n")
    code = run_cli(["nmse-vs-snr", "--seed", "1", "--config", str(cfg)])
    assert code == 2
    assert "experiment.trials" in capsys.readouterr().err


def test_invalid_config_combination_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment.methods = ls\nexperiment.n_measurements = 32\n")
    code = run_cli(["nmse-vs-snr", "--seed", "1", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ls" in err


@pytest.mark.parametrize(
    "line, field_path",
    [
        ("dictionary.mu = -5", "dictionary.mu"),
        ("experiment.n_measurements = 0", "experiment.n_measurements"),
        ("array.carrier_freq_hz = nan", "array.carrier_freq_hz"),
        ("recovery.stop_alpha = 2", "recovery.stop_alpha"),
        ("experiment.snr_db = nan", "experiment.snr_db"),
        ("experiment.delta = nan", "experiment.delta"),
        ("experiment.t_list = 0", "experiment.t_list"),
        ("experiment.block_size_list = 0", "experiment.block_size_list"),
        ("recovery.block_size = 0", "recovery.block_size"),
        ("experiment.mu0_bins = -1", "experiment.mu0_bins"),
        ("recovery.k_max = -1", "recovery.k_max"),
        ("dictionary.polar_rings = 0", "dictionary.polar_rings"),
        ("recovery.pilot_kind = bogus", "recovery.pilot_kind"),
        ("experiment.mu0_bin_tolerance = nan", "experiment.mu0_bin_tolerance"),
        ("channel.power_split_db = nan", "channel.power_split_db"),
        ("rip.target_xi = nan", "rip.target_xi"),
    ],
)
def test_out_of_range_value_exits_2(tmp_path, capsys, line, field_path):
    # per-field checks apply whatever the experiment
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = run_cli(["mutual-coherence", "--seed", "1", "--trials", "1", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {field_path}: ")


@pytest.mark.parametrize(
    "command, line, field_path",
    [
        ("nmse-vs-snr", "channel.distance_min_m = 0.1", "channel.distance_min_m"),
        ("nmse-vs-snr", "channel.distance_max_m = 1", "channel.distance_max_m"),
        ("mutual-coherence", "array.spacing_m = 0.01", "array.spacing_m"),
        ("mutual-coherence", "dictionary.polar_r_min_m = 1000", "dictionary.polar_r_min_m"),
        ("rip-probe", "rip.k = 100", "rip.k"),
        ("nmse-vs-mu0", "experiment.mu0_bins = 0.5", "experiment.mu0_bins"),
        ("block-size-sweep", "experiment.block_size_list = 3", "experiment.block_size_list"),
        ("nmse-vs-snr", "experiment.methods = dmu_block_omp, dmu_block_omp", "experiment.methods"),
        # kinds that draw their sources on [Fresnel, Rayleigh] read no source range
        ("sparsity-level", "channel.distance_min_m = 30", "channel.distance_min_m"),
        ("coherence-error", "channel.distance_max_m = 40", "channel.distance_max_m"),
        # fields admissible on their own whose wavelength or field boundaries
        # overflow or underflow
        ("sparsity-level", "array.carrier_freq_hz = 1e300", "array.carrier_freq_hz"),
        ("nmse-vs-snr", "array.carrier_freq_hz = 1e300", "array.carrier_freq_hz"),
        ("mutual-coherence", "array.carrier_freq_hz = 1e300", "array.carrier_freq_hz"),
        ("coherence-error", "array.carrier_freq_hz = 1e300", "array.carrier_freq_hz"),
        ("rip-probe", "array.carrier_freq_hz = 1e300", "array.carrier_freq_hz"),
        ("coherence-error", "array.carrier_freq_hz = 1e-300", "array.carrier_freq_hz"),
        ("nmse-vs-snr", "array.carrier_freq_hz = 1e-300", "array.carrier_freq_hz"),
        ("coherence-error", "array.spacing_m = 1e150", "array.spacing_m"),
        ("coherence-error", "array.spacing_m = 1e-300", "array.spacing_m"),
        # distances admissible on their own whose quadratic phase overflows
        ("nmse-vs-snr", "dictionary.mu = 1e-306", "dictionary.mu"),
        ("mutual-coherence", "dictionary.mu = 1e-306", "dictionary.mu"),
        ("rip-probe", "dictionary.mu = 1e-310", "dictionary.mu"),
        ("nmse-vs-snr", "dictionary.polar_r_min_m = 1e-310", "dictionary.polar_r_min_m"),
        ("mutual-coherence", "dictionary.polar_r_min_m = 1e-310", "dictionary.polar_r_min_m"),
    ],
)
def test_cross_field_conflict_exits_2(tmp_path, capsys, command, line, field_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = run_cli([command, "--seed", "1", "--trials", "1", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {field_path}: ")


@pytest.mark.parametrize(
    "command, line, repeated",
    [
        ("coherence-error", "experiment.n_list = 64, 128, 64", "[64]"),
        ("nmse-vs-t", "experiment.t_list = 32, 32", "[32]"),
        ("nmse-vs-snr", "experiment.snr_db_list = 5, 5", "[5.0]"),
        ("nmse-vs-mu0", "experiment.mu0_bins = 6, 20, 6.0, 20", "[6.0, 20.0]"),
        ("block-size-sweep", "experiment.block_size_list = 4, 4", "[4]"),
        ("nmse-vs-snr", "experiment.methods = polar_omp, dmu_block_omp, polar_omp", "['polar_omp']"),
    ],
)
def test_a_repeated_list_entry_exits_2(tmp_path, capsys, command, line, repeated):
    # a repeated grid point or method would print its rows twice
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(line + "\n")
    code = run_cli([command, "--seed", "1", "--trials", "1", "--config", str(cfg)])
    assert code == 2
    key = line.split(" =")[0]
    assert capsys.readouterr().err == f"config error: {key}: lists a value more than once: {repeated}\n"


@pytest.mark.parametrize("command", ["nmse-vs-t", "nmse-vs-snr", "block-size-sweep", "nmse-vs-mu0"])
def test_a_subnormal_delta_runs(tmp_path, capsys, command):
    # its worst-case nonzero count is inf; the solver budget is the rank cap
    cfg = tmp_path / "delta.cfg"
    cfg.write_text("experiment.delta = 5e-324\n")
    assert run_cli([command, "--seed", "1", "--trials", "1", "--config", str(cfg)]) == 0
    assert parse_rows(capsys.readouterr().out, "csv")


# the config keys and fields before the key table was derived from the field
# declarations; the file format must not drift
FROZEN_KEYS = {
    "array.carrier_freq_hz": "carrier_freq",
    "array.n_antennas": "n_antennas",
    "array.spacing_m": "spacing",
    "channel.n_paths": "n_paths",
    "channel.power_split_db": "power_split_db",
    "channel.distance_min_m": "distance_min",
    "channel.distance_max_m": "distance_max",
    "experiment.trials": "trials",
    "experiment.seed": "seed",
    "experiment.delta": "delta",
    "experiment.n_list": "n_list",
    "experiment.t_list": "t_list",
    "experiment.snr_db_list": "snr_db_list",
    "experiment.mu0_bins": "mu0_bins",
    "experiment.block_size_list": "block_size_list",
    "experiment.methods": "methods",
    "experiment.n_measurements": "n_measurements",
    "experiment.snr_db": "snr_db",
    "experiment.mu0_bin_tolerance": "mu0_bin_tolerance",
    "dictionary.mu": "mu",
    "dictionary.polar_rings": "polar_rings",
    "dictionary.polar_r_min_m": "polar_r_min",
    "dictionary.polar_r_max_m": "polar_r_max",
    "recovery.block_size": "block_size",
    "recovery.k_max": "k_max",
    "recovery.stop_alpha": "stop_alpha",
    "recovery.pilot_kind": "pilot_kind",
    "rip.block_size": "rip_block_size",
    "rip.k": "rip_k",
    "rip.target_xi": "rip_target_xi",
}


def test_config_keys_are_frozen():
    assert {key: f.name for key, f in CONFIG_FIELDS.items()} == FROZEN_KEYS


def test_every_setting_declares_key_parser_and_rule():
    for f in fields(ExperimentConfig):
        if f.name in ("kind", "preset"):
            continue
        meta = f.metadata
        assert isinstance(meta.get("key"), str), f.name
        assert callable(meta.get("parse")) and callable(meta["rule"].predicate), f.name
        assert meta["rule"].requirement, f.name
        if f.default not in (None, MISSING):
            entries = f.default if isinstance(f.default, tuple) else (f.default,)
            assert all(meta["rule"].predicate(v) for v in entries), f.name


_FUZZ_VALUES = (
    "0", "-1", "1", "2", "0.5", "nan", "inf", "-inf", "none", "bogus", "1, 0",
    "1e300", "1e-300", "1e150", "5e-324", "1e-306",
)


def _run_fuzzed(command, lines, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in lines)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, *argv])
    assert code in (0, 2, 3)
    if code == 2:
        known = (*CONFIG_FIELDS, "experiment.kind")
        assert err.getvalue().startswith(tuple(f"config error: {k}: " for k in known))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(sorted(_COMMAND_TO_KIND)),
    key=st.sampled_from(sorted(CONFIG_FIELDS)),
    value=st.sampled_from(_FUZZ_VALUES),
)
def test_one_line_config_keeps_the_exit_code_contract(command, key, value):
    _run_fuzzed(command, [(key, value)], ["--trials", "1", "--seed", "1"])


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(sorted(_COMMAND_TO_KIND)),
    lines=st.lists(
        st.tuples(st.sampled_from(sorted(CONFIG_FIELDS)), st.sampled_from(_FUZZ_VALUES)),
        min_size=2,
        max_size=3,
        unique_by=lambda line: line[0],
    ),
    # --trials is always given, and small, so that no draw runs a preset's trial count
    trials=st.sampled_from(("1", "2", "0", "-1")),
    seed=st.sampled_from((None, "0", "-7", "18446744073709551616")),
)
def test_multi_line_config_and_flags_keep_the_exit_code_contract(command, lines, trials, seed):
    argv = ["--trials", trials] + ([] if seed is None else ["--seed", seed])
    _run_fuzzed(command, lines, argv)


def test_infinite_mu_and_snr_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(
        """
array.n_antennas = 64
experiment.trials = 1
experiment.t_list = 32
experiment.snr_db = inf
dictionary.mu = inf
"""
    )
    assert run_cli(["nmse-vs-t", "--seed", "1", "--config", str(cfg)]) == 0
    assert parse_rows(capsys.readouterr().out, "csv")


def test_unwritable_output_exits_3(capsys):
    code = run_cli(
        [
            "rip-probe",
            "--seed",
            "1",
            "--trials",
            "10",
            "--out",
            "/nonexistent-dir/result.csv",
        ]
    )
    assert code == 3
    # the path the user gave, not the sibling file written first
    err = capsys.readouterr().err
    assert err == "i/o error: [Errno 2] No such file or directory: '/nonexistent-dir/result.csv'\n"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # a stand-in for numpy's allocation failure, which no test should provoke
    def run(config):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(nfcs.cli, "run", run)
    assert run_cli(["mutual-coherence", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: Unable to allocate 149. GiB for an array with shape (100000, 100000)\n"
    )


def test_missing_config_file_exits_3(capsys):
    code = run_cli(["nmse-vs-snr", "--seed", "1", "--config", "/no/such/file.cfg"])
    assert code == 3


def test_config_file_that_is_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe")
    src = str(Path(nfcs.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "nfcs.cli", "nmse-vs-snr", "--config", str(bad)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2
    assert result.stderr.startswith(f"config error: {bad}: not UTF-8 text")
    assert "Traceback" not in result.stderr
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        parse_config_file(str(bad))


def test_parse_config_file_values(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        """
array.carrier_freq_hz = 1.0e11
dictionary.mu = inf
experiment.snr_db_list = 0, 5, 10
recovery.stop_alpha = none
"""
    )
    overrides = parse_config_file(cfg)
    assert overrides["carrier_freq"] == 1.0e11
    assert overrides["mu"] == float("inf")
    assert overrides["snr_db_list"] == (0.0, 5.0, 10.0)
    assert overrides["stop_alpha"] is None


def test_parse_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_repeated_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("experiment.trials = 3\nexperiment.trials = 1\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(cfg)
    assert info.value.field_path == "experiment.trials"
    code = run_cli(["rip-probe", "--seed", "1", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: experiment.trials: ")


def test_preset_flag(capsys):
    code = run_cli(
        ["coherence-error", "--preset", "desk", "--seed", "2", "--trials", "10"]
    )
    assert code == 0
    rows = parse_rows(capsys.readouterr().out, "csv")
    assert rows[0].experiment == "coherence_error:desk"


def _seeds(capsys):
    return {r.seed for r in parse_rows(capsys.readouterr().out, "csv")}


def test_config_file_seed_is_honoured(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("experiment.seed = 7\n")
    assert run_cli(["rip-probe", "--trials", "10", "--config", str(cfg)]) == 0
    assert _seeds(capsys) == {7}


def test_seed_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("experiment.seed = 7\n")
    assert run_cli(["rip-probe", "--trials", "10", "--config", str(cfg), "--seed", "9"]) == 0
    assert _seeds(capsys) == {9}


def test_seed_defaults_to_one(capsys):
    assert run_cli(["rip-probe", "--trials", "10"]) == 0
    assert _seeds(capsys) == {1}


def test_failed_output_rename_exits_3(tmp_path, monkeypatch):
    out = tmp_path / "result.csv"
    out.write_text("previous\n")

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", fail)
    assert run_cli(["rip-probe", "--seed", "1", "--trials", "10", "--out", str(out)]) == 3
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result.csv"]
