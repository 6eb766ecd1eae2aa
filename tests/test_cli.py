import os

import pytest

from nfcs.cli import main, parse_config_file
from nfcs.harness import ConfigError, parse_rows


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
    ],
)
def test_out_of_range_value_exits_2(tmp_path, capsys, line, field_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = run_cli(["mutual-coherence", "--seed", "1", "--trials", "1", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {field_path}: ")


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


def test_missing_config_file_exits_3(capsys):
    code = run_cli(["nmse-vs-snr", "--seed", "1", "--config", "/no/such/file.cfg"])
    assert code == 3


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
