"""Tests of the command-line entry point: each subcommand runs in process,
exits with 0 and writes CSVs with the expected headers and row counts, and
the sweep subcommands carry every shared flag and config-file key into the
SimConfig."""

import csv
import json

import pytest

from ttinfer.cli import main

SWEEP_HEADER = [
    "detector", "snr_db", "trials", "sym_errors", "blk_errors", "rate",
    "mean_rmax", "median_rmax", "max_rmax", "early_stop_rate", "wall_ms",
]
TRIAL_HEADER = ["detector", "snr_db", "trial", "errors", "rmax", "early"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_mimo_sweep_and_ranks(tmp_path):
    out, dump, hist = tmp_path / "mimo.csv", tmp_path / "trials.csv", tmp_path / "ranks.csv"
    code = main([
        "mimo", "--qam", "4", "--nt", "2", "--snr", "10", "--max-trials", "3",
        "--with-oracle", "--trial-dump", str(dump), "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == SWEEP_HEADER
    assert [r[0] for r in rows] == ["oracle", "sample"]
    assert all(r[2] == "3" for r in rows)
    header, rows = read_csv(dump)
    assert header == TRIAL_HEADER
    assert len(rows) == 6

    assert main(["ranks", "--in", str(dump), "--out", str(hist)]) == 0
    header, rows = read_csv(hist)
    assert header == ["rmax", "count"]
    assert sum(int(r[1]) for r in rows) == 6
    assert main(["ranks", "--in", str(dump), "--detector", "sample", "--out", str(hist)]) == 0
    _, rows = read_csv(hist)
    assert sum(int(r[1]) for r in rows) == 3


def test_decode_sweep(tmp_path):
    out = tmp_path / "decode.csv"
    code = main([
        "decode", "--code", "hamming_7_4", "--ebn0", "4", "--max-trials", "3",
        "--with-oracle", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == SWEEP_HEADER
    assert [r[0] for r in rows] == ["oracle", "sample"]
    assert all(r[2] == "3" for r in rows)


SHARED_FLAGS = [
    ("--taylor-p", "3", "taylor_p", 3),
    ("--tol", "1e-9", "trunc_tol", 1e-9),
    ("--seed", "17", "master_seed", 17),
    ("--min-block-errors", "7", "min_block_errors", 7),
    ("--max-trials", "11", "max_trials", 11),
    ("--workers", "2", "workers", 2),
    ("--cross-max-rank", "33", "cross_max_rank", 33),
    ("--cross-sweeps", "5", "cross_sweeps", 5),
    ("--cross-oversample", "2", "cross_oversample", 2),
    ("--cross-conv-tol", "1e-4", "cross_conv_tol", 1e-4),
    ("--trial-dump", "trials.csv", "trial_dump", "trials.csv"),
    ("--out", "sweep.csv", "out_path", "sweep.csv"),
]
SCENARIO_ARGS = {
    "mimo": ["--qam", "4", "--nt", "2"],
    "decode": ["--code", "hamming_7_4"],
}


def captured_config(monkeypatch, argv):
    seen = []
    monkeypatch.setattr("ttinfer.cli.run_sweep", lambda cfg, log=None: seen.append(cfg))
    assert main(argv) == 0
    (cfg,) = seen
    return cfg


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_shared_flags_reach_sim_config(monkeypatch, scenario):
    argv = [scenario, *SCENARIO_ARGS[scenario]]
    for flag, text, _, _ in SHARED_FLAGS:
        argv += [flag, text]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.scenario == scenario
    for flag, _, field, value in SHARED_FLAGS:
        assert getattr(cfg, field) == value, flag


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_config_file_applies_and_flags_win(monkeypatch, tmp_path, scenario):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cross_sweeps": 3, "seed": 5, "variant": "both"}))
    argv = [scenario, *SCENARIO_ARGS[scenario], "--config", str(config), "--seed", "9",
            "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.cross_sweeps == 3
    assert cfg.detectors == ("sample", "sweep")
    assert cfg.master_seed == 9


@pytest.mark.parametrize("overrides, field, value", [
    ({"snr": 10}, "snr_grid", (10.0,)),
    ({"snr": [10, "15"]}, "snr_grid", (10.0, 15.0)),
    ({"workers": "2"}, "workers", 2),
    ({"with_oracle": True}, "detectors", ("oracle", "sample")),
])
def test_config_values_pass_through_flag_types(monkeypatch, tmp_path, overrides, field, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(overrides))
    cfg = captured_config(monkeypatch, ["mimo", "--config", str(config), "--out", "s.csv"])
    assert getattr(cfg, field) == value


@pytest.mark.parametrize("overrides, message", [
    ({"variant": "bogus"}, "invalid choice 'bogus'"),
    ({"workers": "two"}, "invalid value 'two'"),
    ({"with_oracle": "yes"}, "expected true or false"),
    ({"no_such_flag": 1}, "unknown config key 'no_such_flag'"),
])
def test_bad_config_values_exit_with_usage_error(monkeypatch, tmp_path, capsys, overrides, message):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(overrides))
    monkeypatch.setattr("ttinfer.cli.run_sweep", lambda cfg, log=None: pytest.fail("sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--code", "hamming_7_4", "--config", str(config), "--out", "s.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ttinfer decode" in err and message in err


@pytest.mark.parametrize("schedule", ["10,4", ","])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_schedule_exits_with_usage_error(monkeypatch, tmp_path, capsys, schedule, source):
    monkeypatch.setattr("ttinfer.cli.run_sweep", lambda cfg, log=None: pytest.fail("sweep ran"))
    argv = ["decode", "--code", "hamming_7_4", "--out", "s.csv"]
    if source == "flag":
        argv += ["--schedule", schedule]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schedule": schedule}))
        argv += ["--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ttinfer decode" in err and "strictly increasing" in err
