"""Tests of the command-line entry point: each subcommand runs in process,
exits with 0 and writes CSVs with the expected headers and row counts, the
sweep subcommands carry every flag and config-file key into the SimConfig
and take every other setting from SimConfig's defaults, and out-of-range
values exit with a usage error before any trial runs."""

import csv
import json
from operator import attrgetter

import pytest

from ttinfer import SimConfig, builtin_code_path
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
    ("--cross-max-rank", "33", "cross.max_rank", 33),
    ("--cross-sweeps", "5", "cross.n_sweeps", 5),
    ("--cross-oversample", "2", "cross.sample_oversample", 2),
    ("--cross-conv-tol", "1e-4", "cross.conv_tol", 1e-4),
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
        assert attrgetter(field)(cfg) == value, flag


SCENARIO_FLAGS = {
    "mimo": [
        (["--nt", "3"], "nt_complex", 3),
        (["--qam", "16"], "qam", 16),
        (["--snr", "5:5:15"], "snr_grid", (5.0, 10.0, 15.0)),
        (["--rmax", "7"], "taylor_max_rank", 7),
        (["--realized-snr"], "realized_snr", True),
        (["--with-oracle", "--with-lmmse"], "detectors", ("oracle", "sample", "lmmse")),
    ],
    "decode": [
        (["--code", "bch_15_7"], "code_path", str(builtin_code_path("bch_15_7"))),
        (["--ebn0", "2,3.5"], "snr_grid", (2.0, 3.5)),
        (["--schedule", "4,10"], "schedule", (4, 10)),
        (["--with-oracle"], "detectors", ("oracle", "sample")),
    ],
}


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_scenario_flags_reach_sim_config(monkeypatch, scenario):
    argv = [scenario, "--out", "sweep.csv"]
    for flag_args, _, _ in SCENARIO_FLAGS[scenario]:
        argv += flag_args
    cfg = captured_config(monkeypatch, argv)
    for flag_args, field, value in SCENARIO_FLAGS[scenario]:
        assert getattr(cfg, field) == value, flag_args


def test_unset_flags_take_sim_config_defaults(monkeypatch):
    cfg = captured_config(monkeypatch, ["mimo", "--out", "s.csv"])
    assert cfg == SimConfig(scenario="mimo", snr_grid=(0.0,), detectors=("sample",),
                            out_path="s.csv")
    cfg = captured_config(monkeypatch, ["decode", "--code", "hamming_7_4", "--out", "s.csv"])
    assert cfg == SimConfig(scenario="decode", snr_grid=(4.0,), detectors=("sample",),
                            code_path=str(builtin_code_path("hamming_7_4")), out_path="s.csv")


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_config_file_applies_and_flags_win(monkeypatch, tmp_path, scenario):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cross_sweeps": 3, "seed": 5, "variant": "both"}))
    argv = [scenario, *SCENARIO_ARGS[scenario], "--config", str(config), "--seed", "9",
            "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.cross.n_sweeps == 3
    assert cfg.detectors == ("sample", "sweep")
    assert cfg.master_seed == 9


@pytest.mark.parametrize("flags", [
    ["--cross-sw", "7", "--se", "9"],
    ["--cross-sweeps=7", "--seed=9"],
    ["--cross-sw=7", "--se=9"],
])
@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_flags_win_over_config_in_any_spelling(monkeypatch, tmp_path, scenario, flags):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cross_sweeps": 3, "seed": 5}))
    argv = [scenario, *SCENARIO_ARGS[scenario], "--config", str(config), *flags,
            "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.cross.n_sweeps == 7
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


SHARED_OUT_OF_RANGE = [
    ("--cross-max-rank", 0),
    ("--cross-sweeps", 0),
    ("--cross-oversample", -1),
    ("--cross-conv-tol", 0),
    ("--taylor-p", -1),
    ("--tol", -1),
    ("--seed", -1),
    ("--min-block-errors", 0),
    ("--max-trials", 0),
    ("--workers", 0),
    ("--workers", -3),
]
REQUIRED_ARGS = {"mimo": [], "decode": ["--code", "hamming_7_4"]}
OUT_OF_RANGE = [
    *((scenario, flag, value) for scenario in REQUIRED_ARGS for flag, value in SHARED_OUT_OF_RANGE),
    ("mimo", "--rmax", 0),
    ("mimo", "--qam", 5),
    ("mimo", "--nt", 0),
    ("mimo", "--snr", "nan"),
    ("decode", "--ebn0", "inf"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("scenario, flag, value", OUT_OF_RANGE)
def test_out_of_range_values_exit_with_usage_error(monkeypatch, tmp_path, capsys, scenario,
                                                   flag, value, source):
    monkeypatch.setattr("ttinfer.cli.run_sweep", lambda cfg, log=None: pytest.fail("sweep ran"))
    argv = [scenario, *REQUIRED_ARGS[scenario], "--out", "s.csv"]
    if source == "flag":
        argv += [flag, str(value)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        argv += ["--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"ttinfer {scenario}: error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["mimo", "--snr", "abc"], "argument --snr: 'abc': a grid is start:step:stop"),
    (["mimo", "--snr", "0:5"], "argument --snr: '0:5': a grid is start:step:stop"),
    (["decode", "--code", "hamming_7_4", "--ebn0", "3,x"], "argument --ebn0: '3,x': a grid is"),
    (["decode", "--code", "hamming_7_4", "--schedule", "x"],
     "argument --schedule: 'x': a schedule is a comma list of increasing integer ranks"),
    (["decode", "--code", "nosuch"],
     "argument --code: 'nosuch' is neither a file nor a packaged code "
     "(bch_15_7, bch_31_16, bch_63_30, hamming_7_4)"),
    (["mimo", "--snr", "0:1:inf"], "argument --snr: '0:1:inf': grid bounds and step must be finite"),
])
def test_malformed_values_exit_with_usage_error(monkeypatch, capsys, argv, message):
    monkeypatch.setattr("ttinfer.cli.run_sweep", lambda cfg, log=None: pytest.fail("sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "s.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "_parse" not in err and "_code_path" not in err


def test_unknown_code_in_config_exits_with_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("ttinfer.cli.run_sweep", lambda cfg, log=None: pytest.fail("sweep ran"))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"code": "nosuch"}))
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--code", "hamming_7_4", "--config", str(config), "--out", "s.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "config key 'code'" in err and "neither a file nor a packaged code" in err
