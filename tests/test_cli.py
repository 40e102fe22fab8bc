"""Tests of the command-line entry point: each subcommand runs in process,
exits with 0 and writes CSVs with the expected headers and row counts, every
sweep flag sets exactly one SimConfig or CrossConfig field, flags typed and
flags read from an ``@FILE`` run file reach the SimConfig (later ones win),
every other setting comes from SimConfig's defaults, grids parse to the same
points as ever, and out-of-range values, grids with too many points, unknown
detectors, oracles past the enumeration limit, malformed code files,
unusable run files and unwritable output paths exit with a usage error
before any trial runs."""

import csv
from dataclasses import fields
from operator import attrgetter

import pytest

from ttinfer import CrossConfig, SimConfig, builtin_code_path
from ttinfer.cli import _build_parser, _parse_grid, main

SWEEP_HEADER = [
    "detector", "snr_db", "trials", "sym_errors", "blk_errors", "rate",
    "mean_rmax", "median_rmax", "max_rmax", "early_stop_rate", "wall_ms",
]
TRIAL_HEADER = ["detector", "snr_db", "trial", "errors", "rmax", "early"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_file(tmp_path, lines):
    """The ``@FILE`` argument of a run file holding ``lines``, one a line."""
    path = tmp_path / "run.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


def test_mimo_sweep(tmp_path):
    out, dump = tmp_path / "mimo.csv", tmp_path / "trials.csv"
    code = main([
        "mimo", "--qam", "4", "--nt", "2", "--snr", "10", "--max-trials", "3",
        "--detectors", "oracle,sample", "--trial-dump", str(dump), "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == SWEEP_HEADER
    assert [r[0] for r in rows] == ["oracle", "sample"]
    assert all(r[2] == "3" for r in rows)
    header, rows = read_csv(dump)
    assert header == TRIAL_HEADER
    assert len(rows) == 6


def test_decode_sweep(tmp_path):
    out = tmp_path / "decode.csv"
    code = main([
        "decode", "--code", "hamming_7_4", "--ebn0", "4", "--max-trials", "3",
        "--detectors", "oracle,sample", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == SWEEP_HEADER
    assert [r[0] for r in rows] == ["oracle", "sample"]
    assert all(r[2] == "3" for r in rows)


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_every_sweep_flag_sets_one_config_field(scenario):
    """No flag is synthesized into a field, and no field has two flags."""
    _, commands = _build_parser()
    dests = [action.dest for action in commands[scenario]._actions if action.dest != "help"]
    config_fields = {f.name for f in fields(SimConfig)} | {f.name for f in fields(CrossConfig)}
    assert set(dests) <= config_fields
    assert len(dests) == len(set(dests))


SHARED_FLAGS = [
    ("--detectors", "sweep,sample", "detectors", ("sweep", "sample")),
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


def no_sweep(monkeypatch):
    monkeypatch.setattr("ttinfer.cli.run_sweep", lambda cfg, log=None: pytest.fail("sweep ran"))


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
        (["--detectors", "oracle,sample,sweep,lmmse"], "detectors",
         ("oracle", "sample", "sweep", "lmmse")),
    ],
    "decode": [
        (["--code", "bch_15_7"], "code_path", str(builtin_code_path("bch_15_7"))),
        (["--ebn0", "2,3.5"], "snr_grid", (2.0, 3.5)),
        (["--schedule", "4,10"], "schedule", (4, 10)),
        (["--detectors", "oracle,sample,sweep"], "detectors", ("oracle", "sample", "sweep")),
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
    cfg = captured_config(monkeypatch, ["mimo", "--detectors", "sweep", "--out", "s.csv"])
    assert cfg == SimConfig(scenario="mimo", snr_grid=(0.0,), detectors=("sweep",),
                            out_path="s.csv")
    cfg = captured_config(monkeypatch, ["decode", "--code", "hamming_7_4", "--detectors", "sweep",
                                        "--out", "s.csv"])
    assert cfg == SimConfig(scenario="decode", snr_grid=(4.0,), detectors=("sweep",),
                            code_path=str(builtin_code_path("hamming_7_4")), out_path="s.csv")


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_detectors_flag_is_required(monkeypatch, capsys, scenario):
    no_sweep(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([scenario, *SCENARIO_ARGS[scenario], "--out", "s.csv"])
    assert exc.value.code == 2
    assert "the following arguments are required: --detectors" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_config_file_applies_and_flags_win(monkeypatch, tmp_path, scenario):
    """A run file's arguments apply where it stands: a flag after it wins,
    and the file wins over a flag before it."""
    file_arg = run_file(tmp_path, ["--cross-sweeps=3", "--seed=5", "--detectors=sample,sweep"])
    argv = [scenario, *SCENARIO_ARGS[scenario], file_arg, "--seed", "9", "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.cross.n_sweeps == 3
    assert cfg.detectors == ("sample", "sweep")
    assert cfg.master_seed == 9
    argv = [scenario, *SCENARIO_ARGS[scenario], "--seed", "9", "--detectors", "oracle", file_arg,
            "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert (cfg.master_seed, cfg.detectors) == (5, ("sample", "sweep"))


@pytest.mark.parametrize("flags", [
    ["--cross-sw", "7", "--se", "9"],
    ["--cross-sweeps=7", "--seed=9"],
    ["--cross-sw=7", "--se=9"],
])
@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_flags_win_over_config_in_any_spelling(monkeypatch, tmp_path, scenario, flags):
    file_arg = run_file(tmp_path, ["--cross-sw", "3", "--seed=5"])
    argv = [scenario, *SCENARIO_ARGS[scenario], "--detectors", "sample", file_arg, *flags,
            "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.cross.n_sweeps == 7
    assert cfg.master_seed == 9


@pytest.mark.parametrize("overrides, field, value", [
    (["--snr=10"], "snr_grid", (10.0,)),
    (["--snr", "10,15"], "snr_grid", (10.0, 15.0)),
    (["--workers=2"], "workers", 2),
    (["--detectors=oracle,sample"], "detectors", ("oracle", "sample")),
])
def test_config_values_pass_through_flag_types(monkeypatch, tmp_path, overrides, field, value):
    argv = ["mimo", "--detectors", "sweep", run_file(tmp_path, overrides), "--out", "s.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert getattr(cfg, field) == value


@pytest.mark.parametrize("overrides, message", [
    (["--detectors=oracle,bogus"], "ttinfer decode: error: detector 'bogus' not available"),
    (["--detectors=lmmse"], "ttinfer decode: error: detector 'lmmse' not available for decode"),
    (["--detectors=sweep,sweep"], "ttinfer decode: error: detector 'sweep' is listed more than"),
    (["--workers=two"], "argument --workers: invalid int value: 'two'"),
    (["--no-such-flag=1"], "ttinfer: error: unrecognized arguments: --no-such-flag=1"),
    (["--seed 3"], "ttinfer: error: unrecognized arguments: --seed 3"),
], ids=["unknown-detector", "wrong-scenario-detector", "repeated-detector", "bad-int",
        "unknown-flag", "two-arguments-on-one-line"])
def test_bad_config_values_exit_with_usage_error(monkeypatch, tmp_path, capsys, overrides, message):
    no_sweep(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--code", "hamming_7_4", "--detectors", "sample",
              run_file(tmp_path, overrides), "--out", "s.csv"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    (None, "No such file or directory"),
    (["{bad"], "unrecognized arguments: {bad"),
    (["--seed=3", "", "--workers=1"], "unrecognized arguments: \n"),
], ids=["missing", "malformed", "empty"])
def test_unreadable_config_exits_with_usage_error(monkeypatch, tmp_path, capsys, lines, message):
    """A run file must exist and hold one argument per line: a line that is
    no argument, or an empty line, is an unrecognized argument."""
    file_arg = run_file(tmp_path, lines) if lines is not None else f"@{tmp_path / 'run.txt'}"
    no_sweep(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["mimo", "--detectors", "sample", file_arg, "--out", "s.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ttinfer: error" in err and message in err


@pytest.mark.parametrize("schedule", ["10,4", ","])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_schedule_exits_with_usage_error(monkeypatch, tmp_path, capsys, schedule, source):
    no_sweep(monkeypatch)
    argv = ["decode", "--code", "hamming_7_4", "--detectors", "sample", "--out", "s.csv"]
    if source == "flag":
        argv += ["--schedule", schedule]
    else:
        argv.append(run_file(tmp_path, ["--schedule", schedule]))
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
REQUIRED_ARGS = {
    "mimo": ["--detectors", "sample"],
    "decode": ["--code", "hamming_7_4", "--detectors", "sample"],
}
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
    no_sweep(monkeypatch)
    argv = [scenario, *REQUIRED_ARGS[scenario], "--out", "s.csv"]
    if source == "flag":
        argv += [flag, str(value)]
    else:
        argv.append(run_file(tmp_path, [f"{flag}={value}"]))
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
    (["mimo", "--snr", "1:1e-20:2"], "'1:1e-20:2': a grid has at most 10000 points"),
    (["mimo", "--snr", "0:1e-12:1e-9"], "'0:1e-12:1e-9': grid step does not advance"),
])
def test_malformed_values_exit_with_usage_error(monkeypatch, capsys, argv, message):
    no_sweep(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--detectors", "sample", "--out", "s.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "_parse" not in err and "_code_path" not in err


@pytest.mark.parametrize("text, points", [
    ("0:2.5:10", (0.0, 2.5, 5.0, 7.5, 10.0)),
    ("5:5:15", (5.0, 10.0, 15.0)),
    ("0:0.1:3", tuple(i / 10 for i in range(31))),
    ("-2:0.5:0", (-2.0, -1.5, -1.0, -0.5, 0.0)),
    ("3:1:2", ()),
    ("10", (10.0,)),
    ("3,4", (3.0, 4.0)),
    ("2,3.5", (2.0, 3.5)),
])
def test_grids_parse_to_their_points(text, points):
    """A start:step:stop grid includes its stop, with each point start +
    i * step rounded to 9 decimals."""
    assert _parse_grid(text) == points


@pytest.mark.parametrize("argv, message", [
    (["mimo", "--nt", "8", "--qam", "16"],
     "ttinfer mimo: error: 4294967296 assignments exceed the enumeration limit 1048576"),
    (["decode", "--code", "bch_63_30"],
     "ttinfer decode: error: 1073741824 assignments exceed the enumeration limit 1048576"),
], ids=["mimo", "decode"])
def test_oracle_past_enumeration_limit_exits_before_any_trial(monkeypatch, tmp_path, capsys,
                                                              argv, message):
    monkeypatch.setattr("ttinfer.harness._run_trial", lambda args: pytest.fail("trial ran"))
    out, dump = tmp_path / "s.csv", tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--detectors", "oracle,sweep", "--max-trials", "1",
              "--trial-dump", str(dump), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not dump.exists()


def test_unknown_code_in_config_exits_with_usage_error(monkeypatch, tmp_path, capsys):
    no_sweep(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--code", "hamming_7_4", "--detectors", "sample",
              run_file(tmp_path, ["--code=nosuch"]), "--out", "s.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ttinfer decode: error: argument --code: 'nosuch' is neither a file nor a packaged" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_code_file_exits_with_usage_error(monkeypatch, tmp_path, capsys, source):
    monkeypatch.setattr("ttinfer.harness._run_trial", lambda args: pytest.fail("trial ran"))
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code_args = ["--code", str(bad)]
    if source == "config":
        code_args = ["--code", "hamming_7_4", run_file(tmp_path, code_args)]
    with pytest.raises(SystemExit) as exc:
        main(["decode", *code_args, "--detectors", "sample", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ttinfer decode: error:" in err
    assert "malformed header 'garbage'; expected 'n k d_min'" in err


@pytest.mark.parametrize("flag", ["--out", "--trial-dump"])
def test_unwritable_output_exits_with_usage_error_before_any_trial(monkeypatch, tmp_path, capsys,
                                                                   flag):
    monkeypatch.setattr("ttinfer.harness._run_trial", lambda args: pytest.fail("trial ran"))
    paths = {"--out": str(tmp_path / "s.csv"), "--trial-dump": str(tmp_path / "t.csv")}
    paths[flag] = str(tmp_path / "missing" / "x.csv")
    with pytest.raises(SystemExit) as exc:
        main(["mimo", "--max-trials", "1", "--detectors", "sample",
              *(arg for item in paths.items() for arg in item)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ttinfer mimo: error: cannot write" in err and "x.csv" in err
