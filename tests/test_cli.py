"""Tests of the command-line entry point: each subcommand runs in process,
exits with 0 and writes CSVs with the expected headers and row counts, every
sweep flag sets exactly one SimConfig field, flags typed and flags read from
an ``@FILE`` run file reach the SimConfig (later ones win), every other
setting comes from SimConfig's defaults, the ``--detectors`` help lists the
harness's detector table, grids parse to the same points as ever, and
out-of-range values (each with SimConfig's message), grids with too many
points, unknown detectors, oracles past the enumeration limit, malformed
code files and code headers, unknown code names, unusable run files,
unwritable output paths and a trial dump that is the sweep CSV exit with a
usage error before any trial runs, and so do the removed Taylor-init,
rounding, rank-schedule and cross flags (all but the rank cap)."""

import csv
from dataclasses import fields

import pytest

from ttinfer import SimConfig, harness
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
    assert set(dests) <= {f.name for f in fields(SimConfig)}
    assert len(dests) == len(set(dests))


SHARED_FLAGS = [
    ("--detectors", "sweep,sample", "detectors", ("sweep", "sample")),
    ("--seed", "17", "master_seed", 17),
    ("--min-block-errors", "7", "min_block_errors", 7),
    ("--max-trials", "11", "max_trials", 11),
    ("--workers", "2", "workers", 2),
    ("--cross-max-rank", "33", "cross_max_rank", 33),
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
        assert getattr(cfg, field) == value, flag


SCENARIO_FLAGS = {
    "mimo": [
        (["--nt", "3"], "nt_complex", 3),
        (["--qam", "16"], "qam", 16),
        (["--snr", "5:5:15"], "snr_grid", (5.0, 10.0, 15.0)),
        (["--detectors", "oracle,sample,sweep,lmmse"], "detectors",
         ("oracle", "sample", "sweep", "lmmse")),
    ],
    "decode": [
        (["--code", "bch_15_7"], "code_path", "bch_15_7"),
        (["--ebn0", "2,3.5"], "snr_grid", (2.0, 3.5)),
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
                            code_path="hamming_7_4", out_path="s.csv")


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
    file_arg = run_file(tmp_path, ["--cross-max-rank=3", "--seed=5", "--detectors=sample,sweep"])
    argv = [scenario, *SCENARIO_ARGS[scenario], file_arg, "--seed", "9", "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.cross_max_rank == 3
    assert cfg.detectors == ("sample", "sweep")
    assert cfg.master_seed == 9
    argv = [scenario, *SCENARIO_ARGS[scenario], "--seed", "9", "--detectors", "oracle", file_arg,
            "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert (cfg.master_seed, cfg.detectors) == (5, ("sample", "sweep"))


@pytest.mark.parametrize("flags", [
    ["--cross-max", "7", "--se", "9"],
    ["--cross-max-rank=7", "--seed=9"],
    ["--cross-max=7", "--se=9"],
])
@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_flags_win_over_config_in_any_spelling(monkeypatch, tmp_path, scenario, flags):
    file_arg = run_file(tmp_path, ["--cross-max", "3", "--seed=5"])
    argv = [scenario, *SCENARIO_ARGS[scenario], "--detectors", "sample", file_arg, *flags,
            "--out", "sweep.csv"]
    cfg = captured_config(monkeypatch, argv)
    assert cfg.cross_max_rank == 7
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


# (flag, value, SimConfig's message)
SHARED_OUT_OF_RANGE = [
    ("--cross-max-rank", 0, "cross_max_rank must be >= 1"),
    ("--seed", -1, "master_seed must be >= 0"),
    ("--min-block-errors", 0, "min_block_errors must be >= 1"),
    ("--max-trials", 0, "max_trials must be >= 1"),
    ("--workers", 0, "workers must be >= 1"),
    ("--workers", -3, "workers must be >= 1"),
    ("--workers", 33, "workers must be <= 32, the trials in one batch"),
]
REQUIRED_ARGS = {
    "mimo": ["--detectors", "sample"],
    "decode": ["--code", "hamming_7_4", "--detectors", "sample"],
}
SNR_RANGE = "SNR grid values must be finite and within [-1000, 1000] dB"
OUT_OF_RANGE = [
    *((scenario, *case) for scenario in REQUIRED_ARGS for case in SHARED_OUT_OF_RANGE),
    ("mimo", "--qam", 5, "5-QAM is not square"),
    ("mimo", "--nt", 0, "nt_complex must be >= 1"),
    ("mimo", "--snr", "nan", SNR_RANGE),
    ("decode", "--ebn0", "inf", SNR_RANGE),
    ("mimo", "--snr", "4000", SNR_RANGE),
    ("mimo", "--snr", "-4000", SNR_RANGE),
    ("mimo", "--snr", "1000.5", SNR_RANGE),
    ("decode", "--ebn0", "4000", SNR_RANGE),
    ("decode", "--ebn0", "-4000", SNR_RANGE),
    ("decode", "--ebn0", "-1000.5", SNR_RANGE),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("scenario, flag, value, message", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}") for case in OUT_OF_RANGE])
def test_out_of_range_values_exit_with_usage_error(monkeypatch, tmp_path, capsys, scenario,
                                                   flag, value, message, source):
    """Each value gets past argparse and is rejected by SimConfig."""
    no_sweep(monkeypatch)
    argv = [scenario, *REQUIRED_ARGS[scenario], "--out", "s.csv"]
    if source == "flag":
        argv += [flag, str(value)]
    else:
        argv.append(run_file(tmp_path, [f"{flag}={value}"]))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"ttinfer {scenario}: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, flag, value", [
    ("mimo", "--taylor-p", "3"),
    ("mimo", "--tol", "1e-9"),
    ("mimo", "--rmax", "7"),
    ("decode", "--taylor-p", "3"),
    ("decode", "--tol", "1e-9"),
    ("decode", "--schedule", "4,10"),
    *((scenario, flag, value) for scenario in ("mimo", "decode") for flag, value in (
        ("--cross-sweeps", "4"), ("--cross-oversample", "2"), ("--cross-conv-tol", "1e-4"))),
])
def test_removed_flags_are_unrecognized(monkeypatch, capsys, scenario, flag, value):
    """Sweeps run the detectors at their defaults, so the Taylor init,
    metric rounding, rank schedule and every cross setting but the rank cap
    have no flags."""
    no_sweep(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([scenario, *REQUIRED_ARGS[scenario], flag, value, "--out", "s.csv"])
    assert exc.value.code == 2
    assert f"ttinfer: error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["mimo", "--snr", "abc"], "argument --snr: 'abc': a grid is start:step:stop"),
    (["mimo", "--snr", "0:5"], "argument --snr: '0:5': a grid is start:step:stop"),
    (["decode", "--code", "hamming_7_4", "--ebn0", "3,x"], "argument --ebn0: '3,x': a grid is"),
    (["decode", "--code", "hamming_7_4", "--ebn0", "3:0:4"],
     "argument --ebn0: grid step must be positive"),
    pytest.param(["decode", "--code", "nosuch"],
                 "ttinfer decode: error: 'nosuch': neither a file nor a packaged code "
                 "(bch_15_7, bch_31_16, bch_63_30, hamming_7_4)", id="unknown-code"),
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
    assert "_parse" not in err


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
     "ttinfer mimo: error: the oracle detector cannot run: 4294967296 assignments exceed the "
     "enumeration limit 1048576; drop it from the detectors"),
    (["decode", "--code", "bch_63_30"],
     "ttinfer decode: error: the oracle detector cannot run: 1073741824 assignments exceed the "
     "enumeration limit 1048576; drop it from the detectors"),
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
    assert "ttinfer decode: error: 'nosuch': neither a file nor a packaged code" in err


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


@pytest.mark.parametrize("header", ["7 4 x", "-1 4 3", "0 0 1", "4 7 3"],
                         ids=["not-int", "negative-n", "zero-k", "k-above-n"])
def test_malformed_code_header_exits_with_usage_error(monkeypatch, tmp_path, capsys, header):
    monkeypatch.setattr("ttinfer.harness._run_trial", lambda args: pytest.fail("trial ran"))
    bad, out = tmp_path / "bad.txt", tmp_path / "s.csv"
    bad.write_text(f"{header}\n")
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--code", str(bad), "--detectors", "sample", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"ttinfer decode: error: {str(bad)!r}: malformed header {header!r}; "
            "expected 'n k d_min'") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["mimo", "decode"])
def test_detector_table_is_the_one_source_of_names(scenario):
    """The ``--detectors`` help, ``SimConfig`` and ``_run_trial`` all take
    their detector names from ``harness.DETECTORS``."""
    _, commands = _build_parser()
    assert set(commands) == set(harness.DETECTORS)
    names = harness.DETECTORS[scenario]
    (action,) = (a for a in commands[scenario]._actions if a.dest == "detectors")
    assert action.help.split(" from ")[1].split(";")[0] == ",".join(names)
    settings = dict(scenario=scenario, snr_grid=(4.0,), nt_complex=2, code_path="hamming_7_4")
    for name in names:
        SimConfig(**settings, detectors=(name,))
    rows = harness._run_trial((SimConfig(**settings, detectors=names), 4.0, 0, 0))
    assert [row[0] for row in rows] == list(names)


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


def test_trial_dump_onto_sweep_csv_exits_before_any_trial(monkeypatch, tmp_path, capsys):
    """The dump, written last, would replace the sweep CSV."""
    monkeypatch.setattr("ttinfer.harness._run_trial", lambda args: pytest.fail("trial ran"))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--code", "hamming_7_4", "--detectors", "sweep", "--max-trials", "1",
              "--out", "s.csv", "--trial-dump", "./s.csv"])
    assert exc.value.code == 2
    assert "ttinfer decode: error: out_path and trial_dump name the same file" in \
        capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
