"""Smoke tests of the command-line entry point: each subcommand runs in
process, exits with 0 and writes CSVs with the expected headers and row
counts."""

import csv

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
