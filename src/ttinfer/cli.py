"""Command-line entry point.

Subcommands:

* ``ttinfer mimo``   -- SER sweep of the TT MIMO detector against oracles.
* ``ttinfer decode`` -- BER sweep of the adaptive TT decoder for a code file.
* ``ttinfer ranks``  -- histogram + mean/median of a per-trial rank dump.

Grids accept ``start:step:stop`` (inclusive) or comma lists.  A JSON config
file can preload any flag (keys match the long option names with underscores);
explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .chancode import _rank_schedule, builtin_code_path
from .harness import SimConfig, rank_stats, run_sweep

__all__ = ["main"]


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("grid must be start:step:stop or a comma list")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("grid step must be positive")
        values = []
        v = start
        while v <= stop + 1e-9:
            values.append(round(v, 9))
            v += step
        return tuple(values)
    return tuple(float(p) for p in text.split(",") if p)


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return _rank_schedule(p for p in text.split(",") if p)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file preloading any flag; flags win")
    parser.add_argument("--variant", default="sample", choices=("sample", "sweep", "both"))
    parser.add_argument("--taylor-p", type=int, default=0,
                        help="Taylor degree of the exp init (0: all ones; 10: the paper's init)")
    parser.add_argument("--tol", type=float, default=1e-12, help="TT truncation tolerance")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--min-block-errors", type=int, default=100)
    parser.add_argument("--max-trials", type=int, default=10_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cross-max-rank", type=int, default=1024)
    parser.add_argument("--cross-sweeps", type=int, default=8)
    parser.add_argument("--cross-oversample", type=int, default=4)
    parser.add_argument("--cross-conv-tol", type=float, default=1e-6)
    parser.add_argument("--trial-dump", help="optional per-trial CSV (feeds `ttinfer ranks`)")
    parser.add_argument("--out", required=True, help="output CSV path")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="ttinfer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    mimo = sub.add_parser("mimo", help="MIMO SER sweep")
    mimo.add_argument("--nt", type=int, default=4, help="complex antenna count (square system)")
    mimo.add_argument("--qam", type=int, default=4, help="QAM order (square)")
    mimo.add_argument("--snr", type=_parse_grid, default=(0.0,), help="SNR grid in dB, per transmit stream")
    mimo.add_argument("--rmax", type=int, default=10, help="Taylor-init max rank")
    mimo.add_argument("--with-oracle", action="store_true", help="add the exact-MAP oracle")
    mimo.add_argument("--with-lmmse", action="store_true", help="add the LMMSE baseline")
    mimo.add_argument("--realized-snr", action="store_true",
                      help="rescale noise to hit the realized (not expected) SNR per stream")
    _add_common(mimo)

    decode = sub.add_parser("decode", help="linear-code BER sweep")
    decode.add_argument("--code", required=True,
                        help="generator matrix file, or a packaged name like bch_63_30")
    decode.add_argument("--ebn0", type=_parse_grid, default=(4.0,), help="Eb/N0 grid in dB")
    decode.add_argument("--schedule", type=_parse_schedule, default=(10,),
                        help="comma list of Taylor-init ranks for the adaptive loop")
    decode.add_argument("--with-oracle", action="store_true",
                        help="add the exhaustive bit-wise MAP oracle (k <= 20)")
    _add_common(decode)

    ranks = sub.add_parser("ranks", help="histogram of a per-trial rank dump")
    ranks.add_argument("--in", dest="infile", required=True, help="per-trial CSV with an rmax column")
    ranks.add_argument("--detector", help="only rows of this detector")
    ranks.add_argument("--out", required=True, help="output histogram CSV (rmax,count)")
    return parser, sub.choices


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, key: str, value):
    """Convert one config-file value as its flag's text would be, through
    the flag's ``type`` and ``choices``; a list stands for a comma list."""
    if action.nargs == 0:  # a switch
        if not isinstance(value, bool):
            parser.error(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        out = action.type(text) if action.type else text
    except (argparse.ArgumentTypeError, ValueError) as err:
        parser.error(f"config key {key!r}: invalid value {value!r} ({err})")
    if action.choices is not None and out not in action.choices:
        choices = ", ".join(action.choices)
        parser.error(f"config key {key!r}: invalid choice {value!r} (choose from {choices})")
    return out


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser, argv) -> None:
    """Preload the subcommand ``parser``'s flags from the --config file."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        overrides = json.load(fh)
    actions = {action.dest: action for action in parser._actions}
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in actions or not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        if attr in explicit:
            continue  # flags win
        setattr(args, attr, _config_value(parser, actions[attr], key, value))


def _sweep(args, scenario: str, grid, extra_detectors=(), **model) -> int:
    """Build the SimConfig from the flags every sweep subcommand shares plus
    the scenario's own ``model`` fields, and run the sweep."""
    detectors = ["oracle"] if args.with_oracle else []
    detectors.extend(("sample", "sweep") if args.variant == "both" else (args.variant,))
    detectors.extend(extra_detectors)
    cfg = SimConfig(
        scenario=scenario,
        snr_grid=tuple(grid),
        detectors=tuple(detectors),
        taylor_p=args.taylor_p,
        trunc_tol=args.tol,
        cross_max_rank=args.cross_max_rank,
        cross_sweeps=args.cross_sweeps,
        cross_oversample=args.cross_oversample,
        cross_conv_tol=args.cross_conv_tol,
        min_block_errors=args.min_block_errors,
        max_trials=args.max_trials,
        master_seed=args.seed,
        workers=args.workers,
        out_path=args.out,
        trial_dump=args.trial_dump,
        **model,
    )
    run_sweep(cfg, log=lambda msg: print(msg, file=sys.stderr))
    print(f"wrote {args.out}")
    return 0


def _run_mimo(args) -> int:
    return _sweep(
        args,
        "mimo",
        args.snr,
        ("lmmse",) if args.with_lmmse else (),
        nt_complex=args.nt,
        qam=args.qam,
        taylor_max_rank=args.rmax,
        realized_snr=args.realized_snr,
    )


def _run_decode(args) -> int:
    code_path = args.code
    try:
        open(code_path).close()
    except OSError:
        code_path = str(builtin_code_path(args.code))
    return _sweep(args, "decode", args.ebn0, code_path=code_path, schedule=args.schedule)


def _run_ranks(args) -> int:
    values = []
    with open(args.infile, newline="") as fh:
        for row in csv.DictReader(fh):
            if "rmax" not in row:
                raise SystemExit("input CSV has no rmax column")
            if args.detector and row.get("detector") != args.detector:
                continue
            values.append(int(float(row["rmax"])))
    stats = rank_stats(values)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rmax", "count"])
        for value in sorted(stats.histogram):
            writer.writerow([value, stats.histogram[value]])
    print(f"records={len(values)} mean={stats.mean:.6g} median={stats.median:.6g}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    _apply_config_file(args, commands[args.command], argv)
    if args.command == "mimo":
        return _run_mimo(args)
    if args.command == "decode":
        return _run_decode(args)
    return _run_ranks(args)


if __name__ == "__main__":
    raise SystemExit(main())
