"""Command-line entry point.

Subcommands:

* ``ttinfer mimo``   -- SER sweep of the TT MIMO detector against oracles.
* ``ttinfer decode`` -- BER sweep of the adaptive TT decoder for a code file.
* ``ttinfer ranks``  -- histogram + mean/median of a per-trial rank dump.

Grids accept ``start:step:stop`` (inclusive) or comma lists.  A JSON config
file can preload any flag (keys match the long option names with underscores);
a flag given on the command line wins however it is spelled, abbreviated or
not.  Every sweep setting left unset takes its default from ``SimConfig``,
which also checks it: an out-of-range value, as a flag or as a config key, is
a usage error (exit status 2) and no trial runs.  So are a code file that
``load_code`` rejects, a config file that cannot be read or holds no JSON
object, and an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .chancode import _builtin_code_names, builtin_code_path, load_code
from .cross import CrossConfig
from .harness import TT_DETECTORS, SimConfig, run_sweep

__all__ = ["main"]


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    try:
        if ":" not in text:
            return tuple(float(p) for p in text.split(",") if p)
        start, step, stop = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: a grid is start:step:stop (inclusive) or a comma list of numbers, "
            "e.g. 0:2.5:10 or 3,4") from None
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise argparse.ArgumentTypeError(f"{text!r}: grid bounds and step must be finite")
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    values = []
    v = start
    while v <= stop + 1e-9:
        values.append(round(v, 9))
        v += step
    return tuple(values)


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: a schedule is a comma list of increasing integer ranks, e.g. 4,10") from None


def _code_path(text: str) -> str:
    """A generator matrix file that ``load_code`` accepts, else the packaged
    code of that name."""
    if os.path.isfile(text):
        try:
            load_code(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"{text!r}: {err}") from None
        return text
    path = builtin_code_path(text)
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"{text!r} is neither a file nor a packaged code "
                                         f"({', '.join(_builtin_code_names())})")
    return str(path)


class _HelpFormatter(argparse.HelpFormatter):
    """Names a flag's value after the flag rather than after its ``dest``."""

    def _get_default_metavar_for_optional(self, action):
        return action.option_strings[0].lstrip("-").replace("-", "_").upper()


# Each flag that sets a SimConfig (or CrossConfig) field stores under the
# field's name and has no default of its own: only the flags given reach
# SimConfig, which supplies the rest.
def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file preloading any flag; flags win")
    parser.add_argument("--variant", default="sample", choices=(*TT_DETECTORS, "both"))
    parser.add_argument("--taylor-p", type=int,
                        help="Taylor degree of the exp init (0: all ones; 10: the paper's init)")
    parser.add_argument("--tol", dest="trunc_tol", type=float,
                        help="relative tolerance of a TT rounding of the exact metric "
                             "(default 0: no rounding)")
    parser.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    parser.add_argument("--min-block-errors", type=int)
    parser.add_argument("--max-trials", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--cross-max-rank", dest="max_rank", type=int)
    parser.add_argument("--cross-sweeps", dest="n_sweeps", type=int)
    parser.add_argument("--cross-oversample", dest="sample_oversample", type=int)
    parser.add_argument("--cross-conv-tol", dest="conv_tol", type=float)
    parser.add_argument("--trial-dump", help="optional per-trial CSV (feeds `ttinfer ranks`)")
    parser.add_argument("--out", dest="out_path", required=True, help="output CSV path")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="ttinfer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    mimo = sub.add_parser("mimo", help="MIMO SER sweep", formatter_class=_HelpFormatter,
                          argument_default=argparse.SUPPRESS)
    mimo.add_argument("--nt", dest="nt_complex", type=int,
                      help="complex antenna count (square system)")
    mimo.add_argument("--qam", type=int, help="QAM order (square)")
    mimo.add_argument("--snr", dest="snr_grid", type=_parse_grid, default=(0.0,),
                      help="SNR grid in dB, per transmit stream")
    mimo.add_argument("--rmax", dest="taylor_max_rank", type=int, help="Taylor-init max rank")
    mimo.add_argument("--with-oracle", action="store_true", help="add the exact-MAP oracle")
    mimo.add_argument("--with-lmmse", action="store_true", help="add the LMMSE baseline")
    mimo.add_argument("--realized-snr", action="store_true",
                      help="rescale noise to hit the realized (not expected) SNR per stream")
    _add_common(mimo)

    decode = sub.add_parser("decode", help="linear-code BER sweep", formatter_class=_HelpFormatter,
                            argument_default=argparse.SUPPRESS)
    decode.add_argument("--code", dest="code_path", type=_code_path, required=True,
                        help="generator matrix file, or a packaged name like bch_63_30")
    decode.add_argument("--ebn0", dest="snr_grid", type=_parse_grid, default=(4.0,),
                        help="Eb/N0 grid in dB")
    decode.add_argument("--schedule", type=_parse_schedule,
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


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The --config file's values, converted, keyed by their flags' ``dest``."""
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except OSError as err:
        parser.error(f"cannot read config file {path!r}: {err.strerror}")
    except ValueError as err:
        parser.error(f"config file {path!r} is not valid JSON: {err}")
    if not isinstance(overrides, dict):
        parser.error(f"config file {path!r} must hold a JSON object, got {type(overrides).__name__}")
    defaults = {}
    for key, value in overrides.items():
        action = parser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest == "help":
            parser.error(f"unknown config key {key!r}")
        defaults[action.dest] = _config_value(parser, action, key, value)
    return defaults


def _sim_config(settings: dict) -> SimConfig:
    """The SimConfig of exactly the flags in ``settings`` (a parsed namespace)."""
    settings.pop("config", None)
    detectors = ["oracle"] if settings.pop("with_oracle", False) else []
    variant = settings.pop("variant")
    detectors.extend(TT_DETECTORS if variant == "both" else (variant,))
    if settings.pop("with_lmmse", False):
        detectors.append("lmmse")
    cross = {f.name: settings.pop(f.name) for f in fields(CrossConfig) if f.name in settings}
    return SimConfig(scenario=settings.pop("command"), detectors=tuple(detectors),
                     cross=CrossConfig(**cross), **settings)


def _run_ranks(args, parser: argparse.ArgumentParser) -> int:
    values = []
    try:
        with open(args.infile, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                if "rmax" not in row:
                    raise SystemExit("input CSV has no rmax column")
                if args.detector and row.get("detector") != args.detector:
                    continue
                try:
                    value = float(row["rmax"])
                    values.append(int(value))
                except (TypeError, ValueError, OverflowError):  # missing, not a number, inf
                    raise SystemExit(f"{args.infile}, line {reader.line_num}: rmax {row['rmax']!r} "
                                     "is not a finite number") from None
                if values[-1] != value:
                    raise SystemExit(f"{args.infile}, line {reader.line_num}: rmax {row['rmax']!r} "
                                     "is not an integer")
    except OSError as err:
        parser.error(f"cannot read {args.infile!r}: {err.strerror}")
    if not values:
        of_detector = f" of detector {args.detector!r}" if args.detector else ""
        raise SystemExit(f"{args.infile} has no rank records{of_detector}")
    ranks, counts = np.unique(values, return_counts=True)
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rmax", "count"])
            writer.writerows(zip(ranks.tolist(), counts.tolist()))
    except OSError as err:
        parser.error(f"cannot write {args.out!r}: {err.strerror}")
    print(f"records={len(values)} mean={np.mean(values):.6g} median={np.median(values):.6g}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "ranks":
        return _run_ranks(args, commands["ranks"])
    sweep_parser = commands[args.command]
    if "config" in args:
        # the file's values become defaults, so that any flag given wins
        sweep_parser.set_defaults(**_config_defaults(sweep_parser, args.config))
        args = parser.parse_args(argv)
    try:
        cfg = _sim_config(vars(args))
    except ValueError as err:
        sweep_parser.error(str(err))
    try:
        run_sweep(cfg, log=lambda msg: print(msg, file=sys.stderr))
    except OSError as err:
        if err.filename not in (cfg.out_path, cfg.trial_dump):
            raise
        sweep_parser.error(f"cannot write {err.filename!r}: {err.strerror}")
    print(f"wrote {cfg.out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
