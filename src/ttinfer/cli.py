"""Command-line entry point.

Subcommands:

* ``ttinfer mimo``   -- SER sweep of the TT MIMO detector against oracles.
* ``ttinfer decode`` -- BER sweep of the adaptive TT decoder for a code file.

Each sweep flag sets one ``SimConfig`` field, and ``--detectors`` lists the
detectors to run on every trial, e.g. ``--detectors oracle,sweep``.  The
detectors run at their defaults: the Taylor init, metric rounding and rank
schedule are arguments of ``ttdet`` and ``ttdec`` in the Python API, and of
the cross settings only the rank cap ``--cross-max-rank`` is a sweep
setting; the others are ``CrossConfig`` arguments.  Grids accept
``start:step:stop`` (inclusive) or comma lists.  An argument ``@FILE`` reads
more arguments from a run file, one argument per line (``--seed=3``, or
``--seed`` and ``3`` on two lines) with no blank lines; later arguments win,
so a flag given after ``@FILE`` overrides the file's.  Every sweep setting
left unset takes its default from ``SimConfig``, which also checks it: an
out-of-range value, typed or in a run file, is a usage error (exit status 2)
and no trial runs.  So are an unknown detector, an oracle over more
assignments than the enumeration limit, a code file or name that
``SimConfig``'s ``load_code`` rejects, a run file that cannot be read, an
output path that cannot be written, and a ``--trial-dump`` that is the
``--out`` file.
"""

from __future__ import annotations

import argparse
import math
import sys

from .harness import DETECTORS, SimConfig, run_sweep

__all__ = ["main"]

# A start:step:stop grid with more points than this is a typo (a step of
# 1e-20, say), not a sweep.
MAX_GRID_POINTS = 10_000


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
    span = (stop - start + 1e-9) / step
    if not span < MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"{text!r}: a grid has at most {MAX_GRID_POINTS} points")
    values = tuple(round(start + i * step, 9) for i in range(math.floor(span) + 1))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"{text!r}: grid step does not advance")
    return values


class _HelpFormatter(argparse.HelpFormatter):
    """Names a flag's value after the flag rather than after its ``dest``."""

    def _get_default_metavar_for_optional(self, action):
        return action.option_strings[0].lstrip("-").replace("-", "_").upper()


# Each sweep flag sets exactly one SimConfig field: it stores under the
# field's name and has no default of its own, so only the flags given reach
# SimConfig, which supplies the rest.
def _add_common(parser: argparse.ArgumentParser, scenario: str) -> None:
    parser.add_argument("--detectors", type=lambda text: tuple(text.split(",")), required=True,
                        help=f"comma list of detectors run on every trial, from "
                             f"{','.join(DETECTORS[scenario])}; the oracle if listed, else "
                             "the first, counts the block errors that end a grid point")
    parser.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    parser.add_argument("--min-block-errors", type=int)
    parser.add_argument("--max-trials", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--cross-max-rank", dest="cross_max_rank", type=int,
                        help="rank cap of the cross, which bounds the time per TT call at low "
                             "SNR or large N; a max_rmax equal to it means the cap was binding")
    parser.add_argument("--trial-dump", help="optional per-trial CSV with columns "
                        "detector,snr_db,trial,errors,rmax,early")
    parser.add_argument("--out", dest="out_path", required=True, help="output CSV path")


RUN_FILE_HELP = ("An argument @FILE reads more arguments from FILE, one argument per line "
                 "(--seed=3, or --seed and 3 on two lines) with no blank lines; later "
                 "arguments win, so a flag after @FILE overrides the file's.")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="ttinfer", description=__doc__, fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    mimo = sub.add_parser("mimo", help="MIMO SER sweep", formatter_class=_HelpFormatter,
                          argument_default=argparse.SUPPRESS, epilog=RUN_FILE_HELP)
    mimo.add_argument("--nt", dest="nt_complex", type=int,
                      help="complex antenna count (square system)")
    mimo.add_argument("--qam", type=int, help="QAM order (square)")
    mimo.add_argument("--snr", dest="snr_grid", type=_parse_grid, default=(0.0,),
                      help="SNR grid in dB, per transmit stream")
    _add_common(mimo, "mimo")

    decode = sub.add_parser("decode", help="linear-code BER sweep", formatter_class=_HelpFormatter,
                            argument_default=argparse.SUPPRESS, epilog=RUN_FILE_HELP)
    decode.add_argument("--code", dest="code_path", required=True,
                        help="generator matrix file, or a packaged name like bch_63_30")
    decode.add_argument("--ebn0", dest="snr_grid", type=_parse_grid, default=(4.0,),
                        help="Eb/N0 grid in dB")
    _add_common(decode, "decode")

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    sweep_parser = commands[args.command]
    settings = vars(args)
    try:
        cfg = SimConfig(scenario=settings.pop("command"), **settings)
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
