"""Golden fixed-seed sweep CSVs: decisions, ranks and early stops must not move.

The files under ``tests/data/`` were written by this module's ``__main__``
block.  A change that moves any digit either is a regression or must explain
the new digits and regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from ttinfer import SimConfig, builtin_code_path, run_sweep

DATA = Path(__file__).parent / "data"


def _decode(code: str, trials: int) -> dict:
    return dict(
        scenario="decode",
        snr_grid=(3.0, 4.0),
        detectors=("oracle", "sample", "sweep"),
        code_path=str(builtin_code_path(code)),
        max_trials=trials,
        master_seed=11,
    )


GOLDEN = {
    "hamming_7_4": _decode("hamming_7_4", 16),
    "bch_15_7": _decode("bch_15_7", 12),
    "mimo_4x4_qam4_10db": dict(
        scenario="mimo",
        snr_grid=(10.0,),
        detectors=("oracle", "sample", "sweep", "lmmse"),
        nt_complex=4,
        qam=4,
        max_trials=20,
        master_seed=11,
    ),
    # 16-QAM at 10 dB: the sphere list certifies none of these trials, so
    # every TT row here comes from the cross.
    "mimo_4x4_qam16_10db": dict(
        scenario="mimo",
        snr_grid=(10.0,),
        detectors=("oracle", "sample", "sweep", "lmmse"),
        nt_complex=4,
        qam=16,
        max_trials=16,
        master_seed=11,
    ),
}


def write_sweep(name: str, out_dir: Path) -> None:
    run_sweep(
        SimConfig(
            **GOLDEN[name],
            out_path=str(out_dir / f"golden_{name}.csv"),
            trial_dump=str(out_dir / f"golden_{name}_trials.csv"),
        )
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_csvs_byte_identical(name, tmp_path):
    write_sweep(name, tmp_path)
    for suffix in ("", "_trials"):
        fname = f"golden_{name}{suffix}.csv"
        assert (tmp_path / fname).read_bytes() == (DATA / fname).read_bytes(), fname


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for golden in sys.argv[1:] or sorted(GOLDEN):
        write_sweep(golden, DATA)
