"""Test-local TT constructors (seeded random TTs and an exact TT-SVD) and
the benchmark's seeded pipeline inputs.

The package builds its TTs from model structure and never from a dense
array, so these reference constructors live beside the tests that need
arbitrary inputs and dense-to-TT round trips.  The pipeline inputs repeat
the draws of the benchmark's workloads, so tests of several modules can pin
the benchmark's own trials.
"""

import numpy as np

from ttinfer import (
    ChannelRealization,
    QamConstellation,
    TensorTrain,
    noise_variance_for_snr,
    realify_channel,
    sample_channel,
    zeros_tt,
)
from ttinfer.tt import _chop_ranks


def random_tt(dims, ranks, rng: np.random.Generator, scale: float = 1.0) -> TensorTrain:
    """Random TT with i.i.d. normal core entries, drawn core by core;
    ``ranks`` lists the interior bond ranks (length N-1)."""
    dims = tuple(int(n) for n in dims)
    full = (1,) + tuple(int(r) for r in ranks) + (1,)
    if len(full) != len(dims) + 1:
        raise ValueError("need len(dims)-1 interior ranks")
    return TensorTrain([scale * rng.standard_normal((full[i], dims[i], full[i + 1]))
                        for i in range(len(dims))], copy=False)


def tt_svd(t, tol: float = 0.0) -> TensorTrain:
    """TT-SVD of a dense array with relative Frobenius tolerance ``tol``.

    The truncation budget tol*||t|| is split evenly over the N-1 SVD steps,
    so the reconstruction error is at most tol*||t||.  With tol = 0 the
    decomposition is exact to machine precision.
    """
    arr = np.asarray(t, dtype=np.float64)
    dims, order = arr.shape, arr.ndim
    if order == 1:
        return TensorTrain([arr.reshape(1, -1, 1)])
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        return zeros_tt(dims)
    delta = tol * norm / np.sqrt(order - 1)
    cores, block, r_prev = [], arr, 1
    for n in dims[:-1]:
        u, s, vt = np.linalg.svd(block.reshape(r_prev * n, -1), full_matrices=False)
        r = _chop_ranks(s, delta)
        cores.append(u[:, :r].reshape(r_prev, n, r))
        block = s[:r, None] * vt[:r]
        r_prev = r
    cores.append(block.reshape(r_prev, dims[-1], 1))
    return TensorTrain(cores, copy=False)


def perfbench_mimo16_inputs(seed, index, snr_db=15.0):
    """The benchmark's mimo16_15db trial ``index``: the data stream and one
    cross seed per variant split from SeedSequence([seed, index])."""
    data, *cross = np.random.SeedSequence([seed, index]).spawn(3)
    rng = np.random.default_rng(data)
    const = QamConstellation.from_order(16)
    hc = sample_channel(4, 4, rng)
    s2 = noise_variance_for_snr(hc, const.energy_complex, snr_db)
    x = const.alphabet[rng.integers(0, const.size_real, size=8)]
    h = realify_channel(hc)
    y = h @ x + np.sqrt(s2) * rng.standard_normal(8)
    ch = ChannelRealization(h=h, sigma2=s2, nt_complex=4, nr_complex=4)
    seeds = {v: int(s.generate_state(1)[0]) for v, s in zip(("sample", "sweep"), cross)}
    return const, ch, y, seeds


def perfbench_bch31_inputs(code, n0, seed, index):
    """The benchmark's bch31_4db trial ``index``: the data stream and one
    cross seed per variant split from SeedSequence([seed, index])."""
    data, *cross = np.random.SeedSequence([seed, index]).spawn(3)
    rng = np.random.default_rng(data)
    u = rng.integers(0, 2, size=code.k)
    y = 1.0 - 2.0 * code.encode(u) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
    seeds = {v: int(s.generate_state(1)[0]) for v, s in zip(("sample", "sweep"), cross)}
    return y, seeds
