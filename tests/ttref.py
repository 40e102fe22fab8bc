"""Test-local TT constructors: seeded random TTs and an exact TT-SVD.

The package builds its TTs from model structure and never from a dense
array, so these reference constructors live beside the tests that need
arbitrary inputs and dense-to-TT round trips.
"""

import numpy as np

from ttinfer import TensorTrain, zeros_tt
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
