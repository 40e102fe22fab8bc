"""Tensor-train (TT) format: data structure and exact arithmetic.

A tensor train represents an order-N tensor A as a chain of order-3 cores
G_1, ..., G_N with

    A(k_1, ..., k_N) = G_1(k_1) G_2(k_2) ... G_N(k_N),

where G_i(k) is the r_{i-1} x r_i matrix slice of core i at physical index k
and the boundary ranks are r_0 = r_N = 1.  All indices in this module are
0-based.

Provided operations: batched entry evaluation, densification (an oracle
bridge), addition, Hadamard product, scalar multiplication, all single-mode
marginals in one pass of core sums and shared prefix/suffix products, and
SVD rank truncation (rounding) after a QR sweep.  All operations allocate
fresh outputs; TensorTrain values are immutable.  The exact sum-of-products
builder ``_sum_of_products`` writes the code log-APP metric, the MIMO
log-likelihood and the separable log-prior as TTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "CapacityError",
    "DenseTensor",
    "TensorTrain",
    "constant_tt",
    "ones_tt",
    "zeros_tt",
    "tt_add",
    "tt_eval_many",
    "tt_hadamard",
    "tt_marginals",
    "tt_scale",
    "tt_to_dense",
    "tt_truncate",
]

# Guard against accidental densification of large tensors; not a format limit.
DENSE_BUDGET = 2**24


class CapacityError(ValueError):
    """Raised when a dense materialization would exceed the element budget."""


class TensorTrain:
    """Immutable chain of order-3 cores with matching bond ranks.

    Parameters
    ----------
    cores : sequence of np.ndarray
        Core i must have shape (r_{i-1}, n_i, r_i) with r_0 = r_N = 1.
    copy : bool
        Copy the core arrays (default).  Internal callers that hand over
        freshly allocated arrays may pass False.
    """

    __slots__ = ("cores",)

    def __init__(self, cores, copy: bool = True):
        prepared = []
        for core in cores:
            arr = np.array(core, dtype=np.float64, copy=copy)
            if arr.ndim != 3:
                raise ValueError(f"TT core must be order 3, got shape {arr.shape}")
            arr.flags.writeable = False
            prepared.append(arr)
        if not prepared:
            raise ValueError("TT needs at least one core")
        if prepared[0].shape[0] != 1 or prepared[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for left, right in zip(prepared, prepared[1:]):
            if left.shape[2] != right.shape[0]:
                raise ValueError(
                    f"bond mismatch: right rank {left.shape[2]} vs left rank {right.shape[0]}"
                )
        object.__setattr__(self, "cores", tuple(prepared))

    def __setattr__(self, name, value):
        raise AttributeError("TensorTrain is immutable")

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """All N+1 bond ranks (r_0, ..., r_N), boundaries included."""
        return (1,) + tuple(c.shape[2] for c in self.cores)

    def n_elements(self) -> int:
        return int(np.prod([float(n) for n in self.dims]))

    def __repr__(self) -> str:
        return f"TensorTrain(dims={self.dims}, ranks={self.ranks})"


@dataclass(frozen=True)
class DenseTensor:
    """Explicit multiway array; the desk-scale oracle counterpart of a TT.

    ``data`` is stored C-contiguous, so ``data.ravel()`` is the flat
    row-major entry list.  Dense tensors exist for oracle checks only:
    ``tt_to_dense`` refuses tensors above its element budget.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", arr)


def tt_eval_many(tt: TensorTrain, idx: np.ndarray) -> np.ndarray:
    """Evaluate a batch of entries; ``idx`` has shape (batch, order).

    Raises IndexError on another shape, on a non-integer dtype (a cast
    would truncate 1.7 to 1 silently) or on an index outside the dims
    (numpy's fancy indexing rejects those >= n_i, but would wrap negative
    ones silently).
    """
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[1] != tt.order:
        raise IndexError(f"index batch must be (batch, {tt.order}), got {idx.shape}")
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise IndexError(f"index batch must hold integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and idx.min() < 0:
        raise IndexError(f"negative index in batch for dims {tt.dims}")
    vec = tt.cores[0][0, idx[:, 0], :]  # (batch, r_1)
    for i in range(1, tt.order):
        slices = tt.cores[i][:, idx[:, i], :]  # (r, batch, r')
        vec = np.einsum("bl,lbr->br", vec, slices)
    return vec[:, 0]


def tt_to_dense(tt: TensorTrain) -> DenseTensor:
    """Materialize the full tensor (oracle bridge; <= DENSE_BUDGET entries)."""
    total = tt.n_elements()
    if total > DENSE_BUDGET:
        raise CapacityError(f"densifying {total} elements exceeds budget {DENSE_BUDGET}")
    block = tt.cores[0][0]  # (n_1, r_1)
    for core in tt.cores[1:]:
        rl, n, rr = core.shape
        block = block @ core.reshape(rl, n * rr)
        block = block.reshape(-1, rr)
    return DenseTensor(block.reshape(tt.dims))


def _chop_ranks(s: np.ndarray, delta: float) -> int:
    """Smallest kept rank r with Frobenius tail sqrt(sum_{j>=r} s_j^2) <= delta."""
    if s.size == 0:
        return 1
    if delta <= 0.0:
        return max(1, int(np.count_nonzero(s)))
    vals, tail = s.tolist(), 0.0
    for r in range(len(vals) - 1, 0, -1):  # the sums of np.cumsum(s[::-1] ** 2), in order
        tail += vals[r] * vals[r]
        if math.sqrt(tail) > delta:
            return r + 1
    return 1


def tt_add(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Elementwise sum via the block-diagonal core construction.

    Interior ranks add exactly: r_i = r_i^A + r_i^B.
    """
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    if a.order == 1:
        return TensorTrain([a.cores[0] + b.cores[0]])
    cores = []
    for i, (ca, cb) in enumerate(zip(a.cores, b.cores)):
        la, n, ra = ca.shape
        lb, _, rb = cb.shape
        if i == 0:
            cores.append(np.concatenate([ca, cb], axis=2))
        elif i == a.order - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            block = np.zeros((la + lb, n, ra + rb))
            block[:la, :, :ra] = ca
            block[la:, :, ra:] = cb
            cores.append(block)
    return TensorTrain(cores, copy=False)


def tt_hadamard(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Elementwise product; core slices are Kronecker products, ranks multiply."""
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        la, n, ra = ca.shape
        lb, _, rb = cb.shape
        block = np.einsum("anb,cnd->acnbd", ca, cb)
        cores.append(block.reshape(la * lb, n, ra * rb))
    return TensorTrain(cores, copy=False)


def tt_scale(a: TensorTrain, lam: float) -> TensorTrain:
    """Scale all entries by ``lam`` (absorbed into the first core)."""
    cores = [a.cores[0] * lam]
    cores.extend(a.cores[1:])
    return TensorTrain(cores)


def tt_marginals(a: TensorTrain) -> list[np.ndarray]:
    """Every single-mode marginal without densifying: vector i, of length
    n_i, sums the tensor over every mode except i.

    Each core is summed over its physical index once; the prefix products
    of those sums (left to right) and suffix products (right to left) are
    shared by all modes, so one pass costs O(N) small matmuls.
    """
    sums = [core.sum(axis=1) for core in a.cores]
    lefts = [np.ones((1, 1))]
    for s in sums[:-1]:
        lefts.append(lefts[-1] @ s)
    rights = [np.ones((1, 1))]
    for s in sums[:0:-1]:
        rights.append(s @ rights[-1])
    rights.reverse()
    return [
        np.einsum("l,lkr,r->k", left[0], core, right[:, 0])
        for left, core, right in zip(lefts, a.cores, rights)
    ]


def _orthogonalize_lr(cores: list[np.ndarray]) -> list[np.ndarray]:
    """Left-to-right QR sweep; afterwards all cores except the last are
    left-orthogonal and the last core carries the Frobenius norm."""
    out = list(cores)
    for i in range(len(out) - 1):
        rl, n, rr = out[i].shape
        q, rmat = np.linalg.qr(out[i].reshape(rl * n, rr))
        out[i] = q.reshape(rl, n, q.shape[1])
        nxt = out[i + 1]
        out[i + 1] = (rmat @ nxt.reshape(rr, -1)).reshape(-1, *nxt.shape[1:])
    return out


def tt_truncate(a: TensorTrain, tol: float, max_rank: int | None = None) -> TensorTrain:
    """SVD rank truncation (TT rounding) with relative tolerance ``tol``.

    Left-to-right orthogonalization followed by a right-to-left SVD sweep;
    each SVD discards a Frobenius tail of at most tol*||a||/sqrt(N-1), so
    the total error is bounded by tol*||a||.  ``max_rank`` additionally caps
    every bond.
    """
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    if a.order == 1:
        return TensorTrain(a.cores)
    cores = _orthogonalize_lr(list(a.cores))
    norm = np.linalg.norm(cores[-1])
    if norm == 0.0:
        return zeros_tt(a.dims)
    delta = tol * norm / np.sqrt(a.order - 1)
    for i in range(a.order - 1, 0, -1):
        rl, n, rr = cores[i].shape
        u, s, vt = np.linalg.svd(cores[i].reshape(rl, n * rr), full_matrices=False)
        r = _chop_ranks(s, delta)
        if max_rank is not None:
            r = min(r, max_rank)
        cores[i] = vt[:r].reshape(r, n, rr)
        left = cores[i - 1]
        cores[i - 1] = (left.reshape(-1, rl) @ (u[:, :r] * s[:r])).reshape(*left.shape[:2], r)
    return TensorTrain(cores, copy=False)


def zeros_tt(dims) -> TensorTrain:
    """Rank-1 TT of all zeros."""
    return TensorTrain([np.zeros((1, n, 1)) for n in dims], copy=False)


def ones_tt(dims) -> TensorTrain:
    """Rank-1 TT of all ones."""
    return TensorTrain([np.ones((1, n, 1)) for n in dims], copy=False)


def constant_tt(dims, value: float) -> TensorTrain:
    """Rank-1 TT with every entry equal to ``value``."""
    return tt_scale(ones_tt(dims), value)


_ONE, _SUM = "one", "sum"  # the two channels every interior bond carries


class _SumOfProducts(NamedTuple):
    """A sum-of-products TT laid out for any coefficients c (see
    ``_sum_of_products``): the cores end to end in one flat array ``base``
    of constant entries, where entries ``pos[t]`` of term t add
    ``weight[t] * c[t]``.  The arrays are read-only, so one layout may serve
    every caller."""

    shapes: tuple
    splits: np.ndarray
    base: np.ndarray
    pos: np.ndarray
    weight: np.ndarray

    def build(self, c: np.ndarray) -> TensorTrain:
        """The TT of sum_t c[t] prod_i F[t, i, x_i]."""
        flat = self.base.copy()
        np.add.at(flat, self.pos, self.weight * c[:, None])
        parts = np.split(flat, self.splits)
        return TensorTrain([part.reshape(shape) for part, shape in zip(parts, self.shapes)],
                           copy=False)


def _sum_of_products(factors: np.ndarray) -> _SumOfProducts:
    """Layout of the exact TT of f(x) = sum_t c_t prod_i F[t, i, x_i] for a
    (terms x modes x alphabet) factor table F, built in one pass without
    rounding; ``build(c)`` then scatters the coefficients into it.

    Term t's support is the set of modes whose factor row F[t, i] is not all
    ones (mode 0 alone for a constant term).  Bond b carries the constant 1
    (channel ONE), the running sum of the terms whose support ends left of b
    (SUM), and one channel per distinct pattern of the terms that straddle b
    (support on both sides): left of a switch bond, the partial product of
    each distinct prefix F[t, :b]; from the switch bond on, the coefficient
    still owed to each distinct suffix F[t, b:].  Term t's path runs ONE ->
    prefix channels -> suffix channels -> SUM, entering at its first support
    mode and leaving at its last; each step multiplies by F[t, i, x_i].  The
    one step from the product side (ONE, prefix) to the coefficient side
    (suffix, SUM) also multiplies by c_t, so term t owns one row of ``pos``;
    every other entry is a constant, the same for every term that shares it.
    With the switch bond where the rank sum is least, bond b has rank at most
    min(#prefixes, #suffixes) + 2: the TT analogue of a trellis span profile
    (Oseledets, Constr. Approx. 2013).
    """
    n_terms, order, size = factors.shape
    support = ~np.all(factors == 1.0, axis=2)
    support[~support.any(axis=1), 0] = True
    first = support.argmax(axis=1)
    last = order - 1 - support[:, ::-1].argmax(axis=1)
    straddling = [np.flatnonzero((first < b) & (b <= last)) for b in range(order + 1)]
    prefixes = [dict.fromkeys(factors[t, :b].tobytes() for t in rows)
                for b, rows in enumerate(straddling)]
    suffixes = [dict.fromkeys(factors[t, b:].tobytes() for t in rows)
                for b, rows in enumerate(straddling)]
    n_pre = np.array([len(p) for p in prefixes])
    n_suf = np.array([len(s) for s in suffixes])
    # cost[s]: pattern channels of all bonds when bonds b < s take prefixes
    cost = np.concatenate([[0], np.cumsum(n_pre)[:-1]]) + np.cumsum(n_suf[::-1])[::-1]
    switch = 1 + int(np.argmin(cost[1:]))
    channels = [{_ONE: 0}]
    for b in range(1, order):
        keys = prefixes[b] if b < switch else suffixes[b]
        channels.append({_ONE: 0, _SUM: 1, **{key: 2 + q for q, key in enumerate(keys)}})
    channels.append({_SUM: 0})

    cores = [np.zeros((len(channels[i]), size, len(channels[i + 1]))) for i in range(order)]
    for i in range(1, order - 1):
        cores[i][0, :, 0] = cores[i][1, :, 1] = 1.0
    if order > 1:
        cores[0][0, :, 0] = cores[-1][1, :, 0] = 1.0
    offsets = np.cumsum([0] + [core.size for core in cores])

    def state(t, b):
        """Term t's channel at bond b, and whether that channel holds c_t."""
        if b <= first[t]:
            return _ONE, False
        if b > last[t]:
            return _SUM, True
        return (factors[t, :b].tobytes(), False) if b < switch else (factors[t, b:].tobytes(), True)

    pos, weight = [], []
    for t in range(n_terms):
        for i in range(first[t], last[t] + 1):
            (src, c_in), (dst, c_out) = state(t, i), state(t, i + 1)
            a, b = channels[i][src], channels[i + 1][dst]
            if c_out and not c_in:
                pos.append(offsets[i] + (a * size + np.arange(size)) * cores[i].shape[2] + b)
                weight.append(factors[t, i])
            else:
                cores[i][a, :, b] = factors[t, i]
    layout = _SumOfProducts(shapes=tuple(core.shape for core in cores), splits=offsets[1:-1],
                            base=np.concatenate([core.ravel() for core in cores]),
                            pos=np.array(pos), weight=np.array(weight))
    for arr in layout[1:]:
        arr.flags.writeable = False
    return layout
