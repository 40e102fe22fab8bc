"""Tensor-train (TT) format: data structure and exact arithmetic.

A tensor train represents an order-N tensor A as a chain of order-3 cores
G_1, ..., G_N with

    A(k_1, ..., k_N) = G_1(k_1) G_2(k_2) ... G_N(k_N),

where G_i(k) is the r_{i-1} x r_i matrix slice of core i at physical index k
and the boundary ranks are r_0 = r_N = 1.  All indices in this module are
0-based.

Provided operations: entry evaluation, densification and TT-SVD, addition,
Hadamard product, scalar multiplication, all single-mode marginals in one
pass of core sums and shared prefix/suffix products, the
orthogonalization-based norm, and SVD rank truncation (rounding), through QR
or, for the Taylor init's Horner steps, Gram matrices.  All operations
allocate fresh outputs; TensorTrain values are immutable.  The exact
sum-of-products builder ``_sum_of_products`` writes the code log-APP metric,
the MIMO log-likelihood and the separable log-prior as TTs.
"""

from __future__ import annotations

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
    "rank_one_tt",
    "random_tt",
    "tt_add",
    "tt_eval",
    "tt_eval_many",
    "tt_from_dense",
    "tt_hadamard",
    "tt_marginals",
    "tt_norm",
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

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def n_elements(self) -> int:
        return int(np.prod([float(n) for n in self.dims]))

    def __repr__(self) -> str:
        return f"TensorTrain(dims={self.dims}, ranks={self.ranks})"


@dataclass(frozen=True)
class DenseTensor:
    """Explicit multiway array; the desk-scale oracle counterpart of a TT.

    ``data`` is stored C-contiguous, so ``data.ravel()`` is the flat
    row-major entry list.  Construction refuses tensors above ``budget``
    elements: dense tensors exist for oracle checks only.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, data, budget: int = DENSE_BUDGET) -> "DenseTensor":
        arr = np.asarray(data, dtype=np.float64)
        if arr.size > budget:
            raise CapacityError(f"dense tensor with {arr.size} elements exceeds budget {budget}")
        return cls(arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape


def _as_index(tt: TensorTrain, idx) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (tt.order,):
        raise IndexError(f"index length {idx.shape} does not match order {tt.order}")
    dims = np.asarray(tt.dims)
    if np.any(idx < 0) or np.any(idx >= dims):
        raise IndexError(f"index {tuple(idx)} out of range for dims {tt.dims}")
    return idx


def tt_eval(tt: TensorTrain, idx) -> float:
    """Evaluate one entry as the ordered product of core slices."""
    idx = _as_index(tt, idx)
    vec = tt.cores[0][:, idx[0], :][0]
    for core, k in zip(tt.cores[1:], idx[1:]):
        vec = vec @ core[:, k, :]
    return float(vec[0])


def tt_eval_many(tt: TensorTrain, idx: np.ndarray) -> np.ndarray:
    """Evaluate a batch of entries; ``idx`` has shape (batch, order)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != tt.order:
        raise IndexError(f"index batch must be (batch, {tt.order}), got {idx.shape}")
    vec = tt.cores[0][0, idx[:, 0], :]  # (batch, r_1)
    for i in range(1, tt.order):
        slices = tt.cores[i][:, idx[:, i], :]  # (r, batch, r')
        vec = np.einsum("bl,lbr->br", vec, slices)
    return vec[:, 0]


def tt_to_dense(tt: TensorTrain, budget: int = DENSE_BUDGET) -> DenseTensor:
    """Materialize the full tensor (oracle bridge; budget-guarded)."""
    total = tt.n_elements()
    if total > budget:
        raise CapacityError(f"densifying {total} elements exceeds budget {budget}")
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
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||s[r:]||
    keep = np.nonzero(tail > delta)[0]
    if keep.size == 0:
        return 1
    return int(keep[-1]) + 1


def tt_from_dense(t, tol: float = 0.0, max_rank: int | None = None) -> TensorTrain:
    """TT-SVD of a dense tensor with relative Frobenius tolerance ``tol``.

    The truncation budget tol*||t|| is split evenly over the N-1 SVD steps,
    so the reconstruction error is at most tol*||t||.  With tol = 0 the
    decomposition is exact to machine precision.
    """
    if isinstance(t, DenseTensor):
        arr = t.data
    else:
        arr = np.asarray(t, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError("tensor must have order >= 1")
    if arr.ndim == 1:
        return TensorTrain([arr.reshape(1, -1, 1)])
    dims = arr.shape
    order = arr.ndim
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        return zeros_tt(dims)
    delta = tol * norm / np.sqrt(order - 1)
    cores = []
    block = arr.reshape(dims[0], -1)
    r_prev = 1
    for i in range(order - 1):
        block = block.reshape(r_prev * dims[i], -1)
        u, s, vt = np.linalg.svd(block, full_matrices=False)
        r = _chop_ranks(s, delta)
        if max_rank is not None:
            r = min(r, max_rank)
        cores.append(u[:, :r].reshape(r_prev, dims[i], r))
        block = s[:r, None] * vt[:r]
        r_prev = r
    cores.append(block.reshape(r_prev, dims[-1], 1))
    return TensorTrain(cores, copy=False)


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


def tt_norm(a: TensorTrain) -> float:
    """Frobenius norm of the represented tensor, via orthogonalization."""
    if a.order == 1:
        return float(np.linalg.norm(a.cores[0]))
    cores = _orthogonalize_lr(list(a.cores))
    return float(np.linalg.norm(cores[-1]))


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


# Singular values from a Gram eigensolve are resolved only down to about
# sqrt(eps) * s_max; those below this fraction of s_max are eigen-noise.
GRAM_RANK_FLOOR = 1e-7


def _round_gram(cores, tol: float, max_rank: int | None = None) -> TensorTrain:
    """TT rounding from Gram matrices instead of QR (Al Daas, Ballard &
    Manning, "Parallel Tensor Train Rounding using Gram SVD", 2022).

    The left Grams G_i of the unorthogonalized cores stand in for the R
    factors of ``tt_truncate``'s QR sweep: at each bond the right-to-left
    sweep takes the eigendecomposition of Z^T G_i Z, whose square-rooted
    eigenvalues are the singular values that ``tt_truncate`` would chop with
    the same budget.  It costs matmuls and small symmetric eigensolves, but
    resolves singular values only down to about GRAM_RANK_FLOOR * s_max per
    bond; smaller ones are dropped whatever ``tol`` asks.
    """
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    cores = list(cores)
    order = len(cores)
    if order == 1:
        return TensorTrain(cores)
    grams = [np.ones((1, 1))]
    for core in cores[:-1]:
        rl, n, rr = core.shape
        weighted = (grams[-1] @ core.reshape(rl, n * rr)).reshape(rl * n, rr)
        grams.append(core.reshape(rl * n, rr).T @ weighted)
    block = cores[-1]
    for i in range(order - 1, 0, -1):
        rl, n, rr = block.shape
        z = block.reshape(rl, n * rr)
        w, v = np.linalg.eigh(z.T @ (grams[i] @ z))
        w, v = w[::-1], v[:, ::-1]
        if i == order - 1:
            norm = np.sqrt(max(w.sum(), 0.0))
            if norm == 0.0:
                return zeros_tt(tuple(c.shape[1] for c in cores))
            delta = tol * norm / np.sqrt(order - 1)
        s = np.sqrt(np.clip(w, 0.0, None))
        s[s < GRAM_RANK_FLOOR * s[0]] = 0.0
        r = _chop_ranks(s, delta)
        if max_rank is not None:
            r = min(r, max_rank)
        cores[i] = np.ascontiguousarray(v[:, :r].T).reshape(r, n, rr)
        left = cores[i - 1]
        block = (left.reshape(-1, rl) @ (z @ v[:, :r])).reshape(*left.shape[:2], r)
    cores[0] = block
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


def rank_one_tt(vectors) -> TensorTrain:
    """Rank-1 TT of the outer product v_1 x v_2 x ... x v_N."""
    return TensorTrain([np.asarray(v, dtype=np.float64).reshape(1, -1, 1) for v in vectors])


def random_tt(dims, ranks, rng: np.random.Generator, scale: float = 1.0) -> TensorTrain:
    """Random TT with i.i.d. normal core entries; ``ranks`` lists the
    interior bond ranks (length N-1)."""
    dims = tuple(int(n) for n in dims)
    full = (1,) + tuple(int(r) for r in ranks) + (1,)
    if len(full) != len(dims) + 1:
        raise ValueError("need len(dims)-1 interior ranks")
    cores = [scale * rng.standard_normal((full[i], dims[i], full[i + 1])) for i in range(len(dims))]
    return TensorTrain(cores, copy=False)



_ONE, _SUM = "one", "sum"  # the two channels every interior bond carries


class _SumOfProducts(NamedTuple):
    """A sum-of-products TT laid out for any coefficients c (see
    ``_sum_of_products``): the cores end to end in one flat array ``base``
    of constant entries, where entries ``pos[g]`` add ``weight[g] * c[term[g]]``.
    The arrays are read-only, so one layout may serve every caller."""

    shapes: tuple
    splits: np.ndarray
    base: np.ndarray
    pos: np.ndarray
    term: np.ndarray
    weight: np.ndarray

    def build(self, c: np.ndarray) -> TensorTrain:
        """The TT of sum_t c[t] prod_i F[t, i, x_i]."""
        flat = self.base.copy()
        np.add.at(flat, self.pos, self.weight * c[self.term, None])
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
    (suffix, SUM) also multiplies by c_t; every other entry is a constant,
    the same for every term that shares it.  With the switch bond where the
    rank sum is least, bond b has rank at most min(#prefixes, #suffixes) + 2:
    the TT analogue of a trellis span profile (Oseledets, Constr. Approx.
    2013).
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

    pos, term, weight = [], [], []
    for t in range(n_terms):
        for i in range(first[t], last[t] + 1):
            (src, c_in), (dst, c_out) = state(t, i), state(t, i + 1)
            a, b = channels[i][src], channels[i + 1][dst]
            if c_out and not c_in:
                pos.append(offsets[i] + (a * size + np.arange(size)) * cores[i].shape[2] + b)
                term.append(t)
                weight.append(factors[t, i])
            else:
                cores[i][a, :, b] = factors[t, i]
    layout = _SumOfProducts(shapes=tuple(core.shape for core in cores), splits=offsets[1:-1],
                            base=np.concatenate([core.ravel() for core in cores]),
                            pos=np.array(pos), term=np.array(term), weight=np.array(weight))
    for arr in layout[1:]:
        arr.flags.writeable = False
    return layout
