"""Cross approximation in the TT format.

Building blocks:

* ``maxvol`` -- iterative row selection maximizing the submatrix determinant
  magnitude (the pivot engine of all cross methods).
* ``matrix_cross`` -- skeleton decomposition B = C B(I,J)^-1 R of a matrix
  available only through an entry oracle.
* ``tt_exp_taylor`` -- Horner evaluation of the elementwise truncated Taylor
  series of exp, used to initialize the cross algorithms.
* ``tt_cross_sample`` / ``tt_cross_sweep`` -- apply a scalar function f
  elementwise to a TT without densification.  The sample variant updates one
  core per step from sampled fibers (classical TT-cross interpolation); the
  sweep variant optimizes merged two-core blocks with a local SVD (DMRG-style)
  and is typically more accurate at higher cost.

Both cross variants evaluate f only at structured samples (left-prefix x
physical index x right-suffix), adapt ranks through a local SVD threshold,
enrich the search with random indices each sweep, and stop when the values at
a fixed random probe set change by less than ``conv_tol`` between half sweeps.
All randomness flows from ``CrossConfig.rng_seed``; fixed seed means
bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .tt import TensorTrain, _round_gram, ones_tt, tt_add, tt_eval_many, tt_hadamard, tt_scale

__all__ = [
    "CrossConfig",
    "CrossResult",
    "DegenerateMatrixError",
    "MatrixCrossResult",
    "NonFiniteValueError",
    "PivotSets",
    "matrix_cross",
    "maxvol",
    "tt_cross",
    "tt_cross_sample",
    "tt_cross_sweep",
    "tt_exp_taylor",
]

MAXVOL_DOM_TOL = 1e-2
MAXVOL_MAX_ITERS = 100
N_PROBE = 256


class DegenerateMatrixError(ValueError):
    """Raised when pivot selection meets a numerically rank-deficient block."""


class NonFiniteValueError(FloatingPointError):
    """A sampled function value was not finite; ``index`` is the offender."""

    def __init__(self, index):
        self.index = tuple(int(k) for k in index)
        super().__init__(f"non-finite function value at multi-index {self.index}")


@dataclass(frozen=True)
class CrossConfig:
    """Knobs of the TT-cross algorithms.

    Attributes
    ----------
    max_rank : rank cap for every bond of the output.
    n_sweeps : maximum number of full (left-right plus right-left) sweeps.
    sample_oversample : extra random index candidates added per core update;
        drives both rank growth and the random exploration that keeps the
        algorithms from stalling in local minima.
    conv_tol : relative probe-set change that counts as converged; also the
        relative Frobenius-tail threshold of the local rank-adapting SVDs.
    rng_seed : seed of the private random stream (fixed seed -> bit-identical
        results; the algorithms are otherwise non-deterministic by nature).
    """

    max_rank: int = 256
    n_sweeps: int = 8
    sample_oversample: int = 4
    conv_tol: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be >= 1")
        if self.sample_oversample < 0:
            raise ValueError("sample_oversample must be >= 0")
        if not self.conv_tol > 0:
            raise ValueError("conv_tol must be > 0")


@dataclass(frozen=True)
class PivotSets:
    """Nested cross pivots: ``row_sets[b]`` holds left prefixes (r_b, b+1)
    and ``col_sets[b]`` right suffixes (r_b, N-b-1) for interior bond b.

    Row sets are refreshed by left-to-right half sweeps and column sets by
    right-to-left ones, so after a converged run both describe the final
    ranks; mid-run the side opposite to the last half sweep may lag.
    """

    row_sets: tuple[np.ndarray, ...]
    col_sets: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MatrixCrossResult:
    """Skeleton factors of B ~ col_factor @ core @ row_factor."""

    col_factor: np.ndarray
    core: np.ndarray
    row_factor: np.ndarray
    pivots: PivotSets
    n_evals: int

    def reconstruct(self) -> np.ndarray:
        return self.col_factor @ self.core @ self.row_factor


@dataclass(frozen=True)
class CrossResult:
    tt: TensorTrain
    pivots: PivotSets
    n_evals: int
    n_half_sweeps: int
    converged: bool


def maxvol(
    m: np.ndarray,
    dom_tol: float = MAXVOL_DOM_TOL,
    max_iters: int = MAXVOL_MAX_ITERS,
    return_history: bool = False,
):
    """Select r rows of an n x r matrix (n >= r) with quasi-maximal volume.

    Starts from the partial-pivoting LU rows, then swaps rows while some
    entry of M @ M[rows]^-1 exceeds 1 + dom_tol in magnitude.  Each swap
    multiplies |det(M[rows])| by that entry, so the volume is
    non-decreasing and the final submatrix is dominant up to dom_tol.

    Returns the row indices, plus the list of swap gains (each > 1+dom_tol)
    when ``return_history`` is set.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("maxvol expects a matrix")
    n, r = m.shape
    if n < r:
        raise ValueError(f"need at least as many rows as columns, got {m.shape}")
    lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    diag = np.abs(np.diag(lu)[:r])
    if diag.max(initial=0.0) == 0.0 or diag.min() <= 1e-12 * diag.max():
        raise DegenerateMatrixError("pivoted pre-factorization failed: columns are dependent")
    perm = np.arange(n)
    for i, p in enumerate(piv[:r]):
        perm[i], perm[p] = perm[p], perm[i]
    rows = perm[:r].copy()
    # B = M @ M[rows]^-1; row j of the selected set maps to unit vector e_j.
    # numpy's solve, not scipy's: scipy's bundled BLAS stalls in this pipeline.
    b = np.linalg.solve(m[rows].T, m.T).T
    history: list[float] = []
    for _ in range(max_iters):
        i, j = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        gain = abs(b[i, j])
        if gain <= 1.0 + dom_tol:
            break
        history.append(float(gain))
        ej = np.zeros(r)
        ej[j] = 1.0
        b -= np.outer(b[:, j], b[i, :] - ej) / b[i, j]
        rows[j] = i
    if return_history:
        return rows, history
    return rows


def _rank_revealing_maxvol(m: np.ndarray) -> np.ndarray:
    """maxvol that survives wide or rank-deficient input by shrinking the
    column set (pivoted QR) first; returns <= min(m.shape) row indices."""
    n, r = m.shape
    if n >= r:
        try:
            return maxvol(m)
        except DegenerateMatrixError:
            pass
    _, rmat, piv = scipy.linalg.qr(m, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rmat))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(1, dtype=np.int64)
    rank = max(1, min(int(np.count_nonzero(diag > 1e-12 * diag[0])), n))
    return maxvol(m[:, piv[:rank]])


def matrix_cross(
    entry,
    shape: tuple[int, int],
    rank: int,
    rng: np.random.Generator,
    max_iters: int = 20,
    max_retries: int = 3,
) -> MatrixCrossResult:
    """Cross decomposition B = C B(I,J)^-1 R from an entry oracle.

    ``entry(rows, cols)`` must return the |rows| x |cols| block of B.  The
    column and row pivot sets are refined by alternating maxvol passes until
    they stabilize; when rank(B) <= rank the reconstruction is exact.  Each
    pass evaluates one column block and one row block, so the total number
    of evaluated entries is O((n+m) * rank) per refinement pass.
    """
    n, m = shape
    r = min(rank, n, m)
    if r < 1:
        raise ValueError("rank must be >= 1")
    n_evals = 0
    last_err: Exception | None = None
    for _ in range(max_retries + 1):
        cols = np.sort(rng.choice(m, size=r, replace=False))
        try:
            rows = None
            row_block = None
            for _ in range(max_iters):
                col_block = entry(np.arange(n), cols)
                n_evals += n * r
                rows = maxvol(col_block)
                row_block = entry(rows, np.arange(m))
                n_evals += r * m
                new_cols = maxvol(row_block.T)
                if np.array_equal(np.sort(new_cols), np.sort(cols)):
                    break
                cols = np.sort(new_cols)
            pivot_block = row_block[:, cols]
            if np.linalg.cond(pivot_block) > 1e13:
                raise DegenerateMatrixError("singular pivot block")
            core = np.linalg.inv(pivot_block)
            col_factor = entry(np.arange(n), cols)
            n_evals += n * r
            pivots = PivotSets(row_sets=(np.asarray(rows),), col_sets=(np.asarray(cols),))
            return MatrixCrossResult(col_factor, core, row_block, pivots, n_evals)
        except DegenerateMatrixError as err:
            last_err = err
    raise DegenerateMatrixError(f"cross pivoting failed after {max_retries} retries: {last_err}")


def tt_exp_taylor(a: TensorTrain, p: int, max_rank: int, tol: float) -> TensorTrain:
    """Elementwise exp(a) as the truncated Taylor polynomial of degree p.

    Horner form keeps intermediate ranks bounded: starting from the all-ones
    tensor, b <- round(a o b / k + 1, tol, max_rank) for k = p, ..., 1.
    With p = 0 the all-ones tensor is returned.  The pointwise error is the
    Taylor remainder plus the accumulated truncation error.  Each Horner step
    is rounded by Gram SVD (``_round_gram``) rather than QR, which spares
    the QR of the wide uncompressed product but resolves each bond only down
    to about 1e-7 of its largest singular value: a ``tol`` below that acts
    as about 1e-7.
    """
    if p < 0:
        raise ValueError("polynomial degree must be >= 0")
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    one = ones_tt(a.dims)
    b = one
    for k in range(p, 0, -1):
        b = _round_gram(tt_add(tt_scale(tt_hadamard(a, b), 1.0 / k), one).cores, tol, max_rank)
    return b


def _suffix_interfaces(a: TensorTrain, bond: int, suffixes: np.ndarray) -> np.ndarray:
    """Interface rows G_{bond+1}(k_1) ... G_N(k_last) for each suffix;
    ``suffixes`` has shape (count, N - bond)."""
    count = suffixes.shape[0]
    vec = np.ones((count, 1))
    for j in range(a.order - 1, bond - 1, -1):
        slices = a.cores[j][:, suffixes[:, j - bond], :]  # (r_l, count, r_r)
        vec = np.einsum("lcr,cr->cl", slices, vec)
    return vec


def _prefix_interfaces(a: TensorTrain, bond: int, prefixes: np.ndarray) -> np.ndarray:
    """Interface rows G_1(k_1) ... G_bond(k_bond); ``prefixes`` is (count, bond)."""
    count = prefixes.shape[0]
    vec = np.ones((count, 1))
    for j in range(bond):
        slices = a.cores[j][:, prefixes[:, j], :]
        vec = np.einsum("cl,lcr->cr", vec, slices)
    return vec


class _CrossEngine:
    """Shared state of the sampled cross sweeps over one argument TT."""

    def __init__(self, f, arg: TensorTrain, init: TensorTrain, cfg: CrossConfig, seed_indices=None):
        if arg.dims != init.dims:
            raise ValueError(f"init shape {init.dims} does not match argument {arg.dims}")
        self.f = f
        self.arg = arg
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.rng_seed)
        self.dims = arg.dims
        self.n = arg.order
        self.n_evals = 0
        self.cores: list[np.ndarray] = [np.asarray(c) for c in init.cores]
        # Pivot prefixes/suffixes and argument interfaces per bond 0..N.
        self.left: list[np.ndarray | None] = [None] * (self.n + 1)
        self.right: list[np.ndarray | None] = [None] * (self.n + 1)
        self.left_if: list[np.ndarray | None] = [None] * (self.n + 1)
        self.right_if: list[np.ndarray | None] = [None] * (self.n + 1)
        self.left[0] = np.zeros((1, 0), dtype=np.int64)
        self.right[self.n] = np.zeros((1, 0), dtype=np.int64)
        self.left_if[0] = np.ones((1, 1))
        self.right_if[self.n] = np.ones((1, 1))
        self._init_right_pivots(init)
        self.probe_idx = np.column_stack(
            [self.rng.integers(0, d, size=N_PROBE) for d in self.dims]
        )
        if seed_indices is not None:
            seeds = np.asarray(seed_indices, dtype=np.int64)
            self._seed_pivots(seeds)
            # Seeds anchor the convergence metric: where f is concentrated,
            # random probes alone would compare noise against noise.
            self.probe_idx = np.vstack([self.probe_idx, seeds])
        self.probe_vals = tt_eval_many(init, self.probe_idx)

    # -- initialization ---------------------------------------------------

    def _init_right_pivots(self, init: TensorTrain) -> None:
        """Right-to-left maxvol pass over the init cores; seeds nested right
        pivot sets and the matching argument interfaces."""
        v_init = np.ones((1, 1))
        for b in range(self.n - 1, 0, -1):
            core = init.cores[b]
            n_b = self.dims[b]
            count = self.right[b + 1].shape[0]
            cand = np.einsum("pkq,mq->kmp", core, v_init).reshape(n_b * count, -1)
            rows = _rank_revealing_maxvol(cand)
            k_idx, m_idx = np.divmod(rows, count)
            self.right[b] = np.column_stack([k_idx, self.right[b + 1][m_idx]])
            v_init = cand[rows]
            arg_cand = np.einsum(
                "pkq,mq->kmp", self.arg.cores[b], self.right_if[b + 1]
            ).reshape(n_b * count, -1)
            self.right_if[b] = arg_cand[rows]

    def _seed_pivots(self, seeds: np.ndarray) -> None:
        """Append the cross fibers through the given multi-indices to every
        right pivot set, so the first sweep is guaranteed to sample them.
        (The Taylor init can place all pivots in flat regions of f when the
        posterior is concentrated; a mode estimate prevents that collapse.)"""
        if seeds.ndim != 2 or seeds.shape[1] != self.n:
            raise ValueError(f"seed indices must be (count, {self.n}) shaped")
        for b in range(1, self.n):
            suffixes = seeds[:, b:]
            self.right[b] = np.vstack([self.right[b], suffixes])
            self.right_if[b] = np.vstack(
                [self.right_if[b], _suffix_interfaces(self.arg, b, suffixes)]
            )

    # -- shared helpers ----------------------------------------------------

    def _random_suffixes(self, bond: int, count: int) -> np.ndarray:
        tail = self.dims[bond:]
        return np.column_stack(
            [self.rng.integers(0, d, size=count) for d in tail]
        ) if tail else np.zeros((count, 0), dtype=np.int64)

    def _random_prefixes(self, bond: int, count: int) -> np.ndarray:
        head = self.dims[:bond]
        return np.column_stack(
            [self.rng.integers(0, d, size=count) for d in head]
        ) if head else np.zeros((count, 0), dtype=np.int64)

    def _right_candidates(self, bond: int) -> tuple[np.ndarray, np.ndarray]:
        """Current right pivots of ``bond`` plus random oversampling."""
        suffixes = self.right[bond]
        kick = self.cfg.sample_oversample
        if kick > 0 and bond < self.n:
            extra = self._random_suffixes(bond, kick)
            suffixes = np.vstack([suffixes, extra])
        return suffixes, self._interfaces_for_suffixes(bond, suffixes)

    def _left_candidates(self, bond: int) -> tuple[np.ndarray, np.ndarray]:
        prefixes = self.left[bond]
        kick = self.cfg.sample_oversample
        if kick > 0 and bond > 0:
            extra = self._random_prefixes(bond, kick)
            prefixes = np.vstack([prefixes, extra])
        return prefixes, self._interfaces_for_prefixes(bond, prefixes)

    def _interfaces_for_suffixes(self, bond: int, suffixes: np.ndarray) -> np.ndarray:
        known = self.right[bond].shape[0]
        if suffixes.shape[0] == known:
            return self.right_if[bond]
        extra = _suffix_interfaces(self.arg, bond, suffixes[known:])
        return np.vstack([self.right_if[bond], extra])

    def _interfaces_for_prefixes(self, bond: int, prefixes: np.ndarray) -> np.ndarray:
        known = self.left[bond].shape[0]
        if prefixes.shape[0] == known:
            return self.left_if[bond]
        extra = _prefix_interfaces(self.arg, bond, prefixes[known:])
        return np.vstack([self.left_if[bond], extra])

    def _apply_f(self, vals: np.ndarray, index_of_flat) -> np.ndarray:
        self.n_evals += vals.size
        out = np.asarray(self.f(vals), dtype=np.float64)
        if out.shape != vals.shape:
            raise ValueError("f must act elementwise and preserve the shape")
        if not np.all(np.isfinite(out)):
            flat = int(np.argmin(np.isfinite(out).ravel()))
            raise NonFiniteValueError(index_of_flat(flat))
        return out

    def _chop(self, s: np.ndarray, hard_cap: int) -> int:
        """Adaptive local rank: Frobenius-tail trim at conv_tol."""
        if s.size == 0:
            return 1
        delta = self.cfg.conv_tol * np.linalg.norm(s)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
        keep = np.nonzero(tail > delta)[0]
        r = 1 if keep.size == 0 else int(keep[-1]) + 1
        return max(1, min(r, hard_cap, self.cfg.max_rank))

    def _interpolative(self, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows J via maxvol and the factor basis @ basis[J]^-1 (rows J give
        the identity, making the core exact at its pivots)."""
        rows = maxvol(basis)
        # numpy's solve, not scipy's: scipy's bundled BLAS stalls in this pipeline.
        factor = np.linalg.solve(basis[rows].T, basis.T).T
        return rows, factor

    def _probe_converged(self) -> bool:
        tt = TensorTrain(self.cores, copy=False)
        vals = tt_eval_many(tt, self.probe_idx)
        prev = self.probe_vals
        self.probe_vals = vals
        denom = np.linalg.norm(vals)
        if denom == 0.0:
            return np.linalg.norm(prev) == 0.0
        return np.linalg.norm(vals - prev) / denom < self.cfg.conv_tol

    def result(self, half_sweeps: int, converged: bool) -> CrossResult:
        tt = TensorTrain(self.cores)
        pivots = PivotSets(
            row_sets=tuple(self.left[b] for b in range(1, self.n)),
            col_sets=tuple(self.right[b] for b in range(1, self.n)),
        )
        return CrossResult(tt, pivots, self.n_evals, half_sweeps, converged)

    # -- sample variant (one core per update) -------------------------------

    def sweep_sample_lr(self) -> None:
        for i in range(self.n - 1):
            left_pf, left_if = self.left[i], self.left_if[i]
            cand, cand_if = self._right_candidates(i + 1)
            t_left = np.einsum("lp,pkq->lkq", left_if, self.arg.cores[i])
            vals = np.einsum("lkq,cq->lkc", t_left, cand_if)
            fvals = self._apply_f(vals, lambda flat: self._index_lr(i, left_pf, cand, flat))
            rl, n_i, c = fvals.shape
            mat = fvals.reshape(rl * n_i, c)
            u, s, _ = np.linalg.svd(mat, full_matrices=False)
            r_new = self._chop(s, min(mat.shape))
            rows, factor = self._interpolative(u[:, :r_new])
            self.cores[i] = factor.reshape(rl, n_i, r_new)
            l_idx, k_idx = np.divmod(rows, n_i)
            self.left[i + 1] = np.column_stack([left_pf[l_idx], k_idx])
            self.left_if[i + 1] = t_left.reshape(rl * n_i, -1)[rows]
        self._rebuild_last_core()

    def sweep_sample_rl(self) -> None:
        for i in range(self.n - 1, 0, -1):
            cand, cand_if = self._left_candidates(i)
            right_sf, right_if = self.right[i + 1], self.right_if[i + 1]
            t_right = np.einsum("pkq,mq->pkm", self.arg.cores[i], right_if)
            vals = np.einsum("cp,pkm->ckm", cand_if, t_right)
            fvals = self._apply_f(vals, lambda flat: self._index_rl(i, cand, right_sf, flat))
            c, n_i, rr = fvals.shape
            mat = fvals.reshape(c, n_i * rr)
            _, s, vt = np.linalg.svd(mat, full_matrices=False)
            r_new = self._chop(s, min(mat.shape))
            rows, factor = self._interpolative(vt[:r_new].T)
            self.cores[i] = factor.T.reshape(r_new, n_i, rr)
            k_idx, m_idx = np.divmod(rows, rr)
            self.right[i] = np.column_stack([k_idx, right_sf[m_idx]])
            self.right_if[i] = t_right.transpose(1, 2, 0).reshape(n_i * rr, -1)[rows]
        self._rebuild_first_core()

    # -- sweep variant (merged two-core updates) ----------------------------

    def sweep_merged_lr(self) -> None:
        for i in range(self.n - 1):
            left_pf, left_if = self.left[i], self.left_if[i]
            cand, cand_if = self._right_candidates(i + 2)
            t_left = np.einsum("lp,pkq->lkq", left_if, self.arg.cores[i])
            t_right = np.einsum("qjr,cr->qjc", self.arg.cores[i + 1], cand_if)
            vals = np.einsum("lkq,qjc->lkjc", t_left, t_right)
            fvals = self._apply_f(
                vals, lambda flat: self._index_lr2(i, left_pf, cand, flat)
            )
            rl, n_i, n_j, c = fvals.shape
            mat = fvals.reshape(rl * n_i, n_j * c)
            u, s, _ = np.linalg.svd(mat, full_matrices=False)
            r_new = self._chop(s, min(mat.shape))
            rows, factor = self._interpolative(u[:, :r_new])
            self.cores[i] = factor.reshape(rl, n_i, r_new)
            l_idx, k_idx = np.divmod(rows, n_i)
            self.left[i + 1] = np.column_stack([left_pf[l_idx], k_idx])
            self.left_if[i + 1] = t_left.reshape(rl * n_i, -1)[rows]
            if i == self.n - 2:
                # Bond N has the single empty suffix, so the raw pivot rows
                # of the local matrix are the exact last core.
                self.cores[i + 1] = mat[rows].reshape(r_new, n_j, c)

    def sweep_merged_rl(self) -> None:
        for i in range(self.n - 1, 0, -1):
            cand, cand_if = self._left_candidates(i - 1)
            right_sf, right_if = self.right[i + 1], self.right_if[i + 1]
            t_left = np.einsum("cp,pkq->ckq", cand_if, self.arg.cores[i - 1])
            t_right = np.einsum("qjr,mr->qjm", self.arg.cores[i], right_if)
            vals = np.einsum("ckq,qjm->ckjm", t_left, t_right)
            fvals = self._apply_f(
                vals, lambda flat: self._index_rl2(i, cand, right_sf, flat)
            )
            c, n_h, n_i, rr = fvals.shape
            mat = fvals.reshape(c * n_h, n_i * rr)
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
            r_new = self._chop(s, min(mat.shape))
            rows, factor = self._interpolative(vt[:r_new].T)
            self.cores[i] = factor.T.reshape(r_new, n_i, rr)
            k_idx, m_idx = np.divmod(rows, rr)
            self.right[i] = np.column_stack([k_idx, right_sf[m_idx]])
            self.right_if[i] = t_right.transpose(1, 2, 0).reshape(n_i * rr, -1)[rows]
            if i == 1:
                self.cores[0] = mat[:, rows].reshape(1, n_h, r_new)

    # -- boundary cores ------------------------------------------------------

    def _rebuild_last_core(self) -> None:
        i = self.n - 1
        left_pf, left_if = self.left[i], self.left_if[i]
        vals = np.einsum("lp,pk->lk", left_if, self.arg.cores[i][:, :, 0])
        fvals = self._apply_f(
            vals, lambda flat: self._index_lr(i, left_pf, self.right[self.n], flat)
        )
        self.cores[i] = fvals[:, :, None]

    def _rebuild_first_core(self) -> None:
        right_sf, right_if = self.right[1], self.right_if[1]
        vals = np.einsum("kq,mq->km", self.arg.cores[0][0], right_if)
        fvals = self._apply_f(
            vals, lambda flat: self._index_rl(0, self.left[0], right_sf, flat)
        )
        self.cores[0] = fvals[None, :, :]

    # -- offending-index reconstruction (only used on non-finite values) ----

    def _index_lr(self, i, prefixes, suffixes, flat):
        c = suffixes.shape[0]
        l, rem = np.divmod(flat, self.dims[i] * c)
        k, m = np.divmod(rem, c)
        return np.concatenate([prefixes[l], [k], suffixes[m]])

    def _index_rl(self, i, prefixes, suffixes, flat):
        rr = suffixes.shape[0]
        c, rem = np.divmod(flat, self.dims[i] * rr)
        k, m = np.divmod(rem, rr)
        return np.concatenate([prefixes[c], [k], suffixes[m]])

    def _index_lr2(self, i, prefixes, suffixes, flat):
        c = suffixes.shape[0]
        l, rem = np.divmod(flat, self.dims[i] * self.dims[i + 1] * c)
        k, rem = np.divmod(rem, self.dims[i + 1] * c)
        j, m = np.divmod(rem, c)
        return np.concatenate([prefixes[l], [k, j], suffixes[m]])

    def _index_rl2(self, i, prefixes, suffixes, flat):
        rr = suffixes.shape[0]
        c, rem = np.divmod(flat, self.dims[i - 1] * self.dims[i] * rr)
        k, rem = np.divmod(rem, self.dims[i] * rr)
        j, m = np.divmod(rem, rr)
        return np.concatenate([prefixes[c], [k, j], suffixes[m]])


def _run_cross(
    f, a: TensorTrain, init: TensorTrain, cfg: CrossConfig, merged: bool, seed_indices=None
) -> CrossResult:
    if a.order == 1:
        vals = np.asarray(f(a.cores[0][0, :, 0]), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValueError([int(np.argmin(np.isfinite(vals)))])
        tt = TensorTrain([vals[None, :, None]])
        empty = PivotSets(row_sets=(), col_sets=())
        return CrossResult(tt, empty, vals.size, 1, True)
    engine = _CrossEngine(f, a, init, cfg, seed_indices=seed_indices)
    half_sweeps = 0
    converged = False
    for _ in range(cfg.n_sweeps):
        if merged:
            engine.sweep_merged_lr()
            engine.sweep_merged_rl()
        else:
            engine.sweep_sample_lr()
            engine.sweep_sample_rl()
        half_sweeps += 2
        # probe comparison across a full refinement cycle; checking every
        # half sweep stalls on targets that need several sweeps of growth
        if engine._probe_converged():
            converged = True
            break
    return engine.result(half_sweeps, converged)


def tt_cross(
    f,
    a: TensorTrain,
    init: TensorTrain,
    cfg: CrossConfig,
    variant: str = "sample",
    seed_indices=None,
) -> CrossResult:
    """Approximate f applied elementwise to ``a`` by cross interpolation.

    ``variant`` selects the classical per-core interpolation ("sample") or
    the DMRG-like merged two-core optimization ("sweep").  ``seed_indices``
    optionally lists multi-indices whose cross fibers are added to the
    initial pivot sets (useful when f concentrates its mass in regions the
    init cannot point at).
    """
    if variant == "sample":
        return _run_cross(f, a, init, cfg, merged=False, seed_indices=seed_indices)
    if variant == "sweep":
        return _run_cross(f, a, init, cfg, merged=True, seed_indices=seed_indices)
    raise ValueError(f"unknown cross variant {variant!r}")


def tt_cross_sample(f, a: TensorTrain, init: TensorTrain, cfg: CrossConfig) -> TensorTrain:
    """Classical sampled TT-cross interpolation of f(a); see :func:`tt_cross`."""
    return tt_cross(f, a, init, cfg, variant="sample").tt


def tt_cross_sweep(f, a: TensorTrain, init: TensorTrain, cfg: CrossConfig) -> TensorTrain:
    """DMRG-like two-core cross approximation of f(a); see :func:`tt_cross`."""
    return tt_cross(f, a, init, cfg, variant="sweep").tt
