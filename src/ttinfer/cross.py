"""Cross approximation in the TT format.

Public building blocks:

* ``tt_exp_taylor`` -- Horner evaluation of the elementwise truncated Taylor
  series of exp, each step rounded by ``tt_truncate``: the paper's
  initialization of the cross (degree 0, the all-ones tensor, is the
  pipeline default).
* ``tt_cross`` -- apply a scalar function f elementwise to a TT without
  densification.  One engine serves both variants: a half sweep updates
  blocks of one core ("sample", classical TT-cross interpolation) or of two
  merged cores ("sweep", DMRG-style, typically more accurate at higher cost)
  from sampled fibers with a local SVD, and picks its pivots by maxvol
  (iterative row selection maximizing the submatrix determinant magnitude).

The cross evaluates f only at structured samples (left prefix x block
indices x right suffix), adapts ranks through a local SVD threshold,
enriches the search with random indices each half sweep, and stops after a
full sweep by either of two tests: the values at a fixed random probe set
changed by less than ``conv_tol`` since the previous full sweep, or every
bond rank equals its rank after the previous full sweep (the init's, after
the first) and the local SVD tolerance, not the sample size or the rank
cap, chose every rank kept in the sweep (the rank test of DMRG-cross,
Savostyanov & Oseledets 2011).  A half sweep draws all its random fibers in
one generator call, placed by a cached layout, and builds their argument
interfaces in one pass over the cores.  Each block update costs its
einsums, f, one SVD (the local rank) and maxvol.  At rank 1 maxvol is
closed form: the entry of largest magnitude and one scaling.  At higher
ranks it costs one getrf (the starting rows) and one solve, whose
B = U @ U[rows]^-1 is both maxvol's swap criterion and the new core's
interpolative factor; only a maxvol swap adds a second solve.  At pipeline
ranks (mostly a few rows, rank 1) call overhead outweighs flops, so rank
chop, pivot permutation and B's argmax run on Python scalars, the init's
probe values are computed only if the probe test runs, and the argument
cores are stored mode-major once per call for the fibers' gathers.  All
randomness flows from ``CrossConfig.rng_seed``: fixed seed, same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf

from .tt import TensorTrain, _chop_ranks, ones_tt, tt_add, tt_eval_many, tt_hadamard, tt_scale, tt_truncate

__all__ = [
    "CrossConfig",
    "CrossResult",
    "DegenerateMatrixError",
    "NonFiniteValueError",
    "tt_cross",
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
    conv_tol : relative probe-set change between full sweeps that counts as
        converged; also the relative Frobenius-tail threshold of the local
        rank-adapting SVDs, whose stable unsaturated ranks are the other
        convergence test.
    rng_seed : seed of the private random stream (fixed seed -> bit-identical
        results; the algorithms are otherwise non-deterministic by nature).
    """

    max_rank: int = 1024
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
class CrossResult:
    tt: TensorTrain
    n_evals: int
    n_half_sweeps: int
    converged: bool


def _maxvol(m: np.ndarray):
    """Select r rows of an n x r float64 matrix (n >= r) with quasi-maximal
    volume; returns the rows, the factor B = M @ M[rows]^-1 and the swap
    gains.

    Starts from the partial-pivoting LU rows, then swaps rows (at most
    ``MAXVOL_MAX_ITERS``) while some entry of B exceeds 1 + ``MAXVOL_DOM_TOL``
    in magnitude.  Each swap multiplies |det(M[rows])| by that entry (its
    gain), so the volume is non-decreasing and the submatrix is dominant.

    B is the solve at the LU rows, kept when no swap happens; after swaps it
    is solved again at the final rows, so it always equals
    ``np.linalg.solve(m[rows].T, m.T).T`` byte for byte, and the cross uses
    it as its interpolative factor.

    A single column is solved in closed form: the row is the first entry of
    largest magnitude (getrf's pivot, LAPACK's idamax), no swap can gain
    more than 1, and B = m * (1 / m[row]).  The solve of a 1 x 1 system
    multiplies by the pivot's reciprocal in the triangular solve, so this B
    equals the solve byte for byte, where m / m[row] would differ in the
    last bit on most columns.

    Raises ValueError on a wide matrix, DegenerateMatrixError (a ValueError)
    on empty input or numerically dependent columns.
    """
    n, r = m.shape
    if n < r:
        raise ValueError(f"need at least as many rows as columns, got {m.shape}")
    if m.size == 0:  # getrf rejects a 0 x 0 matrix
        raise DegenerateMatrixError("pivoted pre-factorization failed: columns are dependent")
    if r == 1:
        p = int(np.abs(m[:, 0]).argmax())
        pivot = float(m[p, 0])
        if pivot == 0.0:
            raise DegenerateMatrixError("pivoted pre-factorization failed: columns are dependent")
        return np.array([p]), m * (1.0 / pivot), []
    # The getrf that scipy.linalg.lu_factor wraps: same pivots, no wrapper.
    lu, piv, _ = dgetrf(m)
    diag = np.abs(lu.diagonal())
    top = diag.max()
    if top == 0.0 or diag.min() <= 1e-12 * top:
        raise DegenerateMatrixError("pivoted pre-factorization failed: columns are dependent")
    perm = list(range(n))
    for i, p in enumerate(piv.tolist()):
        perm[i], perm[p] = perm[p], perm[i]
    rows = np.array(perm[:r])
    # B = M @ M[rows]^-1; row j of the selected set maps to unit vector e_j.
    # numpy's solve, not scipy's: scipy's bundled BLAS stalls in this pipeline.
    b = np.linalg.solve(m[rows].T, m.T).T
    history: list[float] = []
    for _ in range(MAXVOL_MAX_ITERS):
        i, j = divmod(int(np.abs(b).argmax()), r)
        gain = abs(b[i, j])
        if gain <= 1.0 + MAXVOL_DOM_TOL:
            break
        history.append(float(gain))
        ej = np.zeros(r)
        ej[j] = 1.0
        b -= np.outer(b[:, j], b[i, :] - ej) / b[i, j]
        rows[j] = i
    if history:
        b = np.linalg.solve(m[rows].T, m.T).T
    return rows, b, history


def _rank_revealing_maxvol(m: np.ndarray) -> np.ndarray:
    """maxvol that survives wide or rank-deficient input by shrinking the
    column set (pivoted QR) first; returns <= min(m.shape) row indices."""
    n, r = m.shape
    if n >= r:
        try:
            return _maxvol(m)[0]
        except DegenerateMatrixError:
            pass
    _, rmat, piv = scipy.linalg.qr(m, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rmat))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(1, dtype=np.int64)
    rank = max(1, min(int(np.count_nonzero(diag > 1e-12 * diag[0])), n))
    return _maxvol(m[:, piv[:rank]])[0]


def tt_exp_taylor(a: TensorTrain, p: int, max_rank: int, tol: float) -> TensorTrain:
    """Elementwise exp(a) as the truncated Taylor polynomial of degree p.

    Horner form keeps intermediate ranks bounded: starting from the all-ones
    tensor, b <- round(a o b / k + 1, tol, max_rank) for k = p, ..., 1.
    With p = 0 the all-ones tensor is returned.  The pointwise error is the
    Taylor remainder plus the accumulated truncation error of ``tt_truncate``.
    """
    if p < 0:
        raise ValueError("polynomial degree must be >= 0")
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    one = ones_tt(a.dims)
    b = one
    for k in range(p, 0, -1):
        b = tt_truncate(tt_add(tt_scale(tt_hadamard(a, b), 1.0 / k), one), tol, max_rank)
    return b


def _check_seed_indices(seeds, dims) -> np.ndarray:
    """Seed multi-indices as a (count, N) int array with count >= 1; raises
    ValueError on another shape, on a non-integer dtype or on an index
    outside ``dims``."""
    seeds = np.asarray(seeds)
    if seeds.ndim != 2 or seeds.shape[1] != len(dims):
        raise ValueError(f"seed indices must be (count, {len(dims)}) shaped")
    if seeds.shape[0] == 0:
        raise ValueError("seed indices must list at least one multi-index")
    if not np.issubdtype(seeds.dtype, np.integer):
        raise ValueError(f"seed indices must be integers, got dtype {seeds.dtype}")
    seeds = seeds.astype(np.int64, copy=False)
    bad = np.nonzero(np.any((seeds < 0) | (seeds >= np.asarray(dims)), axis=1))[0]
    if bad.size:
        raise ValueError(f"seed row {bad[0]} {seeds[bad[0]].tolist()} outside dims {tuple(dims)}")
    return seeds


def _index(prefixes: np.ndarray, suffixes: np.ndarray, shape, flat: int) -> np.ndarray:
    """Multi-index of entry ``flat`` of a sampled block of ``shape``
    (prefix row, block indices..., suffix row)."""
    pos = np.unravel_index(flat, shape)
    return np.concatenate([prefixes[pos[0]], pos[1:-1], suffixes[pos[-1]]])


@lru_cache(maxsize=64)
def _draw_layout(dims: tuple, lr: bool, width: int, kick: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds and flat fiber-array positions of one half sweep's draws: bond by
    bond in visit order, ``kick`` per free mode, draw q of the p-th bond in row
    kick * p + q.  Read-only, as every engine over the same dims shares them."""
    n = len(dims)
    bonds = range(width, n) if lr else range(n - width, 0, -1)
    table = np.array([(dims[m], (p * kick + q) * n + m) for p, b in enumerate(bonds)
                      for m in (range(b, n) if lr else range(b)) for q in range(kick)])
    table.setflags(write=False)
    return table[:, 0], table[:, 1]


class _CrossEngine:
    """Shared state of the sampled cross sweeps over one argument TT."""

    def __init__(self, f, arg: TensorTrain, init: TensorTrain, cfg: CrossConfig, seed_indices=None):
        if arg.dims != init.dims:
            raise ValueError(f"init shape {init.dims} does not match argument {arg.dims}")
        self.f = f
        self.arg = arg
        # Mode-major copies of the argument cores: arg_t[j][idx] gathers
        # fibers contiguously, and its (1, 0, 2) transpose has the layout of
        # core[:, idx, :], so the einsums see the same operands.
        self.arg_t = [np.ascontiguousarray(c.transpose(1, 0, 2)) for c in arg.cores]
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
        self.probe_idx = self.rng.integers(0, np.repeat(self.dims, N_PROBE)).reshape(self.n, -1).T
        if seed_indices is not None:
            seeds = _check_seed_indices(seed_indices, self.dims)
            self._seed_pivots(seeds)
            # Seeds anchor the convergence metric: where f is concentrated,
            # random probes alone would compare noise against noise.
            self.probe_idx = np.concatenate([self.probe_idx, seeds])
        # The init's probe values, computed when the probe test first runs
        # (most calls stop on the rank test first).
        self.init = init
        self.probe_vals: np.ndarray | None = None

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
            self.right[b] = np.concatenate([k_idx[:, None], self.right[b + 1][m_idx]], axis=1)
            v_init = cand[rows]
            arg_cand = np.einsum(
                "pkq,mq->kmp", self.arg.cores[b], self.right_if[b + 1]
            ).reshape(n_b * count, -1)
            self.right_if[b] = arg_cand[rows]

    def _seed_pivots(self, seeds: np.ndarray) -> None:
        """Append the cross fibers through the given multi-indices to every
        right pivot set, so the first sweep is guaranteed to sample them.
        (The init carries no information about where a concentrated f puts
        its mass: the all-ones init's pivots are arbitrary and the Taylor
        init's can all sit in flat regions.  A list of likely multi-indices
        points the first sweep at the mass.)  The seed suffixes are nested,
        so one right-to-left pass over the cores builds their interfaces."""
        vec = np.ones((seeds.shape[0], 1))
        for b in range(self.n - 1, 0, -1):
            vec = np.einsum("lcr,cr->cl", self.arg_t[b][seeds[:, b]].transpose(1, 0, 2), vec)
            self.right[b] = np.concatenate([self.right[b], seeds[:, b:]])
            self.right_if[b] = np.concatenate([self.right_if[b], vec])

    # -- shared helpers ----------------------------------------------------

    def _draw_oversampling(self, lr: bool, width: int) -> None:
        """Random oversampling fibers, with their argument interfaces, of
        every bond the coming half sweep visits.  One ``integers`` call over
        the bounds of ``_draw_layout`` consumes the stream exactly as one
        call per free mode and bond in visit order would.  In visit order, the
        fibers still open at core j are a prefix of the rows (bonds <= j going
        right, bonds > j going left), so one pass over the cores builds them."""
        n, kick = self.n, self.cfg.sample_oversample
        self.extra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if kick == 0 or n <= width:
            return
        high, pos = _draw_layout(self.dims, lr, width, kick)
        fibers = np.zeros((kick * (n - width), n), dtype=np.int64)
        fibers.put(pos, self.rng.integers(0, high))
        vec = np.ones((fibers.shape[0], 1))
        if lr:
            for j in range(n - 1, width - 1, -1):
                end = kick * (j - width + 1)
                slices = self.arg_t[j][fibers[:end, j]].transpose(1, 0, 2)
                vec = np.einsum("lcr,cr->cl", slices, vec[:end])
                self.extra[j] = (fibers[end - kick : end, j:], vec[end - kick :])
        else:
            for j in range(n - width):
                end = kick * (n - width - j)
                slices = self.arg_t[j][fibers[:end, j]].transpose(1, 0, 2)
                vec = np.einsum("cl,lcr->cr", vec[:end], slices)
                self.extra[j + 1] = (fibers[end - kick : end, : j + 1], vec[end - kick :])

    def _candidates(self, bond: int, right: bool) -> tuple[np.ndarray, np.ndarray]:
        """Current right (or left) pivots of ``bond`` plus the oversampling
        fibers drawn for it at the start of the half sweep, with their
        argument interfaces."""
        pivots, interfaces = (self.right, self.right_if) if right else (self.left, self.left_if)
        if bond not in self.extra:
            return pivots[bond], interfaces[bond]
        extra, extra_if = self.extra[bond]
        return np.concatenate([pivots[bond], extra]), np.concatenate([interfaces[bond], extra_if])

    def _apply_f(self, vals: np.ndarray, prefixes: np.ndarray, suffixes: np.ndarray) -> np.ndarray:
        self.n_evals += vals.size
        out = np.asarray(self.f(vals), dtype=np.float64)
        if out.shape != vals.shape:
            raise ValueError("f must act elementwise and preserve the shape")
        if not np.isfinite(out).all():
            flat = int(np.argmin(np.isfinite(out).ravel()))
            raise NonFiniteValueError(_index(prefixes, suffixes, vals.shape, flat))
        return out

    def _probe_converged(self) -> bool:
        if self.probe_vals is None:
            self.probe_vals = tt_eval_many(self.init, self.probe_idx)
        tt = TensorTrain(self.cores, copy=False)
        vals = tt_eval_many(tt, self.probe_idx)
        prev = self.probe_vals
        self.probe_vals = vals
        denom = np.linalg.norm(vals)
        if denom == 0.0:
            return np.linalg.norm(prev) == 0.0
        return np.linalg.norm(vals - prev) / denom < self.cfg.conv_tol

    def result(self, half_sweeps: int, converged: bool) -> CrossResult:
        return CrossResult(TensorTrain(self.cores), self.n_evals, half_sweeps, converged)

    # -- the half sweep ------------------------------------------------------

    def half_sweep(self, lr: bool, width: int) -> bool:
        """One left-to-right (``lr``) or right-to-left pass of block updates.

        Each update samples f on a block of ``width`` adjacent cores (1 for
        the sample variant, 2 for the sweep variant) between the kept pivots
        on the side the pass comes from and fresh candidates on the other,
        picks the local rank by SVD and the next pivots by maxvol, and
        replaces the block's leading core (trailing core going right to left)
        by its interpolative factor.  Returns whether some update was
        saturated: kept rank min(*mat.shape, max_rank), so that the sample or
        the cap, not the SVD tolerance, chose it.
        """
        n = self.n
        saturated = False
        self._draw_oversampling(lr, width)
        for i in range(n - 1) if lr else range(n - 1, 0, -1):
            lo = i if lr else i - width + 1
            hi = lo + width - 1
            if lr:
                prefixes, l_if = self.left[lo], self.left_if[lo]
                suffixes, r_if = self._candidates(hi + 1, right=True)
            else:
                prefixes, l_if = self._candidates(lo, right=False)
                suffixes, r_if = self.right[hi + 1], self.right_if[hi + 1]
            # width 1 contracts the kept side first; the order fixes the rounding
            if lr or width == 2:
                t_left = np.einsum("lp,pkq->lkq", l_if, self.arg.cores[lo])
            if not lr or width == 2:
                t_right = np.einsum("qjr,cr->qjc", self.arg.cores[hi], r_if)
            if width == 2:
                vals = np.einsum("lkq,qjc->lkjc", t_left, t_right)
            elif lr:
                vals = np.einsum("qjr,cr->qjc", t_left, r_if)
            else:
                vals = np.einsum("lp,pkq->lkq", l_if, t_right)
            fvals = self._apply_f(vals, prefixes, suffixes)
            rl, rr = fvals.shape[0], fvals.shape[-1]
            n_lo, n_hi = self.dims[lo], self.dims[hi]
            mat = fvals.reshape(rl * n_lo, -1) if lr else fvals.reshape(-1, n_hi * rr)
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
            delta = self.cfg.conv_tol * math.sqrt(s.dot(s))  # conv_tol * np.linalg.norm(s)
            cap = min(*mat.shape, self.cfg.max_rank)
            r_new = min(_chop_ranks(s, delta), cap)
            saturated |= r_new == cap
            if lr:
                rows, factor, _ = _maxvol(u[:, :r_new])
                self.cores[lo] = factor.reshape(rl, n_lo, r_new)
                l_idx, k_idx = np.divmod(rows, n_lo)
                self.left[lo + 1] = np.concatenate([prefixes[l_idx], k_idx[:, None]], axis=1)
                self.left_if[lo + 1] = t_left.reshape(rl * n_lo, -1)[rows]
                if width == 2 and hi == n - 1:
                    # Bond N has the single empty suffix, so the raw pivot
                    # rows of the local matrix are the exact last core.
                    self.cores[hi] = mat[rows].reshape(r_new, n_hi, rr)
            else:
                rows, factor, _ = _maxvol(vt[:r_new].T)
                self.cores[hi] = factor.T.reshape(r_new, n_hi, rr)
                k_idx, m_idx = np.divmod(rows, rr)
                self.right[hi] = np.concatenate([k_idx[:, None], suffixes[m_idx]], axis=1)
                self.right_if[hi] = t_right.transpose(1, 2, 0).reshape(n_hi * rr, -1)[rows]
                if width == 2 and lo == 0:
                    self.cores[0] = mat[:, rows].reshape(rl, n_lo, r_new)
        if width == 1:
            # The boundary core the pass ends on is sampled whole.
            if lr:
                b = n - 1
                vals = np.einsum("lp,pk->lk", self.left_if[b], self.arg.cores[b][:, :, 0])
                vals = vals[:, :, None]
            else:
                b = 0
                vals = np.einsum("kq,mq->km", self.arg.cores[0][0], self.right_if[1])[None]
            self.cores[b] = self._apply_f(vals, self.left[b], self.right[b + 1])
        return saturated


_VARIANT_WIDTH = {"sample": 1, "sweep": 2}


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
    the DMRG-like merged two-core optimization ("sweep"): the same cross
    with update blocks of width 1 or 2.  ``seed_indices`` optionally lists
    multi-indices whose cross fibers are added to the initial pivot sets
    (useful when f concentrates its mass in regions the init cannot point
    at).
    """
    if variant not in _VARIANT_WIDTH:
        raise ValueError(f"unknown cross variant {variant!r}")
    if a.order == 1:
        vals = np.asarray(f(a.cores[0][0, :, 0]), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValueError([int(np.argmin(np.isfinite(vals)))])
        return CrossResult(TensorTrain([vals[None, :, None]]), vals.size, 1, True)
    engine = _CrossEngine(f, a, init, cfg, seed_indices=seed_indices)
    width = _VARIANT_WIDTH[variant]
    half_sweeps = 0
    converged = False
    ranks = [c.shape[2] for c in engine.cores[:-1]]
    for _ in range(cfg.n_sweeps):
        saturated = [engine.half_sweep(lr, width) for lr in (True, False)]
        half_sweeps += 2
        prev, ranks = ranks, [c.shape[2] for c in engine.cores[:-1]]
        # Both tests compare full refinement cycles (checking every half
        # sweep stalls on targets that need several sweeps of growth): the
        # SVD chose the same ranks again, or the probe values settled.
        if (ranks == prev and not any(saturated)) or engine._probe_converged():
            converged = True
            break
    return engine.result(half_sweeps, converged)
