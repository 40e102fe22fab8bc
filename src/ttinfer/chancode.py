"""Soft-decision decoding of binary linear block codes over BI-AWGN.

A code C(n, k) with generator matrix G maps information words u to codewords
c = G u over F_2; codewords are BPSK modulated (x_j = (-1)^c_j) and observed
through y = x + n with noise variance N_0/2 per symbol.  Expanding the
quadratic log-likelihood and dropping the u-independent constant leaves

    Lambda(u) = sum_j (2 y_j / N_0) * prod_{i: G_ji = 1} (-1)^{u_i},

a sum of n sign products, which this module tabulates for the exact
sum-of-products TT builder of the tt module.  Decoding exponentiates and
marginalizes the metric (posterior module) inside an adaptive rank loop
with a Neyman-Pearson early stopping test on the squared Euclidean distance
between the re-encoded candidate and the observation.  The test's threshold
is a noncentral chi-squared quantile (``scipy.special.chndtrix``) at an
error target from the normal approximation of the code's block error
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import chndtrix, erfc

from .cross import CrossConfig
from .posterior import (
    SEED_LIST_SIZE,
    InferenceFailureError,
    LogPosterior,
    infer_marginals,
    map_decision,
)
from .tt import TensorTrain, _sum_of_products, _SumOfProducts, tt_truncate

__all__ = [
    "DecodeResult",
    "LinearCode",
    "biawgn_capacity_dispersion",
    "build_code_logapp_tt",
    "builtin_code_path",
    "load_code",
    "n0_from_ebn0",
    "normal_approx_pe",
    "stopping_threshold",
    "ttdec",
]

BIT_ALPHABET = np.array([0.0, 1.0])

# Exhaustive checks (minimum distance, bit-wise MAP) enumerate 2^k words.
ENUMERATION_LIMIT_K = 20

# Order of the ordered-statistics decoder whose best words seed ttdec's cross.
OSD_ORDER = 2


def _gf2_column_rank(g: np.ndarray) -> int:
    a = (g % 2).astype(np.uint8).copy()
    n, k = a.shape
    rank = 0
    for col in range(k):
        pivots = np.nonzero(a[rank:, col])[0]
        if pivots.size == 0:
            continue
        piv = rank + pivots[0]
        a[[rank, piv]] = a[[piv, rank]]
        hits = np.nonzero(a[:, col])[0]
        hits = hits[hits != rank]
        a[hits] ^= a[rank]
        rank += 1
        if rank == n:
            break
    return rank


def _information_words(k: int, start: int, stop: int) -> np.ndarray:
    ids = np.arange(start, stop, dtype=np.int64)
    return ((ids[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int64)


@lru_cache(maxsize=4)
def _all_information_words(k: int) -> np.ndarray:
    """All 2^k information words, row i holding the bits of i (LSB first);
    built once per k and shared read-only by the codebook and the oracle."""
    words = _information_words(k, 0, 1 << k)
    words.flags.writeable = False
    return words


def _min_distance(g: np.ndarray) -> int:
    """Exhaustive minimum Hamming weight over all 2^k - 1 nonzero codewords."""
    n, k = g.shape
    best = n
    batch = 1 << 14
    for start in range(1, 1 << k, batch):
        u = _information_words(k, start, min(start + batch, 1 << k))
        weights = ((u @ g.T) % 2).sum(axis=1)
        best = min(best, int(weights.min()))
    return best


@dataclass
class LinearCode:
    """Binary linear block code given by its n x k generator matrix.

    ``d_min_verified`` records whether the minimum distance was confirmed by
    exhaustive enumeration (codes with k <= 20) or trusted from the file.
    The observation-independent layout of the log-APP metric's TT and the
    BPSK codebook are cached per code.
    """

    g: np.ndarray
    n: int
    k: int
    d_min: int
    d_min_verified: bool = True
    _metric_layout: _SumOfProducts | None = field(default=None, repr=False, compare=False)
    _codebook: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.int64) % 2
        object.__setattr__(self, "g", g)
        if g.shape != (self.n, self.k):
            raise ValueError(f"generator must be {self.n}x{self.k}, got {g.shape}")
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if _gf2_column_rank(g) != self.k:
            raise ValueError("generator matrix is rank-deficient over GF(2)")
        if not 1 <= self.d_min <= self.n:
            raise ValueError("minimum distance out of range")

    @property
    def rate(self) -> float:
        return self.k / self.n

    def encode(self, u: np.ndarray) -> np.ndarray:
        return (self.g @ np.asarray(u, dtype=np.int64)) % 2

    def bpsk_codebook(self) -> np.ndarray:
        """All 2^k BPSK codewords, row i for the information word with bits
        of integer i (LSB first).  Enumeration-guarded."""
        if self.k > ENUMERATION_LIMIT_K:
            raise ValueError(f"codebook of 2^{self.k} words exceeds the enumeration limit")
        if self._codebook is None:
            self._codebook = 1.0 - 2.0 * ((_all_information_words(self.k) @ self.g.T) % 2)
        return self._codebook


def _builtin_codes():
    return resources.files("ttinfer").joinpath("data", "codes")


def builtin_code_path(name: str):
    """Path to a packaged generator-matrix file, e.g. ``bch_63_30``."""
    stem = name if name.endswith(".txt") else f"{name}.txt"
    return _builtin_codes().joinpath(stem)


def _builtin_code_names() -> list[str]:
    """The names of the packaged codes, sorted."""
    return sorted(p.name.removesuffix(".txt") for p in _builtin_codes().iterdir()
                  if p.name.endswith(".txt"))


def load_code(path) -> LinearCode:
    """Read a generator matrix file: first line ``n k d_min``, then n lines
    of k space-separated bits (rows of G).

    The generator must have full column rank over GF(2); for k <= 20 the
    stated minimum distance is verified by exhaustive weight enumeration,
    otherwise it is trusted and flagged unverified.
    """
    try:
        text = path.read_text() if hasattr(path, "read_text") else Path(path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read code file {path}: {err}") from err
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ValueError(f"empty code file {path}")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"malformed header {lines[0]!r}; expected 'n k d_min'")
    n, k, d_min = (int(v) for v in header)
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} generator rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        bits = line.split()
        if len(bits) != k or any(b not in ("0", "1") for b in bits):
            raise ValueError(f"malformed generator row {line!r}")
        rows.append([int(b) for b in bits])
    g = np.array(rows, dtype=np.int64)
    verified = k <= ENUMERATION_LIMIT_K
    code = LinearCode(g=g, n=n, k=k, d_min=d_min, d_min_verified=verified)
    if verified:
        actual = _min_distance(g)
        if actual != d_min:
            raise ValueError(f"stated d_min {d_min} but enumeration found {actual}")
    return code


def n0_from_ebn0(eb_n0_db: float, rate: float) -> float:
    """Noise density for a target Eb/N0 = -10 log10(R N0) at unit symbol energy."""
    return 10.0 ** (-eb_n0_db / 10.0) / rate


def build_code_logapp_tt(code: LinearCode, y: np.ndarray, n0: float) -> TensorTrain:
    """Exact TT of the log-APP metric Lambda(u) with the code constraint
    folded in, built in one pass without rounding.

    Term j is c_j = 2 y_j / N_0 times the sign factor (1, -1) on each
    position of row j's support and 1 elsewhere; ``tt._sum_of_products``
    lays the n terms out with bond ranks at most min(#prefixes,
    #suffixes) + 2.  The layout depends on the code alone and is cached on
    it; per observation only the n coefficients are scattered into it.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size != code.n:
        raise ValueError(f"observation length {y.size} != block length {code.n}")
    if not n0 > 0:
        raise ValueError("noise density must be positive")
    if code._metric_layout is None:
        code._metric_layout = _sum_of_products(np.where(code.g[:, :, None] == 1, (1.0, -1.0), 1.0))
    return code._metric_layout.build((2.0 / n0) * y)


def _q_function(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


def biawgn_capacity_dispersion(n0: float, order: int = 64) -> tuple[float, float]:
    """Capacity C and dispersion V (bits, bits^2) of the BI-AWGN channel.

    Gauss-Hermite quadrature over the information density
    i(y) = 1 - log2(1 + exp(-2 y / sigma^2)) with y = 1 + sigma Z,
    sigma^2 = N_0 / 2; C is its mean and V its variance.
    """
    if not n0 > 0:
        raise ValueError("noise density must be positive")
    sigma2 = n0 / 2.0
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    y = 1.0 + math.sqrt(sigma2) * math.sqrt(2.0) * nodes
    density = 1.0 - np.logaddexp(0.0, -2.0 * y / sigma2) / math.log(2.0)
    w = weights / math.sqrt(math.pi)
    capacity = float(np.sum(w * density))
    dispersion = float(np.sum(w * (density - capacity) ** 2))
    return capacity, dispersion


# The largest error target below 1: stopping_threshold needs one in [0, 1),
# and far below capacity the normal approximation rounds to 1.
_PE_MAX = float(np.nextafter(1.0, 0.0))


def normal_approx_pe(code: LinearCode, n0: float) -> float:
    """Refined normal approximation of the minimum block error probability:
    Q((C - R + log2(n)/(2n)) / sqrt(V/n)), at most the largest double
    below 1."""
    capacity, dispersion = biawgn_capacity_dispersion(n0)
    rate = code.rate
    numerator = capacity - rate + math.log2(code.n) / (2.0 * code.n)
    denom = math.sqrt(max(dispersion, 0.0) / code.n)
    if denom < 1e-12:
        return 0.0 if numerator > 0 else _PE_MAX
    return float(np.clip(_q_function(numerator / denom), 0.0, _PE_MAX))


def stopping_threshold(code: LinearCode, n0: float, target_pe: float, safety: float = 100.0) -> float:
    """Distance threshold eta of the decoder's early-stopping test.

    H0: the candidate is the transmitted codeword, so its squared distance
    to y is (N0/2) chi^2_n; H1: it sits at Hamming distance d_min, giving
    (N0/2) chi^2_n(lambda) with lambda = 8 d_min / N0.  The threshold fixes
    the type-II error at target_pe / safety:
    eta = (N0/2) * F^-1_{chi^2_n(lambda)}(target_pe / safety).
    """
    if not 0.0 <= target_pe < 1.0:
        raise ValueError("target error probability must lie in [0, 1)")
    return 0.5 * n0 * chndtrix(target_pe / safety, code.n, 8.0 * code.d_min / n0)


class _CodeParams(NamedTuple):
    """The parameters of a code that the stopping rule reads (n, rate,
    d_min); a hashable stand-in for LinearCode in normal_approx_pe and
    stopping_threshold."""

    n: int
    k: int
    d_min: int

    @property
    def rate(self) -> float:
        return self.k / self.n


@lru_cache(maxsize=256)
def _stopping_rule_values(params: _CodeParams, n0: float, safety: float) -> tuple[float, float]:
    """(target_pe, eta) of the early stop.  Both depend on the observation
    only through N0, and the Gauss-Hermite quadrature behind target_pe costs
    about 1 ms, so they are computed once per operating point."""
    target_pe = normal_approx_pe(params, n0)
    return target_pe, stopping_threshold(params, n0, target_pe, safety)


@dataclass
class DecodeResult:
    """Outcome of one adaptive-rank decoding run."""

    u_hat: np.ndarray
    nu: float
    eta: float
    target_pe: float
    early_stop: bool
    steps_run: int
    max_rank_observed: int


@lru_cache(maxsize=16)
def _flip_patterns(k: int) -> np.ndarray:
    """The OSD flip patterns of k bits, one row each, by weight 0..OSD_ORDER
    and then lexicographically (read-only; shared by every call)."""
    flips = [f for w in range(OSD_ORDER + 1) for f in combinations(range(k), w)]
    table = np.zeros((len(flips), k), dtype=np.int64)
    for row, f in enumerate(flips):
        table[row, list(f)] = 1
    table.flags.writeable = False
    return table


def _osd_list(code: LinearCode, y: np.ndarray, size: int = SEED_LIST_SIZE) -> np.ndarray:
    """The ``size`` information words of highest correlation y^T x among the
    candidates of ordered-statistics decoding (Fossorier & Lin, IEEE T-IT
    1995), best first (all candidates when there are fewer).

    GF(2) elimination of [G^T | I] over the positions in order of decreasing
    |y_j| finds the most reliable basis B and the systematic generator; the
    candidates re-encode the hard decisions on B under every flip pattern of
    weight <= OSD_ORDER.
    """
    n, k = code.n, code.k
    a = np.concatenate([code.g.T, np.eye(k, dtype=np.int64)], axis=1).astype(np.uint8)
    basis = []
    for col in np.argsort(-np.abs(y), kind="stable"):
        rank = len(basis)
        hits = np.nonzero(a[rank:, col])[0]
        if hits.size == 0:
            continue
        piv = rank + hits[0]
        a[[rank, piv]] = a[[piv, rank]]
        others = np.nonzero(a[:, col])[0]
        a[others[others != rank]] ^= a[rank]
        basis.append(col)
        if len(basis) == k:
            break
    # Row i of the systematic generator a[:, :n] has a 1 at basis[i] alone
    # among B, and a[:, n:] maps the bits on B back to the information word.
    v = _flip_patterns(k) ^ (y[basis] < 0).astype(np.int64)
    x = 1.0 - 2.0 * ((v @ a[:, :n]) % 2)
    order = np.argsort(-(x @ y), kind="stable")[:size]
    return (v[order] @ a[:, n:]) % 2


def _rank_schedule(ranks) -> tuple[int, ...]:
    """The decoder's rank schedule as a tuple of ints; raises ValueError
    unless it is nonempty, strictly increasing and starts at rank >= 1."""
    schedule = tuple(int(r) for r in ranks)
    if not schedule or schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(
            f"rank schedule {list(schedule)} must be a nonempty, strictly increasing list of ranks >= 1")
    return schedule


def _step_seed(base_seed: int, step: int) -> int:
    return int(np.random.SeedSequence([base_seed, step]).generate_state(1)[0])


def ttdec(
    y: np.ndarray,
    code: LinearCode,
    n0: float,
    schedule,
    cfg: CrossConfig,
    taylor_p: int = 0,
    variant: str = "sweep",
    trunc_tol: float = 0.0,
    safety: float = 100.0,
) -> DecodeResult:
    """Adaptive-rank TT decoding of one observation.

    The exact log-APP metric is built from the code's cached layout (and
    rounded by ``tt_truncate`` only when ``trunc_tol`` is positive), the
    stopping threshold is taken from the normal approximation (computed once
    per code and N_0), the OSD list that seeds every cross is built once, and
    the Taylor-initialization rank walks the schedule: at each step marginals
    are inferred, bits decided, the candidate re-encoded and scored by its
    squared distance to y (with ``taylor_p`` = 0 the init is all ones, so a
    step only reseeds the cross).  The best candidate is kept; the loop stops
    early as soon as its score drops below the threshold.  A failed
    inference step scores as +inf and the loop continues.  A schedule that
    is empty, not strictly increasing or below rank 1 raises ValueError.
    """
    schedule = _rank_schedule(schedule)
    target_pe, eta = _stopping_rule_values(_CodeParams(code.n, code.k, code.d_min), n0, safety)
    metric = build_code_logapp_tt(code, y, n0)
    if trunc_tol > 0:
        metric = tt_truncate(metric, trunc_tol)
    lp = LogPosterior(metric, BIT_ALPHABET)
    y = np.asarray(y, dtype=np.float64)
    seeds = _osd_list(code, y)
    best_u: np.ndarray | None = None
    best_nu = math.inf
    max_rank = 0
    early = False
    for step, taylor_rank in enumerate(schedule):
        step_cfg = replace(cfg, rng_seed=_step_seed(cfg.rng_seed, step))
        try:
            marginals, rmax = infer_marginals(lp, step_cfg, taylor_p, taylor_rank, variant, seeds=seeds)
        except InferenceFailureError:
            continue
        max_rank = max(max_rank, rmax)
        u_hat = map_decision(marginals, BIT_ALPHABET).astype(np.int64)
        x_hat = 1.0 - 2.0 * code.encode(u_hat)
        nu = float(np.sum((y - x_hat) ** 2))
        if nu < best_nu:
            best_nu = nu
            best_u = u_hat
            if best_nu < eta:
                early = True
                break
    if best_u is None:
        raise InferenceFailureError("every schedule step failed to produce marginals")
    return DecodeResult(
        u_hat=best_u,
        nu=best_nu,
        eta=eta,
        target_pe=target_pe,
        early_stop=early,
        steps_run=step + 1,
        max_rank_observed=max_rank,
    )
