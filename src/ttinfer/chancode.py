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
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.special import chndtrix, erfc

from .cross import CrossConfig
from .posterior import (
    ASSIGNMENT_LIMIT,
    SEED_LIST_SIZE,
    InferenceFailureError,
    LogPosterior,
    _assignment_digits,
    _check_enumeration,
    _check_observation,
    _check_pipeline_args,
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

# Order of the ordered-statistics decoder whose best words seed ttdec's cross.
OSD_ORDER = 2


def _gf2_eliminate(a: np.ndarray, column_order) -> list:
    """Gauss-Jordan elimination over GF(2) of the 0/1 array ``a``, in place,
    taking pivot columns in ``column_order`` and skipping the dependent ones;
    stops once every row holds a pivot.  Returns the pivot columns: row i
    ends with a 1 at pivot column i and 0 at every other pivot column.

    Each row is packed into one Python int (bit j = column j), so a row swap
    or XOR is a single integer operation."""
    n_rows, n_cols = a.shape
    packed = np.packbits(a, axis=1, bitorder="little")
    rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
    basis = []
    for col in column_order:
        bit = 1 << int(col)
        rank = len(basis)
        for piv in range(rank, n_rows):
            if rows[piv] & bit:
                break
        else:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        for i in range(n_rows):
            if i != rank and rows[i] & bit:
                rows[i] ^= pivot_row
        basis.append(col)
        if len(basis) == n_rows:
            break
    width = packed.shape[1]
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), np.uint8)
    a[:] = np.unpackbits(packed.reshape(n_rows, width), axis=1, count=n_cols, bitorder="little")
    return basis


def _min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over the 2^k - 1 nonzero codewords.

    Over the half tables of ``_half_codebooks``, word (u_a, u_b) has BPSK
    codeword x_a * x_b and so weight (n - x_a . x_b) / 2: one product of
    the two tables gives every weight, as integers that float64 holds
    exactly.  Entry (0, 0) is the zero word."""
    _, x_a, _, x_b = _half_codebooks(code)
    twice = code.n - x_a @ x_b.T
    twice[0, 0] = np.inf
    return int(twice.min()) // 2


@dataclass(frozen=True, eq=False)
class LinearCode:
    """Binary linear block code given by its n x k generator matrix.

    ``d_min_verified`` records whether the minimum distance was confirmed by
    exhaustive enumeration (codes with 2^k within the enumeration limit) or
    trusted from the file.  A code is immutable (``g`` is read-only) and
    compares and hashes by value, (n, k, d_min, g), so every copy of it,
    pickled into a worker or loaded again from its file, shares the
    module-level caches of its metric layout, half codebooks and stopping
    rule.
    """

    g: np.ndarray
    n: int
    k: int
    d_min: int
    d_min_verified: bool = True

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.int64) % 2
        g.flags.writeable = False
        object.__setattr__(self, "g", g)
        if g.shape != (self.n, self.k):
            raise ValueError(f"generator must be {self.n}x{self.k}, got {g.shape}")
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if len(_gf2_eliminate(g.T.astype(np.uint8), range(self.n))) != self.k:
            raise ValueError("generator matrix is rank-deficient over GF(2)")
        if not 1 <= self.d_min <= self.n:
            raise ValueError("minimum distance out of range")

    def _key(self) -> tuple:
        return self.n, self.k, self.d_min, self.g.tobytes()

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # Rebuilt through __init__, so that a pickled copy's g is read-only too.
        return LinearCode, (self.g, self.n, self.k, self.d_min, self.d_min_verified)

    @property
    def rate(self) -> float:
        return self.k / self.n

    def encode(self, u: np.ndarray) -> np.ndarray:
        return (self.g @ np.asarray(u, dtype=np.int64)) % 2


@lru_cache(maxsize=16)
def _half_codebooks(code: LinearCode) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The code's words over two halves of the information bits, u_a = bits
    0..a-1 and u_b = bits a..k-1 with a = k // 2: (bits_a, x_a, bits_b, x_b),
    where row r of bits_a is one assignment of u_a (column i holds u_i) and
    row r of x_a its partial BPSK codeword 1 - 2 (G_a u_a mod 2); likewise
    for b.  Row 0 of each is the zero assignment, and word (u_a, u_b) has
    BPSK codeword x_a * x_b.  Read-only and cached per code value; raises
    ValueError when 2^k exceeds the enumeration limit."""
    _check_enumeration(code.k, 2)
    a = code.k // 2
    tables = []
    for cols in (slice(0, a), slice(a, code.k)):
        bits = _assignment_digits(cols.stop - cols.start, 2)
        x = 1.0 - 2.0 * ((bits @ code.g[:, cols].T) % 2)
        x.flags.writeable = False
        tables += [bits, x]
    return tuple(tables)


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

    ``path`` is a file or a packaged resource; a string that names no
    existing file may also name a packaged code, e.g. ``bch_63_30``.  The
    error messages leave the path out, for the caller to name it.

    The generator must have full column rank over GF(2); when the 2^k words
    are within the enumeration limit (k <= 20) the stated minimum distance
    is verified by enumerating every codeword weight (``_min_distance``),
    otherwise it is trusted and flagged unverified.
    """
    if isinstance(path, str) and not Path(path).is_file():
        path = builtin_code_path(path)
        if not path.is_file():
            raise ValueError("neither a file nor a packaged code "
                             f"({', '.join(_builtin_code_names())})")
    try:
        text = path.read_text() if hasattr(path, "read_text") else Path(path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read code file: {err.strerror}") from err
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ValueError("empty code file")
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
    verified = k <= math.log2(ASSIGNMENT_LIMIT)
    code = LinearCode(g=g, n=n, k=k, d_min=d_min, d_min_verified=verified)
    if verified:
        actual = _min_distance(code)
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
    #suffixes) + 2.  The layout depends on the code alone and is cached
    per code value; per observation only the n coefficients are scattered
    into it.
    """
    y = _check_observation(y, code.n, f"block length {code.n}")
    if not n0 > 0:
        raise ValueError("noise density must be positive")
    return _logapp_layout(code).build((2.0 / n0) * y)


@lru_cache(maxsize=16)
def _logapp_layout(code: LinearCode) -> _SumOfProducts:
    return _sum_of_products(np.where(code.g[:, :, None] == 1, (1.0, -1.0), 1.0))


def _q_function(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


def biawgn_capacity_dispersion(n0: float) -> tuple[float, float]:
    """Capacity C and dispersion V (bits, bits^2) of the BI-AWGN channel.

    Gauss-Hermite quadrature of order 64 over the information density
    i(y) = 1 - log2(1 + exp(-2 y / sigma^2)) with y = 1 + sigma Z,
    sigma^2 = N_0 / 2; C is its mean and V its variance.
    """
    if not n0 > 0:
        raise ValueError("noise density must be positive")
    sigma2 = n0 / 2.0
    nodes, weights = np.polynomial.hermite.hermgauss(64)
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


def stopping_threshold(code: LinearCode, n0: float, target_pe: float) -> float:
    """Distance threshold eta of the decoder's early-stopping test.

    H0: the candidate is the transmitted codeword, so its squared distance
    to y is (N0/2) chi^2_n; H1: it sits at Hamming distance d_min, giving
    (N0/2) chi^2_n(lambda) with lambda = 8 d_min / N0.  The threshold fixes
    the type-II error at target_pe / 100 (a safety factor of 100):
    eta = (N0/2) * F^-1_{chi^2_n(lambda)}(target_pe / 100).
    """
    if not 0.0 <= target_pe < 1.0:
        raise ValueError("target error probability must lie in [0, 1)")
    return 0.5 * n0 * chndtrix(target_pe / 100.0, code.n, 8.0 * code.d_min / n0)


@lru_cache(maxsize=256)
def _stopping_rule_values(code: LinearCode, n0: float) -> tuple[float, float]:
    """(target_pe, eta) of the early stop.  Both depend on the observation
    only through N0, and the Gauss-Hermite quadrature behind target_pe costs
    about 1 ms, so they are computed once per operating point."""
    target_pe = normal_approx_pe(code, n0)
    return target_pe, stopping_threshold(code, n0, target_pe)


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


def _osd_list(code: LinearCode, y: np.ndarray) -> np.ndarray:
    """The ``SEED_LIST_SIZE`` information words of highest correlation y^T x
    among the candidates of ordered-statistics decoding (Fossorier & Lin,
    IEEE T-IT 1995), best first (all candidates when there are fewer).

    GF(2) elimination of [G^T | I] over the positions in order of decreasing
    |y_j| finds the most reliable basis B and the systematic generator; the
    candidates re-encode the hard decisions on B under every flip pattern of
    weight <= OSD_ORDER.
    """
    n, k = code.n, code.k
    a = np.concatenate([code.g.T, np.eye(k, dtype=np.int64)], axis=1).astype(np.uint8)
    basis = _gf2_eliminate(a, np.argsort(-np.abs(y), kind="stable"))
    # Row i of the systematic generator a[:, :n] has a 1 at basis[i] alone
    # among B, and a[:, n:] maps the bits on B back to the information word.
    v = _flip_patterns(k) ^ (y[basis] < 0).astype(np.int64)
    x = 1.0 - 2.0 * ((v @ a[:, :n]) % 2)
    order = np.argsort(-(x @ y), kind="stable")[:SEED_LIST_SIZE]
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
    is empty, not strictly increasing or below rank 1 raises ValueError, as
    do an observation that is not a finite length-n vector, an unknown
    ``variant``, a negative ``taylor_p`` and a negative or NaN ``trunc_tol``.
    """
    y = _check_observation(y, code.n, f"block length {code.n}")
    schedule = _rank_schedule(schedule)
    _check_pipeline_args(taylor_p, schedule[0], variant, trunc_tol)
    target_pe, eta = _stopping_rule_values(code, n0)
    metric = build_code_logapp_tt(code, y, n0)
    if trunc_tol > 0:
        metric = tt_truncate(metric, trunc_tol)
    lp = LogPosterior(metric, BIT_ALPHABET)
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
