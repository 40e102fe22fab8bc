"""MIMO detection pieces: Rayleigh channel sampling, complex-to-real channel
decomposition, QAM alphabets, the terms of the Gaussian log-likelihood
-||y - H x||^2 / (2 sigma^2) for the exact sum-of-products TT builder of
the tt module, a list sphere decoder, and the TT detector.

The list sphere decoder is a breadth-first search in two stages: a beam
pass whose list is returned when no dropped partial metric could lead below
its last entry (the certificate), else a pass that keeps the nodes within
that entry's metric, up to a node budget.  The detector returns the sphere
list's own marginals, without building any TT, when the list is exact and a
bound shows that it holds all but at most ``LIST_EXIT_TOL`` of the
posterior mass (as a share of the list's mass).

The complex model y~ = H~ x~ + n~ with M-QAM symbols is rewritten as the real
model y = H x + n with H = [[Re, -Im], [Im, Re]], stacked (Re; Im) vectors,
and the real alphabet {+-1, +-3, ...} of size sqrt(M) per real component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cross import CrossConfig
from .posterior import (
    SEED_LIST_SIZE,
    LogPosterior,
    MarginalTable,
    _check_observation,
    _check_pipeline_args,
    infer_marginals,
    map_decision,
)
from .tt import TensorTrain, _sum_of_products, _SumOfProducts, tt_truncate

__all__ = [
    "ChannelRealization",
    "DegenerateChannelError",
    "DetectionTrial",
    "QamConstellation",
    "build_quadratic_metric",
    "noise_variance_for_snr",
    "realify_channel",
    "sample_channel",
    "ttdet",
]


# ``ttdet`` skips the cross when the posterior mass outside the sphere list
# is at most this share of the list's mass; every entry of the list's
# normalized marginals is then within it of the exact posterior's.
LIST_EXIT_TOL = 1e-9

# ``_sphere_list``'s beam keeps this many nodes per listed hypothesis.  On
# 300 benchmark 16-QAM inputs at 15 dB (seed 57) the beam alone was
# certified exact on 219 at 2 and on 289 at 4 (K = 16), and the median
# ``ttdet`` time was the same within the run-to-run spread.
SPHERE_BEAM_FACTOR = 4

# ``_sphere_list``'s radius pass gives up at a level with more nodes than
# this, which bounds its memory and time.  On 300 benchmark 16-QAM inputs
# at each of 5, 10 and 15 dB (seed 7) it peaked at 1,588 nodes.
SPHERE_RADIUS_BUDGET = 4096


class DegenerateChannelError(ValueError):
    """The channel matrix is (numerically) zero; SNR is undefined."""


@dataclass(frozen=True)
class QamConstellation:
    """Square M-QAM described by its real per-component alphabet.

    The alphabet is the unnormalized odd grid {+-1, +-3, ...} of size
    L = sqrt(M); average-energy normalization enters only the SNR
    accounting, never the symbols themselves.
    """

    m: int
    alphabet: np.ndarray

    @classmethod
    def from_order(cls, m: int) -> "QamConstellation":
        side = math.isqrt(m)
        if side * side != m or side < 2:
            raise ValueError(f"{m}-QAM is not square")
        alphabet = np.arange(-side + 1, side + 1, 2, dtype=np.float64)
        return cls(m=m, alphabet=alphabet)

    @property
    def size_real(self) -> int:
        return self.alphabet.size

    @property
    def energy_real(self) -> float:
        """Mean energy of one real component."""
        return float(np.mean(self.alphabet**2))

    @property
    def energy_complex(self) -> float:
        """Mean energy of one complex M-QAM symbol."""
        return 2.0 * self.energy_real


@dataclass(frozen=True)
class ChannelRealization:
    """Real-valued observation model y = H x + n with AWGN variance sigma2.

    ``h`` carries the block structure [[Re, -Im], [Im, Re]] of the complex
    channel; ``nt_complex``/``nr_complex`` are the antenna counts, so the
    real dimensions are twice as large.
    """

    h: np.ndarray
    sigma2: float
    nt_complex: int
    nr_complex: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        object.__setattr__(self, "h", h)
        if h.shape != (2 * self.nr_complex, 2 * self.nt_complex):
            raise ValueError(f"real channel must be {2*self.nr_complex}x{2*self.nt_complex}")
        if not np.isfinite(h).all():
            raise ValueError("channel entries must be finite")
        if not self.sigma2 > 0:
            raise ValueError("noise variance must be positive")

    @classmethod
    def from_complex(cls, h_complex: np.ndarray, sigma2: float) -> "ChannelRealization":
        nr, nt = h_complex.shape
        return cls(h=realify_channel(h_complex), sigma2=sigma2, nt_complex=nt, nr_complex=nr)

    @property
    def nt(self) -> int:
        return 2 * self.nt_complex

    @property
    def nr(self) -> int:
        return 2 * self.nr_complex


@dataclass
class DetectionTrial:
    """Outcome of one detected transmission.  ``certified`` marks marginals
    read from the sphere list, where no TT was built (``max_rank_observed``
    is then 0)."""

    x_hat: np.ndarray
    marginals: MarginalTable
    max_rank_observed: int
    certified: bool


def sample_channel(nt_complex: int, nr_complex: int, rng: np.random.Generator) -> np.ndarray:
    """Rayleigh-fading channel: i.i.d. circular complex standard Gaussian
    entries (real and imaginary parts each N(0, 1/2))."""
    if nt_complex < 1 or nr_complex < 1:
        raise ValueError("antenna counts must be >= 1")
    scale = 1.0 / np.sqrt(2.0)
    return scale * (
        rng.standard_normal((nr_complex, nt_complex))
        + 1j * rng.standard_normal((nr_complex, nt_complex))
    )


def realify_channel(h_complex: np.ndarray) -> np.ndarray:
    """Real block representation [[Re, -Im], [Im, Re]] of a complex matrix."""
    re, im = h_complex.real, h_complex.imag
    return np.block([[re, -im], [im, re]])


def noise_variance_for_snr(h_complex: np.ndarray, symbol_energy: float, snr_db: float) -> float:
    """Per-real-component noise variance matching the expected SNR per
    transmit stream.

    The SNR per transmit stream is the ratio ||H~ x~||^2 / (N_T * ||n~||^2);
    matching it in expectation over symbols and noise for the given channel
    yields sigma^2 = ||H~||_F^2 * E_s / (2 * N_R * N_T * 10^(snr/10)) with
    E_s the mean complex symbol energy.
    """
    if not np.isfinite(snr_db):
        raise ValueError("SNR must be finite")
    fro2 = float(np.sum(np.abs(h_complex) ** 2))
    if fro2 <= 0.0:
        raise DegenerateChannelError("zero channel has no SNR scaling")
    nr, nt = h_complex.shape
    return fro2 * symbol_energy / (2.0 * nr * nt * 10.0 ** (snr_db / 10.0))


@lru_cache(maxsize=16)
def _quadratic_layout(n_modes: int, alphabet: tuple[float, ...]) -> _SumOfProducts:
    """The cached layout of the quadratic metric's terms, in the order of
    ``build_quadratic_metric``'s coefficients: x_i x_j for i < j, then x_i,
    then x_i^2, then the constant."""
    a = np.array(alphabet)
    rows, cols = np.triu_indices(n_modes, 1)
    pairs, modes = np.arange(rows.size), np.arange(n_modes)
    factors = np.ones((rows.size + 2 * n_modes + 1, n_modes, a.size))
    factors[pairs, rows] = factors[pairs, cols] = a
    factors[rows.size + modes, modes] = a
    factors[rows.size + n_modes + modes, modes] = a**2
    return _sum_of_products(factors)


def build_quadratic_metric(y: np.ndarray, h: np.ndarray, sigma2: float, alphabet) -> TensorTrain:
    """Exact TT of the Gaussian log-likelihood -||y - H x||^2 / (2 sigma^2).

    Written as const + l^T x + x^T Q x with Q = -H^T H / (2 sigma^2) and
    l = H^T y / sigma^2, its terms are x_i x_j with coefficient
    2 Q_ij = -(H^T H)_ij / sigma^2 for i < j, x_i with l_i, x_i^2 with Q_ii,
    and the constant -||y||^2 / (2 sigma^2).  ``tt._sum_of_products`` lays
    them out, once per (N, alphabet), with bond ranks min(b, N - b) + 2 and
    no rounding; per observation only the coefficients are scattered.
    """
    if not sigma2 > 0:
        raise ValueError("noise variance must be positive")
    h = np.asarray(h, dtype=np.float64)
    alphabet = np.asarray(alphabet, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"observation shape {np.shape(y)} does not match channel shape {h.shape}")
    y = _check_observation(y, h.shape[0], f"channel shape {h.shape}")
    n_modes = h.shape[1]
    q2 = -(h.T @ h) / sigma2  # 2 Q
    coefficients = np.concatenate([
        q2[np.triu_indices(n_modes, 1)],
        (h.T @ y) / sigma2,
        0.5 * np.diag(q2),
        [-0.5 * float(y @ y) / sigma2],
    ])
    return _quadratic_layout(n_modes, tuple(alphabet.tolist())).build(coefficients)


def _sphere_pass(z: np.ndarray, r: np.ndarray, symbols: np.ndarray, beam: int,
                 radius: float | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """One breadth-first pass of the list sphere search on H = Q R, from the
    last level to the first; returns the partial metrics ||z - R x||^2 of the
    surviving leaves, their alphabet indices, and the smallest partial
    metric dropped on the way (inf when none was).

    Each node carries its running centers z - R[:, >l] x_{>l}, and one
    broadcast per level expands every node by all symbols.  Without a
    ``radius`` the pass keeps the ``beam`` smallest partial metrics per
    level.  With one it keeps every node whose partial metric is at most
    it; at a level with more than ``beam`` such nodes it stops and returns
    no leaves and the smallest metric past the ``beam`` smallest, since no
    list it could go on to find would be certified.  Levels with no row of
    R (a wide H) add 0.
    """
    n_sym, n = symbols.size, r.shape[1]
    dist, idx, centers = np.zeros(1), np.zeros((1, n), dtype=np.int64), z[None, :]
    dropped = math.inf
    for level in range(n - 1, -1, -1):
        if level < r.shape[0]:
            step = (centers[:, level, None] - r[level, level] * symbols) ** 2
        else:
            step = np.zeros(n_sym)
        d = (dist[:, None] + step).ravel()
        if radius is not None:
            keep = np.flatnonzero(d <= radius)
            if keep.size > beam:
                return dist[:0], idx[:0], float(np.partition(d[keep], beam)[beam])
        elif d.size > beam:
            keep = np.argpartition(d, beam)
            dropped = min(dropped, float(d[keep[beam]]))
            keep = keep[:beam]
        else:
            keep = np.arange(d.size)
        parent, sym = np.divmod(keep, n_sym)
        idx = idx[parent]
        idx[:, level] = sym
        centers = centers[parent] - symbols[sym, None] * r[:, level]
        dist = d[keep]
    return dist, idx, dropped


def _sphere_list(y: np.ndarray, h: np.ndarray, alphabet,
                 size: int = SEED_LIST_SIZE) -> tuple[np.ndarray, bool]:
    """Alphabet indices of ``size`` hypotheses x with small ||y - H x||^2,
    best first and ties by index tuple, and whether they are exactly the
    ``size`` smallest (all hypotheses when there are fewer).

    List sphere decoder (Hochwald & ten Brink, IEEE T-Com 2003) as a
    breadth-first search on H = Q R, which leaves ||Q^T y - R x||^2 plus a
    constant.  Stage 1 is a beam pass that keeps the ``SPHERE_BEAM_FACTOR *
    size`` best nodes per level (``_sphere_pass``).  Partial metrics only
    grow along a path, so when the size-th best leaf (the radius) lies
    below every dropped partial metric, the beam's best are the exact list
    (the certificate).  Otherwise stage 2 runs the pass again and keeps the
    nodes within the radius: each of the true best paths stays within it at
    every level, and at least ``size`` leaves do.  Past
    ``SPHERE_RADIUS_BUDGET`` such nodes at one level stage 2 stops, and the
    beam's list is returned as not exact.
    """
    q, r = np.linalg.qr(h)
    z, symbols = q.T @ y, np.asarray(alphabet, dtype=np.float64)
    dist, idx, dropped = _sphere_pass(z, r, symbols, SPHERE_BEAM_FACTOR * size)
    top = np.lexsort((*idx.T[::-1], dist))[:size]
    radius = dist[top[-1]]
    if dropped <= radius:
        wide_dist, wide_idx, dropped = _sphere_pass(z, r, symbols, SPHERE_RADIUS_BUDGET,
                                                    radius=radius)
        if dropped > radius:
            dist, idx = wide_dist, wide_idx
            top = np.lexsort((*idx.T[::-1], dist))[:size]
    return idx[top], dropped > radius


def _log_outside_bound(log_weights: np.ndarray, n_hypotheses: int) -> float:
    """log of a bound on the posterior mass outside a list of the exact top
    K hypotheses, as a share of the list's mass; -inf when the list holds
    all ``n_hypotheses``.

    Every unlisted hypothesis weighs at most the list's lightest, so the
    share is at most (n_hypotheses - K) exp(l_min - l_max) /
    sum_i exp(l_i - l_max).  It is summed in the log domain, since
    ``n_hypotheses`` = |A|^N overflows a float for large N.
    """
    outside = n_hypotheses - log_weights.size
    if outside <= 0:
        return -math.inf
    top = log_weights.max()
    return (math.log(outside) + float(log_weights.min() - top)
            - math.log(float(np.exp(log_weights - top).sum())))


def _list_marginals(indices: np.ndarray, log_weights: np.ndarray, size: int) -> MarginalTable:
    """Normalized per-mode marginals of the posterior restricted to the
    listed hypotheses."""
    n_modes = indices.shape[1]
    weights = np.exp(log_weights - log_weights.max())
    bins = (indices + size * np.arange(n_modes)).ravel()
    mass = np.bincount(bins, weights=np.repeat(weights, n_modes), minlength=n_modes * size)
    return MarginalTable(mass.reshape(n_modes, size) / weights.sum())


def ttdet(
    y: np.ndarray,
    ch: ChannelRealization,
    alphabet,
    cfg: CrossConfig,
    taylor_p: int = 0,
    taylor_max_rank: int = 10,
    variant: str = "sample",
    trunc_tol: float = 0.0,
) -> DetectionTrial:
    """TT-based symbol-wise MAP detection of one transmission.

    First runs the sphere decoder for the list of the ``SEED_LIST_SIZE``
    most likely hypotheses.  When the list is exact and
    ``_log_outside_bound`` shows that the posterior mass outside it is at
    most ``LIST_EXIT_TOL`` of the list's, its own normalized marginals are
    returned as certified, with no TT built and a recorded rank of 0.
    Otherwise (an inexact list seeds the cross all the same) it builds the
    log-likelihood -||y - H x||^2 / (2 sigma^2) as one exact TT of ranks
    min(b, N - b) + 2 (the uniform prior is omitted), rounds it by
    ``tt_truncate`` only when ``trunc_tol`` is positive (the default 0 keeps
    it exact), and exponentiates and marginalizes it via the selected cross
    variant seeded with the list, recording the maximum interior TT rank of
    the exponentiated posterior.  Either way decisions are per-symbol MAP.
    Out-of-range arguments raise ValueError on every input, certified or
    not (``posterior._check_pipeline_args``), and so does an observation
    that is not a finite vector of length N_R.
    """
    _check_pipeline_args(taylor_p, taylor_max_rank, variant, trunc_tol)
    y = _check_observation(y, ch.nr, f"channel shape {ch.h.shape}")
    alphabet = np.asarray(alphabet, dtype=np.float64)
    seeds, exact = _sphere_list(y, ch.h, alphabet)
    residual = y - alphabet[seeds] @ ch.h.T
    log_weights = np.einsum("ij,ij->i", residual, residual) / (-2.0 * ch.sigma2)
    certified = exact and (_log_outside_bound(log_weights, alphabet.size**ch.nt)
                           < math.log(LIST_EXIT_TOL))
    if certified:
        marginals, max_rank = _list_marginals(seeds, log_weights, alphabet.size), 0
    else:
        metric = build_quadratic_metric(y, ch.h, ch.sigma2, alphabet)
        if trunc_tol > 0:
            metric = tt_truncate(metric, trunc_tol)
        lp = LogPosterior(metric, alphabet)
        marginals, max_rank = infer_marginals(lp, cfg, taylor_p, taylor_max_rank, variant,
                                              seeds=seeds)
    return DetectionTrial(map_decision(marginals, alphabet), marginals, max_rank, certified)
