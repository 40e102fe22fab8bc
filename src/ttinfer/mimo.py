"""MIMO detection pieces: Rayleigh channel sampling, complex-to-real channel
decomposition, QAM alphabets, the terms of the Gaussian log-likelihood
-||y - H x||^2 / (2 sigma^2) for the exact sum-of-products TT builder of
the tt module, a list sphere decoder, and the TT detector.

The complex model y~ = H~ x~ + n~ with M-QAM symbols is rewritten as the real
model y = H x + n with H = [[Re, -Im], [Im, Re]], stacked (Re; Im) vectors,
and the real alphabet {+-1, +-3, ...} of size sqrt(M) per real component.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cross import CrossConfig
from .posterior import SEED_LIST_SIZE, LogPosterior, MarginalTable, infer_marginals, map_decision
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
    """Outcome of one detected transmission."""

    x_hat: np.ndarray
    marginals: MarginalTable
    max_rank_observed: int


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
    y = np.asarray(y, dtype=np.float64)
    alphabet = np.asarray(alphabet, dtype=np.float64)
    if h.ndim != 2 or y.shape != h.shape[:1]:
        raise ValueError(f"observation shape {y.shape} does not match channel shape {h.shape}")
    n_modes = h.shape[1]
    q2 = -(h.T @ h) / sigma2  # 2 Q
    coefficients = np.concatenate([
        q2[np.triu_indices(n_modes, 1)],
        (h.T @ y) / sigma2,
        0.5 * np.diag(q2),
        [-0.5 * float(y @ y) / sigma2],
    ])
    return _quadratic_layout(n_modes, tuple(alphabet.tolist())).build(coefficients)


def _sphere_list(y: np.ndarray, h: np.ndarray, alphabet, size: int = SEED_LIST_SIZE) -> np.ndarray:
    """Alphabet indices of the ``size`` hypotheses x with the smallest
    ||y - H x||^2, best first (all of them when there are fewer).

    Exact list sphere decoder (Hochwald & ten Brink, IEEE T-Com 2003):
    depth-first Schnorr-Euchner search from the last symbol to the first on
    H = Q R, which leaves ||Q^T y - R x||^2 plus a constant; each level
    visits its symbols in order of increasing distance increment and prunes
    at the size-th best full metric found so far.  Levels with no row of R
    (a wide H) add 0.
    """
    q, r = np.linalg.qr(h)
    z, rows = (q.T @ y).tolist(), r.tolist()
    symbols = np.asarray(alphabet, dtype=np.float64).tolist()
    n = h.shape[1]
    idx, x = [0] * n, [0.0] * n
    best: list[tuple[float, tuple]] = []  # (metric, indices), ascending

    def search(level: int, dist: float) -> None:
        if level < 0:
            bisect.insort(best, (dist, tuple(idx)))
            del best[size:]
            return
        if level < len(rows):
            row = rows[level]
            center = z[level] - sum(row[j] * x[j] for j in range(level + 1, n))
            steps = [(center - row[level] * a) ** 2 for a in symbols]
        else:
            steps = [0.0] * len(symbols)
        for k in sorted(range(len(symbols)), key=steps.__getitem__):
            d = dist + steps[k]
            if len(best) == size and d >= best[-1][0]:
                break
            idx[level], x[level] = k, symbols[k]
            search(level - 1, d)

    search(n - 1, 0.0)
    return np.array([entry[1] for entry in best], dtype=np.int64)


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

    Builds the log-likelihood -||y - H x||^2 / (2 sigma^2) as one exact TT
    of ranks min(b, N - b) + 2 (the uniform prior is omitted), rounds it by
    ``tt_truncate`` only when ``trunc_tol`` is positive (the default 0 keeps
    it exact), exponentiates and marginalizes via the selected cross variant
    seeded with the sphere decoder's list of the ``SEED_LIST_SIZE`` most
    likely hypotheses, and takes per-symbol MAP decisions.  The maximum
    interior TT rank of the exponentiated posterior is recorded.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size != ch.nr:
        raise ValueError(f"observation length {y.size} does not match N_R {ch.nr}")
    metric = build_quadratic_metric(y, ch.h, ch.sigma2, alphabet)
    if trunc_tol > 0:
        metric = tt_truncate(metric, trunc_tol)
    lp = LogPosterior(metric, np.asarray(alphabet, dtype=np.float64))
    seeds = _sphere_list(y, ch.h, alphabet)
    marginals, max_rank = infer_marginals(lp, cfg, taylor_p, taylor_max_rank, variant, seeds=seeds)
    x_hat = map_decision(marginals, alphabet)
    return DetectionTrial(x_hat=x_hat, marginals=marginals, max_rank_observed=max_rank)
