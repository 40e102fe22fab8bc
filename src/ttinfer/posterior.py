"""Model-agnostic log-posterior pipeline in the TT format.

The unnormalized log-APP metric of a discrete-input additive noise model is
built exactly in TT form by the model layer (for MIMO, one quadratic-form TT
of the whole Gaussian log-likelihood; a separable log-prior adds a rank-2
TT), exponentiated with a TT-cross seeded by the model's top-K candidate
list (else a random-probe mode estimate), and marginalized in one pass over
the cores to produce symbol-wise posteriors and MAP hard decisions.  A model
whose list is the exact top K may skip the TT altogether when the list
provably holds all but a negligible share of the posterior (the MIMO
detector does; an OSD list of a code is not the exact top K, so the code
decoder always runs the cross).
Additive constants of the log-posterior are never represented: the cross
subtracts the estimated maximum inside the exponential it samples, and
normalization of the marginals restores proper probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cross import _VARIANT_WIDTH, CrossConfig, _check_seed_indices, tt_cross, tt_exp_taylor
from .tt import (
    TensorTrain,
    _sum_of_products,
    constant_tt,
    tt_add,
    tt_eval_many,
    tt_marginals,
    tt_truncate,
)

__all__ = [
    "InferenceFailureError",
    "LogPosterior",
    "MarginalTable",
    "build_prior_tt",
    "infer_marginals",
    "map_decision",
]

# Clamp window for the exponential handed to the cross: values are shifted so
# the estimated maximum sits at 0, the lower clip keeps the aggregate mass of
# the clipped region below e^-40 of the peak, and the upper clip guards
# against an underestimated shift.
_EXP_CLIP_HI = 46.0
_EXP_CLIP_MARGIN = 46.0

# Length K of the candidate lists the models pass as ``seeds``.
SEED_LIST_SIZE = 16

# Exact enumeration (the two oracles and a code's minimum distance) visits
# at most this many assignments; each enumerates two halves of the unknowns
# and combines them in one matrix product, so its tables hold only about
# the square root of this many rows.
ASSIGNMENT_LIMIT = 1 << 20

# Relative tolerance of the roundings on the Taylor-init path: the shifted
# metric and every Horner step of ``tt_exp_taylor``.
_TAYLOR_TOL = 1e-12


class InferenceFailureError(RuntimeError):
    """Marginalization produced no usable mass; retry with larger ranks."""


def _check_enumeration(n_modes: int, base: int) -> None:
    """Raise ValueError when base^n_modes exceeds ``ASSIGNMENT_LIMIT``."""
    total = base**n_modes
    if total > ASSIGNMENT_LIMIT:
        raise ValueError(f"{total} assignments exceed the enumeration limit {ASSIGNMENT_LIMIT}")


@lru_cache(maxsize=4)
def _assignment_digits(n_modes: int, base: int) -> np.ndarray:
    """All base^n_modes assignments, row i holding the base-``base`` digits
    of i, most significant first (so ``[:, ::-1]`` of a base-2 table puts
    bit j of i in column j).  Built once per size and shared read-only;
    raises ValueError above ``ASSIGNMENT_LIMIT`` rows."""
    _check_enumeration(n_modes, base)
    total = base**n_modes
    digits = np.empty((total, n_modes), dtype=np.min_scalar_type(base - 1))
    idx = np.arange(total)
    for mode in range(n_modes - 1, -1, -1):
        idx, digits[:, mode] = np.divmod(idx, base)
    digits.flags.writeable = False
    return digits


@dataclass(frozen=True)
class LogPosterior:
    """Unnormalized log-APP metric over ``n_modes`` symbols.

    ``tt`` holds the metric up to an additive constant; every physical
    dimension equals the alphabet size.
    """

    tt: TensorTrain
    alphabet: np.ndarray

    def __post_init__(self):
        alphabet = np.asarray(self.alphabet, dtype=np.float64)
        object.__setattr__(self, "alphabet", alphabet)
        if alphabet.ndim != 1 or alphabet.size < 1:
            raise ValueError("alphabet must be a nonempty vector")
        if any(n != alphabet.size for n in self.tt.dims):
            raise ValueError(
                f"every TT dimension must equal the alphabet size {alphabet.size}, got {self.tt.dims}"
            )

    @property
    def n_modes(self) -> int:
        return self.tt.order


@dataclass(frozen=True)
class MarginalTable:
    """Per-symbol posterior vectors; row i is the distribution of symbol i."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2:
            raise ValueError("marginal table must be (n_modes, alphabet) shaped")
        if not np.all(np.isfinite(probs)):
            raise ValueError("marginal probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("marginal probabilities must be nonnegative")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("marginal rows must sum to 1")


def build_prior_tt(v, n_modes: int) -> TensorTrain:
    """Exact TT of the separable log-prior sum_i v[k_i].

    Its terms are one per mode i, with factor v on mode i alone and
    coefficient 1, laid out by ``tt._sum_of_products``: first core (1, v),
    interior slices [[1, v_k], [0, 1]], last core stacking (v^T; 1^T), so
    all interior ranks are exactly 2 (a v of all ones is a constant, which
    the first core holds).  A single mode gives the rank-1 TT holding v.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("log-prior must be a nonempty vector")
    if n_modes < 1:
        raise ValueError("need at least one mode")
    modes = np.arange(n_modes)
    factors = np.ones((n_modes, n_modes, v.size))
    factors[modes, modes] = v
    return _sum_of_products(factors).build(np.ones(n_modes))


def _check_pipeline_args(taylor_p: int, taylor_max_rank: int, variant: str,
                         trunc_tol: float) -> None:
    """Raise ValueError for detector arguments out of range: an unknown
    variant, a negative ``taylor_p``, a ``taylor_max_rank`` below 1, and a
    negative or NaN ``trunc_tol``.  A detector checks them first, so that
    it rejects them on every input, also where it skips the cross."""
    if variant not in _VARIANT_WIDTH:
        raise ValueError(f"unknown cross variant {variant!r}")
    if not taylor_p >= 0:
        raise ValueError("taylor_p must be >= 0")
    if not taylor_max_rank >= 1:
        raise ValueError("taylor_max_rank must be >= 1")
    if not trunc_tol >= 0:
        raise ValueError("trunc_tol must be >= 0")


def _check_observation(y, n: int, what: str) -> np.ndarray:
    """``y`` as a float64 vector; raises ValueError unless its shape is
    (n,), with ``what`` naming where n comes from, and every entry is
    finite.  Every detector and metric builder checks its observation here."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"observation shape {y.shape} does not match {what}")
    if not np.isfinite(y).all():
        raise ValueError("observation must be finite")
    return y


def _estimate_log_shift(tt: TensorTrain, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Estimate the maximizer of the log-posterior: 256 random probes refined
    by coordinate ascent.  Returns (max estimate, argmax estimate); the value
    centers the exponential near [-range, 0] and the index seeds the cross
    pivots at the posterior mode."""
    dims = tt.dims
    idx = np.column_stack([rng.integers(0, d, size=256) for d in dims])
    vals = tt_eval_many(tt, idx)
    best = idx[int(np.argmax(vals))].copy()
    best_val = float(np.max(vals))
    for _ in range(2):
        improved = False
        for mode, dim in enumerate(dims):
            cand = np.tile(best, (dim, 1))
            cand[:, mode] = np.arange(dim)
            cvals = tt_eval_many(tt, cand)
            j = int(np.argmax(cvals))
            if cvals[j] > best_val:
                best_val = float(cvals[j])
                best = cand[j].copy()
                improved = True
        if not improved:
            break
    return best_val, best


def infer_marginals(
    lp: LogPosterior,
    cfg: CrossConfig,
    taylor_p: int,
    taylor_max_rank: int,
    variant: str = "sample",
    seeds=None,
) -> tuple[MarginalTable, int]:
    """Symbol-wise posteriors of a log-posterior TT.

    Exponentiates the metric with a TT-cross, marginalizes every mode, and
    normalizes.  The cross starts from the degree-``taylor_p`` Taylor series
    of exp at rank ``taylor_max_rank`` (degree 0: all ones) and first samples
    the fibers through ``seeds``, (K, N) candidate multi-indices whose best
    metric also shifts the exponential; without them a random-probe mode
    estimate serves.  The cross samples exp(metric - shift) straight from
    ``lp.tt``; only a Taylor init (``taylor_p`` > 0) builds the shifted
    metric as a rounded TT.  Negative marginal entries (cross artifacts) are
    clamped to zero before normalization.  Returns the table together with
    the maximum interior TT rank of the exponentiated tensor.

    Raises :class:`InferenceFailureError` when a marginal carries no usable
    mass; callers may retry with larger ranks.
    """
    if seeds is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 0x5F17]))
        shift, mode_idx = _estimate_log_shift(lp.tt, rng)
        seeds = mode_idx[None, :]
    else:
        seeds = _check_seed_indices(seeds, lp.tt.dims)
        shift = float(tt_eval_many(lp.tt, seeds).max())
    base = lp.tt
    if taylor_p > 0:
        base = tt_truncate(tt_add(lp.tt, constant_tt(lp.tt.dims, -shift)), _TAYLOR_TOL)
    init = tt_exp_taylor(base, taylor_p, taylor_max_rank, _TAYLOR_TOL)
    lo = -(_EXP_CLIP_MARGIN + float(np.sum(np.log(lp.tt.dims))))

    def f(values):
        # (values - shift).clip(lo, _EXP_CLIP_HI) and exp, in one buffer
        v = values - shift
        np.maximum(v, lo, out=v)
        np.minimum(v, _EXP_CLIP_HI, out=v)
        return np.exp(v, out=v)

    result = tt_cross(f, lp.tt, init, cfg, variant=variant, seed_indices=seeds)
    table = np.empty((lp.n_modes, lp.alphabet.size))
    for mode, vec in enumerate(tt_marginals(result.tt)):
        vec = np.clip(vec, 0.0, None)
        total = vec.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise InferenceFailureError(
                f"marginal of mode {mode} has no usable mass (sum={total})"
            )
        table[mode] = vec / total
    return MarginalTable(table), max(result.tt.ranks)


def map_decision(marginals: MarginalTable, alphabet) -> np.ndarray:
    """Per-mode argmax over the alphabet; ties break toward the lowest
    alphabet index."""
    alphabet = np.asarray(alphabet)
    if alphabet.ndim != 1 or alphabet.size != marginals.probs.shape[1]:
        raise ValueError("alphabet does not match the marginal table width")
    return alphabet[np.argmax(marginals.probs, axis=1)]
