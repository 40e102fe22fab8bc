"""Tensor-train Bayesian inference for discrete-input additive noise models.

The package represents high-dimensional discrete log-posteriors exactly in
tensor-train (TT) format, exponentiates and marginalizes them by cross
approximation, and applies the machinery to MIMO symbol detection and
soft-decision decoding of binary linear block codes, with Monte Carlo
benchmarking against exact brute-force oracles.
"""

from .tt import (
    CapacityError,
    DenseTensor,
    TensorTrain,
    constant_tt,
    ones_tt,
    tt_add,
    tt_eval_many,
    tt_hadamard,
    tt_marginals,
    tt_scale,
    tt_to_dense,
    tt_truncate,
    zeros_tt,
)
from .cross import (
    CrossConfig,
    CrossResult,
    DegenerateMatrixError,
    NonFiniteValueError,
    tt_cross,
    tt_exp_taylor,
)
from .posterior import (
    InferenceFailureError,
    LogPosterior,
    MarginalTable,
    build_prior_tt,
    infer_marginals,
    map_decision,
)
from .mimo import (
    ChannelRealization,
    DegenerateChannelError,
    DetectionTrial,
    QamConstellation,
    build_quadratic_metric,
    noise_variance_for_snr,
    realify_channel,
    sample_channel,
    ttdet,
)
from .chancode import (
    DecodeResult,
    LinearCode,
    biawgn_capacity_dispersion,
    build_code_logapp_tt,
    builtin_code_path,
    load_code,
    n0_from_ebn0,
    normal_approx_pe,
    stopping_threshold,
    ttdec,
)
from .harness import (
    SimConfig,
    SweepResult,
    SweepRow,
    code_exact_bitwise_map,
    lmmse_detect,
    mimo_exact_marginals,
    run_sweep,
)

__version__ = "0.1.0"
