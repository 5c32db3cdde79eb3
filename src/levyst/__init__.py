"""Matrix-free Bayesian spatio-temporal kernel-convolution fields.

A latent field built from a Poisson-count sum of bounded kernel evaluations
at autoregressively evolving support points, fitted by a transdimensional
MCMC sampler that runs each chain in one thread, with posterior prediction,
a synthetic-data generator and stationarity/correlation diagnostics.
"""

__version__ = "0.1.0"

from .ar import ArMode, ArSpec, ar_autocov, ar_initial_log_density, ar_sample_path, ar_transition_log_density
from .data import GqnConfig, GqnResult, SpaceTimeDataset, gqn_simulate, load_csv, standardize, write_csv
from .model import (
    KernelParams,
    LatentAtoms,
    MonotoneMapParams,
    PriorConfig,
    ScalarHypers,
    log_observation_density,
)
from .sampler import (
    ChainResult,
    ChainSample,
    MoveStats,
    Sampler,
    SamplerConfig,
    posterior_predict,
    run_chain,
)

__all__ = [
    "ArMode", "ArSpec", "ar_autocov", "ar_initial_log_density", "ar_sample_path",
    "ar_transition_log_density", "GqnConfig", "GqnResult", "SpaceTimeDataset",
    "gqn_simulate", "load_csv", "standardize", "write_csv", "KernelParams",
    "LatentAtoms", "MonotoneMapParams", "PriorConfig", "ScalarHypers",
    "log_observation_density", "ChainResult", "ChainSample",
    "MoveStats", "Sampler", "SamplerConfig", "posterior_predict", "run_chain",
    "__version__",
]
