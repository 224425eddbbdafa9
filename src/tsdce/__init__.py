"""Transformed spatial domain channel estimation for analog mmWave
systems: channel/codebook simulation, the TSDCE estimator, baseline
estimators, analytic bounds and a Monte Carlo bench."""

from .algorithm import run
from .channel import PathParams, build_channel, sample_paths
from .numkit import SeededRng
from .observation import (
    Codebook,
    build_codebook,
    noise_variance_estimate,
    synthesize_observation,
    to_spatial,
)

__all__ = [
    "Codebook",
    "PathParams",
    "SeededRng",
    "build_channel",
    "build_codebook",
    "noise_variance_estimate",
    "run",
    "sample_paths",
    "synthesize_observation",
    "to_spatial",
]

__version__ = "0.1.0"
