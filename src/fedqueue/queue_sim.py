"""Stochastic scheduler-delay and compute-time models of the validated
``[fedqueue]`` section.

Admission delays are either fixed per client (``queue_fixed``) or lognormal
around per-client location parameters (``queue_means``): q = exp(ln(mu_k) +
rho * Z) with Z standard normal, so mu_k is the median of the delay and rho
(``queue_rho``) sweeps the tail weight without moving the typical delay;
``queue_mean_mode = arithmetic`` reads mu_k as the mean instead.  E local
steps take E / throughput_k * slowdown_k seconds.
"""
from __future__ import annotations

import math

import numpy as np

from .config import FedQueueConfig

__all__ = ["lognormal_delay", "sample_queue_delay", "compute_time"]


def lognormal_delay(mu: float, rho: float, z: float, mean_mode: str = "median") -> float:
    """Delay kernel: exp(ln mu + rho z), optionally mean-corrected: the
    "arithmetic" mode shifts the draw by -rho^2/2 in log space so E[q] = mu."""
    shift = -0.5 * rho * rho if mean_mode == "arithmetic" else 0.0
    return float(mu * math.exp(rho * z + shift))


def sample_queue_delay(fq: FedQueueConfig, k: int, rng: np.random.Generator) -> float:
    """Draw one admission delay for client k from the given substream."""
    if fq.sim_queue == "fixed":
        return float(fq.queue_fixed[k])
    if fq.sim_queue != "lognormal":
        raise ValueError(f"unknown sim_queue: {fq.sim_queue!r}")
    z = float(rng.standard_normal())
    return lognormal_delay(float(fq.queue_means[k]), fq.queue_rho, z,
                           fq.queue_mean_mode)


def compute_time(fq: FedQueueConfig, k: int, steps: int) -> float:
    """Wall seconds client k spends on `steps` local steps."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return steps / float(fq.throughput[k]) * float(fq.slowdown[k])
