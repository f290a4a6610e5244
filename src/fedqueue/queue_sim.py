"""Stochastic scheduler-delay and compute-time models of the validated
``[fedqueue]`` section.

Admission delays are either fixed per client (``queue_fixed``) or lognormal
around per-client location parameters (``queue_means``): q = exp(ln(mu_k) +
rho * Z) with Z standard normal, so mu_k is the median of the delay and rho
(``queue_rho``) sweeps the tail weight without moving the typical delay;
``queue_mean_mode = arithmetic`` reads mu_k as the mean instead, shifting
the draw by -rho^2/2 in log space so that E[q] = mu_k.  E local steps take
E / throughput_k * slowdown_k seconds.
"""
from __future__ import annotations

import math

import numpy as np

from .config import FedQueueConfig

__all__ = ["sample_queue_delay", "compute_time", "effective_rate"]


def sample_queue_delay(fq: FedQueueConfig, k: int, rng: np.random.Generator) -> float:
    """Draw one admission delay for client k from the given substream."""
    if fq.sim_queue == "fixed":
        return float(fq.queue_fixed[k])
    if fq.sim_queue != "lognormal":
        raise ValueError(f"unknown sim_queue: {fq.sim_queue!r}")
    z, rho = float(rng.standard_normal()), fq.queue_rho
    shift = -0.5 * rho * rho if fq.queue_mean_mode == "arithmetic" else 0.0
    return float(fq.queue_means[k]) * math.exp(rho * z + shift)


def compute_time(fq: FedQueueConfig, k: int, steps: int) -> float:
    """Wall seconds client k spends on `steps` local steps."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return steps / float(fq.throughput[k]) * float(fq.slowdown[k])


def effective_rate(fq: FedQueueConfig, k: int) -> float:
    """Client k's local steps per wall second."""
    return float(fq.throughput[k]) / float(fq.slowdown[k])
