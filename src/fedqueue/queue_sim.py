"""Stochastic scheduler-delay and compute-time models.

Admission delays are either fixed per client or lognormal around per-client
location parameters.  The lognormal draw is q = exp(ln(mu_k) + rho * Z) with
Z standard normal, so mu_k is the median of the delay and rho sweeps the
tail weight without moving the typical delay.  An alternative reading of
mu_k as the arithmetic mean is available behind ``mean_mode="arithmetic"``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QueueModel",
    "ComputeProfile",
    "lognormal_delay",
    "sample_queue_delay",
    "compute_time",
]

FIXED = "fixed"
LOGNORMAL = "lognormal"


@dataclass(frozen=True)
class QueueModel:
    """Per-client admission-delay generator.

    kind          -- "fixed" | "lognormal"
    fixed_delays  -- per-client delay seconds (fixed kind)
    means         -- per-client location parameters mu_k seconds (lognormal kind)
    rho           -- shared log-space noise scale, >= 0
    mean_mode     -- "median": q = exp(ln mu + rho Z); "arithmetic": the draw
                     is shifted by -rho^2/2 in log space so E[q] = mu
    """

    kind: str
    fixed_delays: np.ndarray | None = None
    means: np.ndarray | None = None
    rho: float = 0.0
    mean_mode: str = "median"

    def __post_init__(self):
        if self.kind not in (FIXED, LOGNORMAL):
            raise ValueError(f"unknown queue model kind: {self.kind!r}")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.kind == FIXED:
            if self.fixed_delays is None:
                raise ValueError("fixed queue model requires fixed_delays")
            if np.any(np.asarray(self.fixed_delays) < 0):
                raise ValueError("fixed delays must be >= 0")
        if self.kind == LOGNORMAL:
            if self.means is None:
                raise ValueError("lognormal queue model requires means")
            if np.any(np.asarray(self.means) <= 0):
                raise ValueError("lognormal means must be > 0")
        if self.mean_mode not in ("median", "arithmetic"):
            raise ValueError(f"unknown mean_mode: {self.mean_mode!r}")


@dataclass(frozen=True)
class ComputeProfile:
    """Client training throughput in local SGD steps per second."""

    throughput: np.ndarray            # c_k > 0, steps per second
    slowdown: np.ndarray              # per-client wall-time multiplier > 0

    def __post_init__(self):
        if np.any(np.asarray(self.throughput) <= 0):
            raise ValueError("throughput must be > 0 for every client")
        if np.any(np.asarray(self.slowdown) <= 0):
            raise ValueError("slowdown must be > 0")


def lognormal_delay(mu: float, rho: float, z: float, mean_mode: str = "median") -> float:
    """Delay kernel: exp(ln mu + rho z), optionally mean-corrected."""
    shift = -0.5 * rho * rho if mean_mode == "arithmetic" else 0.0
    return float(mu * math.exp(rho * z + shift))


def sample_queue_delay(model: QueueModel, k: int, rng: np.random.Generator) -> float:
    """Draw one admission delay for client k from the given substream."""
    if model.kind == FIXED:
        return float(model.fixed_delays[k])
    z = float(rng.standard_normal())
    return lognormal_delay(float(model.means[k]), model.rho, z, model.mean_mode)


def compute_time(profile: ComputeProfile, k: int, steps: int) -> float:
    """Wall seconds client k spends on `steps` local steps."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return 0.0
    return steps / float(profile.throughput[k]) * float(profile.slowdown[k])
