"""Online per-client queue-delay prediction.

The predictor is an EWMA updated whenever an update is received at the
server (buffered arrivals included; the observed delay is information
regardless of admission).  The static-prediction ablation is the same
predictor at alpha = 0: for any finite q >= 0, (1 - 0) q_hat + 0 q is q_hat
bit for bit.  The interface is deliberately small so smarter predictors can
be dropped in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DelayPredictor"]


@dataclass
class DelayPredictor:
    q_hat: np.ndarray               # current per-client predictions, seconds
    alpha: float                    # EWMA rate in [0, 1]; 0 never updates

    def __post_init__(self):
        self.q_hat = np.asarray(self.q_hat, dtype=float).copy()
        if np.any(self.q_hat < 0):
            raise ValueError("predictions must be >= 0")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")

    def predict(self, k: int) -> float:
        return float(self.q_hat[k])

    def seed(self, k: int, observed_q: float) -> None:
        """Full-weight assignment used by the warm-up probe stage."""
        if observed_q < 0:
            raise ValueError("observed delay must be >= 0")
        self.q_hat[k] = float(observed_q)

    def observe(self, k: int, observed_q: float) -> None:
        """q_hat[k] <- (1 - alpha) q_hat[k] + alpha q."""
        if observed_q < 0:
            raise ValueError("observed delay must be >= 0")
        self.q_hat[k] = (1.0 - self.alpha) * self.q_hat[k] + self.alpha * float(observed_q)
