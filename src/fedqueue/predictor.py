"""Online per-client queue-delay prediction.

The default predictor is an EWMA updated whenever an update is received at
the server (buffered arrivals included; the observed delay is information
regardless of admission).  A static predictor backs the prediction ablation.
The interface is deliberately small so smarter predictors can be dropped in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DelayPredictor", "EWMA", "STATIC"]

EWMA = "ewma"
STATIC = "static"


@dataclass
class DelayPredictor:
    kind: str                       # "ewma" | "static"
    q_hat: np.ndarray               # current per-client predictions, seconds
    alpha: float = 0.5              # EWMA rate in (0, 1]

    def __post_init__(self):
        self.q_hat = np.asarray(self.q_hat, dtype=float).copy()
        if np.any(self.q_hat < 0):
            raise ValueError("predictions must be >= 0")
        if self.kind not in (EWMA, STATIC):
            raise ValueError(f"unknown predictor kind: {self.kind!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")

    @classmethod
    def ewma(cls, num_clients: int, alpha: float, q_init: float) -> "DelayPredictor":
        return cls(kind=EWMA, q_hat=np.full(num_clients, float(q_init)), alpha=alpha)

    @classmethod
    def static(cls, values) -> "DelayPredictor":
        return cls(kind=STATIC, q_hat=np.asarray(values, dtype=float), alpha=1.0)

    def predict(self, k: int) -> float:
        return float(self.q_hat[k])

    def seed(self, k: int, observed_q: float) -> None:
        """Full-weight assignment used by the warm-up probe stage."""
        if observed_q < 0:
            raise ValueError("observed delay must be >= 0")
        if self.kind == EWMA:
            self.q_hat[k] = float(observed_q)

    def observe(self, k: int, observed_q: float) -> None:
        """q_hat[k] <- (1 - alpha) q_hat[k] + alpha q (the EWMA kind only)."""
        if observed_q < 0:
            raise ValueError("observed delay must be >= 0")
        if self.kind == EWMA:
            self.q_hat[k] = (1.0 - self.alpha) * self.q_hat[k] + self.alpha * float(observed_q)
