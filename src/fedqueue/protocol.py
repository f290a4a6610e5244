"""Queue-aware protocol mechanisms as pure functions.

Server side: per-round step budgets from the current delay
prediction, inverse learning-rate scaling across heterogeneous step budgets,
deadline admission with buffering of late arrivals, and staleness-weighted
delta aggregation.  Client side: local SGD over a step budget, returning a
model delta.  Everything here is pure over value inputs; the engine owns state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import queue_sim

__all__ = [
    "StalenessDecay",
    "ClientUpdate",
    "compute_budget",
    "effective_safety_buffer",
    "scale_learning_rate",
    "staleness_weight",
    "assign_aggregation_round",
    "partition_admissions",
    "aggregate",
    "client_local_update",
]

HARMONIC = "harmonic"
EXPONENTIAL = "exp"


@dataclass(frozen=True)
class StalenessDecay:
    """Weight phi(tau) applied to an update tau rounds stale; phi(0) = 1."""

    mode: str = HARMONIC
    beta: float = 0.5

    def __post_init__(self):
        if self.mode not in (HARMONIC, EXPONENTIAL):
            raise ValueError(f"unknown staleness decay mode: {self.mode!r}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    @classmethod
    def flat(cls) -> "StalenessDecay":
        """phi(tau) = 1 for all tau (the decay-off ablation)."""
        return cls(mode=HARMONIC, beta=0.0)


@dataclass
class ClientUpdate:
    """The message a client returns: (k, submit round, delta, observed q)."""

    client: int
    submit_round: int
    delta: np.ndarray
    observed_q: float
    arrival: float              # absolute seconds on the server clock
    steps_done: int
    q_hat_used: float = float("nan")  # prediction the dispatch was budgeted with
    submit_time: float = float("nan")

    def __post_init__(self):
        if not math.isnan(self.submit_time) and self.arrival < self.submit_time - 1e-9:
            raise ValueError("update cannot arrive before its job was submitted")


def compute_budget(t_sync: float, q_hat: float, delta: float, c_k: float,
                   e_floor: int) -> int:
    """The step budget E = max(E_floor, floor(c_k J)), where the job time is
    J = T_sync - q_hat - delta, clamped at 0.

    A fully queued-out client (q_hat + delta >= T_sync) still receives the
    floor budget so it returns a minimal update instead of vanishing.
    """
    if t_sync <= 0:
        raise ValueError("t_sync must be > 0")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if c_k <= 0:
        raise ValueError("throughput must be > 0")
    j = max(0.0, t_sync - q_hat - delta)
    return max(int(e_floor), int(math.floor(c_k * j)))


def effective_safety_buffer(delta: float, gamma: float) -> float:
    """Planning slack actually used when budgeting a round.

    At the calibrated default gamma = 0.2 this is exactly `delta`.
    Sweeping gamma above the default stiffens the buffer proportionally,
    trading local progress for earlier arrivals.
    """
    return delta * (1.0 + 0.5 * max(0.0, gamma - 0.2))


def scale_learning_rate(eta_base: float, e_min: int, e_k: int) -> float:
    """Inverse scaling eta_base * E_min / E_k, equalizing first-order
    local displacement across heterogeneous step budgets."""
    if eta_base <= 0:
        raise ValueError("eta_base must be > 0")
    if e_min < 1 or e_k < e_min:
        raise ValueError("need E_k >= E_min >= 1")
    return eta_base * e_min / e_k


def staleness_weight(decay: StalenessDecay, tau: int) -> float:
    """Harmonic: 1/(1 + beta tau).  Exponential: exp(-beta tau)."""
    if tau < 0:
        raise ValueError("staleness must be >= 0")
    if decay.mode == HARMONIC:
        return 1.0 / (1.0 + decay.beta * tau)
    return math.exp(-decay.beta * tau)


def assign_aggregation_round(submit_round: int, arrival: float,
                             t_sync: float) -> tuple[int, int]:
    """First round whose cutoff the arrival meets, and the staleness.

    r = min{ j >= s : arrival <= (j+1) T_sync }; the closed form
    max(s, ceil(arrival / T_sync) - 1) is corrected by direct cutoff
    comparisons so the result matches the defining inequality bit for bit,
    including arrivals exactly on a cutoff (admitted to that round).
    """
    if arrival < submit_round * t_sync - 1e-9:
        raise ValueError("arrival precedes the submitting round")
    r = max(submit_round, math.ceil(arrival / t_sync) - 1)
    while r > submit_round and arrival <= r * t_sync:
        r -= 1
    while arrival > (r + 1) * t_sync:
        r += 1
    return r, r - submit_round


def partition_admissions(buffer, cutoff: float):
    """Split pending updates into (admitted: arrival <= cutoff, remaining)."""
    admitted = [m for m in buffer if m.arrival <= cutoff]
    remaining = [m for m in buffer if m.arrival > cutoff]
    return admitted, remaining


def aggregate(w: np.ndarray, admitted, decay: StalenessDecay) -> np.ndarray:
    """w + (1/S) sum_k p_k phi(tau_k) delta_k with S = sum_k p_k phi(tau_k).

    `admitted` is a nonempty sequence of (p_k, tau_k, delta_k) triples.
    """
    if not admitted:
        raise ValueError("aggregate requires a nonempty admitted set")
    s = 0.0
    total = np.zeros_like(w)
    for p_k, tau, delta in admitted:
        if delta.shape != w.shape:
            raise ValueError("update dimension does not match the global model")
        coef = p_k * staleness_weight(decay, tau)
        s += coef
        total = total + coef * delta
    return w + total / s


def client_local_update(objective, k: int, w_start: np.ndarray, eta: float,
                        step_budget: int, profile: queue_sim.ComputeProfile,
                        batch_size: int, rng: np.random.Generator):
    """Run `step_budget` local SGD steps; the compute model prices them.

    Returns (delta, steps_done, elapsed_seconds).  Raises FloatingPointError
    when a job of at least one step ends on a non-finite iterate, so the
    engine can mark the run failed.  One check per job suffices: with
    eta > 0, a coordinate that turns non-finite under w -= eta * g stays so.
    """
    if step_budget < 0:
        raise ValueError("step budget must be >= 0")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    steps = int(step_budget)
    w = w_start.copy()
    # a diverging job runs on to the check below without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in objective.sample_batches(k, steps, batch_size, rng):
            w -= eta * objective.stochastic_gradient(k, w, batch)
    if steps and not np.all(np.isfinite(w)):
        raise FloatingPointError(f"non-finite iterate on client {k}")
    elapsed = queue_sim.compute_time(profile, k, steps)
    return w - w_start, steps, elapsed
