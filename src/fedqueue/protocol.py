"""Queue-aware protocol mechanisms as pure functions.

Server side: per-round step budgets from the current delay
prediction, inverse learning-rate scaling across heterogeneous step budgets,
deadline admission with buffering of late arrivals, and staleness-weighted
delta aggregation.  Client side: local SGD over a step budget, returning a
model delta, for a stack of jobs at once.  Everything here is pure over value
inputs; the engine owns state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np


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


@dataclass(slots=True)
class ClientUpdate:
    """One job, from its dispatch to its aggregation, and once applied the
    log's record of its arrival.  The engine fills in `delta` when the
    update is first needed and clears it once the update is applied, when
    it sets `agg_round` and `tau`."""

    client: int
    submit_round: int
    delta: np.ndarray | None
    q: float                    # the drawn admission delay
    arrival: float              # absolute seconds on the server clock
    steps_done: int
    q_hat: float = float("nan")  # prediction the dispatch was budgeted with
    submit_time: float = float("nan")
    agg_round: int | None = None
    tau: int | None = None

    @property
    def compute_seconds(self) -> float:
        return self.arrival - self.submit_time - self.q

    def ratio(self, t_sync: float) -> float:
        return (self.arrival - self.submit_time) / t_sync


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


# steps of minibatches a stack draws and holds at a time, so that its
# memory stays bounded whatever the budgets
_CHUNK_STEPS = 64


def client_local_update(lanes):
    """Local SGD for a stack of jobs ("lanes"), each a tuple (objective,
    batch size, client k, start model, eta, step budget, rng): lane i runs
    its budget of steps from its start model on the minibatches it draws
    from its own rng through its own objective.  A lane whose objective
    `draws(k)` nothing has rng None and gets None batches.

    Returns (deltas, lane_steps, diverged): the lanes' model deltas in the
    order of `lanes`, the number of lane-steps run, and the indices, in
    ascending order, of the lanes of at least one step that ended on a
    non-finite iterate.  One check per lane suffices: with eta > 0, a
    coordinate that turns non-finite under w -= eta * g stays so.

    Each delta is bit for bit that of the lane's job run alone: a lane
    draws its batches in chunks of steps, and a draw of n steps equals n
    one-step draws.  Lanes run in one stack when their objectives'
    `stack_key`s are equal and their batches have one shape, longest budget
    first; the lanes that draw nothing form stacks of their own, with no
    batch buffer.  The lanes still running at a step are a prefix of the
    stack, bound once per run of steps, and one `stochastic_gradient` call
    of the stack's first objective serves them all.
    """
    if not lanes:
        return [], 0, []
    objectives, sizes, ks, starts, etas, budgets, rngs = zip(*lanes)
    if min(budgets) < 0:
        raise ValueError("step budget must be >= 0")
    if min(etas) <= 0:
        raise ValueError("eta must be > 0")
    # each lane's first chunk of batches shows the shape of its batches
    chunks = [obj.sample_batches(k, min(steps, _CHUNK_STEPS), size, rng)
              for obj, size, k, steps, rng in zip(objectives, sizes, ks, budgets, rngs)]
    stacks = {}
    for i, (obj, chunk) in enumerate(zip(objectives, chunks)):
        shape = None if chunk is None else np.shape(chunk)[1:]
        stacks.setdefault((obj.stack_key, shape), []).append(i)
    deltas, diverged = [None] * len(lanes), []
    # a diverging lane runs on to the check below without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for members in stacks.values():
            members.sort(key=lambda i: -budgets[i])
            objective = objectives[members[0]]
            steps = [budgets[i] for i in members]
            start = np.array([starts[i] for i in members], dtype=float)
            w = start.copy()
            eta = np.array([etas[i] for i in members], dtype=float)[:, None]
            stack_ks = np.array([ks[i] for i in members])
            batches = None
            if chunks[members[0]] is not None:
                first = np.asarray(chunks[members[0]])
                batches = np.empty((_CHUNK_STEPS, len(members)) + first.shape[1:],
                                   first.dtype)
            live = len(members)
            for t0 in range(0, steps[0], _CHUNK_STEPS):
                while steps[live - 1] <= t0:
                    live -= 1
                if batches is not None:
                    for j, i in enumerate(members[:live]):
                        if t0:
                            chunks[i] = objectives[i].sample_batches(
                                ks[i], min(steps[j] - t0, _CHUNK_STEPS), sizes[i],
                                rngs[i])
                        batches[:len(chunks[i]), j] = chunks[i]
                t, t1 = t0, min(t0 + _CHUNK_STEPS, steps[0])
                for n in range(live, 0, -1):
                    # steps t .. end - 1 run the n longest lanes
                    end = min(steps[n - 1], t1)
                    if end <= t:
                        continue
                    bound = objective.bind(stack_ks[:n], w[:n])
                    n_w, n_eta = w[:n], eta[:n]
                    for batch in (repeat(None, end - t) if batches is None
                                  else batches[t - t0:end - t0, :n]):
                        g = objective.stochastic_gradient(bound, batch)
                        g *= n_eta
                        n_w -= g
                    t = end
            finite = np.isfinite(w).all(axis=1)
            if not finite.all():
                diverged += [i for j, i in enumerate(members)
                             if steps[j] and not finite[j]]
            for i, delta in zip(members, w - start):
                deltas[i] = delta
    return deltas, int(sum(budgets)), sorted(diverged)
