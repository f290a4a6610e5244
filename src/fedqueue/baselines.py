"""Comparison orchestrators run under identical queue and compute conditions.

* fedavg      -- synchronous rounds with fixed per-client local work; each
                 round blocks for all K updates, so its wall length is
                 max_k(queue wait + compute).
* fedasync    -- every arrival is applied immediately by interpolating the
                 server model toward the client's returned model with a
                 staleness-attenuated mixing weight, then the client is
                 re-dispatched.
* fedbuff     -- arrivals accumulate until the buffer holds K_buf updates,
                 then the buffer is aggregated with staleness weights.
* fedcompass  -- static throughput profiling: per-client step counts are
                 chosen so predicted finish times align within a stretch
                 factor of the fastest client's full-budget run; queue delay
                 is not modeled in the prediction.

Staleness for the asynchronous pair is measured in server model versions
between dispatch and application.  All methods draw the same per-(client,
submission-index) delay substreams as the queue-aware protocol.
"""
from __future__ import annotations

import numpy as np

from . import protocol
from .engine import FedQueueOrchestrator, Orchestrator, Simulation

__all__ = ["ORCHESTRATORS", "staleness_factor", "compass_assignments"]


def staleness_factor(fn: str, kwargs: dict, tau: int) -> float:
    """Server mixing attenuation s(tau) for the async family."""
    if tau < 0:
        raise ValueError("staleness must be >= 0")
    if fn == "constant":
        return 1.0
    if fn == "polynomial":
        a = float(kwargs.get("a", 1.0))
        return (1.0 + tau) ** (-a)
    if fn == "hinge":
        a = float(kwargs.get("a", 10.0))
        b = float(kwargs.get("b", 4.0))
        return 1.0 if tau <= b else 1.0 / (a * (tau - b) + 1.0)
    raise ValueError(f"unknown staleness_fn: {fn!r}")


def compass_assignments(speeds: np.ndarray, min_steps: int, max_steps: int,
                        latest_time_factor: float) -> np.ndarray:
    """Steps per client so predicted finishes align on a common duration.

    The window is anchored at the fastest client's full budget, stretched by
    latest_time_factor; assignments are clipped to [min_steps, max_steps].
    """
    speeds = np.asarray(speeds, dtype=float)
    duration = latest_time_factor * max_steps / float(speeds.max())
    steps = np.floor(speeds * duration).astype(int)
    return np.clip(steps, min_steps, max_steps)


class _BaselineBase(Orchestrator):
    """Shared dispatch; subclasses set the step count through `_steps`.
    Each aggregation makes one model version, so a job's round is the
    version it starts from, and its staleness at the server is
    `sim.version - msg.submit_round`."""

    def start(self) -> None:
        self.sim.evaluate(self.w)
        self._dispatch_all()

    def on_round_boundary(self, boundary: int) -> None:  # no fixed cadence
        pass

    def _steps(self, k: int) -> int:
        """Local steps for client k's next job; the async pair's fixed count."""
        return self.cfg.fedasync.num_local_steps

    def _dispatch(self, k: int) -> None:
        self.sim.submit_job(k, self.w, self.sim.version, self.cfg.fedqueue.lr_base,
                            self._steps(k))

    def _dispatch_all(self) -> None:
        for k in range(self.sim.num_clients):
            self._dispatch(k)


class _CohortBase(_BaselineBase):
    """Collect-all-K rounds: every client trains from the same model, and
    the server averages once all K updates are in, then re-dispatches all."""

    def __init__(self, sim: Simulation):
        super().__init__(sim)
        self.collected = {}

    def _observe(self, msg: protocol.ClientUpdate) -> None:
        """Hook run on each arrival before it joins the cohort."""

    def on_arrival(self, msg: protocol.ClientUpdate) -> None:
        self._observe(msg)
        self.collected[msg.client] = msg
        if len(self.collected) < self.sim.num_clients:
            return
        batch = [self.collected[k] for k in sorted(self.collected)]
        self.collected = {}
        weights = self.sim.objective.weights
        entries = [(float(weights[m.client]), 0, m.delta) for m in batch]
        self.w = protocol.aggregate(self.w, entries, protocol.StalenessDecay.flat())
        self.sim.aggregated(self.w, self.sim.version, batch, [0] * len(batch))
        if self._can_dispatch():
            self._dispatch_all()


class FedAvgOrchestrator(_CohortBase):
    def _steps(self, k: int) -> int:
        return int(self.cfg.fedavg.num_local_steps[k])


class FedAsyncOrchestrator(_BaselineBase):
    """Per-arrival interpolation toward the client's returned model:

        w <- (1 - a) w + a (w_dispatched_to_k + delta_k),  a = alpha * s(tau).

    A stale arrival therefore also drags the server part-way back toward the
    model the straggler started from, which is what destabilizes fully
    asynchronous aggregation under queue spikes.
    """

    def __init__(self, sim: Simulation):
        super().__init__(sim)
        self.dispatched_from = {}     # client -> model it was dispatched with

    def _dispatch(self, k: int) -> None:
        self.dispatched_from[k] = self.w.copy()
        super()._dispatch(k)

    def on_arrival(self, msg: protocol.ClientUpdate) -> None:
        az = self.cfg.fedasync
        tau = self.sim.version - msg.submit_round
        s = staleness_factor(az.staleness_fn, az.staleness_fn_kwargs, tau)
        a = az.alpha * s
        w_client = self.dispatched_from[msg.client] + msg.delta
        self.w = (1.0 - a) * self.w + a * w_client
        self.sim.aggregated(self.w, self.sim.version, [msg], [tau])
        if self._can_dispatch():
            self._dispatch(msg.client)


class FedBuffOrchestrator(_BaselineBase):
    def __init__(self, sim: Simulation):
        super().__init__(sim)
        self.pending: list[protocol.ClientUpdate] = []

    def on_arrival(self, msg: protocol.ClientUpdate) -> None:
        self.pending.append(msg)
        if len(self.pending) == self.cfg.fedbuff.k:
            flushed, self.pending = self.pending, []
            az = self.cfg.fedasync
            taus = [self.sim.version - m.submit_round for m in flushed]
            mixed = np.zeros_like(self.w)
            for m, tau in zip(flushed, taus):
                s = staleness_factor(az.staleness_fn, az.staleness_fn_kwargs, tau)
                mixed += s * m.delta
            self.w = self.w + az.alpha * mixed / len(flushed)
            self.sim.aggregated(self.w, self.sim.version, flushed, taus)
        if self._can_dispatch():
            self._dispatch(msg.client)


class FedCompassOrchestrator(_CohortBase):
    """Throughput-profiling cohort scheduler (no queue-delay modeling)."""

    def __init__(self, sim: Simulation):
        super().__init__(sim)
        # profiled speeds in wall steps/second; refined by momentum EWMA
        self.speeds = np.array([sim.effective_rate(k)
                                for k in range(sim.num_clients)])
        self.assigned = None          # per-client steps of the current cohort

    def _observe(self, msg: protocol.ClientUpdate) -> None:
        elapsed = msg.arrival - msg.submit_time - msg.observed_q
        if msg.steps_done > 0 and elapsed > 0:
            m = self.cfg.compass.speed_momentum
            self.speeds[msg.client] = (m * self.speeds[msg.client]
                                       + (1.0 - m) * msg.steps_done / elapsed)

    def _dispatch_all(self) -> None:
        cp = self.cfg.compass
        self.assigned = compass_assignments(self.speeds, cp.min_local_steps,
                                            cp.max_local_steps, cp.latest_time_factor)
        super()._dispatch_all()

    def _steps(self, k: int) -> int:
        return int(self.assigned[k])


ORCHESTRATORS = {
    "fedqueue": FedQueueOrchestrator,
    "fedavg": FedAvgOrchestrator,
    "fedasync": FedAsyncOrchestrator,
    "fedbuff": FedBuffOrchestrator,
    "fedcompass": FedCompassOrchestrator,
}
