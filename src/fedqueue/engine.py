"""Deterministic discrete-event loop and the queue-aware orchestrator.

The server wall clock advances through a heap of timed events: job starts,
update arrivals, and (for round-based methods) boundaries at exactly
r * T_sync.  Ties are processed arrivals-first so an update landing exactly
on a cutoff is admitted to that cutoff's round, then boundaries, in client
order.  All randomness flows through per-(client, submission) substreams, so
a given seed produces the same admission delays for every algorithm and a
rerun reproduces the log bit for bit.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import learn, metrics, protocol, queue_sim
from .config import ExperimentConfig, set_key, validate_config
from .predictor import DelayPredictor
from .streams import spawn_seed, substream

__all__ = ["Simulation", "FedQueueOrchestrator", "InvariantError",
           "run_experiment", "run_sweep"]

# event ranks: arrivals strictly before round boundaries at equal times
RANK_JOB_START = 0
RANK_ARRIVAL = 1
RANK_ROUND = 2

_TIME_EPS = 1e-9


class InvariantError(RuntimeError):
    """A simulator invariant failed; checked also under ``python -O``."""

    def __init__(self, what: str, time: float, client: int | None,
                 round: int | None):
        super().__init__(f"{what} (t={time}, client={client}, round={round})")
        self.time, self.client, self.round = time, client, round


@dataclass
class SimEvent:
    time: float
    kind: str            # "job_start" | "arrival" | "round"
    payload: object      # client index, ClientUpdate, or round index


class Simulation:
    """Clock, event heap, and shared dispatch machinery for one experiment."""

    def __init__(self, cfg: ExperimentConfig, objective, queue_model,
                 profile, log: metrics.MetricsLog):
        self.cfg = cfg
        self.objective = objective
        self.queue_model = queue_model
        self.profile = profile
        self.log = log
        self.seed = cfg.protocol.seed
        self.num_clients = cfg.protocol.num_clients
        self.t_sync = cfg.fedqueue.t_sync
        self.horizon = cfg.protocol.num_rounds * cfg.fedqueue.t_sync
        self.now = 0.0
        self.version = 0                      # server model versions applied
        self._heap = []
        self._seq = 0
        self._submissions = np.zeros(self.num_clients, dtype=int)

    # ---- scheduling ------------------------------------------------------
    def schedule(self, time: float, rank: int, key: int, event: SimEvent) -> None:
        if time < self.now - _TIME_EPS:
            raise RuntimeError(f"event scheduled in the past: {time} < {self.now}")
        heapq.heappush(self._heap, (time, rank, key, self._seq, event))
        self._seq += 1

    def schedule_round_boundaries(self, num_rounds: int) -> None:
        # boundary r closes round r-1; times are r * T_sync exactly, never summed
        for r in range(1, num_rounds + 1):
            self.schedule(r * self.t_sync, RANK_ROUND, r,
                          SimEvent(r * self.t_sync, "round", r))

    # ---- client jobs -----------------------------------------------------
    def effective_rate(self, k: int) -> float:
        return float(self.profile.throughput[k]) / float(self.profile.slowdown[k])

    def submit_job(self, k: int, w: np.ndarray, submit_round: int, eta: float,
                   step_budget: int,
                   q_hat_used: float = float("nan")) -> protocol.ClientUpdate:
        """Broadcast + job submission: draws the admission delay, runs the
        local update, and schedules start/arrival events."""
        j = int(self._submissions[k])
        self._submissions[k] += 1
        q = queue_sim.sample_queue_delay(self.queue_model, k,
                                         substream(self.seed, "queue", k, j))
        sgd_rng = substream(self.seed, "sgd", k, j)
        delta, steps_done, elapsed = protocol.client_local_update(
            self.objective, k, w, eta, step_budget, self.profile,
            self.cfg.protocol.batch_size, sgd_rng)
        arrival = self.now + q + elapsed
        msg = protocol.ClientUpdate(
            client=k, submit_round=submit_round, delta=delta, observed_q=q,
            arrival=arrival, steps_done=steps_done, q_hat_used=q_hat_used,
            submit_time=self.now, version=self.version)
        self.schedule(self.now + q, RANK_JOB_START, k,
                      SimEvent(self.now + q, "job_start", k))
        self.schedule(arrival, RANK_ARRIVAL, k, SimEvent(arrival, "arrival", msg))
        self.log.total_local_steps += steps_done
        self.log.dispatches.append(metrics.DispatchRecord(
            time=self.now, client=k, round=submit_round,
            steps_budget=step_budget, eta=eta))
        self.log.event(self.now, "dispatch", client=k, round=submit_round,
                       steps=step_budget, eta=eta, q_hat=q_hat_used)
        return msg

    def evaluate(self, w: np.ndarray) -> tuple[float, float | None]:
        loss, acc = self.objective.evaluate(w, "test")
        self.log.evals.append((self.now, loss, acc))
        self.log.event(self.now, "eval", loss=loss, accuracy=acc)
        return loss, acc

    # ---- main loop -------------------------------------------------------
    def run(self, orchestrator) -> None:
        orchestrator.start()
        while self._heap:
            time, rank, key, _, event = heapq.heappop(self._heap)
            if time > self.horizon + _TIME_EPS:
                break
            if time < self.now - _TIME_EPS:
                client, r = (None, key) if event.kind == "round" else (key, None)
                raise InvariantError(f"{event.kind} event precedes the clock "
                                     f"{self.now}", time, client, r)
            self.now = time
            if event.kind == "job_start":
                self.log.event(time, "job_start", client=event.payload)
            elif event.kind == "arrival":
                msg = event.payload
                # causality: arrival = submit + queue wait + compute, exactly
                if msg.arrival < msg.submit_time - _TIME_EPS:
                    raise InvariantError(
                        f"arrival precedes its submission at {msg.submit_time}",
                        time, msg.client, msg.submit_round)
                self.log.event(time, "arrival", client=msg.client,
                               round=msg.submit_round, q=msg.observed_q,
                               steps=msg.steps_done)
                orchestrator.on_arrival(msg)
            else:
                orchestrator.on_round_boundary(event.payload)
        orchestrator.finish()


class FedQueueOrchestrator:
    """Queue-aware server: budgets from online delay predictions, deadline
    admission with buffering, staleness-weighted aggregation."""

    name = "fedqueue"

    def __init__(self, sim: Simulation):
        self.sim = sim
        cfg = sim.cfg
        self.cfg = cfg
        fq = cfg.fedqueue
        self.w = sim.objective.init_point()
        if cfg.ablation.use_staleness_decay:
            self.decay = protocol.StalenessDecay(fq.staleness_mode, fq.staleness_beta)
        else:
            self.decay = protocol.StalenessDecay.flat()
        if cfg.ablation.use_ewma:
            self.predictor = DelayPredictor.ewma(sim.num_clients, fq.alpha, fq.q_init)
        else:
            static = (fq.queue_means if fq.sim_queue == "lognormal"
                      else fq.queue_fixed)
            self.predictor = DelayPredictor.static(static)
        self.delta_eff = protocol.effective_safety_buffer(fq.delta, fq.gamma)
        self.buffer: list[protocol.ClientUpdate] = []
        self.pool = set(range(sim.num_clients))
        self.e_min_ref: int | None = None
        self._round_cols = {}     # submit round -> client -> dispatch columns
        self._last_eval = (float("nan"), None)

    # ---- lifecycle -------------------------------------------------------
    def start(self) -> None:
        sim, cfg = self.sim, self.cfg
        if cfg.fedqueue.warmup_steps > 0 and cfg.ablation.use_ewma:
            # pure delay probes before round 0: seed predictions, no aggregation
            for k in range(sim.num_clients):
                q = queue_sim.sample_queue_delay(
                    sim.queue_model, k, substream(sim.seed, "warmup", k))
                self.predictor.seed(k, q)
                sim.log.total_local_steps += cfg.fedqueue.warmup_steps
                sim.log.event(0.0, "warmup_probe", client=k, q=q)
        self._last_eval = sim.evaluate(self.w)
        sim.schedule_round_boundaries(cfg.protocol.num_rounds)
        self.dispatch_round(0)

    def _budget(self, k: int) -> tuple[float, protocol.RoundBudget]:
        fq = self.cfg.fedqueue
        q_hat = self.predictor.predict(k)
        return q_hat, protocol.compute_budget(
            fq.t_sync, q_hat, self.delta_eff, self.sim.effective_rate(k), fq.e_floor)

    def _submit(self, k: int, r: int, q_hat: float,
                budget: protocol.RoundBudget) -> None:
        sim, fq = self.sim, self.cfg.fedqueue
        if budget.steps == 0:
            self.pool.add(k)      # nothing dispatchable this round
            return
        if self.cfg.ablation.use_inverse_lr:
            # E_min of the last cohort; dispatch_round sets it <= every E_k
            e_ref = min(self.e_min_ref or budget.steps, budget.steps)
            eta = protocol.scale_learning_rate(fq.lr_base, e_ref, budget.steps)
        else:
            eta = fq.lr_base
        # the floor may exceed what fits in J; the job runs it anyway
        msg = sim.submit_job(k, self.w, r, eta, budget.steps, q_hat_used=q_hat)
        self._round_cols.setdefault(r, {})[k] = {
            "q": msg.observed_q, "q_hat": q_hat, "steps_budget": budget.steps,
            "eta": eta, "steps_done": msg.steps_done}

    def dispatch_round(self, r: int) -> None:
        cohort = sorted(self.pool)
        self.pool = set()
        budgets = {k: self._budget(k) for k in cohort}
        live = [b.steps for _, b in budgets.values() if b.steps > 0]
        if not live:
            self.pool.update(cohort)
            return
        self.e_min_ref = min(live)
        for k in cohort:
            self._submit(k, r, *budgets[k])

    def on_arrival(self, msg: protocol.ClientUpdate) -> None:
        sim, fq = self.sim, self.cfg.fedqueue
        # delay observations carry information even when the update buffers
        self.predictor.observe(msg.client, msg.observed_q)
        self.buffer.append(msg)
        if fq.broadcast_when == "immediate" and sim.now < sim.horizon - _TIME_EPS:
            s = min(int(math.floor(sim.now / fq.t_sync + _TIME_EPS)),
                    self.cfg.protocol.num_rounds - 1)
            self._submit(msg.client, s, *self._budget(msg.client))

    def on_round_boundary(self, boundary: int) -> None:
        sim, fq = self.sim, self.cfg.fedqueue
        cutoff = boundary * fq.t_sync
        closing = boundary - 1
        admitted, self.buffer = protocol.partition_admissions(self.buffer, cutoff)
        taus = []
        if admitted:
            entries = []
            for m in admitted:
                r_formula, tau_formula = protocol.assign_aggregation_round(
                    m.submit_round, m.arrival, fq.t_sync)
                tau = closing - m.submit_round
                if tau != tau_formula or r_formula != closing:
                    raise InvariantError(
                        f"admission to round {closing} (tau {tau}) disagrees "
                        f"with the buffering rule ({r_formula}, tau {tau_formula})",
                        cutoff, m.client, m.submit_round)
                taus.append(tau)
                entries.append((float(sim.objective.weights[m.client]), tau, m.delta))
                sim.log.arrivals.append(metrics.ArrivalRecord.of(m, closing, tau))
                if tau >= 1:      # its submit round is closed and recorded
                    sim.log.rounds[m.submit_round].deferred += 1
            self.w = protocol.aggregate(self.w, entries, self.decay)
            sim.version += 1
            self._last_eval = sim.evaluate(self.w)
            sim.log.event(cutoff, "aggregate", round=closing,
                          clients=[m.client for m in admitted], taus=taus)
            if fq.broadcast_when == "next_round":
                self.pool.update(m.client for m in admitted)
        else:
            sim.log.skipped_rounds += 1
            sim.log.event(cutoff, "skipped_round", round=closing)
        sim.log.rounds.append(metrics.RoundRecord.of(
            closing, cutoff, self._last_eval, taus,
            self._round_cols.pop(closing, {}), sim.num_clients, deferred=0))
        if boundary < self.cfg.protocol.num_rounds:
            self.dispatch_round(boundary)

    def finish(self) -> None:
        self.sim.log.final_model = self.w.copy()


def _build_queue_model(cfg: ExperimentConfig) -> queue_sim.QueueModel:
    fq = cfg.fedqueue
    return queue_sim.QueueModel(
        kind=fq.sim_queue,
        fixed_delays=np.asarray(fq.queue_fixed, dtype=float),
        means=np.asarray(fq.queue_means, dtype=float),
        rho=fq.queue_rho,
        mean_mode=fq.queue_mean_mode)


def _build_profile(cfg: ExperimentConfig) -> queue_sim.ComputeProfile:
    fq = cfg.fedqueue
    return queue_sim.ComputeProfile(
        throughput=np.asarray(fq.throughput, dtype=float),
        slowdown=np.asarray(fq.slowdown, dtype=float))


def run_experiment(cfg: ExperimentConfig) -> metrics.MetricsLog:
    """Warm-up plus the configured horizon under the configured orchestrator.

    Identical config and seed give a bit-identical log.  Numerical divergence
    marks the log failed instead of raising.
    """
    from .baselines import ORCHESTRATORS  # late import; baselines build on engine

    validate_config(cfg)
    algo = cfg.protocol.algo
    objective = learn.build_objective(cfg, substream(cfg.protocol.seed, "data"))
    log = metrics.MetricsLog(
        algo=algo, seed=cfg.protocol.seed, num_clients=cfg.protocol.num_clients,
        t_sync=cfg.fedqueue.t_sync,
        horizon=cfg.protocol.num_rounds * cfg.fedqueue.t_sync,
        config=cfg.flat())
    sim = Simulation(cfg, objective, _build_queue_model(cfg),
                     _build_profile(cfg), log)
    if algo == "fedqueue":
        orchestrator = FedQueueOrchestrator(sim)
    else:
        orchestrator = ORCHESTRATORS[algo](sim)
    try:
        sim.run(orchestrator)
    except FloatingPointError as exc:
        log.failed = True
        log.failure_reason = str(exc)
        orchestrator.finish()
    return log


def run_sweep(cfg: ExperimentConfig, axis: str, values, trials: int = 1,
              jobs: int = 1):
    """Grid of independent experiments over one config axis.

    Per-experiment seeds derive from (master seed, value index, trial index),
    so results do not depend on execution order and each grid point can be
    reproduced standalone by running its config directly.
    """
    from .config import resolve_axis

    resolve_axis(axis)  # fail fast on unknown keys
    master = cfg.protocol.seed
    runs = []
    for vi, value in enumerate(values):
        for ti in range(trials):
            point = cfg.copy()
            set_key(point, axis, value)
            point.protocol.seed = spawn_seed(master, vi, ti)
            runs.append((vi, value, ti, point))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            logs = list(pool.map(run_experiment, [p for *_, p in runs]))
    else:
        logs = [run_experiment(p) for *_, p in runs]
    return [{"value": value, "trial": ti, "seed": point.protocol.seed, "log": log}
            for (vi, value, ti, point), log in zip(runs, logs)]
