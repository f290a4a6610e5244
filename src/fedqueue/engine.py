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

import ctypes
import heapq
import math
import os

import numpy as np

from . import learn, metrics, protocol, queue_sim
from .config import ExperimentConfig, resolve_axis, set_key, validate_config
from .predictor import DelayPredictor
from .streams import spawn_seed, substream

__all__ = ["Simulation", "Orchestrator", "FedQueueOrchestrator",
           "InvariantError", "run_experiment", "run_many", "run_sweep"]

# event ranks: arrivals strictly before round boundaries at equal times.  A
# heap entry's rank names its kind; its key is the client (job start,
# arrival) or the boundary index (round), and its payload the submit round
# (job start), the ClientUpdate (arrival) or the boundary index (round).
RANK_JOB_START = 0
RANK_ARRIVAL = 1
RANK_ROUND = 2
_KINDS = ("job_start", "arrival", "round")

_TIME_EPS = 1e-9

# A run fails as stalled once more than this many events per client fall in
# one round-length window [w T_sync, (w+1) T_sync) of virtual time, which
# caps a run at that many times K (R + 1) events.  A clock that stops or
# creeps (zero delays, near-zero compute times) would never reach its
# horizon.  The densest window of the benchmark's pinned runs and the test
# suite's runs held 5.25 events per client (fedasync, controlled config).
_STALL_EVENTS_PER_CLIENT_ROUND = 1000


class InvariantError(RuntimeError):
    """A simulator invariant failed; checked also under ``python -O``."""

    def __init__(self, what: str, time: float, client: int | None,
                 round: int | None):
        super().__init__(f"{what} (t={time}, client={client}, round={round})")
        self.what, self.time, self.client, self.round = what, time, client, round

    def __reduce__(self):
        # raised in a pool worker, it is rebuilt whole in the parent
        return type(self), (self.what, self.time, self.client, self.round)


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
    def schedule(self, time: float, rank: int, key: int, payload) -> None:
        # causality: no event precedes the clock, so no job starts or
        # arrives before its submission, and the heap pops in time order
        if time < self.now - _TIME_EPS:
            if rank == RANK_ROUND:
                client, r = None, key
            else:
                client = key
                r = payload.submit_round if rank == RANK_ARRIVAL else payload
            raise InvariantError(f"{_KINDS[rank]} event scheduled before the "
                                 f"clock {self.now}", time, client, r)
        heapq.heappush(self._heap, (time, rank, key, self._seq, payload))
        self._seq += 1

    def schedule_round_boundaries(self, num_rounds: int) -> None:
        # boundary r closes round r-1; times are r * T_sync exactly, never summed
        for r in range(1, num_rounds + 1):
            self.schedule(r * self.t_sync, RANK_ROUND, r, r)

    # ---- client jobs -----------------------------------------------------
    def effective_rate(self, k: int) -> float:
        return float(self.profile.throughput[k]) / float(self.profile.slowdown[k])

    def submit_job(self, k: int, w: np.ndarray, submit_round: int, eta: float,
                   step_budget: int,
                   q_hat_used: float = float("nan")) -> None:
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
            submit_time=self.now)
        self.schedule(self.now + q, RANK_JOB_START, k, submit_round)
        self.schedule(arrival, RANK_ARRIVAL, k, msg)
        self.log.total_local_steps += steps_done
        # the drawn delay rides along: fedqueue's round rows show it for
        # jobs still in flight at the horizon
        self.log.event(self.now, "dispatch", data=q, client=k,
                       round=submit_round, steps=step_budget, eta=eta,
                       q_hat=q_hat_used)

    def evaluate(self, w: np.ndarray) -> None:
        # a diverging model can be finite while its loss overflows: the loss
        # reads inf, and the next job's finiteness check fails the run
        with np.errstate(over="ignore", invalid="ignore"):
            loss, acc = self.objective.evaluate(w)
        self.log.event(self.now, "eval", loss=loss, accuracy=acc)

    def aggregated(self, w: np.ndarray, round: int, updates, taus) -> None:
        """A new global model `w`: count the version, evaluate it, and log
        the aggregate with the arrival records of the updates it applied."""
        self.version += 1
        self.evaluate(w)
        self.log.event(
            self.now, "aggregate",
            data=[metrics.ArrivalRecord.of(m, round, tau)
                  for m, tau in zip(updates, taus)],
            round=round, clients=[m.client for m in updates], taus=list(taus))

    # ---- main loop -------------------------------------------------------
    def run(self, orchestrator) -> None:
        """Process events up to the horizon; a run whose clock stops or
        crawls is marked failed as stalled."""
        orchestrator.start()
        stall_limit = _STALL_EVENTS_PER_CLIENT_ROUND * self.num_clients
        t_sync, window, count = self.t_sync, 0.0, 0
        while self._heap:
            time, rank, key, _, payload = heapq.heappop(self._heap)
            if time > self.horizon + _TIME_EPS:
                break
            if time // t_sync != window:
                window, count = time // t_sync, 0
            count += 1
            if count > stall_limit:
                self.log.failed = True
                self.log.failure_reason = (
                    f"stalled: {count} events in the round window "
                    f"[{window * t_sync}, {(window + 1) * t_sync}) s "
                    f"of virtual time, the clock at t={time}")
                break
            self.now = time
            if rank == RANK_JOB_START:
                self.log.event(time, "job_start", client=key)
            elif rank == RANK_ARRIVAL:
                msg = payload
                self.log.event(time, "arrival", client=msg.client,
                               round=msg.submit_round, q=msg.observed_q,
                               steps=msg.steps_done)
                orchestrator.on_arrival(msg)
            else:
                orchestrator.on_round_boundary(payload)
        orchestrator.finish()


class Orchestrator:
    """Server side of one algorithm: the global model `w` and the hooks
    `Simulation.run` calls (`start`, `on_arrival(msg)`,
    `on_round_boundary(boundary)`, `finish`)."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.cfg = sim.cfg
        self.w = sim.objective.init_point()

    def finish(self) -> None:
        self.sim.log.final_model = self.w.copy()

    def _can_dispatch(self) -> bool:
        return self.sim.now < self.sim.horizon - _TIME_EPS


class FedQueueOrchestrator(Orchestrator):
    """Queue-aware server: budgets from online delay predictions, deadline
    admission with buffering, staleness-weighted aggregation."""

    def __init__(self, sim: Simulation):
        super().__init__(sim)
        cfg = self.cfg
        fq = cfg.fedqueue
        if cfg.ablation.use_staleness_decay:
            self.decay = protocol.StalenessDecay(fq.staleness_mode, fq.staleness_beta)
        else:
            self.decay = protocol.StalenessDecay.flat()
        if cfg.ablation.use_ewma:
            self.predictor = DelayPredictor(np.full(sim.num_clients, fq.q_init), fq.alpha)
        else:
            # the static ablation: the configured delays, never updated
            static = (fq.queue_means if fq.sim_queue == "lognormal"
                      else fq.queue_fixed)
            self.predictor = DelayPredictor(static, 0.0)
        self.delta_eff = protocol.effective_safety_buffer(fq.delta, fq.gamma)
        self.buffer: list[protocol.ClientUpdate] = []
        self.pool = set(range(sim.num_clients))
        self.e_min_ref: int | None = None

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
        sim.evaluate(self.w)
        sim.schedule_round_boundaries(cfg.protocol.num_rounds)
        self.dispatch_round(0)

    def _budget(self, k: int) -> tuple[float, int]:
        """(q_hat, E) for client k's next job."""
        fq = self.cfg.fedqueue
        q_hat = self.predictor.predict(k)
        return q_hat, protocol.compute_budget(
            fq.t_sync, q_hat, self.delta_eff, self.sim.effective_rate(k), fq.e_floor)

    def _submit(self, k: int, r: int, q_hat: float, steps: int) -> None:
        fq = self.cfg.fedqueue
        if steps == 0:
            self.pool.add(k)      # nothing dispatchable this round
            return
        if self.cfg.ablation.use_inverse_lr:
            # E_min of the last cohort; dispatch_round sets it <= every E_k
            e_ref = min(self.e_min_ref or steps, steps)
            eta = protocol.scale_learning_rate(fq.lr_base, e_ref, steps)
        else:
            eta = fq.lr_base
        # the floor may exceed what fits in J; the job runs it anyway
        self.sim.submit_job(k, self.w, r, eta, steps, q_hat_used=q_hat)

    def dispatch_round(self, r: int) -> None:
        cohort = sorted(self.pool)
        self.pool = set()
        budgets = {k: self._budget(k) for k in cohort}
        live = [steps for _, steps in budgets.values() if steps > 0]
        if not live:
            self.pool.update(cohort)
            return
        self.e_min_ref = min(live)
        for k in cohort:
            self._submit(k, r, *budgets[k])

    def on_arrival(self, msg: protocol.ClientUpdate) -> None:
        sim, fq = self.sim, self.cfg.fedqueue
        # an observed delay is information even when the update buffers
        self.predictor.observe(msg.client, msg.observed_q)
        self.buffer.append(msg)
        if fq.broadcast_when == "immediate" and self._can_dispatch():
            s = min(int(math.floor(sim.now / fq.t_sync + _TIME_EPS)),
                    self.cfg.protocol.num_rounds - 1)
            self._submit(msg.client, s, *self._budget(msg.client))

    def on_round_boundary(self, boundary: int) -> None:
        sim, fq = self.sim, self.cfg.fedqueue
        cutoff = boundary * fq.t_sync
        closing = boundary - 1
        admitted, self.buffer = protocol.partition_admissions(self.buffer, cutoff)
        if admitted:
            entries, taus = [], []
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
            self.w = protocol.aggregate(self.w, entries, self.decay)
            sim.aggregated(self.w, closing, admitted, taus)
            if fq.broadcast_when == "next_round":
                self.pool.update(m.client for m in admitted)
        else:
            sim.log.event(cutoff, "skipped_round", round=closing)
        if boundary < self.cfg.protocol.num_rounds:
            self.dispatch_round(boundary)


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
    orchestrator = ORCHESTRATORS[algo](sim)
    try:
        sim.run(orchestrator)
    except FloatingPointError as exc:
        log.failed = True
        log.failure_reason = str(exc)
        orchestrator.finish()
    return log


def _openblas_threads():
    """(set, get) of the thread count of the OpenBLAS this process loaded,
    or None when it loaded none.

    The library is found among the process's mapped files, as threadpoolctl
    does.  numpy's wheels bundle scipy-openblas, whose symbols carry a
    prefix and, in its 64-bit-integer build, a suffix; distribution builds
    export the bare names.
    """
    try:
        with open("/proc/self/maps") as fh:
            mapped = [line.split(maxsplit=5)[5:] for line in fh]
    except OSError:
        return None
    paths = dict.fromkeys(f[0].strip() for f in mapped
                          if f and "openblas" in os.path.basename(f[0]).lower())
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:     # e.g. a mapping whose file was since deleted
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "")):
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def _one_blas_thread() -> None:
    """Pool initializer: cap this worker's OpenBLAS at one thread.  The
    workers already fill the cores, and by default each worker's OpenBLAS
    starts a thread per core, which oversubscribes them; one run's matrices
    are too small for BLAS threads to pay."""
    control = _openblas_threads()
    if control is not None:
        control[0](1)


def run_many(cfgs, jobs: int = 1) -> list[metrics.MetricsLog]:
    """Run independent experiments; the logs come back in the order of
    `cfgs`, each bit-identical to `run_experiment` of its config.

    With `jobs` > 1 the runs are spread over min(jobs, len(cfgs)) worker
    processes forked from this one, each with one OpenBLAS thread; this
    process's own threads are left as they are.  Every worker has exited
    when this returns.
    """
    cfgs = list(cfgs)
    workers = min(jobs, len(cfgs))
    if workers <= 1:
        return [run_experiment(cfg) for cfg in cfgs]
    # imported here: only a pool needs them, and every run pays for imports
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: a spawn or forkserver pool leaves multiprocessing's resource
    # tracker (and the fork server) running after it shuts down.  The pool
    # forks all its workers before it starts its own thread.
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(run_experiment, cfgs))


def run_sweep(cfg: ExperimentConfig, axis: str, values, trials: int = 1,
              jobs: int = 1):
    """Grid of independent experiments over one config axis, run through
    `run_many` with `jobs` workers.

    Per-experiment seeds derive from (master seed, value index, trial index),
    so results do not depend on execution order and each grid point can be
    reproduced standalone by running its config directly.
    """
    resolve_axis(axis)  # fail fast on unknown keys
    master = cfg.protocol.seed
    runs = []
    for vi, value in enumerate(values):
        for ti in range(trials):
            point = cfg.copy()
            set_key(point, axis, value)
            point.protocol.seed = spawn_seed(master, vi, ti)
            runs.append((value, ti, point))
    logs = run_many([point for *_, point in runs], jobs)
    return [{"value": value, "trial": ti, "seed": point.protocol.seed, "log": log}
            for (value, ti, point), log in zip(runs, logs)]
