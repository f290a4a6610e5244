"""Deterministic discrete-event loop and the queue-aware orchestrator.

The server wall clock advances through a heap of timed events: job starts,
update arrivals, and (for round-based methods) boundaries at exactly
r * T_sync.  Ties are processed arrivals-first so an update landing exactly
on a cutoff is admitted to that cutoff's round, then boundaries, in client
order.  All randomness flows through per-(client, submission) substreams, so
a given seed produces the same admission delays for every algorithm and a
rerun reproduces the log bit for bit.

A job's local SGD runs when its update is first needed, not at its
dispatch: dispatch draws the delay, prices the job and schedules its
events, and queues the job.  A run is a generator
(`Simulation.paused_run`) with two pause points: when an arrival whose
update is not yet computed pops, and at the end while jobs are still
queued.  There it yields the lanes of every queued job, and `_drive` runs
them in one stacked `protocol.client_local_update` call and sends back
their deltas and which of them diverged.  Each job starts from
a copy of the model it was dispatched with and draws from its own
substream, so its update does not depend on when it runs, nor on which
other lanes share its stack.  A diverging job cuts the log back to a mark
taken at its dispatch, so the failed log stops there, as if the job had
run at its dispatch.

`Simulation.run` and `run_experiment` drive one run.  `run_many` deals its
configs round-robin into groups of at most `GROUP_SIZE` runs and drives
each group in lockstep: every run advances to its next pause, then one
`client_local_update` call serves the lanes of all paused runs, so the
classify lanes of different runs share stacks.  Every log is bit-identical
to its `run_experiment` log, also when a neighbour in its group diverges,
stalls or ends early.
"""
from __future__ import annotations

import ctypes
import functools
import heapq
import math
import os

import numpy as np

from . import learn, metrics, protocol, queue_sim
from .config import ExperimentConfig, resolve_axis, set_key, validate_config
from .predictor import DelayPredictor
from .protocol import TIME_EPS
from .streams import Substreams, spawn_seed, substream

__all__ = ["Simulation", "Orchestrator", "FedQueueOrchestrator",
           "InvariantError", "run_experiment", "run_many", "run_sweep"]

# event ranks: arrivals strictly before round boundaries at equal times.  A
# heap entry's rank names its kind; its key is the client (job start,
# arrival) or the boundary index (round), and its payload the job's
# ClientUpdate (job start, arrival) or the boundary index (round).
RANK_JOB_START = 0
RANK_ARRIVAL = 1
RANK_ROUND = 2
_KINDS = ("job_start", "arrival", "round")

# runs that `run_many` drives in lockstep at most, sharing lane stacks
GROUP_SIZE = 8

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
    """Clock, event heap, and shared dispatch machinery for one experiment,
    with its objective and log built from `cfg`."""

    def __init__(self, cfg: ExperimentConfig, staging=None):
        p, fq = cfg.protocol, cfg.fedqueue
        self.cfg = cfg
        self.objective = learn.build_objective(cfg, substream(p.seed, "data"),
                                               staging)
        # the ("queue", k, j), ("sgd", k, j) and ("warmup", k) substreams
        self.substreams = Substreams(p.seed)
        self.num_clients = p.num_clients
        self.horizon = p.num_rounds * fq.t_sync
        self.log = metrics.MetricsLog(
            algo=p.algo, seed=p.seed, num_clients=p.num_clients,
            t_sync=fq.t_sync, horizon=self.horizon, config=cfg.flat())
        self.now = 0.0
        self.version = 0                      # server model versions applied
        self._heap = []
        self._seq = 0
        self._submissions = [0] * self.num_clients
        self._queued = []   # (msg, job, log mark at dispatch) of jobs not yet run

    # ---- scheduling ------------------------------------------------------
    def schedule(self, time: float, rank: int, key: int, payload) -> None:
        # causality: no event precedes the clock, so no job starts or
        # arrives before its submission, and the heap pops in time order
        if time < self.now - TIME_EPS:
            if rank == RANK_ROUND:
                client, r = None, key
            else:
                client, r = key, payload.submit_round
            raise InvariantError(f"{_KINDS[rank]} event scheduled before the "
                                 f"clock {self.now}", time, client, r)
        heapq.heappush(self._heap, (time, rank, key, self._seq, payload))
        self._seq += 1

    def schedule_round_boundaries(self, num_rounds: int) -> None:
        # boundary r closes round r-1; times are r * T_sync exactly, never summed
        for r in range(1, num_rounds + 1):
            self.schedule(r * self.cfg.fedqueue.t_sync, RANK_ROUND, r, r)

    # ---- client jobs -----------------------------------------------------
    def submit_job(self, k: int, w: np.ndarray, submit_round: int, eta: float,
                   step_budget: int, q_hat: float = float("nan")) -> None:
        """Broadcast + job submission: draws the admission delay, prices the
        job's compute time, schedules its start and arrival, and queues the
        job."""
        fq = self.cfg.fedqueue
        j = self._submissions[k]
        self._submissions[k] = j + 1
        q = queue_sim.sample_queue_delay(fq, k, self.substreams("queue", k, j))
        # noise-free quadratic jobs draw nothing: they get no substream
        rng = self.substreams("sgd", k, j) if self.objective.draws(k) else None
        steps = int(step_budget)
        arrival = self.now + q + queue_sim.compute_time(fq, k, steps)
        msg = protocol.ClientUpdate(
            client=k, submit_round=submit_round, delta=None, q=q,
            arrival=arrival, steps_done=steps, eta=eta, q_hat=q_hat,
            submit_time=self.now)
        # the orchestrator may rebind its model before the job runs
        lane = (self.objective, self.cfg.protocol.batch_size, k, w.copy(), eta,
                steps, rng)
        self._queued.append((msg, lane,
                             (len(self.log.events), self.log.total_local_steps)))
        self.schedule(self.now + q, RANK_JOB_START, k, msg)
        self.schedule(arrival, RANK_ARRIVAL, k, msg)
        self.log.total_local_steps += steps
        self.log.event(self.now, "dispatch", msg)

    def _run_queued_jobs(self):
        """Pause point: yield the lanes of every queued job, to be run in
        one stacked local update, and take back (deltas, diverged), as
        `protocol.client_local_update` returns them for these lanes; attach
        each update to its message.  The first diverging job in queue
        order fails the run as if it had run at its dispatch: the log is cut
        back to the job's mark, where a job applied after the mark shows as
        in flight, its final model is the job's start model, and a
        FloatingPointError naming its client is raised."""
        if not self._queued:
            return
        queued, self._queued = self._queued, []
        deltas, diverged = yield [lane for _, lane, _ in queued]
        if diverged:
            _, (_, _, k, w, *_), (events, steps) = queued[diverged[0]]
            for e in self.log.events[events:]:
                if e.kind == "aggregate":
                    for m in e.data:
                        m.agg_round = m.tau = None
            del self.log.events[events:]
            self.log.total_local_steps, self.log.final_model = steps, w
            self.fail(f"non-finite iterate on client {k}")
            raise FloatingPointError(self.log.failure_reason)
        for (msg, *_), delta in zip(queued, deltas):
            msg.delta = delta

    def fail(self, reason: str) -> None:
        """Mark the run failed for `reason`: no event after the one being
        processed runs."""
        self.log.failed, self.log.failure_reason = True, reason

    def evaluate(self, w: np.ndarray) -> None:
        # a diverging model can be finite while its loss overflows: the loss
        # reads inf, and the next job's finiteness check fails the run
        with np.errstate(over="ignore", invalid="ignore"):
            loss, acc = self.objective.evaluate(w)
        self.log.event(self.now, "eval", loss=loss, accuracy=acc)

    def aggregated(self, w: np.ndarray, round: int, updates: list, taus) -> None:
        """A new global model `w`: count the version, evaluate it, and log
        the aggregate with the list of updates it applied; the log keeps
        that list itself, so the caller must not change it afterwards.
        Each update is now the record of its arrival: its round and
        staleness set, its delta dropped."""
        self.version += 1
        self.evaluate(w)
        for m, tau in zip(updates, taus):
            m.agg_round, m.tau, m.delta = round, tau, None
        self.log.event(self.now, "aggregate", updates)

    # ---- main loop -------------------------------------------------------
    def run(self, orchestrator) -> None:
        """Drive this run alone to its end (see `paused_run`)."""
        _drive([self.paused_run(orchestrator)])

    def paused_run(self, orchestrator):
        """The run as a generator that pauses where an arrival needs an
        update not yet computed, and once more at the end if jobs are
        still queued: it yields their lanes and takes back (deltas,
        diverged) through `send`.

        It processes the events at or before the horizon; a run whose clock
        stops or crawls is marked failed as stalled, and a run the
        orchestrator fails (`fail`) ends after that event.  Jobs still
        queued when the loop ends, also by an exception, run before it
        returns.  A diverging job, also one dispatched just before the
        horizon, ends the run there, failed, and the orchestrator does not
        finish.  The run ends with no delta left in its log."""
        try:
            try:
                orchestrator.start()
                yield from self._process_events(orchestrator)
            finally:
                yield from self._run_queued_jobs()
            orchestrator.finish()
        except FloatingPointError:
            pass
        # a job that ran but was never applied (in flight at the horizon,
        # or before a diverging job) would keep its delta reachable
        # through its dispatch event
        for e in self.log.events:
            if e.kind == "dispatch":
                e.data.delta = None

    def _process_events(self, orchestrator):
        stall_limit = _STALL_EVENTS_PER_CLIENT_ROUND * self.num_clients
        t_sync, window, count = self.cfg.fedqueue.t_sync, 0.0, 0
        log = self.log
        while self._heap and not log.failed:
            time, rank, key, _, payload = heapq.heappop(self._heap)
            if time > self.horizon:
                break
            if time // t_sync != window:
                window, count = time // t_sync, 0
            count += 1
            if count > stall_limit:
                self.fail(f"stalled: {count} events in the round window "
                          f"[{window * t_sync}, {(window + 1) * t_sync}) s "
                          f"of virtual time, the clock at t={time}")
                break
            self.now = time
            if rank == RANK_JOB_START:
                log.event(time, "job_start", payload)
            elif rank == RANK_ARRIVAL:
                log.event(time, "arrival", payload)
                if payload.delta is None:
                    yield from self._run_queued_jobs()
                orchestrator.on_arrival(payload)
            else:
                orchestrator.on_round_boundary(payload)


def _drive(runs) -> None:
    """Run `paused_run` generators in lockstep: advance each until it
    pauses or ends, run the lanes of every paused run in one
    `protocol.client_local_update` call, hand each run back its own
    deltas and diverged lanes, and repeat until every run has ended."""
    waiting = [(run, None) for run in runs]
    while waiting:
        paused, lanes = [], []
        for run, reply in waiting:
            try:
                queued = run.send(reply)
            except StopIteration:
                continue
            paused.append((run, len(lanes)))
            lanes += queued
        if not paused:
            return
        deltas, _, diverged = protocol.client_local_update(lanes)
        ends = [lo for _, lo in paused[1:]] + [len(lanes)]
        waiting = [(run, (deltas[lo:hi], [i - lo for i in diverged if lo <= i < hi]))
                   for (run, lo), hi in zip(paused, ends)]


class Orchestrator:
    """Server side of one algorithm: the global model `w` and the hooks
    `Simulation.paused_run` calls (`start`, `on_arrival(msg)`,
    `on_round_boundary(boundary)`, `finish`)."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.cfg = sim.cfg
        self.w = sim.objective.init_point()

    def finish(self) -> None:
        self.sim.log.final_model = self.w.copy()

    def _can_dispatch(self) -> bool:
        return self.sim.now < self.sim.horizon - TIME_EPS


class FedQueueOrchestrator(Orchestrator):
    """Queue-aware server: budgets from online delay predictions, deadline
    admission with buffering, staleness-weighted aggregation."""

    def __init__(self, sim: Simulation):
        super().__init__(sim)
        cfg = self.cfg
        fq = cfg.fedqueue
        # the decay-off ablation weights every update alike
        fn = fq.staleness_mode if cfg.ablation.use_staleness_decay else "constant"
        self.phi = protocol.staleness(fn, {"beta": fq.staleness_beta})
        if cfg.ablation.use_ewma:
            self.predictor = DelayPredictor(np.full(sim.num_clients, fq.q_init), fq.alpha)
        else:
            # the static ablation: the configured delays, never updated
            static = (fq.queue_means if fq.sim_queue == "lognormal"
                      else fq.queue_fixed)
            self.predictor = DelayPredictor(static, 0.0)
        self.buffer: list[protocol.ClientUpdate] = []
        self.pool = set(range(sim.num_clients))
        self.e_min_ref: int | None = None

    # ---- lifecycle -------------------------------------------------------
    def start(self) -> None:
        sim, cfg = self.sim, self.cfg
        if cfg.fedqueue.warmup_steps > 0 and cfg.ablation.use_ewma:
            # pure delay probes before round 0: seed predictions, no aggregation
            for k in range(sim.num_clients):
                q = queue_sim.sample_queue_delay(cfg.fedqueue, k,
                                                 sim.substreams("warmup", k))
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
            fq.t_sync, q_hat, fq.delta, queue_sim.effective_rate(fq, k), fq.e_floor)

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
        self.sim.submit_job(k, self.w, r, eta, steps, q_hat=q_hat)

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
        self.predictor.observe(msg.client, msg.q)
        self.buffer.append(msg)
        if fq.broadcast_when == "immediate" and self._can_dispatch():
            s = min(int(math.floor(sim.now / fq.t_sync + TIME_EPS)),
                    self.cfg.protocol.num_rounds - 1)
            self._submit(msg.client, s, *self._budget(msg.client))

    def on_round_boundary(self, boundary: int) -> None:
        sim, fq = self.sim, self.cfg.fedqueue
        cutoff = boundary * fq.t_sync
        closing = boundary - 1
        admitted, self.buffer = protocol.partition_admissions(self.buffer, cutoff)
        if admitted:
            weighted, taus = [], []
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
                weighted.append((float(sim.objective.weights[m.client]) * self.phi(tau),
                                 m.delta))
            try:
                self.w = protocol.aggregate(self.w, weighted)
            except ZeroDivisionError:
                sim.fail(f"zero total weight in round {closing}: the weights "
                         f"of its admitted updates sum to 0")
                return
            sim.aggregated(self.w, closing, admitted, taus)
            if fq.broadcast_when == "next_round":
                self.pool.update(m.client for m in admitted)
        else:
            sim.log.event(cutoff, "skipped_round", round=closing)
        if boundary < self.cfg.protocol.num_rounds:
            self.dispatch_round(boundary)


def run_experiment(cfg: ExperimentConfig) -> metrics.MetricsLog:
    """Warm-up plus the configured horizon under the configured orchestrator.

    Identical config and seed give a bit-identical log.  Numerical divergence
    marks the log failed instead of raising; the failed log stops where the
    diverging job was dispatched (see `Simulation.paused_run`).
    """
    from .baselines import ORCHESTRATORS  # late import; baselines build on engine

    validate_config(cfg)
    sim = Simulation(cfg)
    sim.run(ORCHESTRATORS[cfg.protocol.algo](sim))
    return sim.log


def _run_group(cfgs) -> list[metrics.MetricsLog]:
    """The logs of `cfgs`, run in lockstep (`_drive`) with their classify
    rows staged in shared buffers (`learn.staging_blocks`), so that lanes
    of different runs share stacks.  Each log is bit-identical to
    `run_experiment` of its config."""
    from .baselines import ORCHESTRATORS

    for cfg in cfgs:
        validate_config(cfg)
    runs, logs = [], []
    # built one after another: each build's transients go before the next
    for cfg, staging in zip(cfgs, learn.staging_blocks(cfgs)):
        sim = Simulation(cfg, staging)
        runs.append(sim.paused_run(ORCHESTRATORS[cfg.protocol.algo](sim)))
        logs.append(sim.log)
    _drive(runs)
    return logs


@functools.cache
def _openblas_threads():
    """(set, get) of the thread count of the OpenBLAS this process loaded,
    or None when it loaded none; looked up once per process, and a forked
    worker inherits the lookup.

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
    """Cap this process's OpenBLAS at one thread: one run's matrices are
    too small for BLAS threads to pay.  The pool initializer of `run_many`
    calls it, since the workers already fill the cores and by default each
    worker's OpenBLAS starts a thread per core, which oversubscribes them;
    so does `cli.main`, which owns its process.  A library call leaves the
    caller's threads as they are."""
    control = _openblas_threads()
    if control is not None:
        control[0](1)


def run_many(cfgs, jobs: int = 1) -> list[metrics.MetricsLog]:
    """Run independent experiments; the logs come back in the order of
    `cfgs`, each bit-identical to `run_experiment` of its config.

    The configs are dealt round-robin into max(workers, ceil(n / GROUP_SIZE))
    groups, workers = min(jobs, n), and each group runs in lockstep
    (`_run_group`).  With `jobs` > 1 the groups are spread over `workers`
    worker processes forked from this one, each with one OpenBLAS thread;
    this process's own threads are left as they are.  Every worker has
    exited when this returns.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    workers = min(jobs, len(cfgs))
    count = max(workers, math.ceil(len(cfgs) / GROUP_SIZE))
    groups = [cfgs[g::count] for g in range(count)]
    if workers <= 1:
        done = [_run_group(group) for group in groups]
    else:
        # imported here: only a pool needs them, and every run pays for imports
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: a spawn or forkserver pool leaves multiprocessing's resource
        # tracker (and the fork server) running after it shuts down.  The
        # pool forks all its workers before it starts its own thread.
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_one_blas_thread) as pool:
            done = list(pool.map(_run_group, groups))
    return [done[i % count][i // count] for i in range(len(cfgs))]


def run_sweep(cfg: ExperimentConfig, grid, trials: int = 1, jobs: int = 1):
    """Experiments over the Cartesian product of `grid`, a sequence of
    `(axis, values)` pairs, `trials` seeds per grid point, run through
    `run_many` with `jobs` workers.  The last axis varies fastest.

    A point's seed is `spawn_seed(master, *value indices, trial)` over every
    axis but `algo.name`, so results do not depend on execution order, each
    point reproduces standalone from its config, and the algorithms at the
    same other indices and trial meet the same queue draws.  Each row holds
    the point's `values`, one per axis, and `value`, the last axis's value.
    """
    axes = [axis for axis, _ in grid]
    values = [list(vals) for _, vals in grid]
    seeded = [resolve_axis(axis) != ("protocol", "algo.name") for axis in axes]
    master = cfg.protocol.seed
    runs = []
    for index in np.ndindex(*map(len, values)):
        point = tuple(vals[i] for vals, i in zip(values, index))
        key = [i for i, s in zip(index, seeded) if s]
        for ti in range(trials):
            run = cfg.copy()
            for axis, value in zip(axes, point):
                set_key(run, axis, value)
            run.protocol.seed = spawn_seed(master, *key, ti)
            runs.append((point, ti, run))
    logs = run_many([run for *_, run in runs], jobs)
    return [{"values": point, "value": point[-1], "trial": ti,
             "seed": run.protocol.seed, "log": log}
            for (point, ti, run), log in zip(runs, logs)]
