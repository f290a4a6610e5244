import dataclasses
import multiprocessing
import os
import pkgutil
import signal
import subprocess
import sys
from collections import Counter
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

import fedqueue
from fedqueue import engine, learn, metrics, protocol, queue_sim
from fedqueue.config import default_config, ConfigError
from fedqueue.engine import InvariantError, run_experiment, run_many, run_sweep
from fedqueue.streams import spawn_seed


def quick_config(**over):
    cfg = default_config()
    cfg.protocol.num_rounds = 10
    cfg.workload.train_size = 400
    cfg.workload.test_size = 200
    cfg.workload.dim = 6
    cfg.workload.classes = 4
    for key, value in over.items():
        parts = key.split("__")
        obj = cfg
        for p in parts[:-1]:
            obj = getattr(obj, p)
        setattr(obj, parts[-1], value)
    return cfg


@pytest.mark.parametrize("module", ["fedqueue"] + [
    f"fedqueue.{m.name}" for m in pkgutil.iter_modules(fedqueue.__path__)])
def test_star_import_finds_every_name_in_all(module):
    # a name left in __all__ after its definition is gone fails here
    exec(f"from {module} import *", {})


def test_zero_delay_run_is_all_fresh():
    cfg = quick_config(
        fedqueue__sim_queue="fixed",
        fedqueue__queue_fixed=(0.0, 0.0, 0.0, 0.0),
        fedqueue__delta=0.0)
    log = run_experiment(cfg)
    assert not log.failed
    assert len(log.arrivals) == 4 * cfg.protocol.num_rounds
    assert all(a.tau == 0 for a in log.arrivals)
    assert all(r.admitted == 4 for r in log.rounds)


def test_rerun_is_bit_identical():
    cfg = quick_config()
    assert run_experiment(cfg).checksum() == run_experiment(cfg).checksum()


def test_seed_changes_output():
    cfg1, cfg2 = quick_config(), quick_config(protocol__seed=7)
    assert run_experiment(cfg1).checksum() != run_experiment(cfg2).checksum()


def test_perfect_prediction_budgets_match_hand_computation():
    cfg = quick_config(
        fedqueue__sim_queue="fixed",
        fedqueue__queue_fixed=(0.5, 1.5, 2.4, 6.0))
    log = run_experiment(cfg)
    # warm-up probes observe the fixed delays, so round-0 predictions are exact
    first = log.rounds[0]
    assert first.q_hat == pytest.approx([0.5, 1.5, 2.4, 6.0])
    # J = 10 - q - 2 and E = floor(10 * J)
    assert first.steps_budget == [75, 65, 56, 20]


def test_round_cadence_and_count():
    cfg = quick_config()
    log = run_experiment(cfg)
    assert len(log.rounds) == cfg.protocol.num_rounds
    for r in log.rounds:
        assert r.time == pytest.approx((r.round + 1) * cfg.fedqueue.t_sync)


def test_causality_arrival_decomposition():
    cfg = quick_config(fedqueue__queue_rho=0.9)
    log = run_experiment(cfg)
    for a in log.arrivals:
        assert a.arrival == pytest.approx(a.submit_time + a.q + a.compute_seconds)
        assert a.tau >= 0
        assert a.agg_round - a.submit_round == a.tau


def test_event_conservation():
    cfg = quick_config(fedqueue__queue_rho=0.9)
    log = run_experiment(cfg)
    dispatches = sum(1 for e in log.events if e.kind == "dispatch")
    arrivals_seen = sum(1 for e in log.events if e.kind == "arrival")
    # every dispatched job arrives unless its arrival falls past the horizon
    assert arrivals_seen <= dispatches
    assert dispatches - arrivals_seen <= cfg.protocol.num_clients


def test_staleness_ledger_conservation():
    cfg = quick_config(fedqueue__queue_rho=0.9, protocol__num_rounds=30)
    log = run_experiment(cfg)
    stale_admitted = sum(1 for a in log.arrivals if a.tau >= 1)
    deferred_counts = sum(r.deferred for r in log.rounds)
    assert stale_admitted == deferred_counts


def test_eval_after_each_aggregation():
    cfg = quick_config()
    log = run_experiment(cfg)
    aggregations = sum(1 for e in log.events if e.kind == "aggregate")
    assert len(log.evals) == aggregations + 1  # + initial evaluation


def test_skipped_round_keeps_model():
    cfg = quick_config(
        fedqueue__sim_queue="fixed",
        fedqueue__queue_fixed=(25.0, 25.0, 25.0, 25.0))  # every job very late
    log = run_experiment(cfg)
    assert log.skipped_rounds > 0
    assert not log.failed


def test_admission_horizon_all_matches_horizon_mode_in_simulation():
    base = quick_config(fedqueue__queue_rho=0.9)
    alt = quick_config(fedqueue__queue_rho=0.9)
    alt.fedqueue.admission_horizon = "all"
    assert run_experiment(base).checksum() == run_experiment(alt).checksum()


def test_immediate_broadcast_runs_and_differs():
    base = quick_config(fedqueue__queue_rho=0.9)
    imm = quick_config(fedqueue__queue_rho=0.9)
    imm.fedqueue.broadcast_when = "immediate"
    log = run_experiment(imm)
    assert not log.failed
    assert log.checksum() != run_experiment(base).checksum()


def test_static_predictor_ablation_runs():
    cfg = quick_config()
    cfg.ablation.use_ewma = False
    log = run_experiment(cfg)
    assert not log.failed
    assert log.rounds[0].q_hat == pytest.approx(list(cfg.fedqueue.queue_means))


def test_quadratic_workload_converges():
    cfg = quick_config(
        workload__dataset="quadratic",
        workload__quad_spread=0.0,
        fedqueue__sim_queue="fixed",
        fedqueue__queue_fixed=(0.0, 0.0, 0.0, 0.0),
        protocol__num_rounds=40)
    log = run_experiment(cfg)
    assert log.evals[-1][1] < log.evals[0][1]


def test_floor_budget_beyond_job_time_runs_every_step():
    # J = 0 here, so every budget is the floor; 123 steps at 60 steps/s
    cfg = quick_config(fedqueue__throughput=(60.0,) * 4, fedqueue__delta=10.0,
                       fedqueue__e_floor=123)
    log = run_experiment(cfg)
    dispatched = [(r.steps_budget[k], r.steps_done[k])
                  for r in log.rounds for k in range(4)
                  if not np.isnan(r.steps_budget[k])]
    assert dispatched and all(pair == (123, 123) for pair in dispatched)
    assert all(a.steps_done == 123 for a in log.arrivals)


def _disagreeing_admission(submit_round, arrival, t_sync):
    return submit_round + 7, 7


def test_admission_disagreement_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(protocol, "assign_aggregation_round", _disagreeing_admission)
    with pytest.raises(InvariantError, match="buffering rule") as err:
        run_experiment(quick_config(protocol__num_rounds=3))
    # the first cutoff admits round 0's first arrival
    assert (err.value.time, err.value.round) == (10.0, 0)
    assert err.value.client in range(4)


def _run_script(script: str, *flags: str, timeout: float = 120):
    """Run `script` in a fresh interpreter on this checkout's sources, in its
    own session, so that on timeout it is killed with every process it
    forked."""
    src = str(Path(fedqueue.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, *flags, "-c", script],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"script still running after {timeout} s")
    return proc.returncode, out, err


def test_invariant_checks_survive_optimized_mode():
    script = """
import sys
from fedqueue import engine, protocol
from fedqueue.config import default_config
assert not __debug__
protocol.assign_aggregation_round = lambda s, a, t: (s + 7, 7)
cfg = default_config()
cfg.protocol.num_rounds = 3
cfg.workload.train_size, cfg.workload.test_size = 400, 200
try:
    engine.run_experiment(cfg)
except engine.InvariantError as exc:
    print(exc.time, exc.client, exc.round)
    sys.exit(3)
"""
    code, out, err = _run_script(script, "-O")
    assert code == 3, out + err
    assert out.split()[:3:2] == ["10.0", "0"]


def _negative_delay(fq, k, rng):
    return -50.0


@pytest.mark.parametrize("algo", ["fedqueue", "fedasync"])
def test_job_starting_before_its_submission_raises_invariant_error(monkeypatch, algo):
    monkeypatch.setattr(queue_sim, "sample_queue_delay", _negative_delay)
    cfg = quick_config(protocol__algo=algo, fedqueue__warmup_steps=0)
    with pytest.raises(InvariantError, match="before the clock") as err:
        run_experiment(cfg)
    # client 0's round-0 job would start at 0 - 50
    assert (err.value.time, err.value.client, err.value.round) == (-50.0, 0, 0)
    # raised in a pool worker, it reaches the caller whole
    with pytest.raises(InvariantError, match="before the clock") as err:
        run_many([cfg, cfg], 2)
    assert (err.value.time, err.value.client, err.value.round) == (-50.0, 0, 0)


def test_causality_checks_survive_optimized_mode():
    script = """
from fedqueue import engine, queue_sim
from fedqueue.config import default_config
assert not __debug__
queue_sim.sample_queue_delay = lambda fq, k, rng: -50.0
for algo in ("fedqueue", "fedasync"):
    cfg = default_config()
    cfg.protocol.algo = algo
    cfg.fedqueue.warmup_steps = 0
    try:
        engine.run_experiment(cfg)
    except engine.InvariantError as exc:
        print(exc.time, exc.client, exc.round)
"""
    code, out, err = _run_script(script, "-O")
    assert code == 0, out + err
    assert out.split("\n") == ["-50.0 0 0", "-50.0 0 0", ""]


def test_stalled_clock_fails_the_run_in_bounded_time():
    # zero delays and one-step jobs: at throughput 1e20 the clock stays
    # within 1e-9 s of 0; at 1e8 it creeps by 1e-8 s per job and would need
    # about 3e9 events to reach its 30 s horizon
    script = """
from fedqueue import engine
from fedqueue.config import default_config
for throughput in (1e20, 1e8):
    cfg = default_config()
    cfg.protocol.algo = "fedasync"
    cfg.protocol.num_rounds = 3
    cfg.fedqueue.sim_queue = "fixed"
    cfg.fedqueue.queue_fixed = (0.0,) * 4
    cfg.fedqueue.throughput = (throughput,) * 4
    cfg.fedasync.num_local_steps = 1
    for log in [engine.run_experiment(cfg)] + engine.run_many([cfg, cfg], 2):
        print(f"{throughput:g}", log.failed, log.failure_reason.split(":")[0],
              len(log.events))
"""
    code, out, err = _run_script(script, timeout=60)
    assert code == 0, out + err
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 6 and all(row[1:3] == ["True", "stalled"] for row in rows)
    for throughput in ("1e+20", "1e+08"):
        # the same partial log each way
        assert len({row[3] for row in rows if row[0] == throughput}) == 1


def test_divergence_marks_run_failed():
    cfg = quick_config(fedqueue__lr_base=1e9, workload__dataset="quadratic")
    log = run_experiment(cfg)
    assert log.failed
    assert "non-finite" in log.failure_reason


def _written(log, out_dir):
    metrics.write_outputs(log, out_dir)
    return {name: (out_dir / name).read_bytes()
            for name in ("summary.json", "rounds.csv", "events.jsonl")}


# the diverging runs pinned in test_golden.py, by the same names
DIVERGING = {
    "fedqueue-diverges": dict(workload__dataset="quadratic",
                              fedqueue__lr_base=3.0),
    "fedasync-diverges": dict(protocol__algo="fedasync",
                              workload__dataset="quadratic",
                              fedqueue__lr_base=1.0),
    "fedavg-cohort-diverges-after-its-first-client": dict(
        protocol__algo="fedavg", fedavg__num_local_steps=(1, 30, 30, 30),
        fedqueue__lr_base=3e307),
    "fedbuff-classify-diverges": dict(protocol__algo="fedbuff",
                                      fedqueue__lr_base=2.8e307),
    "diverges-in-a-job-arriving-past-the-horizon": dict(
        protocol__algo="fedavg", workload__dataset="quadratic",
        fedqueue__lr_base=0.8, protocol__num_rounds=19, fedqueue__t_sync=5.0),
}

STACKED = {
    f"{algo}-{broadcast_when}-{dataset}": dict(
        protocol__algo=algo, workload__dataset=dataset, workload__quad_sigma=0.5,
        fedqueue__broadcast_when=broadcast_when)
    for algo in ("fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass")
    for broadcast_when in ("next_round", "immediate")
    for dataset in ("synthetic", "quadratic")}


@pytest.mark.parametrize("name", list(STACKED) + list(DIVERGING))
def test_deferred_stacks_equal_one_job_per_stack(name, monkeypatch, tmp_path):
    cfg = quick_config(**{**STACKED, **DIVERGING}[name])
    deferred = run_experiment(cfg)
    # the reference runs each job at its dispatch, as a stack of one
    submit = engine.Simulation.submit_job

    def at_dispatch(sim, *args, **kwargs):
        submit(sim, *args, **kwargs)
        engine._drive([sim._run_queued_jobs()])

    monkeypatch.setattr(engine.Simulation, "submit_job", at_dispatch)
    alone = run_experiment(cfg)
    assert deferred.failed == alone.failed == (name in DIVERGING)
    assert deferred.failure_reason == alone.failure_reason
    assert deferred.total_local_steps == alone.total_local_steps
    assert deferred.checksum() == alone.checksum()
    assert _written(deferred, tmp_path / "a") == _written(alone, tmp_path / "b")
    assert deferred.final_model.tobytes() == alone.final_model.tobytes()


def test_a_diverging_run_is_simulated_once(monkeypatch):
    built = []
    init = engine.Simulation.__init__

    def counting(sim, *args, **kwargs):
        built.append(sim)
        init(sim, *args, **kwargs)

    monkeypatch.setattr(engine.Simulation, "__init__", counting)
    log = run_experiment(quick_config(**DIVERGING["fedasync-diverges"]))
    assert log.failed and len(built) == 1


def test_deferred_jobs_run_stacked_when_first_needed(monkeypatch):
    # fedqueue dispatches its four clients at t = 0: their jobs run as one
    # stack at the first arrival, after every dispatch of that round
    stacks = []
    real = protocol.client_local_update

    def spy(lanes):
        stacks.append(sorted(k for _, _, k, *_ in lanes))
        return real(lanes)

    monkeypatch.setattr(protocol, "client_local_update", spy)
    log = run_experiment(quick_config())
    assert stacks[0] == [0, 1, 2, 3]
    assert sum(map(len, stacks)) == len(log.dispatches)
    assert len(stacks) < len(log.dispatches)


# time-valued entries of an event: its fields by kind, its dispatch delay,
# and the fields of an aggregate's applied updates (their compute_seconds
# follows from these)
_TIME_FIELDS = {"dispatch": ("q_hat",), "arrival": ("q",), "warmup_probe": ("q",)}
_RECORD_TIMES = ("submit_time", "q", "q_hat", "arrival")


def _with_times_scaled(event, scale):
    """repr of an event with every time in it multiplied by `scale`."""
    fields = {key: value * scale if key in _TIME_FIELDS.get(event.kind, ()) else value
              for key, value in event.fields.items()}
    data = event.data
    if event.kind == "dispatch":
        data = data * scale
    elif event.kind == "aggregate":
        data = [dataclasses.replace(rec, **{f: getattr(rec, f) * scale
                                            for f in _RECORD_TIMES})
                for rec in data]
    return repr((event.t * scale, event.kind, fields, data))


@pytest.mark.parametrize("algo", ["fedqueue", "fedavg", "fedasync", "fedbuff",
                                  "fedcompass"])
def test_power_of_two_time_scaling_leaves_the_run_unchanged(algo):
    # doubling every time and halving every rate doubles each time the run
    # computes and leaves every step count, so the log is the same once its
    # times are halved: a power of two scales without rounding
    base = quick_config(protocol__algo=algo, fedqueue__sim_queue="fixed")
    fq = base.fedqueue
    scaled = quick_config(
        protocol__algo=algo, fedqueue__sim_queue="fixed",
        fedqueue__t_sync=2 * fq.t_sync, fedqueue__delta=2 * fq.delta,
        fedqueue__q_init=2 * fq.q_init,
        fedqueue__queue_fixed=tuple(2 * q for q in fq.queue_fixed),
        fedqueue__throughput=tuple(c / 2 for c in fq.throughput))
    log, twice = run_experiment(base), run_experiment(scaled)
    assert not log.failed and len(log.evals) > 1
    assert [_with_times_scaled(e, 0.5) for e in twice.events] == \
        [_with_times_scaled(e, 1.0) for e in log.events]
    assert twice.total_local_steps == log.total_local_steps
    assert twice.final_model.tobytes() == log.final_model.tobytes()


def _spy_on_aggregations(monkeypatch):
    """algo -> [(round, clients, taus, model bytes)] of every aggregation
    of the runs made after this call."""
    models = {}
    real = engine.Simulation.aggregated

    def spy(sim, w, round, updates, taus):
        models.setdefault(sim.cfg.protocol.algo, []).append(
            (round, [m.client for m in updates], list(taus), w.tobytes()))
        return real(sim, w, round, updates, taus)

    monkeypatch.setattr(engine.Simulation, "aggregated", spy)
    return models


@pytest.mark.parametrize("dataset", ["synthetic", "quadratic"])
@pytest.mark.parametrize("throughput", [
    10.0, 5.0,
    # budgets of 48 steps: eta * E_min / E_k = 0.003 * 48 / 48 is not 0.003
    pytest.param(4.8, marks=pytest.mark.xfail(
        strict=True, reason="inverse-LR scaling at E_min = E_k rounds eta"))])
def test_fedqueue_equals_fedavg_in_the_synchronous_limit(dataset, throughput,
                                                         monkeypatch):
    # zero fixed queues, delta = 0 and equal throughputs: the warm-up probes
    # predict every delay as 0, so every fedqueue job runs E = throughput *
    # T_sync steps and arrives on its round's cutoff, and each round
    # aggregates all K fresh updates, as a FedAvg cohort does
    t_sync = 10.0
    steps = round(throughput * t_sync)
    common = dict(workload__dataset=dataset, fedqueue__t_sync=t_sync,
                  fedqueue__sim_queue="fixed",
                  fedqueue__queue_fixed=(0.0,) * 4, fedqueue__delta=0.0,
                  fedqueue__throughput=(throughput,) * 4,
                  fedavg__num_local_steps=(steps,) * 4)
    models = _spy_on_aggregations(monkeypatch)
    fq_log = run_experiment(quick_config(protocol__algo="fedqueue", **common))
    avg_log = run_experiment(quick_config(protocol__algo="fedavg", **common))
    assert not fq_log.failed and not avg_log.failed
    assert {e.fields["steps"] for e in fq_log.dispatches} == {steps}
    assert [m[:3] for m in models["fedqueue"]] == \
        [(r, [0, 1, 2, 3], [0] * 4) for r in range(10)]
    assert models["fedqueue"] == models["fedavg"]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_size():
    cfg = quick_config(protocol__num_rounds=5)
    results = run_sweep(cfg, [("queue_rho", [0.1, 0.5, 0.9])], trials=3)
    assert len(results) == 9
    seeds = {r["seed"] for r in results}
    assert len(seeds) == 9


def test_sweep_gamma_axis():
    cfg = quick_config(protocol__num_rounds=5)
    results = run_sweep(cfg, [("gamma", [1.0, 2.0, 4.0])], trials=1)
    assert [r["value"] for r in results] == [1.0, 2.0, 4.0]


def test_degenerate_sweep_reproduces_single_run():
    cfg = quick_config(protocol__num_rounds=5)
    results = run_sweep(cfg, [("queue_rho", [0.4])], trials=1)
    standalone = cfg.copy()
    standalone.fedqueue.queue_rho = 0.4
    standalone.protocol.seed = results[0]["seed"]
    assert run_experiment(standalone).checksum() == results[0]["log"].checksum()


def test_sweep_unknown_axis_rejected():
    with pytest.raises(ConfigError):
        run_sweep(quick_config(), [("no_such_knob", [1])], trials=1)


def test_run_many_pool_matches_in_process_and_leaves_nothing_running():
    cfgs = [quick_config(protocol__algo=algo, protocol__seed=seed,
                         fedqueue__queue_rho=0.9)
            for algo in ("fedqueue", "fedbuff") for seed in (1, 2)]
    tracker = resource_tracker._resource_tracker._pid
    pooled = [log.checksum() for log in run_many(cfgs, 2)]
    assert pooled == [log.checksum() for log in run_many(cfgs, 1)]
    assert len(set(pooled)) == len(cfgs)
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid == tracker   # none started


def _stalled_config():
    """The zero-delay reproducer of the stall test, at throughput 1e20."""
    cfg = default_config()
    cfg.protocol.algo = "fedasync"
    cfg.protocol.num_rounds = 3
    cfg.fedqueue.sim_queue = "fixed"
    cfg.fedqueue.queue_fixed = (0.0,) * 4
    cfg.fedqueue.throughput = (1e20,) * 4
    cfg.fedasync.num_local_steps = 1
    return cfg


# diverging, stalled and healthy runs of both workloads, an odd count, so
# that a doubled list deals every case into each of two groups
LOCKSTEP_CASES = [
    quick_config(**DIVERGING["fedqueue-diverges"]),
    quick_config(**DIVERGING["fedbuff-classify-diverges"]),
    _stalled_config(),
    quick_config(),
    quick_config(protocol__algo="fedasync", workload__model="mlp"),
    quick_config(protocol__algo="fedcompass", workload__dataset="quadratic",
                 workload__quad_sigma=0.5, fedqueue__broadcast_when="immediate"),
    quick_config(protocol__algo="fedavg", protocol__seed=3),
]


def _facts(log, out_dir):
    return (log.failure_reason, log.total_local_steps, log.checksum(),
            log.final_model.tobytes(), _written(log, out_dir))


def test_lockstep_runs_are_isolated_from_their_group(tmp_path):
    cases = LOCKSTEP_CASES
    alone = [_facts(run_experiment(cfg), tmp_path / "alone" / str(i))
             for i, cfg in enumerate(cases)]
    reasons = [facts[0].split(" ")[0] for facts in alone]
    assert reasons == ["non-finite", "non-finite", "stalled:", "", "", "", ""]
    assert len(cases) <= engine.GROUP_SIZE   # one group in process
    for jobs, cfgs in ((1, cases), (2, cases + cases)):
        logs = run_many(cfgs, jobs)
        for i, log in enumerate(logs):
            assert _facts(log, tmp_path / f"jobs{jobs}" / str(i)) == \
                alone[i % len(cases)], (jobs, i)


def test_lockstep_group_pools_the_gradient_calls(monkeypatch):
    # three default runs in one group: each stack serves the lanes of all
    # three, so the calls fall to at most half, for the same lane-steps
    cfgs = [default_config() for _ in range(3)]
    for i, cfg in enumerate(cfgs):
        cfg.protocol.seed = spawn_seed(7, "lockstep", i)
    counts = Counter()
    real_grad = learn.ClassifyObjective.stochastic_gradient
    real_update = protocol.client_local_update

    def gradient(self, bound, batches):
        counts["calls"] += 1
        return real_grad(self, bound, batches)

    def update(lanes):
        result = real_update(lanes)
        counts["lane_steps"] += result[1]
        return result

    monkeypatch.setattr(learn.ClassifyObjective, "stochastic_gradient", gradient)
    monkeypatch.setattr(protocol, "client_local_update", update)
    alone = [run_experiment(cfg) for cfg in cfgs]
    alone_counts, counts = counts, Counter()
    grouped = engine._run_group(cfgs)
    assert counts["lane_steps"] == alone_counts["lane_steps"] > 0
    assert 2 * counts["calls"] <= alone_counts["calls"]
    for a, b in zip(alone, grouped):
        assert not a.failed
        assert a.checksum() == b.checksum()
        assert a.final_model.tobytes() == b.final_model.tobytes()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_run_many_returns_logs_in_config_order(jobs):
    # 17 configs are more than one group; both workloads, distinct seeds
    cfgs = [quick_config(protocol__num_rounds=3, protocol__seed=seed,
                         workload__dataset=("synthetic", "quadratic")[seed % 2],
                         protocol__algo=("fedqueue", "fedbuff", "fedavg")[seed % 3])
            for seed in range(17)]
    expected = [run_experiment(cfg).checksum() for cfg in cfgs]
    assert len(set(expected)) == len(cfgs)
    for n in (1, 5, 17):
        assert [log.checksum() for log in run_many(cfgs[:n], jobs)] == expected[:n]


def _group_members(cfgs):
    """Stands in for a group's run in a pool worker: each config's log is
    the (rho, seed) of every config in its group."""
    members = tuple((cfg.fedqueue.queue_rho, cfg.protocol.seed) for cfg in cfgs)
    return [members] * len(cfgs)


def test_run_many_deals_a_grid_one_trial_of_each_value_per_group(monkeypatch):
    monkeypatch.setattr(engine, "_run_group", _group_members)
    rows = run_sweep(quick_config(), [("queue_rho", [0.1, 0.5, 0.9])], trials=2,
                     jobs=2)
    trial_of = {row["seed"]: row["trial"] for row in rows}
    groups = {row["log"] for row in rows}
    assert len(groups) == 2
    for group in groups:
        assert sorted(rho for rho, _ in group) == [0.1, 0.5, 0.9]
        assert len({trial_of[seed] for _, seed in group}) == 1


def _blas_threads(cfgs):
    """Stands in for a group's run in a pool worker."""
    return [engine._openblas_threads()[1]()] * len(cfgs)


def test_pool_workers_run_one_blas_thread(monkeypatch):
    control = engine._openblas_threads()
    if control is None:
        pytest.skip("numpy loaded no OpenBLAS")
    parent = control[1]()
    monkeypatch.setattr(engine, "_run_group", _blas_threads)
    assert run_many([quick_config()] * 3, 2) == [1, 1, 1]
    assert control[1]() == parent     # the caller's own threads are left alone


def test_sweep_values_independent_of_order():
    cfg = quick_config(protocol__num_rounds=5)
    fwd = run_sweep(cfg, [("delta", [1.0, 4.0])], trials=1)
    rev = run_sweep(cfg, [("delta", [4.0, 1.0])], trials=1)
    fwd_by_value = {r["value"]: r["log"].checksum() for r in fwd}
    # seeds derive from value index, so compare matched (value, trial) points
    assert fwd_by_value[1.0] != fwd_by_value[4.0]
    assert {r["value"] for r in rev} == {1.0, 4.0}


def test_grid_points_reproduce_standalone():
    cfg = quick_config(protocol__num_rounds=5)
    grid = [("queue_rho", [0.1, 0.9]), ("gamma", [1.0, 4.0])]
    results = run_sweep(cfg, grid, trials=2)
    points = [((ri, rho), (gi, gamma), ti) for ri, rho in enumerate([0.1, 0.9])
              for gi, gamma in enumerate([1.0, 4.0]) for ti in range(2)]
    assert len(results) == len(points)
    for res, ((ri, rho), (gi, gamma), ti) in zip(results, points):
        assert (res["values"], res["value"], res["trial"]) == ((rho, gamma), gamma, ti)
        assert res["seed"] == spawn_seed(cfg.protocol.seed, ri, gi, ti)
        standalone = cfg.copy()
        standalone.fedqueue.queue_rho, standalone.fedqueue.gamma = rho, gamma
        standalone.protocol.seed = res["seed"]
        assert run_experiment(standalone).checksum() == res["log"].checksum()


def test_algorithms_in_a_grid_meet_the_same_queue_draws():
    cfg = quick_config(protocol__num_rounds=5)
    grid = [("algo.name", ["fedqueue", "fedavg"]), ("queue_rho", [0.1, 0.9])]
    runs = {(res["values"], res["trial"]): res for res in run_sweep(cfg, grid, trials=2)}

    def draws(log):
        """client -> the drawn q of its dispatches, in submission order"""
        q = {}
        for e in log.dispatches:
            q.setdefault(e.fields["client"], []).append(e.data)
        return q

    for rho in (0.1, 0.9):
        for ti in range(2):
            fedqueue, fedavg = (runs[((algo, rho), ti)] for algo in ("fedqueue", "fedavg"))
            assert fedqueue["seed"] == fedavg["seed"]
            ours, theirs = draws(fedqueue["log"]), draws(fedavg["log"])
            assert ours.keys() == theirs.keys() == set(range(4))
            for k in ours:
                n = min(len(ours[k]), len(theirs[k]))
                assert n >= 1 and ours[k][:n] == theirs[k][:n]
    assert runs[(("fedqueue", 0.1), 0)]["seed"] != runs[(("fedqueue", 0.9), 0)]["seed"]
