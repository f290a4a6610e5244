import multiprocessing
import os
import signal
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

import fedqueue
from fedqueue import engine, metrics, protocol, queue_sim
from fedqueue.config import default_config, ConfigError
from fedqueue.engine import InvariantError, run_experiment, run_many, run_sweep


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


def _negative_delay(model, k, rng):
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
queue_sim.sample_queue_delay = lambda model, k, rng: -50.0
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


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_size():
    cfg = quick_config(protocol__num_rounds=5)
    results = run_sweep(cfg, "queue_rho", [0.1, 0.5, 0.9], trials=3)
    assert len(results) == 9
    seeds = {r["seed"] for r in results}
    assert len(seeds) == 9


def test_sweep_gamma_axis():
    cfg = quick_config(protocol__num_rounds=5)
    results = run_sweep(cfg, "gamma", [1.0, 2.0, 4.0], trials=1)
    assert [r["value"] for r in results] == [1.0, 2.0, 4.0]


def test_degenerate_sweep_reproduces_single_run():
    cfg = quick_config(protocol__num_rounds=5)
    results = run_sweep(cfg, "queue_rho", [0.4], trials=1)
    standalone = cfg.copy()
    standalone.fedqueue.queue_rho = 0.4
    standalone.protocol.seed = results[0]["seed"]
    assert run_experiment(standalone).checksum() == results[0]["log"].checksum()


def test_sweep_unknown_axis_rejected():
    with pytest.raises(ConfigError):
        run_sweep(quick_config(), "no_such_knob", [1], trials=1)


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


def _blas_threads(cfg):
    """Stands in for run_experiment in a pool worker."""
    return engine._openblas_threads()[1]()


def test_pool_workers_run_one_blas_thread(monkeypatch):
    control = engine._openblas_threads()
    if control is None:
        pytest.skip("numpy loaded no OpenBLAS")
    parent = control[1]()
    monkeypatch.setattr(engine, "run_experiment", _blas_threads)
    assert run_many([quick_config()] * 3, 2) == [1, 1, 1]
    assert control[1]() == parent     # the caller's own threads are left alone


def test_sweep_values_independent_of_order():
    cfg = quick_config(protocol__num_rounds=5)
    fwd = run_sweep(cfg, "delta", [1.0, 4.0], trials=1)
    rev = run_sweep(cfg, "delta", [4.0, 1.0], trials=1)
    fwd_by_value = {r["value"]: r["log"].checksum() for r in fwd}
    # seeds derive from value index, so compare matched (value, trial) points
    assert fwd_by_value[1.0] != fwd_by_value[4.0]
    assert {r["value"] for r in rev} == {1.0, 4.0}
