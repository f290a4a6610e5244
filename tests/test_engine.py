import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedqueue
from fedqueue import engine, metrics, protocol
from fedqueue.config import default_config, ConfigError
from fedqueue.engine import InvariantError, run_experiment, run_sweep


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
    src = str(Path(fedqueue.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout.split()[:3:2] == ["10.0", "0"]


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


def test_sweep_values_independent_of_order():
    cfg = quick_config(protocol__num_rounds=5)
    fwd = run_sweep(cfg, "delta", [1.0, 4.0], trials=1)
    rev = run_sweep(cfg, "delta", [4.0, 1.0], trials=1)
    fwd_by_value = {r["value"]: r["log"].checksum() for r in fwd}
    # seeds derive from value index, so compare matched (value, trial) points
    assert fwd_by_value[1.0] != fwd_by_value[4.0]
    assert {r["value"] for r in rev} == {1.0, 4.0}
