import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqueue import metrics
from fedqueue.config import default_config
from fedqueue.engine import run_experiment
from fedqueue.learn import QuadraticObjective
from fedqueue.metrics import (ArrivalRecord, MetricsLog,
                              StalenessBoundParams, admission_summary,
                              delay_statistics, delta_threshold,
                              movement_ratio, prediction_error_stats,
                              staleness_bound_violation_rate, time_to_target,
                              write_outputs)
from fedqueue.streams import substream


def empty_log(**kw):
    defaults = dict(algo="fedqueue", seed=0, num_clients=4, t_sync=10.0,
                    horizon=500.0)
    defaults.update(kw)
    return MetricsLog(**defaults)


def arrival(k, s, arrival_t, q=1.0, q_hat=float("nan"), tau=0, t_sync=10.0):
    return ArrivalRecord(client=k, submit_round=s, submit_time=s * t_sync,
                         q=q, q_hat=q_hat, compute_seconds=1.0,
                         arrival=arrival_t, agg_round=s + tau, tau=tau,
                         steps_done=10)


def add_evals(log, evals):
    for t, loss, acc in evals:
        log.event(t, "eval", loss=loss, accuracy=acc)


def add_arrivals(log, arrivals):
    # one aggregate applying them all; only the arrival records matter here
    log.event(0.0, "aggregate", data=arrivals, round=0,
              clients=[a.client for a in arrivals],
              taus=[a.tau for a in arrivals])


# ---------------------------------------------------------------------------
# time to target
# ---------------------------------------------------------------------------

def test_first_crossing_of_monotone_series():
    log = empty_log()
    add_evals(log, [(10.0, 1.0, 0.5), (20.0, 0.5, 0.96)])
    assert time_to_target(log, 0.95) == 20.0


def test_unreached_target_returns_marker():
    log = empty_log()
    add_evals(log, [(10.0, 1.0, 0.5)])
    assert time_to_target(log, 0.99) is None


def test_zero_target_hits_first_evaluation():
    log = empty_log()
    add_evals(log, [(3.0, 1.0, 0.1), (6.0, 0.9, 0.2)])
    assert time_to_target(log, 0.0) == 3.0


def test_time_to_target_monotone_in_target():
    log = empty_log()
    add_evals(log, [(t, 1.0, a) for t, a in
                    [(0, 0.1), (10, 0.4), (20, 0.7), (30, 0.9)]])
    times = [time_to_target(log, v) for v in (0.1, 0.4, 0.7, 0.9)]
    assert times == sorted(times)


# ---------------------------------------------------------------------------
# delay statistics
# ---------------------------------------------------------------------------

def test_no_late_arrivals():
    log = empty_log()
    add_arrivals(log, [arrival(0, 0, 8.0), arrival(1, 0, 9.5)])
    p_late, e_hat, r_d = delay_statistics(log)
    assert p_late == 0.0
    assert e_hat is None
    assert r_d <= 1.0


def test_single_late_arrival():
    log = empty_log()
    add_arrivals(log, [arrival(0, 0, 15.0, tau=1)])
    p_late, e_hat, r_d = delay_statistics(log)
    assert (p_late, e_hat, r_d) == (1.0, 1.5, 1.5)


def test_three_ratio_example():
    log = empty_log()
    add_arrivals(log, [arrival(0, 0, 8.0), arrival(1, 0, 12.0, tau=1),
                       arrival(2, 0, 14.0, tau=1)])
    p_late, e_hat, r_d = delay_statistics(log)
    assert p_late == pytest.approx(2.0 / 3.0)
    assert e_hat == pytest.approx(1.3)
    assert r_d == pytest.approx(1.4)


# ---------------------------------------------------------------------------
# admission summary
# ---------------------------------------------------------------------------

def test_admission_counts_and_ratio():
    log = empty_log(num_clients=1)
    add_arrivals(log, [arrival(0, 0, 9.0), arrival(0, 1, 21.0, tau=1),
                       arrival(0, 2, 33.0, tau=1)])
    row = admission_summary(log)[0]
    assert (row["submitted"], row["admitted"], row["deferred"]) == (3, 1, 2)
    assert row["max_delay_ratio"] == pytest.approx(1.3)


def test_zero_delay_run_has_no_deferrals():
    log = empty_log(num_clients=2)
    add_arrivals(log, [arrival(k, r, r * 10.0 + 5.0) for k in range(2)
                       for r in range(5)])
    for row in admission_summary(log):
        assert row["deferred"] == 0
        assert row["submitted"] == row["admitted"] == 5


# ---------------------------------------------------------------------------
# movement ratio
# ---------------------------------------------------------------------------

def log_with_dispatches(n, tta_time, algo="fedqueue"):
    """n dispatches at t = 0, 1, ...; the target is crossed at tta_time,
    or never when it is None."""
    log = empty_log(algo=algo)
    for i in range(n):
        log.event(float(i), "dispatch", data=1.0, client=0, round=i,
                  steps=10, eta=0.1, q_hat=float("nan"))
    add_evals(log, [(0.0, 1.0, 0.0)])
    if tta_time is not None:
        add_evals(log, [(tta_time, 0.1, 0.96)])
    return log


def test_reference_method_ratio_is_one():
    logs = {"fedqueue": log_with_dispatches(25, 50.0)}
    assert movement_ratio(logs, 0.95)["fedqueue"] == pytest.approx(1.0)


def test_double_dispatches_doubles_ratio():
    logs = {"fedqueue": log_with_dispatches(25, 50.0),
            "fedavg": log_with_dispatches(50, 50.0, algo="fedavg")}
    assert movement_ratio(logs, 0.95)["fedavg"] == pytest.approx(2.0)


def test_mixed_ratio():
    logs = {"fedqueue": log_with_dispatches(25, 50.0),
            "fedbuff": log_with_dispatches(40, 50.0, algo="fedbuff")}
    assert movement_ratio(logs, 0.95)["fedbuff"] == pytest.approx(1.6)


def test_unreached_method_maps_to_marker():
    slow = log_with_dispatches(40, None, algo="fedavg")
    logs = {"fedqueue": log_with_dispatches(25, 50.0), "fedavg": slow}
    assert movement_ratio(logs, 0.95)["fedavg"] is None


# ---------------------------------------------------------------------------
# safety-buffer threshold
# ---------------------------------------------------------------------------

def params(rho=0.4, eps=0.05, gamma=0.2, k=4):
    return StalenessBoundParams(rho=np.full(k, rho), epsilon=eps, gamma=gamma)


def test_zero_noise_needs_no_buffer():
    assert delta_threshold(params(rho=0.0), 10.0, 4, 50) == 0.0


def test_default_grid_point_already_covered_by_gamma():
    # sqrt(2 * 0.16 * ln(4*50/0.05)) = 1.62915 < gamma * T = 2
    assert delta_threshold(params(), 10.0, 4, 50) == 0.0


def test_threshold_without_gamma_slack():
    value = delta_threshold(params(gamma=0.0), 10.0, 4, 50)
    assert value == pytest.approx(1.6291396148988118, rel=1e-9)


def test_tau_max_is_ceiling():
    assert params(gamma=0.2).tau_max == 2
    assert params(gamma=1.0).tau_max == 2
    assert params(gamma=2.5).tau_max == 4


@given(st.floats(0.01, 2.0), st.floats(0.01, 0.5), st.floats(0, 5),
       st.integers(1, 20), st.integers(1, 200))
@settings(max_examples=300)
def test_threshold_monotonicities(rho, eps, gamma, k, r):
    base = delta_threshold(params(rho, eps, gamma, k), 10.0, k, r)
    assert delta_threshold(params(rho, eps, gamma + 0.5, k), 10.0, k, r) <= base
    assert delta_threshold(params(rho, min(eps * 2, 0.99), gamma, k), 10.0, k, r) <= base
    assert delta_threshold(params(rho * 1.5, eps, gamma, k), 10.0, k, r) >= base
    assert delta_threshold(params(rho, eps, gamma, k), 10.0, k, r + 50) >= base


# ---------------------------------------------------------------------------
# bound Monte Carlo
# ---------------------------------------------------------------------------

def test_zero_noise_never_violates():
    p = params(rho=0.0)
    assert staleness_bound_violation_rate(p, 10.0, 0.0, 4, 50, trials=200) == 0.0


def test_certified_buffer_keeps_violations_below_epsilon():
    p = params(rho=0.9, gamma=0.2)
    delta = delta_threshold(p, 10.0, 4, 50)
    rate = staleness_bound_violation_rate(p, 10.0, delta, 4, 50, trials=2000,
                                          seed=3)
    assert rate <= 0.05 + 2 * math.sqrt(0.05 / 2000)


def test_undersized_buffer_at_tight_tau_violates_often():
    # tau_max = 1 and no slack: violations need e > T_sync, which at rho = 8
    # happens with probability ~0.106 per draw, so nearly every run violates
    p = params(rho=8.0, gamma=0.0)
    rate = staleness_bound_violation_rate(p, 10.0, 0.0, 4, 50, trials=500,
                                          seed=4)
    assert rate > 0.5


@pytest.mark.parametrize("gammas, deltas", [((0.0011, 0.0014), (0.5, 0.5)),
                                             ((0.2, 0.2), (1.0011, 1.0014))])
def test_nearby_grid_points_draw_from_distinct_streams(monkeypatch, gammas, deltas):
    keys = []

    def recording_substream(seed, *key):
        keys.append((seed, *key))
        return substream(seed, *key)

    monkeypatch.setattr(metrics, "substream", recording_substream)
    for gamma, delta in zip(gammas, deltas):
        staleness_bound_violation_rate(params(rho=0.9, gamma=gamma), 10.0, delta,
                                       4, 5, trials=100)
    assert len(keys) == 2
    first, second = (substream(*key).standard_normal(8) for key in keys)
    assert not np.array_equal(first, second)


# ---------------------------------------------------------------------------
# prediction-error statistics
# ---------------------------------------------------------------------------

def test_perfect_predictor_stats():
    log = empty_log(num_clients=1)
    add_arrivals(log, [arrival(0, r, r * 10 + 3, q=2.0, q_hat=2.0)
                       for r in range(5)])
    row = prediction_error_stats(log)[0]
    assert row["mean"] == 0.0 and row["std"] == 0.0


def test_two_point_stats():
    log = empty_log(num_clients=1)
    add_arrivals(log, [arrival(0, 0, 3.0, q=1.0, q_hat=2.0),
                       arrival(0, 1, 13.0, q=3.0, q_hat=2.0)])
    row = prediction_error_stats(log)[0]
    assert row["mean"] == pytest.approx(0.0)
    assert row["std"] == pytest.approx(math.sqrt(2))


def test_injected_gaussian_errors_recovered():
    rng = np.random.default_rng(0)
    log = empty_log(num_clients=1)
    errs = 0.4 * rng.standard_normal(10_000)
    add_arrivals(log, [arrival(0, r, r * 10 + 3, q=2.0 + e, q_hat=2.0)
                       for r, e in enumerate(errs)])
    row = prediction_error_stats(log)[0]
    assert abs(row["std"] - 0.4) < 0.02


def test_too_few_observations_marked_undefined():
    log = empty_log(num_clients=2)
    add_arrivals(log, [arrival(0, 0, 3.0, q=1.0, q_hat=2.0)])
    rows = prediction_error_stats(log)
    assert rows[0]["mean"] is None and rows[1]["mean"] is None


# ---------------------------------------------------------------------------
# delayed descent probe
# ---------------------------------------------------------------------------

def test_stale_dynamics_do_not_beat_fresh_ones():
    obj = QuadraticObjective(np.diag([1.0, 2.0, 4.0]), np.zeros((4, 3)))
    fresh = metrics.delayed_quadratic_descent(obj, 0, 120, 0.003, 70)
    stale = metrics.delayed_quadratic_descent(obj, 4, 120, 0.003, 70)
    assert stale[-20:].mean() >= fresh[-20:].mean()
    assert fresh[-1] < fresh[0]


# ---------------------------------------------------------------------------
# the event stream is the whole record
# ---------------------------------------------------------------------------

def small_run(algo, broadcast_when="next_round", dataset="synthetic",
              lr_base=None):
    cfg = default_config()
    cfg.protocol.algo = algo
    cfg.protocol.num_rounds = 10
    cfg.workload.train_size = 400
    cfg.workload.test_size = 200
    cfg.workload.dim = 6
    cfg.workload.classes = 4
    cfg.workload.dataset = dataset
    cfg.fedqueue.broadcast_when = broadcast_when
    cfg.fedqueue.queue_rho = 0.9
    if lr_base is not None:
        cfg.fedqueue.lr_base = lr_base
    return run_experiment(cfg)


@pytest.mark.parametrize("algo, broadcast_when, dataset, lr_base, failed", [
    ("fedqueue", "next_round", "synthetic", None, False),
    ("fedqueue", "immediate", "synthetic", None, False),
    ("fedbuff", "next_round", "synthetic", None, False),
    ("fedqueue", "next_round", "quadratic", 5.0, True),
])
def test_log_rebuilt_from_its_events_alone(tmp_path, algo, broadcast_when,
                                           dataset, lr_base, failed):
    log = small_run(algo, broadcast_when, dataset, lr_base)
    assert log.failed == failed
    assert sum(r.deferred for r in log.rounds) > 0     # stale admissions
    rebuilt = MetricsLog(
        algo=log.algo, seed=log.seed, num_clients=log.num_clients,
        t_sync=log.t_sync, horizon=log.horizon, config=log.config,
        events=list(log.events), total_local_steps=log.total_local_steps,
        failed=log.failed, failure_reason=log.failure_reason)
    assert rebuilt.checksum() == log.checksum()
    write_outputs(log, tmp_path / "original")
    write_outputs(rebuilt, tmp_path / "rebuilt")
    for name in ("summary.json", "rounds.csv", "events.jsonl"):
        assert ((tmp_path / "rebuilt" / name).read_bytes()
                == (tmp_path / "original" / name).read_bytes())
