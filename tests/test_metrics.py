import csv
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import pickle
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedqueue import metrics, protocol
from fedqueue.config import default_config
from fedqueue.engine import run_experiment
from fedqueue.learn import QuadraticObjective
from fedqueue.metrics import (EVENT_FIELDS, MetricsLog,
                              StalenessBoundParams, admission_summary,
                              budget_collapse_rho, delay_statistics,
                              delta_threshold, prediction_error_stats,
                              staleness_bound_violation_rate, time_to_target,
                              write_outputs)
from fedqueue.streams import substream

import parity_corpus
from small_runs import rounds


def empty_log(**kw):
    defaults = dict(algo="fedqueue", seed=0, num_clients=4, t_sync=10.0,
                    horizon=500.0)
    defaults.update(kw)
    return MetricsLog(**defaults)


def arrival(k, s, arrival_t, q=1.0, q_hat=float("nan"), tau=0, t_sync=10.0):
    return protocol.ClientUpdate(client=k, submit_round=s, delta=None,
                                 submit_time=s * t_sync, q=q, q_hat=q_hat,
                                 arrival=arrival_t, agg_round=s + tau, tau=tau,
                                 steps_done=10)


def add_evals(log, evals):
    for t, loss, acc in evals:
        log.event(t, "eval", loss=loss, accuracy=acc)


def add_arrivals(log, arrivals):
    # one aggregate per run of arrivals applied in one round; only the
    # arrival records matter here
    for _, applied in itertools.groupby(arrivals, key=lambda a: a.agg_round):
        log.event(0.0, "aggregate", list(applied))


# ---------------------------------------------------------------------------
# time to target
# ---------------------------------------------------------------------------

def test_first_crossing_of_monotone_series():
    log = empty_log()
    add_evals(log, [(10.0, 1.0, 0.5), (20.0, 0.5, 0.96)])
    assert time_to_target(log.evals, 0.95) == 20.0


def test_unreached_target_returns_marker():
    log = empty_log()
    add_evals(log, [(10.0, 1.0, 0.5)])
    assert time_to_target(log.evals, 0.99) is None


def test_zero_target_hits_first_evaluation():
    log = empty_log()
    add_evals(log, [(3.0, 1.0, 0.1), (6.0, 0.9, 0.2)])
    assert time_to_target(log.evals, 0.0) == 3.0


def test_time_to_target_monotone_in_target():
    log = empty_log()
    add_evals(log, [(t, 1.0, a) for t, a in
                    [(0, 0.1), (10, 0.4), (20, 0.7), (30, 0.9)]])
    times = [time_to_target(log.evals, v) for v in (0.1, 0.4, 0.7, 0.9)]
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


@pytest.mark.parametrize("rho, gamma", [(math.inf, 0.2), (math.nan, 0.2),
                                        (0.4, math.inf), (0.4, math.nan)])
def test_nonfinite_bound_constants_rejected(rho, gamma):
    with pytest.raises(ValueError, match="must be finite"):
        params(rho=rho, gamma=gamma)


@pytest.mark.parametrize("rho", [1e200, 1e154])   # rho ** 2 overflows; 2 rho ** 2 does
def test_overflowing_threshold_raises_without_numpy_warnings(rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="delta\\* overflows"):
            delta_threshold(params(rho=rho, gamma=0.0), 10.0, 4, 50)


def test_budgets_collapse_where_delta_star_reaches_t_sync():
    # check-lemma1's defaults: K = 4, R = 50, eps = 0.05, T_sync = 10
    assert delta_threshold(params(rho=3.0), 10.0, 4, 50) == pytest.approx(10.2185, abs=1e-4)
    assert delta_threshold(params(rho=5.0), 10.0, 4, 50) == pytest.approx(18.3642, abs=1e-4)
    assert delta_threshold(params(rho=4.0, gamma=1.0), 10.0, 4, 50) < 10.0
    assert delta_threshold(params(rho=5.0, gamma=1.0), 10.0, 4, 50) == \
        pytest.approx(10.3642, abs=1e-4)
    for gamma, limit in ((0.2, 2.9463), (1.0, 4.9105)):
        rho = budget_collapse_rho(gamma, 0.05, 10.0, 4, 50)
        assert rho == pytest.approx(limit, abs=1e-4)
        assert delta_threshold(params(rho=rho, gamma=gamma), 10.0, 4, 50) == \
            pytest.approx(10.0, rel=1e-12)
        assert delta_threshold(params(rho=0.99 * rho, gamma=gamma), 10.0, 4, 50) < 10.0


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
    assert sum(r.deferred for r in rounds(log)) > 0    # stale admissions
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


# ---------------------------------------------------------------------------
# the record's schema, the streamed checksum and the writer's memory
# ---------------------------------------------------------------------------

def named_values(e) -> dict:
    """An event's values by the field names its kind declares."""
    return dict(zip(EVENT_FIELDS[e.kind], e.values))


def test_event_takes_exactly_its_declared_names():
    log = empty_log()
    job = protocol.ClientUpdate(client=0, submit_round=0, delta=None, q=0.5,
                                arrival=2.0, steps_done=3, eta=0.1, q_hat=0.2,
                                submit_time=1.0)
    log.event(1.0, "dispatch", job)
    assert named_values(log.events[0]) == dict(client=0, round=0, steps=3,
                                               eta=0.1, q_hat=0.2)
    with pytest.raises(ValueError, match="undeclared"):
        log.event(1.0, "undeclared", client=0)
    for names in ({"client": 0}, {"client": 0, "q": 1.0, "round": 2},
                  {"q": 1.0, "client": 0}, {"client": 0, "qq": 1.0}):
        with pytest.raises(ValueError, match="warmup_probe"):
            log.event(0.0, "warmup_probe", **names)
    # a job's events hold its record and no fields
    for kind in ("dispatch", "job_start", "arrival"):
        for data, names in ((None, {"client": 0}), (job, {"client": 0}),
                            (dataclasses.astuple(job), {}), ([job], {})):
            with pytest.raises(ValueError, match=kind):
                log.event(1.0, kind, data, **names)
    # an aggregate holds the records it applied, at least one, all of one round
    applied = dataclasses.replace(job, agg_round=1, tau=1)
    for data, names in (([], {}), ([job], {}), (job, {}), ((applied,), {}),
                        ([applied, dataclasses.replace(applied, agg_round=2)], {}),
                        ([applied, 0.5], {}), ([applied], {"round": 1})):
        with pytest.raises(ValueError, match="aggregate"):
            log.event(3.0, "aggregate", data, **names)
    log.event(3.0, "aggregate", [applied])
    assert named_values(log.events[1]) == dict(round=1, clients=[0], taus=[1])
    assert len(log.events) == 2


def test_log_survives_pickle_unchanged(tmp_path):
    log = small_run("fedqueue", "immediate")
    copy = pickle.loads(pickle.dumps(log))
    assert copy.events == log.events and copy.checksum() == log.checksum()
    write_outputs(log, tmp_path / "original")
    write_outputs(copy, tmp_path / "copy")
    for name in ("summary.json", "rounds.csv", "events.jsonl"):
        assert ((tmp_path / "copy" / name).read_bytes()
                == (tmp_path / "original" / name).read_bytes())


# the names of a pinned checksum document's arrival records
ARRIVAL_RECORD = ("client", "submit_round", "submit_time", "q", "q_hat",
                  "compute_seconds", "arrival", "agg_round", "tau", "steps_done")


def reference_checksum(log) -> str:
    """The checksum as one document: sha256 of the whole JSON string."""
    payload = {
        "rounds": [r._asdict() for r in rounds(log)],
        "arrivals": [{name: getattr(a, name) for name in ARRIVAL_RECORD}
                     for a in log.arrivals],
        "evals": log.evals,
    }
    blob = json.dumps(payload, sort_keys=True, default=float).encode()
    return hashlib.sha256(blob).hexdigest()


# parity-corpus variants: fedqueue in both broadcast modes, every baseline,
# a run that fails before its first aggregation, skipped rounds, and a
# diverged run whose loss reads inf
REFERENCE_RUNS = (
    "grid-fedqueue-synthetic-next_round-lr0.03",
    "grid-fedqueue-synthetic-immediate-lr0.03",
    "grid-fedavg-synthetic-next_round-lr0.03",
    "grid-fedasync-synthetic-next_round-lr0.03",
    "grid-fedbuff-synthetic-next_round-lr0.03",
    "grid-fedcompass-synthetic-immediate-lr0.03",
    "mlp-fedqueue-lr3e+307",
    "slow-throughput-fedqueue-quadratic",
    "grid-fedqueue-quadratic-next_round-lr3",
)


# the benchmark's quadratic workload at 12 clients: each of its round rows
# holds one to three of the twelve, so its rows print through many of the
# writer's per-row templates
QUAD_RUNS = {f"quad-dispatch-{algo}": algo for algo in ("fedasync", "fedbuff")}


@pytest.fixture(scope="module")
def reference_logs():
    logs = {name: run_experiment(parity_corpus.config(name)) for name in REFERENCE_RUNS}
    logs.update((name, run_experiment(quad_dispatch_config(algo, 20)))
                for name, algo in QUAD_RUNS.items())
    return logs


def test_reference_runs_cover_the_edge_cases(reference_logs):
    logs = reference_logs.values()
    assert {log.algo for log in logs} == {"fedqueue", "fedavg", "fedasync",
                                          "fedbuff", "fedcompass"}
    assert {log.config["fedqueue.broadcast_when"] for log in logs
            if log.algo == "fedqueue"} == {"next_round", "immediate"}
    assert any(log.failed and not log.arrivals for log in logs)
    assert any(log.skipped_rounds for log in logs)
    assert any(log.failed and math.inf in [loss for _, loss, _ in log.evals]
               for log in logs)


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_streamed_checksum_matches_the_whole_document(name, reference_logs, tmp_path):
    log = reference_logs[name]
    expected = reference_checksum(log)
    assert log.checksum() == expected
    assert write_outputs(log, tmp_path)["checksum"] == expected
    assert json.loads((tmp_path / "summary.json").read_text())["checksum"] == expected


def reference_events(log) -> bytes:
    """events.jsonl as one json.dumps of a dict per line."""
    return "".join(json.dumps({"t": round(float(e.t), 9), "kind": e.kind,
                               **named_values(e)}, default=float) + "\n"
                   for e in log.events).encode()


def reference_csv_cells(row) -> list:
    """rounds.csv cells of one round row, for csv.writer; a NaN cell is empty."""
    r, time, loss, accuracy, admitted, deferred, mean_tau, max_tau, *columns = row
    cells = [r, f"{time:.6f}", f"{loss:.8f}",
             "" if accuracy is None else f"{accuracy:.6f}",
             admitted, deferred, f"{mean_tau:.4f}", max_tau]
    cells += [v if v == v else "" for column in columns for v in column]
    return cells


def reference_rounds_csv(log) -> bytes:
    """rounds.csv as csv.writer writes it, one line per round row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(metrics.rounds_header(log.num_clients))
    writer.writerows(map(reference_csv_cells, rounds(log)))
    return buf.getvalue().encode()


def assert_outputs_match_the_oracles(log, out_dir):
    assert write_outputs(log, out_dir)["checksum"] == reference_checksum(log)
    assert (out_dir / "events.jsonl").read_bytes() == reference_events(log)
    assert (out_dir / "rounds.csv").read_bytes() == reference_rounds_csv(log)


@pytest.mark.parametrize("name", REFERENCE_RUNS + tuple(QUAD_RUNS))
def test_written_files_match_their_oracles(name, reference_logs, tmp_path):
    assert_outputs_match_the_oracles(reference_logs[name], tmp_path)


# values the templates must print as json.dumps and csv.writer do
EDGE_FLOATS = (-0.0, 5e-324, 1e16, 1e22, 0.1, 2.5)
finite = st.sampled_from(EDGE_FLOATS) | st.floats(-1e6, 1e6)
any_float = finite | st.sampled_from((math.nan, math.inf, -math.inf)) | st.floats()


@st.composite
def edge_logs(draw):
    """A hand-built log of up to 12 events with edge values: non-finite or
    None eta and q_hat, non-finite losses and None accuracies."""
    k = draw(st.integers(1, 3))
    log = empty_log(algo=draw(st.sampled_from(["fedqueue", "fedasync"])), num_clients=k)
    kinds = sorted(EVENT_FIELDS)
    if log.algo != "fedqueue":
        kinds.remove("skipped_round")          # only fedqueue skips rounds
    values = {"client": st.integers(0, k - 1), "round": st.integers(0, 1),
              "steps": st.integers(0, 8), "q": finite}

    def jobs(q_hat, **applied):
        """Job records; an applied one's reported statistics need a finite
        or NaN q_hat."""
        return st.builds(protocol.ClientUpdate, client=values["client"],
                         submit_round=values["round"], delta=st.none(),
                         submit_time=finite, q=finite, q_hat=q_hat, arrival=finite,
                         steps_done=values["steps"], eta=any_float | st.none(),
                         **applied)

    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        t = draw(st.sampled_from(EDGE_FLOATS) | st.floats(0, 1e6))
        if kind == "eval":
            accuracy = st.none() | st.sampled_from(EDGE_FLOATS) | st.floats(0, 1)
            log.event(t, kind, loss=draw(any_float), accuracy=draw(accuracy))
        elif kind in ("dispatch", "job_start", "arrival"):
            log.event(t, kind, draw(jobs(any_float | st.none())))
        elif kind == "aggregate":
            applied = jobs(finite | st.just(math.nan), tau=st.integers(0, 3),
                           agg_round=st.just(draw(values["round"])))
            log.event(t, kind, draw(st.lists(applied, min_size=1, max_size=3)))
        else:
            log.event(t, kind, **{name: draw(values[name]) for name in EVENT_FIELDS[kind]})
    return log


def _nonfinite_round():
    # K = 1: a round row with infinite and None per-client cells and no
    # accuracy, closed by an aggregate of its first job
    log = empty_log(num_clients=1)
    first = protocol.ClientUpdate(client=0, submit_round=0, delta=None, q=-0.0,
                                  arrival=4.0, steps_done=1, eta=math.inf,
                                  q_hat=-math.inf, submit_time=1.0)
    log.event(1.0, "dispatch", first)
    log.event(2.0, "dispatch", protocol.ClientUpdate(
        client=0, submit_round=1, delta=None, q=5e-324, arrival=12.0,
        steps_done=1, eta=None, q_hat=math.nan, submit_time=2.0))
    log.event(3.0, "eval", loss=math.inf, accuracy=None)
    first.agg_round, first.tau = 0, 0
    log.event(5.0, "aggregate", [first])
    log.event(6.0, "skipped_round", round=1)
    return log


def _zero_then_negative_zero():
    # two time objects that compare equal: each prints its own sign
    log = empty_log(num_clients=1)
    log.event(0.0, "skipped_round", round=0)
    log.event(-0.0, "eval", loss=1.0, accuracy=0.5)
    return log


@given(edge_logs())
@example(empty_log(num_clients=1))
@example(_nonfinite_round())
@example(_zero_then_negative_zero())
@settings(max_examples=150, deadline=None)
def test_edge_values_print_as_the_oracles_do(log):
    assert log.checksum() == reference_checksum(log)
    with tempfile.TemporaryDirectory() as out_dir:
        assert_outputs_match_the_oracles(log, Path(out_dir))


def _targets_out_of_order():
    # accuracies that reach targets out of order, tie at their maximum and
    # end on an eval with no accuracy
    log = empty_log(num_clients=1)
    for t, acc in enumerate((0.55, 0.9, None, 0.75, 0.9, 0.6, None)):
        log.event(float(t), "eval", loss=1.0 / (t + 1), accuracy=acc)
    return log


@given(edge_logs())
@example(empty_log(num_clients=1))
@example(_nonfinite_round())
@example(_targets_out_of_order())
@settings(max_examples=150, deadline=None)
def test_summary_reads_the_evaluations_as_their_definitions_do(log):
    s, evals = log.summary(), log.evals
    accs = [acc for _, _, acc in evals if acc is not None]
    assert s["max_accuracy"] == (max(accs) if accs else None)
    assert s["final_accuracy"] == (accs[-1] if accs else None)
    # the last evaluation's loss, a NaN one too
    assert repr(s["final_loss"]) == repr(evals[-1][1] if evals else None)
    assert s["time_to_target"] == {str(t): time_to_target(evals, t)
                                   for t in metrics.TARGETS}
    if not accs:
        assert s["max_accuracy"] is s["final_accuracy"] is None
        assert set(s["time_to_target"].values()) == {None}


def chunked_sections(log) -> dict:
    """(records, JSON values per record) of each section written a chunk
    at a time."""
    width = 8 + len(metrics._held_columns(log.algo)) * log.num_clients
    return {"rounds": (len(rounds(log)), width),
            "arrivals": (len(log.arrivals), 10),
            "evals": (len(log.evals), 3),
            "events": (len(log.events), metrics._LINE_WIDTH)}


@pytest.mark.parametrize("past", [0, 1], ids=["on", "one-past"])
@pytest.mark.parametrize("section", ["rounds", "arrivals", "evals", "events"])
def test_chunk_boundaries_change_no_byte(section, past, reference_logs,
                                         monkeypatch, tmp_path):
    # a chunk size that ends a section exactly on a chunk boundary, or one
    # record past one
    log = reference_logs["grid-fedqueue-synthetic-immediate-lr0.03"]
    count, width = chunked_sections(log)[section]
    assert count - past >= 2
    write_outputs(log, tmp_path / "default")
    monkeypatch.setattr(metrics, "CHUNK_VALUES", width * (count - past))
    assert log.checksum() == reference_checksum(log)
    write_outputs(log, tmp_path / "chunked")
    for name in ("summary.json", "rounds.csv", "events.jsonl"):
        assert ((tmp_path / "chunked" / name).read_bytes()
                == (tmp_path / "default" / name).read_bytes())


def quad_dispatch_config(algo, rounds):
    """The benchmark's quadratic workload: 12 clients, jobs of 1-8 steps,
    immediate broadcast."""
    k = 12
    cfg = default_config()
    cfg.protocol.algo = algo
    cfg.protocol.num_clients = k
    cfg.protocol.num_rounds = rounds
    cfg.workload.dataset = "quadratic"
    cfg.workload.dim = 16
    fq = cfg.fedqueue
    fq.broadcast_when = "immediate"
    fq.queue_rho = 0.9
    fq.queue_means = tuple((1.0, 2.0, 4.0, 8.0)[i % 4] for i in range(k))
    fq.queue_fixed = tuple(fq.queue_fixed[i % len(fq.queue_fixed)] for i in range(k))
    fq.slowdown = (1.0,) * k
    fq.throughput = (1.0,) * k
    cfg.fedasync.num_local_steps = 5
    cfg.fedavg.num_local_steps = tuple((6, 15, 14, 2)[i % 4] for i in range(k))
    return cfg


def test_write_outputs_holds_little_beyond_the_log(tmp_path):
    # the writer streams: its peak beyond the log is about one chunk, not a
    # copy of the record as one JSON string or one list of rows
    gc.collect()
    tracemalloc.start()
    try:
        log = run_experiment(quad_dispatch_config("fedasync", 100))
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_outputs(log, tmp_path)
        extra = tracemalloc.get_traced_memory()[1] - size
    finally:
        tracemalloc.stop()
    assert len(log.events) > 5000
    assert extra < 0.25 * size, (extra, size)
