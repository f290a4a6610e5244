import numpy as np
import pytest

from fedqueue import baselines, engine, learn, metrics, protocol
from fedqueue.baselines import compass_assignments, staleness_factor
from fedqueue.config import default_config
from fedqueue.engine import run_experiment
from fedqueue.streams import substream


def quick_config(algo, **over):
    cfg = default_config()
    cfg.protocol.algo = algo
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


# ---------------------------------------------------------------------------
# staleness factors
# ---------------------------------------------------------------------------

def test_polynomial_factor_fresh():
    assert staleness_factor("polynomial", {"a": 1.0}, 0) == 1.0


def test_polynomial_factor_decays():
    assert staleness_factor("polynomial", {"a": 1.0}, 3) == pytest.approx(0.25)


def test_constant_factor():
    for tau in (0, 1, 7):
        assert staleness_factor("constant", {}, tau) == 1.0


def test_hinge_factor():
    kw = {"a": 10.0, "b": 4.0}
    assert staleness_factor("hinge", kw, 4) == 1.0
    assert staleness_factor("hinge", kw, 6) == pytest.approx(1.0 / 21.0)


# ---------------------------------------------------------------------------
# fedavg
# ---------------------------------------------------------------------------

def test_fedavg_round_length_is_max_queue_plus_compute():
    cfg = quick_config(
        "fedavg",
        protocol__num_clients=2,
        fedqueue__sim_queue="fixed",
        fedqueue__queue_fixed=(1.0, 5.0),
        fedqueue__queue_means=(1.0, 5.0),
        fedqueue__slowdown=(1.0, 1.0),
        fedqueue__throughput=(10.0, 10.0),
        fedavg__num_local_steps=(20, 20),
        workload__classes=2)
    log = run_experiment(cfg)
    assert log.rounds[0].time == pytest.approx(7.0)
    # stationary inter-round gap equals the same blocking length
    gaps = np.diff([r.time for r in log.rounds])
    assert np.allclose(gaps, 7.0)


def test_fedavg_never_stale():
    log = run_experiment(quick_config("fedavg", fedqueue__queue_rho=0.9))
    assert all(a.tau == 0 for a in log.arrivals)
    assert all(r.max_tau == 0 for r in log.rounds)


def test_fedavg_aggregate_matches_protocol_core():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(5)
    deltas = [rng.standard_normal(5) for _ in range(4)]
    manual = w + sum(0.25 * d for d in deltas)
    via_protocol = protocol.aggregate(
        w, [(0.25, 0, d) for d in deltas], protocol.StalenessDecay.flat())
    assert np.allclose(via_protocol, manual, rtol=1e-12)


# ---------------------------------------------------------------------------
# fedasync
# ---------------------------------------------------------------------------

def test_fedasync_aggregates_every_arrival():
    log = run_experiment(quick_config("fedasync"))
    aggregates = sum(1 for e in log.events if e.kind == "aggregate")
    assert aggregates == len(log.arrivals)
    assert all(r.admitted == 1 for r in log.rounds)


def test_fedasync_staleness_counted_in_versions():
    log = run_experiment(quick_config("fedasync", fedqueue__queue_rho=0.9))
    taus = [a.tau for a in log.arrivals]
    assert max(taus) >= 1          # concurrent clients overlap versions
    assert min(taus) >= 0


# ---------------------------------------------------------------------------
# fedbuff
# ---------------------------------------------------------------------------

def test_fedbuff_flushes_each_run_of_k_arrivals_in_event_order():
    # aggregate i applies the clients of arrivals 3i..3i+2, logged right
    # after arrival 3i+2; a partial tail of 1 or 2 arrivals is never applied
    log = run_experiment(quick_config("fedbuff", fedbuff__k=3,
                                      fedqueue__queue_rho=0.9))
    arrivals = [i for i, e in enumerate(log.events) if e.kind == "arrival"]
    aggregates = [i for i, e in enumerate(log.events) if e.kind == "aggregate"]
    clients = [log.events[i].fields["client"] for i in arrivals]
    assert len(arrivals) % 3 != 0     # the run ends with a partial buffer
    assert len(aggregates) == len(arrivals) // 3 > 0
    for j, at in enumerate(aggregates):
        assert log.events[at].fields["clients"] == clients[3 * j: 3 * j + 3]
        assert arrivals[3 * j + 2] < at
        assert 3 * j + 3 == len(arrivals) or at < arrivals[3 * j + 3]


def test_buffer_of_one_behaves_like_fedasync_cadence():
    async_log = run_experiment(quick_config("fedasync"))
    buff_log = run_experiment(quick_config("fedbuff", fedbuff__k=1))
    assert len(buff_log.rounds) == len(async_log.rounds)
    assert [r.admitted for r in buff_log.rounds] == [1] * len(buff_log.rounds)


def test_full_buffer_with_synchronous_arrivals_reduces_to_fedavg_average():
    # one flush of K fresh updates at mixing 1 and constant weighting equals
    # the plain delta average
    rng = np.random.default_rng(1)
    w = rng.standard_normal(4)
    deltas = [rng.standard_normal(4) for _ in range(4)]
    mixed = sum(staleness_factor("constant", {}, 0) * d for d in deltas)
    fedbuff_step = w + 1.0 * mixed / 4
    fedavg_step = protocol.aggregate(
        w, [(0.25, 0, d) for d in deltas], protocol.StalenessDecay.flat())
    assert np.allclose(fedbuff_step, fedavg_step, rtol=1e-12)


def test_fedbuff_aggregation_count():
    cfg = quick_config("fedbuff", fedbuff__k=3, fedqueue__queue_rho=0.9)
    log = run_experiment(cfg)
    aggregates = sum(1 for e in log.events if e.kind == "aggregate")
    assert aggregates == len(log.arrivals) // 3


# ---------------------------------------------------------------------------
# fedcompass
# ---------------------------------------------------------------------------

def test_compass_equal_speeds_equal_assignments():
    steps = compass_assignments(np.array([10.0, 10.0, 10.0]), 20, 200, 1.1)
    assert len(set(steps.tolist())) == 1


def test_compass_assignments_respect_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        speeds = rng.uniform(0.5, 50.0, size=4)
        steps = compass_assignments(speeds, 20, 200, 1.1)
        assert np.all(steps >= 20) and np.all(steps <= 200)


def test_compass_speed_momentum_update():
    cfg = quick_config("fedcompass")
    log = metrics.MetricsLog(algo="fedcompass", seed=cfg.protocol.seed,
                             num_clients=4, t_sync=10.0, horizon=100.0)
    sim = engine.Simulation(
        cfg, learn.build_objective(cfg, substream(cfg.protocol.seed, "data")),
        engine._build_queue_model(cfg), engine._build_profile(cfg), log)
    orch = baselines.FedCompassOrchestrator(sim)
    orch.start()
    assert orch.speeds.tolist() == [10.0] * 4
    assert [d.fields["steps"] for d in log.dispatches] == [200] * 4

    def update(k, steps, q, arrival):
        return protocol.ClientUpdate(
            client=k, submit_round=0, delta=np.zeros_like(orch.w), observed_q=q,
            arrival=arrival, steps_done=steps, submit_time=0.0)

    sim.now = 3.0
    # 28 steps in 2 s of compute observe 14 steps/s: v' = 0.6 * 10 + 0.4 * 14
    orch.on_arrival(update(0, 28, 1.0, 3.0))
    assert orch.speeds[0] == pytest.approx(11.6)
    # an update without steps carries no speed information
    orch.on_arrival(update(1, 0, 3.0, 3.0))
    assert orch.speeds[1] == 10.0
    orch.on_arrival(update(2, 20, 1.0, 3.0))
    assert not log.rounds                  # cohort still waits for client 3
    orch.on_arrival(update(3, 20, 1.0, 3.0))
    assert orch.speeds.tolist() == pytest.approx([11.6, 10.0, 10.0, 10.0])
    # the full cohort aggregates once, then re-dispatches on the new speeds
    assert [r.admitted for r in log.rounds] == [4]
    expected = compass_assignments(orch.speeds, 20, 200, 1.1).tolist()
    assert expected == [200, 189, 189, 189]
    assert [d.fields["steps"] for d in log.dispatches[4:]] == expected


def test_compass_assignment_bounds_hold_in_run():
    cfg = quick_config("fedcompass", fedqueue__queue_rho=0.9)
    log = run_experiment(cfg)
    for d in log.dispatches:
        assert 20 <= d.fields["steps"] <= 200


# ---------------------------------------------------------------------------
# cross-method fairness
# ---------------------------------------------------------------------------

def test_identical_delay_substreams_across_algorithms():
    logs = {}
    for algo in ("fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass"):
        cfg = quick_config(algo, fedqueue__queue_rho=0.9,
                           fedqueue__warmup_steps=0)
        logs[algo] = run_experiment(cfg)

    def delay_seq(log, k):
        mine = sorted((a for a in log.arrivals if a.client == k),
                      key=lambda a: a.submit_time)
        return [a.q for a in mine]

    for k in range(4):
        seqs = [delay_seq(log, k) for log in logs.values()]
        n = min(len(s) for s in seqs)
        assert n > 0
        for s in seqs[1:]:
            assert s[:n] == pytest.approx(seqs[0][:n])
