import numpy as np
import pytest

from fedqueue import baselines, engine, protocol
from fedqueue.baselines import compass_assignments
from fedqueue.protocol import staleness
from fedqueue.config import default_config
from fedqueue.engine import run_experiment

from small_runs import dispatches, rounds


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
    assert staleness("polynomial", {"a": 1.0})(0) == 1.0


def test_polynomial_factor_decays():
    assert staleness("polynomial", {"a": 1.0})(3) == pytest.approx(0.25)


def test_constant_factor():
    for tau in (0, 1, 7):
        assert staleness("constant", {})(tau) == 1.0


def test_hinge_factor():
    kw = {"a": 10.0, "b": 4.0}
    assert staleness("hinge", kw)(4) == 1.0
    assert staleness("hinge", kw)(6) == pytest.approx(1.0 / 21.0)


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
    assert rounds(log)[0].time == pytest.approx(7.0)
    # stationary inter-round gap equals the same blocking length
    gaps = np.diff([r.time for r in rounds(log)])
    assert np.allclose(gaps, 7.0)


def test_fedavg_never_stale():
    log = run_experiment(quick_config("fedavg", fedqueue__queue_rho=0.9))
    assert all(a.tau == 0 for a in log.arrivals)
    assert all(r.max_tau == 0 for r in rounds(log))


def test_fedavg_aggregate_matches_protocol_core():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(5)
    deltas = [rng.standard_normal(5) for _ in range(4)]
    manual = w + sum(0.25 * d for d in deltas)
    via_protocol = protocol.aggregate(w, [(0.25, d) for d in deltas])
    assert np.allclose(via_protocol, manual, rtol=1e-12)


# ---------------------------------------------------------------------------
# fedasync
# ---------------------------------------------------------------------------

def test_fedasync_aggregates_every_arrival():
    log = run_experiment(quick_config("fedasync"))
    aggregates = sum(1 for e in log.events if e.kind == "aggregate")
    assert aggregates == len(log.arrivals)
    assert all(r.admitted == 1 for r in rounds(log))


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
    clients = [log.events[i].data.client for i in arrivals]
    assert len(arrivals) % 3 != 0     # the run ends with a partial buffer
    assert len(aggregates) == len(arrivals) // 3 > 0
    for j, at in enumerate(aggregates):
        assert [m.client for m in log.events[at].data] == clients[3 * j: 3 * j + 3]
        assert arrivals[3 * j + 2] < at
        assert 3 * j + 3 == len(arrivals) or at < arrivals[3 * j + 3]


def test_buffer_of_one_behaves_like_fedasync_cadence():
    async_log = run_experiment(quick_config("fedasync"))
    buff_log = run_experiment(quick_config("fedbuff", fedbuff__k=1))
    assert len(rounds(buff_log)) == len(rounds(async_log))
    assert [r.admitted for r in rounds(buff_log)] == [1] * len(rounds(buff_log))


def test_full_buffer_with_synchronous_arrivals_reduces_to_fedavg_average():
    # one flush of K fresh updates at mixing 1 and constant weighting equals
    # the plain delta average
    rng = np.random.default_rng(1)
    w = rng.standard_normal(4)
    deltas = [rng.standard_normal(4) for _ in range(4)]
    mixed = sum(staleness("constant", {})(0) * d for d in deltas)
    fedbuff_step = w + 1.0 * mixed / 4
    fedavg_step = protocol.aggregate(w, [(0.25, d) for d in deltas])
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
    sim = engine.Simulation(quick_config("fedcompass"))
    log = sim.log
    orch = baselines.FedCompassOrchestrator(sim)
    orch.start()
    assert orch.speeds.tolist() == [10.0] * 4
    assert [d.data.steps_done for d in dispatches(log)] == [200] * 4

    def update(k, steps, q, arrival):
        return protocol.ClientUpdate(
            client=k, submit_round=0, delta=np.zeros_like(orch.w), q=q,
            arrival=arrival, steps_done=steps, submit_time=0.0)

    sim.now = 3.0
    # 28 steps in 2 s of compute observe 14 steps/s: v' = 0.6 * 10 + 0.4 * 14
    orch.on_arrival(update(0, 28, 1.0, 3.0))
    assert orch.speeds[0] == pytest.approx(11.6)
    # an update without steps carries no speed information
    orch.on_arrival(update(1, 0, 3.0, 3.0))
    assert orch.speeds[1] == 10.0
    orch.on_arrival(update(2, 20, 1.0, 3.0))
    assert not rounds(log)                 # cohort still waits for client 3
    orch.on_arrival(update(3, 20, 1.0, 3.0))
    assert orch.speeds.tolist() == pytest.approx([11.6, 10.0, 10.0, 10.0])
    # the full cohort aggregates once, then re-dispatches on the new speeds
    assert [r.admitted for r in rounds(log)] == [4]
    expected = compass_assignments(orch.speeds, 20, 200, 1.1).tolist()
    assert expected == [200, 189, 189, 189]
    assert [d.data.steps_done for d in dispatches(log)[4:]] == expected


def test_compass_assignment_bounds_hold_in_run():
    cfg = quick_config("fedcompass", fedqueue__queue_rho=0.9)
    log = run_experiment(cfg)
    for d in dispatches(log):
        assert 20 <= d.data.steps_done <= 200


# ---------------------------------------------------------------------------
# arrival oracles: hand-computed traces, fed to the server without the event
# loop.  The jobs these dispatches queue never run; each arrival brings a
# hand-made delta, and every value below is exact in binary floating point.
# ---------------------------------------------------------------------------

def two_client_server(algo, **over):
    """(simulation, orchestrator) of a two-client quadratic, the server
    model set to [1, -2] and started: both clients dispatched at version 0."""
    two = dict(protocol__num_clients=2, workload__dataset="quadratic",
               workload__dim=2, fedqueue__throughput=(10.0, 20.0),
               fedqueue__slowdown=(1.0, 1.0), fedqueue__queue_fixed=(0.5, 1.5),
               fedqueue__queue_means=(1.5, 2.5), fedavg__num_local_steps=(15, 30))
    sim = engine.Simulation(quick_config(algo, **two, **over))
    orch = baselines.ORCHESTRATORS[algo](sim)
    orch.w = np.array([1.0, -2.0])
    orch.start()
    return sim, orch


def arrive(sim, orch, k, submit_round, delta, steps=155, q=0.5, submit_time=0.0):
    """One arrival at t + 1; returns the server model after it."""
    sim.now += 1.0
    orch.on_arrival(protocol.ClientUpdate(
        client=k, submit_round=submit_round, delta=np.array(delta), q=q,
        arrival=sim.now, steps_done=steps, submit_time=submit_time))
    return orch.w.tolist()


def test_fedasync_arrivals_match_hand_computed_oracle_bitwise():
    # alpha = 0.5, s(tau) = 1 / (1 + tau):
    # w <- (1 - a) w + a (w_k + delta),  a = 0.5 s(tau), w_k the model k got
    sim, orch = two_client_server("fedasync")
    # tau 0, a = 1/2, w_1 = [1, -2]; client 1 is re-dispatched with the result
    assert arrive(sim, orch, 1, 0, [0.5, 0.25]) == [1.25, -1.875]
    # tau 1, a = 1/4, w_0 = [1, -2]
    assert arrive(sim, orch, 0, 0, [-1.0, 0.5]) == [0.9375, -1.78125]
    # tau 2 - 1 = 1, a = 1/4, w_1 = [1.25, -1.875]
    assert arrive(sim, orch, 1, 1, [0.25, 0.25]) == [1.078125, -1.7421875]
    assert [a.tau for a in sim.log.arrivals] == [0, 1, 1]
    assert sim.version == 3


def test_fedbuff_arrivals_match_hand_computed_oracle_bitwise():
    # K_buf = 2, alpha = 0.5, s(tau) = 1 / (1 + tau):
    # w <- w + alpha * sum(s(tau_i) delta_i) / 2 once two updates wait
    sim, orch = two_client_server("fedbuff", fedbuff__k=2)
    assert arrive(sim, orch, 0, 0, [0.5, 0.25]) == [1.0, -2.0]
    # taus 0, 0: w + 0.25 [-0.5, 0.75]
    assert arrive(sim, orch, 1, 0, [-1.0, 0.5]) == [0.875, -1.8125]
    assert arrive(sim, orch, 0, 0, [0.25, 0.5]) == [0.875, -1.8125]
    # taus 1, 0: w + 0.25 (0.5 [0.25, 0.5] + [0.5, -0.5])
    assert arrive(sim, orch, 1, 1, [0.5, -0.5]) == [1.03125, -1.875]
    assert [a.tau for a in sim.log.arrivals] == [0, 0, 1, 0]
    assert sim.version == 2


def test_fedcompass_arrivals_match_hand_computed_oracle_bitwise():
    # speeds [10, 20]: a window of 1.1 * 200 / 20 = 11 s, steps [110, 200]
    sim, orch = two_client_server("fedcompass")
    assert [d.data.steps_done for d in dispatches(sim.log)] == [110, 200]
    # client 1: 200 steps in 9 - 1 = 8 s, 25 steps/s: 0.6 * 20 + 0.4 * 25
    sim.now = 8.0
    assert arrive(sim, orch, 1, 0, [-1.0, 0.5], steps=200, q=1.0) == [1.0, -2.0]
    # client 0: 110 steps in 11 s, 10 steps/s; the cohort is complete:
    # w + (0.5 [0.5, 0.25] + 0.5 [-1, 0.5]) / (0.5 + 0.5)
    sim.now = 10.5
    assert arrive(sim, orch, 0, 0, [0.5, 0.25], steps=110, q=0.5) == [0.75, -1.625]
    assert orch.speeds.tolist() == [10.0, 22.0]
    # the next cohort's window: 1.1 * 200 / 22 s, floor(22 * 10.000000000000002)
    # = 220 clipped to 200
    assert [d.data.steps_done for d in dispatches(sim.log)] == [110, 200, 100, 200]
    # one arrival of the new cohort does not aggregate
    assert arrive(sim, orch, 0, 1, [0.5, 0.5], steps=100) == [0.75, -1.625]
    assert [a.tau for a in sim.log.arrivals] == [0, 0] and sim.version == 1


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


# ---------------------------------------------------------------------------
# cross-baseline identities
# ---------------------------------------------------------------------------

def run_with_model(cfg):
    """The run's log and the server's final model."""
    sim = engine.Simulation(cfg)
    orchestrator = baselines.ORCHESTRATORS[cfg.protocol.algo](sim)
    sim.run(orchestrator)
    return sim.log, orchestrator.w


def assert_same_run(cfg_a, cfg_b):
    (log_a, w_a), (log_b, w_b) = run_with_model(cfg_a), run_with_model(cfg_b)
    assert not log_a.failed and len(log_a.evals) > 1
    assert log_a.checksum() == log_b.checksum()
    assert np.array_equal(w_a, w_b)


def test_fedcompass_with_fixed_steps_equals_fedavg():
    speeds = dict(fedqueue__throughput=(10.0, 20.0, 5.0, 40.0))
    assert_same_run(
        quick_config("fedcompass", compass__min_local_steps=30,
                     compass__max_local_steps=30, **speeds),
        quick_config("fedavg", fedavg__num_local_steps=(30,) * 4, **speeds))


def test_single_client_fedasync_at_full_mixing_equals_fedbuff_of_one():
    one = dict(protocol__num_clients=1, fedqueue__throughput=(10.0,),
               fedqueue__slowdown=(1.0,), fedqueue__queue_fixed=(1.5,),
               fedqueue__queue_means=(2.5,), fedavg__num_local_steps=(15,),
               fedasync__num_local_steps=40, fedasync__staleness_fn="constant",
               fedasync__alpha=1.0, fedbuff__k=1)
    assert_same_run(quick_config("fedasync", **one), quick_config("fedbuff", **one))
