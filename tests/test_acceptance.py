"""Acceptance criteria, one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 3-5 run the
controlled study workload (16-feature 10-class mixture, class separation 4.5,
feature noise 1.5, 60 steps/s clients, 20-step floor, 120 rounds); criterion
3 additionally uses a heavy-tail facility profile for the queue medians.
Orderings and directions are asserted on medians over shared seed ladders;
exact values from any external study are explicitly not reproduction targets.
The controlled config is read from configs/controlled.ini; one more test
checks that the file holds it, and another that configs/heavy_tail.ini is
criterion 3's config.
"""
from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import fedqueue as fq
from fedqueue import learn, metrics, protocol
from fedqueue.engine import run_experiment, run_many, run_sweep
from fedqueue.streams import spawn_seed, substream

from small_runs import rounds

EPS = 0.05
TARGET = 0.84
JOBS = len(os.sched_getaffinity(0))   # run_many workers for the study grids
CONTROLLED = Path(__file__).resolve().parents[1] / "configs" / "controlled.ini"
HEAVY_TAIL = CONTROLLED.with_name("heavy_tail.ini")


def controlled_config(seed: int, algo: str = "fedqueue") -> fq.ExperimentConfig:
    cfg = fq.load_config(CONTROLLED)
    cfg.protocol.algo = algo
    cfg.protocol.seed = seed
    return cfg


def test_controlled_config_file_holds_the_study_config():
    cfg = fq.default_config()
    cfg.protocol.num_rounds = 120
    cfg.fedqueue.queue_rho = 0.9
    cfg.fedqueue.throughput = (60.0,) * 4
    cfg.fedqueue.e_floor = 20
    cfg.workload.dim = 16
    cfg.workload.classes = 10
    cfg.workload.class_sep = 4.5
    cfg.workload.noise = 1.5
    assert controlled_config(42) == cfg


def test_heavy_tail_config_file_is_the_controlled_config_with_heavy_tail_means():
    cfg = controlled_config(42)
    cfg.fedqueue.queue_means = (1.0, 2.0, 4.0, 8.0)
    assert fq.load_config(HEAVY_TAIL) == cfg


def tta_or_inf(log, target=TARGET) -> float:
    t = fq.time_to_target(log.evals, target)
    return math.inf if t is None else t


def report(n: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {n} ({name}): PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. staleness bound, quantitative Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_1_staleness_bound_grid():
    start = time.time()
    k, r, trials = 4, 50, 10_000
    threshold = EPS + 3 * math.sqrt(EPS * (1 - EPS) / trials)
    worst = 0.0
    for rho in (0.1, 0.5, 0.9):
        for gamma in (0.2, 1.0, 2.0, 4.0):
            params = fq.StalenessBoundParams(rho=np.full(k, rho),
                                             epsilon=EPS, gamma=gamma)
            delta = fq.delta_threshold(params, 10.0, k, r)
            rate = fq.staleness_bound_violation_rate(
                params, 10.0, delta, k, r, trials=trials, seed=42)
            assert rate <= threshold, \
                f"(rho={rho}, gamma={gamma}): rate {rate} > {threshold:.4f}"
            worst = max(worst, rate)
    report(1, "staleness bound", f"12 grid points, worst violation rate "
           f"{worst:.4f} <= {threshold:.4f}, {time.time()-start:.1f}s")


def test_criterion_1_power_check():
    # On criterion 1's grid even delta = 0 holds the bound, so that grid
    # passes whatever delta_threshold returns.  At rho = 10, delta = 0 must
    # violate it and delta* must hold it.
    k, r, trials = 4, 50, 2000
    threshold = EPS + 3 * math.sqrt(EPS * (1 - EPS) / trials)
    for gamma in (0.2, 1.0):
        params = fq.StalenessBoundParams(rho=np.full(k, 10.0), epsilon=EPS,
                                         gamma=gamma)
        delta = fq.delta_threshold(params, 10.0, k, r)
        unbuffered = fq.staleness_bound_violation_rate(
            params, 10.0, 0.0, k, r, trials=trials, seed=42)
        certified = fq.staleness_bound_violation_rate(
            params, 10.0, delta, k, r, trials=trials, seed=42)
        assert unbuffered > threshold, f"gamma={gamma}: delta = 0 holds ({unbuffered})"
        assert certified <= threshold, f"gamma={gamma}: delta* fails ({certified})"


# ---------------------------------------------------------------------------
# 2. delay-ratio grid shape at table defaults
# ---------------------------------------------------------------------------

def test_criterion_2_delay_ratio_grid_shape():
    start = time.time()
    cfg = fq.default_config()   # full table defaults

    def median_p_late(axis, values):
        results = run_sweep(cfg, [(axis, values)], trials=5, jobs=JOBS)
        return [statistics.median(
            fq.delay_statistics(res["log"])[0]
            for res in results if res["value"] == v) for v in values]

    p_rho = median_p_late("queue_rho", [0.1, 0.5, 0.9])
    assert p_rho[0] <= p_rho[1] <= p_rho[2], f"rho shape broken: {p_rho}"
    assert p_rho[0] < p_rho[2], f"rho sweep flat: {p_rho}"
    p_delta = median_p_late("delta", [2.8, 3.8, 5.8])
    assert p_delta[0] >= p_delta[1] >= p_delta[2], f"delta shape broken: {p_delta}"
    assert p_delta[0] > p_delta[2], f"delta sweep flat: {p_delta}"
    report(2, "delay-ratio grid", f"P_late rho {[f'{p:.3f}' for p in p_rho]} rising, "
           f"delta rising {[f'{p:.3f}' for p in p_delta]} falling, "
           f"{time.time()-start:.1f}s")


# ---------------------------------------------------------------------------
# 3. time-to-quality ordering under high queue variance
# ---------------------------------------------------------------------------

def test_criterion_3_time_to_quality_ordering():
    start = time.time()
    algos = ("fedqueue", "fedavg", "fedasync", "fedbuff")
    cfgs = []
    for algo in algos:
        for trial in range(7):
            cfg = controlled_config(spawn_seed(42, "fin", trial), algo)
            cfg.fedqueue.queue_means = (1.0, 2.0, 4.0, 8.0)  # heavy-tail profile
            cfgs.append(cfg)
    logs = run_many(cfgs, JOBS)
    medians = {algo: statistics.median(map(tta_or_inf, logs[7 * i:7 * i + 7]))
               for i, algo in enumerate(algos)}
    assert medians["fedqueue"] < medians["fedavg"], medians
    assert medians["fedqueue"] < medians["fedasync"], medians
    assert medians["fedasync"] > medians["fedavg"], medians
    assert medians["fedasync"] > medians["fedbuff"], medians
    report(3, "time-to-quality ordering",
           f"median tta@{TARGET}: " + ", ".join(
               f"{a}={medians[a]:.0f}s" for a in
               ("fedqueue", "fedbuff", "fedavg", "fedasync"))
           + f", {time.time()-start:.1f}s")


# ---------------------------------------------------------------------------
# 4. ablation directionality
# ---------------------------------------------------------------------------

def _ablation_configs(toggle: str | None, trials: int = 7):
    cfgs = []
    for trial in range(trials):
        cfg = controlled_config(spawn_seed(42, "abl2", trial))
        if toggle is not None:
            setattr(cfg.ablation, toggle, False)
        cfgs.append(cfg)
    return cfgs


def test_criterion_4_ablation_directionality():
    start = time.time()
    toggles = (None, "use_ewma", "use_staleness_decay", "use_inverse_lr")
    logs = run_many([cfg for toggle in toggles for cfg in _ablation_configs(toggle)],
                    JOBS)
    base_logs, ewma_logs, decay_logs, lr_logs = (logs[i:i + 7] for i in range(0, 28, 7))
    base_tta = statistics.median(tta_or_inf(log) for log in base_logs)
    base_final = statistics.median(log.summary()["final_accuracy"]
                                   for log in base_logs)

    ewma_tta = statistics.median(tta_or_inf(log) for log in ewma_logs)
    assert ewma_tta > base_tta, \
        f"(a) static prediction should slow time-to-target: {ewma_tta} vs {base_tta}"

    decay_final = statistics.median(log.summary()["final_accuracy"]
                                    for log in decay_logs)
    assert decay_final < base_final, \
        f"(b) flat staleness weights should cut final accuracy: " \
        f"{decay_final} vs {base_final}"

    lr_final = statistics.median(log.summary()["final_accuracy"]
                                 for log in lr_logs)
    assert lr_final < base_final, \
        f"(c) unscaled learning rates should cut final accuracy: " \
        f"{lr_final} vs {base_final}"
    report(4, "ablation directionality",
           f"tta {base_tta:.0f}->{ewma_tta:.0f}s w/o prediction; final acc "
           f"{base_final:.4f}->{decay_final:.4f} w/o decay, ->{lr_final:.4f} "
           f"w/o lr scaling, {time.time()-start:.1f}s")


# ---------------------------------------------------------------------------
# 5. safety-buffer trade-off
# ---------------------------------------------------------------------------

def test_criterion_5_safety_buffer_tradeoff():
    start = time.time()
    cfgs = []
    for delta in (1.0, 2.0, 4.0):   # 0.5 delta0, delta0, 2 delta0
        for trial in range(7):
            cfg = controlled_config(spawn_seed(42, "dlt2", trial))
            cfg.fedqueue.delta = delta
            cfgs.append(cfg)
    logs = run_many(cfgs, JOBS)
    p_lates, ttas = [], []
    for i in range(0, 21, 7):
        p_lates.append(statistics.median(fq.delay_statistics(log)[0]
                                         for log in logs[i:i + 7]))
        ttas.append(statistics.median(tta_or_inf(log) for log in logs[i:i + 7]))
    assert p_lates[0] >= p_lates[1] >= p_lates[2], f"P_late not nonincreasing: {p_lates}"
    assert ttas[0] <= ttas[1] <= ttas[2], f"tta not nondecreasing: {ttas}"
    report(5, "safety-buffer trade-off",
           f"P_late {[f'{p:.3f}' for p in p_lates]} falling, "
           f"tta {[f'{t:.0f}' for t in ttas]} rising over delta=1,2,4, "
           f"{time.time()-start:.1f}s")


# ---------------------------------------------------------------------------
# 6. protocol invariant suite
# ---------------------------------------------------------------------------

def test_criterion_6_protocol_invariants():
    start = time.time()
    rng = np.random.default_rng(0)

    # reduction to synchronous delta averaging at zero delay
    cfg = fq.default_config()
    cfg.protocol.num_rounds = 10
    cfg.workload.train_size, cfg.workload.test_size = 400, 200
    cfg.workload.dim, cfg.workload.classes = 6, 4
    cfg.fedqueue.sim_queue = "fixed"
    cfg.fedqueue.queue_fixed = (0.0, 0.0, 0.0, 0.0)
    cfg.fedqueue.delta = 0.0
    log = run_experiment(cfg)
    assert all(a.tau == 0 for a in log.arrivals)
    assert all(r.admitted == 4 for r in rounds(log))
    for _ in range(50):
        w = rng.standard_normal(6)
        deltas = [rng.standard_normal(6) for _ in range(4)]
        phi = protocol.staleness("harmonic", {"beta": 0.5})
        lhs = protocol.aggregate(w, [(0.25 * phi(0), d) for d in deltas])
        rhs = w + sum(0.25 * d for d in deltas)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    # aggregation coefficients are a convex combination, 1 ulp per term
    phi = protocol.staleness("harmonic", {"beta": 0.5})
    for _ in range(200):
        n = int(rng.integers(1, 9))
        entries = [(float(rng.uniform(0.01, 1)), int(rng.integers(0, 6)))
                   for _ in range(n)]
        s = sum(p * phi(tau) for p, tau in entries)
        coefs = [p * phi(tau) / s for p, tau in entries]
        assert abs(sum(coefs) - 1.0) <= n * np.spacing(1.0)
        assert all(c >= 0 for c in coefs)

    # admission partition is a set partition
    for _ in range(200):
        msgs = [protocol.ClientUpdate(client=int(rng.integers(4)), submit_round=0,
                                      delta=np.zeros(1),
                                      q=0.0,
                                      arrival=float(rng.uniform(0, 50)),
                                      steps_done=1, submit_time=0.0)
                for _ in range(int(rng.integers(0, 20)))]
        cutoff = float(rng.uniform(0, 50))
        admitted, rest = protocol.partition_admissions(msgs, cutoff)
        assert sorted(map(id, admitted + rest)) == sorted(map(id, msgs))
        assert all(m.arrival <= cutoff for m in admitted)
        assert all(m.arrival > cutoff for m in rest)

    # buffering formula equals a brute-force scan on 1e5 random triples
    s_arr = rng.integers(0, 40, size=100_000)
    t_arr = rng.uniform(0.1, 30.0, size=100_000)
    a_arr = s_arr * t_arr + rng.uniform(0.0, 6.0, size=100_000) * t_arr
    for s, t_sync, a in zip(s_arr[:100_000], t_arr, a_arr):
        r, tau = protocol.assign_aggregation_round(int(s), float(a), float(t_sync))
        j = int(s)
        while a > (j + 1) * t_sync:
            j += 1
        assert r == j and tau == j - int(s)

    # staleness ledger conservation on a high-variance run
    cfg2 = fq.default_config()
    cfg2.protocol.num_rounds = 40
    cfg2.workload.train_size, cfg2.workload.test_size = 400, 200
    cfg2.workload.dim, cfg2.workload.classes = 6, 4
    cfg2.fedqueue.queue_rho = 0.9
    log2 = run_experiment(cfg2)
    stale = sum(1 for a in log2.arrivals if a.tau >= 1)
    assert stale == sum(r.deferred for r in rounds(log2))
    assert stale > 0

    # bit-identical reruns per seed
    assert run_experiment(cfg2).checksum() == log2.checksum()
    report(6, "protocol invariants", f"reduction, normalization, partition, "
           f"buffering x1e5, ledger ({stale} stale admissions), determinism, "
           f"{time.time()-start:.1f}s")


# ---------------------------------------------------------------------------
# 7. convergence shape on the quadratic workload
# ---------------------------------------------------------------------------

def test_criterion_7_convergence_shape():
    start = time.time()
    cfg = fq.default_config()
    cfg.workload.dataset = "quadratic"
    cfg.workload.dim = 16
    cfg.workload.quad_spread = 0.0   # identical client objectives: G = 0
    cfg.workload.quad_sigma = 0.0    # exact gradients
    cfg.fedqueue.sim_queue = "fixed"
    cfg.fedqueue.queue_fixed = (0.0, 0.0, 0.0, 0.0)
    cfg.fedqueue.delta = 0.0
    cfg.protocol.num_rounds = 200
    log = run_experiment(cfg)
    assert not log.failed
    objective = learn.build_objective(cfg, substream(cfg.protocol.seed, "data"))
    grad_sq = float(np.sum(objective.gradient(log.final_model) ** 2))
    assert grad_sq < 1e-6, f"gradient norm^2 {grad_sq} after 200 rounds"

    # injected artificial staleness must not beat fresh dynamics
    probe = learn.QuadraticObjective(np.diag(np.linspace(1.0, 4.0, 8)),
                                     np.zeros((4, 8)))
    fresh = metrics.delayed_quadratic_descent(probe, 0, 200, 0.003, 70)
    stale = metrics.delayed_quadratic_descent(probe, 4, 200, 0.003, 70)
    assert stale[-20:].mean() >= fresh[-20:].mean()
    report(7, "convergence shape", f"grad^2 {grad_sq:.2e} < 1e-6 within 200 "
           f"rounds; stale-probe tail {stale[-20:].mean():.2e} >= fresh "
           f"{fresh[-20:].mean():.2e}, {time.time()-start:.1f}s")


# ---------------------------------------------------------------------------
# 8. numerical gradient check
# ---------------------------------------------------------------------------

def test_criterion_8_gradient_check():
    start = time.time()
    rng = substream(0, "acc-fd")

    def check(objective, points, h=1e-5):
        worst = 0.0
        for w in points:
            g = objective.gradient(w)
            fd = np.empty_like(g)
            for i in range(len(w)):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd[i] = (objective.loss(wp) - objective.loss(wm)) / (2 * h)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-300)
            worst = max(worst, rel)
            assert rel < 1e-5, f"relative gradient error {rel}"
        return worst

    quad = learn.QuadraticObjective.diagonal(7, 3, substream(1, "acc-quad"),
                                             spread=1.0)
    worst_q = check(quad, [rng.standard_normal(7) for _ in range(10)], h=1e-6)

    x, y, _ = learn.make_mixture_data(320, 5, 3, substream(2, "acc-data"))
    parts = learn.dirichlet_partition(y[:240], 3, 0.5, substream(3, "acc-part"))
    clf = learn.ClassifyObjective(x[:240], y[:240], x[240:], y[240:], parts,
                                  classes=3, model="linear")
    worst_c = check(clf, [0.5 * rng.standard_normal(clf.dimension)
                          for _ in range(10)])
    report(8, "gradient check", f"max relative error quadratic {worst_q:.2e}, "
           f"classify {worst_c:.2e} < 1e-5, {time.time()-start:.1f}s")
