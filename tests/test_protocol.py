import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqueue import learn, protocol
from fedqueue.protocol import (StalenessDecay, aggregate,
                               assign_aggregation_round, client_local_update,
                               compute_budget, partition_admissions,
                               scale_learning_rate, staleness_weight)
from fedqueue.streams import substream


def make_msg(k, s, arrival, delta=None):
    return protocol.ClientUpdate(
        client=k, submit_round=s, delta=delta if delta is not None else np.zeros(2),
        q=0.0, arrival=arrival, steps_done=1, submit_time=s * 10.0)


# ---------------------------------------------------------------------------
# budgeting
# ---------------------------------------------------------------------------

def test_budget_default_example():
    assert compute_budget(10.0, 2.0, 2.0, 10.0, 1) == 60


def test_budget_boundary_collapses_to_floor():
    assert compute_budget(10.0, 8.0, 2.0, 10.0, 1) == 1


def test_budget_oversubscribed_queue_clamps():
    assert compute_budget(10.0, 12.0, 2.0, 10.0, 5) == 5


def test_effective_safety_buffer_identity_at_default_gamma():
    assert protocol.effective_safety_buffer(2.0, 0.2) == 2.0
    assert protocol.effective_safety_buffer(1.0, 0.2) == 1.0


def test_effective_safety_buffer_grows_with_gamma():
    vals = [protocol.effective_safety_buffer(2.0, g) for g in (0.2, 1, 2, 4)]
    assert vals == sorted(vals)
    assert vals[0] < vals[-1]


# ---------------------------------------------------------------------------
# learning-rate scaling
# ---------------------------------------------------------------------------

def test_lr_scaling_basic():
    assert scale_learning_rate(0.003, 20, 40) == pytest.approx(0.0015)


def test_lr_identity_when_budget_equals_minimum():
    assert scale_learning_rate(0.003, 20, 20) == 0.003


def test_lr_extreme_budget():
    assert scale_learning_rate(0.003, 20, 176) == pytest.approx(3.409090909090909e-4)


@given(st.floats(1e-5, 1.0), st.integers(1, 50), st.integers(0, 500),
       st.floats(0.1, 10))
@settings(max_examples=200)
def test_lr_scaling_linear_in_base(eta, e_min, extra, lam):
    e_k = e_min + extra
    assert scale_learning_rate(lam * eta, e_min, e_k) == pytest.approx(
        lam * scale_learning_rate(eta, e_min, e_k))


# ---------------------------------------------------------------------------
# staleness decay
# ---------------------------------------------------------------------------

def test_weight_is_one_at_zero_staleness():
    for mode in ("harmonic", "exp"):
        assert staleness_weight(StalenessDecay(mode, 0.5), 0) == 1.0


def test_harmonic_weight():
    assert staleness_weight(StalenessDecay("harmonic", 0.5), 2) == pytest.approx(0.5)


def test_exponential_weight():
    assert staleness_weight(StalenessDecay("exp", 1.0), 1) == pytest.approx(math.exp(-1))


def test_negative_staleness_rejected():
    with pytest.raises(ValueError):
        staleness_weight(StalenessDecay("harmonic", 0.5), -1)


@given(st.sampled_from(["harmonic", "exp"]), st.floats(0, 5), st.integers(0, 60))
@settings(max_examples=200)
def test_weight_positive_and_nonincreasing(mode, beta, tau):
    decay = StalenessDecay(mode, beta)
    w0, w1 = staleness_weight(decay, tau), staleness_weight(decay, tau + 1)
    assert 0.0 < w1 <= w0 <= 1.0


# ---------------------------------------------------------------------------
# buffering-round assignment
# ---------------------------------------------------------------------------

def test_within_round_arrival_is_fresh():
    assert assign_aggregation_round(2, 29.9, 10.0) == (2, 0)


def test_one_missed_cutoff():
    assert assign_aggregation_round(2, 33.5, 10.0) == (3, 1)


def test_three_missed_cutoffs_match_scan():
    # cutoffs 30, 40, 50, 60: first >= 52 is 60 -> round 5
    assert assign_aggregation_round(2, 52.0, 10.0) == (5, 3)


def test_cutoff_boundary_is_inclusive():
    assert assign_aggregation_round(2, 30.0, 10.0) == (2, 0)


def test_causality_violation_raises():
    with pytest.raises(ValueError):
        assign_aggregation_round(3, 29.0, 10.0)


@given(st.integers(0, 30), st.floats(0, 60), st.floats(0.1, 25))
@settings(max_examples=500)
def test_assignment_matches_brute_force_scan(s, extra, t_sync):
    arrival = s * t_sync + extra
    r, tau = assign_aggregation_round(s, arrival, t_sync)
    j = s
    while arrival > (j + 1) * t_sync:
        j += 1
    assert r == j
    assert tau == j - s


@given(st.integers(0, 10), st.floats(0, 40), st.floats(0, 40), st.floats(0.5, 20))
@settings(max_examples=300)
def test_assignment_monotone_in_arrival(s, e1, e2, t_sync):
    a1, a2 = s * t_sync + min(e1, e2), s * t_sync + max(e1, e2)
    r1, tau1 = assign_aggregation_round(s, a1, t_sync)
    r2, tau2 = assign_aggregation_round(s, a2, t_sync)
    assert r1 <= r2
    assert (tau1 == 0) == (a1 <= (s + 1) * t_sync)


# ---------------------------------------------------------------------------
# admission partition
# ---------------------------------------------------------------------------

def test_partition_inclusive_boundary():
    buf = [make_msg(0, 0, 9.5), make_msg(1, 0, 10.0), make_msg(2, 0, 10.1)]
    admitted, rest = partition_admissions(buf, 10.0)
    assert [m.arrival for m in admitted] == [9.5, 10.0]
    assert [m.arrival for m in rest] == [10.1]


def test_partition_empty_buffer():
    assert partition_admissions([], 10.0) == ([], [])


def test_partition_full_deferral():
    buf = [make_msg(0, 1, 25.0), make_msg(1, 1, 31.0)]
    admitted, rest = partition_admissions(buf, 20.0)
    assert admitted == []
    assert rest == buf


@given(st.lists(st.floats(0, 100), max_size=30), st.floats(0, 100))
@settings(max_examples=200)
def test_partition_is_a_set_partition(arrivals, cutoff):
    buf = [make_msg(i % 4, 0, a) for i, a in enumerate(arrivals)]
    admitted, rest = partition_admissions(buf, cutoff)
    assert len(admitted) + len(rest) == len(buf)
    assert sorted(id(m) for m in admitted + rest) == sorted(id(m) for m in buf)
    assert all(m.arrival <= cutoff for m in admitted)
    assert all(m.arrival > cutoff for m in rest)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_fresh_two_client_average():
    w = np.zeros(2)
    admitted = [(0.5, 0, np.array([1.0, 0.0])), (0.5, 0, np.array([0.0, 1.0]))]
    out = aggregate(w, admitted, StalenessDecay("harmonic", 0.5))
    assert np.allclose(out, [0.5, 0.5])


def test_single_client_normalization_cancels():
    w = np.array([1.0, -2.0])
    delta = np.array([0.25, 0.75])
    out = aggregate(w, [(0.3, 7, delta)], StalenessDecay("harmonic", 0.9))
    assert np.allclose(out, w + delta)


def test_hand_computed_harmonic_mix():
    out = aggregate(np.zeros(1),
                    [(0.5, 0, np.array([2.0])), (0.5, 2, np.array([0.0]))],
                    StalenessDecay("harmonic", 0.5))
    assert out[0] == pytest.approx(4.0 / 3.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        aggregate(np.zeros(2), [(1.0, 0, np.zeros(3))], StalenessDecay())


def test_reduces_to_plain_delta_averaging_when_fresh():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(5)
    deltas = [rng.standard_normal(5) for _ in range(4)]
    admitted = [(0.25, 0, d) for d in deltas]
    out = aggregate(w, admitted, StalenessDecay("harmonic", 0.5))
    assert np.allclose(out, w + sum(0.25 * d for d in deltas), rtol=1e-12)


@given(st.lists(st.tuples(st.floats(0.01, 1), st.integers(0, 8)),
                min_size=1, max_size=8))
@settings(max_examples=200)
def test_coefficients_normalize_to_one(entries):
    decay = StalenessDecay("harmonic", 0.5)
    s = sum(p * staleness_weight(decay, tau) for p, tau in entries)
    coefs = [p * staleness_weight(decay, tau) / s for p, tau in entries]
    assert sum(coefs) == pytest.approx(1.0, abs=len(entries) * np.spacing(1.0))
    assert all(c >= 0 for c in coefs)


# ---------------------------------------------------------------------------
# client local update
# ---------------------------------------------------------------------------

def quadratic_identity(dim=2, clients=1):
    return learn.QuadraticObjective(np.eye(dim), np.zeros((clients, dim)))


def lanes_of(objective, jobs, batch_size):
    """`client_local_update`'s lanes for jobs (k, start, eta, steps, rng)
    of one objective and batch size."""
    return [(objective, batch_size, *job) for job in jobs]


def run_alone(objective, k, w_start, eta, steps, batch_size, rng):
    """One job as a stack of one lane: (delta, steps run, diverged lanes)."""
    [delta], lane_steps, diverged = client_local_update(
        lanes_of(objective, [(k, w_start, eta, steps, rng)], batch_size))
    return delta, lane_steps, diverged


def test_zero_budget_returns_zero_delta():
    delta, steps, _ = run_alone(quadratic_identity(), 0, np.array([1.0, 0.0]),
                             0.1, 0, 1, substream(0, "t"))
    assert steps == 0
    assert np.array_equal(delta, np.zeros(2))


def test_single_explicit_gradient_step():
    delta, steps, _ = run_alone(quadratic_identity(), 0, np.array([1.0, 0.0]),
                             0.1, 1, 1, substream(0, "t"))
    assert steps == 1
    assert np.allclose(delta, [-0.1, 0.0])


def test_matches_straight_line_sgd_oracle_bitwise():
    obj = learn.QuadraticObjective(np.diag([1.0, 4.0]),
                                   np.array([[0.3, -0.7]]), noise_sigma=0.5)
    w0 = np.array([1.0, 2.0])
    delta, steps, _ = run_alone(obj, 0, w0, 0.05, 60, 1, substream(9, "sgd", 0, 0))
    assert steps == 60
    # independent reference loop over the same substream, one draw per step
    rng = substream(9, "sgd", 0, 0)
    w = w0.copy()
    for _ in range(60):
        w -= 0.05 * (obj.A @ (w - obj.b[0])
                     + 0.5 / math.sqrt(2) * rng.standard_normal(2))
    assert np.array_equal(delta, w - w0)


def test_nonfinite_gradient_surfaces_as_numerical_error():
    obj = quadratic_identity()
    delta, _, diverged = run_alone(obj, 0, np.array([np.inf, 0.0]), 0.1, 5, 1,
                                   substream(0, "t"))
    assert diverged == [0] and not np.isfinite(delta).all()


def test_diverging_job_fails_without_numpy_warnings():
    # w <- (1 - eta) w overflows at step 3, then inf - inf is nan
    obj = quadratic_identity(clients=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, steps, diverged = run_alone(obj, 2, np.array([1e300, 1.0]), 1e3, 5, 1,
                                       substream(0, "t"))
    assert diverged == [0] and steps == 5


def small_classify(model, n=120, clients=3, seed=0, dim=5, classes=3):
    """(objective, training features, test features): the objective keeps
    its features only as staged rows."""
    rng = substream(seed, "data")
    x, y, _ = learn.make_mixture_data(n + 40, dim, classes, rng)
    parts = learn.dirichlet_partition(y[:n], clients, 0.5, rng)
    return (learn.ClassifyObjective(x[:n], y[:n], x[n:], y[n:], parts,
                                    classes=classes, model=model, init_rng=rng),
            x[:n], x[n:])


def benchmark_shaped_classify(model="linear"):
    """The benchmark's classify shapes: d = 16, C = 10, every client > 64
    rows; returned as `small_classify` returns them."""
    built = small_classify(model, n=1200, clients=4, dim=16, classes=10)
    assert min(len(p) for p in built[0].partition) > 64
    return built


def reference_classify_grad(obj, w, x, y):
    """Forward, loss and backward of one minibatch in a single call: the
    per-step computation the kernel must match bit for bit."""
    n = len(y)
    d, c, h = obj.feature_dim, obj.classes, obj.hidden
    if obj.model == "linear":
        logits = x @ w[: c * d].reshape(c, d).T + w[c * d:]
    else:
        w1 = w[: h * d].reshape(h, d)
        b1 = w[h * d: h * d + h]
        w2 = w[h * d + h: h * d + h + c * h].reshape(c, h)
        b2 = w[h * d + h + c * h:]
        a1 = np.tanh(x @ w1.T + b1)
        logits = a1 @ w2.T + b2
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))  # loss, unused
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    g = np.empty_like(w)
    if obj.model == "linear":
        g[: c * d] = (dlogits.T @ x).ravel()
        g[c * d:] = dlogits.sum(axis=0)
    else:
        dz1 = (dlogits @ w2) * (1.0 - a1 * a1)
        g[: h * d] = (dz1.T @ x).ravel()
        g[h * d: h * d + h] = dz1.sum(axis=0)
        g[h * d + h: h * d + h + c * h] = (dlogits.T @ a1).ravel()
        g[h * d + h + c * h:] = dlogits.sum(axis=0)
    return g


def reference_local_update(obj, x_train, k, w_start, eta, steps, batch_size, rng):
    """Per-step draws and gradients: the loop the kernel must reproduce;
    `x_train` holds a classify objective's training features."""
    w = w_start.copy()
    for _ in range(steps):
        if isinstance(obj, learn.QuadraticObjective):
            p, sigma = obj.dimension, float(obj.noise_sigma[k])
            g = obj.A @ (w - obj.b[k])
            if sigma > 0:
                g = g + sigma / math.sqrt(p) * rng.standard_normal(p)
        else:
            pool = obj.partition[k]
            idx = pool[rng.integers(0, len(pool), size=min(batch_size, len(pool)))]
            g = reference_classify_grad(obj, w, x_train[idx], obj.y_train[idx])
        w -= eta * g
    return w - w_start


@pytest.mark.parametrize("case", ["linear", "mlp", "linear-small-client",
                                  "quadratic-noisy", "linear-benchmark-shape"])
def test_local_update_matches_per_step_reference_bitwise(case):
    if case == "quadratic-noisy":
        obj = learn.QuadraticObjective.diagonal(5, 3, substream(1, "q"),
                                                noise_sigma=0.7)
        x_train, batch_size = None, 8
    elif case == "linear-benchmark-shape":
        obj, x_train, _ = benchmark_shaped_classify()
        batch_size = 64
    else:
        obj, x_train, _ = small_classify(case.split("-")[0])
        sizes = [len(p) for p in obj.partition]
        # a batch larger than every client's data, or smaller than any
        batch_size = max(sizes) + 1 if case.endswith("small-client") else min(sizes) - 1
    w0 = obj.init_point() + 0.1
    for k in range(obj.num_clients):
        delta, steps, _ = run_alone(obj, k, w0, 0.05, 37, batch_size,
                                 substream(2, "sgd", k))
        assert steps == 37
        ref = reference_local_update(obj, x_train, k, w0, 0.05, 37, batch_size,
                                     substream(2, "sgd", k))
        assert np.array_equal(delta, ref)


def stacked_case(case):
    """(objective, batch size, training features or None) of a stacked-lane
    case.  The classify cases give two clients fewer rows than the batch,
    each a width of its own."""
    if case.startswith("quadratic"):
        sigma = {"quadratic": 0.0, "quadratic-noisy": 0.7,
                 "quadratic-mixed": np.array([0.0, 0.7, 0.3, 0.0])}[case]
        return learn.QuadraticObjective.diagonal(5, 4, substream(1, "q"),
                                                 noise_sigma=sigma), 8, None
    obj, x_train, _ = small_classify(case, n=240, clients=4)
    sizes = sorted(len(p) for p in obj.partition)
    assert sizes[0] < sizes[1] < sizes[2]
    return obj, sizes[1] + 1, x_train


@pytest.mark.parametrize("lanes", [1, 4, 8, 12])
@pytest.mark.parametrize("case", ["linear", "mlp", "quadratic", "quadratic-noisy",
                                  "quadratic-mixed"])
def test_stacked_lanes_match_each_job_run_alone_bitwise(case, lanes):
    # budgets from 0 to 149 steps, so that lanes draw up to three chunks of
    # batches, and an eta per lane; lanes cycle over the clients, each from
    # a start of its own
    obj, batch_size, x_train = stacked_case(case)
    rng = substream(7, "lanes", lanes)
    jobs = []
    for i in range(lanes):
        k = i % obj.num_clients
        w = obj.init_point() + 0.1 * rng.standard_normal(obj.dimension)
        jobs.append((k, w, float(rng.uniform(0.01, 0.1)), int(rng.integers(0, 150)),
                     substream(3, "sgd", k, i)))
    starts = [w.copy() for _, w, *_ in jobs]
    deltas, lane_steps, diverged = client_local_update(lanes_of(obj, jobs, batch_size))
    assert lane_steps == sum(steps for _, _, _, steps, _ in jobs) and not diverged
    for i, ((k, w, eta, steps, _), delta) in enumerate(zip(jobs, deltas)):
        assert np.array_equal(w, starts[i])
        ref = reference_local_update(obj, x_train, k, w, eta, steps, batch_size,
                                     substream(3, "sgd", k, i))
        assert np.array_equal(delta, ref)


def test_one_gradient_call_per_step_of_each_stacks_longest_lane(monkeypatch):
    # a tracer wraps ClassifyObjective.stochastic_gradient on the class and
    # reads lane_steps as client_local_update's result[1]; the
    # calls run the lanes still going at each step, longest budget first
    obj, batch_size, _ = stacked_case("linear")
    widths = []
    real = learn.ClassifyObjective.stochastic_gradient

    def counting(self, bound, batches):
        widths.append((np.shape(batches)[1], len(batches)))
        return real(self, bound, batches)

    monkeypatch.setattr(learn.ClassifyObjective, "stochastic_gradient", counting)
    budgets = [70, 3, 0, 150, 64, 65, 1, 129]
    jobs = [(i % obj.num_clients, obj.init_point(), 0.05, steps,
             substream(4, "sgd", i)) for i, steps in enumerate(budgets)]
    result = client_local_update(lanes_of(obj, jobs, batch_size))
    assert isinstance(result, tuple) and len(result) == 3
    deltas, lane_steps, diverged = result
    assert len(deltas) == len(jobs) and lane_steps == sum(budgets) and not diverged
    stacks = {}
    for k, _, _, steps, _ in jobs:
        stacks.setdefault(min(batch_size, len(obj.partition[k])), []).append(steps)
    assert len(stacks) > 1
    expected = sorted((width, sum(s > t for s in steps))
                      for width, steps in stacks.items() for t in range(max(steps)))
    assert sorted(widths) == expected


def test_draw_free_and_noisy_lanes_run_in_separate_stacks(monkeypatch):
    # clients 0 and 3 draw nothing: their lanes share a stack bound with None
    # batches, the noisy lanes another with arrays, and each lane's delta is
    # that of its job run alone
    obj, batch_size, _ = stacked_case("quadratic-mixed")
    budgets = [5, 70, 0, 130, 9, 64, 3, 65]
    starts = [obj.init_point() + 0.01 * i for i in range(len(budgets))]

    def rng(i):
        return substream(5, "sgd", i) if obj.draws(i % 4) else None

    alone = [run_alone(obj, i % 4, starts[i], 0.02 + 0.01 * i, steps,
                       batch_size, rng(i))[0] for i, steps in enumerate(budgets)]
    bindings = []      # per binding: whether its lanes draw, and its batches
    real_bind = learn.QuadraticObjective.bind
    real_grad = learn.QuadraticObjective.stochastic_gradient

    def bind(self, ks, w):
        bindings.append(({self.draws(k) for k in ks}, set()))
        return real_bind(self, ks, w)

    def gradient(self, bound, batches):
        bindings[-1][1].add(batches is None)
        return real_grad(self, bound, batches)

    monkeypatch.setattr(learn.QuadraticObjective, "bind", bind)
    monkeypatch.setattr(learn.QuadraticObjective, "stochastic_gradient", gradient)
    jobs = [(i % 4, starts[i], 0.02 + 0.01 * i, steps, rng(i))
            for i, steps in enumerate(budgets)]
    deltas, lane_steps, _ = client_local_update(lanes_of(obj, jobs, batch_size))
    assert lane_steps == sum(budgets)
    assert {(frozenset(draws), frozenset(none)) for draws, none in bindings} == \
        {(frozenset({False}), frozenset({True})), (frozenset({True}), frozenset({False}))}
    for delta, ref in zip(deltas, alone):
        assert np.array_equal(delta, ref)


def test_first_diverging_lane_is_named_across_stacks():
    # the draw-free stack (lanes 0 and 2) runs first and its lane 2
    # diverges, but the report lists lane 1 of the noisy stack first: it
    # comes first in lane order
    obj = learn.QuadraticObjective(np.eye(2), np.zeros((4, 2)),
                                   noise_sigma=np.array([0.0, 0.5, 0.0, 0.0]))
    jobs = [(0, np.array([1.0, 1.0]), 0.1, 5, None),
            (1, np.array([1e300, 1.0]), 1e3, 3, substream(0, "b")),
            (3, np.array([1e300, 1.0]), 1e3, 5, None)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deltas, _, diverged = client_local_update(lanes_of(obj, jobs, 1))
    assert diverged == [1, 2]
    assert np.isfinite(deltas[0]).all()


def test_stack_names_the_first_diverging_lane():
    obj = quadratic_identity(clients=3)
    jobs = [(0, np.array([1.0, 1.0]), 0.1, 5, substream(0, "a")),
            (2, np.array([1e300, 1.0]), 1e3, 3, substream(0, "b")),
            (1, np.array([1e300, 1.0]), 1e3, 5, substream(0, "c"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deltas, _, diverged = client_local_update(lanes_of(obj, jobs, 1))
    assert diverged == [1, 2]
    assert np.isfinite(deltas[0]).all()


def reference_loss_and_accuracy(obj, w, x, y):
    """Mean cross-entropy and accuracy of the rows (x, y), computed the way
    the kernel did before its rows were staged."""
    d, c, h = obj.feature_dim, obj.classes, obj.hidden
    if obj.model == "linear":
        logits = x @ w[: c * d].reshape(c, d).T + w[c * d:]
    else:
        a1 = np.tanh(x @ w[: h * d].reshape(h, d).T + w[h * d: h * d + h])
        logits = a1 @ w[h * d + h: h * d + h + c * h].reshape(c, h).T \
            + w[h * d + h + c * h:]
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    return float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300))), acc


@pytest.mark.parametrize("case", ["linear", "mlp", "linear-benchmark-shape",
                                  "mlp-benchmark-shape"])
def test_full_client_gradient_loss_and_evaluate_match_reference_bitwise(case):
    model = case.split("-")[0]
    obj, x_train, x_test = benchmark_shaped_classify(model) \
        if case.endswith("shape") else small_classify(model)
    rng = substream(4, "w")
    for scale in (0.0, 0.1, 1.0):
        w = obj.init_point() + scale * rng.standard_normal(obj.dimension)
        for k, part in enumerate(obj.partition):
            x, y = x_train[part], obj.y_train[part]
            assert np.array_equal(obj.client_gradient(k, w),
                                  reference_classify_grad(obj, w, x, y))
            assert obj.client_loss(k, w) == reference_loss_and_accuracy(obj, w, x, y)[0]
        assert obj.evaluate(w) == reference_loss_and_accuracy(obj, w, x_test,
                                                              obj.y_test)


@pytest.mark.parametrize("case", ["linear", "mlp", "quadratic"])
def test_nonfinite_start_fails_the_job_and_names_the_client(case):
    if case == "quadratic":
        obj = learn.QuadraticObjective.diagonal(4, 3, substream(1, "q"),
                                                noise_sigma=0.3)
    else:
        obj = small_classify(case)[0]
    w_start = obj.init_point()
    w_start[1] = np.nan
    for steps in (1, 5):
        with np.errstate(invalid="ignore"):
            assert run_alone(obj, 2, w_start, 0.1, steps, 8, substream(0, "t"))[2] == [0]
    # a lane of no steps is not checked
    delta, steps, diverged = run_alone(obj, 2, w_start, 0.1, 0, 8, substream(0, "t"))
    assert steps == 0 and diverged == []
    finite = np.isfinite(w_start)
    assert np.array_equal(delta[finite], np.zeros(finite.sum()))
    assert np.isnan(delta[1])     # w_start - w_start, as before any step


class Linearized:
    """Constant gradient g on every lane.  It draws nothing (None batches),
    or with `noise_rows` an array-like list of zero noise rows per step."""

    num_clients = 1
    dimension = 2
    stack_key = None

    def __init__(self, g, noise_rows=False):
        self.g, self.noise_rows = g, noise_rows

    def sample_batches(self, k, steps, batch_size, rng):
        return [[0.0, 0.0]] * steps if self.noise_rows else None

    def bind(self, ks, w):
        return len(ks)

    def stochastic_gradient(self, bound, batches):
        assert (batches is None) != self.noise_rows
        return np.tile(self.g, (bound, 1))


def test_first_order_displacement_equalization_on_constant_gradient():
    # zero curvature: gradient is constant, displacement = eta * E * g exactly
    g = np.array([0.7, -1.3])
    obj = learn.QuadraticObjective(np.zeros((2, 2)), np.zeros((1, 2)))
    obj.b = np.zeros((1, 2))

    eta_base, e_min = 0.003, 20
    base_delta, *_ = run_alone(Linearized(g), 0, np.zeros(2), eta_base, e_min,
                              1, substream(0, "a"))
    for e_k in (40, 97, 176):
        eta = scale_learning_rate(eta_base, e_min, e_k)
        delta, *_ = run_alone(Linearized(g), 0, np.zeros(2), eta, e_k, 1,
                             substream(0, "b"))
        rel = abs(np.linalg.norm(delta) - np.linalg.norm(base_delta)) \
            / np.linalg.norm(base_delta)
        assert rel < 5 * eta_base * 1.0 * 176


def test_array_like_batches_run_as_a_stack():
    # a fake objective may return lists: they stack like arrays, and zero
    # noise rows give the draw-free stack's deltas bit for bit
    g = np.array([0.7, -1.3])
    lanes = [(0, np.array([0.1 * i, -0.2]), 0.01 * (i + 1), steps, None)
             for i, steps in enumerate((3, 70, 0, 130))]
    listed = client_local_update(lanes_of(Linearized(g, noise_rows=True), lanes, 1))
    draw_free = client_local_update(lanes_of(Linearized(g), lanes, 1))
    assert listed[1] == draw_free[1] == 203
    for a, b in zip(listed[0], draw_free[0]):
        assert np.array_equal(a, b)
