import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedqueue.config import default_config, load_config
from fedqueue.learn import (ClassifyObjective, QuadraticObjective,
                            _softmax_inplace, build_objective, dirichlet_partition,
                            iid_partition, make_mixture_data)
from fedqueue.streams import substream


def small_classify(model="linear", n=600, dim=8, classes=4, seed=0,
                   alpha=0.5, clients=3):
    """(objective, training features, test features): the objective keeps
    its features only as staged rows."""
    rng = substream(seed, "data")
    x, y, _ = make_mixture_data(n + 200, dim, classes, rng)
    parts = dirichlet_partition(y[:n], clients, alpha, rng)
    return (ClassifyObjective(x[:n], y[:n], x[n:], y[n:], parts,
                              classes=classes, model=model, init_rng=rng),
            x[:n], x[n:])


def benchmark_shaped_classify(model="linear"):
    """The benchmark's classify shapes: d = 16, C = 10, every client > 64
    rows; returned as `small_classify` returns them."""
    built = small_classify(model, n=1200, dim=16, classes=10, clients=4)
    assert min(len(p) for p in built[0].partition) > 64
    return built


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def test_single_client_owns_everything():
    labels = np.repeat(np.arange(5), 20)
    parts = dirichlet_partition(labels, 1, 0.5, substream(0, "p"))
    assert len(parts) == 1
    assert np.array_equal(np.sort(parts[0]), np.arange(100))


def test_partition_disjoint_and_covering_for_every_seed():
    labels = np.repeat(np.arange(10), 40)
    for seed in range(12):
        parts = dirichlet_partition(labels, 4, 0.5, substream(seed, "p"))
        combined = np.concatenate(parts)
        assert len(combined) == len(labels)
        assert len(np.unique(combined)) == len(labels)
        assert all(len(p) >= 1 for p in parts)


def test_huge_concentration_approaches_uniform_split():
    labels = np.repeat(np.arange(10), 400)
    parts = dirichlet_partition(labels, 4, 1e6, substream(1, "p"))
    for part in parts:
        hist = np.bincount(labels[part], minlength=10) / len(part)
        assert np.all(np.abs(hist - 0.1) < 0.05 * 0.1 + 0.01)


def test_sharper_concentration_is_more_skewed():
    labels = np.repeat(np.arange(10), 100)
    global_dist = np.full(10, 0.1)

    def mean_tv(alpha):
        tvs = []
        for seed in range(20):
            parts = dirichlet_partition(labels, 4, alpha, substream(seed, "tv"))
            for part in parts:
                hist = np.bincount(labels[part], minlength=10) / len(part)
                tvs.append(0.5 * np.abs(hist - global_dist).sum())
        return np.mean(tvs)

    assert mean_tv(0.1) > mean_tv(0.5)


def test_fewer_samples_than_clients_rejected():
    with pytest.raises(ValueError):
        dirichlet_partition(np.array([0, 1]), 3, 0.5, substream(0, "p"))


def test_iid_partition_covers():
    parts = iid_partition(101, 4, substream(0, "p"))
    combined = np.sort(np.concatenate(parts))
    assert np.array_equal(combined, np.arange(101))


# ---------------------------------------------------------------------------
# quadratic objective
# ---------------------------------------------------------------------------

def test_identity_quadratic_gradient():
    obj = QuadraticObjective(np.eye(2), np.zeros((1, 2)))
    assert np.allclose(obj.client_gradient(0, np.array([3.0, 4.0])), [3.0, 4.0])


def test_zero_noise_gradient_deterministic():
    obj = QuadraticObjective(np.eye(2), np.ones((2, 2)))
    w = np.array([0.3, -0.2])
    # a noise-free client draws nothing: its batches are None
    b1 = obj.sample_batches(0, 1, 4, substream(0, "g"))
    b2 = obj.sample_batches(0, 1, 4, substream(0, "g"))
    assert b1 is None and b2 is None
    g1 = obj.stochastic_gradient(obj.bind([0], w[None]), b1)
    g2 = obj.stochastic_gradient(obj.bind([0], w[None]), b2)
    assert np.array_equal(g1, g2)


def test_noisy_gradient_unbiased():
    obj = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros((1, 2)), noise_sigma=0.8)
    w = np.array([1.0, -1.0])
    exact = obj.client_gradient(0, w)
    rng = substream(5, "mc")
    draws = obj.stochastic_gradient(obj.bind([0] * 10_000, np.tile(w, (10_000, 1))),
                                    obj.sample_batches(0, 10_000, 1, rng))
    tol = 3 * 0.8 / math.sqrt(2) / math.sqrt(10_000)
    assert np.all(np.abs(draws.mean(axis=0) - exact) < 3 * tol + 1e-3)
    # the noise has RMS sigma: |g - exact|^2 is 0.32 chi^2_2, so the RMS of
    # 10,000 draws has a standard error of about 0.004
    rms = math.sqrt(float(np.mean(np.sum((draws - exact) ** 2, axis=1))))
    assert abs(rms - 0.8) < 0.02


def family_objective(family):
    if family.startswith("quadratic"):
        sigma = 0.5 if family.endswith("noisy") else 0.0
        return QuadraticObjective.diagonal(3, 2, substream(1, "q"), noise_sigma=sigma)
    return small_classify(family)[0]


@pytest.mark.parametrize("family", ["quadratic", "quadratic-noisy",
                                    "linear", "mlp"])
def test_overwriting_the_returned_gradient_changes_nothing(family):
    # the local SGD step scales the returned gradient stack in place
    obj = family_objective(family)
    ks = np.array([1, 0, 1])
    w = obj.init_point() + 0.1 * np.arange(1, 4)[:, None]
    draws = [obj.sample_batches(k, 1, 16, substream(2, "b", k)) for k in ks]
    # a noise-free quadratic stack draws nothing: its batches are None
    batch = None if draws[0] is None else np.array([d[0] for d in draws])
    inputs = (w.copy(), None if batch is None else batch.copy())
    state = (obj.client_gradient(1, w[0]), obj.evaluate(w[0]))
    bound = obj.bind(ks, w)
    g = obj.stochastic_gradient(bound, batch)
    expected = g.copy()
    g *= 1e3
    g[0, 0] = np.nan
    assert np.array_equal(obj.stochastic_gradient(bound, batch), expected)
    assert np.array_equal(obj.client_gradient(1, w[0]), state[0])
    assert obj.evaluate(w[0]) == state[1]
    assert np.array_equal(w, inputs[0])
    assert batch is None or np.array_equal(batch, inputs[1])


@pytest.mark.parametrize("family", ["quadratic-noisy", "linear", "mlp",
                                    "linear-benchmark-shape"])
def test_one_binding_over_64_steps_matches_each_lane_alone_bitwise(family):
    # the binding's views follow W as the steps update it in place
    obj = benchmark_shaped_classify()[0] if family.endswith("shape") \
        else family_objective(family)
    ks = [0, 1, 0, 1]
    etas = np.array([0.05, 0.1, 0.02, 0.07])[:, None]
    rng = substream(6, "bind")
    w0 = obj.init_point() + 0.1 * rng.standard_normal((len(ks), obj.dimension))
    draws = [obj.sample_batches(k, 64, 16, substream(6, "b", i))
             for i, k in enumerate(ks)]
    w = w0.copy()
    bound = obj.bind(ks, w)
    for t in range(64):
        g = obj.stochastic_gradient(bound, np.array([d[t] for d in draws]))
        g *= etas
        w -= g
    for i, k in enumerate(ks):
        lane = w0[i:i + 1].copy()
        for t in range(64):
            g = obj.stochastic_gradient(obj.bind([k], lane), np.array([draws[i][t]]))
            g *= etas[i]
            lane -= g
        assert np.array_equal(w[i], lane[0])


def reference_softmax(z):
    z = z - z.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


def test_softmax_matches_the_last_axis_reference_bitwise():
    rng = substream(8, "softmax")
    cases = [rng.standard_normal((lanes, 64, 10)) * 5 for lanes in (1, 2, 3, 4)]
    cases += [rng.standard_normal((200, 10)) * 5,          # evaluation's shape
              rng.standard_normal((3, 17, 4)),
              np.full((2, 5, 10), 0.75),                   # equal logits
              np.zeros((1, 3, 10))]
    ties = np.zeros((4, 10))                               # +0/-0 ties
    ties[0, ::2] = -0.0
    ties[1, 1::3] = -0.0
    ties[2] = -0.0
    ties[3, :5] = -1.0
    ties[3, 7] = -0.0
    nonfinite = rng.standard_normal((6, 10))
    nonfinite[0, 3] = np.inf
    nonfinite[1, 4] = -np.inf
    nonfinite[2, [1, 8]] = np.inf, -np.inf
    nonfinite[3, 5] = np.nan
    nonfinite[4] = -np.inf
    nonfinite[5, [0, 9]] = np.nan, np.inf
    cases += [ties, nonfinite, np.stack([ties, nonfinite[:4]])]
    with np.errstate(invalid="ignore", over="ignore"):
        for z in cases:
            expected = reference_softmax(z)
            got = _softmax_inplace(z.copy())
            assert got.shape == z.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def reference_pass(obj, w, x, y):
    """(loss, accuracy, gradient) of the rows (x, y) in plain 2-D numpy: each
    layer's weights then bias in the flat vector, tanh between layers."""
    d, c, h = obj.feature_dim, obj.classes, obj.hidden
    shapes = [(c, d)] if obj.model == "linear" else [(h, d), (c, h)]
    layers, i = [], 0
    for out, fan_in in shapes:
        n = out * fan_in
        layers.append((i, n, out, w[i:i + n].reshape(out, fan_in), w[i + n:i + n + out]))
        i += n + out
    acts = [x]
    for j, (*_, weights, bias) in enumerate(layers):
        z = acts[-1] @ weights.T + bias
        acts.append(np.tanh(z))
    acc = float(np.mean(np.argmax(z, axis=1) == y))
    rows = np.arange(len(y))
    probs = reference_softmax(z)
    loss = float(-np.mean(np.log(probs[rows, y] + 1e-300)))
    dz = probs
    dz[rows, y] -= 1.0
    dz /= len(y)
    g = np.empty_like(w)
    for j in reversed(range(len(layers))):
        start, n, out, weights, _ = layers[j]
        g[start:start + n] = (dz.T @ acts[j]).ravel()
        g[start + n:start + n + out] = dz.sum(axis=0)
        dz = (dz @ weights) * (1.0 - acts[j] * acts[j])
    return loss, acc, g


@pytest.mark.parametrize("case", ["linear", "mlp", "linear-benchmark-shape",
                                  "mlp-benchmark-shape"])
def test_full_client_passes_match_a_plain_reference_bitwise(case):
    model = case.split("-")[0]
    obj, x_train, x_test = benchmark_shaped_classify(model) \
        if case.endswith("shape") else small_classify(model)
    rng = substream(5, "w")
    # w = 0 ties every logit
    for w in (np.zeros(obj.dimension), obj.init_point(),
              obj.init_point() + rng.standard_normal(obj.dimension)):
        for k, part in enumerate(obj.partition):
            loss, _, g = reference_pass(obj, w, x_train[part], obj.y_train[part])
            assert np.array_equal(obj.client_gradient(k, w), g)
            assert obj.client_loss(k, w) == loss
        loss, acc, _ = reference_pass(obj, w, x_test, obj.y_test)
        assert obj.evaluate(w) == (loss, acc)


def reference_loss(obj, w):
    """Each client's 0.5 d' A d computed alone, weighted, and added in
    client order."""
    total = 0.0
    for k in range(obj.num_clients):
        d = w - obj.b[k]
        total += float(obj.weights[k] * float(0.5 * d @ obj.A @ d))
    return total


@pytest.mark.parametrize("curvature", ["diagonal", "dense"])
@pytest.mark.parametrize("num_clients", [1, 4, 12])
def test_stacked_loss_matches_per_client_reference_bitwise(curvature, num_clients):
    rng = substream(3, "loss", curvature, num_clients)
    for dim in (1, 2, 7, 16, 33, 64):
        if curvature == "diagonal":
            a = np.diag(rng.uniform(0.5, 8.0, dim))
        else:
            m = rng.standard_normal((dim, dim))
            a = m @ m.T + 0.1 * np.eye(dim)
        for spread in (0.1, 1.0, 10.0, 100.0):
            obj = QuadraticObjective(a, spread * rng.standard_normal((num_clients, dim)))
            for w in (obj.init_point(), obj.b[-1], *spread * rng.standard_normal((4, dim))):
                loss = obj.loss(w)
                assert type(loss) is float
                assert loss == reference_loss(obj, w)


# ---------------------------------------------------------------------------
# synthetic classification
# ---------------------------------------------------------------------------

def test_random_model_sits_at_chance_level():
    obj = small_classify(n=2000, classes=4)[0]
    rng = substream(3, "w")
    accs = [obj.evaluate(rng.standard_normal(obj.dimension) * 0.01)[1]
            for _ in range(40)]
    assert abs(np.mean(accs) - 0.25) < 0.05
    # equal logits break ties to class 0: accuracy = class-0 test share
    share0 = float(np.mean(obj.y_test == 0))
    assert obj.evaluate(np.zeros(obj.dimension))[1] == pytest.approx(share0)


def test_accuracy_bounded():
    obj = small_classify()[0]
    for seed in range(5):
        w = substream(seed, "w").standard_normal(obj.dimension)
        loss, acc = obj.evaluate(w)
        assert 0.0 <= acc <= 1.0 and loss >= 0.0


def test_evaluate_is_pure():
    obj = small_classify()[0]
    w = substream(9, "w").standard_normal(obj.dimension)
    assert obj.evaluate(w) == obj.evaluate(w)


def test_training_improves_over_init():
    obj = small_classify(n=1200)[0]
    w = obj.init_point()
    rng = substream(0, "sgd")
    for batch in obj.sample_batches(0, 400, 32, rng):
        [g] = obj.stochastic_gradient(obj.bind([0], w[None]), batch[None])
        w -= 0.05 * g
    # trained on client 0 only; still beats chance on the shared test set
    assert obj.evaluate(w)[1] > 0.3


@pytest.mark.parametrize("model", ["linear", "mlp"])
def test_classify_gradient_matches_finite_differences(model):
    obj = small_classify(model=model, n=200, dim=5, classes=3, clients=2)[0]
    rng = substream(4, "fd")
    for _ in range(3):
        w = rng.standard_normal(obj.dimension) * 0.5
        g = obj.client_gradient(0, w)
        fd = np.empty_like(g)
        h = 1e-5
        for i in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (obj.client_loss(0, wp) - obj.client_loss(0, wm)) / (2 * h)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-5


def test_quadratic_gradient_matches_finite_differences():
    obj = QuadraticObjective.diagonal(6, 2, substream(7, "q"), spread=1.0)
    rng = substream(8, "fd")
    for _ in range(3):
        w = rng.standard_normal(6)
        g = obj.gradient(w)
        fd = np.empty_like(g)
        h = 1e-6
        for i in range(6):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (obj.loss(wp) - obj.loss(wm)) / (2 * h)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-5


CONTROLLED = Path(__file__).resolve().parents[1] / "configs" / "controlled.ini"


@pytest.mark.parametrize("name", ["default", "controlled"])
def test_objective_holds_its_staged_rows_and_little_else(name):
    # the features live only in the staged rows: beyond them the objective
    # holds its labels and partition, two int64 per sample, and a few
    # small arrays, not the generated feature matrix
    cfg = default_config() if name == "default" else load_config(CONTROLLED)
    build_objective(cfg, substream(cfg.protocol.seed, "data"))   # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build_objective(cfg, substream(cfg.protocol.seed, "data"))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    samples = cfg.workload.train_size + cfg.workload.test_size
    assert held < obj._staged.nbytes + obj._test_rows.nbytes + 16 * samples + 16384
