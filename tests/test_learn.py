import math

import numpy as np
import pytest

from fedqueue.learn import (ClassifyObjective, QuadraticObjective,
                            dirichlet_partition, heterogeneity_stats,
                            iid_partition, make_mixture_data)
from fedqueue.streams import substream


def small_classify(model="linear", n=600, dim=8, classes=4, seed=0,
                   alpha=0.5, clients=3):
    rng = substream(seed, "data")
    x, y, _ = make_mixture_data(n + 200, dim, classes, rng)
    parts = dirichlet_partition(y[:n], clients, alpha, rng)
    return ClassifyObjective(x[:n], y[:n], x[n:], y[n:], parts,
                             classes=classes, model=model, init_rng=rng)


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
    [b1] = obj.sample_batches(0, 1, 4, substream(0, "g"))
    [b2] = obj.sample_batches(0, 1, 4, substream(0, "g"))
    g1 = obj.stochastic_gradient(0, w, b1)
    g2 = obj.stochastic_gradient(0, w, b2)
    assert np.array_equal(g1, g2)


def test_noisy_gradient_unbiased():
    obj = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros((1, 2)), noise_sigma=0.8)
    w = np.array([1.0, -1.0])
    exact = obj.client_gradient(0, w)
    rng = substream(5, "mc")
    draws = np.array([obj.stochastic_gradient(0, w, batch)
                      for batch in obj.sample_batches(0, 10_000, 1, rng)])
    tol = 3 * 0.8 / math.sqrt(2) / math.sqrt(10_000)
    assert np.all(np.abs(draws.mean(axis=0) - exact) < 3 * tol + 1e-3)


def test_loss_at_minimizer_equals_min_value():
    rng = substream(2, "quad")
    obj = QuadraticObjective.diagonal(4, 3, rng, lmax=4.0, spread=1.0)
    assert obj.loss(obj.minimizer()) == pytest.approx(obj.min_value(), rel=1e-12)
    bumped = obj.minimizer() + 0.1
    assert obj.loss(bumped) > obj.min_value()


def test_smoothness_is_max_eigenvalue():
    obj = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    assert obj.smoothness() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# synthetic classification
# ---------------------------------------------------------------------------

def test_random_model_sits_at_chance_level():
    obj = small_classify(n=2000, classes=4)
    rng = substream(3, "w")
    accs = [obj.evaluate(rng.standard_normal(obj.dimension) * 0.01)[1]
            for _ in range(40)]
    assert abs(np.mean(accs) - 0.25) < 0.05
    # equal logits break ties to class 0: accuracy = class-0 test share
    share0 = float(np.mean(obj.y_test == 0))
    assert obj.evaluate(np.zeros(obj.dimension))[1] == pytest.approx(share0)


def test_accuracy_bounded():
    obj = small_classify()
    for seed in range(5):
        w = substream(seed, "w").standard_normal(obj.dimension)
        loss, acc = obj.evaluate(w)
        assert 0.0 <= acc <= 1.0 and loss >= 0.0


def test_evaluate_is_pure():
    obj = small_classify()
    w = substream(9, "w").standard_normal(obj.dimension)
    assert obj.evaluate(w) == obj.evaluate(w)


def test_training_improves_over_init():
    obj = small_classify(n=1200)
    w = obj.init_point()
    rng = substream(0, "sgd")
    for batch in obj.sample_batches(0, 400, 32, rng):
        g = obj.stochastic_gradient(0, w, batch)
        w -= 0.05 * g
    # trained on client 0 only; still beats chance on the shared test set
    assert obj.evaluate(w)[1] > 0.3


@pytest.mark.parametrize("model", ["linear", "mlp"])
def test_classify_gradient_matches_finite_differences(model):
    obj = small_classify(model=model, n=200, dim=5, classes=3, clients=2)
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


# ---------------------------------------------------------------------------
# assumption-constant estimation
# ---------------------------------------------------------------------------

def probe_points(dim, count=12, seed=0):
    rng = substream(seed, "probes")
    return [rng.standard_normal(dim) for _ in range(count)]


def test_homogeneous_clients_have_zero_dissimilarity():
    obj = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros((3, 2)))
    g_hat, _, _ = heterogeneity_stats(obj, probe_points(2), substream(0, "h"))
    assert g_hat == 0.0


def test_known_spectrum_recovered():
    obj = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    _, _, l_hat = heterogeneity_stats(obj, probe_points(2), substream(1, "h"))
    assert 3.96 <= l_hat <= 4.04


def test_noise_scale_recovered():
    obj = QuadraticObjective(np.eye(3), np.zeros((2, 3)), noise_sigma=0.4)
    _, sigma_hat, _ = heterogeneity_stats(
        obj, probe_points(3, count=10, seed=2), substream(2, "h"),
        noise_draws=10_000)
    assert abs(sigma_hat - 0.4) < 0.05


def test_dissimilarity_matches_closed_form():
    rng = substream(3, "q")
    obj = QuadraticObjective.diagonal(3, 4, rng, spread=1.0)
    g_hat, _, _ = heterogeneity_stats(obj, probe_points(3, seed=4), substream(4, "h"))
    assert g_hat == pytest.approx(obj.dissimilarity_bound(), rel=1e-9)

