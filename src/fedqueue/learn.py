"""Local objectives and synthetic data.

Two workload families share one duck-typed interface (dimension, weights,
client/global gradients, stochastic gradients, evaluate).  Stochastic
gradients come in two calls: ``sample_batches(k, steps, batch_size, rng)``
draws all the randomness of a ``steps``-step job on client k in one call and
returns one batch per step, and ``stochastic_gradient(k, w, batch)`` computes
the gradient on one such batch without touching an RNG.  A draw of shape
(steps, ...) yields the same values as ``steps`` one-step draws from the
same generator.

* ``QuadraticObjective`` -- F_k(w) = 0.5 (w - b_k)' A (w - b_k) with a shared
  PSD matrix A and per-client offsets b_k.  Smoothness L and the cross-client
  dissimilarity bound are known in closed form, and gradient noise is injected
  with an exactly controlled scale, which makes it the workload for the
  theory-check harness.

* ``ClassifyObjective`` -- a Gaussian-mixture multiclass task with a linear
  softmax or one-hidden-layer tanh model trained by hand-written SGD, with
  Dirichlet non-IID partitioning across clients.  Stands in for image
  benchmarks at desk scale; comparisons target orderings, not absolute
  accuracies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadraticObjective",
    "ClassifyObjective",
    "dirichlet_partition",
    "iid_partition",
    "heterogeneity_stats",
    "make_mixture_data",
    "build_objective",
]


# ---------------------------------------------------------------------------
# quadratic family
# ---------------------------------------------------------------------------

class QuadraticObjective:
    def __init__(self, a_matrix: np.ndarray, offsets: np.ndarray,
                 noise_sigma=0.0):
        self.A = np.asarray(a_matrix, dtype=float)
        self.b = np.asarray(offsets, dtype=float)          # (K, p)
        if self.b.ndim != 2 or self.A.shape != (self.b.shape[1], self.b.shape[1]):
            raise ValueError("offsets must be (K, p) matching A")
        if not np.allclose(self.A, self.A.T):
            raise ValueError("A must be symmetric")
        self.num_clients, self.dimension = self.b.shape
        sig = np.asarray(noise_sigma, dtype=float)
        self.noise_sigma = np.full(self.num_clients, float(sig)) if sig.ndim == 0 else sig
        self.weights = np.full(self.num_clients, 1.0 / self.num_clients)
        self.b_bar = self.weights @ self.b

    @classmethod
    def diagonal(cls, dim: int, num_clients: int, rng: np.random.Generator,
                 lmax: float = 4.0, spread: float = 1.0, noise_sigma=0.0):
        """Shared diag(linspace(1, lmax)) curvature, offsets spread around 0."""
        a = np.diag(np.linspace(1.0, lmax, dim))
        b = spread * rng.standard_normal((num_clients, dim)) if spread > 0 \
            else np.zeros((num_clients, dim))
        return cls(a, b, noise_sigma=noise_sigma)

    # smoothness of F (shared A makes client and global L coincide)
    def smoothness(self) -> float:
        return float(np.linalg.eigvalsh(self.A).max())

    def dissimilarity_bound(self) -> float:
        """Exact G: gradients differ by the constant A (b_bar - b_k)."""
        return float(max(np.linalg.norm(self.A @ (self.b_bar - bk)) for bk in self.b))

    def minimizer(self) -> np.ndarray:
        return self.b_bar.copy()

    def min_value(self) -> float:
        total = 0.0
        for p_k, bk in zip(self.weights, self.b):
            d = self.b_bar - bk
            total += p_k * 0.5 * d @ self.A @ d
        return float(total)

    def client_loss(self, k: int, w: np.ndarray) -> float:
        d = w - self.b[k]
        return float(0.5 * d @ self.A @ d)

    def loss(self, w: np.ndarray) -> float:
        return float(sum(p * self.client_loss(k, w)
                         for k, p in enumerate(self.weights)))

    def client_gradient(self, k: int, w: np.ndarray) -> np.ndarray:
        return self.A @ (w - self.b[k])

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.A @ (w - self.b_bar)

    def sample_batches(self, k: int, steps: int, batch_size: int,
                       rng: np.random.Generator):
        """Per-step gradient noise of scale sigma_k / sqrt(p) (None when
        sigma_k = 0); batch_size does not apply to the quadratic."""
        sig = float(self.noise_sigma[k])
        if sig > 0:
            return sig / math.sqrt(self.dimension) * rng.standard_normal((steps, self.dimension))
        return [None] * steps

    def stochastic_gradient(self, k: int, w: np.ndarray, batch) -> np.ndarray:
        g = self.client_gradient(k, w)
        if batch is not None:
            g = g + batch
        return g

    def evaluate(self, w: np.ndarray):
        return self.loss(w), None

    def init_point(self) -> np.ndarray:
        return self.b_bar + np.ones(self.dimension) / math.sqrt(self.dimension)


# ---------------------------------------------------------------------------
# synthetic classification family
# ---------------------------------------------------------------------------

def make_mixture_data(n: int, dim: int, classes: int, rng: np.random.Generator,
                      sep: float = 3.0, noise: float = 1.0):
    """Balanced Gaussian-mixture data: x = sep * u_y + noise * N(0, I)."""
    means = rng.standard_normal((classes, dim))
    means *= sep / np.linalg.norm(means, axis=1, keepdims=True)
    y = np.tile(np.arange(classes), n // classes + 1)[:n]
    rng.shuffle(y)
    x = means[y] + noise * rng.standard_normal((n, dim))
    return x, y, means


def dirichlet_partition(labels: np.ndarray, num_clients: int, alpha_dir: float,
                        rng: np.random.Generator):
    """Class-skewed split: per-class proportions drawn Dirichlet(alpha_dir).

    Degenerate draws leaving a client empty are resampled, up to 100 draws
    in all.  Partitions are disjoint and cover every sample.
    """
    if alpha_dir <= 0:
        raise ValueError("alpha_dir must be > 0")
    if num_clients < 1:
        raise ValueError("need at least one client")
    labels = np.asarray(labels)
    if len(labels) < num_clients:
        raise ValueError("fewer samples than clients")
    classes = np.unique(labels)
    for _ in range(100):
        parts = [[] for _ in range(num_clients)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(num_clients, alpha_dir))
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
            for part, chunk in zip(parts, np.split(idx, cuts)):
                part.extend(chunk.tolist())
        if all(len(p) > 0 for p in parts):
            return [np.sort(np.asarray(p)) for p in parts]
    # salvage a degenerate final draw: move one sample to each empty client
    donors = sorted(range(num_clients), key=lambda i: -len(parts[i]))
    for i in range(num_clients):
        while not parts[i]:
            parts[i].append(parts[donors[0]].pop())
            donors.sort(key=lambda j: -len(parts[j]))
    return [np.sort(np.asarray(p)) for p in parts]


def iid_partition(n: int, num_clients: int, rng: np.random.Generator):
    idx = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(idx, num_clients)]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class ClassifyObjective:
    """Multiclass cross-entropy on a fixed generated dataset.

    model="linear": logits = W x + c.  model="mlp": one tanh hidden layer
    of width 32.  Both are one stack of affine layers with tanh between
    them; the model only sets the layer shapes (outputs, inputs).
    Parameters live in a flat float64 vector, each layer's weights then its
    bias, so the protocol layer can treat updates as plain dense deltas.
    """

    def __init__(self, x_train, y_train, x_test, y_test, partition,
                 classes: int, model: str = "linear", weight_mode: str = "equal",
                 init_rng: np.random.Generator | None = None):
        self.x_train = np.asarray(x_train, dtype=float)
        self.y_train = np.asarray(y_train, dtype=int)
        self.x_test = np.asarray(x_test, dtype=float)
        self.y_test = np.asarray(y_test, dtype=int)
        self.partition = [np.asarray(p, dtype=int) for p in partition]
        # each client's rows, gathered once: batches index into these
        self._rows = [(self.x_train[p], self.y_train[p]) for p in self.partition]
        self.classes = classes
        self.model = model
        self.hidden = 32
        self.feature_dim = self.x_train.shape[1]
        self.num_clients = len(self.partition)
        d, h = self.feature_dim, self.hidden
        if model == "linear":
            shapes = [(classes, d)]
        elif model == "mlp":
            shapes = [(h, d), (classes, h)]
        else:
            raise ValueError(f"unknown model: {model!r}")
        # per layer: the slices of its weights and bias in the flat vector
        self._layers, i = [], 0
        for out, fan_in in shapes:
            n = out * fan_in
            self._layers.append((slice(i, i + n), slice(i + n, i + n + out),
                                 (out, fan_in)))
            i += n + out
        self.dimension = i
        sizes = np.array([len(p) for p in self.partition], dtype=float)
        if weight_mode == "data_size":
            self.weights = sizes / sizes.sum()
        else:
            self.weights = np.full(self.num_clients, 1.0 / self.num_clients)
        self._w0 = np.zeros(self.dimension)
        if model == "mlp":
            # symmetry-breaking init; fixed at construction so every method
            # starts a given seed's experiment from the same point
            rng = init_rng if init_rng is not None else np.random.default_rng(0)
            for ws, _, (out, fan_in) in self._layers:
                self._w0[ws] = rng.standard_normal(out * fan_in) / math.sqrt(fan_in)

    def _forward(self, w: np.ndarray, x: np.ndarray):
        """Logits of the rows x, and each layer's input: x, then the tanh
        of each hidden layer's output."""
        inputs = []
        for i, (ws, bs, shape) in enumerate(self._layers):
            a = np.tanh(z) if i else x
            inputs.append(a)
            z = a @ w[ws].reshape(shape).T + w[bs]
        return z, inputs

    @staticmethod
    def _nll(probs: np.ndarray, y: np.ndarray) -> float:
        return float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300)))

    def _grad(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean cross-entropy gradient over the rows (x, y): the one backward
        pass behind both full-client and minibatch gradients."""
        n = len(y)
        logits, inputs = self._forward(w, x)
        dz = _softmax(logits)
        dz[np.arange(n), y] -= 1.0
        dz /= n
        g = np.empty_like(w)
        for i in reversed(range(len(self._layers))):
            ws, bs, shape = self._layers[i]
            a = inputs[i]
            g[ws] = (dz.T @ a).ravel()
            g[bs] = dz.sum(axis=0)
            if i:
                dz = (dz @ w[ws].reshape(shape)) * (1.0 - a * a)
        return g

    # ---- objective interface --------------------------------------------
    def client_loss(self, k: int, w: np.ndarray) -> float:
        x, y = self._rows[k]
        return self._nll(_softmax(self._forward(w, x)[0]), y)

    def client_gradient(self, k: int, w: np.ndarray) -> np.ndarray:
        return self._grad(w, *self._rows[k])

    def gradient(self, w: np.ndarray) -> np.ndarray:
        g = np.zeros(self.dimension)
        for k, p in enumerate(self.weights):
            g += p * self.client_gradient(k, w)
        return g

    def loss(self, w: np.ndarray) -> float:
        return float(sum(p * self.client_loss(k, w)
                         for k, p in enumerate(self.weights)))

    def sample_batches(self, k: int, steps: int, batch_size: int,
                       rng: np.random.Generator) -> np.ndarray:
        """(steps, min(batch_size, n_k)) row positions drawn with replacement
        from client k's n_k samples; row i is step i's minibatch."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        n_k = len(self.partition[k])
        return rng.integers(0, n_k, size=(steps, min(batch_size, n_k)))

    def stochastic_gradient(self, k: int, w: np.ndarray, batch: np.ndarray) -> np.ndarray:
        x, y = self._rows[k]
        return self._grad(w, x[batch], y[batch])

    def evaluate(self, w: np.ndarray):
        """(loss, accuracy) on the test split."""
        logits, _ = self._forward(w, self.x_test)
        acc = float(np.mean(np.argmax(logits, axis=1) == self.y_test))
        return self._nll(_softmax(logits), self.y_test), acc

    def init_point(self) -> np.ndarray:
        return self._w0.copy()


# ---------------------------------------------------------------------------
# assumption-constant estimation
# ---------------------------------------------------------------------------

def heterogeneity_stats(objective, probe_points, rng: np.random.Generator,
                        noise_draws: int = 200, batch_size: int = 64):
    """Empirical (G_hat, sigma_hat, L_hat) over >= 10 probe points.

    G_hat: max client-vs-global gradient gap.  sigma_hat: RMS stochastic
    gradient deviation.  L_hat: max secant slope over probe pairs plus
    coordinate bumps (exact for quadratics up to the probe geometry).
    """
    probes = [np.asarray(p, dtype=float) for p in probe_points]
    if len(probes) < 10:
        raise ValueError("need at least 10 probe points")
    g_hat = 0.0
    sq_dev = []
    for w in probes:
        g_global = objective.gradient(w)
        for k in range(objective.num_clients):
            gk = objective.client_gradient(k, w)
            g_hat = max(g_hat, float(np.linalg.norm(gk - g_global)))
    draws_per_probe = max(1, noise_draws // len(probes))
    for w in probes:
        for k in range(objective.num_clients):
            gk = objective.client_gradient(k, w)
            for batch in objective.sample_batches(k, draws_per_probe, batch_size, rng):
                g = objective.stochastic_gradient(k, w, batch)
                sq_dev.append(float(np.sum((g - gk) ** 2)))
    sigma_hat = math.sqrt(float(np.mean(sq_dev))) if sq_dev else 0.0
    l_hat = 0.0
    grads = [objective.gradient(w) for w in probes]
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            dw = np.linalg.norm(probes[i] - probes[j])
            if dw > 1e-12:
                l_hat = max(l_hat, float(np.linalg.norm(grads[i] - grads[j]) / dw))
    eps = 1e-4
    for w, g0 in zip(probes[: min(5, len(probes))], grads):
        for axis in range(objective.dimension):
            bumped = w.copy()
            bumped[axis] += eps
            slope = np.linalg.norm(objective.gradient(bumped) - g0) / eps
            l_hat = max(l_hat, float(slope))
    return g_hat, sigma_hat, l_hat


# ---------------------------------------------------------------------------
# config-driven construction
# ---------------------------------------------------------------------------

def build_objective(cfg, rng: np.random.Generator):
    """Materialize the configured workload from a data substream."""
    wl = cfg.workload
    if wl.dataset == "quadratic":
        return QuadraticObjective.diagonal(
            dim=wl.dim, num_clients=cfg.protocol.num_clients, rng=rng,
            lmax=wl.quad_lmax, spread=wl.quad_spread, noise_sigma=wl.quad_sigma)
    n_total = wl.train_size + wl.test_size
    x, y, _ = make_mixture_data(n_total, wl.dim, wl.classes, rng,
                                sep=wl.class_sep, noise=wl.noise)
    x_train, y_train = x[: wl.train_size], y[: wl.train_size]
    x_test, y_test = x[wl.train_size:], y[wl.train_size:]
    if wl.partition == "iid":
        parts = iid_partition(wl.train_size, cfg.protocol.num_clients, rng)
    else:
        parts = dirichlet_partition(y_train, cfg.protocol.num_clients,
                                    wl.data_alpha, rng)
    return ClassifyObjective(x_train, y_train, x_test, y_test, parts,
                             classes=wl.classes, model=wl.model,
                             weight_mode=cfg.fedqueue.client_weight_mode,
                             init_rng=rng)

