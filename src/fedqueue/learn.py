"""Local objectives and synthetic data.

Two workload families share one duck-typed interface (dimension, weights,
the global loss, client and global gradients, the draw predicate,
stochastic gradients, evaluate, init_point).  ``draws(k)`` says whether
client k's jobs draw from their rng at all: every classify job draws
minibatches, and a quadratic job draws gradient noise only when
sigma_k > 0, so the engine derives a job's substream only when it is
true.  Stochastic gradients come in three calls:
``sample_batches(k, steps, batch_size, rng)`` draws all the randomness of a
``steps``-step job on client k and returns one batch per step, or None when
``draws(k)`` is false (``rng`` is then None too); ``bind(ks, W)`` binds a
stack of L jobs ("lanes"), lane i client ``ks[i]`` at row ``W[i]`` of the
``(L, dim)`` iterates W, which the caller updates in place;
``stochastic_gradient(bound, batches)`` computes their gradients at the
current W without an RNG, lane i on its one-step batch ``batches[i]``
(``batches`` is None for lanes that draw nothing).  The lanes of one call draw
batches of one shape: only noise-free (None) or only noisy quadratic lanes,
or classify lanes of one batch width.  It returns an ``(L, dim)`` array
that the caller may overwrite, valid until the next call on the same
binding (the classifier's one buffer); each row is bit for bit the
gradient of that lane computed alone.  A draw of shape (steps, ...) yields
the same values as ``steps`` one-step draws from the same generator.
Lanes of several objectives share one stack when the objectives'
``stack_key``s are equal: any one of them binds and computes the stack.

* ``QuadraticObjective`` -- F_k(w) = 0.5 (w - b_k)' A (w - b_k) with a shared
  PSD matrix A and per-client offsets b_k.  Smoothness L is the largest
  eigenvalue of A, the cross-client dissimilarity G is max_k |A (b_bar - b_k)|,
  and gradient noise is injected with an exactly controlled scale, which
  makes it the workload for the theory-check harness.  Its global loss is one
  stacked call over the K clients, one gemv and one dot per client as each
  client's 0.5 d' A d is computed alone, with the weighted losses added in
  client order: bit for bit ``tests/test_learn.py::reference_loss``.

* ``ClassifyObjective`` -- a Gaussian-mixture multiclass task with a linear
  softmax or one-hidden-layer tanh model trained by hand-written SGD, with
  Dirichlet non-IID partitioning across clients.  Stands in for image
  benchmarks at desk scale; comparisons target orderings, not absolute
  accuracies.  Objectives whose rows are staged in one shared buffer
  (``staging_blocks``) and whose layers have one shape share stacks.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadraticObjective",
    "ClassifyObjective",
    "dirichlet_partition",
    "iid_partition",
    "make_mixture_data",
    "staging_blocks",
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
        # its lanes stack only with each other: bind reads its offsets
        self.stack_key = id(self)

    @classmethod
    def diagonal(cls, dim: int, num_clients: int, rng: np.random.Generator,
                 lmax: float = 4.0, spread: float = 1.0, noise_sigma=0.0):
        """Shared diag(linspace(1, lmax)) curvature, offsets spread around 0."""
        a = np.diag(np.linspace(1.0, lmax, dim))
        b = spread * rng.standard_normal((num_clients, dim)) if spread > 0 \
            else np.zeros((num_clients, dim))
        return cls(a, b, noise_sigma=noise_sigma)

    def loss(self, w: np.ndarray) -> float:
        # one gemv and one dot per client, as tests/test_learn.py's
        # reference_loss computes each alone; the weighted losses are added
        # one by one in client order: numpy's pairwise sum, or sum()'s
        # compensated one on Python >= 3.12, would change the last bit
        d = w - self.b
        losses = ((0.5 * d)[:, None, :] @ self.A @ d[:, :, None])[:, 0, 0]
        total = 0.0
        for x in (self.weights * losses).tolist():
            total += x
        return total

    def client_gradient(self, k: int, w: np.ndarray) -> np.ndarray:
        return self.A @ (w - self.b[k])

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.A @ (w - self.b_bar)

    def draws(self, k: int) -> bool:
        """Whether client k's jobs draw from their rng: only noisy ones do."""
        return bool(self.noise_sigma[k] > 0)

    def sample_batches(self, k: int, steps: int, batch_size: int,
                       rng: np.random.Generator | None):
        """Per-step gradient noise of scale sigma_k / sqrt(p), or None when
        sigma_k = 0; batch_size does not apply to the quadratic."""
        if not self.draws(k):
            return None
        sig = float(self.noise_sigma[k])
        return sig / math.sqrt(self.dimension) * rng.standard_normal((steps, self.dimension))

    def bind(self, ks, w: np.ndarray):
        return w, self.b[ks]

    def stochastic_gradient(self, bound, batches) -> np.ndarray:
        # one gemv per lane, as A @ (w - b_k) computes it alone
        w, b = bound
        g = (self.A @ (w - b)[:, :, None])[:, :, 0]
        if batches is not None:
            g += batches
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


def _exp_shifted(z: np.ndarray) -> np.ndarray:
    """exp(z - row max) over the last axis, in place.  A max is order-free,
    so it is taken from a class-major copy, which numpy reduces far faster."""
    z -= np.ascontiguousarray(z.swapaxes(-1, -2)).max(axis=-2)[..., None]
    return np.exp(z, out=z)


def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the logits z, in place; returns z.  Its
    sum keeps numpy's last-axis (pairwise) order, which fixes the bits."""
    z = _exp_shifted(z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


class ClassifyObjective:
    """Multiclass cross-entropy on a fixed generated dataset.

    model="linear": logits = W x + c.  model="mlp": one tanh hidden layer
    of width 32.  Both are one stack of affine layers with tanh between
    them; the model only sets the layer shapes (outputs, inputs).
    Parameters live in a flat float64 vector, each layer's weights then its
    bias, so the protocol layer can treat updates as plain dense deltas.

    The training rows are staged once as ``[x | 1 | one-hot(y)]`` in one
    array, client by client, each client's rows a block at its own offset,
    and the test split as ``[x | 1]``: the minibatches of a stack of lanes
    are one gather of staged rows, the labels are subtracted as rows, and
    the data layer's weight and bias gradients come from one matmul against
    ``[x | 1]``.  ``staging`` is ``(buffer, first row)``: the rows then fill
    the buffer's block that starts there, and batch indices are rows of the
    whole buffer, so the lanes of every objective staged in it gather from
    one array.  Without it the objective stages into a buffer of its own.
    The forward and backward passes take a binding of a stack
    ``(L, dim)`` and ``(L, n, ·)`` rows (full-client passes and evaluation
    are stacks of one); a stack runs ``(L, ·, ·)`` matmuls, one gemm per
    lane, and reduces over the same axes, so each lane's bits are its own.
    """

    def __init__(self, x_train, y_train, x_test, y_test, partition,
                 classes: int, model: str = "linear", weight_mode: str = "equal",
                 init_rng: np.random.Generator | None = None, staging=None):
        # the features are kept only as the staged rows below
        x_train = np.asarray(x_train, dtype=float)
        x_test = np.asarray(x_test, dtype=float)
        self.y_train = np.asarray(y_train, dtype=int)
        self.y_test = np.asarray(y_test, dtype=int)
        self.partition = [np.asarray(p, dtype=int) for p in partition]
        self.classes = classes
        self.model = model
        self.hidden = 32
        self.feature_dim = x_train.shape[1]
        self.num_clients = len(self.partition)
        d, h = self.feature_dim, self.hidden
        # every client's rows, staged once in one array: batches index into it
        sizes = [len(p) for p in self.partition]
        if staging is None:
            staging = (np.zeros((sum(sizes), d + 1 + classes)), 0)
        self._staged, first = staging
        self._offsets = first + np.cumsum([0] + sizes[:-1])
        self._rows = []                 # each client's block of staged rows
        for p, start in zip(self.partition, self._offsets):
            rows = self._staged[start:start + len(p)]
            rows[:, :d] = x_train[p]
            rows[:, d] = 1.0
            rows[np.arange(len(p)), d + 1 + self.y_train[p]] = 1.0
            self._rows.append(rows)
        self._test_rows = np.hstack([x_test, np.ones((len(x_test), 1))])
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
        self.stack_key = (id(self._staged), tuple(shapes))
        sizes = np.array(sizes, dtype=float)
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

    def bind(self, ks, w: np.ndarray):
        """Per layer, views of w as weights, their transpose and bias, and of
        one gradient buffer as weights and bias (ks is not needed)."""
        g = np.empty_like(w)
        views = []
        for ws, bs, shape in self._layers:
            wl = w[..., ws].reshape(w.shape[:-1] + shape)
            views.append((wl, wl.swapaxes(-1, -2), w[..., None, bs],
                          g[..., ws].reshape(wl.shape), g[..., bs]))
        return views, g

    def _forward(self, bound, x1: np.ndarray):
        """Logits of the rows x1 = [x | 1] and each layer's input: x1, then
        each hidden layer's tanh.  The bias is added after the matmul: folding
        it in through the ones column would change the logits' last bit."""
        inputs = []
        for i, (wl, wt, b, _, _) in enumerate(bound[0]):
            a = np.tanh(z) if i else x1
            inputs.append(a)
            z = a[..., :wt.shape[-2]] @ wt
            z += b
        return z, inputs

    def _loss_and_accuracy(self, w: np.ndarray, x1: np.ndarray, y: np.ndarray):
        """Mean cross-entropy and accuracy of the rows x1 = [x | 1] at w; of
        the softmax, only the true-class e[i, y_i] / s_i, with the same bits."""
        logits = self._forward(self.bind(None, w[None]), x1[None])[0][0]
        acc = float(np.mean(np.argmax(logits, axis=1) == y))
        e = _exp_shifted(logits)
        p = e[np.arange(len(y)), y] / e.sum(axis=-1)
        return float(-np.mean(np.log(p + 1e-300))), acc

    def _grad(self, bound, rows: np.ndarray) -> np.ndarray:
        """Mean cross-entropy gradient over staged rows [x | 1 | one-hot],
        in the binding's buffer: the one backward pass behind both
        full-client and minibatch gradients."""
        d1 = self.feature_dim + 1
        dz, inputs = self._forward(bound, rows[..., :d1])
        _softmax_inplace(dz)
        dz -= rows[..., d1:]
        dz /= rows.shape[-2]
        views, g = bound
        for i in reversed(range(len(views))):
            (wl, _, _, gw, gb), a = views[i], inputs[i]
            if i:
                gw[...] = dz.swapaxes(-1, -2) @ a
                gb[...] = dz.sum(axis=-2)
                dz = (dz @ wl) * (1.0 - a * a)
            else:
                # the data layer: weights and bias from one dz' [x | 1]
                wb = dz.swapaxes(-1, -2) @ a
                gw[...] = wb[..., :-1]
                gb[...] = wb[..., -1]
        return g

    # ---- objective interface --------------------------------------------
    def client_loss(self, k: int, w: np.ndarray) -> float:
        y = self.y_train[self.partition[k]]
        return self._loss_and_accuracy(w, self._rows[k], y)[0]

    def client_gradient(self, k: int, w: np.ndarray) -> np.ndarray:
        return self._grad(self.bind(None, w[None]), self._rows[k][None])[0]

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return sum(p * self.client_gradient(k, w) for k, p in enumerate(self.weights))

    def loss(self, w: np.ndarray) -> float:
        return float(sum(p * self.client_loss(k, w)
                         for k, p in enumerate(self.weights)))

    def draws(self, k: int) -> bool:
        """Whether client k's jobs draw from their rng: every minibatch does."""
        return True

    def sample_batches(self, k: int, steps: int, batch_size: int,
                       rng: np.random.Generator) -> np.ndarray:
        """(steps, min(batch_size, n_k)) rows of the staged array drawn with
        replacement from client k's n_k samples; row i is step i's
        minibatch."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        n_k = len(self.partition[k])
        batches = rng.integers(0, n_k, size=(steps, min(batch_size, n_k)))
        batches += self._offsets[k]
        return batches

    def stochastic_gradient(self, bound, batches) -> np.ndarray:
        # take() is the same gather as _staged[batches], at half the cost
        return self._grad(bound, self._staged.take(batches, axis=0))

    def evaluate(self, w: np.ndarray):
        """(loss, accuracy) on the test split."""
        return self._loss_and_accuracy(w, self._test_rows, self.y_test)

    def init_point(self) -> np.ndarray:
        return self._w0.copy()


# ---------------------------------------------------------------------------
# config-driven construction
# ---------------------------------------------------------------------------

def staging_blocks(cfgs) -> list:
    """Per config, the (buffer, first row) its classify objective stages
    its training rows into, or None for the quadratic.  The configs whose
    rows are equally wide share one zeroed buffer, each a block of
    ``train_size`` rows in config order, so their lanes can share stacks."""
    widths, starts, rows = [], [], {}
    for cfg in cfgs:
        wl = cfg.workload
        width = None if wl.dataset == "quadratic" else wl.dim + 1 + wl.classes
        widths.append(width)
        starts.append(rows.get(width, 0))
        rows[width] = starts[-1] + wl.train_size
    buffers = {width: np.zeros((n, width)) for width, n in rows.items()
               if width is not None}
    return [None if width is None else (buffers[width], start)
            for width, start in zip(widths, starts)]


def build_objective(cfg, rng: np.random.Generator, staging=None):
    """Materialize the configured workload from a data substream; a
    classify objective stages its rows into `staging` if given (see
    `ClassifyObjective`)."""
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
                             init_rng=rng, staging=staging)

