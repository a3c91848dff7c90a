"""Fully connected network model, perturbation specification, and serialization.

A network is an ordered list of affine layers (weight matrix + bias vector)
with one activation applied between layers but not after the last one, so the
outputs are raw logits.  The interchange format is a single JSON document
holding the activation name, the width chain, and row-major weight arrays,
which keeps fixtures human-diffable and trivial to emit from any training
stack.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

SUPPORTED_ACTIVATIONS = ("relu", "sigmoid", "tanh")


class ModelError(ValueError):
    """Raised for malformed network files or inconsistent network data."""


def relu(z):
    return np.maximum(np.asarray(z, dtype=float), 0.0)


def sigmoid(z):
    # exp overflow for very negative z yields inf and a correct 0.0 result
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def tanh(z):
    return np.tanh(np.asarray(z, dtype=float))


def relu_jet(z, order=2):
    a = relu(z)
    # subgradient 0 at the kink
    d1 = (np.asarray(z, dtype=float) > 0.0).astype(float)
    return (a, d1) if order == 1 else (a, d1, np.zeros_like(d1))


def sigmoid_jet(z, order=2):
    s = sigmoid(z)
    d1 = s * (1.0 - s)
    return (s, d1) if order == 1 else (s, d1, d1 * (1.0 - 2.0 * s))


def tanh_jet(z, order=2):
    t = tanh(z)
    d1 = 1.0 - t * t
    return (t, d1) if order == 1 else (t, d1, -2.0 * t * d1)


#: activation name -> function
ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "tanh": tanh}

#: activation name -> jet(z, order): the function and its first ``order``
#: derivatives (order 1 or 2) from one evaluation of the activation
ACTIVATION_JETS = {
    "relu": relu_jet,
    "sigmoid": sigmoid_jet,
    "tanh": tanh_jet,
}


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Network:
    """An m-layer perceptron: z(k) = W(k) a(k-1) + b(k), a(k) = act(z(k)).

    Immutable after construction; safe to share across concurrent workers.
    """

    weights: tuple
    biases: tuple
    activation: str

    def __post_init__(self):
        if self.activation not in SUPPORTED_ACTIVATIONS:
            raise ModelError(f"unknown activation {self.activation!r}")
        ws = tuple(_as_readonly(w) for w in self.weights)
        bs = tuple(_as_readonly(b) for b in self.biases)
        if len(ws) != len(bs):
            raise ModelError("weights and biases must have the same layer count")
        if len(ws) < 2:
            raise ModelError("need at least 2 layers (one hidden nonlinearity)")
        for idx, (w, b) in enumerate(zip(ws, bs), start=1):
            if w.ndim != 2 or b.ndim != 1:
                raise ModelError(f"layer {idx}: weights must be 2-d, bias 1-d")
            if w.shape[0] != b.shape[0]:
                raise ModelError(
                    f"layer {idx}: bias length {b.shape[0]} != rows {w.shape[0]}"
                )
            if idx > 1 and w.shape[1] != ws[idx - 2].shape[0]:
                raise ModelError(
                    f"layer {idx}: expects {w.shape[1]} inputs but layer "
                    f"{idx - 1} outputs {ws[idx - 2].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelError(f"layer {idx}: non-finite entry")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def m(self) -> int:
        """Number of affine layers."""
        return len(self.weights)

    @property
    def n(self) -> int:
        """Input dimension."""
        return self.weights[0].shape[1]

    @property
    def widths(self) -> tuple:
        """Width chain (n, n_1, ..., n_m)."""
        return (self.n,) + tuple(w.shape[0] for w in self.weights)

    def layer_width(self, k: int) -> int:
        """Width n_k of layer k (1-based)."""
        return self.weights[k - 1].shape[0]


@dataclass(frozen=True)
class PerturbationSpec:
    """Input ball: all x with ||x - x0||_p <= epsilon, p in {1, 2, inf}."""

    x0: np.ndarray
    p: float
    epsilon: float

    def __post_init__(self):
        x0 = _as_readonly(np.atleast_1d(self.x0))
        if x0.ndim != 1 or not np.isfinite(x0).all():
            raise ModelError("x0 must be a finite vector")
        p = float(self.p)
        if p not in (1.0, 2.0, math.inf):
            raise ModelError(f"unsupported norm order p={self.p}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ModelError(f"epsilon must be finite and nonnegative, "
                             f"got {self.epsilon}")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def q(self) -> float:
        """Holder conjugate of p (1/p + 1/q = 1)."""
        if self.p == 1.0:
            return math.inf
        if self.p == math.inf:
            return 1.0
        return 2.0


def check_input(net: Network, x0) -> None:
    """Reject a centre point whose length is not the network's input width."""
    if len(x0) != net.n:
        raise ModelError(f"x0 has {len(x0)} entries but the network takes "
                         f"{net.n} inputs")


def ball_rows(spec: PerturbationSpec, n_vars: int, x_col: int = 0,
              r_col: int | None = None):
    """Rows (A, b), A v <= b, that put the x block of a variable vector v of
    length ``n_vars`` in the ball (p = 1 or inf).

    x occupies columns x_col..x_col+n-1.  For p = 1 the absolute-value
    auxiliaries r occupy r_col..r_col+n-1: per coordinate x - r <= x0 and
    -x - r <= -x0, then sum r <= eps.  For p = inf each coordinate gives
    x <= x0 + eps and -x <= -(x0 - eps).
    """
    n = spec.x0.shape[0]
    t = np.arange(n)
    if spec.p == math.inf:
        A = np.zeros((2 * n, n_vars))
        A[2 * t, x_col + t] = 1.0
        A[2 * t + 1, x_col + t] = -1.0
        b = np.empty(2 * n)
        b[0::2] = spec.x0 + spec.epsilon
        b[1::2] = -(spec.x0 - spec.epsilon)
        return A, b
    if spec.p != 1.0:
        raise ValueError("the ball is a polyhedron only for p in {1, inf}")
    A = np.zeros((2 * n + 1, n_vars))
    A[2 * t, x_col + t] = 1.0
    A[2 * t + 1, x_col + t] = -1.0
    A[2 * t, r_col + t] = -1.0
    A[2 * t + 1, r_col + t] = -1.0
    A[2 * n, r_col + t] = 1.0
    b = np.empty(2 * n + 1)
    b[0:2 * n:2] = spec.x0
    b[1:2 * n:2] = -spec.x0
    b[2 * n] = spec.epsilon
    return A, b


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the network: returns the pre-activation of the last layer."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise ModelError(f"input must have shape ({net.n},), got {x.shape}")
    act = ACTIVATIONS[net.activation]
    a = x
    for idx, (w, b) in enumerate(zip(net.weights, net.biases), start=1):
        z = w @ a + b
        a = act(z) if idx < net.m else z
    return a


def jacobian(net: Network, x) -> np.ndarray:
    """d logits / dx at ``x`` (n_m x n): one forward pass that keeps each
    activation's derivative, then the product of the layers from the top
    (relu's derivative at its kink is 0)."""
    a = np.asarray(x, dtype=float)
    jet = ACTIVATION_JETS[net.activation]
    slopes = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a, d1 = jet(w @ a + b, order=1)
        slopes.append(d1)
    jac = net.weights[-1]
    for w, d1 in zip(reversed(net.weights[:-1]), reversed(slopes)):
        jac = (jac * d1) @ w
    return jac


def forward_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Evaluate the network on rows of ``xs`` (N x n). Returns N x n_m."""
    for z in preactivations(net, xs):
        pass
    return z


def preactivations(net: Network, xs: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the pre-activation matrix z(k) of each layer in turn, for rows
    of ``xs``; a caller that keeps only the last one holds one layer."""
    a = np.asarray(xs, dtype=float)
    act = ACTIVATIONS[net.activation]
    for idx, (w, b) in enumerate(zip(net.weights, net.biases), start=1):
        z = a @ w.T + b
        yield z
        if idx < net.m:
            a = act(z)


def save_network(net: Network, path) -> None:
    doc = {
        "activation": net.activation,
        "widths": list(net.widths),
        "weights": [w.reshape(-1).tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_network(path) -> Network:
    """Load and validate a network from its JSON interchange file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot parse network file {path}: {exc}") from exc
    try:
        widths = [int(w) for w in doc["widths"]]
        activation = doc["activation"]
        raw_weights = doc["weights"]
        raw_biases = doc["biases"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed network file {path}: {exc}") from exc
    if len(raw_weights) != len(widths) - 1 or len(raw_biases) != len(widths) - 1:
        raise ModelError(
            f"{path}: expected {len(widths) - 1} weight/bias blocks for "
            f"width chain {widths}"
        )
    weights = []
    biases = []
    for k in range(1, len(widths)):
        flat = np.asarray(raw_weights[k - 1], dtype=float)
        if flat.size != widths[k] * widths[k - 1]:
            raise ModelError(
                f"{path}: layer {k} weights have {flat.size} entries, "
                f"expected {widths[k]}x{widths[k - 1]}"
            )
        weights.append(flat.reshape(widths[k], widths[k - 1]))
        biases.append(np.asarray(raw_biases[k - 1], dtype=float))
    return Network(tuple(weights), tuple(biases), activation)


def load_sample(path) -> tuple:
    """Load a sample file: returns (x0, label).  The label must be a JSON
    integer: 1.5, true and "1" are rejected, not truncated or cast."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        x0 = np.asarray(doc["x0"], dtype=float)
        label = doc["label"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"cannot parse sample file {path}: {exc}") from exc
    if type(label) is not int:
        raise ModelError(f"cannot parse sample file {path}: label must be "
                         f"an integer, got {label!r}")
    return x0, label


def save_sample(x0, label, path) -> None:
    with open(path, "w") as fh:
        json.dump({"x0": np.asarray(x0, dtype=float).tolist(), "label": int(label)}, fh)
        fh.write("\n")


def generate_random_network(seed: int, widths, activation: str, scale: float = 1.0) -> Network:
    """Random network with i.i.d. uniform[-scale, scale] weights and biases.

    ``widths`` is the full width chain (n, n_1, ..., n_m); the draw order is
    fixed (per layer: weights then bias) so the result is deterministic per
    seed.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 3:
        raise ModelError("widths must chain at least input, one hidden, output")
    if not scale > 0:
        raise ModelError("scale must be positive")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for k in range(1, len(widths)):
        weights.append(rng.uniform(-scale, scale, size=(widths[k], widths[k - 1])))
        biases.append(rng.uniform(-scale, scale, size=widths[k]))
    return Network(tuple(weights), tuple(biases), activation)
