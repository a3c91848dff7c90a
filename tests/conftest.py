import os

import numpy as np

from netcert import certify, crown, lp, relax
from netcert.model import (Network, PerturbationSpec, forward_batch,
                           generate_random_network)

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


def build(act, seed, p, log_eps, widths=(3, 4, 3, 2)):
    """A random net of ``widths`` and a ball around an x0 drawn from its
    seed, of radius 10**log_eps."""
    net = generate_random_network(seed, list(widths), act)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, widths[0])
    return net, PerturbationSpec(x0, p, 10.0 ** log_eps)


def toy_relu_net() -> Network:
    # z2 = relu(x), one input, one hidden neuron
    return Network((np.array([[1.0]]), np.array([[1.0]])),
                   (np.zeros(1), np.zeros(1)), "relu")


def linear_two_class_net() -> Network:
    # F(x) = (x, -x) exactly, via relu(x) - relu(-x)
    w1 = np.array([[1.0], [-1.0]])
    w2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return Network((w1, w2), (np.zeros(2), np.zeros(2)), "relu")


def boundary_sample(net: Network, seed: int, n_cand: int = 300):
    """A sample point with a small top-2 logit gap and its predicted label."""
    rng = np.random.default_rng(seed)
    cands = rng.uniform(-1.0, 1.0, (n_cand, net.n))
    logits = forward_batch(net, cands)
    part = np.partition(logits, -2, axis=1)
    gaps = part[:, -1] - part[:, -2]
    idx = int(np.argmin(gaps))
    return cands[idx], int(np.argmax(logits[idx]))


def positive_bias_relu_net(seed: int, widths, margin: float = 0.5,
                           x0=None, eps: float = 0.3):
    """Random ReLU net rebiased so every hidden pre-activation stays >= margin
    over the inf-ball (the network is affine there)."""
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-1, 1, (widths[k], widths[k - 1]))
               for k in range(1, len(widths))]
    biases = []
    x0 = np.zeros(widths[0]) if x0 is None else np.asarray(x0, float)
    lo, hi = x0 - eps, x0 + eps
    for k, w in enumerate(weights, start=1):
        wp, wn = np.maximum(w, 0), np.minimum(w, 0)
        zmin = wp @ lo + wn @ hi
        zmax = wp @ hi + wn @ lo
        if k < len(weights):
            b = margin - zmin
            biases.append(b)
            lo, hi = zmin + b, zmax + b  # relu is identity on [margin, ...]
        else:
            biases.append(rng.uniform(-1, 1, w.shape[0]))
    return Network(tuple(weights), tuple(biases), "relu")


def crown_lines(net: Network, bounds: crown.LayerBounds) -> list:
    """The lines ``crown.propagate`` chose from ``bounds``: entry v-1 holds
    layer v's (slope_lower, intercept_lower, slope_upper, intercept_upper)."""
    return [crown.choose_layer_lines(
                *relax.layer_line_spaces(net.activation, *bounds.layer(v)))
            for v in range(1, net.m)]


def backward_by_sense(net: Network, k: int, rows, lines, sense: str):
    """crown's affine ``sense`` bound of the neurons ``rows`` of layer k over
    the input, as (coeffs, offsets): an upper bound is the negated lower
    bound of the negated rows."""
    sign = 1.0 if sense == "lower" else -1.0
    rows = list(rows)
    coeffs, offsets, _ = crown.backward_rows(
        net, k, sign * net.weights[k - 1][rows], sign * net.biases[k - 1][rows],
        lines)
    return sign * coeffs, sign * offsets


def concretize_by_sense(coeffs, offsets, spec, sense: str) -> np.ndarray:
    """The ``sense`` extreme over the ball of each affine row (coeffs,
    offset): the least value for "lower", the greatest for "upper"."""
    sign = 1.0 if sense == "lower" else -1.0
    return sign * crown.concretize_rows(sign * coeffs, sign * offsets, spec)


def shared_lines_lp(net: Network, spec) -> crown.LayerBounds:
    """The LP optimum of every neuron of layers 2..m over crown's own lines
    and intervals; the paper shows it equals crown's closed-form bound."""
    bounds = crown.propagate(net, spec)
    lines = crown_lines(net, bounds)
    lows, ups = [bounds.lower[0]], [bounds.upper[0]]
    for k in range(2, net.m + 1):
        for sense, sign, out in zip(relax.SIDES, (1.0, -1.0), (lows, ups)):
            # an upper objective is the negated row: its bound is minus the
            # LP's least value
            out.append(np.array([
                sign * lp.solve(lp.build_lp(net, spec, k, [i], [sense], bounds,
                                            lines))[0][0]
                for i in range(net.layer_width(k))]))
    return crown.LayerBounds(lows, ups)


def bisect_radius(certified, cap: float, rel_tol: float = 1e-3):
    """The radius search that probes every point it visits: exponential
    bracketing from ``certify.BRACKET_START``, then bisection.
    ``certified(eps)`` answers one probe.  Returns (radius, probed radii in
    order, cap hit, never certified)."""
    probes = []

    def probe(eps: float) -> bool:
        probes.append(eps)
        return certified(eps)

    start = min(certify.BRACKET_START, cap)
    if probe(start):
        if start == cap:
            return cap, probes, True, False
        lo = start
        hi = None
        while hi is None:
            nxt = lo * 2.0
            if nxt >= cap:
                if probe(cap):
                    return cap, probes, True, False
                hi = cap
            elif probe(nxt):
                lo = nxt
            else:
                hi = nxt
    else:
        lo = None
        hi = start
        for i in range(1, certify.BRACKET_HALVINGS + 1):
            eps = start * 2.0 ** (-i)
            if probe(eps):
                lo = eps
                hi = eps * 2.0
                break
            hi = eps
        if lo is None:
            return 0.0, probes, False, True
    while (hi - lo) / lo > rel_tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes, False, False
