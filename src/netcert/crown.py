"""Backward propagation of linear bounds with closed-form concretization.

Every bound is the lower bound of a signed row: an upper bound of a row is
minus the lower bound of the negated row, and negation is exact in floating
point.  To bound a row of layer k from below, walk back through the layers;
at each activation the running row splits by sign: positive entries compose
with the lower bounding line of that neuron, the others with the upper line
(a zero entry adds nothing).  The result is an affine function of the raw
input whose least value over the ball follows from the dual norm:

    gamma = coeffs . x0 - eps * ||coeffs||_q + offset.

Layer-1 bounds are exact (the first layer is affine in the input); bounds
for k = 2..m come from one backward pass over the rows [W; -W] of layer k,
using the lines of layers < k.  Each layer gets one set of lines, the
default member of every line family (``default_lines``), chosen from its
bounds and shared by every later layer; frown starts from the same members
and every lp menu offers them.  A layer's lines are the four arrays
(slope_lower, intercept_lower, slope_upper, intercept_upper), one entry per
neuron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Network, PerturbationSpec, check_input
from . import relax
from .relax import LineSpaces

#: elementwise slack allowed when asserting lower <= upper (float noise only)
_BOUND_ORDER_SLACK = 1e-9


def dual_norm(rows: np.ndarray, q: float) -> np.ndarray:
    """Row-wise q-norm (q = 1, 2 or inf) of a 2-d array."""
    rows = np.atleast_2d(rows)
    if q == 1.0:
        return np.abs(rows).sum(axis=1)
    if q == 2.0:
        return np.sqrt((rows * rows).sum(axis=1))
    if q == math.inf:
        return np.abs(rows).max(axis=1) if rows.shape[1] else np.zeros(len(rows))
    raise ValueError(f"unsupported dual norm order q={q}")


def dual_norm_grad(rows: np.ndarray, q: float) -> np.ndarray:
    """Row-wise (sub)gradient of the q-norm at ``rows``.

    q=1: sign per coordinate; q=2: rows normalized; q=inf: indicator of the
    first max-abs coordinate times its sign.
    """
    rows = np.atleast_2d(rows)
    if q == 1.0:
        return np.sign(rows)
    if q == 2.0:
        norms = dual_norm(rows, 2.0)
        out = np.zeros_like(rows)
        nz = norms > 0
        out[nz] = rows[nz] / norms[nz, None]
        return out
    if q == math.inf:
        out = np.zeros_like(rows)
        if rows.shape[1]:
            idx = np.abs(rows).argmax(axis=1)
            r = np.arange(rows.shape[0])
            out[r, idx] = np.sign(rows[r, idx])
        return out
    raise ValueError(f"unsupported dual norm order q={q}")


@dataclass
class LayerBounds:
    """Pre-activation bounds l(k) <= z(k) <= u(k); index k-1 holds layer k.

    Layer-1 entries are exact (affine over the ball); the last entries are
    the output bounds.
    """

    lower: list
    upper: list

    def layer(self, k: int):
        return self.lower[k - 1], self.upper[k - 1]

    @property
    def output_lower(self) -> np.ndarray:
        return self.lower[-1]

    @property
    def output_upper(self) -> np.ndarray:
        return self.upper[-1]


def default_variables(spaces: LineSpaces) -> np.ndarray:
    """Deterministic baseline pick of every one-variable space of a record.

    ReLU crossing intervals take slope 1 when u >= |l| (ties included) and 0
    otherwise; tangent families start at the midpoint of the admissible
    range.  Fixed spaces get NaN.
    """
    if spaces.generator == "relu-slope":
        theta = np.where(spaces.u >= -spaces.l, 1.0, 0.0)
    else:
        theta = 0.5 * (spaces.var_lo + spaces.var_hi)
    return np.where(spaces.family, theta, np.nan)


def default_lines(spaces: LineSpaces):
    """The baseline line of every space of a record, as (slopes,
    intercepts): its fixed line, or the family member at
    ``default_variables``."""
    return spaces.members(default_variables(spaces))


def choose_layer_lines(spaces_lower, spaces_upper):
    """One layer's baseline lines, (slope_lower, intercept_lower,
    slope_upper, intercept_upper), from its lower- and upper-side spaces."""
    return (*default_lines(spaces_lower), *default_lines(spaces_upper))


def layer1_bounds(net: Network, spec: PerturbationSpec):
    """Exact bounds of z(1) = W(1) x + b(1) over the ball."""
    check_input(net, spec.x0)
    w, b = net.weights[0], net.biases[0]
    center = w @ spec.x0 + b
    spread = spec.epsilon * dual_norm(w, spec.q)
    return center - spread, center + spread


def backward_rows(net: Network, k: int, A: np.ndarray, c: np.ndarray,
                  line_arrays):
    """Backward pass of the signed rows (A, c) of layer k: each row of ``A``
    weighs the activations of layer k-1 and ``c`` holds the offsets.

    ``line_arrays[v-1]`` holds (slope_lower, intercept_lower, slope_upper,
    intercept_upper) for layer v, each either shared by every row (one entry
    per neuron) or one row of entries per row of ``A``.  Returns (coeffs,
    offsets, tape): the affine lower bound of every row over the input, and
    per layer v, at ``tape[v-1]``, the running rows and the slope and
    intercept each of their entries used.
    """
    if len(line_arrays) < k - 1:
        raise ValueError(f"missing lines for layers below {k}")
    tape = []
    for v in range(k - 1, 0, -1):
        sl, tl, su, tu = line_arrays[v - 1]
        pos = A > 0
        s = np.where(pos, sl, su)
        t = np.where(pos, tl, tu)
        tape.append((A, s, t))
        D = A * s
        c = c + (A * t).sum(axis=1) + D @ net.biases[v - 1]
        A = D @ net.weights[v - 1]
    return A, c, tape[::-1]


def concretize_rows(coeffs: np.ndarray, offsets: np.ndarray,
                    spec: PerturbationSpec) -> np.ndarray:
    """Least value over the ball of each affine row (coeffs, offset): the
    gamma values."""
    spread = spec.epsilon * dual_norm(coeffs, spec.q)
    return coeffs @ spec.x0 + offsets - spread


def propagate(net: Network, spec: PerturbationSpec) -> LayerBounds:
    """Bounds for every layer.

    Each layer's lines are chosen once, from that layer's bounds, and shared
    by the backward passes of every later layer.  A layer's lower bounds are
    those of its rows and its upper bounds minus those of its negated rows,
    all in one pass.
    """
    low1, up1 = layer1_bounds(net, spec)
    lows, ups = [low1], [up1]
    lines: list = []
    for k in range(2, net.m + 1):
        lines.append(choose_layer_lines(
            *relax.layer_line_spaces(net.activation, lows[-1], ups[-1])))
        w, b = net.weights[k - 1], net.biases[k - 1]
        coeffs, offsets, _ = backward_rows(
            net, k, np.vstack([w, -w]), np.concatenate([b, -b]), lines)
        g = concretize_rows(coeffs, offsets, spec)
        # minus the negated row's least value; 0.0 - g, not -g, keeps 0 at +0.0
        low, up = ordered_bounds(g[:len(b)], 0.0 - g[len(b):], k)
        lows.append(low)
        ups.append(up)
    return LayerBounds(lows, ups)


def ordered_bounds(lower: np.ndarray, upper: np.ndarray, k: int):
    """Each bound pair as (min, max): a zero-width interval's sides may cross
    by float noise.  A crossing above _BOUND_ORDER_SLACK raises, and so does
    a NaN bound (an overflow inside the backward pass)."""
    if not np.all(lower <= upper + _BOUND_ORDER_SLACK):
        raise RuntimeError(f"layer {k}: lower bound exceeds upper bound "
                           f"or is NaN")
    return np.minimum(lower, upper), np.maximum(lower, upper)


def margins(output_lower: np.ndarray, output_upper: np.ndarray,
            label: int) -> np.ndarray:
    """gamma_lower[label] - gamma_upper[j] for every j != label."""
    n = len(output_lower)
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range for {n} outputs")
    others = np.arange(n) != label
    return output_lower[label] - np.asarray(output_upper)[others]


def score(marg: np.ndarray, label: int, target: int | None) -> float:
    """The margin certification rests on: the smallest, or the target's."""
    if target is None:
        return float(marg.min()) if marg.size else math.inf
    if target == label or target not in range(len(marg) + 1):
        raise ValueError(f"bad target class {target}")
    return float(marg[target - (target > label)])
