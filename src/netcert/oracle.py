"""Ground-truth machinery: sampling falsification and exact ReLU ranges.

``sample_check`` hunts for violations of every layer's bounds in a
LayerBounds with uniform draws from the input ball.
``exact_output_functional_range`` computes the exact range of a linear
functional of the outputs of a tiny ReLU network (a unit vector gives one
output's range) by activation-pattern enumeration: once the active set of
every hidden neuron is fixed the network is affine, so each pattern region
reduces to a small LP over the ball intersected with the sign constraints,
whose min and max (minus the min of the negated functional) share one
phase 1.  The enumeration walks patterns depth-first and prunes subtrees
whose sign-constraint prefix is already infeasible, which visits every
feasible pattern while skipping infeasible ones wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crown, simplex
from .model import (Network, PerturbationSpec, ball_rows, check_input,
                    preactivations)

#: slack before a sampled point counts as a bound violation
VIOLATION_SLACK = 1e-7

#: activation-pattern enumeration cap (2**16 patterns)
MAX_HIDDEN = 16


@dataclass(frozen=True)
class BoundViolation:
    layer: int
    neuron: int
    side: str
    bound: float
    value: float
    excess: float


@dataclass(frozen=True)
class ExactRange:
    min: float
    max: float
    argmin: np.ndarray
    argmax: np.ndarray
    patterns_searched: int


def ball_samples(spec: PerturbationSpec, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the ball, count x n."""
    n = spec.x0.shape[0]
    if spec.p == math.inf:
        offs = rng.uniform(-1.0, 1.0, size=(count, n))
    elif spec.p == 2.0:
        g = rng.normal(size=(count, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.uniform(size=(count, 1)) ** (1.0 / n)
        offs = g * radii
    else:
        # uniform on the l1 sphere: exponential spacings give a uniform
        # simplex point, then random signs; radius ~ U^(1/n) fills the ball
        e = rng.exponential(size=(count, n))
        e /= e.sum(axis=1, keepdims=True)
        signs = rng.integers(0, 2, size=(count, n)) * 2.0 - 1.0
        radii = rng.uniform(size=(count, 1)) ** (1.0 / n)
        offs = e * signs * radii
    return spec.x0[None, :] + spec.epsilon * offs


def sample_check(net: Network, spec: PerturbationSpec,
                 claimed: crown.LayerBounds, samples: int, seed: int = 0,
                 chunk: int = 20000) -> list:
    """Try to falsify the claimed bounds of every layer with uniform ball
    samples.  Returns the violations found (empty list means the claim
    survived).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_input(net, spec.x0)
    rng = np.random.default_rng(seed)
    violations: list = []
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        xs = ball_samples(spec, take, rng)
        layers = zip(claimed.lower, claimed.upper, preactivations(net, xs))
        for k, (low, up, z) in enumerate(layers, start=1):
            _collect(violations, k, "lower", low, z.min(axis=0))
            _collect(violations, k, "upper", up, z.max(axis=0))
        done += take
    return violations


def _collect(violations, k, side, bound, extreme):
    if side == "lower":
        excess = bound - extreme
    else:
        excess = extreme - bound
    for j in np.flatnonzero(excess > VIOLATION_SLACK):
        violations.append(BoundViolation(k, int(j), side, float(bound[j]),
                                         float(extreme[j]), float(excess[j])))


def exact_output_functional_range(net: Network, spec: PerturbationSpec,
                                  out_weights) -> ExactRange:
    """Exact range of sum_j out_weights[j] * F_j(x) over the ball (ReLU only)."""
    if net.activation != "relu":
        raise ValueError("exact enumeration applies to ReLU networks only")
    hidden = sum(net.layer_width(k) for k in range(1, net.m))
    if hidden > MAX_HIDDEN:
        raise ValueError(f"{hidden} hidden neurons exceed the cap {MAX_HIDDEN}")
    if spec.p not in (1.0, math.inf):
        raise ValueError("exact enumeration supports p in {1, inf} only")
    check_input(net, spec.x0)
    out_weights = np.asarray(out_weights, dtype=float)
    if (out_weights.shape != (net.layer_width(net.m),)
            or not np.isfinite(out_weights).all()):
        raise ValueError(f"out_weights must be a finite vector of "
                         f"{net.layer_width(net.m)} entries, got "
                         f"{out_weights.tolist()!r}")

    n = net.n
    n_vars = n + (n if spec.p == 1.0 else 0)
    ball_A, ball_b = ball_rows(spec, n_vars, r_col=n)
    # the ball rows imply x >= x0 - eps and, for p = 1, r >= 0
    lower = np.concatenate([spec.x0 - spec.epsilon, np.zeros(n_vars - n)])
    state = {
        "best_min": math.inf, "best_max": -math.inf,
        "argmin": None, "argmax": None, "patterns": 0,
    }

    def feasible(rows, rhs):
        try:
            simplex.solve_inequality_form(
                np.zeros((1, n_vars)), None, None, np.array(rows),
                np.array(rhs), lower)
            return True
        except simplex.InfeasibleError:
            return False

    def leaf(rows, rhs, coeff, const):
        state["patterns"] += 1
        c = np.zeros(n_vars)
        c[:n] = coeff
        try:
            (vmin, neg_max), (pmin, pmax) = simplex.solve_inequality_form(
                np.stack([c, -c]), None, None, np.array(rows), np.array(rhs),
                lower)
        except simplex.InfeasibleError:
            state["patterns"] -= 1
            return
        if vmin + const < state["best_min"]:
            state["best_min"] = vmin + const
            state["argmin"] = pmin[:n].copy()
        if -neg_max + const > state["best_max"]:
            state["best_max"] = -neg_max + const
            state["argmax"] = pmax[:n].copy()

    def descend(v, j, M, d, pattern, rows, rhs):
        # z(v) = M x + d under the prefix pattern; decide neuron j of layer v
        width = net.layer_width(v)
        if j == width:
            act = pattern[:, None] * M
            act_d = pattern * d
            if v == net.m - 1:
                coeff = out_weights @ (net.weights[net.m - 1] @ act)
                const = float(out_weights @ (net.weights[net.m - 1] @ act_d
                                             + net.biases[net.m - 1]))
                leaf(rows, rhs, coeff, const)
            else:
                M2 = net.weights[v] @ act
                d2 = net.weights[v] @ act_d + net.biases[v]
                descend(v + 1, 0, M2, d2, np.empty(net.layer_width(v + 1)),
                        rows, rhs)
            return
        row_m, row_d = M[j], d[j]
        # interval shortcut before an LP feasibility probe
        spread = spec.epsilon * crown.dual_norm(row_m[None, :], spec.q)[0]
        center = float(row_m @ spec.x0) + row_d
        for active in (True, False):
            if active and center + spread < 0:
                continue
            if not active and center - spread > 0:
                continue
            sign_row = np.zeros(n_vars)
            # active: z_j >= 0  <=>  -M[j] x <= d[j]
            sign_row[:n] = -row_m if active else row_m
            new_rows = rows + [sign_row]
            new_rhs = rhs + [row_d if active else -row_d]
            if not feasible(new_rows, new_rhs):
                continue
            pattern[j] = 1.0 if active else 0.0
            descend(v, j + 1, M, d, pattern, new_rows, new_rhs)

    descend(1, 0, net.weights[0].copy(), net.biases[0].copy(),
            np.empty(net.layer_width(1)), list(ball_A), list(ball_b))
    if state["argmin"] is None:
        raise RuntimeError("no feasible activation pattern found")
    return ExactRange(float(state["best_min"]), float(state["best_max"]),
                      state["argmin"], state["argmax"], state["patterns"])
