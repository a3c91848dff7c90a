"""Tightening bounds by projected gradient ascent/descent over line variables.

Every one-variable line space in the layers below the target contributes one
optimization variable (a free ReLU lower slope or a tangency abscissa).  The
objective gamma is differentiable in the generated slopes and intercepts, so
its gradient follows from one reverse sweep over the backward recursion:

  seed      dgamma/dcoeffs = x0 -/+ eps * d||coeffs||_q   (lower/upper)
  per layer Dbar = Abar_next @ W(v).T + b(v)
            sbar = Dbar * relu(A)   tbar = relu(A)     (positive split)
            sbar = Dbar * neg(A)    tbar = neg(A)      (negative split)
            Abar = Dbar * s_selected + t_selected      (masked by sign of A)

and chains through the generators (d slope / d theta, d intercept / d theta).
Projection clamps each variable to its admissible interval after every step,
so every iterate generates valid lines and every visited gamma is a sound
bound; the returned value per neuron is the best one ever visited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import crown, relax
from .model import Network, PerturbationSpec


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float = 0.05
    max_iters: int = 100
    restarts: int = 1
    group_size: int = 1
    improvement_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class VarEntry:
    """One optimization variable: the free parameter of a line space."""

    layer: int
    neuron: int
    side: str          # "lower" | "upper"
    space: relax.LineSpace


@dataclass
class VariableVector:
    """Flat view of all free line variables for layers 1..k-1."""

    entries: list
    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self):
        return len(self.entries)

    def check(self):
        if np.any(self.values < self.lo - 1e-12) or np.any(self.values > self.hi + 1e-12):
            raise ValueError("variable outside its admissible interval")

    def clipped(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.lo, self.hi)


def collect_variables(layer_spaces) -> VariableVector:
    """Gather the one-variable spaces of ``layer_spaces`` (layers 1..k-1),
    initialized at the deterministic baseline choice."""
    entries = [VarEntry(v, j, side, sp)
               for v, spaces in enumerate(layer_spaces, start=1)
               for side, side_spaces in zip(relax.SIDES, spaces)
               for j, sp in enumerate(side_spaces)
               if sp.kind == "one-variable"]
    return VariableVector(
        entries,
        np.array([crown.default_variable(e.space) for e in entries],
                 dtype=float),
        np.array([e.space.var_lo for e in entries], dtype=float),
        np.array([e.space.var_hi for e in entries], dtype=float))


def _materialize(layer_spaces, var_vec: VariableVector):
    """Line arrays per layer from the current variable values, the generator
    derivatives (d slope, d intercept) per entry, and each entry's slot in
    the flat line layout.

    The flat layout stacks, layer by layer, the lower-side then the
    upper-side lines of every neuron.
    """
    widths = [len(spaces[0]) for spaces in layer_spaces]
    starts = np.cumsum([0] + [2 * w for w in widths])
    spaces = [sp for layer in layer_spaces for side in layer for sp in side]
    slopes = np.array([sp.fixed_line.slope if sp.kind == "fixed" else np.nan
                       for sp in spaces], dtype=float)
    intercepts = np.array([sp.fixed_line.intercept if sp.kind == "fixed"
                           else np.nan for sp in spaces], dtype=float)
    slots = np.array([starts[e.layer - 1] + e.neuron
                      + relax.SIDES.index(e.side) * widths[e.layer - 1]
                      for e in var_vec.entries], dtype=int)
    gen = np.array([e.space.line_and_grad_at(float(theta))
                    for e, theta in zip(var_vec.entries, var_vec.values)],
                   dtype=float).reshape(-1, 4)
    slopes[slots] = gen[:, 0]
    intercepts[slots] = gen[:, 1]
    if np.isnan(slopes).any() or np.isnan(intercepts).any():
        raise ValueError("variable vector does not cover the line spaces")
    arrays = [(slopes[a:a + w], intercepts[a:a + w],
               slopes[a + w:a + 2 * w], intercepts[a + w:a + 2 * w])
              for a, w in zip(starts, widths)]
    return arrays, gen[:, 2:], slots


def objective_and_gradient(net: Network, spec: PerturbationSpec, k: int,
                           neurons, sense: str, var_vec: VariableVector,
                           layer_spaces):
    """Per-neuron gamma values and the gradient of their sum.

    Returns (gammas, gradient, coeffs, offsets); ``coeffs``/``offsets`` are
    the affine bounds of the batch, row-aligned with ``neurons``.
    """
    var_vec.check()
    arrays, dgen, slots = _materialize(layer_spaces, var_vec)
    neurons = np.atleast_1d(np.asarray(neurons, dtype=int))
    A, c, tape = crown.backward_rows(net, k, neurons, arrays, sense,
                                     keep_tape=True)
    gammas = crown.concretize_rows(A, c, spec, sense)

    sign = -1.0 if sense == "lower" else 1.0
    Abar = spec.x0[None, :] + sign * spec.epsilon * crown.dual_norm_grad(A, spec.q)

    # adjoints of every slope and intercept in the flat line layout; the
    # lines of ``sense``'s own side multiply the nonnegative row entries
    own = relax.SIDES.index(sense)
    sbar = np.zeros(sum(len(a[0]) for a in arrays) * 2)
    tbar = np.zeros_like(sbar)
    start = 0
    for v, A_v in reversed(tape):  # tape runs k-1..1; reverse walks 1..k-1
        Dbar = Abar @ net.weights[v - 1].T + net.biases[v - 1][None, :]
        parts = (np.maximum(A_v, 0.0), np.minimum(A_v, 0.0))
        w = A_v.shape[1]
        for side in (0, 1):
            part = parts[side != own]
            seg = slice(start + side * w, start + (side + 1) * w)
            sbar[seg] = (Dbar * part).sum(axis=0)
            tbar[seg] = part.sum(axis=0)
        start += 2 * w
        s_pos, t_pos, s_neg, t_neg = crown.oriented(arrays[v - 1], sense)
        s_sel = np.where(A_v > 0, s_pos, np.where(A_v < 0, s_neg, 0.0))
        t_sel = np.where(A_v > 0, t_pos, np.where(A_v < 0, t_neg, 0.0))
        Abar = Dbar * s_sel + t_sel

    grad = sbar[slots] * dgen[:, 0] + tbar[slots] * dgen[:, 1]
    return gammas, grad, A, c


@dataclass
class _Best:
    """Per-neuron best bound seen so far (each iterate is individually sound,
    so the pointwise best over iterates is a valid bound)."""

    sense: str
    gammas: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray

    def fold(self, gammas, coeffs, offsets):
        better = (gammas > self.gammas) if self.sense == "lower" \
            else (gammas < self.gammas)
        if better.any():
            self.gammas = np.where(better, gammas, self.gammas)
            self.coeffs[better] = coeffs[better]
            self.offsets = np.where(better, offsets, self.offsets)


def optimize_bounds(net: Network, spec: PerturbationSpec, k: int, neurons,
                    sense: str, config: OptimizerConfig, layer_spaces,
                    rng: np.random.Generator | None = None):
    """Projected gradient ascent (lower) / descent (upper) over the line
    variables; never worse than the initialization, per neuron.

    Returns (best variable vector for the group objective, per-neuron best
    gammas, per-neuron best affine bounds as (coeffs, offsets)).
    """
    neurons = np.atleast_1d(np.asarray(neurons, dtype=int))
    rng = rng or np.random.default_rng(config.seed)
    var_vec = collect_variables(layer_spaces)
    sign = 1.0 if sense == "lower" else -1.0

    def evaluate(values):
        vv = VariableVector(var_vec.entries, values, var_vec.lo, var_vec.hi)
        g, grad, A, c = objective_and_gradient(net, spec, k, neurons, sense,
                                               vv, layer_spaces)
        return g, grad, A, c

    g0, grad0, A0, c0 = evaluate(var_vec.values)
    best = _Best(sense, g0.copy(), A0.copy(), c0.copy())
    best_obj = sign * g0.sum()
    best_values = var_vec.values.copy()
    if len(var_vec) == 0:
        return var_vec, best.gammas, (best.coeffs, best.offsets)

    # normalizing the direction by its largest entry makes the travel speed
    # independent of the objective scale (and so of the group size); the
    # geometric decay converges the iterates instead of orbiting the optimum
    step = config.step_size * (var_vec.hi - var_vec.lo)
    decay = 0.98
    for run in range(config.restarts):
        if run == 0:
            values = var_vec.values.copy()
            g, grad = g0, grad0
        else:
            values = rng.uniform(var_vec.lo, var_vec.hi)
            g, grad, A, c = evaluate(values)
            best.fold(g, A, c)
            if sign * g.sum() > best_obj:
                best_obj = sign * g.sum()
                best_values = values.copy()
        obj_history = [sign * g.sum()]
        scale = 1.0
        for it in range(config.max_iters):
            gmax = np.abs(grad).max()
            direction = grad / gmax if gmax > 0 else grad
            values = var_vec.clipped(values + sign * step * scale * direction)
            scale *= decay
            g, grad, A, c = evaluate(values)
            best.fold(g, A, c)
            obj = sign * g.sum()
            if obj > best_obj:
                best_obj = obj
                best_values = values.copy()
            obj_history.append(max(obj_history[-1], obj))
            if (len(obj_history) > 5
                    and obj_history[-1] - obj_history[-6] < config.improvement_tol):
                break
    out_vec = VariableVector(var_vec.entries, best_values, var_vec.lo, var_vec.hi)
    return out_vec, best.gammas, (best.coeffs, best.offsets)


def _groups(width: int, group_size: int):
    group_size = max(1, min(group_size, width))
    return [list(range(s, min(s + group_size, width)))
            for s in range(0, width, group_size)]


def frown_propagate(net: Network, spec: PerturbationSpec,
                    config: OptimizerConfig | None = None):
    """Layer-by-layer optimized bounds.

    Each layer is processed group by group, a maximization of the summed
    lower bounds and a separate minimization of the summed upper bounds per
    group; the deterministic baseline bounds are folded into the per-neuron
    best so the result weakly dominates them everywhere (the refreshed
    intermediate intervals mean the initialization alone does not reproduce
    the baseline bound beyond layer 2).  Refreshed bounds regenerate the
    layer's line spaces before the next layer is processed.

    Returns (LayerBounds, (lower AffineBounds, upper AffineBounds)) with the
    affine output bounds carrying their concretized gamma.
    """
    config = config or OptimizerConfig()
    base_bounds, base_lines = crown.propagate(net, spec)
    lows = [base_bounds.lower[0]]
    ups = [base_bounds.upper[0]]
    layer_spaces = [relax.layer_line_spaces(net.activation, lows[0], ups[0])]
    out_affine = None

    for k in range(2, net.m + 1):
        width = net.layer_width(k)
        base_arrays = [ll.arrays() for ll in base_lines.layers[:k - 1]]
        best = [_Best(sense, gammas.copy(),
                      *crown.backward_rows(net, k, range(width), base_arrays,
                                           sense)[:2])
                for sense, gammas in zip(relax.SIDES, base_bounds.layer(k))]
        for g_idx, group in enumerate(_groups(width, config.group_size)):
            for s_idx, (sense, tgt) in enumerate(zip(relax.SIDES, best)):
                rng = np.random.default_rng([config.seed, k, g_idx, s_idx])
                _, gammas, (coeffs, offsets) = optimize_bounds(
                    net, spec, k, group, sense, config, layer_spaces, rng)
                full_g = tgt.gammas.copy()
                full_g[group] = gammas
                full_c = tgt.coeffs.copy()
                full_c[group] = coeffs
                full_o = tgt.offsets.copy()
                full_o[group] = offsets
                tgt.fold(full_g, full_c, full_o)
        bestL, bestU = best
        if np.any(bestL.gammas > bestU.gammas + 1e-9):
            raise RuntimeError(f"layer {k}: lower bound exceeds upper bound")
        # the two senses fold over different iterates, so allow float-noise
        # crossings of degenerate intervals
        lows.append(np.minimum(bestL.gammas, bestU.gammas))
        ups.append(np.maximum(bestL.gammas, bestU.gammas))
        if k < net.m:
            layer_spaces.append(
                relax.layer_line_spaces(net.activation, lows[-1], ups[-1]))
        else:
            out_affine = tuple(
                [crown.AffineBound(b.coeffs[i], float(b.offsets[i]), b.sense,
                                   float(b.gammas[i])) for i in range(width)]
                for b in best)
    return crown.LayerBounds(lows, ups), out_affine
