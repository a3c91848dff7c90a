"""Tightening bounds by projected gradient ascent/descent over line variables.

Every one-variable entry of the LineSpaces records of the layers below the
target contributes one optimization variable (a free ReLU lower slope or a
tangency abscissa); ``collect_variables`` lays them out once per layer.  The
target neurons of a layer are split into groups, and each group maximizes
the sum of its lower bounds (or minimizes the sum of its upper bounds) over
its own copy of the variables: the values form a (groups, variables) array.
One evaluation serves every group of the batch:

  lines     each group's slopes and intercepts, with one array evaluation of
            f, f' and f'' for all tangent generators
  forward   the backward recursion over all target rows at once, each row
            composing with the lines of its own group
  reverse   seed      dgamma/dcoeffs = x0 -/+ eps * d||coeffs||_q
            per layer Dbar = Abar_next @ W(v).T + b(v)
                      sbar = Dbar * relu(A)   tbar = relu(A)   (positive split)
                      sbar = Dbar * neg(A)    tbar = neg(A)    (negative split)
                      Abar = Dbar * s_selected + t_selected    (by sign of A)
  per group sbar and tbar summed over the group's rows, chained through the
            generators (d slope / d theta, d intercept / d theta)

Each group steps along its own gradient, normalized by its largest entry,
and stops on its own once its objective stalls; a stopped group leaves the
batch.  Projection clamps each variable to its admissible interval after
every step, so every iterate generates valid lines and every visited gamma
is a sound bound; the returned value per neuron is the best one ever
visited.
"""

from __future__ import annotations

import dataclasses
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
class VariableVector:
    """The free line variables of layers 1..k-1, their values, and where
    their lines sit.

    ``values`` is (variables,) for one group or (groups, variables), one row
    per group.  The flat line layout stacks, layer by layer, the lower-side
    then the upper-side lines of every neuron; ``slopes``/``intercepts``
    hold the fixed lines there and ``slots`` the place of each variable's
    line.  Every variable of a ReLU net is a slope through the origin and
    every variable of a sigmoid/tanh net a tangency abscissa.
    """

    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    act: str
    widths: tuple
    slots: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __len__(self):
        return len(self.slots)

    def at(self, values) -> "VariableVector":
        """The same variables at other values."""
        return dataclasses.replace(self,
                                   values=np.asarray(values, dtype=float))

    def check(self):
        if np.any(self.values < self.lo - 1e-12) or np.any(self.values > self.hi + 1e-12):
            raise ValueError("variable outside its admissible interval")

    def clipped(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.lo, self.hi)


def collect_variables(layer_spaces) -> VariableVector:
    """Gather the one-variable spaces of ``layer_spaces`` (the (lower,
    upper) LineSpaces of layers 1..k-1), initialized at the deterministic
    baseline choice."""
    records = [rec for layer in layer_spaces for rec in layer]

    def flat(field):
        return np.concatenate([field(rec) for rec in records]) if records \
            else np.zeros(0)

    slots = np.flatnonzero(flat(lambda rec: rec.family))
    return VariableVector(
        flat(crown.default_variables)[slots],
        flat(lambda rec: rec.var_lo)[slots],
        flat(lambda rec: rec.var_hi)[slots],
        records[0].act if records else "relu",
        tuple(len(layer[0]) for layer in layer_spaces),
        slots,
        flat(lambda rec: rec.slope),
        flat(lambda rec: rec.intercept))


def _materialize(var_vec: VariableVector):
    """Every group's lines and the generator derivatives.

    Returns (slopes, intercepts) over the flat line layout, shaped
    (groups, lines), and (d slope, d intercept) per variable, shaped
    (groups, variables); one-dimensional values count as one group.
    """
    theta = np.atleast_2d(var_vec.clipped(var_vec.values))
    slope, intercept, dslope, dintercept = relax.family_lines(
        var_vec.act, theta, grads=True)
    slopes = np.repeat(var_vec.slopes[None, :], len(theta), axis=0)
    intercepts = np.repeat(var_vec.intercepts[None, :], len(theta), axis=0)
    slopes[:, var_vec.slots] = slope
    intercepts[:, var_vec.slots] = intercept
    return slopes, intercepts, dslope, dintercept


@dataclass(frozen=True)
class RowGroups:
    """Target rows of one layer, split into groups.

    ``rows`` lists the neuron of every row, group by group, so each group's
    rows are contiguous; ``starts`` holds each group's first row and
    ``group`` each row's group.
    """

    rows: np.ndarray
    starts: np.ndarray
    group: np.ndarray

    @classmethod
    def of(cls, groups) -> "RowGroups":
        """From a list of neuron lists, or one flat neuron list (one group)."""
        if isinstance(groups, cls):
            return groups
        groups = [np.atleast_1d(np.asarray(g, dtype=int)) for g in
                  ([groups] if _is_flat(groups) else groups)]
        sizes = [len(g) for g in groups]
        if not groups or min(sizes) == 0:
            raise ValueError("every group needs at least one neuron")
        return cls(np.concatenate(groups), np.cumsum([0] + sizes[:-1]),
                   np.repeat(np.arange(len(groups)), sizes))

    def __len__(self):
        return len(self.starts)

    def take(self, keep: np.ndarray):
        """The groups numbered ``keep``, and the positions of their rows
        among these rows."""
        ends = np.append(self.starts[1:], len(self.rows))
        pos = np.concatenate([np.arange(self.starts[g], ends[g])
                              for g in keep])
        sizes = ends[keep] - self.starts[keep]
        return (RowGroups(self.rows[pos], np.cumsum(sizes) - sizes,
                          np.repeat(np.arange(len(keep)), sizes)), pos)


def _is_flat(groups) -> bool:
    """Whether ``groups`` is one flat neuron list rather than a list of
    groups."""
    if isinstance(groups, RowGroups):
        return False
    groups = list(groups)
    return len(groups) == 0 or np.ndim(groups[0]) == 0


def objective_and_gradient(net: Network, spec: PerturbationSpec, k: int,
                           groups, sense: str, var_vec: VariableVector):
    """Per-row gamma values and, per group, the gradient of the group's sum.

    ``groups`` is a flat neuron list (one group) or a list of neuron lists
    (or a RowGroups), with one row of ``var_vec.values`` per group; the
    gradient has the shape of ``var_vec.values``.  Returns (gammas,
    gradient, coeffs, offsets); ``coeffs``/``offsets`` are the affine bounds
    of the rows, which run group by group.
    """
    if sense not in relax.SIDES:
        raise ValueError(f"sense must be 'lower' or 'upper', got {sense!r}")
    var_vec.check()
    batch = RowGroups.of(groups)
    if len(var_vec.widths) != k - 1:
        raise ValueError(f"variables cover {len(var_vec.widths)} layers, "
                         f"layer {k} needs {k - 1}")
    if len(np.atleast_2d(var_vec.values)) != len(batch):
        raise ValueError("need one row of variable values per group")
    slopes, intercepts, dslope, dintercept = _materialize(var_vec)
    row_s, row_t = slopes[batch.group], intercepts[batch.group]
    starts = np.cumsum((0,) + tuple(2 * w for w in var_vec.widths))

    A = net.weights[k - 1][batch.rows]
    c = net.biases[k - 1][batch.rows]
    tape = []
    for v in range(k - 1, 0, -1):
        a, w = starts[v - 1], var_vec.widths[v - 1]
        s_pos, t_pos, s_neg, t_neg = crown.oriented(
            (row_s[:, a:a + w], row_t[:, a:a + w],
             row_s[:, a + w:a + 2 * w], row_t[:, a + w:a + 2 * w]), sense)
        # each entry composes with the line its sign selects; a zero entry
        # with neither
        pos, neg = A > 0, A < 0
        s_sel = np.where(pos, s_pos, np.where(neg, s_neg, 0.0))
        t_sel = np.where(pos, t_pos, np.where(neg, t_neg, 0.0))
        tape.append((np.maximum(A, 0.0), np.minimum(A, 0.0), s_sel, t_sel))
        D = A * s_sel
        c = c + (A * t_sel).sum(axis=1) + D @ net.biases[v - 1]
        A = D @ net.weights[v - 1]
    gammas = crown.concretize_rows(A, c, spec, sense)

    sign = -1.0 if sense == "lower" else 1.0
    Abar = spec.x0[None, :] + sign * spec.epsilon * crown.dual_norm_grad(A, spec.q)
    # per-row adjoints of every slope and intercept in the flat layout; the
    # lines of ``sense``'s own side multiply the nonnegative row entries
    sbar, tbar = [], []
    for v, (Ap, An, s_sel, t_sel) in zip(range(1, k), reversed(tape)):
        Dbar = Abar @ net.weights[v - 1].T + net.biases[v - 1]
        parts = (Ap, An) if sense == "lower" else (An, Ap)
        sbar.extend(Dbar * part for part in parts)
        tbar.extend(parts)
        Abar = Dbar * s_sel + t_sel

    sbar = np.add.reduceat(np.concatenate(sbar, axis=1), batch.starts, axis=0)
    tbar = np.add.reduceat(np.concatenate(tbar, axis=1), batch.starts, axis=0)
    grad = (sbar[:, var_vec.slots] * dslope
            + tbar[:, var_vec.slots] * dintercept)
    return gammas, grad.reshape(np.shape(var_vec.values)), A, c


@dataclass
class _Best:
    """Per-row best bound seen so far (each iterate is individually sound,
    so the pointwise best over iterates is a valid bound)."""

    sense: str
    gammas: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray

    def fold(self, pos, gammas, coeffs, offsets):
        """Keep, at each row ``pos``, the tighter of the stored bound and
        the given one."""
        better = (gammas > self.gammas[pos]) if self.sense == "lower" \
            else (gammas < self.gammas[pos])
        if better.any():
            at = pos[better]
            self.gammas[at] = gammas[better]
            self.coeffs[at] = coeffs[better]
            self.offsets[at] = offsets[better]


def optimize_bounds(net: Network, spec: PerturbationSpec, k: int, groups,
                    sense: str, config: OptimizerConfig,
                    var_vec: VariableVector, seeds=None):
    """Projected gradient ascent (lower) / descent (upper) over the line
    variables, one copy of them per group, all groups in one batch; never
    worse than the initialization, per neuron.

    ``groups`` is a list of neuron lists, or one flat neuron list for a
    single group.  Every group starts from ``var_vec.values``; restarts draw
    from ``default_rng(seed)`` with the group's entry of ``seeds`` (default:
    ``config.seed`` for every group).

    Returns (best variables of each group's objective, with values shaped
    (variables,) for a flat neuron list and (groups, variables) otherwise;
    per-row best gammas; per-row best affine bounds as (coeffs, offsets)),
    the rows running group by group.
    """
    flat = _is_flat(groups)
    batch = RowGroups.of(groups)
    n_groups = len(batch)
    rngs = None
    sign = 1.0 if sense == "lower" else -1.0
    everyone = np.arange(n_groups)
    all_rows = np.arange(len(batch.rows))

    def evaluate(values, part, pos):
        g, grad, A, c = objective_and_gradient(net, spec, k, part, sense,
                                               var_vec.at(values))
        best.fold(pos, g, A, c)
        return sign * np.add.reduceat(g, part.starts), grad

    def keep_best(active, obj, values):
        better = obj > best_obj[active]
        best_obj[active[better]] = obj[better]
        best_values[active[better]] = values[active[better]]

    init = np.broadcast_to(var_vec.values, (n_groups, len(var_vec))).copy()
    g0, grad0, A0, c0 = objective_and_gradient(net, spec, k, batch, sense,
                                               var_vec.at(init))
    best = _Best(sense, g0.copy(), A0.copy(), c0.copy())
    obj0 = sign * np.add.reduceat(g0, batch.starts)
    best_obj = obj0.copy()
    best_values = init.copy()

    # normalizing each group's direction by its largest entry makes the
    # travel speed independent of the objective scale (and so of the group
    # size); the geometric decay converges the iterates instead of orbiting
    # the optimum
    step = config.step_size * (var_vec.hi - var_vec.lo)
    decay = 0.98
    for run in range(config.restarts if len(var_vec) else 0):
        if run == 0:
            values, obj, grad = init.copy(), obj0, grad0
        else:
            # made on first use: seeding costs more than a small evaluation
            rngs = rngs or [np.random.default_rng(seed) for seed in
                            (seeds or [config.seed] * n_groups)]
            values = np.stack([rng.uniform(var_vec.lo, var_vec.hi)
                               for rng in rngs])
            obj, grad = evaluate(values, batch, all_rows)
            keep_best(everyone, obj, values)
        active, part, pos = everyone, batch, all_rows
        # running best objective per group; a group stops once it gained
        # less than improvement_tol over 5 steps
        history = np.empty((config.max_iters + 1, n_groups))
        history[0] = obj
        scale = 1.0
        for it in range(config.max_iters):
            gmax = np.abs(grad).max(axis=1, keepdims=True)
            direction = grad / np.where(gmax > 0, gmax, 1.0)
            values[active] = var_vec.clipped(
                values[active] + sign * step * scale * direction)
            scale *= decay
            obj, grad = evaluate(values[active], part, pos)
            keep_best(active, obj, values)
            history[it + 1, active] = np.maximum(history[it, active], obj)
            if it >= 4:
                stalled = (history[it + 1, active] - history[it - 4, active]
                           < config.improvement_tol)
                if stalled.all():
                    break
                if stalled.any():
                    active, grad = active[~stalled], grad[~stalled]
                    part, pos = batch.take(active)
    best_vec = var_vec.at(best_values[0] if flat else best_values)
    return best_vec, best.gammas, (best.coeffs, best.offsets)


def _groups(width: int, group_size: int):
    group_size = max(1, min(group_size, width))
    return [list(range(s, min(s + group_size, width)))
            for s in range(0, width, group_size)]


def frown_propagate(net: Network, spec: PerturbationSpec,
                    config: OptimizerConfig | None = None):
    """Layer-by-layer optimized bounds.

    Each layer runs two batched optimizations over all its groups: a
    maximization of each group's summed lower bounds and a minimization of
    each group's summed upper bounds.  The deterministic baseline bounds are
    folded into the per-neuron best so the result weakly dominates them
    everywhere (the refreshed intermediate intervals mean the initialization
    alone does not reproduce the baseline bound beyond layer 2).  Refreshed
    bounds regenerate the layer's line spaces before the next layer is
    processed.

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
        best = [_Best(sense, gammas.copy(),
                      *crown.backward_rows(net, k, range(width), base_lines,
                                           sense))
                for sense, gammas in zip(relax.SIDES, base_bounds.layer(k))]
        var_vec = collect_variables(layer_spaces)
        groups = _groups(width, config.group_size)
        rows = np.concatenate(groups)
        for s_idx, (sense, tgt) in enumerate(zip(relax.SIDES, best)):
            seeds = [[config.seed, k, g_idx, s_idx]
                     for g_idx in range(len(groups))]
            _, gammas, (coeffs, offsets) = optimize_bounds(
                net, spec, k, groups, sense, config, var_vec, seeds)
            tgt.fold(rows, gammas, coeffs, offsets)
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
