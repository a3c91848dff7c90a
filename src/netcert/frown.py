"""Tightening bounds by projected gradient ascent over line variables.

Every one-variable entry of the LineSpaces records of the layers below the
target contributes one optimization variable (a free ReLU lower slope or a
tangency abscissa); ``collect_variables`` lays them out once per layer.  The
target neurons of a layer are split into groups, each with a sense, and
each group tunes its own copy of the variables: the values form a (groups,
variables) array.  The optimizer works in one sense only, on signed rows:
an upper bound of a row is minus the lower bound of the negated row, and
negation is exact in floating point, so an upper-sense group is the same
neurons with their weight and bias rows negated.  Every group maximizes the
sum of its signed rows' lower bounds, and the gammas it returns are those of
the signed rows.  One evaluation serves every group of the batch, whatever
its sense:

  lines     each group's slopes and intercepts, with one array evaluation of
            f, f' and f'' for all tangent generators
  forward   ``crown.backward_rows`` over all signed target rows at once,
            each row composing with the lines of its own group; its tape
            keeps, per layer, the rows A and the slope s and intercept t
            each entry used
  reverse   seed      dgamma/dcoeffs = x0 - eps * d||coeffs||_q
            per layer Dbar = Abar_next @ W(v).T + b(v)
                      sbar = Dbar * relu(A)   tbar = relu(A)   (lower lines)
                      sbar = Dbar * neg(A)    tbar = neg(A)    (upper lines)
                      Abar = Dbar * s + t where A != 0, else 0
  per group sbar and tbar summed over the group's rows, chained through the
            generators (d slope / d theta, d intercept / d theta)

Each group steps along its own gradient, normalized by its largest entry,
and stops on its own once its objective stalls; a stopped group leaves the
batch.  A restart is one more copy of every group in the same batch, from
a random start, so one iteration loop serves every restart.  Projection
clamps each variable to its admissible interval after every step, so every
iterate generates valid lines and every visited gamma is a sound bound; the
returned value per row is the best one any copy ever visited.
``frown_propagate`` runs both senses of a layer as one batch; given a label,
its output layer keeps only the groups the decision reads and stops once it
certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import crown, relax
from .model import Network, PerturbationSpec

#: a group stops once its running best gains less than this over 5 steps
IMPROVEMENT_TOL = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float = 0.05
    max_iters: int = 100
    restarts: int = 1
    group_size: int = 1
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
    """The free line variables of layers 1..k-1, their baseline values, and
    where their lines sit.

    ``start`` holds one baseline value per variable; the optimizer keeps
    its values apart, as a (groups, variables) array.  The flat line layout
    stacks, layer by layer, the lower-side then the upper-side lines
    of every neuron; ``slopes``/``intercepts`` hold the fixed lines there
    and ``slots`` the place of each variable's line.  Every variable of a
    ReLU net is a slope through the origin and every variable of a
    sigmoid/tanh net a tangency abscissa.
    """

    start: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    act: str
    widths: tuple
    slots: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __len__(self):
        return len(self.slots)

    def clipped(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.lo, self.hi)


def collect_variables(layer_spaces) -> VariableVector:
    """Gather the one-variable spaces of ``layer_spaces`` (the (lower,
    upper) LineSpaces of layers 1..k-1), initialized at the deterministic
    baseline choice, the start of every group."""
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


def _materialize(var_vec: VariableVector, values: np.ndarray):
    """Every group's lines and the generator derivatives at ``values``, one
    row per group.

    Returns (slopes, intercepts) over the flat line layout, shaped
    (groups, lines), and (d slope, d intercept) per variable, shaped
    (groups, variables).
    """
    theta = var_vec.clipped(values)
    slope, intercept, dslope, dintercept = relax.family_lines(
        var_vec.act, theta, grads=True)
    slopes = np.repeat(var_vec.slopes[None, :], len(theta), axis=0)
    intercepts = np.repeat(var_vec.intercepts[None, :], len(theta), axis=0)
    slopes[:, var_vec.slots] = slope
    intercepts[:, var_vec.slots] = intercept
    return slopes, intercepts, dslope, dintercept


@dataclass(frozen=True)
class RowGroups:
    """Signed target rows of one layer, split into groups.

    ``rows`` lists the neuron of every row, group by group, so each group's
    rows are contiguous; ``starts`` holds each group's first row, ``group``
    each row's group and ``sign`` each row's sign: 1 in a lower-sense group,
    -1 in an upper-sense group.
    """

    rows: np.ndarray
    starts: np.ndarray
    group: np.ndarray
    sign: np.ndarray

    @classmethod
    def of(cls, groups, senses) -> "RowGroups":
        """From a list of neuron lists and the sense of each."""
        groups = [np.asarray(g, dtype=int) for g in groups]
        if not groups or any(g.ndim != 1 or len(g) == 0 for g in groups):
            raise ValueError("every group is a list of at least one neuron")
        sizes = [len(g) for g in groups]
        if len(senses) != len(groups):
            raise ValueError("need one sense per group")
        if not set(senses) <= set(relax.SIDES):
            raise ValueError(
                f"senses must be 'lower' or 'upper', got {senses!r}")
        signs = [1.0 if sense == "lower" else -1.0 for sense in senses]
        return cls(np.concatenate(groups), np.cumsum([0] + sizes[:-1]),
                   np.repeat(np.arange(len(groups)), sizes),
                   np.repeat(signs, sizes))

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
                          np.repeat(np.arange(len(keep)), sizes),
                          self.sign[pos]), pos)


def objective_and_gradient(net: Network, spec: PerturbationSpec, k: int,
                           batch: RowGroups, var_vec: VariableVector,
                           values: np.ndarray):
    """Per-row gamma values and, per group, the gradient of the group's sum.

    ``batch`` holds the signed rows of the groups, and ``values`` one row
    of the variables of ``var_vec`` per group; the gradient has the shape
    of ``values``.  Returns (gammas, gradient): ``gammas`` are the lower
    bounds of the signed rows, which run group by group (minus the upper
    bound of the neuron for an upper-sense row).
    """
    if len(var_vec.widths) != k - 1:
        raise ValueError(f"variables cover {len(var_vec.widths)} layers, "
                         f"layer {k} needs {k - 1}")
    if np.ndim(values) != 2 or len(values) != len(batch):
        raise ValueError("need one row of variable values per group")
    slopes, intercepts, dslope, dintercept = _materialize(var_vec, values)
    row_s, row_t = slopes[batch.group], intercepts[batch.group]
    ends = np.cumsum((0,) + tuple(2 * w for w in var_vec.widths))
    lines = [(row_s[:, a:a + w], row_t[:, a:a + w],
              row_s[:, a + w:e], row_t[:, a + w:e])
             for a, e, w in zip(ends, ends[1:], var_vec.widths)]
    A, c, tape = crown.backward_rows(
        net, k, batch.sign[:, None] * net.weights[k - 1][batch.rows],
        batch.sign * net.biases[k - 1][batch.rows], lines)
    gammas = crown.concretize_rows(A, c, spec)

    Abar = spec.x0[None, :] - spec.epsilon * crown.dual_norm_grad(A, spec.q)
    # per-row adjoints of every slope and intercept in the flat layout; the
    # lower lines multiply the positive row entries
    sbar, tbar = [], []
    for v, (A, s, t) in enumerate(tape, start=1):
        Dbar = Abar @ net.weights[v - 1].T + net.biases[v - 1]
        Ap = np.where(A > 0, A, 0.0)
        An = A - Ap
        sbar.extend((Dbar * Ap, Dbar * An))
        tbar.extend((Ap, An))
        Abar = np.where(A != 0, Dbar * s + t, 0.0)

    sbar = np.add.reduceat(np.concatenate(sbar, axis=1), batch.starts, axis=0)
    tbar = np.add.reduceat(np.concatenate(tbar, axis=1), batch.starts, axis=0)
    grad = (sbar[:, var_vec.slots] * dslope
            + tbar[:, var_vec.slots] * dintercept)
    return gammas, grad


def _fold(best: np.ndarray, pos: np.ndarray, gammas: np.ndarray) -> None:
    """Keep, at each row ``pos`` of the per-row best lower bounds ``best``,
    the higher of the stored bound and the given one (each iterate is
    individually sound, so the pointwise best over iterates is a valid
    bound)."""
    better = gammas > best[pos]
    best[pos[better]] = gammas[better]


def optimize_bounds(net: Network, spec: PerturbationSpec, k: int, groups,
                    senses, config: OptimizerConfig,
                    var_vec: VariableVector, seeds=None, stop=None):
    """Projected gradient ascent over the line variables of signed rows, one
    copy of them per group, all groups in one batch; never worse than the
    initialization, per neuron.

    ``groups`` is a list of neuron lists and ``senses`` the sense of each.
    Every group starts from ``var_vec.start``.  Each restart adds one copy
    of every group to the batch: the r-th restart of a group starts at the
    r-th draw of ``default_rng(seed)`` with the group's entry of ``seeds``
    (default: ``config.seed`` for every group).

    Returns the per-row best gammas, the rows running group by group, all
    of the signed rows: an upper-sense row's is the negated upper bound.
    The best of a row is taken over every iterate of every copy of its
    group, so the rows of one group may keep bounds of different iterates.
    ``stop``, if given, is called with the running best after every
    evaluation, the first included; the optimizer returns that best as
    soon as it answers True.
    """
    n_groups = len(groups)
    seeds = [config.seed] * n_groups if seeds is None else seeds
    if len(seeds) != n_groups:
        raise ValueError(f"need one seed per group, got {len(seeds)} seeds "
                         f"for {n_groups} groups")
    if (np.any(var_vec.start < var_vec.lo - 1e-12)
            or np.any(var_vec.start > var_vec.hi + 1e-12)):
        raise ValueError("variable outside its admissible interval")
    copies = config.restarts if len(var_vec) else 1
    batch = RowGroups.of(list(groups) * copies, list(senses) * copies)
    values = np.tile(var_vec.start, (len(batch), 1))
    # seeding costs more than a small evaluation: seed only for restarts
    if copies > 1:
        for g, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            for copy in range(1, copies):
                values[copy * n_groups + g] = rng.uniform(var_vec.lo,
                                                          var_vec.hi)
    best = np.full(len(batch.rows), -np.inf)

    def result():
        return best.reshape(copies, -1).max(axis=0)

    def evaluate(values, part, pos):
        g, grad = objective_and_gradient(net, spec, k, part, var_vec, values)
        _fold(best, pos, g)
        return (np.add.reduceat(g, part.starts), grad,
                stop is not None and stop(result()))

    active, part, pos = np.arange(len(batch)), batch, np.arange(len(best))
    obj, grad, done = evaluate(values, part, pos)
    # normalizing each group's direction by its largest entry makes the
    # travel speed independent of the objective scale (and so of the group
    # size); the geometric decay converges the iterates instead of orbiting
    # the optimum
    step = config.step_size * (var_vec.hi - var_vec.lo)
    decay = 0.98
    # running best objective per group, for the IMPROVEMENT_TOL stop
    history = np.empty((config.max_iters + 1, len(batch)))
    history[0] = obj
    scale = 1.0
    for it in range(config.max_iters if len(var_vec) and not done else 0):
        gmax = np.abs(grad).max(axis=1, keepdims=True)
        direction = grad / np.where(gmax > 0, gmax, 1.0)
        values[active] = var_vec.clipped(
            values[active] + step * scale * direction)
        scale *= decay
        obj, grad, done = evaluate(values[active], part, pos)
        if done:
            break
        history[it + 1, active] = np.maximum(history[it, active], obj)
        if it >= 4:
            stalled = (history[it + 1, active] - history[it - 4, active]
                       < IMPROVEMENT_TOL)
            if stalled.all():
                break
            if stalled.any():
                active, grad = active[~stalled], grad[~stalled]
                part, pos = batch.take(active)
    return result()


def _groups(width: int, group_size: int):
    group_size = max(1, min(group_size, width))
    return [list(range(s, min(s + group_size, width)))
            for s in range(0, width, group_size)]


def _read(group, sense: str, label: int, target: int | None) -> bool:
    """Whether a certificate of ``label`` reads a bound of an output
    ``group`` in ``sense``: the label's lower bound, and the upper bound of
    ``target`` or, untargeted, of every other class."""
    if sense == "lower":
        return label in group
    return any(j == target if target is not None else j != label
               for j in group)


def _tightened(gl, gu, rows, gammas, k: int):
    """crown's bounds (gl, gu) of layer k with the best ``gammas`` of the
    signed ``rows`` folded in; a signed row j < width is neuron j's lower
    bound, width + j its negated upper bound."""
    width = len(gl)
    best = np.concatenate([gl, -gu])
    _fold(best, rows, gammas)
    # a pair crossed by rounding comes back swapped, which can put a side
    # past crown's; crown's bounds are folded in again after the swap
    lower, upper = crown.ordered_bounds(best[:width], 0.0 - best[width:], k)
    return np.maximum(lower, gl), np.minimum(upper, gu)


def frown_propagate(net: Network, spec: PerturbationSpec,
                    config: OptimizerConfig | None = None,
                    crown_bounds: crown.LayerBounds | None = None,
                    label: int | None = None, target: int | None = None):
    """Layer-by-layer optimized bounds.

    Each layer runs one batched optimization in which every group appears
    twice: with lower-sense rows, maximizing the group's summed lower
    bounds, and with upper-sense (negated) rows, minimizing its summed upper
    bounds.  The deterministic baseline bounds, ``crown_bounds`` if the
    caller has them for this ball (``crown.propagate(net, spec)``
    otherwise), are folded into the per-neuron best so the result weakly
    dominates them everywhere (the refreshed intermediate intervals mean the
    initialization alone does not reproduce the baseline bound beyond layer
    2).  Refreshed bounds regenerate the layer's line spaces before the next
    layer is processed.

    Given a ``label`` (and a ``target``), the output layer does only the
    work a certificate's decision reads: it optimizes only the groups
    ``_read`` keeps, every other output entry keeps crown's bound, and it
    stops at the first evaluation whose bounds certify (``crown.score`` of
    the margins >= 0).  The best only rises, so the decision is that of the
    full run; the bounds are those of the first certifying iterate.
    """
    config = config or OptimizerConfig()
    base_bounds = (crown.propagate(net, spec) if crown_bounds is None
                   else crown_bounds)
    lows = [base_bounds.lower[0]]
    ups = [base_bounds.upper[0]]
    layer_spaces = [relax.layer_line_spaces(net.activation, lows[0], ups[0])]

    for k in range(2, net.m + 1):
        width = net.layer_width(k)
        gl, gu = base_bounds.layer(k)
        var_vec = collect_variables(layer_spaces)
        groups = _groups(width, config.group_size)
        # (group, sense) pairs, every lower-sense group first
        kept = [(g, s) for s in range(2) for g in range(len(groups))]
        decides = k == net.m and label is not None
        if decides:
            kept = [(g, s) for g, s in kept
                    if _read(groups[g], relax.SIDES[s], label, target)]
        # the signed row of every neuron of the kept groups, group by group
        rows = np.concatenate([np.asarray(groups[g]) + s * width
                               for g, s in kept])

        def stop(gammas):
            low, up = _tightened(gl, gu, rows, gammas, k)
            return crown.score(crown.margins(low, up, label), label,
                               target) >= 0.0

        gammas = optimize_bounds(
            net, spec, k, [groups[g] for g, _ in kept],
            [relax.SIDES[s] for _, s in kept], config, var_vec,
            [[config.seed, k, g, s] for g, s in kept],
            stop if decides else None)
        lower, upper = _tightened(gl, gu, rows, gammas, k)
        lows.append(lower)
        ups.append(upper)
        if k < net.m:
            layer_spaces.append(
                relax.layer_line_spaces(net.activation, lows[-1], ups[-1]))
    return crown.LayerBounds(lows, ups)
