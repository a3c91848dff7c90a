"""Layer-by-layer LP relaxation of the bounding problem.

The LP for neuron i of layer k optimizes the affine row W(k)_i a(k-1) + b(k)_i
over the input ball and the relaxed activation constraints of layers < k:
layer equalities, bounding lines per neuron per side, and the interval rows
l <= z <= u.  A RelaxationMenu picks the lines: crown's default line alone
("single"), or both ends of each one-variable family and the default line
("multi").  Only p = 1 and p = inf keep the feasible set a polyhedron; p = 2
is rejected.

``lp_propagate`` feeds each layer's LP optima into the next layer's
intervals and menu lines.  A layer's lines are its four line arrays, made
once per layer.  As in crown, every bound is the least value of a signed
row: an upper bound is minus that of the negated row.  A hidden layer of
n_k neurons gets 2 n_k objectives, one per neuron and side.  Given a label,
the output layer gets only the n objectives the margins read, as in
spec-driven bounding (alpha-CROWN, Xu et al., arXiv:2011.13824): the
label's lower bound and every other class's upper bound.

A layer whose menu offers one line per neuron and side at every layer below
it (every layer of the single menu; under the multi menu, a layer with no
line family below it, as when every relu below is stable) builds no LP.  By
the paper's optimality result, the LP over one line per neuron and side, on
the intervals those same lines give, has crown's closed-form bound as its
optimum, so crown's backward pass over those lines bounds the same signed
rows.  It agrees with the simplex within 1e-12 relative (measured: at most
1.0e-15 of max(1, |bound|)).

The other layers' LPs differ only in their objective, so ``build_lp``
assembles a layer's rows once from its line arrays with block array
operations, with one objective per bound.  Each objective's phase 2 starts
from its own optimal basis of the previous probe of a radius search where
that basis is still feasible (``lp_propagate``'s ``bases``: the rows change
with eps, and keep their shape unless a menu line is dropped or added),
else at its crown vertex (``crown_vertices``), which is an optimal basis
wherever the LP's optimum is crown's bound.  Only where neither start is
feasible does the simplex chain from the objective before or run phase 1.

Each variable has a lower bound its own rows imply (x >= x0 - eps, z >= l,
a >= its lower lines' least value on [l, u], r >= 0), which ``build_lp``
stores, less 1e-9 relative, as ``LpProblem.lower`` for the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crown, relax, simplex
from .model import Network, PerturbationSpec, ball_rows, check_input
from .relax import LineSpaces


class LpUnsupportedError(ValueError):
    """Requested norm or option outside the LP formulation."""


@dataclass
class LpProblem:
    """A dense LP with one or more objectives over the same rows: minimize
    c[j].v + c0[j] over A_eq v = b_eq, A_ub v <= b_ub for each row j of c.
    The rows imply v >= lower; ``meta`` names each objective's side.
    """

    c: np.ndarray
    c0: list
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    lower: np.ndarray
    names: list
    meta: dict

    @property
    def n_vars(self) -> int:
        return self.c.shape[1]


@dataclass(frozen=True)
class RelaxationMenu:
    """Which bounding lines each activation contributes to the LP.

    "single" takes crown's default line per neuron and side; "multi" takes
    both ends of every one-variable family (ReLU lower slopes 0 and 1, the
    extreme tangents) and crown's default line, so its LP has every row of
    the single LP.  A fixed space gives its one line under either choice.
    """

    lines: str = "multi"

    def __post_init__(self):
        if self.lines not in ("single", "multi"):
            raise ValueError(f"menu lines must be 'single' or 'multi', "
                             f"got {self.lines!r}")

    @classmethod
    def single(cls) -> "RelaxationMenu":
        return cls("single")

    @classmethod
    def multi(cls) -> "RelaxationMenu":
        return cls("multi")

    def side_lines(self, spaces: LineSpaces):
        """Every neuron's menu lines for one side of a layer, as (slopes,
        intercepts), each shaped (neurons, candidates): a neuron's lines are
        its candidates in order, NaN where a candidate is dropped.

        A candidate within 1e-15 of a kept earlier one is dropped, and every
        kept line is checked on a 101-point grid of its interval.
        """
        candidates = [crown.default_lines(spaces)]
        if self.lines == "multi":
            candidates[:0] = [spaces.members(spaces.var_lo),
                              spaces.members(spaces.var_hi)]
        slopes = np.stack([c[0] for c in candidates], axis=1)
        intercepts = np.stack([c[1] for c in candidates], axis=1)
        keep = np.ones(slopes.shape, dtype=bool)
        for c in range(1, len(candidates)):
            for o in range(c):
                keep[:, c] &= ~(keep[:, o]
                                & (np.abs(slopes[:, c] - slopes[:, o]) < 1e-15)
                                & (np.abs(intercepts[:, c] - intercepts[:, o])
                                   < 1e-15))
        neuron = np.nonzero(keep)[0]
        valid = relax.validate_line(
            spaces.act, spaces.side, spaces.l[neuron], spaces.u[neuron],
            slopes[keep], intercepts[keep], grid_size=101)
        if not valid.all():
            j = neuron[np.argmin(valid)]
            raise RuntimeError(
                f"menu produced an invalid {spaces.side} line for "
                f"{spaces.act} on [{spaces.l[j]}, {spaces.u[j]}]")
        return (np.where(keep, slopes, np.nan),
                np.where(keep, intercepts, np.nan))

    def layer_lines(self, act: str, lower, upper):
        """One layer's menu lines from its intervals, as (slope_lower,
        intercept_lower, slope_upper, intercept_upper) ``side_lines``
        arrays."""
        low, up = relax.layer_line_spaces(act, lower, upper)
        return (*self.side_lines(low), *self.side_lines(up))


def _check_ball(net: Network, spec: PerturbationSpec) -> None:
    check_input(net, spec.x0)
    if spec.p not in (1.0, math.inf):
        raise LpUnsupportedError(
            "the relaxation is a linear program only for p in {1, inf}")


def _one_line_each(layer_lines):
    """A layer's menu lines as one entry per neuron and side, the arrays
    ``crown.backward_rows`` takes, or None if a neuron offers more than one
    line on a side."""
    kept = [~np.isnan(layer_lines[0]), ~np.isnan(layer_lines[2])]
    if any((keep.sum(axis=1) != 1).any() for keep in kept):
        return None
    return tuple(a[kept[i // 2]] for i, a in enumerate(layer_lines))


def build_lp(net: Network, spec: PerturbationSpec, k: int, neurons, sides,
             bounds: crown.LayerBounds, lines) -> LpProblem:
    """Assemble the relaxed LP of layer k, with objective j bounding neuron
    ``neurons[j]`` on side ``sides[j]`` ("lower" or "upper"): its row of the
    layer-k affine map, negated for an upper bound.

    ``bounds`` gives the intervals of layers < k, and ``lines[v-1]`` layer
    v's lines (slope_lower, intercept_lower, slope_upper, intercept_upper):
    one per neuron and side as crown chooses them, or shaped (neurons,
    candidates) with NaN for no line as ``RelaxationMenu.layer_lines``
    gives them.

    The variables are x, then z(v) and a(v) of every layer v < k, then for
    p = 1 the absolute-value auxiliaries r.  The equalities are
    z(v) = W(v) a(v-1) + b(v), with a(0) = x.  The inequalities list, layer
    by layer and within a layer neuron by neuron, the lower lines
    a >= s z + t as s z - a <= -t, the upper lines a <= s z + t as
    a - s z <= t, then z <= u and -z <= -l; the ball rows come last.
    ``meta["line_rows"][v-1]`` holds the row of each of layer v's lines,
    as (lower, upper) arrays shaped like its slopes with -1 for no line,
    and ``meta["ball_row"]`` the first ball row.
    """
    _check_ball(net, spec)
    if k < 2 or k > net.m:
        raise ValueError(f"layer index {k} out of range [2, {net.m}]")
    neurons = list(neurons)     # a tuple would index net.weights as 2-D
    widths = net.widths[1:k]
    before = np.cumsum((0,) + widths[:-1])     # neurons in the layers below
    z_at = net.n + 2 * before                  # first column of each z(v)
    r_at = net.n + 2 * sum(widths)
    total = r_at + (net.n if spec.p == 1.0 else 0)
    names = [f"x{t}" for t in range(net.n)]
    for v, w in enumerate(widths, start=1):
        names += [f"z{v}_{j}" for j in range(w)]
        names += [f"a{v}_{j}" for j in range(w)]
    if spec.p == 1.0:
        names += [f"r{t}" for t in range(net.n)]

    A_eq = np.zeros((sum(widths), total))
    lower = np.concatenate([spec.x0 - spec.epsilon, np.zeros(total - net.n)])
    ub_blocks, rhs, line_rows = [], [], []
    n_ub = 0                  # inequality rows so far
    for v, (w, first, at) in enumerate(zip(widths, before, z_at), start=1):
        # z(v) - W(v) a(v-1) = b(v), where a(v-1) (or x) sits just before z(v)
        weights = net.weights[v - 1]
        A_eq[first:first + w, at:at + w] = np.eye(w)
        A_eq[first:first + w, at - weights.shape[1]:at] = -weights
        # per neuron: its lower lines, its upper lines, z <= u, -z <= -l
        parts = []            # (neuron, z coefficient, a coefficient, rhs)
        sl, tl, su, tu = (np.reshape(a, (w, -1)) for a in lines[v - 1])
        for sign, s, t in ((1.0, sl, tl), (-1.0, su, tu)):
            keep = ~np.isnan(s)
            parts.append((np.nonzero(keep)[0], sign * s[keep],
                          np.full(keep.sum(), -sign), -sign * t[keep]))
        low, up = bounds.layer(v)
        lower[at:at + w] = low
        lower[at + w:at + 2 * w] = np.nanmin(np.minimum(
            sl * low[:, None] + tl, sl * up[:, None] + tl), axis=1)
        for sign, bound in ((1.0, up), (-1.0, low)):
            parts.append((np.arange(w), np.full(w, sign), np.zeros(w),
                          sign * bound))
        neuron, z_coef, a_coef, b = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(neuron, kind="stable")
        block = np.zeros((len(order), total))
        row = np.arange(len(order))
        block[row, at + neuron[order]] = z_coef[order]
        block[row, at + w + neuron[order]] = a_coef[order]
        ub_blocks.append(block)
        rhs.append(b[order])
        # the row of each line: its entry of parts, moved by the sort
        row_of = np.empty(len(order), dtype=int)
        row_of[order] = n_ub + row
        per_side, done = [], 0
        for s in (sl, su):
            keep = ~np.isnan(s)
            per_side.append(np.full(s.shape, -1))
            per_side[-1][keep] = row_of[done:done + keep.sum()]
            done += keep.sum()
        line_rows.append(tuple(per_side))
        n_ub += len(order)
    ball_A, ball_b = ball_rows(spec, total, r_col=r_at)

    # objective j: row neurons[j] of the layer-k affine map over a(k-1), signed
    sign = np.where(np.asarray(sides) == "lower", 1.0, -1.0)
    c = np.zeros((len(neurons), total))
    c[:, r_at - widths[-1]:r_at] = net.weights[k - 1][neurons]
    return LpProblem(
        c=c * sign[:, None],
        c0=(sign * net.biases[k - 1][neurons]).tolist(),
        A_eq=A_eq,
        b_eq=np.concatenate(net.biases[:k - 1]),
        A_ub=np.vstack(ub_blocks + [ball_A]),
        b_ub=np.concatenate(rhs + [ball_b]),
        lower=lower - 1e-9 * (1.0 + np.abs(lower)),
        names=names,
        meta={"k": k, "neurons": neurons, "sides": sides,
              "line_rows": line_rows, "ball_row": n_ub},
    )


def solve(problem: LpProblem, bases: list | None = None, vertices=None):
    """Least values and optimal points, one entry (row) per objective.
    ``bases`` and ``vertices`` are passed to
    ``simplex.solve_inequality_form``: each objective's starting basis,
    replaced by its optimal one, and the function that gives each
    objective's starting vertex where it has no feasible basis."""
    value, point = simplex.solve_inequality_form(
        problem.c, problem.A_eq, problem.b_eq, problem.A_ub, problem.b_ub,
        problem.lower, bases=bases, vertices=vertices)
    return value + problem.c0, point


def crown_vertices(net: Network, spec: PerturbationSpec,
                   problem: LpProblem, bounds: crown.LayerBounds, lines,
                   A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per objective of ``problem`` (the signed rows (A, c) of its layer, as
    ``crown.backward_rows`` takes them), the rows of ``A_ub`` tight at the
    vertex crown's backward pass points to.

    The pass walks back on one menu line per neuron and side, the lower
    line highest and the upper line lowest at the middle of its interval
    (crown's adaptive relu line).  The input sits at the ball's point that
    minimizes the pass's input row: for p = inf every coordinate at the end
    against its entry's sign, for p = 1 x0 moved by eps against the sign of
    the largest entry.  Forward from there,
    each neuron's activation sits on the lower line highest at its z where
    the running row is positive, else on the upper line lowest there, so
    every line holds, and that line's row is tight.  Where the LP's
    optimum is crown's bound, that vertex is optimal."""
    k = problem.meta["k"]
    picked = []
    for v, (sl, tl, su, tu) in enumerate(lines[:k - 1], start=1):
        mid = np.mean(bounds.layer(v), axis=0)
        lo, up = _tightest(sl, tl, mid, 1.0), _tightest(su, tu, mid, -1.0)
        picked.append(tuple(np.take_along_axis(a, at, -1)[..., 0] for a, at
                            in ((sl, lo), (tl, lo), (su, up), (tu, up))))
    coeffs, _, tape = crown.backward_rows(net, k, A, c, picked)

    n, ball, objs = net.n, problem.meta["ball_row"], np.arange(len(A))
    if spec.p == math.inf:
        rise = coeffs <= 0.0        # x = x0 + eps, its row x <= x0 + eps tight
        act = spec.x0 + spec.epsilon * np.where(rise, 1.0, -1.0)
        tight = [ball + 2 * np.arange(n) + ~rise]
    else:
        # x - r <= x0 and -x - r <= -x0 are tight but at the largest entry
        # t, where x moves by eps against its sign, and sum r <= eps is tight
        t = np.abs(coeffs).argmax(axis=1)
        rise = coeffs[objs, t] <= 0.0
        act = np.repeat(spec.x0[None], len(A), axis=0)
        act[objs, t] += spec.epsilon * np.where(rise, 1.0, -1.0)
        held = np.ones((len(A), 2 * n + 1), dtype=bool)
        held[objs, 2 * t + rise] = False
        tight = [ball + np.nonzero(held)[1].reshape(len(A), 2 * n)]
    for v in range(1, k):
        z = act @ net.weights[v - 1].T + net.biases[v - 1]
        lower_side = (tape[v - 1][0] > 0.0)[..., None]
        sl, tl, su, tu = lines[v - 1]
        s, t = np.where(lower_side, sl, su), np.where(lower_side, tl, tu)
        at = _tightest(s, t, z, np.where(lower_side, 1.0, -1.0))
        act = np.take_along_axis(s * z[..., None] + t, at, -1)[..., 0]
        rows = np.where(lower_side, *problem.meta["line_rows"][v - 1])
        tight.append(np.take_along_axis(rows, at, -1)[..., 0])
    return np.concatenate(tight, axis=1)


def _tightest(s, t, z, sign):
    """Per entry of z, the index, kept on a last axis of length 1, of the
    line (s, t) whose ``sign`` times value at z is largest: the highest
    lower line for sign 1, the lowest upper line for -1.  A NaN line is
    no line."""
    on = sign * (s * z[..., None] + t)
    return np.where(np.isnan(on), -np.inf, on).argmax(axis=-1)[..., None]


def lp_propagate(net: Network, spec: PerturbationSpec,
                 menu: RelaxationMenu | None = None,
                 label: int | None = None,
                 bases: dict | None = None) -> crown.LayerBounds:
    """Recursive LP bounds for layers 2..m: each layer's LPs use the menu
    lines and intervals of the LP bounds of the layers below.  A layer's
    LPs share their rows, so they are solved as one LP with an objective
    per bound: every lower bound, then every negated upper bound.  Given a
    ``label``, the output layer solves only the bounds ``crown.margins``
    reads, the label's lower bound and every other class's upper bound, and
    leaves the others at -inf (lower) and +inf (upper).  A layer with one
    menu line per neuron and side at every layer below it builds no LP: it
    bounds the same rows by crown's backward pass over those lines, which
    the paper's optimality result makes the LP optimum.

    ``bases`` maps each layer k to its objectives' optimal bases of the
    last call and is updated in place; a radius search keeps one dict
    across its probes, and a call without one starts from an empty dict.
    Each objective's phase 2 starts from its own basis there if it is
    still feasible, else at its crown vertex (``crown_vertices``).  Any
    start is checked before use, so the bounds are the LP optima whatever
    the dict holds."""
    _check_ball(net, spec)
    menu = menu or RelaxationMenu()
    bases = {} if bases is None else bases
    n_out = net.layer_width(net.m)
    if label is not None and not 0 <= label < n_out:
        raise ValueError(f"label {label} out of range for {n_out} outputs")

    low1, up1 = crown.layer1_bounds(net, spec)
    bounds = crown.LayerBounds([low1], [up1])
    lines, closed = [], []   # closed: the lines below, while one per side
    for k in range(2, net.m + 1):
        lines.append(menu.layer_lines(net.activation, *bounds.layer(k - 1)))
        single = None if closed is None else _one_line_each(lines[-1])
        closed = None if single is None else closed + [single]
        w = net.layer_width(k)
        solve_lo = solve_up = np.arange(w)   # neurons bounded on each side
        if k == net.m and label is not None:
            solve_lo, solve_up = solve_lo[[label]], solve_up[solve_up != label]
        rows = np.concatenate([solve_lo, solve_up])
        n_lo, n_obj = len(solve_lo), len(rows)
        sign = np.repeat([1.0, -1.0], [n_lo, n_obj - n_lo])
        A = sign[:, None] * net.weights[k - 1][rows]
        c = sign * net.biases[k - 1][rows]
        if closed is not None:
            # the LP's optimum in closed form: crown's bound on its lines
            values = crown.concretize_rows(
                *crown.backward_rows(net, k, A, c, closed)[:2], spec)
        else:
            if len(bases.get(k, ())) != n_obj:
                bases[k] = [None] * n_obj
            problem = build_lp(
                net, spec, k, rows.tolist(),
                ("lower",) * n_lo + ("upper",) * (n_obj - n_lo), bounds,
                lines)
            values = solve(problem, bases[k], lambda: crown_vertices(
                net, spec, problem, bounds, lines, A, c))[0]
        low, up = np.full(w, -np.inf), np.full(w, np.inf)
        # minus the negated row's least value; 0.0 - v, not -v, keeps 0 at +0.0
        low[solve_lo], up[solve_up] = values[:n_lo], 0.0 - values[n_lo:]
        low, up = crown.ordered_bounds(low, up, k)
        bounds.lower.append(low)
        bounds.upper.append(up)
    return bounds


def dump_lp(problem: LpProblem) -> str:
    """Textual listing of the LP for external checks: for each objective in
    turn, its objective and then every row, the listings blank-line apart.
    An upper bound's objective is listed as the maximum of its row."""
    meta = problem.meta
    rows = ["subject to:"]
    rows += [f"  {_poly(row, problem.names)} = {float(rhs)!r}"
             for row, rhs in zip(problem.A_eq, problem.b_eq)]
    rows += [f"  {_poly(row, problem.names)} <= {float(rhs)!r}"
             for row, rhs in zip(problem.A_ub, problem.b_ub)]
    rows.append("free: " + " ".join(problem.names))
    listings = []
    for neuron, side, c, c0 in zip(meta["neurons"], meta["sides"], problem.c,
                                   problem.c0):
        sign = 1.0 if side == "lower" else -1.0     # list the unsigned row
        head = [f"\\ layer {meta['k']} neuron {neuron} {side}",
                ("minimize: " if sign > 0 else "maximize: ")
                + _poly(sign * c, problem.names)
                + (f" + {sign * c0!r}" if c0 else "")]
        listings.append("\n".join(head + rows) + "\n")
    return "\n".join(listings)


def _poly(coeffs, names) -> str:
    terms = [f"{float(c)!r} {name}" for c, name in zip(coeffs, names)
             if c != 0.0]
    return " + ".join(terms) if terms else "0"
