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
once per layer.  The LPs of a layer differ only in their objective, so
``build_lp`` assembles the layer's rows once from those arrays with block
array operations, with one objective per bound, and the simplex solves them
with at most one phase 1, each objective's phase 2 warm-started from the
optimal basis of the one before.  Between the probes of a radius search the
rows change with eps, and keep their shape unless a menu line is dropped or
added, so each objective's phase 2 starts from its own optimal basis of the
previous probe where that basis is still feasible (``lp_propagate``'s
``bases``).  As in crown, every bound is the least value of a signed row:
an upper bound is minus that of the negated row.  A hidden layer
of n_k neurons gets 2 n_k objectives, one per neuron and side.  Given a
label, the output layer gets only the n objectives the margins read, as in
spec-driven bounding (alpha-CROWN, Xu et al., arXiv:2011.13824): the label's
lower bound and every other class's upper bound.  ``build_lp`` also takes
crown's own intervals and lines (one line per neuron and side); by the
paper's optimality result that LP's optimum is crown's closed-form bound.

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
    """
    check_input(net, spec.x0)
    if spec.p not in (1.0, math.inf):
        raise LpUnsupportedError(
            "the relaxation is a linear program only for p in {1, inf}")
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
    ub_blocks, rhs = [], []
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
        meta={"k": k, "neurons": neurons, "sides": sides},
    )


def solve(problem: LpProblem, bases: list | None = None):
    """Least values and optimal points, one entry (row) per objective.
    ``bases`` is passed to ``simplex.solve_inequality_form``: each
    objective's starting basis, replaced by its optimal one."""
    value, point = simplex.solve_inequality_form(
        problem.c, problem.A_eq, problem.b_eq, problem.A_ub, problem.b_ub,
        problem.lower, bases=bases)
    return value + problem.c0, point


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
    leaves the others at -inf (lower) and +inf (upper).

    ``bases``, a dict the caller keeps across calls (a radius search keeps
    one per search), maps each layer k to its objectives' optimal bases of
    the last call: each objective's phase 2 starts from its own if that
    basis is still feasible, and the dict is updated in place.  Any start
    is checked before use, so the bounds are the LP optima whatever the
    dict holds; without it every call starts from scratch."""
    menu = menu or RelaxationMenu()
    n_out = net.layer_width(net.m)
    if label is not None and not 0 <= label < n_out:
        raise ValueError(f"label {label} out of range for {n_out} outputs")

    low1, up1 = crown.layer1_bounds(net, spec)
    bounds = crown.LayerBounds([low1], [up1])
    lines = []
    for k in range(2, net.m + 1):
        lines.append(menu.layer_lines(net.activation, *bounds.layer(k - 1)))
        w = net.layer_width(k)
        solve_lo = solve_up = np.arange(w)   # neurons bounded on each side
        if k == net.m and label is not None:
            solve_lo, solve_up = solve_lo[[label]], solve_up[solve_up != label]
        n_lo, n_obj = len(solve_lo), len(solve_lo) + len(solve_up)
        if bases is not None and len(bases.get(k, ())) != n_obj:
            bases[k] = [None] * n_obj
        values = solve(build_lp(
            net, spec, k, np.concatenate([solve_lo, solve_up]).tolist(),
            ("lower",) * n_lo + ("upper",) * len(solve_up), bounds, lines),
            None if bases is None else bases[k])[0]
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
