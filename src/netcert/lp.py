"""Layer-by-layer LP relaxation of the bounding problem.

The LP for neuron i of layer k optimizes the affine row W(k)_i a(k-1) + b(k)_i
over the input ball and the relaxed activation constraints of layers < k:
layer equalities, bounding lines per neuron per side, and the interval rows
l <= z <= u.  A RelaxationMenu picks the lines: crown's default line alone
("single"), or both ends of each one-variable family and the default line
("multi").  Only p = 1 and p = inf keep the feasible set a polyhedron; p = 2
is rejected.

Two propagation modes exist: the baseline recursively feeds each layer's LP
optima into the next layer's constraints, while shared-lines mode imports the
bounding lines and intervals of a deterministic backward-propagation run
verbatim so the LP optimum can be compared against the closed-form bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import crown, relax, simplex
from .model import Network, PerturbationSpec, ball_rows, check_input
from .relax import Line, LineSpace, LineSpaces

#: slack for the primal-certificate recheck after a solve
CERT_TOL = 1e-7


class LpUnsupportedError(ValueError):
    """Requested norm or option outside the LP formulation."""


@dataclass
class LpProblem:
    """A dense LP: optimize c.v + c0 over A_eq v = b_eq, A_ub v <= b_ub."""

    sense: str
    c: np.ndarray
    c0: float
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    names: list
    meta: dict = field(default_factory=dict)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


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

    def layer_lines(self, spaces: LineSpaces):
        """Every neuron's menu lines for one side of a layer, as (slopes,
        intercepts, keep), each shaped (neurons, candidates): a neuron's
        lines are its kept candidates, in order.

        A candidate within 1e-15 of a kept earlier one is dropped, and every
        kept line is checked on a 101-point grid of its interval.
        """
        candidates = [crown.default_lines(spaces)]
        if self.lines == "multi":
            candidates[:0] = [spaces.lines_at(spaces.var_lo),
                              spaces.lines_at(spaces.var_hi)]
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
            Line(slopes[keep], intercepts[keep]), grid_size=101)
        if not valid.all():
            j = neuron[np.argmin(valid)]
            raise RuntimeError(
                f"menu produced an invalid {spaces.side} line for "
                f"{spaces.act} on [{spaces.l[j]}, {spaces.u[j]}]")
        return slopes, intercepts, keep

    def lines_for(self, space: LineSpace) -> list:
        """One space's menu lines."""
        slopes, intercepts, keep = self.layer_lines(space.one())
        return [Line(float(s), float(t))
                for s, t in zip(slopes[0, keep[0]], intercepts[0, keep[0]])]


def _layer_lines_from_menu(act, lower, upper, menu):
    """One layer's (lower, upper) menu lines, each as
    ``RelaxationMenu.layer_lines`` gives them."""
    return tuple(menu.layer_lines(spaces)
                 for spaces in relax.layer_line_spaces(act, lower, upper))


def _one_line_each(line_arrays):
    """A layer's (lower, upper) lines in menu form, from its LayerLines
    arrays."""
    sl, tl, su, tu = line_arrays
    return tuple((s[:, None], t[:, None], np.ones((len(s), 1), dtype=bool))
                 for s, t in ((sl, tl), (su, tu)))


class _VarMap:
    """Variable layout: input x, then z(v) and a(v) per layer, then the
    absolute-value auxiliaries for the p=1 ball."""

    def __init__(self, net: Network, k: int, p: float):
        self.n = net.n
        self.offsets = {}
        pos = self.n
        for v in range(1, k):
            w = net.layer_width(v)
            self.offsets[("z", v)] = pos
            pos += w
            self.offsets[("a", v)] = pos
            pos += w
        self.r_offset = pos if p == 1.0 else None
        if p == 1.0:
            pos += self.n
        self.total = pos
        self.names = [f"x{i}" for i in range(self.n)]
        for v in range(1, k):
            self.names += [f"z{v}_{j}" for j in range(net.layer_width(v))]
            self.names += [f"a{v}_{j}" for j in range(net.layer_width(v))]
        if p == 1.0:
            self.names += [f"r{i}" for i in range(self.n)]

    def x(self, i):
        return i

    def z(self, v, j):
        return self.offsets[("z", v)] + j

    def a(self, v, j):
        return self.offsets[("a", v)] + j


def _build_with_lines(net, spec, k, i, sense, bounds, lines_per_layer):
    if spec.p not in (1.0, math.inf):
        raise LpUnsupportedError(
            "the relaxation is a linear program only for p in {1, inf}")
    if k < 2 or k > net.m:
        raise ValueError(f"layer index {k} out of range [2, {net.m}]")
    vm = _VarMap(net, k, spec.p)
    eq_rows, eq_rhs = [], []
    ub_rows, ub_rhs = [], []

    def new_row():
        return np.zeros(vm.total)

    # layer equalities z(v) = W(v) a(v-1) + b(v), with a(0) = x
    for v in range(1, k):
        w_mat, b_vec = net.weights[v - 1], net.biases[v - 1]
        for j in range(net.layer_width(v)):
            row = new_row()
            row[vm.z(v, j)] = 1.0
            for t in range(w_mat.shape[1]):
                col = vm.x(t) if v == 1 else vm.a(v - 1, t)
                row[col] = -w_mat[j, t]
            eq_rows.append(row)
            eq_rhs.append(b_vec[j])

    # bounding lines, then interval rows; with sign +1 a lower line
    # a >= s z + t is s z - a <= -t, with sign -1 an upper line
    # a <= s z + t is a - s z <= t
    for v in range(1, k):
        low_v, up_v = bounds.layer(v)
        for j in range(net.layer_width(v)):
            for sign, (slopes, intercepts, keep) in zip(
                    (1.0, -1.0), lines_per_layer[v - 1]):
                for slope, intercept in zip(slopes[j, keep[j]],
                                            intercepts[j, keep[j]]):
                    row = new_row()
                    row[vm.z(v, j)] = sign * slope
                    row[vm.a(v, j)] = -sign
                    ub_rows.append(row)
                    ub_rhs.append(-sign * intercept)
            for sign, bound in ((1.0, up_v[j]), (-1.0, low_v[j])):
                row = new_row()          # z <= u, then -z <= -l
                row[vm.z(v, j)] = sign
                ub_rows.append(row)
                ub_rhs.append(sign * bound)

    ball_A, ball_b = ball_rows(spec, vm.total, r_col=vm.r_offset)
    ub_rows.extend(ball_A)
    ub_rhs.extend(ball_b)

    # objective: row i of the layer-k affine map
    c = np.zeros(vm.total)
    w_mat = net.weights[k - 1]
    for t in range(w_mat.shape[1]):
        col = vm.x(t) if k == 1 else vm.a(k - 1, t)
        c[col] = w_mat[i, t]
    return LpProblem(
        sense="min" if sense == "lower" else "max",
        c=c,
        c0=float(net.biases[k - 1][i]),
        A_eq=np.array(eq_rows) if eq_rows else np.zeros((0, vm.total)),
        b_eq=np.array(eq_rhs),
        A_ub=np.array(ub_rows),
        b_ub=np.array(ub_rhs),
        names=vm.names,
        meta={"k": k, "i": i, "sense": sense},
    )


def build_lp(net: Network, spec: PerturbationSpec, k: int, i: int, sense: str,
             bounds: crown.LayerBounds, menu: RelaxationMenu) -> LpProblem:
    """Assemble the relaxed LP for neuron i of layer k."""
    check_input(net, spec.x0)
    act = net.activation
    lines_per_layer = []
    for v in range(1, k):
        low_v, up_v = bounds.layer(v)
        lines_per_layer.append(_layer_lines_from_menu(act, low_v, up_v, menu))
    return _build_with_lines(net, spec, k, i, sense, bounds, lines_per_layer)


def solve(problem: LpProblem):
    """Optimal value and primal point, with a feasibility certificate check."""
    value, point = simplex.solve_inequality_form(
        problem.c, problem.A_eq, problem.b_eq, problem.A_ub, problem.b_ub,
        sense=problem.sense)
    if problem.A_eq.shape[0]:
        eq_gap = np.abs(problem.A_eq @ point - problem.b_eq).max()
        if eq_gap > CERT_TOL:
            raise simplex.SimplexError(f"equality residual {eq_gap:.3e}")
    if problem.A_ub.shape[0]:
        ub_gap = (problem.A_ub @ point - problem.b_ub).max()
        if ub_gap > CERT_TOL:
            raise simplex.SimplexError(f"inequality violation {ub_gap:.3e}")
    re_eval = float(problem.c @ point)
    if abs(re_eval - value) > CERT_TOL * max(1.0, abs(value)):
        raise simplex.SimplexError("objective mismatch at the primal point")
    return value + problem.c0, point


def lp_propagate(net: Network, spec: PerturbationSpec,
                 menu: RelaxationMenu | None = None, mode: str = "baseline"):
    """Recursive LP bounds for layers 2..m.

    mode="shared-lines" imports lines and intermediate intervals verbatim from
    ``crown.propagate``; the returned LayerBounds then hold the LP optima for
    comparison against the closed-form values.
    """
    if mode not in ("baseline", "shared-lines"):
        raise ValueError(f"unknown mode {mode!r}")
    if spec.p not in (1.0, math.inf):
        raise LpUnsupportedError(
            "the relaxation is a linear program only for p in {1, inf}")
    menu = menu or RelaxationMenu.multi()

    low1, up1 = crown.layer1_bounds(net, spec)
    bounds = crown.LayerBounds([low1], [up1])
    if mode == "shared-lines":
        ref_bounds, ref_lines = crown.propagate(net, spec)
        shared = [_one_line_each(ll.arrays()) for ll in ref_lines.layers]

        def problem(k, i, sense):
            return _build_with_lines(net, spec, k, i, sense, ref_bounds, shared)
    else:
        def problem(k, i, sense):
            return build_lp(net, spec, k, i, sense, bounds, menu)

    for k in range(2, net.m + 1):
        gl = np.empty(net.layer_width(k))
        gu = np.empty(net.layer_width(k))
        for i in range(net.layer_width(k)):
            gl[i] = solve(problem(k, i, "lower"))[0]
            gu[i] = solve(problem(k, i, "upper"))[0]
        bounds.lower.append(gl)
        bounds.upper.append(gu)
    return bounds, (bounds.output_lower, bounds.output_upper)


def dump_lp(problem: LpProblem) -> str:
    """Textual listing of the LP (objective, then rows) for external checks."""
    parts = []
    meta = problem.meta
    if meta:
        parts.append(f"\\ layer {meta.get('k')} neuron {meta.get('i')} "
                     f"{meta.get('sense')}")
    parts.append(("minimize: " if problem.sense == "min" else "maximize: ")
                 + _poly(problem.c, problem.names)
                 + (f" + {problem.c0!r}" if problem.c0 else ""))
    parts.append("subject to:")
    for row, rhs in zip(problem.A_eq, problem.b_eq):
        parts.append(f"  {_poly(row, problem.names)} = {rhs!r}")
    for row, rhs in zip(problem.A_ub, problem.b_ub):
        parts.append(f"  {_poly(row, problem.names)} <= {rhs!r}")
    parts.append("free: " + " ".join(problem.names))
    return "\n".join(parts) + "\n"


def _poly(coeffs, names) -> str:
    terms = [f"{c!r} {name}" for c, name in zip(coeffs, names) if c != 0.0]
    return " + ".join(terms) if terms else "0"
