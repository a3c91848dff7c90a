"""Valid bounding-line families for activations on pre-activation intervals.

For each activation kind and interval [l, u] this module produces the family
of tightest bounding lines: either a single fixed line (secant through the
endpoints, written "chord" below) or a one-parameter family (ReLU lower lines
through the origin, or tangent lines of the s-shaped activations).  The
s-shaped case analysis splits on the sign configuration of the interval and,
for intervals crossing the inflection point at 0, on whether an endpoint
tangent clears the opposite endpoint:

  upper side, l < 0 < u:
    case1  tangent at u clears (l, f(l)) from above -> tangents d in [l_d, u]
    case2  otherwise                                -> chord
  lower side, l < 0 < u:
    case3  tangent at l stays below (u, f(u))       -> tangents d in [l, u_d]
    case4  otherwise                                -> chord

l_d / u_d are the tangency abscissas of the tangent passing through the left
/ right endpoint; they live on the opposite side of the inflection point from
their anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ACTIVATIONS

#: intervals narrower than this use the midpoint-tangent degenerate rule
#: (the chord slope divides by u - l)
DEGENERATE_WIDTH = 1e-12

#: validity slack for grid checks of bounding lines
LINE_SLACK = 1e-9

#: halvings of the tangent-point bracket, which ends 2**-40 (about 1e-12) as
#: wide as it starts; bisecting on to adjacent floats took half again as
#: many activation evaluations for no change in the certified radii
TANGENT_BISECTIONS = 40

#: the two sides of a bounding-line pair, in the order every layer lists them
SIDES = ("lower", "upper")


class TangentUndefinedError(RuntimeError):
    """No anchored tangent exists on the admissible side of the inflection."""


@dataclass(frozen=True)
class Line:
    slope: float
    intercept: float

    def value(self, z):
        return self.slope * np.asarray(z, dtype=float) + self.intercept


def _funcs(act: str):
    try:
        return ACTIVATIONS[act]
    except KeyError:
        raise ValueError(f"unknown activation {act!r}") from None


def tangent_line(act: str, d: float) -> Line:
    """Tangent to the activation at abscissa d."""
    f, df, _ = _funcs(act)
    s = float(df(d))
    return Line(s, float(f(d)) - s * d)


def chord(act: str, l: float, u: float) -> Line:
    """Secant through (l, f(l)) and (u, f(u)); midpoint tangent if degenerate."""
    if not (np.isfinite(l) and np.isfinite(u) and l <= u):
        raise ValueError(f"bad interval [{l}, {u}]")
    if u - l <= DEGENERATE_WIDTH:
        return tangent_line(act, 0.5 * (l + u))
    f = _funcs(act)[0]
    s0 = (float(f(u)) - float(f(l))) / (u - l)
    return Line(s0, float(f(l)) - s0 * l)


def _anchored_gap(act: str, e: float):
    """g(d) = f'(d)(e - d) + f(d) - f(e): tangent-at-d value at e, minus f(e).

    g is nondecreasing in d on each side of the inflection point, since
    g'(d) = f''(d)(e - d).
    """
    f, df, _ = _funcs(act)
    fe = float(f(e))

    def g(d: float) -> float:
        return float(df(d)) * (e - d) + float(f(d)) - fe

    return g


def tangent_point_through(act: str, anchor: str, l: float, u: float) -> float:
    """Abscissa d of the tangent that passes through the anchored endpoint.

    anchor="left" solves f'(d)(l - d) + f(d) = f(l) with d >= 0 (requires
    l < 0); anchor="right" solves the mirror with d <= 0 (requires u > 0).
    Raises TangentUndefinedError when the anchored endpoint does not sit
    strictly on the other side of the inflection point, which happens when
    both endpoints share a side.

    Bisection halves the bracket a fixed number of times instead of stopping
    at a small |g|: near the inflection point g shrinks like the cube of the
    interval width, so a small |g| says nothing about the distance to the
    root.  The returned end is the one on the valid side (g >= 0 for the
    left anchor, g <= 0 for the right anchor).  When the other endpoint
    already is on the valid side (the case1/case3 test) the bracket starts
    there, so on intervals so narrow that rounding decides the sign of g the
    result still stays inside [l, u].
    """
    if act == "relu":
        raise ValueError("anchored tangents only apply to sigmoid/tanh")
    if anchor not in ("left", "right"):
        raise ValueError(f"anchor must be 'left' or 'right', got {anchor!r}")
    e = l if anchor == "left" else u
    g = _anchored_gap(act, e)
    if anchor == "left":
        if not e < 0.0:
            raise TangentUndefinedError(
                f"left anchor {e} not below the inflection point")
        lo, hi = 0.0, u
        if not (u > 0.0 and g(u) >= 0.0):
            hi = max(u, 1.0)
            while g(hi) < 0.0:
                hi *= 2.0
                if hi > 1e6:
                    raise TangentUndefinedError(
                        "no sign change while expanding")
    else:
        if not e > 0.0:
            raise TangentUndefinedError(
                f"right anchor {e} not above the inflection point")
        lo, hi = l, 0.0
        if not (l < 0.0 and g(l) <= 0.0):
            lo = min(l, -1.0)
            while g(lo) > 0.0:
                lo *= 2.0
                if lo < -1e6:
                    raise TangentUndefinedError(
                        "no sign change while expanding")
    # invariant: g(lo) <= 0 <= g(hi); g monotone on the bracketed side
    for _ in range(TANGENT_BISECTIONS):
        d = 0.5 * (lo + hi)
        if g(d) < 0.0:
            lo = d
        else:
            hi = d
    return hi if anchor == "left" else lo


@dataclass(frozen=True)
class LineSpace:
    """The family of tightest bounding lines for one activation interval.

    kind is "fixed" (a unique tightest line) or "one-variable"; one-variable
    spaces are generated either by a free lower slope through the origin
    (ReLU on a crossing interval) or by the tangency abscissa of a tangent
    family (sigmoid/tanh).
    """

    act: str
    side: str            # "lower" | "upper"
    l: float
    u: float
    kind: str            # "fixed" | "one-variable"
    case_tag: str        # degenerate | l<u<=0 | l<0<u | 0<=l<u | case1..case4
    generator: str = ""  # "relu-slope" | "tangent" (one-variable only)
    var_lo: float = math.nan
    var_hi: float = math.nan
    fixed_line: Line | None = None

    @property
    def var_range(self):
        return (self.var_lo, self.var_hi)

    def line_at(self, theta: float) -> Line:
        if self.kind == "fixed":
            return self.fixed_line
        if not (self.var_lo - 1e-9 <= theta <= self.var_hi + 1e-9):
            raise ValueError(
                f"variable {theta} outside [{self.var_lo}, {self.var_hi}]")
        theta = min(max(theta, self.var_lo), self.var_hi)
        if self.generator == "relu-slope":
            return Line(float(theta), 0.0)
        return tangent_line(self.act, theta)

    def line_and_grad_at(self, theta: float):
        """(slope, intercept, d slope / d theta, d intercept / d theta)."""
        line = self.line_at(theta)
        if self.kind == "fixed":
            return line.slope, line.intercept, 0.0, 0.0
        if self.generator == "relu-slope":
            return line.slope, line.intercept, 1.0, 0.0
        curv = float(_funcs(self.act)[2](theta))
        # slope = f'(d), intercept = f(d) - f'(d) d
        return line.slope, line.intercept, curv, -curv * theta


def _fixed(act, side, l, u, tag, line) -> LineSpace:
    return LineSpace(act, side, l, u, "fixed", tag, fixed_line=line)


def _family(act, side, l, u, tag, gen, lo, hi) -> LineSpace:
    return LineSpace(act, side, l, u, "one-variable", tag, generator=gen,
                     var_lo=float(lo), var_hi=float(hi))


def line_space(act: str, side: str, l: float, u: float) -> LineSpace:
    """The tightest-line family for (activation, side, sign case) on [l, u]."""
    if side not in SIDES:
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    l, u = float(l), float(u)
    if not (np.isfinite(l) and np.isfinite(u) and l <= u):
        raise ValueError(f"bad interval [{l}, {u}]")
    if u - l <= DEGENERATE_WIDTH:
        return _fixed(act, side, l, u, "degenerate",
                      tangent_line(act, 0.5 * (l + u)))

    if act == "relu":
        if side == "upper":
            tag = "l<u<=0" if u <= 0 else ("0<=l<u" if l >= 0 else "l<0<u")
            return _fixed(act, side, l, u, tag, chord(act, l, u))
        if u <= 0:
            return _fixed(act, side, l, u, "l<u<=0", Line(0.0, 0.0))
        if l >= 0:
            return _fixed(act, side, l, u, "0<=l<u", Line(1.0, 0.0))
        return _family(act, side, l, u, "l<0<u", "relu-slope", 0.0, 1.0)

    f, df, _ = _funcs(act)
    if side == "upper":
        if u <= 0:
            # convex region: the chord lies above
            return _fixed(act, side, l, u, "l<u<=0", chord(act, l, u))
        if l >= 0:
            # concave region: every tangent lies above
            return _family(act, side, l, u, "0<=l<u", "tangent", l, u)
        # crossing: case 1 iff the tangent at u clears (l, f(l))
        if float(df(u)) * (l - u) + float(f(u)) >= float(f(l)):
            ld = tangent_point_through(act, "left", l, u)
            return _family(act, side, l, u, "case1", "tangent", ld, u)
        return _fixed(act, side, l, u, "case2", chord(act, l, u))
    # lower side
    if u <= 0:
        # convex region: every tangent lies below
        return _family(act, side, l, u, "l<u<=0", "tangent", l, u)
    if l >= 0:
        # concave region: the chord lies below
        return _fixed(act, side, l, u, "0<=l<u", chord(act, l, u))
    # crossing: case 3 iff the tangent at l stays below (u, f(u))
    if float(df(l)) * (u - l) + float(f(l)) <= float(f(u)):
        ud = tangent_point_through(act, "right", l, u)
        return _family(act, side, l, u, "case3", "tangent", l, ud)
    return _fixed(act, side, l, u, "case4", chord(act, l, u))


def validate_line(act: str, side: str, l: float, u: float, line: Line,
                  grid_size: int = 1001) -> bool:
    """Check the side inequality on a dense grid including both endpoints."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    f = _funcs(act)[0]
    zs = np.linspace(l, u, grid_size)
    gap = f(zs) - line.value(zs)
    if side == "upper":
        gap = -gap
    return bool(np.min(gap) >= -LINE_SLACK)


def layer_line_spaces(act: str, lower: np.ndarray, upper: np.ndarray):
    """Per-neuron (lower-side, upper-side) line spaces for one layer."""
    return tuple([line_space(act, side, float(l), float(u))
                  for l, u in zip(lower, upper)] for side in SIDES)
