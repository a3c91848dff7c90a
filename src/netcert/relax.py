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

A layer's families are one record of arrays per side (``LineSpaces``): the
case of every neuron, whether it is a family or a fixed line, the family's
admissible range and the fixed line.  ``layer_line_spaces`` builds both
records of a layer with array code, and solves every anchored tangent of the
layer (case1 and case3 alike) in one batch of safeguarded Newton steps,
which stop once the point is within 2**-40 of the interval's far end of the
root.  The case test is what brackets each tangency abscissa between the
inflection point and the far endpoint; ``tangent_points_through`` rejects
any other interval.
``line_space`` is the record of a single interval.  Lines travel as slope
and intercept arrays; iterating a record yields each entry's (kind,
case_tag), for per-neuron tallies.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import ACTIVATION_JETS, ACTIVATIONS

#: intervals narrower than this use the midpoint-tangent degenerate rule
#: (the chord slope divides by u - l)
DEGENERATE_WIDTH = 1e-12

#: validity slack for grid checks of bounding lines, relative to
#: 1 + max |f| over the grid (a line near values of 1e7 is rounded by more
#: than an absolute 1e-9)
LINE_SLACK = 1e-9

#: half the largest float, the widest half-width an interval may have
_HALF_MAX = 0.5 * np.finfo(float).max

#: an anchored tangent point is returned once an invalid point lies within
#: this fraction of |far end| of it: the bracket that 40 halvings of [0, far]
#: leave, about 1e-12 of its start
TANGENT_TOL = 2.0 ** -40

#: activation evaluations of an anchored tangent point that may come from
#: Newton steps; the rest halve the bracket.  Away from the inflection point
#: Newton closes the bracket in 3 to 5 evaluations, while on an interval
#: narrow enough that rounding decides the sign of the gap its steps are
#: noise that can wander inside the bracket without shrinking it
TANGENT_NEWTON_EVALUATIONS = 8

#: activation evaluations after which an anchored tangent point is returned
#: as it stands (still on the valid side); the halvings after the Newton
#: steps close any bracket before it
TANGENT_EVALUATIONS = 64

#: the two sides of a bounding-line pair, in the order every layer lists them
SIDES = ("lower", "upper")

#: case tags, indexed by ``LineSpaces.case``
CASE_TAGS = ("degenerate", "l<u<=0", "l<0<u", "0<=l<u",
             "case1", "case2", "case3", "case4")
_DEGENERATE, _NEGATIVE, _CROSSING, _POSITIVE = 0, 1, 2, 3
_CASE1, _CASE2, _CASE3, _CASE4 = 4, 5, 6, 7

#: one entry of a LineSpaces record: its kind, "fixed" (a unique tightest
#: line) or "one-variable" (a family), and its case tag
Entry = namedtuple("Entry", "kind case_tag")


class TangentUndefinedError(RuntimeError):
    """No anchored tangent touches the activation inside the interval, on
    the admissible side of the inflection point."""


def _activation(act: str):
    """The activation's function and jet."""
    try:
        return ACTIVATIONS[act], ACTIVATION_JETS[act]
    except KeyError:
        raise ValueError(f"unknown activation {act!r}") from None


def _intervals(lower, upper):
    """The intervals as two float arrays; rejects inverted ones and those
    whose ends or width are not finite (an overflowing width makes every
    chord slope 0)."""
    l = np.atleast_1d(np.asarray(lower, dtype=float))
    u = np.atleast_1d(np.asarray(upper, dtype=float))
    if l.shape != u.shape:
        raise ValueError(f"{l.shape[0]} lower but {u.shape[0]} upper bounds")
    # u - l rounds to inf exactly when its half, which cannot overflow,
    # exceeds half the largest float; an infinite or NaN end fails too
    bad = ~((l <= u) & (0.5 * u - 0.5 * l <= _HALF_MAX))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"bad interval [{l[j]}, {u[j]}]")
    return l, u


def tangent_lines(act: str, d):
    """Tangents to the activation at abscissas d, as (slopes, intercepts)."""
    fd, dfd = _activation(act)[1](d, 1)
    return dfd, fd - dfd * d


def family_lines(act: str, theta, grads: bool = False):
    """Members of the one-variable families at variables ``theta``.

    ReLU families are lower lines of slope theta through the origin; the
    sigmoid/tanh families are tangents at abscissa theta.  Returns (slopes,
    intercepts), and with ``grads`` also their derivatives in theta.
    """
    theta = np.asarray(theta, dtype=float)
    if act == "relu":
        zero = np.zeros_like(theta)
        return (theta, zero, np.ones_like(theta), zero) if grads \
            else (theta, zero)
    # slope = f'(d), intercept = f(d) - f'(d) d
    if not grads:
        return tangent_lines(act, theta)
    f, df, d2f = _activation(act)[1](theta)
    return df, f - df * theta, d2f, -d2f * theta


def _chord_lines(act, l, u, fl, fu, degenerate):
    """Secants through (l, f(l)) and (u, f(u)), or the midpoint tangent
    where ``degenerate``."""
    if not degenerate.any():
        s = (fu - fl) / (u - l)
        return s, fl - s * l
    s = (fu - fl) / np.where(degenerate, 1.0, u - l)
    ms, mt = tangent_lines(act, 0.5 * (l + u))
    return np.where(degenerate, ms, s), np.where(degenerate, mt, fl - s * l)


def tangent_points_through(act: str, l, u, left):
    """Abscissas d of the tangents through one endpoint of each interval.

    Where ``left`` is set the tangent passes through (l, f(l)) and d >= 0
    (requires l < 0); elsewhere it passes through (u, f(u)) and d <= 0
    (requires u > 0).  d solves g(d) = 0 for the gap

        g(d) = f'(d)(e - d) + f(d) - f(e),    e the anchored endpoint,

    the tangent-at-d value at e minus f(e), which is increasing in d on
    each side of the inflection point (g'(d) = f''(d)(e - d) > 0).  The
    tangent is defined on [l, u] exactly when the other endpoint already
    lies on the valid side (g >= 0 for a left anchor, g <= 0 for a right
    one): that is the case1/case3 test, computed with the same bits.  Raises
    TangentUndefinedError when an anchored endpoint does not sit strictly on
    the other side of the inflection point, or when the other endpoint is
    not on the valid side.

    The returned d passes that valid-side test and lies within
    ``TANGENT_TOL`` * |far end| of a point that fails it, so it sits on the
    valid side of the root and inside [l, u] even where rounding decides
    the sign of g; see ``_anchored_tangent_points``.
    """
    f, jet = _activation(act)
    l = np.atleast_1d(np.asarray(l, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    left = np.atleast_1d(np.asarray(left, dtype=bool))
    e = np.where(left, l, u)
    wrong_side = np.where(left, ~(e < 0.0), ~(e > 0.0))
    if wrong_side.any():
        j = int(np.argmax(wrong_side))
        where = ("left", "below") if left[j] else ("right", "above")
        raise TangentUndefinedError(
            f"{where[0]} anchor {e[j]} not {where[1]} the inflection point")
    fe = f(e)
    far = np.where(left, u, l)
    f_far, df_far = jet(far, 1)
    t_far = df_far * (e - far) + f_far
    ready = np.where(left, (far > 0.0) & (t_far >= fe),
                     (far < 0.0) & (t_far <= fe))
    if not ready.all():
        j = int(np.argmin(ready))
        raise TangentUndefinedError(
            f"the tangent through the {'left' if left[j] else 'right'} end "
            f"of [{l[j]}, {u[j]}] touches outside it")
    return _anchored_tangent_points(act, e, fe, far, left)


def _tangent_start(act, e):
    """An estimate of the anchored tangent point of anchors e, to about
    7e-4 relative.

    For tanh and |e| = x the point is asinh(y) / 2 with y / x - 1 rising
    from x**2 / 15 near 0 to about 0.14 at x = 3 and falling off like
    log(x) / x; the rational y below fits it to that accuracy on
    x <= 1e3 (the fit holds on beyond).  sigmoid(x) = (1 + tanh(x / 2)) / 2,
    so sigmoid's point is twice tanh's at e / 2.
    """
    scale = 2.0 if act == "sigmoid" else 1.0
    x = np.abs(e) / scale
    y = x + x * x * x / (15.0 + x * (-0.33 + x * (4.31 + 0.51 * x)))
    return np.copysign((0.5 * scale) * np.arcsinh(y), -e)


def _anchored_tangent_points(act, e, fe, far, left):
    """The valid-side tangent points of ``tangent_points_through`` for
    anchors e (with fe = f(e)) whose far ends already passed its tests.

    Safeguarded Newton steps on the gap g, each from one order-2 jet call
    (g' = f''(d)(e - d)).  The bracket [lo, hi] starts between the
    inflection point 0 on the invalid side and the far end on the valid
    one; every evaluation moves one of its ends, and a Newton point outside
    it is replaced by its midpoint.  Unguarded, Newton runs to the trivial
    root d = e, and it overshoots in tanh's concave region.  The first
    point is ``_tangent_start``.  Each Newton point is pushed a quarter of
    the tolerance on past the root, so that once Newton has converged the
    next evaluation lands on the root's other side and closes the bracket.
    After ``TANGENT_NEWTON_EVALUATIONS`` the bracket is halved instead.  An
    element stops once its bracket is at most ``TANGENT_TOL`` * |far| wide,
    or after ``TANGENT_EVALUATIONS``; it takes the same steps alone or in a
    batch.  The valid end is returned.
    """
    jet = _activation(act)[1]
    tol = TANGENT_TOL * np.abs(far)
    push = 0.25 * tol
    lo = np.where(left, 0.0, far)
    hi = np.where(left, far, 0.0)
    # g(d) < 0 puts d at the low end, and g(d) = 0 too for a right anchor
    # (t <= fe iff t < the next float above fe), as the case test does
    fe_low = np.where(left, fe, np.nextafter(fe, np.inf))
    active = np.ones(len(e), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = _tangent_start(act, e)
        d = np.where((d > lo) & (d < hi), d, 0.5 * (lo + hi))
        for k in range(TANGENT_EVALUATIONS):
            fd, dfd, d2fd = jet(d)
            ed = e - d
            t = dfd * ed + fd
            low = t < fe_low
            np.copyto(lo, d, where=low & active)
            np.copyto(hi, d, where=active > low)
            active = hi - lo > tol
            if not active.any():
                break
            if k + 1 >= TANGENT_NEWTON_EVALUATIONS:
                d = 0.5 * (lo + hi)
                continue
            d = d - (t - fe) / (d2fd * ed) + np.where(low, push, -push)
            inside = (d > lo) & (d < hi)
            if not inside.all():
                d = np.where(inside, d, 0.5 * (lo + hi))
    return np.where(left, hi, lo)


@dataclass(eq=False)
class LineSpaces:
    """The tightest-line families of one side of a layer, one entry per
    neuron.

    ``family`` marks the one-variable entries, whose members the
    activation's generator ("relu-slope": a free lower slope through the
    origin; "tangent": the tangency abscissa) makes from a variable in
    [var_lo, var_hi]; the other entries are fixed to the line
    (slope, intercept).  NaN fills the fields an entry does not use.
    ``case`` indexes CASE_TAGS.  Iterating yields one Entry per neuron.
    """

    act: str
    side: str            # "lower" | "upper"
    l: np.ndarray
    u: np.ndarray
    case: np.ndarray
    family: np.ndarray
    var_lo: np.ndarray
    var_hi: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray

    @property
    def generator(self) -> str:
        return "relu-slope" if self.act == "relu" else "tangent"

    def __len__(self):
        return len(self.l)

    def __iter__(self):
        return (Entry("one-variable" if fam else "fixed", CASE_TAGS[c])
                for fam, c in zip(self.family, self.case))

    def members(self, theta):
        """Every entry's line, a family member at variable ``theta`` (inside
        its range) or the fixed line (where theta is ignored), as (slopes,
        intercepts)."""
        out = family_lines(self.act, theta)
        fixed = (self.slope, self.intercept)
        return tuple(np.where(self.family, gen, fix)
                     for gen, fix in zip(out, fixed))


def layer_line_spaces(act: str, lower, upper):
    """(lower-side, upper-side) LineSpaces of one layer's intervals; the
    anchored tangents of both sides are solved in one batch."""
    l, u = _intervals(lower, upper)
    jet = _activation(act)[1]
    fl, dfl = jet(l, 1)
    fu, dfu = jet(u, 1)
    degenerate = u - l <= DEGENERATE_WIDTH
    negative = ~degenerate & (u <= 0.0)
    positive = ~degenerate & (l >= 0.0)
    crossing = ~(degenerate | negative | positive)
    case = np.where(degenerate, _DEGENERATE, np.where(
        negative, _NEGATIVE, np.where(positive, _POSITIVE, _CROSSING)))
    chord_s, chord_t = _chord_lines(act, l, u, fl, fu, degenerate)
    nan = np.full(len(l), np.nan)

    if act == "relu":
        # upper: the chord; lower: 0 left of the kink, the identity right of
        # it, and a free slope in [0, 1] across it
        low_s = np.where(degenerate, chord_s, np.where(positive, 1.0, 0.0))
        low_t = np.where(degenerate, chord_t, 0.0)
        fields = {"lower": (case, crossing, np.zeros(len(l)), np.ones(len(l)),
                            low_s, low_t),
                  "upper": (case, np.zeros(len(l), dtype=bool), nan, nan,
                            chord_s, chord_t)}
    else:
        # case 1 iff the tangent at u clears (l, f(l)); case 3 iff the
        # tangent at l stays below (u, f(u))
        case1 = crossing & (dfu * (l - u) + fu >= fl)
        case3 = crossing & (dfl * (u - l) + fl <= fu)
        at1, at3 = np.flatnonzero(case1), np.flatnonzero(case3)
        ld, ud = nan.copy(), nan.copy()
        if len(at1) or len(at3):
            # the case tests are tangent_points_through's tests of the far
            # ends, with the same bits: l anchors case1, u anchors case3
            e = np.concatenate([l[at1], u[at3]])
            d = _anchored_tangent_points(
                act, e, np.concatenate([fl[at1], fu[at3]]),
                np.concatenate([u[at1], l[at3]]),
                np.arange(len(e)) < len(at1))
            ld[at1], ud[at3] = d[:len(at1)], d[len(at1):]
        # upper: the chord in the convex region, tangents in the concave
        # one; lower: the mirror
        fields = {"lower": (np.where(case3, _CASE3,
                                     np.where(crossing, _CASE4, case)),
                            negative | case3, l, np.where(negative, u, ud),
                            chord_s, chord_t),
                  "upper": (np.where(case1, _CASE1,
                                     np.where(crossing, _CASE2, case)),
                            positive | case1, np.where(positive, l, ld), u,
                            chord_s, chord_t)}
    records = []
    for side in SIDES:
        tags, family, lo, hi, s, t = fields[side]
        records.append(LineSpaces(
            act, side, l, u, tags, family, np.where(family, lo, np.nan),
            np.where(family, hi, np.nan), np.where(family, np.nan, s),
            np.where(family, np.nan, t)))
    return tuple(records)


def line_space(act: str, side: str, l: float, u: float) -> LineSpaces:
    """The tightest-line family for (activation, side, sign case) on [l, u],
    as a one-entry record."""
    if side not in SIDES:
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    return layer_line_spaces(act, l, u)[SIDES.index(side)]


def _grid(l, u, grid_size):
    """``np.linspace(l, u, grid_size)`` for every (l, u) pair along a new
    last axis, with the bits of one call per pair."""
    div = grid_size - 1
    delta = (u - l)[..., None]
    k = np.arange(grid_size, dtype=float)
    step = delta / div
    zs = np.where(step == 0.0, (k / div) * delta, k * step) + l[..., None]
    zs[..., -1] = u
    return zs


def validate_line(act: str, side: str, l, u, slope, intercept,
                  grid_size: int = 1001):
    """Check the side inequality of the line (slope, intercept) on a dense
    grid of [l, u] including both endpoints, up to ``LINE_SLACK`` times
    1 + max |f| over the grid.

    The four values may also be arrays of one shape: each line is then
    checked on its own interval, and the result is a bool array.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    f = _activation(act)[0]
    zs = _grid(np.asarray(l, dtype=float), np.asarray(u, dtype=float),
               grid_size)
    slope = np.asarray(slope, dtype=float)[..., None]
    intercept = np.asarray(intercept, dtype=float)[..., None]
    fz = f(zs)
    gap = fz - (slope * zs + intercept)
    if side == "upper":
        gap = -gap
    # every activation is monotone: max |f| over the grid is at an end
    slack = LINE_SLACK * (1.0 + np.maximum(np.abs(fz[..., 0]),
                                           np.abs(fz[..., -1])))
    ok = np.min(gap, axis=-1) >= -slack
    return bool(ok) if ok.ndim == 0 else ok
