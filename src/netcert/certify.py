"""Robustness certificates: margin checks at fixed radius and radius search.

A prediction is certified at radius eps when the lower bound of the labeled
logit stays above the upper bounds of the competing logits over the whole
ball.  Every probe re-derives its bounds at the probed radius: the
admissible line families depend on the intervals, which depend on eps.  A
search hands two things from one ``certified_at`` call to the next
(``_Carry``): each LP objective's optimal basis, a starting point of the
simplex that it checks for feasibility before use, so the bounds are the LP
optima at every radius whatever the earlier probes left; and the bounds of
the last crown call with its ball.  A probe's margins read n of the 2n
output bounds, the label's lower bound and every other class's upper bound,
and a targeted decision only two of them: lp solves those n (its LPs are
one per bound), frown optimizes only the output groups holding a bound the
decision reads, and crown bounds every entry in one pass.  The largest
certifiable radius is the end of one walk, exponential bracketing and then
bisection, whose unprobed points crown and lp searches predict from a
model of the score: the logit gap, its first-order slope at eps = 0 (one
Jacobian of the logits per search) and the scores already probed.

A frown search from a nonnegative logit gap probes every point of the
walk, each first asking crown (the crown screen).  frown folds crown's
bounds into every layer, so a margin crown certifies frown certifies too,
and such a probe is answered without running the optimizer.  Otherwise
frown runs at the same radius and takes the screen's bounds as its fold
baseline instead of running crown again, and its output layer stops as
soon as the margins certify.  A screened probe keeps no margins, so the
certificate's margins are frown's, computed at the final radius if its
probe was screened; they are those of the first optimizer iterate whose
bounds certify, not of a full run.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import crown, frown, lp
from .model import ModelError, Network, PerturbationSpec, forward, jacobian

#: starting probe of the exponential bracket
BRACKET_START = 1e-3
#: number of downward halvings before giving up entirely
BRACKET_HALVINGS = 20


@dataclass
class Certificate:
    epsilon_certified: float
    mode: str                    # "untargeted" | "targeted"
    method: str                  # "crown" | "frown" | "lp"
    p: float
    label: int
    target: int | None
    margins: np.ndarray          # margin trace at the certified radius
    wall_time: float
    iterations: int              # radii probed
    cap_hit: bool = False
    never_certified: bool = False
    rel_tol: float = 1e-3

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["p"] = "inf" if self.p == math.inf else self.p
        doc["margins"] = np.asarray(self.margins).tolist()
        return doc


@dataclass
class _Carry:
    """What a search hands from one ``certified_at`` call to the next: lp's
    starting bases (``lp.lp_propagate``'s ``bases``), and the network, ball
    and bounds of the last crown call, which a frown call on the same
    network and ball takes as its fold baseline."""

    lp_bases: dict = dataclasses.field(default_factory=dict)
    last_crown: tuple = (None, None, None)   # (net, spec, bounds)

    def crown_bounds(self, net: Network, spec: PerturbationSpec):
        """The last crown call's bounds if it bounded ``net`` on ``spec``'s
        ball, else None."""
        last_net, last, bounds = self.last_crown
        if (last_net is net and last.p == spec.p
                and last.epsilon == spec.epsilon
                and np.array_equal(last.x0, spec.x0)):
            return bounds
        return None


def output_bounds(net: Network, spec: PerturbationSpec, method: str,
                  frown_config: frown.OptimizerConfig | None = None,
                  lp_menu: lp.RelaxationMenu | None = None,
                  label: int | None = None, target: int | None = None,
                  carry: _Carry | None = None) -> crown.LayerBounds:
    """Every layer's bounds under the chosen method.  Given a ``label``, lp
    bounds only the output entries ``crown.margins`` reads and sets the
    others to -inf (lower) and +inf (upper); frown optimizes only the
    output groups holding an entry the decision (``crown.score`` with
    ``target``) reads, stops once it certifies, and leaves the others at
    crown's bounds; crown bounds every entry.  ``carry`` is a search's
    ``_Carry``: crown records its bounds there, frown reuses them, lp
    starts from its bases."""
    if method == "crown":
        bounds = crown.propagate(net, spec)
        if carry is not None:
            carry.last_crown = (net, spec, bounds)
        return bounds
    if method == "frown":
        baseline = None if carry is None else carry.crown_bounds(net, spec)
        return frown.frown_propagate(net, spec, frown_config,
                                     crown_bounds=baseline, label=label,
                                     target=target)
    if method == "lp":
        bases = None if carry is None else carry.lp_bases
        return lp.lp_propagate(net, spec, menu=lp_menu, label=label,
                               bases=bases)
    raise ValueError(f"unknown method {method!r}")


def certified_at(net: Network, x0, label: int, epsilon: float, p,
                 method: str = "crown", target: int | None = None,
                 frown_config=None, lp_menu=None, carry=None):
    """(is certified, margin trace) at a fixed radius.

    Untargeted when ``target`` is None: every margin must be nonnegative.
    Targeted: only the margin against ``target`` matters.  ``carry`` is
    passed to ``output_bounds``.
    """
    x0 = np.asarray(x0, dtype=float)
    logits = forward(net, x0)
    if int(np.argmax(logits)) != label:
        warnings.warn(
            f"label {label} is not the network's prediction "
            f"{int(np.argmax(logits))}; the certificate is vacuous")
    spec = PerturbationSpec(x0, p, epsilon)
    bounds = output_bounds(net, spec, method, frown_config, lp_menu, label,
                           target, carry)
    marg = crown.margins(bounds.output_lower, bounds.output_upper, label)
    return crown.score(marg, label, target) >= 0.0, marg


def _walk(answer, cap: float, rel_tol: float):
    """Double from ``BRACKET_START`` to a failing ``answer(eps)`` (or halve to
    a passing one), then bisect until ``(hi - lo) / lo <= rel_tol``: (radius,
    the points the ending rests on, cap hit, never certified)."""
    start = min(BRACKET_START, cap)
    if answer(start):
        lo = hi = start
        while lo == hi and lo < cap:
            hi = min(2.0 * lo, cap)
            lo = hi if answer(hi) else lo
        if lo == cap:
            return cap, (cap,), True, False
    else:
        hi = start
        for i in range(1, BRACKET_HALVINGS + 1):
            lo = start * 2.0 ** -i
            if answer(lo):
                break
            hi = lo
        else:
            return 0.0, (hi,), False, True
    while (hi - lo) / lo > rel_tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if answer(mid) else (lo, mid)
    return lo, (lo, hi), False, False


def _first_order(net: Network, x0, label: int, p):
    """Each margin's value and slope at eps = 0, where crown's and lp's
    bounds are first-order exact (Zhang et al., arXiv:1811.00866): the logit
    gap and -(||J_label||_q + ||J_j||_q), J the logits' Jacobian at x0."""
    x0 = np.asarray(x0, dtype=float)
    logits = forward(net, x0)
    norms = crown.dual_norm(jacobian(net, x0), PerturbationSpec(x0, p, 0).q)
    return (crown.margins(logits, logits, label),
            crown.margins(-norms, norms, label))


class _Guess:
    """Answers the walk by the score of a known radius (eps = 0: the logit
    gap), else by ``eps <= root``: the root in (c, u) of the score's model
    m(e) = gap + s0 e + e^2 (a + b e) that Newton steps from c reach, c and
    u the tightest certified and uncertified radii (u infinite until a
    radius fails).  s0 is the slope of the line from (0, gap) to the
    first-order root of ``_first_order``'s margins (the smallest, or the
    target's); a and b put m through the two probed radii whose scores are
    nearest 0.  ``root`` is the midpoint of (c, u) instead (infinite while u
    is) where s0 >= 0, where the steps leave (c, u), and after two model
    roots in a row whose probes did not halve the step between probes
    (Brent's guard).  ``low`` marks a model root."""

    def __init__(self, gaps, slopes, label: int, target: int | None):
        gap = crown.score(gaps, label, target)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = float(-gap / np.float64(
                crown.score(gaps / -slopes, label, target)))
        self.known, self.slow, self.low, self.step = {}, 0, False, math.inf
        self.add(0.0, gap)

    def answer(self, eps: float) -> bool:
        score = self.known.get(eps)
        return eps <= self.root if score is None else score >= 0.0

    def add(self, eps: float, score: float) -> None:
        known = self.known
        step = abs(eps - next(reversed(known), -math.inf))  # from the last
        known[eps] = score      # certified iff >= 0
        u = min((e for e, s in known.items() if s < 0.0), default=math.inf)
        c = max((e for e, s in known.items() if s >= 0.0 and e < u),
                default=0.0)
        self.slow = self.slow + 1 if self.low and step > self.step / 2 else 0
        self.step = step
        root = self._root(c, u) if self.slow < 2 and self.slope < 0 else None
        self.low = root is not None
        self.root = root if self.low else 0.5 * (c + u)

    def _root(self, c: float, u: float) -> float | None:
        """m's root by Newton steps from c, None outside (c, u)."""
        known, s0 = self.known, self.slope
        gap = known[0.0]
        fit = sorted((e for e in known if e > 0.0),
                     key=lambda e: abs(known[e]))[:2]
        r = [(known[e] - gap - s0 * e) / (e * e) for e in fit]
        b = (r[1] - r[0]) / (fit[1] - fit[0]) if len(fit) == 2 else 0.0
        a = r[0] - b * fit[0] if fit else 0.0
        x = c
        for _ in range(64):
            m = gap + x * (s0 + x * (a + b * x))
            d = s0 + x * (2.0 * a + 3.0 * b * x)
            step = m / -d if d < 0.0 else math.nan
            x += step
            if not abs(step) > 1e-10 * x:
                break
        return x if c < x < u else None


def search_epsilon(net: Network, x0, label: int, p, method: str = "crown",
                   target: int | None = None, rel_tol: float = 1e-3,
                   cap: float = 10.0, frown_config=None,
                   lp_menu=None) -> Certificate:
    """Largest certifiable radius: the end of ``_walk``.  A frown search
    from a nonnegative logit gap probes every point of the walk; the others
    walk on ``_Guess``'s answers, probe an unprobed point the ending rests
    on (the upper one after a model root) and walk again until none is
    left.  The radius is a probed certified point, a probed uncertified one
    (or the cap) within ``rel_tol`` above it, and the radius of probing
    every point if certification is monotone.  The probes of one search
    share a ``_Carry``: an lp search starts each probe's LPs from the
    previous probe's optimal bases, and a frown probe reuses its crown
    screen's bounds.  A search that certifies nothing reports the logit
    gaps as its margins at radius 0, where every engine's bounds are the
    logits.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if not (cap > 0 and math.isfinite(cap)):
        raise ModelError(f"cap must be positive and finite, got {cap}")
    t_start = time.perf_counter()
    probed = {}  # eps -> margins, None where the crown screen answered
    carry = _Carry()

    def probe(eps: float) -> bool:
        if method == "frown" and certified_at(net, x0, label, eps, p,
                                              "crown", target,
                                              carry=carry)[0]:
            probed[eps] = None
            return True
        ok, probed[eps] = certified_at(net, x0, label, eps, p, method,
                                       target, frown_config, lp_menu, carry)
        return ok

    gaps, slopes = _first_order(net, x0, label, p)
    guess = _Guess(gaps, slopes, label, target)
    # every engine's bounds hold the logits: no radius beats a negative gap
    answer = (probe if method == "frown" and guess.known[0.0] >= 0.0
              else guess.answer)
    while True:
        radius, needed, cap_hit, never = _walk(answer, cap, rel_tol)
        todo = [eps for eps in needed if eps not in probed]
        if not todo:
            break
        eps = todo[-1] if guess.low else todo[0]
        probe(eps)
        guess.add(eps, crown.score(probed[eps], label, target))
    marg = gaps if never else probed.get(radius)
    if marg is None:
        _, marg = certified_at(net, x0, label, radius, p, method, target,
                               frown_config, lp_menu, carry)
    return Certificate(
        epsilon_certified=float(radius),
        mode="untargeted" if target is None else "targeted",
        method=method, p=PerturbationSpec(np.asarray(x0, float), p, 0.0).p,
        label=label, target=target, margins=marg,
        wall_time=time.perf_counter() - t_start,
        iterations=len(probed), cap_hit=cap_hit, never_certified=never,
        rel_tol=rel_tol)
