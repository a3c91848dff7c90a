"""Robustness certificates: margin checks at fixed radius and binary search.

A prediction is certified at radius eps when the lower bound of the labeled
logit stays above the upper bounds of the competing logits over the whole
ball.  The largest certifiable radius is found by exponential bracketing
followed by bisection; every probe re-derives all bounds from scratch at the
probed radius (the admissible line families depend on the intervals, which
depend on eps, so reusing state across probes would not be sound).

A frown probe first asks crown (the crown screen).  frown folds crown's
bounds into every layer, so a margin crown certifies frown certifies too,
and such a probe is answered without running the optimizer: the probes and
the radius are the ones frown alone would give.  A probe answered by crown
keeps no margins, so the certificate's margins are frown's, computed at the
final radius if its probe was screened.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import crown, frown, lp
from .model import ModelError, Network, PerturbationSpec, forward

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


def output_bounds(net: Network, spec: PerturbationSpec, method: str,
                  frown_config: frown.OptimizerConfig | None = None,
                  lp_menu: lp.RelaxationMenu | None = None
                  ) -> crown.LayerBounds:
    """Every layer's bounds under the chosen method."""
    if method == "crown":
        return crown.propagate(net, spec)
    if method == "frown":
        return frown.frown_propagate(net, spec, frown_config)
    if method == "lp":
        return lp.lp_propagate(net, spec, menu=lp_menu)
    raise ValueError(f"unknown method {method!r}")


def certified_at(net: Network, x0, label: int, epsilon: float, p,
                 method: str = "crown", target: int | None = None,
                 frown_config=None, lp_menu=None):
    """(is certified, margin trace) at a fixed radius.

    Untargeted when ``target`` is None: every margin must be nonnegative.
    Targeted: only the margin against ``target`` matters.
    """
    x0 = np.asarray(x0, dtype=float)
    logits = forward(net, x0)
    if int(np.argmax(logits)) != label:
        warnings.warn(
            f"label {label} is not the network's prediction "
            f"{int(np.argmax(logits))}; the certificate is vacuous")
    spec = PerturbationSpec(x0, p, epsilon)
    bounds = output_bounds(net, spec, method, frown_config, lp_menu)
    marg = crown.margins(bounds.output_lower, bounds.output_upper, label)
    if target is None:
        ok = bool(marg.size == 0 or marg.min() >= 0.0)
    else:
        n_out = len(bounds.output_lower)
        if not 0 <= target < n_out or target == label:
            raise ValueError(f"bad target class {target}")
        pos = target if target < label else target - 1
        ok = bool(marg[pos] >= 0.0)
    return ok, marg


def search_epsilon(net: Network, x0, label: int, p, method: str = "crown",
                   target: int | None = None, rel_tol: float = 1e-3,
                   cap: float = 10.0, frown_config=None,
                   lp_menu=None) -> Certificate:
    """Largest certifiable radius by exponential bracketing plus bisection."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if not (cap > 0 and math.isfinite(cap)):
        raise ModelError(f"cap must be positive and finite, got {cap}")
    t_start = time.perf_counter()
    state = {"count": 0, "margins": {}}

    def probe(eps: float) -> bool:
        state["count"] += 1
        if method == "frown" and certified_at(net, x0, label, eps, p,
                                              "crown", target)[0]:
            return True
        ok, marg = certified_at(net, x0, label, eps, p, method, target,
                                frown_config, lp_menu)
        state["margins"][eps] = marg
        return ok

    def done(eps_cert, cap_hit=False, never=False):
        marg = state["margins"].get(eps_cert)
        if marg is None:
            _, marg = certified_at(net, x0, label, eps_cert, p, method,
                                   target, frown_config, lp_menu)
        return Certificate(
            epsilon_certified=float(eps_cert),
            mode="untargeted" if target is None else "targeted",
            method=method, p=PerturbationSpec(np.asarray(x0, float), p, 0.0).p,
            label=label, target=target, margins=marg,
            wall_time=time.perf_counter() - t_start,
            iterations=state["count"], cap_hit=cap_hit,
            never_certified=never, rel_tol=rel_tol)

    start = min(BRACKET_START, cap)
    if probe(start):
        if start == cap:
            return done(cap, cap_hit=True)
        lo = start
        hi = None
        while hi is None:
            nxt = lo * 2.0
            if nxt >= cap:
                if probe(cap):
                    return done(cap, cap_hit=True)
                hi = cap
            elif probe(nxt):
                lo = nxt
            else:
                hi = nxt
    else:
        lo = None
        hi = start
        for i in range(1, BRACKET_HALVINGS + 1):
            eps = start * 2.0 ** (-i)
            if probe(eps):
                lo = eps
                hi = eps * 2.0
                break
            hi = eps
        if lo is None:
            return done(0.0, never=True)

    while (hi - lo) / lo > rel_tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return done(lo)
