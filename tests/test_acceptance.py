"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite is seeded throughout and uses the stated tolerances.
"""

import math

import numpy as np
import pytest

from netcert import certify, crown, frown, lp, oracle, relax
from netcert.model import (
    PerturbationSpec,
    forward,
    generate_random_network,
)

from conftest import (backward_by_sense, boundary_sample,
                      concretize_by_sense, crown_lines, positive_bias_relu_net,
                      shared_lines_lp, toy_relu_net)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_lp_matches_closed_form_bounds():
    """Single-line LP with imported lines equals the closed-form bound."""
    worst = 0.0
    checked = 0
    rng = np.random.default_rng(1234)
    for seed in range(20):
        act = "relu" if seed % 2 == 0 else "sigmoid"
        depth = 2 + seed % 3
        widths = [3 + seed % 5] + [4 + (seed * 3) % 5] * (depth - 1) + [3]
        net = generate_random_network(seed, widths, act, scale=1.0)
        x0 = rng.uniform(-0.5, 0.5, widths[0])
        spec = PerturbationSpec(x0, math.inf, 0.15 + 0.05 * (seed % 3))
        cb = crown.propagate(net, spec)
        lb = shared_lines_lp(net, spec)
        for k in range(2, net.m + 1):
            for c_arr, l_arr in ((cb.lower[k - 1], lb.lower[k - 1]),
                                 (cb.upper[k - 1], lb.upper[k - 1])):
                rel = np.abs(c_arr - l_arr) / np.maximum(1.0, np.abs(c_arr))
                worst = max(worst, float(rel.max()))
                checked += len(c_arr)
    report(1, "LP optimum equals closed-form bound at every layer/neuron",
           worst <= 1e-5, f"{checked} bounds, worst rel diff {worst:.2e}")


def test_criterion_2_soundness_under_heavy_sampling():
    """No method's bounds are falsified by 1e5 ball samples."""
    violations = 0
    nets = 0
    for act in ("relu", "sigmoid", "tanh"):
        for seed in range(10):
            net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
            x0 = np.random.default_rng(1000 + seed).uniform(-0.3, 0.3, 4)
            spec = PerturbationSpec(x0, math.inf, 0.3)
            cb = crown.propagate(net, spec)
            fb = frown.frown_propagate(
                net, spec, frown.OptimizerConfig(max_iters=30, group_size=6))
            lpb = lp.lp_propagate(net, spec)
            nets += 1
            for bounds in (cb, fb, lpb):
                violations += len(
                    oracle.sample_check(net, spec, bounds, 100000, seed=seed))
    report(2, "crown/frown/lp bounds survive 1e5-sample falsification",
           violations == 0, f"{nets} nets per method, {violations} violations")


def exact_certified(net, x0, label, eps):
    spec = PerturbationSpec(x0, math.inf, eps)
    n_out = net.layer_width(net.m)
    for j in range(n_out):
        if j == label:
            continue
        c = np.zeros(n_out)
        c[label] = 1.0
        c[j] = -1.0
        if oracle.exact_output_functional_range(net, spec, c).min < 0:
            return False
    return True


def exact_distortion_upper(net, x0, label, cap=4.0, rel_tol=1e-2):
    """First radius at which an exact adversarial exists (binary search);
    returns cap when none is found below it."""
    eps = 1e-3
    if not exact_certified(net, x0, label, eps):
        lo, hi = 0.0, eps
    else:
        lo = eps
        hi = None
        while hi is None:
            nxt = lo * 2
            if nxt >= cap:
                if exact_certified(net, x0, label, cap):
                    return cap
                hi = cap
            elif exact_certified(net, x0, label, nxt):
                lo = nxt
            else:
                hi = nxt
    while lo > 0 and (hi - lo) / lo > rel_tol:
        mid = 0.5 * (lo + hi)
        if exact_certified(net, x0, label, mid):
            lo = mid
        else:
            hi = mid
    return hi


def test_criterion_3_exact_oracle_dominates_certified_radii():
    """Certified radii never exceed the exact minimal adversarial distortion
    and output bounds bracket the exact range, on tiny ReLU nets."""
    ok = True
    details = []
    cfg = frown.OptimizerConfig(max_iters=30, group_size=4)
    for seed in range(10):
        net = generate_random_network(seed, [3, 4, 4, 3], "relu", scale=1.0)
        x0, label = boundary_sample(net, 300 + seed)
        limit = exact_distortion_upper(net, x0, label)
        for method in ("crown", "frown", "lp"):
            cert = certify.search_epsilon(net, x0, label, math.inf, method,
                                          cap=4.0, frown_config=cfg)
            if cert.epsilon_certified > limit + 1e-9:
                ok = False
                details.append(f"seed {seed} {method} "
                               f"{cert.epsilon_certified} > {limit}")
        spec = PerturbationSpec(x0, math.inf, 0.25)
        cb = crown.propagate(net, spec)
        fb = frown.frown_propagate(net, spec, cfg)
        lpb = lp.lp_propagate(net, spec)
        for neuron in range(3):
            er = oracle.exact_output_functional_range(net, spec,
                                                      np.eye(3)[neuron])
            for bounds in (cb, fb, lpb):
                if not (bounds.output_lower[neuron] <= er.min + 1e-7
                        and bounds.output_upper[neuron] >= er.max - 1e-7):
                    ok = False
                    details.append(f"seed {seed} neuron {neuron} bracket")
    report(3, "exact oracle dominates all certified radii and gamma bounds",
           ok, "; ".join(details) if details else "10 tiny nets")


def test_criterion_4_frown_never_worse_and_toy_optimal():
    """Per-neuron dominance over the baseline everywhere, plus exact recovery
    of the flat lower line on the toy net."""
    worst = 0.0
    for seed in range(10):
        act = ("relu", "sigmoid", "tanh")[seed % 3]
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(2000 + seed).uniform(-0.3, 0.3, 4)
        for p in (1, 2, math.inf):
            spec = PerturbationSpec(x0, p, 0.3)
            cb = crown.propagate(net, spec)
            fb = frown.frown_propagate(
                net, spec, frown.OptimizerConfig(max_iters=30, group_size=3))
            for k in range(1, net.m + 1):
                worst = max(worst, float(
                    (cb.lower[k - 1] - fb.lower[k - 1]).max()))
                worst = max(worst, float(
                    (fb.upper[k - 1] - cb.upper[k - 1]).max()))
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), math.inf, 1.0)
    cb = crown.propagate(net, spec)
    fb = frown.frown_propagate(net, spec, frown.OptimizerConfig())
    toy_ok = (abs(fb.output_lower[0]) <= 1e-3
              and cb.output_lower[0] == pytest.approx(-1.0))
    report(4, "frown dominates the baseline; toy recovers gamma_L = 0",
           worst <= 1e-12 and toy_ok,
           f"worst regression {worst:.2e}, toy gamma_L {fb.output_lower[0]:.2e}")


def test_criterion_5_intercept_shifts_never_improve():
    """Lower intercepts down / upper intercepts up never tighten any bound."""
    ok = True
    rng = np.random.default_rng(55)
    for seed in range(10):
        act = ("sigmoid", "tanh", "relu")[seed % 3]
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        spec = PerturbationSpec(np.full(4, 0.05), math.inf, 0.3)
        bounds = crown.propagate(net, spec)
        lines = crown_lines(net, bounds)
        for delta in (1e-3, 1e-1):
            for subset in (None, rng):
                arrays = []
                for sl, tl, su, tu in lines:
                    n = len(sl)
                    mask = np.ones(n) if subset is None \
                        else (rng.uniform(size=n) < 0.5).astype(float)
                    arrays.append((sl, tl - delta * mask,
                                   su, tu + delta * mask))
                for k in range(2, net.m + 1):
                    rows = range(net.layer_width(k))
                    gl = concretize_by_sense(
                        *backward_by_sense(net, k, rows, arrays, "lower"),
                        spec, "lower")
                    gu = concretize_by_sense(
                        *backward_by_sense(net, k, rows, arrays, "upper"),
                        spec, "upper")
                    if np.any(gl > bounds.lower[k - 1] + 1e-12) \
                            or np.any(gu < bounds.upper[k - 1] - 1e-12):
                        ok = False
    report(5, "shifted intercepts never improve any bound", ok,
           "10 nets, deltas 1e-3 and 1e-1, full and random subsets")


def test_criterion_6_gradients_match_finite_differences():
    """Analytic gradients vs central differences (h = 1e-5)."""
    h = 1e-5
    worst = 0.0
    points = 0
    for act in ("relu", "sigmoid", "tanh"):
        for idx in range(5):
            p = (math.inf, 2.0)[idx % 2]
            net = generate_random_network(100 + idx, [4, 6, 5, 3], act,
                                          scale=1.0)
            spec = PerturbationSpec(np.full(4, 0.05), p, 0.35)
            bounds = crown.propagate(net, spec)
            spaces = [relax.layer_line_spaces(act, bounds.lower[v - 1],
                                              bounds.upper[v - 1])
                      for v in (1, 2)]
            vv = frown.collect_variables(spaces)
            rng = np.random.default_rng(500 + idx)
            for _ in range(20):
                vals = rng.uniform(vv.lo + 0.1 * (vv.hi - vv.lo),
                                   vv.hi - 0.1 * (vv.hi - vv.lo))
                sense = ("lower", "upper")[points % 2]
                rows = frown.RowGroups.of([[0]], [sense])
                _, grad = frown.objective_and_gradient(
                    net, spec, 3, rows, vv, vals[None].copy())
                points += 1
                for e in range(len(vv)):
                    vp, vm = vals.copy(), vals.copy()
                    vp[e] += h
                    vm[e] -= h
                    gp = frown.objective_and_gradient(
                        net, spec, 3, rows, vv, vp[None])[0][0]
                    gm = frown.objective_and_gradient(
                        net, spec, 3, rows, vv, vm[None])[0][0]
                    fd = (gp - gm) / (2 * h)
                    worst = max(worst,
                                abs(grad[0, e] - fd) / max(abs(fd), 1e-8))
    report(6, "analytic gradients match central differences",
           worst <= 1e-4, f"{points} points, worst rel err {worst:.2e}")


def test_criterion_7_deeper_nets_gain_more():
    """Mean certified-radius improvement grows with depth (sigmoid)."""
    means = {}
    cfg = frown.OptimizerConfig(max_iters=50, group_size=10)
    for depth in (4, 8):
        widths = [10] * (depth + 1)
        imps = []
        for seed in range(10):
            net = generate_random_network(seed, widths, "sigmoid", scale=2.5)
            x0, label = boundary_sample(net, 500 + seed)
            cc = certify.search_epsilon(net, x0, label, math.inf, "crown",
                                        cap=2.0)
            if cc.epsilon_certified == 0:
                imps.append(0.0)
                continue
            cf = certify.search_epsilon(net, x0, label, math.inf, "frown",
                                        cap=2.0, frown_config=cfg)
            imps.append(100.0 * (cf.epsilon_certified - cc.epsilon_certified)
                        / cc.epsilon_certified)
        means[depth] = float(np.mean(imps))
    report(7, "frown improvement is larger for 8-layer than 4-layer nets",
           means[8] > means[4],
           f"mean improvement 4-layer {means[4]:.2f}%, 8-layer {means[8]:.2f}%")


def test_criterion_8_two_line_relu_lp_tightens():
    """Two lower lines per ReLU never loosen the LP and strictly help
    somewhere."""
    ok = True
    strict = 0
    for seed in range(6):
        net = generate_random_network(seed, [4, 5, 4, 3], "relu", scale=1.0)
        x0 = np.random.default_rng(3000 + seed).uniform(-0.3, 0.3, 4)
        spec = PerturbationSpec(x0, math.inf, 0.3)
        single = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("single"))
        multi = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("multi"))
        for k in range(2, net.m + 1):
            if np.any(multi.lower[k - 1] < single.lower[k - 1] - 1e-9):
                ok = False
            strict += int(np.any(multi.lower[k - 1]
                                 > single.lower[k - 1] + 1e-7))
    report(8, "2-line relu LP never looser, strictly tighter somewhere",
           ok and strict > 0, f"strict improvements in {strict} layers")


def test_criterion_9_linear_regime_exactness():
    """Always-active ReLU nets: the gap equals the exact affine range and the
    dual-norm maximizer attains the bound."""
    ok = True
    details = []
    for seed in range(3):
        net = positive_bias_relu_net(seed, [4, 5, 5, 3], eps=0.3)
        x0 = np.zeros(4)
        for p in (1, 2, math.inf):
            spec = PerturbationSpec(x0, p, 0.3)
            bounds = crown.propagate(net, spec)
            if not all(np.all(bounds.lower[k] >= 0)
                       for k in range(net.m - 1)):
                ok = False
                details.append(f"seed {seed}: not always-active")
                continue
            w_eff = net.weights[0]
            for w in net.weights[1:]:
                w_eff = w @ w_eff
            gap = bounds.output_upper - bounds.output_lower
            expected = 2 * spec.epsilon * crown.dual_norm(w_eff, spec.q)
            if not np.allclose(gap, expected, atol=1e-9):
                ok = False
                details.append(f"seed {seed} p={p}: gap off by "
                               f"{np.abs(gap - expected).max():.2e}")
            for i in range(3):
                row = w_eff[i]
                if spec.q == 1.0:
                    push = spec.epsilon * np.sign(row)
                elif spec.q == 2.0:
                    push = spec.epsilon * row / np.linalg.norm(row)
                else:
                    push = np.zeros_like(row)
                    j = int(np.abs(row).argmax())
                    push[j] = spec.epsilon * np.sign(row[j])
                hi_gap = forward(net, x0 + push)[i] - bounds.output_upper[i]
                lo_gap = forward(net, x0 - push)[i] - bounds.output_lower[i]
                if abs(hi_gap) > 1e-6 or abs(lo_gap) > 1e-6:
                    ok = False
                    details.append(f"seed {seed} p={p} out {i}: extremizer "
                                   f"misses by {hi_gap:.2e}/{lo_gap:.2e}")
    report(9, "always-active nets: gap = 2 eps ||W||_q, maximizer attains it",
           ok, "; ".join(details) if details else "3 nets x 3 norms")
