import math

import numpy as np
import pytest

from netcert import crown, lp, oracle, relax, simplex
from netcert.model import ModelError, PerturbationSpec, generate_random_network

from conftest import toy_relu_net


# --- simplex core -------------------------------------------------------------

def test_simplex_min_on_unit_interval():
    # min x s.t. 0 <= x <= 1
    value, point = simplex.solve_inequality_form(
        np.array([1.0]), None, None,
        np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert point[0] == pytest.approx(0.0, abs=1e-12)


def test_simplex_box_corner_matches_hand_value():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = rng.integers(2, 6)
        c = rng.normal(size=d)
        # box [0,1]^d plus a redundant sum constraint
        A = np.vstack([np.eye(d), -np.eye(d), np.ones((1, d))])
        b = np.concatenate([np.ones(d), np.zeros(d), [float(d)]])
        value, point = simplex.solve_inequality_form(c, None, None, A, b)
        assert value == pytest.approx(np.minimum(c, 0.0).sum(), abs=1e-9)
        value, _ = simplex.solve_inequality_form(c, None, None, A, b, sense="max")
        assert value == pytest.approx(np.maximum(c, 0.0).sum(), abs=1e-9)


def test_simplex_with_equalities():
    # min x + y s.t. x + y + z = 1, 0 <= all <= 1  -> 0 at z = 1
    c = np.array([1.0, 1.0, 0.0])
    A_eq = np.array([[1.0, 1.0, 1.0]])
    b_eq = np.array([1.0])
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.concatenate([np.ones(3), np.zeros(3)])
    value, point = simplex.solve_inequality_form(c, A_eq, b_eq, A, b)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert point[2] == pytest.approx(1.0, abs=1e-9)


def test_simplex_detects_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])  # x <= 0 and x >= 1
    with pytest.raises(simplex.InfeasibleError):
        simplex.solve_inequality_form(np.array([1.0]), None, None, A, b)


def test_simplex_detects_unbounded():
    A = np.array([[-1.0]])
    b = np.array([0.0])  # x >= 0, minimize -x
    with pytest.raises(simplex.UnboundedError):
        simplex.solve_inequality_form(np.array([-1.0]), None, None, A, b)


# --- build_lp -------------------------------------------------------------------

def test_build_lp_counts_for_two_layer_single_menu():
    net = generate_random_network(0, [3, 5, 2], "relu", scale=1.0)
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.2)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    prob = lp.build_lp(net, spec, 2, 0, "lower", bounds,
                       lp.RelaxationMenu.single())
    n, n1 = 3, 5
    assert prob.n_vars == n + 2 * n1
    assert prob.A_eq.shape[0] == n1
    # 2*n1 line rows + 2*n1 interval rows + 2*n ball rows
    assert prob.A_ub.shape[0] == 2 * n1 + 2 * n1 + 2 * n
    assert prob.c0 == pytest.approx(net.biases[1][0])


def test_menu_lines_per_space():
    single, multi = lp.RelaxationMenu.single(), lp.RelaxationMenu.multi()
    relu = relax.line_space("relu", "lower", -1.0, 2.0)
    assert single.lines_for(relu) == [relax.Line(1.0, 0.0)]
    assert multi.lines_for(relu) == [relax.Line(0.0, 0.0), relax.Line(1.0, 0.0)]
    tangent = relax.line_space("tanh", "lower", -2.0, 2.0)
    assert single.lines_for(tangent) == [crown.default_line(tangent)]
    assert multi.lines_for(tangent) == [tangent.line_at(tangent.var_lo),
                                        tangent.line_at(tangent.var_hi),
                                        crown.default_line(tangent)]
    fixed = relax.line_space("sigmoid", "upper", -8.0, 0.1)
    for menu in (single, multi):
        assert menu.lines_for(fixed) == [fixed.fixed_line]
    with pytest.raises(ValueError):
        lp.RelaxationMenu("adaptive")


def test_build_lp_rejects_wrong_length_x0():
    # a long x0 once passed, its extra entries silently left out of the ball
    net = generate_random_network(0, [3, 5, 2], "relu", scale=1.0)
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.2)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    for x0 in (np.zeros(2), np.zeros(4)):
        bad = PerturbationSpec(x0, np.inf, 0.2)
        with pytest.raises(ModelError):
            lp.build_lp(net, bad, 2, 0, "lower", bounds,
                        lp.RelaxationMenu.multi())
        with pytest.raises(ModelError):
            lp.lp_propagate(net, bad)


def test_build_lp_rejects_p2():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), 2, 0.2)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    with pytest.raises(lp.LpUnsupportedError):
        lp.build_lp(net, spec, 2, 0, "lower", bounds, lp.RelaxationMenu.multi())
    with pytest.raises(lp.LpUnsupportedError):
        lp.lp_propagate(net, spec)


@pytest.mark.parametrize("p", [1, math.inf])
@pytest.mark.parametrize("act", ["relu", "sigmoid"])
def test_center_point_satisfies_every_constraint(p, act):
    net = generate_random_network(3, [3, 4, 4, 2], act, scale=1.0)
    x0 = np.array([0.1, -0.2, 0.05])
    spec = PerturbationSpec(x0, p, 0.3)
    bounds, _ = crown.propagate(net, spec)
    from netcert.model import ACTIVATIONS
    f = ACTIVATIONS[act][0]
    for k in (2, 3):
        prob = lp.build_lp(net, spec, k, 0, "lower", bounds,
                           lp.RelaxationMenu.multi())
        assign = np.zeros(prob.n_vars)
        assign[:net.n] = x0
        a = x0
        pos = net.n
        for v in range(1, k):
            z = net.weights[v - 1] @ a + net.biases[v - 1]
            a = f(z)
            assign[pos:pos + len(z)] = z
            pos += len(z)
            assign[pos:pos + len(a)] = a
            pos += len(a)
        # r-variables stay 0 for the center point (p = 1)
        assert np.allclose(prob.A_eq @ assign, prob.b_eq, atol=1e-9)
        assert np.all(prob.A_ub @ assign <= prob.b_ub + 1e-9)


def test_toy_lower_lp_matches_closed_form_for_each_slope():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, 1.0)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    for s in (0.0, 0.5, 1.0):
        lines = [lp._one_line_each((np.array([s]), np.array([0.0]),
                                    np.array([0.5]), np.array([0.5])))]
        prob = lp._build_with_lines(net, spec, 2, 0, "lower", bounds, lines)
        value, _ = lp.solve(prob)
        assert value == pytest.approx(-spec.epsilon * s, abs=1e-9)


def test_solver_certificate_on_random_instances():
    net = generate_random_network(8, [4, 6, 5, 3], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.3)
    bounds, _ = crown.propagate(net, spec)
    for k in (2, 3):
        for i in (0, 1):
            for sense in ("lower", "upper"):
                prob = lp.build_lp(net, spec, k, i, sense, bounds,
                                   lp.RelaxationMenu.multi())
                value, point = lp.solve(prob)
                assert np.all(prob.A_ub @ point <= prob.b_ub + 1e-7)
                if prob.A_eq.shape[0]:
                    assert np.allclose(prob.A_eq @ point, prob.b_eq, atol=1e-7)
                assert value == pytest.approx(
                    float(prob.c @ point) + prob.c0, abs=1e-7)


# --- lp_propagate ----------------------------------------------------------------

def test_shared_lines_mode_matches_closed_form():
    for seed in range(4):
        act = "relu" if seed % 2 == 0 else "sigmoid"
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-0.4, 0.4, 4)
        spec = PerturbationSpec(x0, np.inf, 0.2)
        cb, _ = crown.propagate(net, spec)
        lb, _ = lp.lp_propagate(net, spec, mode="shared-lines")
        for k in range(2, net.m + 1):
            for c_arr, l_arr in ((cb.lower[k - 1], lb.lower[k - 1]),
                                 (cb.upper[k - 1], lb.upper[k - 1])):
                assert np.all(np.abs(c_arr - l_arr)
                              <= 1e-5 * np.maximum(1.0, np.abs(c_arr)))


def test_multi_line_never_looser_and_sometimes_strictly_tighter():
    strict = 0
    for seed in range(4):
        net = generate_random_network(seed, [4, 5, 4, 3], "relu", scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-0.3, 0.3, 4)
        spec = PerturbationSpec(x0, np.inf, 0.3)
        single, _ = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu.single())
        multi, _ = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu.multi())
        for k in range(2, net.m + 1):
            assert np.all(multi.lower[k - 1] >= single.lower[k - 1] - 1e-9)
            assert np.all(multi.upper[k - 1] <= single.upper[k - 1] + 1e-9)
            strict += int(np.any(multi.lower[k - 1]
                                 > single.lower[k - 1] + 1e-7))
    assert strict > 0


def test_adding_valid_rows_never_loosens_the_optimum():
    net = generate_random_network(2, [3, 5, 2], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.4)
    bounds, _ = crown.propagate(net, spec)
    prob = lp.build_lp(net, spec, 2, 0, "lower", bounds,
                       lp.RelaxationMenu.single())
    base, _ = lp.solve(prob)
    # append the other menu's rows: a feasible-set subset
    prob2 = lp.build_lp(net, spec, 2, 0, "lower", bounds,
                        lp.RelaxationMenu.multi())
    more, _ = lp.solve(prob2)
    assert more >= base - 1e-9


@pytest.mark.parametrize("p", [1, math.inf])
def test_lp_bounds_survive_sampling(p):
    net = generate_random_network(6, [4, 5, 4, 3], "tanh", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.1), p, 0.3)
    bounds, _ = lp.lp_propagate(net, spec)
    assert not oracle.sample_check(net, spec, bounds, 30000, seed=4)


def test_lp_at_least_as_tight_as_closed_form_with_same_lines():
    # a dual-feasible closed-form bound can never beat the LP optimum
    net = generate_random_network(10, [4, 6, 5, 3], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.02), np.inf, 0.35)
    cb, _ = crown.propagate(net, spec)
    mb, _ = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu.multi())
    assert np.all(mb.output_lower >= cb.output_lower - 1e-7)
    assert np.all(mb.output_upper <= cb.output_upper + 1e-7)


def test_dump_lp_lists_every_row():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, 0.5)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    prob = lp.build_lp(net, spec, 2, 0, "lower", bounds,
                       lp.RelaxationMenu.multi())
    text = lp.dump_lp(prob)
    assert text.count("<=") == prob.A_ub.shape[0]
    assert text.count("=") >= prob.A_eq.shape[0]
    assert "minimize" in text
    assert "z1_0" in text and "a1_0" in text
