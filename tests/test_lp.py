import itertools
import math

import numpy as np
import pytest

from netcert import certify, crown, lp, oracle, relax, simplex
from netcert.model import (
    ModelError,
    Network,
    PerturbationSpec,
    ball_rows,
    forward,
    forward_batch,
    generate_random_network,
    load_network,
    load_sample,
)

from conftest import (build, crown_lines, data_path, positive_bias_relu_net,
                      shared_lines_lp, toy_relu_net)


# --- simplex core -------------------------------------------------------------

def test_simplex_min_on_unit_interval():
    # min x s.t. 0 <= x <= 1
    (value,), (point,) = simplex.solve_inequality_form(
        np.array([[1.0]]), None, None,
        np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), [-1.0])
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
        (value,), _ = simplex.solve_inequality_form(c[None], None, None, A, b,
                                                    np.zeros(d))
        assert value == pytest.approx(np.minimum(c, 0.0).sum(), abs=1e-9)
        (value,), _ = simplex.solve_inequality_form(-c[None], None, None, A,
                                                    b, np.zeros(d))
        assert -value == pytest.approx(np.maximum(c, 0.0).sum(), abs=1e-9)


def test_simplex_with_equalities():
    # min x + y s.t. x + y + z = 1, 0 <= all <= 1  -> 0 at z = 1
    c = np.array([[1.0, 1.0, 0.0]])
    A_eq = np.array([[1.0, 1.0, 1.0]])
    b_eq = np.array([1.0])
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.concatenate([np.ones(3), np.zeros(3)])
    (value,), (point,) = simplex.solve_inequality_form(c, A_eq, b_eq, A, b,
                                                       np.zeros(3))
    assert value == pytest.approx(0.0, abs=1e-9)
    assert point[2] == pytest.approx(1.0, abs=1e-9)


def test_simplex_detects_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])  # x <= 0 and x >= 1
    with pytest.raises(simplex.InfeasibleError):
        simplex.solve_inequality_form(np.array([[1.0]]), None, None, A, b,
                                      [0.0])


def test_simplex_detects_unbounded():
    A = np.array([[-1.0]])
    b = np.array([0.0])  # x >= 0, minimize -x
    with pytest.raises(simplex.UnboundedError):
        simplex.solve_inequality_form(np.array([[-1.0]]), None, None, A, b,
                                      [0.0])


def test_pivot_to_a_singular_basis_is_taken_back(monkeypatch):
    # min -x1 - x2 over x1, x2 <= 1 from the slack basis, refactorized at
    # every pivot.  The first pivot (x1 in) is made to leave a basis the
    # refactorization calls singular, as a pivot on rounding noise can: it
    # is taken back and x1 waits until x2 has entered
    refactor = simplex._refactor
    bases = []

    def singular_once(A, b, basis, B_inv, xB):
        bases.append(basis.tolist())
        if len(bases) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        refactor(A, b, basis, B_inv, xB)

    monkeypatch.setattr(simplex, "_refactor", singular_once)
    A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    basis, B_inv, xB = np.array([2, 3]), np.eye(2), b.copy()
    simplex._bland_pivot(A, b, np.array([-1.0, -1.0, 0.0, 0.0]), basis, B_inv,
                         xB, np.ones(4, dtype=bool), 10, 1)
    assert bases == [[0, 3], [2, 3], [2, 1], [0, 1]]
    assert basis.tolist() == [0, 1] and xB.tolist() == [1.0, 1.0]


def test_phase1_from_the_slack_basis_of_a_box_corner_lp_needs_no_pivot(
        monkeypatch):
    # the box-corner LP: every slack is feasible at the lower bound, so
    # phase 1 starts from a basis of slacks alone and ends on its first
    # pricing pass
    calls = []
    bland_pivot = simplex._bland_pivot

    def spy(A, b, c, basis, *args):
        before = basis.copy()
        used = bland_pivot(A, b, c, basis, *args)
        calls.append((before, basis.copy(), used))
        return used

    monkeypatch.setattr(simplex, "_bland_pivot", spy)
    d = 4
    A = np.vstack([np.eye(d), -np.eye(d), np.ones((1, d))])
    b = np.concatenate([np.ones(d), np.zeros(d), [float(d)]])
    c = np.array([1.0, -2.0, 0.5, -1.0])
    (value,), _ = simplex.solve_inequality_form(c[None], None, None, A, b,
                                                np.zeros(d))
    assert value == pytest.approx(-3.0, abs=1e-12)
    start, end, used = calls[0]                  # phase 1
    assert start.tolist() == list(range(d, d + len(b)))   # the slacks
    assert end.tolist() == start.tolist() and used == 1


@pytest.mark.parametrize("A_eq, b_eq, b_ub, want", [
    # no equality, nothing flipped: every row starts on its slack
    (None, None, [1.0, 2.0], [2, 3]),
    # -x2 <= -1 is flipped: its row starts on its artificial
    (None, None, [1.0, -1.0], [2, 5]),
    # an equality row starts on its artificial, the inequalities on slacks
    ([[1.0, 1.0]], [1.0], [1.0, 2.0], [4, 2, 3]),
])
def test_phase1_starts_on_slacks_and_artificials_elsewhere(
        monkeypatch, A_eq, b_eq, b_ub, want):
    # columns are [x1, x2, slacks, artificials]; the rows x1 <= b1 and
    # -x2 <= b2 over x >= 0
    starts = []
    phase1 = simplex._phase1

    def spy(*args):
        starts.append(args[3].tolist())
        return phase1(*args)

    monkeypatch.setattr(simplex, "_phase1", spy)
    A_ub = np.array([[1.0, 0.0], [0.0, -1.0]])
    simplex.solve_inequality_form(np.array([[1.0, 1.0]]), A_eq, b_eq, A_ub,
                                  np.array(b_ub), np.zeros(2))
    assert starts == [want]


def test_failed_phase1_from_the_slack_basis_falls_back_to_a_cold_solve(
        monkeypatch):
    # a phase 1 from the slack basis that raises leaves every objective to
    # the cold solve: phase 1 from the all-artificial basis, refactorized
    # at every pivot; later objectives warm-start from its optimum
    phase1 = simplex._phase1
    calls = []

    def failing(full, b, n_std, start, max_iter, refactor_every):
        calls.append((start.tolist(), refactor_every))
        if refactor_every == simplex.REFACTOR_EVERY:
            raise simplex.InfeasibleError("phase-1 objective 5.3e-06")
        return phase1(full, b, n_std, start, max_iter, refactor_every)

    monkeypatch.setattr(simplex, "_phase1", failing)
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 1.0, 2.0])
    values, points = simplex.solve_inequality_form(
        np.array([[1.0, 1.0], [-1.0, 1.0]]), None, None, A, b, [-1.0, -2.0])
    assert (values * [1.0, -1.0]).tolist() == [-3.0, 3.0]
    assert points.tolist() == [[-1.0, -2.0], [1.0, -2.0]]
    assert calls == [([2, 3, 4, 5], simplex.REFACTOR_EVERY),
                     ([6, 7, 8, 9], 1)]


def test_simplex_solves_several_objectives_over_one_feasible_set():
    # the box -1 <= x <= 1, -2 <= y <= 2
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 1.0, 2.0])
    c = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]])
    lower = np.array([-1.0, -2.0])
    # a maximum is minus the minimum of the negated row
    sign = np.array([1.0, -1.0, -1.0])
    values, points = simplex.solve_inequality_form(
        c * sign[:, None], None, None, A, b, lower)
    assert (values * sign).tolist() == [-3.0, 3.0, 2.0]
    assert points[:2].tolist() == [[-1.0, -2.0], [1.0, -2.0]]
    values, _ = simplex.solve_inequality_form(c, None, None, A, b, lower)
    assert values.tolist() == [-3.0, -3.0, -2.0]
    with pytest.raises(ValueError, match="per objective"):
        simplex.solve_inequality_form(c[0], None, None, A, b, lower)


def test_warm_solve_off_its_rows_falls_back_to_a_cold_solve(monkeypatch):
    # every warm phase 2 (refactorized every REFACTOR_EVERY pivots) is made
    # to end off its rows at a wrong point; each objective is then solved
    # again from its own phase 1, refactorized at every pivot, and that
    # solve's value is the one returned
    phase2 = simplex._phase2
    refactor_every = []

    def off_rows(*args):
        refactor_every.append(args[-1])
        y = phase2(*args)
        return y + 4.0 if args[-1] == simplex.REFACTOR_EVERY else y

    monkeypatch.setattr(simplex, "_phase2", off_rows)
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 1.0, 2.0])
    values, points = simplex.solve_inequality_form(
        np.array([[1.0, 1.0], [-1.0, 1.0]]), None, None, A, b, [-1.0, -2.0])
    assert (values * [1.0, -1.0]).tolist() == [-3.0, 3.0]
    assert points.tolist() == [[-1.0, -2.0], [1.0, -2.0]]
    assert refactor_every == [simplex.REFACTOR_EVERY, 1] * 2

    net = generate_random_network(3, [4, 6, 5, 3], "relu", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.1), np.inf, 0.2)
    cold = lp.lp_propagate(net, spec)
    monkeypatch.setattr(simplex, "_phase2", phase2)
    warm = lp.lp_propagate(net, spec)
    for c_arr, w_arr in zip(cold.lower + cold.upper, warm.lower + warm.upper):
        assert np.all(np.abs(c_arr - w_arr)
                      <= 1e-9 * np.maximum(1.0, np.abs(c_arr)))


def test_cold_solve_off_its_rows_raises(monkeypatch):
    # every phase 2, warm or cold, is made to end off its rows: the warm
    # point falls back to the cold solve, and the cold point raises in the
    # simplex itself rather than reaching a direct caller such as the oracle
    phase2 = simplex._phase2
    monkeypatch.setattr(simplex, "_phase2", lambda *args: phase2(*args) + 4.0)
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 1.0, 2.0])
    with pytest.raises(simplex.SimplexError,
                       match="cold solve ends off its rows"):
        simplex.solve_inequality_form(np.array([[1.0, 1.0]]), None, None, A,
                                      b, [-1.0, -2.0])


# the LP of the starting-basis tests: minimize -v1 - 2 v2 over v >= 0 with
# v1 + v2 <= 4, v1 - v2 <= 2 and v2 <= 3 (optimum -7 at (1, 3)); its
# standard-form columns are v1, v2, the slacks 2-4 and the artificials 5-7
START_LP = (np.array([[-1.0, -2.0]]), None, None,
            np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]]),
            np.array([4.0, 2.0, 3.0]), np.zeros(2))


@pytest.mark.parametrize("entry", [
    (np.array([2, 3, 4]), (3, 9)),       # the shape of other rows
    (np.array([2, 5, 4]), (3, 8)),       # slack and artificial of row 0
    (np.array([0, 3, 4]), (3, 8)),       # v1 = 4 leaves slack 2 at -2
    (np.array([5, 6, 7]), (3, 8)),       # every artificial basic, at b
], ids=["wrong-shape", "singular", "negative-basic-value",
        "nonzero-basic-artificial"])
def test_a_bad_starting_basis_falls_back_to_the_cold_path(entry, monkeypatch):
    # an earlier basis that is not a feasible basis of these rows is
    # dropped: the objective runs phase 1 from the slack basis as it would
    # without a start, and returns the same optimum bit for bit
    cold_values, cold_points = simplex.solve_inequality_form(*START_LP)
    assert cold_values.tolist() == [-7.0]
    phase1 = simplex._phase1
    calls = []
    monkeypatch.setattr(simplex, "_phase1",
                        lambda *args: calls.append(args) or phase1(*args))
    bases = [entry]
    values, points = simplex.solve_inequality_form(*START_LP, bases=bases)
    assert [args[-1] for args in calls] == [simplex.REFACTOR_EVERY]
    assert values.tolist() == cold_values.tolist()
    assert points.tolist() == cold_points.tolist()
    assert sorted(bases[0][0].tolist()) == [0, 1, 3] and bases[0][1] == (3, 8)


def test_a_feasible_starting_basis_skips_phase1(monkeypatch):
    # the optimal basis of one solve starts the next on the same rows: no
    # phase 1, the same optimum; a list of the wrong length is rejected
    bases = [None]
    cold_values, cold_points = simplex.solve_inequality_form(*START_LP,
                                                             bases=bases)
    monkeypatch.setattr(simplex, "_phase1", None)
    values, points = simplex.solve_inequality_form(*START_LP, bases=bases)
    assert values.tolist() == cold_values.tolist() == [-7.0]
    assert points.tolist() == cold_points.tolist()
    with pytest.raises(ValueError, match="2 starting bases for 1 objectives"):
        simplex.solve_inequality_form(*START_LP, bases=bases * 2)


@pytest.mark.parametrize("tight, phase1_runs", [
    ([0, 2], 0),        # the optimum (1, 3)
    ([1, 2], 1),        # (5, 3), which breaks v1 + v2 <= 4
    ([0], 1),           # one tight row for two basic variables
], ids=["optimal", "infeasible", "too-few-rows"])
def test_a_vertex_start_replaces_phase1_where_it_is_feasible(
        tight, phase1_runs, monkeypatch):
    # an objective without a basis of its own starts at the vertex whose
    # tight rows ``vertices`` gives, if that basis is feasible; otherwise
    # phase 1 runs from the slack basis as without it; the optimum is the same
    cold_values, cold_points = simplex.solve_inequality_form(*START_LP)
    phase1 = simplex._phase1
    calls, asked = [], []
    monkeypatch.setattr(simplex, "_phase1",
                        lambda *args: calls.append(args) or phase1(*args))
    bases = [None]
    values, points = simplex.solve_inequality_form(
        *START_LP, bases=bases, vertices=lambda: asked.append(1) or [tight])
    assert len(calls) == phase1_runs and asked == [1]
    assert values.tolist() == cold_values.tolist() == [-7.0]
    assert points.tolist() == cold_points.tolist()
    # with a feasible basis of its own, the vertex is not asked for
    simplex.solve_inequality_form(*START_LP, bases=bases,
                                  vertices=lambda: pytest.fail("asked"))
    assert len(calls) == phase1_runs


def highs(optimize, prob, c, feasibility=1e-10):
    """The minimum of objective c over ``prob``'s rows and free variables,
    by HiGHS's dual simplex at tight tolerances."""
    res = optimize.linprog(
        c, A_ub=prob.A_ub, b_ub=prob.b_ub, A_eq=prob.A_eq,
        b_eq=prob.b_eq, bounds=(None, None), method="highs-ds",
        options={"primal_feasibility_tolerance": feasibility,
                 "dual_feasibility_tolerance": feasibility})
    assert res.status == 0, res.message
    return res.fun


def assert_layer_lps_match_highs(net, spec, menu, feasibility=1e-10):
    # each layer's LP, objective by objective, solved by HiGHS has the
    # built-in simplex's optimum
    optimize = pytest.importorskip("scipy.optimize")
    bounds = lp.lp_propagate(net, spec, menu=menu)
    lines = []
    for k in range(2, net.m + 1):
        lines.append(menu.layer_lines(net.activation, *bounds.layer(k - 1)))
        width = net.layer_width(k)
        neurons = np.repeat(np.arange(width), 2)
        prob = lp.build_lp(net, spec, k, neurons, relax.SIDES * width,
                           bounds, lines)
        ours = np.stack(bounds.layer(k), axis=1).ravel()
        signs = np.tile([1.0, -1.0], width)   # an upper bound's row is negated
        for c, sign, c0, value in zip(prob.c, signs, prob.c0, ours):
            want = sign * (highs(optimize, prob, c, feasibility) + c0)
            assert abs(value - want) <= 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_layer_lps_match_highs(act, p):
    for seed in range(2):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        spec = PerturbationSpec(x0, p, 0.05)
        for menu in (lp.RelaxationMenu("single"), lp.RelaxationMenu("multi")):
            assert_layer_lps_match_highs(net, spec, menu)


def sigmoid_fixture(eps):
    net = load_network(data_path("sigmoid_3_10_10_2.json"))
    x0, _ = load_sample(data_path("small3_sample.json"))
    return net, PerturbationSpec(x0, math.inf, eps)


# multi-menu LPs on which the simplex over split free variables failed
@pytest.mark.parametrize("problem, feasibility", [
    # a 2-cycle of the cold re-solve that did not return
    pytest.param(sigmoid_fixture(3.125e-5), 1e-10, id="fixture-3.125e-5"),
    # 4e-6 off an inequality row; HiGHS at 1e-10 calls the layer-3 LP
    # infeasible, though the net's own point meets every row to 1.1e-16
    pytest.param(sigmoid_fixture(1e-6), 1e-9, id="fixture-1e-6"),
    # a singular basis (LinAlgError)
    pytest.param(build("sigmoid", 39824, 1.0, -3.8425717685955334,
                       (3, 6, 6, 6, 2)), 1e-10, id="sigmoid-39824"),
    # SimplexError
    pytest.param(build("sigmoid", 38011, 1.0, -4.663471064151949,
                       (4, 6, 5, 3)), 1e-10, id="sigmoid-38011"),
    # did not return
    pytest.param(build("sigmoid", 47890, 1.0, -3.692555322858613,
                       (4, 6, 5, 3)), 1e-10, id="sigmoid-47890"),
    # an equality residual of 4e-2
    pytest.param(build("tanh", 37021, 1.0, -4.916156405981878,
                       (3, 4, 3, 2)), 1e-10, id="tanh-37021"),
])
def test_lps_the_split_simplex_failed_match_highs(problem, feasibility):
    assert_layer_lps_match_highs(*problem, lp.RelaxationMenu("multi"),
                                 feasibility)


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_lower_bounds_are_implied_by_the_rows(act, p):
    # every variable's lower bound lies at or below its least value over
    # the LP's rows, so the bound cuts off no feasible point
    optimize = pytest.importorskip("scipy.optimize")
    net = generate_random_network(5, [4, 6, 5, 3], act, scale=1.0)
    spec = PerturbationSpec(np.random.default_rng(5).uniform(-1, 1, 4), p,
                            0.05)
    menu = lp.RelaxationMenu("multi")
    bounds = lp.lp_propagate(net, spec, menu=menu)
    lines = menu_lines(net, bounds, "multi", net.m)
    prob = lp.build_lp(net, spec, net.m, [0], ["lower"], bounds, lines)
    for j, unit in enumerate(np.eye(prob.n_vars)):
        assert prob.lower[j] <= highs(optimize, prob, unit)


# --- build_lp -------------------------------------------------------------------

def menu_lines(net, bounds, lines, k):
    """The menu lines of layers 1..k-1 on the intervals ``bounds``."""
    menu = lp.RelaxationMenu(lines)
    return [menu.layer_lines(net.activation, *bounds.layer(v))
            for v in range(1, k)]


def kept(menu, spaces):
    """The menu lines of a one-entry record, as (slope, intercept) pairs."""
    s, t = menu.side_lines(spaces)
    keep = ~np.isnan(s[0])
    return list(zip(s[0, keep].tolist(), t[0, keep].tolist()))


def first(lines):
    return tuple(float(a[0]) for a in lines)


def test_build_lp_counts_for_two_layer_single_menu():
    net = generate_random_network(0, [3, 5, 2], "relu", scale=1.0)
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.2)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    prob = lp.build_lp(net, spec, 2, [0], ["lower"], bounds,
                       menu_lines(net, bounds, "single", 2))
    n, n1 = 3, 5
    assert prob.n_vars == n + 2 * n1
    assert prob.A_eq.shape[0] == n1
    # 2*n1 line rows + 2*n1 interval rows + 2*n ball rows
    assert prob.A_ub.shape[0] == 2 * n1 + 2 * n1 + 2 * n
    assert prob.c0 == [pytest.approx(net.biases[1][0])]


def per_entry_lp(net, spec, k, i, bounds, lines):
    """The arrays of ``build_lp``'s LP, filled one entry at a time in the
    same variable and row order: the reference for its block assembly."""
    widths = net.widths[1:k]
    z_at, col = {}, net.n
    for v, w in enumerate(widths, start=1):
        z_at[v] = col
        col += 2 * w
    total = col + (net.n if spec.p == 1.0 else 0)

    def a_col(v, j):          # a(0) is x
        return j if v == 0 else z_at[v] + widths[v - 1] + j

    eq, eq_rhs, ub, ub_rhs = [], [], [], []
    for v in range(1, k):
        for j in range(widths[v - 1]):
            row = np.zeros(total)
            row[z_at[v] + j] = 1.0
            for t in range(net.weights[v - 1].shape[1]):
                row[a_col(v - 1, t)] = -net.weights[v - 1][j, t]
            eq.append(row)
            eq_rhs.append(net.biases[v - 1][j])
    for v in range(1, k):
        low, up = bounds.layer(v)
        sl, tl, su, tu = (np.reshape(x, (widths[v - 1], -1))
                          for x in lines[v - 1])
        for j in range(widths[v - 1]):
            for sign, s, t in ((1.0, sl, tl), (-1.0, su, tu)):
                for slope, intercept in zip(s[j], t[j]):
                    if np.isnan(slope):
                        continue
                    row = np.zeros(total)
                    row[z_at[v] + j] = sign * slope
                    row[a_col(v, j)] = -sign
                    ub.append(row)
                    ub_rhs.append(-sign * intercept)
            for sign, bound in ((1.0, up[j]), (-1.0, low[j])):
                row = np.zeros(total)
                row[z_at[v] + j] = sign
                ub.append(row)
                ub_rhs.append(sign * bound)
    ball_A, ball_b = ball_rows(spec, total, r_col=col)
    c = np.zeros(total)
    for t in range(widths[-1]):
        c[a_col(k - 1, t)] = net.weights[k - 1][i, t]
    return (c, np.array(eq), np.array(eq_rhs), np.vstack(ub + [ball_A]),
            np.concatenate([ub_rhs, ball_b]))


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
@pytest.mark.parametrize("p", [1, math.inf])
def test_build_lp_matches_per_entry_reference(act, p):
    net = generate_random_network(4, [3, 5, 4, 2], act, scale=1.5)
    spec = PerturbationSpec(np.array([0.1, -0.2, 0.3]), p, 0.4)
    bounds = crown.propagate(net, spec)
    for k in (2, 3):
        for lines in (crown_lines(net, bounds), menu_lines(net, bounds, "single", k),
                      menu_lines(net, bounds, "multi", k)):
            for i, sense, sign in ((0, "lower", 1.0), (1, "upper", -1.0)):
                prob = lp.build_lp(net, spec, k, [i], [sense], bounds, lines)
                got = (prob.c[0], prob.A_eq, prob.b_eq, prob.A_ub, prob.b_ub)
                c, *rows = per_entry_lp(net, spec, k, i, bounds, lines)
                want = (sign * c, *rows)      # an upper objective is negated
                # same bits, so signed zeros too
                assert [g.tobytes() for g in got] == \
                    [w.tobytes() for w in want]
                assert len(prob.names) == prob.n_vars


def test_menu_lines_per_space():
    single, multi = lp.RelaxationMenu("single"), lp.RelaxationMenu("multi")
    relu = relax.line_space("relu", "lower", -1.0, 2.0)
    assert kept(single, relu) == [(1.0, 0.0)]
    assert kept(multi, relu) == [(0.0, 0.0), (1.0, 0.0)]
    tangent = relax.line_space("tanh", "lower", -2.0, 2.0)
    assert kept(single, tangent) == [first(crown.default_lines(tangent))]
    assert kept(multi, tangent) == [first(tangent.members(tangent.var_lo)),
                                    first(tangent.members(tangent.var_hi)),
                                    first(crown.default_lines(tangent))]
    fixed = relax.line_space("sigmoid", "upper", -8.0, 0.1)
    for menu in (single, multi):
        assert kept(menu, fixed) == [(fixed.slope[0], fixed.intercept[0])]
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
            lp.build_lp(net, bad, 2, [0], ["lower"], bounds,
                        menu_lines(net, bounds, "multi", 2))
        with pytest.raises(ModelError):
            lp.lp_propagate(net, bad)


def test_build_lp_rejects_p2():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), 2, 0.2)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    with pytest.raises(lp.LpUnsupportedError):
        lp.build_lp(net, spec, 2, [0], ["lower"], bounds,
                    menu_lines(net, bounds, "multi", 2))
    with pytest.raises(lp.LpUnsupportedError):
        lp.lp_propagate(net, spec)


@pytest.mark.parametrize("p", [1, math.inf])
@pytest.mark.parametrize("act", ["relu", "sigmoid"])
def test_center_point_satisfies_every_constraint(p, act):
    net = generate_random_network(3, [3, 4, 4, 2], act, scale=1.0)
    x0 = np.array([0.1, -0.2, 0.05])
    spec = PerturbationSpec(x0, p, 0.3)
    bounds = crown.propagate(net, spec)
    from netcert.model import ACTIVATIONS
    f = ACTIVATIONS[act]
    for k in (2, 3):
        prob = lp.build_lp(net, spec, k, [0], ["lower"], bounds,
                           menu_lines(net, bounds, "multi", k))
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
        lines = [(np.array([s]), np.array([0.0]),
                  np.array([0.5]), np.array([0.5]))]
        prob = lp.build_lp(net, spec, 2, [0], ["lower"], bounds, lines)
        (value,), _ = lp.solve(prob)
        assert value == pytest.approx(-spec.epsilon * s, abs=1e-9)


def test_solver_certificate_on_random_instances():
    net = generate_random_network(8, [4, 6, 5, 3], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.3)
    bounds = crown.propagate(net, spec)
    for k in (2, 3):
        lines = menu_lines(net, bounds, "multi", k)
        for i in (0, 1):
            for sense in ("lower", "upper"):
                prob = lp.build_lp(net, spec, k, [i], [sense], bounds, lines)
                (value,), (point,) = lp.solve(prob)
                assert np.all(prob.A_ub @ point <= prob.b_ub + 1e-7)
                if prob.A_eq.shape[0]:
                    assert np.allclose(prob.A_eq @ point, prob.b_eq, atol=1e-7)
                assert value == pytest.approx(
                    float(prob.c[0] @ point) + prob.c0[0], abs=1e-7)


# --- lp_propagate ----------------------------------------------------------------

def test_lp_propagate_makes_each_layers_lines_once(monkeypatch):
    # every LP of a layer shares the lines of the layers below it
    calls = []
    original = relax.layer_line_spaces

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(relax, "layer_line_spaces", counted)
    net = generate_random_network(0, [6, 10, 10, 10, 4], "relu")
    spec = PerturbationSpec(np.zeros(6), np.inf, 0.05)
    lp.lp_propagate(net, spec)
    assert len(calls) == 3


def offers_several_lines(net, bounds, menu, k) -> bool:
    """Whether some neuron below layer k offers the menu more than one line
    on a side, so that layer k's bounds come from the simplex."""
    return any(np.any((~np.isnan(slopes)).sum(axis=1) > 1)
               for v in range(1, k)
               for slopes in menu.layer_lines(net.activation,
                                              *bounds.layer(v))[::2])


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_lp_propagate_with_a_label_bounds_only_the_rows_margins_read(
        monkeypatch, act, p):
    # the output LP gets n objectives, the label's lower bound and every
    # other class's upper bound; those match the full call, the entries
    # left unsolved are -inf and +inf, and every lower layer is unchanged.
    # An output layer with one line per neuron and side below it builds no
    # LP (its closed form bounds the same rows) and keeps the same contract
    objectives = []
    build = lp.build_lp

    def counted(net, spec, k, neurons, sides, *args):
        objectives.append((k, list(neurons), list(sides)))
        return build(net, spec, k, neurons, sides, *args)

    monkeypatch.setattr(lp, "build_lp", counted)
    net = generate_random_network(0, [4, 6, 5, 3], act, scale=1.0)
    spec = PerturbationSpec(np.random.default_rng(0).uniform(-1, 1, 4), p,
                            0.05)
    for menu in (lp.RelaxationMenu("single"), lp.RelaxationMenu("multi")):
        full = lp.lp_propagate(net, spec, menu=menu)
        simplex_out = offers_several_lines(net, full, menu, net.m)
        for label in range(3):
            objectives.clear()
            part = lp.lp_propagate(net, spec, menu=menu, label=label)
            others = [j for j in range(3) if j != label]
            if simplex_out:
                assert objectives[-1] == (net.m, [label] + others,
                                          ["lower", "upper", "upper"])
            else:
                assert all(k < net.m for k, _, _ in objectives)
            for k in range(1, net.m):
                assert np.array_equal(part.lower[k - 1], full.lower[k - 1])
                assert np.array_equal(part.upper[k - 1], full.upper[k - 1])
            got = np.append(part.output_lower[label],
                            part.output_upper[others])
            want = np.append(full.output_lower[label],
                             full.output_upper[others])
            assert np.all(np.abs(got - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))
            assert np.all(part.output_lower[others] == -np.inf)
            assert part.output_upper[label] == np.inf
    with pytest.raises(ValueError, match="label 3 out of range"):
        lp.lp_propagate(net, spec, label=3)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_closed_form_layers_are_the_optima_of_their_lps(act, p):
    # the paper's optimality result as lp_propagate uses it: a layer with one
    # line per neuron and side below it is bounded by crown's backward pass
    # on those lines, which is the optimum of the LP over the same lines and
    # intervals, by the built-in simplex and by HiGHS
    try:
        from scipy import optimize
    except ImportError:
        optimize = None
    closed = 0
    for seed in range(2):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        for eps in (1e-3, 0.05, 0.2):
            spec = PerturbationSpec(x0, p, eps)
            for menu in (lp.RelaxationMenu("single"),
                         lp.RelaxationMenu("multi")):
                bounds = lp.lp_propagate(net, spec, menu=menu)
                for k in range(2, net.m + 1):
                    if offers_several_lines(net, bounds, menu, k):
                        continue
                    closed += menu.lines == "multi"
                    width = net.layer_width(k)
                    prob = lp.build_lp(
                        net, spec, k, np.repeat(np.arange(width), 2),
                        relax.SIDES * width, bounds,
                        menu_lines(net, bounds, menu.lines, k))
                    signs = np.tile([1.0, -1.0], width)
                    ours = np.stack(bounds.layer(k), axis=1).ravel()
                    want = signs * lp.solve(prob)[0]
                    assert np.all(np.abs(ours - want)
                                  <= 1e-12 * np.maximum(1.0, np.abs(want)))
                    if optimize is None:
                        continue
                    for c, sign, c0, value in zip(prob.c, signs, prob.c0,
                                                  ours):
                        ref = sign * (highs(optimize, prob, c) + c0)
                        assert abs(value - ref) <= 1e-8 * max(1.0, abs(ref))
    # relu's hidden neurons are all stable at the smallest radius, so its
    # multi menu offers one line each there; a tangent family never does
    assert (closed > 0) == (act == "relu")


def test_only_layers_with_several_lines_below_reach_the_simplex(monkeypatch):
    solved = []         # objectives of each simplex call
    original = simplex.solve_inequality_form

    def counted(c, *args, **kwargs):
        solved.append(len(c))
        return original(c, *args, **kwargs)

    monkeypatch.setattr(simplex, "solve_inequality_form", counted)
    eps = 0.3
    net = generate_random_network(0, [4, 6, 5, 3], "relu", scale=1.0)
    spec = PerturbationSpec(np.zeros(4), np.inf, eps)
    # the single menu offers one line per neuron and side everywhere
    lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("single"))
    assert solved == []
    # every hidden neuron of this net is stable: its multi menu offers one
    # line each too
    stable = positive_bias_relu_net(0, [4, 6, 5, 3], eps=eps)
    lp.lp_propagate(stable, spec, menu=lp.RelaxationMenu("multi"))
    assert solved == []
    # one layer-2 neuron made to cross zero: layer 2 is still closed form,
    # the output layer above the crossing neuron solves its 2 n objectives
    low, up = crown.propagate(stable, spec).layer(2)
    biases = list(stable.biases)
    biases[1] = biases[1] - np.eye(len(low))[0] * 0.5 * (low[0] + up[0])
    crossing = Network(stable.weights, tuple(biases), "relu")
    bounds = lp.lp_propagate(crossing, spec, menu=lp.RelaxationMenu("multi"))
    low, up = bounds.layer(2)
    assert low[0] < 0.0 < up[0] and np.all(low[1:] > 0.0)
    assert solved == [2 * net.layer_width(3)]


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_a_search_starts_its_first_lps_at_crown_vertices(act, p, monkeypatch):
    # with an empty ``bases``, as on a search's first probe, every objective
    # starts at its crown vertex, a feasible basis: no phase 1 runs, and
    # each layer's bounds are those phase 1 and the chain give on its LP,
    # on the same intervals and lines, within 1e-11 relative (the phase-1
    # path lies 1.2e-12 off on one sigmoid cell here, where HiGHS gives
    # the vertex start's bound to the bit)
    phase1 = simplex._phase1
    calls = []
    monkeypatch.setattr(simplex, "_phase1",
                        lambda *args: calls.append(args) or phase1(*args))
    solved = 0
    for seed in range(2):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        for eps in (1e-3, 0.05, 0.2):
            spec = PerturbationSpec(x0, p, eps)
            bases = {}
            bounds = lp.lp_propagate(net, spec, bases=bases)
            assert calls == []
            solved += len(bases)
            for k in bases:
                width = net.layer_width(k)
                prob = lp.build_lp(
                    net, spec, k, np.tile(np.arange(width), 2),
                    ("lower",) * width + ("upper",) * width, bounds,
                    menu_lines(net, bounds, "multi", k))
                want = np.repeat([1.0, -1.0], width) * lp.solve(prob)[0]
                got = np.concatenate(bounds.layer(k))
                assert np.all(np.abs(got - want)
                              <= 1e-11 * np.maximum(1.0, np.abs(want)))
            calls.clear()
    assert solved > 0


@pytest.mark.parametrize("eps", [1e-7, 1e-5])
@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_tiny_radius_lp_bounds_hold_the_logit_range(act, seed, p, eps):
    # on these balls the logits are linear to about 1e-14, so their range is
    # their range over the box's 8 corners (p = inf) or over x0 +- eps e_i
    # (p = 1).  The multi menu's lines are nearly parallel there, and an LP
    # solved by phase 1 and the chain can end inside that range (by up to
    # 3.6e-8 on these cells)
    net = generate_random_network(seed, [3, 6, 5, 4], act)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
    if p == math.inf:
        steps = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    else:
        steps = np.vstack([np.eye(3), -np.eye(3)])
    logits = forward_batch(net, x0 + eps * steps)
    bounds = lp.lp_propagate(net, PerturbationSpec(x0, p, eps),
                             menu=lp.RelaxationMenu.multi())
    low, up = bounds.output_lower, bounds.output_upper
    assert np.all(low - logits.min(axis=0)
                  <= 1e-12 * np.maximum(1.0, np.abs(low)))
    assert np.all(logits.max(axis=0) - up
                  <= 1e-12 * np.maximum(1.0, np.abs(up)))


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_crown_vertices_are_optimal_on_the_single_menu(act, p, monkeypatch):
    # the paper's optimality result as a starting basis: on one line per
    # neuron and side, the vertex crown's backward pass points to is the
    # LP's optimum, so each objective's phase 2 prices once and stops
    used = []
    pivot = simplex._bland_pivot
    monkeypatch.setattr(simplex, "_bland_pivot",
                        lambda *args: used.append(pivot(*args)) or used[-1])
    menu = lp.RelaxationMenu("single")
    for seed in range(2):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        for eps in (1e-3, 0.05, 0.2):
            spec = PerturbationSpec(x0, p, eps)
            bounds = lp.lp_propagate(net, spec, menu=menu)
            for k in range(2, net.m + 1):
                width = net.layer_width(k)
                lines = menu_lines(net, bounds, "single", k)
                prob = lp.build_lp(
                    net, spec, k, np.repeat(np.arange(width), 2),
                    relax.SIDES * width, bounds, lines)
                signs = np.tile([1.0, -1.0], width)
                A = signs[:, None] * net.weights[k - 1][prob.meta["neurons"]]
                c = signs * net.biases[k - 1][prob.meta["neurons"]]
                used.clear()
                values = lp.solve(prob, [None] * len(A), lambda: (
                    lp.crown_vertices(net, spec, prob, bounds, lines, A,
                                      c)))[0]
                assert used == [1] * len(A)
                ours = np.stack(bounds.layer(k), axis=1).ravel()
                assert np.all(np.abs(signs * values - ours)
                              <= 1e-12 * np.maximum(1.0, np.abs(ours)))


def test_lp_propagate_is_unchanged_by_a_search_on_another_net():
    # the starting bases live in the search that made them: a later call
    # without them starts at its crown vertices again, bit for bit
    net = generate_random_network(0, [4, 6, 5, 3], "tanh", scale=1.0)
    spec = PerturbationSpec(np.random.default_rng(0).uniform(-1, 1, 4),
                            math.inf, 0.05)
    before = lp.lp_propagate(net, spec)
    other = generate_random_network(1, [3, 8, 8, 3], "relu")
    x0 = np.random.default_rng(1).uniform(-1, 1, 3)
    label = int(np.argmax(forward(other, x0)))
    cert = certify.search_epsilon(other, x0, label, np.inf, "lp")
    assert cert.iterations > 1
    after = lp.lp_propagate(net, spec)
    for a, b in zip(before.lower + before.upper, after.lower + after.upper):
        assert a.tobytes() == b.tobytes()


def test_shared_lines_mode_matches_closed_form():
    for seed in range(4):
        act = "relu" if seed % 2 == 0 else "sigmoid"
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-0.4, 0.4, 4)
        spec = PerturbationSpec(x0, np.inf, 0.2)
        cb = crown.propagate(net, spec)
        lb = shared_lines_lp(net, spec)
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
        single = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("single"))
        multi = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("multi"))
        for k in range(2, net.m + 1):
            assert np.all(multi.lower[k - 1] >= single.lower[k - 1] - 1e-9)
            assert np.all(multi.upper[k - 1] <= single.upper[k - 1] + 1e-9)
            strict += int(np.any(multi.lower[k - 1]
                                 > single.lower[k - 1] + 1e-7))
    assert strict > 0


def test_adding_valid_rows_never_loosens_the_optimum():
    net = generate_random_network(2, [3, 5, 2], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.4)
    bounds = crown.propagate(net, spec)
    prob = lp.build_lp(net, spec, 2, [0], ["lower"], bounds,
                       menu_lines(net, bounds, "single", 2))
    (base,), _ = lp.solve(prob)
    # append the other menu's rows: a feasible-set subset
    prob2 = lp.build_lp(net, spec, 2, [0], ["lower"], bounds,
                        menu_lines(net, bounds, "multi", 2))
    (more,), _ = lp.solve(prob2)
    assert more >= base - 1e-9


def test_lp_bounds_of_zero_width_intervals_come_back_ordered():
    # layers 2-4 have zero-width intervals, and one neuron's LP min and max
    # crossed by 1 ulp, which the next layer's line spaces rejected
    net, spec = build("relu", 30244, 1.0, -2.230749820119682,
                      (3, 6, 6, 6, 2))
    bounds = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("single"))
    for low, up in zip(bounds.lower, bounds.upper):
        assert np.all(low <= up)


@pytest.mark.parametrize("p", [1, math.inf])
def test_lp_bounds_survive_sampling(p):
    net = generate_random_network(6, [4, 5, 4, 3], "tanh", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.1), p, 0.3)
    bounds = lp.lp_propagate(net, spec)
    assert not oracle.sample_check(net, spec, bounds, 30000, seed=4)


@pytest.mark.parametrize("lines", ["single", "multi"])
def test_menu_lines_of_huge_intervals_pass_the_relative_line_check(lines):
    # layer-1 intervals reach 3e7, where one ulp of relu(u) is 3.7e-9: an
    # absolute slack of 1e-9 rejected crown's own relu chord there
    net = generate_random_network(0, [4, 6, 5, 3], "relu", 100.0)
    x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 4)
    spec = PerturbationSpec(x0, np.inf, 1e3)
    bounds = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu(lines))
    assert not oracle.sample_check(net, spec, bounds, 4000, seed=0)
    # either menu holds crown's lines, so neither is looser than crown
    cb = crown.propagate(net, spec)
    slack = 1e-9 * np.abs(cb.output_upper - cb.output_lower)
    assert np.all(bounds.output_lower >= cb.output_lower - slack)
    assert np.all(bounds.output_upper <= cb.output_upper + slack)


def test_lp_at_least_as_tight_as_closed_form_with_same_lines():
    # a dual-feasible closed-form bound can never beat the LP optimum
    net = generate_random_network(10, [4, 6, 5, 3], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.02), np.inf, 0.35)
    cb = crown.propagate(net, spec)
    mb = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("multi"))
    assert np.all(mb.output_lower >= cb.output_lower - 1e-7)
    assert np.all(mb.output_upper <= cb.output_upper + 1e-7)


def test_dump_lp_lists_every_row():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, 0.5)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    lines = menu_lines(net, bounds, "multi", 2)
    prob = lp.build_lp(net, spec, 2, [0], ["lower"], bounds, lines)
    text = lp.dump_lp(prob)
    assert text.count("<=") == prob.A_ub.shape[0]
    assert text.count("=") >= prob.A_eq.shape[0]
    assert "minimize" in text
    assert "z1_0" in text and "a1_0" in text
    # an LP with several objectives lists each one's LP in turn
    both = lp.build_lp(net, spec, 2, [0, 0], ["lower", "upper"], bounds, lines)
    upper = lp.build_lp(net, spec, 2, [0], ["upper"], bounds, lines)
    assert lp.dump_lp(both) == text + "\n" + lp.dump_lp(upper)


def test_dump_lp_writes_plain_floats():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, 0.5)
    bounds = crown.LayerBounds(*map(list, zip(crown.layer1_bounds(net, spec))))
    lines = menu_lines(net, bounds, "multi", 2)
    for sense in ("lower", "upper"):
        text = lp.dump_lp(lp.build_lp(net, spec, 2, [0], [sense], bounds, lines))
        assert "np." not in text
        numbers = 0
        for line in text.splitlines():
            if line.startswith(("minimize: ", "maximize: ")):
                lhs, rhs = line.split(": ", 1)[1], None
            elif " <= " in line or " = " in line:
                lhs, rhs = line.replace(" <= ", " = ").split(" = ")
            else:
                continue
            for term in lhs.split(" + "):
                float(term.split()[0])
                numbers += 1
            if rhs is not None:
                float(rhs)
                numbers += 1
        assert numbers > 0
