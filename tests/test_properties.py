"""Property tests across the engines on small random networks."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    Phase, example, given, settings, strategies as st)

from netcert import crown, frown, lp, oracle, relax, simplex  # noqa: E402
from conftest import build, shared_lines_lp  # noqa: E402

ACTS = ("relu", "sigmoid", "tanh")

cases = st.tuples(
    st.integers(0, 2**16),                       # network seed
    st.sampled_from([1.0, math.inf]),            # p
    st.floats(-3.0, -0.3),                       # log10 eps
)

#: the LP properties also draw radii down to 1e-5, where the near-parallel
#: lines of sigmoid/tanh nets make the LPs ill-conditioned
lp_cases = st.tuples(
    st.integers(0, 2**16),
    st.sampled_from([1.0, math.inf]),
    st.floats(-5.0, -0.3),
)

# one failure per test, reported as itself rather than inside an exception
# group
SETTINGS = settings(max_examples=12, deadline=None, report_multiple_bugs=False)

#: the LP properties draw the same cases on every run, with no example
#: database, so a result does not depend on the run or on a local
#: ``.hypothesis/`` directory.  They skip shrinking: it only minimizes an
#: example that already fails, and shrinking one simplex failure on a tanh
#: net once took 296 s, against about 7 s for the whole file
LP_SETTINGS = settings(SETTINGS, derandomize=True, database=None,
                       phases=[phase for phase in Phase
                               if phase is not Phase.shrink])


def shared_lines_lp_equals_crown(act, case):
    net, spec = build(act, *case)
    cb = crown.propagate(net, spec)
    lb = shared_lines_lp(net, spec)
    for k in range(2, net.m + 1):
        for c_arr, l_arr in ((cb.lower[k - 1], lb.lower[k - 1]),
                             (cb.upper[k - 1], lb.upper[k - 1])):
            assert np.all(np.abs(c_arr - l_arr)
                          <= 1e-7 * np.maximum(1.0, np.abs(c_arr)))


def multi_menu_never_looser_than_single(act, case):
    # on the same intervals the multi menu offers every line of the single
    # menu (crown's default line besides the family ends), so its LP has
    # every row of the single LP.  Both LPs are built on the single menu's
    # intervals: with each menu's own intervals a narrower sigmoid/tanh
    # interval below can give a looser default tangent
    net, spec = build(act, *case)
    single = lp.lp_propagate(net, spec, menu=lp.RelaxationMenu("single"))
    multi = lp.RelaxationMenu("multi")
    for k in range(2, net.m + 1):
        lines = [multi.layer_lines(act, *single.layer(v)) for v in range(1, k)]
        for sense, sign, bound in zip(relax.SIDES, (1.0, -1.0),
                                      single.layer(k)):
            for i in range(net.layer_width(k)):
                value = sign * lp.solve(lp.build_lp(net, spec, k, [i], [sense],
                                                    single, lines))[0][0]
                if sense == "lower":
                    assert value >= bound[i] - 1e-7
                else:
                    assert value <= bound[i] + 1e-7


@pytest.mark.parametrize("act", ACTS)
@LP_SETTINGS
@given(case=lp_cases)
# a sigmoid net whose LP once reached a singular basis after a pivot of
# 2e-9, and a net whose sigmoid and tanh LPs gave a spurious unbounded ray
@example(case=(1719, 1.0, -3.0))
@example(case=(38359, math.inf, -2.995899273104552))
def test_shared_lines_lp_equals_crown(act, case):
    shared_lines_lp_equals_crown(act, case)


@pytest.mark.parametrize("act", ACTS)
@LP_SETTINGS
@given(case=lp_cases)
# tanh net on which the two family ends alone were looser than single
@example(case=(0, math.inf, -1.0))
def test_multi_menu_never_looser_than_single(act, case):
    multi_menu_never_looser_than_single(act, case)


# sigmoid/tanh cases on which the simplex once failed; they must solve
@pytest.mark.parametrize("prop, act, case", [
    # a singular basis after a pivot of 2e-9
    pytest.param(shared_lines_lp_equals_crown, "sigmoid", (1719, 1.0, -3.0),
                 id="shared-sigmoid-1719"),
    # a spurious unbounded ray
    pytest.param(shared_lines_lp_equals_crown, "tanh",
                 (38359, math.inf, -2.995899273104552), id="shared-tanh-38359"),
    # both parts of a split free variable in one basis
    pytest.param(multi_menu_never_looser_than_single, "sigmoid",
                 (5020, 1.0, -1.4166899772147816), id="multi-sigmoid-5020"),
    # an optimum 3e-3 off an inequality row
    pytest.param(multi_menu_never_looser_than_single, "sigmoid",
                 (882, 1.0, -2.5543708336815585), id="multi-sigmoid-882"),
    # off its rows, even refactorized at every pivot, while ties on a step
    # above 0 went by the smallest basic index
    pytest.param(multi_menu_never_looser_than_single, "sigmoid",
                 (20643, 1.0, -2.7553909444413884), id="multi-sigmoid-20643"),
    # 3e-7 off a row after a ratio-test tie on a pivot of 4e5: the tie band
    # of 1e-12 in the ratio let a row with a larger ratio leave
    pytest.param(multi_menu_never_looser_than_single, "tanh",
                 (7958, 1.0, -2.933048973977299), id="multi-tanh-7958"),
    # two LPs 3e-7 and 4e-6 off their rows, before each solve concluded
    # optimality only on a fresh inverse
    pytest.param(multi_menu_never_looser_than_single, "sigmoid",
                 (35393, 1.0, -2.465343079249466), id="multi-sigmoid-35393"),
])
def test_lps_the_simplex_once_failed_solve(prop, act, case):
    prop(act, case)


def test_off_row_solve_is_repeated_with_a_refactorization_per_pivot(
        monkeypatch):
    # the first warm-started phase 2 is made to end 1e-6 off its rows; that
    # objective is solved again cold, phase 1 included, from the
    # all-artificial basis, with the inverse refactorized at every pivot,
    # and every bound comes out as unpatched
    net, spec = build("sigmoid", 35393, 1.0, -2.465343079249466)
    expected = lp.lp_propagate(net, spec)
    phase1, phase2 = simplex._phase1, simplex._phase2
    refactor_every = []

    def spy(*args):
        refactor_every.append(args[-1])
        full, _, n_std, start = args[:4]
        # every row starts on an artificial in the cold phase 1
        assert np.array_equal(start, np.arange(n_std, full.shape[1]))
        return phase1(*args)

    def off_rows(*args):
        y = phase2(*args)
        if args[-1] == simplex.REFACTOR_EVERY and not off_rows.done:
            off_rows.done = True
            y[0] += 1e-6           # x0, which has a 1 in a ball row
        return y

    off_rows.done = False
    monkeypatch.setattr(simplex, "_phase1", spy)
    monkeypatch.setattr(simplex, "_phase2", off_rows)
    repeated = lp.lp_propagate(net, spec)
    # every objective starts at its crown vertex, so no layer runs phase 1;
    # the repeat runs one cold
    assert refactor_every == [1]
    for k in range(2, net.m + 1):
        for got, want in zip(repeated.layer(k), expected.layer(k)):
            assert np.all(np.abs(got - want)
                          <= 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("menu", ["single", "multi"])
@pytest.mark.parametrize("act", ACTS)
@LP_SETTINGS
@given(case=lp_cases)
# a sigmoid net whose multi-menu warm solve ended 3e-8 off its optimum on a
# drifted inverse that still solved B xB = b to 7e-11, and a tanh net whose
# warm multi-menu lower bound lay 1.25e-9 above the cold optimum
@example(case=(2616, 1.0, -3.0))
@example(case=(1113, 1.0, -3.0))
def test_warm_started_layer_bounds_equal_cold_solves(act, menu, case):
    # lp_propagate solves a layer's LPs as one LP with an objective per
    # neuron and side, each phase 2 started at its crown vertex; each
    # objective solved on its own LP, from its own phase 1, gives the same
    # bound
    net, spec = build(act, *case)
    menu = lp.RelaxationMenu(menu)
    warm = lp.lp_propagate(net, spec, menu=menu)
    lines = []
    for k in range(2, net.m + 1):
        lines.append(menu.layer_lines(act, *warm.layer(k - 1)))
        for sense, sign, bound in zip(relax.SIDES, (1.0, -1.0),
                                      warm.layer(k)):
            for i in range(net.layer_width(k)):
                cold = sign * lp.solve(lp.build_lp(net, spec, k, [i], [sense],
                                                   warm, lines))[0][0]
                assert abs(bound[i] - cold) <= 1e-9 * max(1.0, abs(cold))


@LP_SETTINGS
@given(case=lp_cases, log_ratio=st.floats(0.0, 1.0))
# crown's and frown's bounds at eps 0.1 are not inside theirs at 0.2 here
@example(case=(9, math.inf, -1.0), log_ratio=math.log10(2.0))
def test_relu_multi_menu_lp_bounds_are_monotone_in_eps(case, log_ratio):
    # the multi menu offers both ends of every crossing relu's slope family,
    # so each layer's LP is the triangle relaxation over the intervals
    # below, and a larger ball gives intervals and LPs that contain the
    # smaller ball's: every layer's bounds are nested.  crown is not
    # monotone (tests/data/nonmonotone_sample.json), and so neither is the
    # single menu, which gives crown's bounds; frown starts from crown's
    # lines
    seed, p, log_eps = case
    net, small = build("relu", seed, p, log_eps, widths=(4, 6, 5, 3))
    _, big = build("relu", seed, p, log_eps + log_ratio, widths=(4, 6, 5, 3))
    menu = lp.RelaxationMenu("multi")
    inner = lp.lp_propagate(net, small, menu=menu)
    outer = lp.lp_propagate(net, big, menu=menu)
    for k in range(1, net.m + 1):
        slack = 1e-9 * np.maximum(1.0, np.abs(outer.lower[k - 1]))
        assert np.all(inner.lower[k - 1] >= outer.lower[k - 1] - slack)
        slack = 1e-9 * np.maximum(1.0, np.abs(outer.upper[k - 1]))
        assert np.all(inner.upper[k - 1] <= outer.upper[k - 1] + slack)


@pytest.mark.parametrize("act", ACTS)
@SETTINGS
@given(case=cases, group=st.sampled_from([1, 2, 4]))
def test_frown_never_worse_than_crown(act, case, group):
    net, spec = build(act, *case)
    cb = crown.propagate(net, spec)
    fb = frown.frown_propagate(
        net, spec, frown.OptimizerConfig(max_iters=8, group_size=group))
    for k in range(1, net.m + 1):
        assert np.all(fb.lower[k - 1] >= cb.lower[k - 1])
        assert np.all(fb.upper[k - 1] <= cb.upper[k - 1])


@pytest.mark.parametrize("p", [1.0, math.inf])
@LP_SETTINGS
@given(seed=st.integers(0, 2**16), log_eps=st.floats(-3.0, -0.3))
def test_exact_relu_range_inside_crown_and_frown(p, seed, log_eps):
    # the exact output range over the ball (every activation pattern solved
    # as an LP) lies inside each engine's output bounds
    net, spec = build("relu", seed, p, log_eps)
    cb = crown.propagate(net, spec)
    fb = frown.frown_propagate(net, spec,
                                  frown.OptimizerConfig(max_iters=8))
    outputs = np.eye(net.layer_width(net.m))
    for j, unit in enumerate(outputs):
        exact = oracle.exact_output_functional_range(net, spec, unit)
        for bounds in (cb, fb):
            assert bounds.output_lower[j] <= exact.min + 1e-7
            assert exact.max <= bounds.output_upper[j] + 1e-7


@settings(max_examples=300, deadline=None)
@given(act=st.sampled_from(ACTS), side=st.sampled_from(["lower", "upper"]),
       l=st.floats(-20.0, 20.0), width=st.floats(0.0, 40.0))
def test_line_space_range_ordered(act, side, l, width):
    sp = relax.line_space(act, side, l, l + width)
    if sp.family[0]:
        assert sp.var_lo[0] <= sp.var_hi[0]
