from fractions import Fraction

import numpy as np
import pytest

from netcert import crown, oracle, relax
from netcert.model import (
    ModelError,
    Network,
    PerturbationSpec,
    forward,
    generate_random_network,
    load_network,
    load_sample,
)
from conftest import (backward_by_sense, concretize_by_sense, crown_lines,
                      data_path, positive_bias_relu_net, toy_relu_net)


def single_layer_lines(sl, tl, su, tu):
    return [(np.array([sl]), np.array([tl]), np.array([su]), np.array([tu]))]


# --- backward_rows -----------------------------------------------------------

def test_backward_single_composition():
    net = toy_relu_net()
    lines = single_layer_lines(0.7, 0.0, 0.5, 0.5)
    A, c = backward_by_sense(net, 2, [0], lines, "lower")
    assert A[0, 0] == pytest.approx(0.7)
    assert c[0] == pytest.approx(0.0)


def test_backward_sign_split_uses_upper_line():
    net = Network((np.array([[1.0]]), np.array([[-1.0]])),
                  (np.zeros(1), np.zeros(1)), "relu")
    lines = single_layer_lines(0.7, 0.0, 0.5, 0.5)
    A, c = backward_by_sense(net, 2, [0], lines, "lower")
    assert A[0, 0] == pytest.approx(-0.5)
    assert c[0] == pytest.approx(-0.5)


def test_backward_affine_bound_valid_under_sampling():
    net = generate_random_network(2, [4, 6, 5, 3], "tanh", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.1), np.inf, 0.4)
    bounds = crown.propagate(net, spec)
    lines = crown_lines(net, bounds)
    rng = np.random.default_rng(0)
    xs = oracle.ball_samples(spec, 10000, rng)
    from netcert.model import preactivations
    z3 = list(preactivations(net, xs))[2]
    rows = range(net.layer_width(3))
    low_A, low_c = backward_by_sense(net, 3, rows, lines, "lower")
    up_A, up_c = backward_by_sense(net, 3, rows, lines, "upper")
    for i in rows:
        assert np.all(xs @ low_A[i] + low_c[i] <= z3[:, i] + 1e-9)
        assert np.all(xs @ up_A[i] + up_c[i] >= z3[:, i] - 1e-9)


def test_backward_missing_lines():
    net = generate_random_network(2, [3, 4, 4, 2], "relu")
    with pytest.raises(ValueError):
        backward_by_sense(net, 3, [0], [], "lower")


# --- concretize_rows ----------------------------------------------------------

def test_concretize_examples():
    coeffs = np.array([3.0, -4.0])
    for p, expected in ((np.inf, 0.3), (2, 0.5), (1, 0.6)):
        spec = PerturbationSpec(np.zeros(2), p, 0.1)
        low = concretize_by_sense(coeffs[None], np.array([1.0]), spec,
                                  "lower")
        assert low[0] == pytest.approx(expected)
    spec = PerturbationSpec(np.zeros(2), np.inf, 0.1)
    up = concretize_by_sense(coeffs[None], np.array([1.0]), spec, "upper")
    assert up[0] == pytest.approx(1.7)


def test_concretize_length_check():
    spec = PerturbationSpec(np.zeros(3), 2, 0.1)
    with pytest.raises(ValueError):
        crown.concretize_rows(np.ones((1, 2)), np.zeros(1), spec)


# --- propagate -----------------------------------------------------------------

def test_propagate_toy():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, 1.0)
    bounds = crown.propagate(net, spec)
    lines = crown_lines(net, bounds)
    assert bounds.lower[0][0] == pytest.approx(-1.0)
    assert bounds.upper[0][0] == pytest.approx(1.0)
    # default lower slope is 1 (tie towards 1), upper is the chord
    assert bounds.output_lower[0] == pytest.approx(-1.0)
    assert bounds.output_upper[0] == pytest.approx(1.0)
    slope_lower, _, slope_upper, intercept_upper = lines[0]
    assert slope_lower[0] == pytest.approx(1.0)
    assert (slope_upper[0], intercept_upper[0]) == (0.5, 0.5)


def test_forward_value_inside_output_bounds():
    net = generate_random_network(9, [5, 7, 6, 4], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.full(5, -0.05), 2, 0.3)
    bounds = crown.propagate(net, spec)
    out = forward(net, spec.x0)
    assert np.all(bounds.output_lower <= out)
    assert np.all(out <= bounds.output_upper)


def test_propagate_positive_sigmoid_layer_sound():
    # strong positive biases keep hidden intervals positive; bounds must
    # survive heavy sampling regardless
    net = generate_random_network(4, [4, 6, 3], "sigmoid", scale=0.8)
    biased = Network(
        net.weights,
        (net.biases[0] + 5.0, net.biases[1]),
        "sigmoid")
    spec = PerturbationSpec(np.zeros(4), np.inf, 0.3)
    bounds = crown.propagate(biased, spec)
    assert np.all(bounds.lower[0] >= 0)
    assert not oracle.sample_check(biased, spec, bounds, 100000, seed=3)


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_propagate_soundness_fuzz(act):
    for seed in range(3):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-0.3, 0.3, 4)
        for p in (1, 2, np.inf):
            spec = PerturbationSpec(x0, p, 0.25)
            bounds = crown.propagate(net, spec)
            assert not oracle.sample_check(net, spec, bounds, 20000, seed=seed)


def test_deep_sigmoid_narrow_intervals_propagate():
    # layer intervals a few 1e-6 wide around 0 once gave inverted tangent
    # ranges, and the default variable then fell outside its range
    net = generate_random_network(2, [20, 50, 50, 50, 10], "sigmoid")
    x0 = np.random.default_rng(2).uniform(-1, 1, 20)
    spec = PerturbationSpec(x0, np.inf, 10 ** -4.5)
    bounds = crown.propagate(net, spec)
    out = forward(net, x0)
    assert np.all(bounds.output_lower <= out)
    assert np.all(out <= bounds.output_upper)


def test_short_or_long_x0_rejected():
    net = generate_random_network(2, [4, 6, 3], "relu")
    for x0 in (np.zeros(3), np.zeros(5)):
        with pytest.raises(ModelError):
            crown.propagate(net, PerturbationSpec(x0, np.inf, 0.1))


def test_monotone_in_epsilon():
    for seed in range(4):
        act = ("relu", "sigmoid", "tanh")[seed % 3]
        net = generate_random_network(seed, [4, 6, 6, 3], act, scale=1.0)
        x0 = np.random.default_rng(100 + seed).uniform(-0.3, 0.3, 4)
        prev = None
        for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
            bounds = crown.propagate(net, PerturbationSpec(x0, np.inf, eps))
            if prev is not None:
                for k in range(1, net.m + 1):
                    assert np.all(prev.lower[k - 1] >= bounds.lower[k - 1] - 1e-12)
                    assert np.all(prev.upper[k - 1] <= bounds.upper[k - 1] + 1e-12)
            prev = bounds


def test_affine_exactness_when_always_active():
    net = positive_bias_relu_net(0, [4, 5, 5, 3], eps=0.3)
    spec = PerturbationSpec(np.zeros(4), np.inf, 0.3)
    bounds = crown.propagate(net, spec)
    assert all(np.all(bounds.lower[k] >= 0) for k in range(net.m - 1))
    w_eff = net.weights[0]
    for w in net.weights[1:]:
        w_eff = w @ w_eff
    gap = bounds.output_upper - bounds.output_lower
    expected = 2 * spec.epsilon * crown.dual_norm(w_eff, spec.q)
    assert np.allclose(gap, expected, atol=1e-9)


def test_intercept_shifts_never_improve():
    # same slopes, lower intercepts shifted down / upper shifted up: every
    # bound computed with the shifted lines is no tighter
    for seed in range(3):
        net = generate_random_network(seed, [4, 6, 5, 3], "sigmoid", scale=1.0)
        spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.3)
        bounds = crown.propagate(net, spec)
        lines = crown_lines(net, bounds)
        for delta in (1e-3, 1e-1):
            arrays = [(sl, tl - delta, su, tu + delta)
                      for sl, tl, su, tu in lines]
            for k in range(2, net.m + 1):
                rows = range(net.layer_width(k))
                gl = concretize_by_sense(
                    *backward_by_sense(net, k, rows, arrays, "lower"),
                    spec, "lower")
                gu = concretize_by_sense(
                    *backward_by_sense(net, k, rows, arrays, "upper"),
                    spec, "upper")
                assert np.all(gl <= bounds.lower[k - 1] + 1e-12)
                assert np.all(gu >= bounds.upper[k - 1] - 1e-12)


def exact_lower_bound(net, spec, lines, k, row, offset):
    """The least value over the ball of crown's backward bound of the affine
    row (row, offset) of layer k, in exact arithmetic: the float weights,
    lines and input are taken as exact, and only a 2-norm is rounded (to 50
    digits, in mpmath)."""
    A = [Fraction(a) for a in row]
    c = Fraction(offset)
    for v in range(k - 1, 0, -1):
        sl, tl, su, tu = lines[v - 1]
        s = [Fraction((sl if a > 0 else su)[j]) for j, a in enumerate(A)]
        c += sum(a * Fraction((tl if a > 0 else tu)[j])
                 for j, a in enumerate(A))
        D = [a * s_j for a, s_j in zip(A, s)]
        c += sum(d * Fraction(b) for d, b in zip(D, net.biases[v - 1]))
        A = [sum(d * Fraction(w) for d, w in zip(D, col))
             for col in net.weights[v - 1].T]
    base = c + sum(a * Fraction(x) for a, x in zip(A, spec.x0))
    eps = Fraction(spec.epsilon)
    if spec.q == 1.0:
        return base - eps * sum(abs(a) for a in A)
    if spec.q == np.inf:
        return base - eps * max(abs(a) for a in A)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        def mp(f):
            return mpmath.mpf(f.numerator) / f.denominator
        return mp(base) - mp(eps) * mpmath.sqrt(mp(sum(a * a for a in A)))


@pytest.mark.parametrize("p", ["1", "2", "inf"])
@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_golden_cases_match_exact_recompute(act, p):
    # the cases of the bit-for-bit golden files: every bound crown reports
    # is within 1e-13 relative of its exact value over crown's own float
    # intervals and lines
    net = load_network(data_path(f"{act}_3_10_10_2.json"))
    x0, _ = load_sample(data_path("small3_sample.json"))
    for eps in (1.0, 5e-13):
        spec = PerturbationSpec(x0, float(p), eps)
        bounds = crown.propagate(net, spec)
        lines = crown_lines(net, bounds)
        for k in range(1, net.m + 1):
            for i in range(net.layer_width(k)):
                w, b = net.weights[k - 1][i], net.biases[k - 1][i]
                want = (exact_lower_bound(net, spec, lines, k, w, b),
                        -exact_lower_bound(net, spec, lines, k, -w, -b))
                for got, exact in zip((bounds.lower[k - 1][i],
                                       bounds.upper[k - 1][i]), want):
                    # the difference is taken exactly too
                    err = abs(type(exact)(got) - exact)
                    assert err <= 1e-13 * abs(exact), (eps, k, i, got)


# --- margins -------------------------------------------------------------------

def test_margins_linear_two_class():
    from conftest import linear_two_class_net
    net = linear_two_class_net()
    for eps, expected in ((0.2, 0.6), (0.5, 0.0)):
        spec = PerturbationSpec(np.array([0.5]), np.inf, eps)
        bounds = crown.propagate(net, spec)
        marg = crown.margins(bounds.output_lower, bounds.output_upper, 0)
        assert marg[0] == pytest.approx(expected, abs=1e-12)


def test_margins_definition_and_errors():
    low = np.array([1.0, 2.0, 3.0])
    up = np.array([0.5, 1.5, 2.5])
    assert np.array_equal(crown.margins(low, up, 1), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        crown.margins(low, up, 3)


def test_ordered_bounds_swaps_a_noise_crossing_and_rejects_a_larger_one():
    # the LP min and max of a zero-width interval once crossed by 1 ulp
    low = np.array([0.10732392290630116, 1.0])
    up = np.array([0.1073239229063011, 2.0])
    got = crown.ordered_bounds(low, up, 3)
    assert [a.tolist() for a in got] == [[0.1073239229063011, 1.0],
                                         [0.10732392290630116, 2.0]]
    with pytest.raises(RuntimeError, match="layer 3"):
        crown.ordered_bounds(np.array([1.0 + 2e-9]), np.array([1.0]), 3)


# --- line sets ------------------------------------------------------------------

def test_line_set_lines_validate_against_intervals():
    net = generate_random_network(12, [4, 6, 5, 3], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.02), np.inf, 0.4)
    bounds = crown.propagate(net, spec)
    lines = crown_lines(net, bounds)
    for v, (sl, tl, su, tu) in enumerate(lines, start=1):
        low_v, up_v = bounds.layer(v)
        assert relax.validate_line("sigmoid", "lower", low_v, up_v, sl, tl,
                                   301).all()
        assert relax.validate_line("sigmoid", "upper", low_v, up_v, su, tu,
                                   301).all()


def test_dual_norm_grad_directions():
    rows = np.array([[3.0, -4.0, 0.0]])
    assert np.array_equal(crown.dual_norm_grad(rows, 1.0),
                          np.array([[1.0, -1.0, 0.0]]))
    g2 = crown.dual_norm_grad(rows, 2.0)
    assert np.allclose(g2, rows / 5.0)
    ginf = crown.dual_norm_grad(rows, np.inf)
    assert np.array_equal(ginf, np.array([[0.0, -1.0, 0.0]]))
