import numpy as np
import pytest

from netcert import crown, relax
from netcert.model import ACTIVATION_JETS, ACTIVATIONS
from netcert.relax import TangentUndefinedError, line_space, validate_line


def sigma(act, z):
    return float(ACTIVATIONS[act](z))


def dsigma(act, z):
    return float(ACTIVATION_JETS[act](z, 1)[1])


def chord(act, l, u):
    """(slope, intercept) of the secant through (l, f(l)) and (u, f(u)), or
    of the midpoint tangent if the interval is degenerate."""
    f = ACTIVATIONS[act]
    l, u = np.array([l]), np.array([u])
    s, t = relax._chord_lines(act, l, u, f(l), f(u),
                              u - l <= relax.DEGENERATE_WIDTH)
    return float(s[0]), float(t[0])


def tangent_point(act, anchor, l, u):
    """Abscissa of the tangent through the ``anchor`` endpoint of [l, u]."""
    return float(relax.tangent_points_through(act, [l], [u],
                                              [anchor == "left"])[0])


def anchored(act, anchor, l, u):
    """Whether the tangent through the ``anchor`` endpoint of [l, u] is
    defined: the case test (case1 for a left anchor, case3 for a right one),
    which brackets its tangency abscissa."""
    side, tag = ("upper", "case1") if anchor == "left" else ("lower", "case3")
    return only(line_space(act, side, l, u)).case_tag == tag


def only(sp):
    """The one entry of a one-entry record, with its kind and case tag."""
    (entry,) = sp
    return entry


def fixed_line(sp):
    assert only(sp).kind == "fixed"
    return float(sp.slope[0]), float(sp.intercept[0])


def var_range(sp):
    return float(sp.var_lo[0]), float(sp.var_hi[0])


def line_at(sp, theta):
    return tuple(float(a[0]) for a in sp.members(theta))


def line_and_grad_at(sp, theta):
    return tuple(float(a) for a in relax.family_lines(sp.act, theta,
                                                      grads=True))


# --- chord -----------------------------------------------------------------

def test_chord_relu_symmetric():
    slope, intercept = chord("relu", -1.0, 1.0)
    assert slope == pytest.approx(0.5)
    assert intercept == pytest.approx(0.5)


def test_chord_relu_asymmetric():
    slope, intercept = chord("relu", -3.0, 1.0)
    assert slope == pytest.approx(0.25)
    assert intercept == pytest.approx(0.75)


def test_chord_sigmoid():
    slope, intercept = chord("sigmoid", -2.0, 2.0)
    expected_slope = (sigma("sigmoid", 2.0) - sigma("sigmoid", -2.0)) / 4.0
    assert slope == pytest.approx(expected_slope, abs=1e-12)
    assert slope == pytest.approx(0.19040, abs=1e-5)
    assert intercept == pytest.approx(sigma("sigmoid", -2.0) + 2.0 * slope)


def test_chord_degenerate_uses_midpoint_tangent():
    slope, intercept = chord("sigmoid", 0.3, 0.3 + 1e-13)
    mid = 0.3 + 0.5e-13
    assert slope == pytest.approx(dsigma("sigmoid", mid))
    assert slope * mid + intercept == pytest.approx(sigma("sigmoid", mid))


# --- anchored tangent points ------------------------------------------------

def bisect_oracle(act, e, lo, hi, iters=200):
    # independent root finder for f'(d)(e-d)+f(d)-f(e) on [lo, hi]
    f, df = ACTIVATIONS[act], lambda z: ACTIVATION_JETS[act](z, 1)[1]

    def g(d):
        return float(df(d)) * (e - d) + float(f(d)) - float(f(e))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_tangent_point_symmetry_sigmoid():
    ld = tangent_point("sigmoid", "left", -2.0, 2.0)
    ud = tangent_point("sigmoid", "right", -2.0, 2.0)
    # sigmoid - 1/2 is odd, so the anchored tangency points mirror
    assert ud == pytest.approx(-ld, abs=1e-9)


def test_tangent_point_matches_bisection_oracle():
    ld = tangent_point("sigmoid", "left", -2.0, 2.0)
    assert ld == pytest.approx(bisect_oracle("sigmoid", -2.0, 0.0, 2.0), abs=1e-9)
    g = dsigma("sigmoid", ld) * (-2.0 - ld) + sigma("sigmoid", ld) - sigma("sigmoid", -2.0)
    assert abs(g) <= 1e-10


def test_tangent_point_tanh_right_anchor():
    ud = tangent_point("tanh", "right", -1.0, 3.0)
    assert ud < 0.0
    slope, intercept = relax.tangent_lines("tanh", ud)
    assert slope * 3.0 + intercept == pytest.approx(sigma("tanh", 3.0),
                                                    abs=1e-9)


def test_tangent_point_undefined_when_same_side():
    with pytest.raises(TangentUndefinedError):
        tangent_point("sigmoid", "left", 0.5, 2.0)
    with pytest.raises(TangentUndefinedError):
        tangent_point("tanh", "right", -2.0, -0.5)


def test_tangent_residuals_random():
    rng = np.random.default_rng(5)
    for act in ("sigmoid", "tanh"):
        f, df = ACTIVATIONS[act], lambda z: ACTIVATION_JETS[act](z, 1)[1]
        # 50 intervals per anchor on which its tangent is defined
        left = right = 0
        while left < 50 or right < 50:
            l = -rng.uniform(0.05, 8.0)
            u = rng.uniform(0.05, 8.0)
            if left < 50 and anchored(act, "left", l, u):
                left += 1
                d = tangent_point(act, "left", l, u)
                assert abs(float(df(d)) * (l - d) + float(f(d))
                           - float(f(l))) <= 1e-10
            if right < 50 and anchored(act, "right", l, u):
                right += 1
                d = tangent_point(act, "right", l, u)
                assert abs(float(df(d)) * (u - d) + float(f(d))
                           - float(f(u))) <= 1e-10


# --- line_space case analysis ------------------------------------------------

def test_relu_lower_positive_interval_fixed_identity():
    sp = line_space("relu", "lower", 2.0, 5.0)
    assert only(sp).kind == "fixed"
    assert fixed_line(sp) == (1.0, 0.0)


def test_relu_lower_crossing_is_slope_family():
    sp = line_space("relu", "lower", -1.0, 1.0)
    assert only(sp).kind == "one-variable"
    assert var_range(sp) == (0.0, 1.0)
    assert line_at(sp, 0.3) == (0.3, 0.0)


def test_relu_negative_interval_fixed_zero():
    sp = line_space("relu", "lower", -4.0, -1.0)
    assert fixed_line(sp) == (0.0, 0.0)
    up = line_space("relu", "upper", -4.0, -1.0)
    assert fixed_line(up)[0] == pytest.approx(0.0)
    assert fixed_line(up)[1] == pytest.approx(0.0)


def test_sigmoid_upper_crossing_case1():
    l, u = -2.0, 2.0
    check = dsigma("sigmoid", u) * l + (sigma("sigmoid", u) - dsigma("sigmoid", u) * u)
    assert check == pytest.approx(0.4608, abs=1e-4)
    assert check >= sigma("sigmoid", l) == pytest.approx(0.1192, abs=1e-4)
    sp = line_space("sigmoid", "upper", l, u)
    assert only(sp).case_tag == "case1"
    assert only(sp).kind == "one-variable"
    ld = tangent_point("sigmoid", "left", l, u)
    assert var_range(sp) == (ld, u)


def test_sigmoid_upper_crossing_case2_uses_chord():
    # very negative left end with small u: the tangent at u undershoots f(l)
    l, u = -8.0, 0.1
    sp = line_space("sigmoid", "upper", l, u)
    assert only(sp).case_tag == "case2"
    assert only(sp).kind == "fixed"
    assert fixed_line(sp) == chord("sigmoid", l, u)


def test_tanh_lower_crossing_cases():
    sp = line_space("tanh", "lower", -2.0, 2.0)
    assert only(sp).case_tag == "case3"
    ud = tangent_point("tanh", "right", -2.0, 2.0)
    assert var_range(sp) == (-2.0, ud)
    sp = line_space("tanh", "lower", -0.1, 8.0)
    assert only(sp).case_tag == "case4"
    assert fixed_line(sp) == chord("tanh", -0.1, 8.0)


def test_degenerate_interval_routes_to_midpoint_tangent():
    for act in ("relu", "sigmoid", "tanh"):
        for side in ("lower", "upper"):
            sp = line_space(act, side, 1.0, 1.0)
            assert only(sp).case_tag == "degenerate"
            assert only(sp).kind == "fixed"
            mid = 1.0
            slope, intercept = fixed_line(sp)
            assert slope * mid + intercept == pytest.approx(sigma(act, mid))


def test_case_classification_exhaustive_exclusive():
    rng = np.random.default_rng(17)
    crossing_tags = {
        ("sigmoid", "upper"): {"case1", "case2"},
        ("sigmoid", "lower"): {"case3", "case4"},
        ("tanh", "upper"): {"case1", "case2"},
        ("tanh", "lower"): {"case3", "case4"},
    }
    for _ in range(300):
        l = rng.uniform(-6, 6)
        u = l + rng.uniform(1e-3, 8.0)
        for act in ("sigmoid", "tanh"):
            for side in ("lower", "upper"):
                sp = line_space(act, side, l, u)
                if u <= 0:
                    assert only(sp).case_tag == "l<u<=0"
                elif l >= 0:
                    assert only(sp).case_tag == "0<=l<u"
                else:
                    assert only(sp).case_tag in crossing_tags[(act, side)]


# --- validate_line -----------------------------------------------------------

def test_validate_line_trivials():
    assert validate_line("relu", "upper", -1.0, 1.0, 0.5, 0.5)
    assert validate_line("relu", "lower", -1.0, 1.0, 1.0, 0.0)
    assert not validate_line("relu", "lower", -1.0, 1.0, 0.0, 0.1)


def test_validate_line_slack_scales_with_the_activation():
    # 1e-8 below relu(u) = 1e7 is under one ulp there, but not near 1
    assert validate_line("relu", "upper", -1e7, 1e7, 0.5, 5e6 - 1e-8)
    assert not validate_line("relu", "upper", -1.0, 1.0, 0.5, 0.5 - 1e-8)


def test_validate_line_grid_size_guard():
    with pytest.raises(ValueError):
        validate_line("relu", "lower", -1.0, 1.0, 0.0, 0.0, grid_size=1)


# --- fuzz: every generated line is valid -------------------------------------

@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_every_generated_line_is_valid(act, side):
    # a fixed seed per case, so a failure reproduces
    rng = np.random.default_rng(
        [("relu", "sigmoid", "tanh").index(act), relax.SIDES.index(side)])
    f = ACTIVATIONS[act]
    for trial in range(1000):
        l = rng.uniform(-8.0, 6.0)
        width = rng.uniform(0.0, 10.0) if trial % 7 else rng.uniform(0, 1e-10)
        u = l + width
        sp = line_space(act, side, l, u)
        if only(sp).kind == "fixed":
            lines = [fixed_line(sp)]
        else:
            thetas = np.linspace(sp.var_lo[0], sp.var_hi[0], 50)
            lines = [line_at(sp, t) for t in thetas]
        zs = np.linspace(l, u, 1001)
        fz = f(zs)
        slopes = np.array([ln[0] for ln in lines])
        inters = np.array([ln[1] for ln in lines])
        vals = slopes[:, None] * zs[None, :] + inters[:, None]
        gap = fz[None, :] - vals if side == "lower" else vals - fz[None, :]
        assert gap.min() >= -1e-9, (act, side, l, u, only(sp).case_tag)


def test_validate_line_agrees_with_vectorized_path():
    rng = np.random.default_rng(99)
    for _ in range(25):
        l = rng.uniform(-5, 2)
        u = l + rng.uniform(0.1, 6)
        for act in ("sigmoid", "tanh", "relu"):
            for side in ("lower", "upper"):
                sp = line_space(act, side, l, u)
                if only(sp).kind == "fixed":
                    assert validate_line(act, side, l, u, *fixed_line(sp))
                else:
                    for t in np.linspace(sp.var_lo[0], sp.var_hi[0], 7):
                        assert validate_line(act, side, l, u, *line_at(sp, t))


def test_tangent_family_touches_activation():
    rng = np.random.default_rng(3)
    for act in ("sigmoid", "tanh"):
        for _ in range(100):
            l = rng.uniform(-6, 1)
            u = l + rng.uniform(0.5, 7)
            for side in ("lower", "upper"):
                sp = line_space(act, side, l, u)
                if only(sp).kind == "one-variable" and sp.generator == "tangent":
                    d = rng.uniform(sp.var_lo[0], sp.var_hi[0])
                    slope, intercept = line_at(sp, d)
                    assert abs(slope * d + intercept - sigma(act, d)) <= 1e-9


def test_line_and_grad_matches_finite_differences():
    h = 1e-6
    for act in ("sigmoid", "tanh"):
        sp = line_space(act, "lower", -3.0, -0.5)
        assert sp.generator == "tangent"
        for d in np.linspace(sp.var_lo[0] + 1e-3, sp.var_hi[0] - 1e-3, 9):
            s, t, ds, dt = line_and_grad_at(sp, d)
            lp = line_at(sp, d + h)
            lm = line_at(sp, d - h)
            assert ds == pytest.approx((lp[0] - lm[0]) / (2 * h), abs=1e-5)
            assert dt == pytest.approx((lp[1] - lm[1]) / (2 * h), abs=1e-5)
    sp = line_space("relu", "lower", -1.0, 2.0)
    assert line_and_grad_at(sp, 0.5) == (0.5, 0.0, 1.0, 0.0)


# --- narrow crossing intervals -------------------------------------------------

def test_tangent_range_on_reported_narrow_intervals():
    sp = line_space("sigmoid", "upper", -1e-6, 1e-6)
    assert only(sp).case_tag == "case1"
    assert sp.var_lo[0] <= sp.var_hi[0] == 1e-6
    sp = line_space("tanh", "lower", -1e-5, 1e-5)
    assert only(sp).case_tag == "case3"
    assert -1e-5 == sp.var_lo[0] <= sp.var_hi[0]


@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_tangent_range_valid_on_tiny_crossing_intervals(act):
    # near the inflection point the anchored gap shrinks like width**3, so
    # rounding decides its sign; the admissible range must stay ordered and
    # both of its end lines valid all the same
    rng = np.random.default_rng(7)
    for exponent in range(1, 12):
        for _ in range(40):
            width = 10.0 ** -exponent * rng.uniform(0.5, 2.0)
            l = -width * rng.uniform(0.02, 0.98)
            u = l + width
            for side in ("lower", "upper"):
                sp = line_space(act, side, l, u)
                if only(sp).kind != "one-variable":
                    continue
                assert sp.var_lo[0] <= sp.var_hi[0], (side, l, u)
                for theta in (sp.var_lo[0], sp.var_hi[0]):
                    assert validate_line(act, side, l, u, *line_at(sp, theta),
                                         201)


# --- array relaxation: one record per layer and side --------------------------

def random_layer(rng, count=300):
    """Intervals of widths 0 to 40: crossing, one-sided, degenerate, and
    narrow crossing ones where rounding decides the anchored gap's sign."""
    kind = rng.integers(0, 4, count)
    width = np.select([kind == 0, kind == 1, kind == 2],
                      [np.zeros(count), rng.uniform(0.0, 1e-12, count),
                       10.0 ** rng.uniform(-11, -3, count)],
                      rng.uniform(0.0, 40.0, count))
    lower = np.where(kind == 2, -width * rng.uniform(0.02, 0.98, count),
                     rng.uniform(-30.0, 20.0, count))
    return lower, lower + width


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_layer_spaces_match_line_space_per_neuron(act):
    rng = np.random.default_rng(["relu", "sigmoid", "tanh"].index(act))
    tags = set()
    for _ in range(3):
        lower, upper = random_layer(rng)
        for side, spaces in zip(relax.SIDES,
                                relax.layer_line_spaces(act, lower, upper)):
            assert len(spaces) == len(lower)
            tags.update(sp.case_tag for sp in spaces)
            one = [line_space(act, side, l, u) for l, u in zip(lower, upper)]
            for field in ("l", "u", "case", "family", "var_lo", "var_hi",
                          "slope", "intercept"):
                np.testing.assert_array_equal(
                    getattr(spaces, field),
                    np.concatenate([getattr(sp, field) for sp in one]),
                    err_msg=field)
            family = spaces.family
            assert np.all(spaces.var_lo[family] <= spaces.var_hi[family])
            s, t = crown.default_lines(spaces)
            for theta in (spaces.var_lo, spaces.var_hi):
                ls, lt = spaces.members(theta)
                s, t = np.concatenate([s, ls]), np.concatenate([t, lt])
            ok = validate_line(act, side, np.tile(lower, 3),
                               np.tile(upper, 3), s, t)
            assert ok.all(), np.flatnonzero(~ok) % len(lower)
    expected = {"relu": {"degenerate", "l<u<=0", "l<0<u", "0<=l<u"}}.get(
        act, {"degenerate", "l<u<=0", "0<=l<u", "case1", "case2", "case3",
              "case4"})
    assert tags == expected


def test_layer_spaces_views_and_scalar_api():
    lower, upper = np.array([-1.0, 2.0, -3.0]), np.array([1.0, 2.0, -1.0])
    low, up = relax.layer_line_spaces("relu", lower, upper)
    assert [sp.kind for sp in low] == ["one-variable", "fixed", "fixed"]
    assert [sp.case_tag for sp in low] == ["l<0<u", "degenerate", "l<u<=0"]
    third = line_space("relu", "lower", -3.0, -1.0)
    assert (low.slope[2], low.intercept[2]) == (third.slope[0],
                                                third.intercept[0])
    got = relax.family_lines(low.act, np.array([0.25]), grads=True)
    assert [a[0] for a in got] == [0.25, 0.0, 1.0, 0.0]
    s, t = crown.default_lines(low)
    assert (s[0], t[0]) == (1.0, 0.0)
    with pytest.raises(ValueError, match="bad interval"):
        relax.layer_line_spaces("tanh", [0.0, 1.0], [1.0, 0.5])


def test_validate_line_on_arrays_matches_per_line_calls():
    rng = np.random.default_rng(8)
    lower, upper = random_layer(rng, 60)
    slopes, intercepts = rng.uniform(0, 1, 60), rng.uniform(-0.5, 0.5, 60)
    for act in ("relu", "sigmoid", "tanh"):
        for side in relax.SIDES:
            got = validate_line(act, side, lower, upper, slopes, intercepts,
                                101)
            want = [validate_line(act, side, l, u, s, t, 101)
                    for l, u, s, t in zip(lower, upper, slopes, intercepts)]
            assert got.tolist() == want
            assert got.any() and not got.all()


def test_batched_tangent_points_match_one_at_a_time():
    # the batch mixes left and right anchors on intervals whose ends lie
    # 1e-6 to 30 from 0, drawn until 200 of them pass their anchor's case
    # test
    rng = np.random.default_rng(21)
    for act in ("sigmoid", "tanh"):
        l, u, left = [], [], []
        while len(l) < 200:
            lo = -10.0 ** rng.uniform(-6, 1.5)
            hi = 10.0 ** rng.uniform(-6, 1.5)
            anchor = rng.choice(["left", "right"])
            if anchored(act, anchor, lo, hi):
                l.append(lo)
                u.append(hi)
                left.append(anchor == "left")
        got = relax.tangent_points_through(act, l, u, left)
        want = [tangent_point(act, "left" if a else "right", lo, hi)
                for lo, hi, a in zip(l, u, left)]
        assert got.tolist() == want


def test_batched_tangent_points_raise_like_the_scalar_one():
    with pytest.raises(TangentUndefinedError, match="left anchor"):
        relax.tangent_points_through("sigmoid", [-1.0, 0.5], [1.0, 2.0],
                                     [True, True])
    with pytest.raises(TangentUndefinedError, match="right anchor"):
        relax.tangent_points_through("tanh", [-1.0, -2.0], [1.0, -0.5],
                                     [False, False])


@pytest.mark.parametrize("act, anchor, l, u", [("sigmoid", "left", -8.0, 0.1),
                                               ("tanh", "right", -0.1, 8.0)])
def test_tangent_points_need_the_case_test(act, anchor, l, u):
    # case2 / case4 intervals: the far endpoint is not on the valid side, so
    # the tangent through the anchor touches outside [l, u]
    assert not anchored(act, anchor, l, u)
    want = rf"{anchor} end of \[{l}, {u}\]"
    with pytest.raises(TangentUndefinedError, match=want):
        tangent_point(act, anchor, l, u)
    # in a batch behind an interval whose tangent is defined
    with pytest.raises(TangentUndefinedError, match=want):
        relax.tangent_points_through(act, [-2.0, l], [2.0, u],
                                     [anchor == "left"] * 2)


def anchored_intervals(act, seed, count=200):
    """``count`` intervals with ends 1e-6 to 30 from 0 and one anchor each,
    left or right, on which that anchor passes its case test."""
    rng = np.random.default_rng(seed)
    l, u, left = [], [], []
    while len(l) < count:
        lo = -10.0 ** rng.uniform(-6, np.log10(30.0))
        hi = 10.0 ** rng.uniform(-6, np.log10(30.0))
        anchor = rng.choice(["left", "right"])
        if anchored(act, anchor, lo, hi):
            l.append(lo)
            u.append(hi)
            left.append(anchor == "left")
    return np.array(l), np.array(u), np.array(left)


@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_tangent_points_lie_on_the_valid_side_inside_the_bracket(act):
    # the solver's contract, batched and one at a time: each point lies
    # between the inflection point and the far end, and passes the case
    # test's own valid-side comparison (the tangent's value at the anchor
    # against f there) with the activation's jet
    l, u, left = anchored_intervals(act, {"sigmoid": 31, "tanh": 32}[act])
    got = relax.tangent_points_through(act, l, u, left)
    alone = [tangent_point(act, "left" if a else "right", lo, hi)
             for lo, hi, a in zip(l, u, left)]
    assert got.tolist() == alone
    e, far = np.where(left, l, u), np.where(left, u, l)
    assert np.all(np.where(left, (0.0 < got) & (got <= far),
                           (far <= got) & (got < 0.0)))
    fd, dfd = ACTIVATION_JETS[act](got, 1)
    t, fe = dfd * (e - got) + fd, ACTIVATIONS[act](e)
    assert np.all(np.where(left, t >= fe, t <= fe))


@pytest.mark.parametrize("act", ["sigmoid", "tanh"])
def test_tangent_points_are_within_the_tolerance_of_the_exact_root(act):
    # against the root of the gap at 50 digits: within 2**-39 |far| wherever
    # the gap's slope there times the tolerance 2**-40 |far| exceeds 1e-14,
    # that is, outside the band in which rounding decides the gap's sign
    mpmath = pytest.importorskip("mpmath")
    l, u, left = anchored_intervals(act, {"sigmoid": 33, "tanh": 34}[act],
                                    600)
    got = relax.tangent_points_through(act, l, u, left)
    # most drawn intervals lie inside the band; the float slope at the
    # returned point spares their exact roots
    e, far = np.where(left, l, u), np.where(left, u, l)
    slope = ACTIVATION_JETS[act](got)[2] * (e - got)
    near = np.abs(slope) * 2.0 ** -40 * np.abs(far) > 0.5e-14
    got, l, u, left = got[near], l[near], u[near], left[near]
    checked = 0
    with mpmath.workdps(50):
        if act == "tanh":
            def jet(z):
                t = mpmath.tanh(z)
                return t, 1 - t * t, -2 * t * (1 - t * t)
        else:
            def jet(z):
                s = 1 / (1 + mpmath.exp(-z))
                return s, s * (1 - s), s * (1 - s) * (1 - 2 * s)
        for d, lo, hi, a in zip(got, l, u, left):
            e, far = mpmath.mpf(lo if a else hi), mpmath.mpf(hi if a else lo)
            fe = jet(e)[0]
            # bisect between 0 (invalid) and the far end to 1e-51 |far|
            inner, outer = mpmath.mpf(0), far
            for _ in range(170):
                mid = (inner + outer) / 2
                f, df, _ = jet(mid)
                if (df * (e - mid) + f - fe) * (1 if a else -1) < 0:
                    inner = mid
                else:
                    outer = mid
            root = (inner + outer) / 2
            slope = jet(root)[2] * (e - root)
            tol = 2.0 ** -40 * abs(float(far))
            if abs(float(slope)) * tol > 1e-14:
                checked += 1
                assert abs(mpmath.mpf(float(d)) - root) <= 2 * tol, (lo, hi, a)
    assert checked >= 50


@pytest.mark.parametrize("act, l, u, left, message", [
    ("sigmoid", 0.5, 2.0, True,
     "left anchor 0.5 not below the inflection point"),
    ("tanh", -2.0, 0.0, False,
     "right anchor 0.0 not above the inflection point"),
    ("sigmoid", -8.0, 0.1, True,
     "the tangent through the left end of [-8.0, 0.1] touches outside it"),
    ("tanh", -0.1, 8.0, False,
     "the tangent through the right end of [-0.1, 8.0] touches outside it"),
])
def test_tangent_points_raise_with_their_messages(act, l, u, left, message):
    with pytest.raises(TangentUndefinedError) as err:
        relax.tangent_points_through(act, [l], [u], [left])
    assert str(err.value) == message


#: the first and second derivatives in closed form, given z and f(z)
DERIVATIVES = {
    "relu": (lambda z, a: (z > 0.0).astype(float),
             lambda z, a: np.zeros_like(z)),
    "sigmoid": (lambda z, a: a * (1.0 - a),
                lambda z, a: a * (1.0 - a) * (1.0 - 2.0 * a)),
    "tanh": (lambda z, a: 1.0 - a * a,
             lambda z, a: -2.0 * a * (1.0 - a * a)),
}


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_activation_jets_match_the_separate_functions(act):
    z = np.random.default_rng(4).uniform(-40, 40, 500)
    a = ACTIVATIONS[act](z)
    want = [a.tolist()] + [d(z, a).tolist() for d in DERIVATIVES[act]]
    assert [x.tolist() for x in ACTIVATION_JETS[act](z)] == want
    assert [x.tolist() for x in ACTIVATION_JETS[act](z, 1)] == want[:2]
