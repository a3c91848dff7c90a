import itertools
import warnings

import numpy as np
import pytest

from netcert import certify, crown, frown, lp, oracle, simplex
from netcert.model import (
    ModelError,
    Network,
    PerturbationSpec,
    forward,
    generate_random_network,
    jacobian,
    load_network,
    load_sample,
    preactivations,
)

from conftest import (
    bisect_radius,
    boundary_sample,
    data_path,
    linear_two_class_net,
)


def test_certified_at_linear_net():
    net = linear_two_class_net()
    # while eps < 0.5 both hidden neurons are one-signed, the analysis is
    # exact, and the margin is 1 - 2 eps
    ok, marg = certify.certified_at(net, [0.5], 0, 0.4, np.inf)
    assert ok and marg[0] == pytest.approx(0.2)
    ok, marg = certify.certified_at(net, [0.5], 0, 0.45, np.inf)
    assert ok and marg[0] == pytest.approx(0.1)
    ok, marg = certify.certified_at(net, [0.5], 0, 0.6, np.inf)
    assert not ok and marg[0] < 0


def test_search_linear_net_radius():
    cert = certify.search_epsilon(linear_two_class_net(), [0.5], 0, np.inf,
                                  rel_tol=1e-3)
    assert cert.epsilon_certified == pytest.approx(0.5, rel=1.5e-3)
    assert not cert.cap_hit and not cert.never_certified
    assert cert.iterations > 0 and cert.wall_time >= 0
    # certificate invariants: certified at the radius, not certified just above
    ok, marg = certify.certified_at(linear_two_class_net(), [0.5], 0,
                                    cert.epsilon_certified, np.inf)
    assert ok and marg.min() >= -1e-9
    ok, _ = certify.certified_at(
        linear_two_class_net(), [0.5], 0,
        cert.epsilon_certified * (1 + 2 * cert.rel_tol), np.inf)
    assert not ok


def test_targeted_mode():
    net = linear_two_class_net()
    cert = certify.search_epsilon(net, [0.5], 0, np.inf, target=1)
    assert cert.mode == "targeted"
    assert cert.epsilon_certified == pytest.approx(0.5, rel=1.5e-3)
    with pytest.raises(ValueError):
        certify.certified_at(net, [0.5], 0, 0.1, np.inf, target=0)
    with pytest.raises(ValueError):
        certify.certified_at(net, [0.5], 0, 0.1, np.inf, target=5)


def test_constant_gap_net_hits_cap():
    w1 = np.array([[1.0], [-1.0]])
    net = Network((w1, np.zeros((2, 2))),
                  (np.zeros(2), np.array([1.0, 0.0])), "relu")
    cert = certify.search_epsilon(net, [0.5], 0, np.inf, cap=10.0)
    assert cert.cap_hit
    assert cert.epsilon_certified == 10.0


@pytest.mark.parametrize("cap", [5e-4, certify.BRACKET_START])
def test_cap_at_or_below_bracket_start_is_probed_once(cap, monkeypatch):
    net = load_network(data_path("linear2.json"))
    x0, label = load_sample(data_path("linear2_sample.json"))
    probes = []
    original = certify.certified_at

    def counting(*args, **kwargs):
        probes.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(certify, "certified_at", counting)
    cert = certify.search_epsilon(net, x0, label, np.inf, "crown", cap=cap)
    assert probes == [cap]
    assert cert.iterations == 1
    assert cert.cap_hit and cert.epsilon_certified == cap


def test_never_certified_flag():
    # prediction with a tied argmax elsewhere: force label to the loser
    net = linear_two_class_net()
    with pytest.warns(UserWarning):
        cert = certify.search_epsilon(net, [0.5], 1, np.inf)
    assert cert.never_certified
    assert cert.epsilon_certified == 0.0
    # the cap, then the smallest halving point
    assert cert.iterations <= 3


def test_radius_ordering_crown_frown():
    cfg = frown.OptimizerConfig(max_iters=40, group_size=8)
    for seed in range(3):
        net = generate_random_network(seed, [6, 8, 8, 4], "sigmoid", scale=2.0)
        x0, label = boundary_sample(net, 40 + seed)
        cc = certify.search_epsilon(net, x0, label, np.inf, "crown", cap=2.0)
        cf = certify.search_epsilon(net, x0, label, np.inf, "frown", cap=2.0,
                                    frown_config=cfg)
        assert cc.epsilon_certified <= cf.epsilon_certified + 1e-9


def test_frown_search_runs_no_frown_on_probes_crown_certifies(monkeypatch):
    cfg = frown.OptimizerConfig(max_iters=10, group_size=8)
    real = frown.frown_propagate
    for seed in range(2):
        net = generate_random_network(seed, [6, 8, 8, 4], "sigmoid", scale=2.0)
        x0, label = boundary_sample(net, 40 + seed)
        radii = []

        def counting(net, spec, config=None, **kwargs):
            radii.append(spec.epsilon)
            return real(net, spec, config, **kwargs)

        monkeypatch.setattr(certify.frown, "frown_propagate", counting)
        cert = certify.search_epsilon(net, x0, label, np.inf, "frown",
                                      cap=2.0, frown_config=cfg)
        monkeypatch.setattr(certify.frown, "frown_propagate", real)
        assert 0 < len(radii) < cert.iterations
        # when crown answered the last probe, frown runs once more after the
        # search, for the certificate's margins
        if certify.certified_at(net, x0, label, cert.epsilon_certified,
                                np.inf, "crown")[0]:
            assert radii.pop() == cert.epsilon_certified
        for eps in radii:
            assert not certify.certified_at(net, x0, label, eps, np.inf,
                                            "crown")[0], (seed, eps)


def test_targeted_frown_search(monkeypatch):
    cfg = frown.OptimizerConfig(max_iters=10, group_size=8)
    net = generate_random_network(1, [6, 8, 8, 4], "sigmoid", scale=2.0)
    x0, label = boundary_sample(net, 41)
    target = 0
    assert label != target
    crown_radius = certify.search_epsilon(
        net, x0, label, np.inf, "crown", target=target,
        cap=2.0).epsilon_certified
    # against this target crown certifies far beyond its untargeted radius,
    # so a screen that dropped the target would leave frown those probes
    assert crown_radius > 2 * certify.search_epsilon(
        net, x0, label, np.inf, "crown", cap=2.0).epsilon_certified
    real = frown.frown_propagate
    radii = []

    def counting(net, spec, config=None, **kwargs):
        radii.append(spec.epsilon)
        return real(net, spec, config, **kwargs)

    monkeypatch.setattr(certify.frown, "frown_propagate", counting)
    cert = certify.search_epsilon(net, x0, label, np.inf, "frown",
                                  target=target, cap=2.0, frown_config=cfg)
    monkeypatch.setattr(certify.frown, "frown_propagate", real)
    assert cert.mode == "targeted" and cert.target == target
    eps = cert.epsilon_certified
    assert certify.certified_at(net, x0, label, eps, np.inf, "frown",
                                target=target, frown_config=cfg)[0]
    assert eps >= crown_radius
    assert radii
    for probed in radii:
        if probed != eps:
            assert not certify.certified_at(net, x0, label, probed, np.inf,
                                            "crown", target=target)[0]


def test_an_unscreened_frown_probe_runs_crown_once(monkeypatch):
    # the probe's crown screen and frown's fold baseline are one crown pass
    cfg = frown.OptimizerConfig(max_iters=10, group_size=8)
    propagate, original = crown.propagate, certify.certified_at
    for seed in range(2):
        net = generate_random_network(seed, [6, 8, 8, 4], "sigmoid", scale=2.0)
        x0, label = boundary_sample(net, 40 + seed)
        calls, inside = [], []    # (eps, method, crown passes inside)

        def counting(net, spec):
            inside.append(spec.epsilon)
            return propagate(net, spec)

        def recording(*args, **kwargs):
            inside.clear()
            result = original(*args, **kwargs)
            calls.append((args[3], args[5], len(inside)))
            return result

        monkeypatch.setattr(crown, "propagate", counting)
        monkeypatch.setattr(certify, "certified_at", recording)
        certify.search_epsilon(net, x0, label, np.inf, "frown", cap=2.0,
                               frown_config=cfg)
        monkeypatch.setattr(crown, "propagate", propagate)
        monkeypatch.setattr(certify, "certified_at", original)
        probes = [(screen, run) for screen, run in zip(calls, calls[1:])
                  if (screen[:2], run[:2]) == ((run[0], "crown"),
                                               (screen[0], "frown"))]
        assert probes
        for screen, run in probes:
            assert (screen[2], run[2]) == (1, 0), (seed, screen, run)


def test_a_carry_hands_crown_bounds_only_to_the_same_ball(monkeypatch):
    cfg = frown.OptimizerConfig(max_iters=10, group_size=8)
    net = generate_random_network(0, [6, 8, 8, 4], "sigmoid", scale=2.0)
    other = generate_random_network(1, [6, 8, 8, 4], "sigmoid", scale=2.0)
    x0, label = boundary_sample(net, 40)
    propagate, passes = crown.propagate, []
    monkeypatch.setattr(crown, "propagate", lambda *args: passes.append(
        args) or propagate(*args))
    carry = certify._Carry()
    certify.certified_at(net, x0, label, 0.1, np.inf, "crown", carry=carry)
    for case, runs_crown in (((net, x0, 0.1, np.inf), False),
                             ((other, x0, 0.1, np.inf), True),
                             ((net, x0 + 1e-3, 0.1, np.inf), True),
                             ((net, x0, 0.2, np.inf), True),
                             ((net, x0, 0.1, 2.0), True)):
        n, x, eps, p = case
        passes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # label is not other's prediction
            got = certify.certified_at(n, x, label, eps, p, "frown", None,
                                       cfg, carry=carry)
            fresh = certify.certified_at(n, x, label, eps, p, "frown", None,
                                         cfg)
        assert len(passes) == 1 + runs_crown, case
        assert got[0] == fresh[0] and got[1].tobytes() == fresh[1].tobytes()


def test_frown_decision_reads_only_what_it_needs():
    # given a label, frown optimizes only the output groups holding a bound
    # the decision reads and stops once it certifies: the decision is that
    # of the full run, and every bound it does not read stays crown's
    decisions = set()
    for act, seed, group_size in itertools.product(
            ("relu", "sigmoid", "tanh"), (0, 1), (1, 8)):
        net = generate_random_network(seed, [6, 8, 8, 4], act, scale=2.0)
        x0, label = boundary_sample(net, 40 + seed)
        cfg = frown.OptimizerConfig(max_iters=10, group_size=group_size)
        for target in (None, (label + 1) % 4):
            def full_decision(eps):
                full = frown.frown_propagate(
                    net, PerturbationSpec(x0, np.inf, eps), cfg)
                return crown.score(
                    crown.margins(full.output_lower, full.output_upper,
                                  label), label, target) >= 0.0

            crown_radius = certify.search_epsilon(
                net, x0, label, np.inf, "crown", target,
                cap=2.0).epsilon_certified
            # the largest radius the full run certifies, where the output
            # layer's ascent decides
            frown_radius = bisect_radius(full_decision, 2.0, 1e-2)[0]
            for eps in (0.5 * crown_radius, 0.5 * (crown_radius + frown_radius),
                        frown_radius, 1.5 * frown_radius):
                spec = PerturbationSpec(x0, np.inf, eps)
                decision = full_decision(eps)
                ok, marg = certify.certified_at(net, x0, label, eps, np.inf,
                                                "frown", target, cfg)
                cell = (act, seed, group_size, target, eps)
                assert ok == decision, cell
                decisions.add((ok, certify.certified_at(
                    net, x0, label, eps, np.inf, "crown", target)[0]))
                read = certify.output_bounds(net, spec, "frown", cfg,
                                             label=label, target=target)
                assert crown.margins(read.output_lower, read.output_upper,
                                     label).tobytes() == marg.tobytes()
                if group_size == 1:
                    cb = crown.propagate(net, spec)
                    lower = np.arange(4) != label
                    upper = (np.arange(4) == label if target is None
                             else np.arange(4) != target)
                    assert np.array_equal(read.output_lower[lower],
                                          cb.output_lower[lower]), cell
                    assert np.array_equal(read.output_upper[upper],
                                          cb.output_upper[upper]), cell
                assert not oracle.sample_check(net, spec, read, 2000,
                                               seed=seed), cell
    # certified by frown only, where the stop can end the ascent, and not at
    # all, where the output layer runs in full
    assert {(True, False), (False, False)} <= decisions


def test_certificate_margins_are_frowns_at_the_radius():
    cfg = frown.OptimizerConfig(max_iters=10, group_size=8)
    for seed in range(3):
        net = generate_random_network(seed, [6, 8, 8, 4], "sigmoid", scale=2.0)
        x0, label = boundary_sample(net, 40 + seed)
        crown_radius = certify.search_epsilon(net, x0, label, np.inf, "crown",
                                              cap=2.0).epsilon_certified
        # below crown's radius the search ends at the cap, a probe crown
        # answers, so the margins come from the run after the search
        for cap in (2.0, 0.5 * crown_radius):
            cert = certify.search_epsilon(net, x0, label, np.inf, "frown",
                                          cap=cap, frown_config=cfg)
            eps = cert.epsilon_certified
            ok, marg = certify.certified_at(net, x0, label, eps, np.inf,
                                            "frown", frown_config=cfg)
            assert ok
            assert np.asarray(cert.margins).tobytes() == marg.tobytes()
        assert cert.cap_hit
        ok, crown_marg = certify.certified_at(net, x0, label, eps, np.inf,
                                              "crown")
        assert ok and crown_marg.tobytes() != marg.tobytes()


def test_certified_radius_below_exact_adversarial_distortion():
    for seed in (1, 3):
        net = generate_random_network(seed, [3, 4, 4, 3], "relu", scale=1.0)
        x0, label = boundary_sample(net, seed)
        cert = certify.search_epsilon(net, x0, label, np.inf, "crown", cap=4.0)
        if cert.never_certified:
            continue
        # exact check at the certified radius: no class flip may exist
        spec = PerturbationSpec(x0, np.inf, cert.epsilon_certified)
        others = [j for j in range(3) if j != label]
        for j in others:
            c = np.zeros(3)
            c[label] = 1.0
            c[j] = -1.0
            er = oracle.exact_output_functional_range(net, spec, c)
            assert er.min >= -1e-7, (seed, j)


def test_lp_method_and_p2_rejection():
    net = linear_two_class_net()
    cert = certify.search_epsilon(net, [0.5], 0, np.inf, method="lp")
    assert cert.epsilon_certified == pytest.approx(0.5, rel=1.5e-3)
    from netcert.lp import LpUnsupportedError
    with pytest.raises(LpUnsupportedError):
        certify.certified_at(net, [0.5], 0, 0.1, 2, method="lp")


def test_lp_probe_reads_every_margin_of_the_full_bounds():
    # an lp probe solves only the output bounds its margins read, in
    # targeted mode too; the margins are those of every output bound, all
    # finite, and a certificate reports them
    net = generate_random_network(2, [4, 6, 5, 3], "relu", scale=1.0)
    x0, label = boundary_sample(net, 42)
    spec = PerturbationSpec(x0, np.inf, 0.02)
    full = lp.lp_propagate(net, spec)
    want = crown.margins(full.output_lower, full.output_upper, label)
    for target in (None, (label + 1) % 3):
        _, marg = certify.certified_at(net, x0, label, 0.02, np.inf, "lp",
                                       target)
        assert np.all(np.isfinite(marg))
        assert np.all(np.abs(marg - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))
        cert = certify.search_epsilon(net, x0, label, np.inf, "lp",
                                      target=target)
        assert marg.shape == cert.margins.shape
        assert np.all(np.isfinite(cert.margins))
    bounds = certify.output_bounds(net, spec, "lp", label=label)
    others = np.arange(3) != label
    assert np.all(bounds.output_lower[others] == -np.inf)
    assert bounds.output_upper[label] == np.inf
    assert np.all(np.isfinite(certify.output_bounds(net, spec, "lp")
                              .output_upper))


def test_search_rejects_non_finite_cap():
    for cap in (np.inf, np.nan, 0.0):
        with pytest.raises(ModelError):
            certify.search_epsilon(linear_two_class_net(), [0.5], 0, np.inf,
                                   cap=cap)


def test_certificate_serialization_round_trip():
    import json
    cert = certify.search_epsilon(linear_two_class_net(), [0.5], 0, 1)
    doc = json.loads(json.dumps(cert.to_dict()))
    assert doc["epsilon_certified"] == cert.epsilon_certified
    assert doc["p"] == 1.0
    assert doc["method"] == "crown"
    assert len(doc["margins"]) == 1


def recorded_probes(monkeypatch) -> dict:
    """Every radius ``certify.certified_at`` answers from now on, with its
    answer."""
    probed = {}
    original = certify.certified_at

    def recording(*args, **kwargs):
        ok, marg = original(*args, **kwargs)
        probed[args[3]] = ok
        return ok, marg

    monkeypatch.setattr(certify, "certified_at", recording)
    return probed


def assert_probed_bracket(cert, probed: dict, cap: float):
    """The radius is a probed certified point with a probed uncertified
    point (or the cap) within rel_tol above it; a search that certifies
    nothing probed the smallest halving point and failed there."""
    eps = cert.epsilon_certified
    if cert.never_certified:
        smallest = min(certify.BRACKET_START, cap) * 2.0 ** (
            -certify.BRACKET_HALVINGS)
        assert probed[smallest] is False
        return
    assert probed[eps] is True
    assert cert.cap_hit or any(
        not ok and eps < e <= eps * (1 + cert.rel_tol)
        for e, ok in probed.items())


def _search_case(name: str):
    if name.startswith("relu-"):
        seed = int(name.split("-")[1])
        net = generate_random_network(seed, [3, 8, 8, 3], "relu")
        return (net, *boundary_sample(net, seed))
    network, sample = {
        "linear2": ("linear2.json", "linear2_sample.json"),
        "toy": ("toy_relu.json", "toy_sample.json"),
        "sigmoid": ("sigmoid_3_10_10_2.json", "small3_sample.json"),
        "tanh": ("tanh_3_10_10_2.json", "small3_sample.json"),
    }[name]
    net = load_network(data_path(network))
    x0, _ = load_sample(data_path(sample))
    # the network's own prediction: small3_sample's label is the golden
    # files' label, which the sigmoid net does not predict
    return net, x0, int(np.argmax(forward(net, x0)))


@pytest.mark.parametrize("method", ["crown", "lp"])
@pytest.mark.parametrize("name", ["linear2", "toy", "sigmoid", "tanh",
                                  "relu-0", "relu-1", "relu-2", "relu-3"])
def test_guided_search_ends_where_bisection_does(name, method, monkeypatch):
    net, x0, label = _search_case(name)
    cap, rel_tol = 1.0, 1e-2
    ref, ref_probes, ref_cap_hit, ref_never = bisect_radius(
        lambda eps: certify.certified_at(net, x0, label, eps, np.inf,
                                         method)[0], cap, rel_tol)
    probed = recorded_probes(monkeypatch)
    cert = certify.search_epsilon(net, x0, label, np.inf, method,
                                  rel_tol=rel_tol, cap=cap)
    assert cert.epsilon_certified == ref
    assert (cert.cap_hit, cert.never_certified) == (ref_cap_hit, ref_never)
    assert cert.iterations <= len(ref_probes)
    assert_probed_bracket(cert, probed, cap)


def _lp_search_case(name: str):
    """``_search_case``, but a relu net's x0 is drawn from its seed, not
    picked near the decision boundary: there the radii are so small that
    every hidden neuron is stable, and lp answers each probe in closed form
    with no LP to start from a basis."""
    if not name.startswith("relu-"):
        return _search_case(name)
    seed = int(name.split("-")[1])
    net = generate_random_network(seed, [3, 8, 8, 3], "relu")
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
    return net, x0, int(np.argmax(forward(net, x0)))


@pytest.mark.parametrize("name", ["linear2", "toy", "sigmoid", "tanh",
                                  "relu-0", "relu-1", "relu-2", "relu-3"])
def test_lp_search_from_earlier_bases_matches_cold_probes(name, monkeypatch):
    # an lp search starts each probe's LPs from the previous probe's optimal
    # bases; a start moves where the pivots begin, not the optimum, so the
    # search ends as one whose probes each start at their crown vertices
    net, x0, label = _lp_search_case(name)
    starts = []
    start = simplex._start
    monkeypatch.setattr(simplex, "_start", lambda *args:
                        starts.append(start(*args)) or starts[-1])
    warm = certify.search_epsilon(net, x0, label, np.inf, "lp")
    monkeypatch.setattr(simplex, "_start", start)
    propagate = lp.lp_propagate
    monkeypatch.setattr(lp, "lp_propagate",
                        lambda *args, bases=None, **kwargs:
                        propagate(*args, **kwargs))
    cold = certify.search_epsilon(net, x0, label, np.inf, "lp")
    assert warm.epsilon_certified == cold.epsilon_certified
    assert (warm.cap_hit, warm.never_certified) == (cold.cap_hit,
                                                    cold.never_certified)
    assert warm.iterations == cold.iterations
    if warm.iterations > 1:
        assert any(s is not None for s in starts)
    # a margin is the difference of two bounds, whose rounding scales with
    # their own size, not with the margin's
    spec = PerturbationSpec(x0, np.inf, cold.epsilon_certified)
    bounds = propagate(net, spec, label=label)
    others = np.arange(len(bounds.output_upper)) != label
    scale = (abs(bounds.output_lower[label])
             + np.abs(bounds.output_upper[others]))
    assert np.all(np.abs(warm.margins - cold.margins) <= 1e-12 * scale)


def test_frown_search_probes_every_point_of_the_bisection(monkeypatch):
    cfg = frown.OptimizerConfig(max_iters=10, group_size=8)
    original = certify.certified_at
    for seed in range(2):
        net = generate_random_network(seed, [6, 8, 8, 4], "sigmoid", scale=2.0)
        x0, label = boundary_sample(net, 40 + seed)
        calls = []

        def recording(*args, **kwargs):
            calls.append((args[3], args[5]))          # (eps, method)
            return original(*args, **kwargs)

        def screened(eps):
            return (certify.certified_at(net, x0, label, eps, np.inf,
                                         "crown")[0]
                    or certify.certified_at(net, x0, label, eps, np.inf,
                                            "frown", None, cfg)[0])

        monkeypatch.setattr(certify, "certified_at", recording)
        ref, ref_probes, _, _ = bisect_radius(screened, 2.0)
        ref_calls = list(calls)
        calls.clear()
        cert = certify.search_epsilon(net, x0, label, np.inf, "frown",
                                      cap=2.0, frown_config=cfg)
        monkeypatch.setattr(certify, "certified_at", original)
        assert cert.epsilon_certified == ref
        assert cert.iterations == len(ref_probes)
        # after the walk, frown may run once more at a screened radius, for
        # the certificate's margins
        assert calls[:len(ref_calls)] == ref_calls
        assert calls[len(ref_calls):] in ([], [(ref, "frown")])


def test_crown_is_not_monotone_in_eps_and_the_search_keeps_a_bracket(
        monkeypatch):
    # crown's default relu lower slope is 1 when u >= -l and 0 otherwise;
    # between eps 0.030 and 0.031 it flips for one layer-7 neuron, and the
    # layer-8 and output intervals at 0.031 are not supersets of those at
    # 0.030.  The sample is task 67 of perfbench crown-wide at seed 31
    net = generate_random_network(4168402175, [20] + [24] * 8 + [10], "relu",
                                  1.0)
    x0, label = load_sample(data_path("nonmonotone_sample.json"))
    assert label == 9
    ok, marg = zip(*(certify.certified_at(net, x0, label, eps, 2.0)
                     for eps in (0.026, 0.030, 0.031)))
    assert ok == (True, False, True)
    assert marg[1].min() == pytest.approx(-6.4, abs=0.05)
    probed = recorded_probes(monkeypatch)
    cert = certify.search_epsilon(net, x0, label, 2.0, "crown", cap=0.06)
    assert not cert.cap_hit and not cert.never_certified
    assert_probed_bracket(cert, probed, 0.06)


def _premise_case(act: str, seed: int):
    """A random 3-6-5-4 net, an x0 drawn from its seed and the predicted
    label; None for a relu net with a pre-activation within 1e-6 of its
    kink, where the logits have no Jacobian."""
    net = generate_random_network(seed, [3, 6, 5, 4], act)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
    if act == "relu" and any(np.abs(z).min() < 1e-6 for z in
                             list(preactivations(net, x0[None]))[:-1]):
        return None
    return net, x0, int(np.argmax(forward(net, x0)))


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_jacobian_matches_central_differences(act):
    h = 1e-6
    for seed in range(4):
        case = _premise_case(act, seed)
        if case is None:
            continue
        net, x0, _ = case
        steps = h * np.eye(3)
        fd = np.column_stack([(forward(net, x0 + s) - forward(net, x0 - s))
                              / (2 * h) for s in steps])
        np.testing.assert_allclose(jacobian(net, x0), fd, rtol=1e-6,
                                   atol=1e-8)


@pytest.mark.parametrize("method, menu, p", [
    ("crown", None, 1.0), ("crown", None, 2.0), ("crown", None, np.inf),
    ("lp", "multi", 1.0), ("lp", "multi", np.inf),
    ("lp", "single", 1.0), ("lp", "single", np.inf)])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_each_margins_first_order_slope_is_the_engines(act, method, menu, p):
    # the search's model starts from these slopes: crown's and lp's bounds
    # of each logit are exact to first order in eps, so each margin's slope
    # at 0 is -(||J_label||_q + ||J_j||_q).  Per margin, not per score: the
    # score's slope at 0 is that of the smallest gap, which need not be the
    # margin with the smallest first-order root
    h = 1e-7
    lp_menu = None if menu is None else getattr(lp.RelaxationMenu, menu)()
    checked = 0
    for seed in range(4):
        case = _premise_case(act, seed)
        if case is None:
            continue
        net, x0, label = case
        gaps, slopes = certify._first_order(net, x0, label, p)
        assert np.all(slopes < 0)
        _, marg = certify.certified_at(net, x0, label, h, p, method,
                                       lp_menu=lp_menu)
        np.testing.assert_allclose((marg - gaps) / h, slopes, rtol=1e-4)
        checked += 1
    assert checked >= 2


def test_a_one_output_net_is_probed_at_the_cap_only(monkeypatch):
    # no margin, so no slope: the guess falls back to the cap at once
    net = Network((np.array([[1.0], [-1.0]]), np.array([[1.0, 2.0]])),
                  (np.zeros(2), np.zeros(1)), "tanh")
    gaps, slopes = certify._first_order(net, [0.3], 0, np.inf)
    assert gaps.size == slopes.size == 0
    for method in ("crown", "lp"):
        probed = recorded_probes(monkeypatch)
        cert = certify.search_epsilon(net, [0.3], 0, np.inf, method, cap=2.0)
        assert probed == {2.0: True}
        assert cert.cap_hit and cert.epsilon_certified == 2.0


def test_a_constant_gap_has_slope_zero_and_is_probed_at_the_cap_only(
        monkeypatch):
    # the net of test_constant_gap_net_hits_cap: s0 = 0, the model has no
    # root, and the first probe is the cap, not a first-order root
    w1 = np.array([[1.0], [-1.0]])
    net = Network((w1, np.zeros((2, 2))),
                  (np.zeros(2), np.array([1.0, 0.0])), "relu")
    gaps, slopes = certify._first_order(net, [0.5], 0, np.inf)
    assert gaps.tolist() == [1.0] and slopes.tolist() == [0.0]
    for method in ("crown", "lp"):
        probed = recorded_probes(monkeypatch)
        cert = certify.search_epsilon(net, [0.5], 0, np.inf, method)
        assert probed == {10.0: True}
        assert cert.cap_hit and cert.iterations == 1


@pytest.mark.parametrize("method", ["crown", "lp", "frown"])
def test_a_label_that_is_not_the_prediction_takes_one_probe(method,
                                                            monkeypatch):
    # every engine's bounds hold the logits at x0, so from a negative gap
    # no radius certifies: the search probes only the smallest halving
    # point its ending rests on (a frown search probed all 21 points of
    # the walk before), and its margins at radius 0 are the logit gaps
    net = generate_random_network(0, [3, 4, 2], "relu")
    x0 = np.zeros(3)
    wrong = 1 - int(np.argmax(forward(net, x0)))
    probed = recorded_probes(monkeypatch)
    with pytest.warns(UserWarning):
        cert = certify.search_epsilon(net, x0, wrong, np.inf, method)
    smallest = certify.BRACKET_START * 2.0 ** -certify.BRACKET_HALVINGS
    assert cert.never_certified and cert.epsilon_certified == 0.0
    assert cert.iterations == 1
    assert probed == {smallest: False}
    gaps, _ = certify._first_order(net, x0, wrong, np.inf)
    assert np.array_equal(cert.margins, gaps)


@pytest.mark.parametrize("method", ["crown", "lp"])
def test_a_targeted_search_models_the_targets_margin(method):
    net = generate_random_network(3, [3, 8, 8, 3], "relu")
    x0, label = boundary_sample(net, 3)
    gaps, slopes = certify._first_order(net, x0, label, np.inf)
    for target in {0, 1, 2} - {label}:
        j = target - (target > label)
        guess = certify._Guess(gaps, slopes, label, target)
        assert guess.slope == pytest.approx(slopes[j], rel=1e-12)
        assert guess.root == pytest.approx(gaps[j] / -slopes[j], rel=1e-12)
        ref, ref_probes, _, _ = bisect_radius(
            lambda eps: certify.certified_at(net, x0, label, eps, np.inf,
                                             method, target)[0], 1.0)
        cert = certify.search_epsilon(net, x0, label, np.inf, method,
                                      target=target, cap=1.0)
        assert cert.epsilon_certified == ref
        assert cert.iterations < len(ref_probes)


#: total probes of the 24 searches of the gate below, as measured when the
#: first-order model came in (the secant and regula-falsi guess before it
#: took 88, bisection 265)
GATE_PROBES = 53


def test_probe_count_gate():
    # 24 fixed crown and lp searches on small generated nets: each ends on
    # bisection's radius, and together they take no more probes than the
    # first-order model took when it came in
    total = 0
    for act, seed, method in itertools.product(
            ("relu", "sigmoid", "tanh"), range(4), ("crown", "lp")):
        net = generate_random_network(seed, [3, 8, 8, 3], act)
        x0, label = boundary_sample(net, seed)
        cert = certify.search_epsilon(net, x0, label, np.inf, method,
                                      cap=1.0, rel_tol=1e-2)
        ref, _, _, _ = bisect_radius(
            lambda eps: certify.certified_at(net, x0, label, eps, np.inf,
                                             method)[0], 1.0, 1e-2)
        assert cert.epsilon_certified == ref
        total += cert.iterations
    assert total <= GATE_PROBES
