import numpy as np
import pytest

from netcert import certify, frown, oracle
from netcert.model import (
    ModelError,
    Network,
    PerturbationSpec,
    generate_random_network,
    load_network,
    load_sample,
)

from conftest import boundary_sample, data_path, linear_two_class_net


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

        def counting(net, spec, config=None):
            radii.append(spec.epsilon)
            return real(net, spec, config)

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

    def counting(net, spec, config=None):
        radii.append(spec.epsilon)
        return real(net, spec, config)

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
