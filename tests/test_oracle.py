import math

import numpy as np
import pytest

from netcert import crown, frown, lp, oracle
from netcert.model import (
    ModelError,
    PerturbationSpec,
    forward,
    forward_batch,
    generate_random_network,
)

from conftest import positive_bias_relu_net, toy_relu_net


# --- sample_check ---------------------------------------------------------------

def test_clean_bounds_pass():
    net = generate_random_network(1, [4, 6, 5, 3], "relu", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.1), np.inf, 0.3)
    bounds = crown.propagate(net, spec)
    assert oracle.sample_check(net, spec, bounds, 10000, seed=7) == []


def test_corrupted_bound_is_caught():
    net = generate_random_network(1, [4, 6, 5, 3], "relu", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.1), np.inf, 0.3)
    bounds = crown.propagate(net, spec)
    bounds.lower[1] = bounds.lower[1].copy()
    bounds.lower[1][0] += 1.0
    report = oracle.sample_check(net, spec, bounds, 10000, seed=7)
    assert any(v.layer == 2 and v.neuron == 0 and v.side == "lower"
               for v in report)


def test_zero_radius_brackets_exact_forward():
    net = generate_random_network(2, [3, 5, 2], "sigmoid", scale=1.0)
    x0 = np.array([0.2, -0.1, 0.4])
    spec = PerturbationSpec(x0, np.inf, 0.0)
    bounds = crown.propagate(net, spec)
    out = forward(net, x0)
    assert np.allclose(bounds.output_lower, out, atol=1e-9)
    assert oracle.sample_check(net, spec, bounds, 100, seed=0) == []


def test_output_bounds_tuple_form():
    net = generate_random_network(2, [3, 5, 2], "tanh", scale=1.0)
    spec = PerturbationSpec(np.zeros(3), 2, 0.3)
    bounds = crown.propagate(net, spec)
    assert oracle.sample_check(net, spec, bounds, 5000) == []
    # the output layer's lower bounds shifted up by 0.5
    bad = crown.LayerBounds(bounds.lower[:-1] + [bounds.output_lower + 0.5],
                            bounds.upper)
    report = oracle.sample_check(net, spec, bad, 5000)
    assert report
    assert all(v.layer == net.m and v.side == "lower" for v in report)


def test_samples_stay_inside_ball():
    rng = np.random.default_rng(0)
    for p in (1, 2, math.inf):
        spec = PerturbationSpec(np.array([0.3, -0.2, 0.1, 0.0]), p, 0.7)
        xs = oracle.ball_samples(spec, 5000, rng)
        if p == math.inf:
            norms = np.abs(xs - spec.x0).max(axis=1)
        elif p == 2:
            norms = np.linalg.norm(xs - spec.x0, axis=1)
        else:
            norms = np.abs(xs - spec.x0).sum(axis=1)
        assert norms.max() <= spec.epsilon + 1e-12
        # draws should reach most of the radius
        assert norms.max() >= 0.9 * spec.epsilon


def test_sample_count_validation():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, 0.5)
    bounds = crown.propagate(net, spec)
    with pytest.raises(ValueError):
        oracle.sample_check(net, spec, bounds, 0)


# --- exact_output_functional_range -------------------------------------------

def test_toy_exact_range():
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, 1.0)
    er = oracle.exact_output_functional_range(net, spec, [1.0])
    assert er.min == pytest.approx(0.0, abs=1e-9)
    assert er.max == pytest.approx(1.0, abs=1e-9)
    assert er.patterns_searched == 2
    bounds = crown.propagate(net, spec)
    assert bounds.output_lower[0] <= er.min + 1e-9
    assert bounds.output_upper[0] >= er.max - 1e-9


@pytest.mark.parametrize("p", [1, math.inf])
def test_exact_range_brackets_heavy_sampling(p):
    net = generate_random_network(5, [3, 4, 2], "relu", scale=1.0)
    spec = PerturbationSpec(np.array([0.1, -0.2, 0.3]), p, 0.5)
    for neuron in range(2):
        er = oracle.exact_output_functional_range(net, spec,
                                                  np.eye(2)[neuron])
        xs = oracle.ball_samples(spec, 1000000, np.random.default_rng(neuron))
        outs = forward_batch(net, xs)[:, neuron]
        assert er.min <= outs.min() + 1e-9
        assert er.max >= outs.max() - 1e-9
        # the sampled extremes should come close to the exact ones
        assert outs.min() - er.min <= 0.05 * (er.max - er.min)
        assert er.max - outs.max() <= 0.05 * (er.max - er.min)
        assert abs(forward(net, er.argmin)[neuron] - er.min) <= 1e-6
        assert abs(forward(net, er.argmax)[neuron] - er.max) <= 1e-6
        assert np.abs(er.argmin - spec.x0).max() <= spec.epsilon + 1e-9 \
            if p == math.inf else True


def test_exact_range_affine_case_is_closed_form():
    net = positive_bias_relu_net(4, [3, 4, 2], eps=0.25)
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.25)
    w_eff = net.weights[0]
    b_eff = net.biases[0]
    for w, b in zip(net.weights[1:], net.biases[1:]):
        b_eff = w @ b_eff + b
        w_eff = w @ w_eff
    for neuron in range(2):
        er = oracle.exact_output_functional_range(net, spec,
                                                  np.eye(2)[neuron])
        center = w_eff[neuron] @ spec.x0 + b_eff[neuron]
        spread = spec.epsilon * np.abs(w_eff[neuron]).sum()
        assert er.min == pytest.approx(center - spread, abs=1e-9)
        assert er.max == pytest.approx(center + spread, abs=1e-9)


def test_dominance_of_certified_methods():
    for seed in range(3):
        net = generate_random_network(seed, [3, 4, 4, 2], "relu", scale=1.0)
        spec = PerturbationSpec(np.random.default_rng(seed).uniform(-0.3, 0.3, 3),
                                np.inf, 0.3)
        cb = crown.propagate(net, spec)
        fb = frown.frown_propagate(net, spec,
                                      frown.OptimizerConfig(max_iters=30))
        lpb = lp.lp_propagate(net, spec)
        for neuron in range(2):
            er = oracle.exact_output_functional_range(net, spec,
                                                      np.eye(2)[neuron])
            for bounds in (cb, fb, lpb):
                assert bounds.output_lower[neuron] <= er.min + 1e-7
                assert bounds.output_upper[neuron] >= er.max - 1e-7


def test_functional_range_margin():
    net = generate_random_network(9, [3, 4, 2], "relu", scale=1.0)
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.4)
    er = oracle.exact_output_functional_range(net, spec, np.array([1.0, -1.0]))
    xs = oracle.ball_samples(spec, 200000, np.random.default_rng(5))
    diffs = forward_batch(net, xs) @ np.array([1.0, -1.0])
    assert er.min <= diffs.min() + 1e-9
    assert er.max >= diffs.max() - 1e-9


def test_guardrails(monkeypatch):
    net = generate_random_network(0, [4, 17, 2], "relu")
    spec = PerturbationSpec(np.zeros(4), np.inf, 0.1)
    first = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        oracle.exact_output_functional_range(net, spec, first)  # 17 > cap
    net = generate_random_network(0, [4, 6, 2], "sigmoid")
    with pytest.raises(ValueError):
        oracle.exact_output_functional_range(net, spec, first)
    net = generate_random_network(0, [4, 6, 2], "relu")
    with pytest.raises(ValueError):
        oracle.exact_output_functional_range(
            net, PerturbationSpec(np.zeros(4), 2, 0.1), first)
    # out_weights must be a finite vector of the output width, which is
    # checked before any activation pattern's LP is solved
    def no_lp(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(oracle.simplex, "solve_inequality_form", no_lp)
    for bad in ([1.0, np.nan], [1.0], [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="out_weights"):
            oracle.exact_output_functional_range(net, spec, bad)


def test_wrong_length_x0_rejected():
    net = generate_random_network(0, [4, 6, 2], "relu")
    for x0 in (np.zeros(3), np.zeros(5)):
        spec = PerturbationSpec(x0, np.inf, 0.1)
        bounds = crown.LayerBounds([np.full(6, -1e3), np.full(2, -1e3)],
                                   [np.full(6, 1e3), np.full(2, 1e3)])
        with pytest.raises(ModelError):
            oracle.sample_check(net, spec, bounds, 10)
        with pytest.raises(ModelError):
            oracle.exact_output_functional_range(net, spec, [1.0, 0.0])
