import json

import numpy as np
import pytest

from netcert import model
from netcert.model import (
    ModelError,
    Network,
    PerturbationSpec,
    forward,
    generate_random_network,
    load_network,
    save_network,
)


def identity_relu_net():
    # z1 = x, z2 = W2 relu(x) + b2 with W2 = I
    w = np.eye(2)
    return Network((w, w.copy()), (np.zeros(2), np.zeros(2)), "relu")


def test_forward_hand_example():
    net = identity_relu_net()
    out = forward(net, np.array([-1.0, 2.0]))
    assert np.array_equal(out, np.array([0.0, 2.0]))


def test_forward_matches_naive_loop_exactly():
    net = generate_random_network(7, [3, 5, 4, 2], "tanh", scale=0.8)
    x = np.random.default_rng(0).normal(size=3)
    a = x
    for idx in range(net.m):
        z = net.weights[idx] @ a + net.biases[idx]
        a = np.tanh(z) if idx < net.m - 1 else z
    assert np.array_equal(forward(net, x), a)


def test_forward_constant_map_when_last_weights_zero():
    w1 = np.ones((3, 2))
    w2 = np.zeros((2, 3))
    b2 = np.array([0.7, -0.3])
    net = Network((w1, w2), (np.zeros(3), b2), "sigmoid")
    for x in ([0.0, 0.0], [5.0, -2.0], [-1.0, 1.0]):
        assert np.array_equal(forward(net, np.array(x)), b2)


def test_forward_dimension_mismatch():
    net = identity_relu_net()
    with pytest.raises(ModelError):
        forward(net, np.zeros(3))


def test_save_load_round_trip_bit_identical(tmp_path):
    net = generate_random_network(42, [4, 6, 3], "sigmoid", scale=1.3)
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.activation == net.activation
    assert back.widths == net.widths
    for w0, w1 in zip(net.weights, back.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(net.biases, back.biases):
        assert np.array_equal(b0, b1)


def test_load_rejects_shape_chain_violation(tmp_path):
    # layer-2 weights are 3x5 although layer 1 outputs 4 values
    doc = {
        "activation": "relu",
        "widths": [2, 4, 3],
        "weights": [list(range(8)), list(range(15))],
        "biases": [[0.0] * 4, [0.0] * 3],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load_network(path)


def test_load_rejects_unknown_activation(tmp_path):
    doc = {
        "activation": "gelu",
        "widths": [1, 1, 1],
        "weights": [[1.0], [1.0]],
        "biases": [[0.0], [0.0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load_network(path)


def test_load_rejects_non_finite(tmp_path):
    doc = {
        "activation": "relu",
        "widths": [1, 1, 1],
        "weights": [[1.0], [None]],
        "biases": [[0.0], [0.0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace("null", "NaN"))
    with pytest.raises(ModelError):
        load_network(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json {")
    with pytest.raises(ModelError):
        load_network(path)


def test_generate_deterministic_per_seed():
    a = generate_random_network(11, [4, 8, 3], "relu", scale=0.5)
    b = generate_random_network(11, [4, 8, 3], "relu", scale=0.5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_generate_seeds_differ():
    a = generate_random_network(1, [4, 8, 3], "relu")
    b = generate_random_network(2, [4, 8, 3], "relu")
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_generate_widths_contract():
    net = generate_random_network(3, [4, 8, 3], "relu")
    assert net.n == 4
    assert net.m == len([4, 8, 3]) - 1
    assert forward(net, np.zeros(4)).shape == (3,)
    bounds = np.abs(np.concatenate([w.ravel() for w in net.weights]))
    assert bounds.max() <= 1.0


def test_network_requires_two_layers():
    with pytest.raises(ModelError):
        Network((np.eye(2),), (np.zeros(2),), "relu")


def test_spec_validation():
    spec = PerturbationSpec(np.zeros(3), np.inf, 0.1)
    assert spec.q == 1.0
    assert PerturbationSpec(np.zeros(3), 1, 0.1).q == np.inf
    assert PerturbationSpec(np.zeros(3), 2, 0.1).q == 2.0
    with pytest.raises(ModelError):
        PerturbationSpec(np.zeros(3), 3, 0.1)
    with pytest.raises(ModelError):
        PerturbationSpec(np.zeros(3), 2, -0.5)
    for eps in (np.inf, np.nan):
        with pytest.raises(ModelError):
            PerturbationSpec(np.zeros(3), np.inf, eps)


def test_check_input_length():
    net = generate_random_network(0, [3, 4, 2], "relu")
    model.check_input(net, np.zeros(3))
    for x0 in (np.zeros(2), np.zeros(4)):
        with pytest.raises(ModelError):
            model.check_input(net, x0)


def test_activation_tables():
    z = np.linspace(-4, 4, 101)
    h = 1e-6
    for act, tol1, tol2 in (("sigmoid", 1e-8, 1e-6), ("tanh", 1e-7, 1e-5)):
        jet = model.ACTIVATION_JETS[act]
        f, df, d2f = jet(z)
        assert np.array_equal(f, model.ACTIVATIONS[act](z))
        fd = (jet(z + h)[0] - jet(z - h)[0]) / (2 * h)
        assert np.allclose(df, fd, atol=tol1)
        fd2 = (jet(z + h)[1] - jet(z - h)[1]) / (2 * h)
        assert np.allclose(d2f, fd2, atol=tol2)
    # extreme arguments stay finite
    assert model.sigmoid(-1e4) == 0.0
    assert model.sigmoid(1e4) == 1.0


@pytest.mark.parametrize("p", [1, np.inf])
def test_ball_rows_match_coordinate_loop(p):
    spec = PerturbationSpec(np.array([0.3, -1.2, 0.0]), p, 0.25)
    n, n_vars, x_col, r_col = 3, 11, 2, 7
    rows, rhs = [], []
    for t in range(n):
        for sign in (1.0, -1.0):
            row = np.zeros(n_vars)
            row[x_col + t] = sign
            if p == 1:
                row[r_col + t] = -1.0
                rhs.append(sign * spec.x0[t])
            else:
                rhs.append(sign * spec.x0[t] + spec.epsilon)
            rows.append(row)
    if p == 1:
        row = np.zeros(n_vars)
        row[r_col:r_col + n] = 1.0
        rows.append(row)
        rhs.append(spec.epsilon)
    A, b = model.ball_rows(spec, n_vars, x_col, r_col)
    assert np.array_equal(A, np.array(rows))
    assert np.array_equal(b, np.array(rhs))
    inside = np.zeros(n_vars)
    inside[x_col:x_col + n] = spec.x0
    assert np.all(A @ inside <= b)
    with pytest.raises(ValueError):
        model.ball_rows(PerturbationSpec(spec.x0, 2, 0.25), n_vars)
