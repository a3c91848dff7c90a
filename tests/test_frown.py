import dataclasses

import numpy as np
import pytest

from netcert import crown, frown, oracle, relax
from netcert.model import (
    PerturbationSpec,
    forward,
    generate_random_network,
)

from conftest import positive_bias_relu_net, toy_relu_net


def spaces_for(net, bounds, k):
    return [relax.layer_line_spaces(net.activation,
                                    bounds.lower[v - 1], bounds.upper[v - 1])
            for v in range(1, k)]


def per_record(spaces, var_vec, values):
    """Each LineSpaces record of ``spaces`` with its entries' variable values
    (NaN at fixed entries), in the order of the flat line layout."""
    records = [rec for layer in spaces for rec in layer]
    theta = np.full(len(var_vec.slopes), np.nan)
    theta[var_vec.slots] = values
    ends = np.cumsum([0] + [len(rec) for rec in records])
    return [(rec, theta[a:b]) for rec, a, b in zip(records, ends, ends[1:])]


def toy_setup(eps=1.0):
    net = toy_relu_net()
    spec = PerturbationSpec(np.zeros(1), np.inf, eps)
    bounds = crown.propagate(net, spec)
    return net, spec, spaces_for(net, bounds, 2)


# --- objective and gradient ----------------------------------------------------

def test_toy_closed_form_objective():
    net, spec, spaces = toy_setup()
    vv = frown.collect_variables(spaces)
    assert len(vv) == 1 and vv.start[0] == 1.0
    for s in (0.2, 0.5, 0.9):
        g, grad = frown.objective_and_gradient(
            net, spec, 2, frown.RowGroups.of([[0]], ["lower"]), vv,
            np.array([[s]]))
        assert g[0] == pytest.approx(-spec.epsilon * s)
        assert grad[0, 0] == pytest.approx(-spec.epsilon)


def test_variable_outside_interval_rejected():
    net, spec, spaces = toy_setup()
    bad = dataclasses.replace(frown.collect_variables(spaces),
                              start=np.array([1.5]))
    with pytest.raises(ValueError, match="admissible interval"):
        frown.optimize_bounds(net, spec, 2, [[0]], ["lower"],
                              frown.OptimizerConfig(), bad)


@pytest.mark.parametrize("restarts", [1, 3])
def test_one_seed_per_group_required(restarts):
    net = generate_random_network(3, [4, 6, 5, 3], "sigmoid", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.3)
    vv = frown.collect_variables(spaces_for(net, crown.propagate(net, spec),
                                            3))
    config = frown.OptimizerConfig(max_iters=5, restarts=restarts)
    for seeds in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="one seed per group"):
            frown.optimize_bounds(net, spec, 3, [[0], [1]],
                                  ["lower", "upper"], config, vv, seeds)


def test_no_variables_matches_baseline():
    # all hidden intervals positive: every line space is fixed
    net = positive_bias_relu_net(3, [4, 5, 3], eps=0.2)
    spec = PerturbationSpec(np.zeros(4), np.inf, 0.2)
    bounds = crown.propagate(net, spec)
    spaces = spaces_for(net, bounds, net.m)
    vv = frown.collect_variables(spaces)
    assert len(vv) == 0
    g, grad = frown.objective_and_gradient(
        net, spec, net.m, frown.RowGroups.of([[0]], ["lower"]), vv,
        vv.start[None])
    assert grad.shape == (1, 0)
    assert g[0] == pytest.approx(bounds.output_lower[0])


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_start_of_whole_layer_groups_is_crown_exactly(act):
    # crown and frown run one backward recursion: at the baseline variables
    # on crown's own intervals, a whole-layer group per sense gives crown's
    # lower bounds and negated upper bounds bit for bit
    for seed in (0, 1):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        x0 = np.random.default_rng(seed).uniform(-1, 1, 4)
        for p in (1, 2, np.inf):
            spec = PerturbationSpec(x0, p, 0.3)
            bounds = crown.propagate(net, spec)
            for k in range(2, net.m + 1):
                vv = frown.collect_variables(spaces_for(net, bounds, k))
                rows = list(range(net.layer_width(k)))
                gammas, _ = frown.objective_and_gradient(
                    net, spec, k,
                    frown.RowGroups.of([rows, rows], ["lower", "upper"]), vv,
                    np.tile(vv.start, (2, 1)))
                low, up = bounds.layer(k)
                assert np.array_equal(gammas, np.concatenate([low, -up])), (
                    seed, p, k)


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_gradient_matches_central_differences(act, p):
    net = generate_random_network(11, [4, 6, 5, 3], act, scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), p, 0.35)
    bounds = crown.propagate(net, spec)
    spaces = spaces_for(net, bounds, 3)
    vv = frown.collect_variables(spaces)
    rng = np.random.default_rng(2024)
    h = 1e-5
    for _ in range(5):
        vals = rng.uniform(vv.lo + 0.1 * (vv.hi - vv.lo),
                           vv.hi - 0.1 * (vv.hi - vv.lo))
        for sense in ("lower", "upper"):
            rows = frown.RowGroups.of([[0, 1]], [sense])
            g, grad = frown.objective_and_gradient(
                net, spec, 3, rows, vv, vals[None].copy())
            for e in range(len(vv)):
                vp, vm = vals.copy(), vals.copy()
                vp[e] += h
                vm[e] -= h
                gp = frown.objective_and_gradient(
                    net, spec, 3, rows, vv, vp[None])[0].sum()
                gm = frown.objective_and_gradient(
                    net, spec, 3, rows, vv, vm[None])[0].sum()
                fd = (gp - gm) / (2 * h)
                assert abs(grad[0, e] - fd) <= 1e-4 * max(abs(fd), 1e-8), (
                    act, p, sense, e)


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_materialize_matches_line_space_per_variable(act):
    net = generate_random_network(7, [4, 6, 5, 3], act, scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.35)
    bounds = crown.propagate(net, spec)
    spaces = spaces_for(net, bounds, 3)
    vv = frown.collect_variables(spaces)
    assert len(vv) > 0
    rng = np.random.default_rng(3)
    values = np.vstack([vv.lo, vv.hi, rng.uniform(vv.lo, vv.hi, (4, len(vv)))])
    slopes, intercepts, dslope, dintercept = frown._materialize(vv, values)
    for g, row in enumerate(values):
        expected = [(*rec.members(theta),
                     *relax.family_lines(rec.act, theta, grads=True)[2:])
                    for rec, theta in per_record(spaces, vv, row)]
        s, t, ds, dt = (np.concatenate(part) for part in zip(*expected))
        assert slopes[g].tolist() == s.tolist(), g
        assert intercepts[g].tolist() == t.tolist(), g
        assert dslope[g].tolist() == ds[vv.slots].tolist(), g
        assert dintercept[g].tolist() == dt[vv.slots].tolist(), g


@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_batched_groups_match_one_group_at_a_time(act, p):
    net = generate_random_network(31, [4, 6, 5, 6, 3], act, scale=1.2)
    spec = PerturbationSpec(np.full(4, 0.05), p, 0.3)
    bounds = crown.propagate(net, spec)
    vv = frown.collect_variables(spaces_for(net, bounds, 3))
    for group_size in (1, 3, 6):
        groups = frown._groups(6, group_size)
        for restarts in (1, 3):
            config = frown.OptimizerConfig(max_iters=20, restarts=restarts)
            per_sense = []
            for s_idx, sense in enumerate(("lower", "upper")):
                seeds = [[9, g, s_idx] for g in range(len(groups))]
                batch = frown.optimize_bounds(
                    net, spec, 3, groups, [sense] * len(groups), config, vv,
                    seeds)
                assert batch.shape == (6,)
                per_sense.append((seeds, batch))
                for g, (group, seed) in enumerate(zip(groups, seeds)):
                    one = frown.optimize_bounds(
                        net, spec, 3, [group], [sense], config, vv, [seed])
                    assert np.allclose(batch[group], one, rtol=1e-9,
                                       atol=0), (group_size, restarts, sense,
                                                 g)
            # one batch mixing the lower and the upper groups
            (seeds_l, lower), (seeds_u, upper) = per_sense
            mixed = frown.optimize_bounds(
                net, spec, 3, groups + groups,
                ["lower"] * len(groups) + ["upper"] * len(groups), config,
                vv, seeds_l + seeds_u)
            assert np.allclose(mixed, np.concatenate([lower, upper]),
                               rtol=1e-9, atol=0), (group_size, restarts)


# --- optimize_bounds -------------------------------------------------------------

def test_toy_recovers_flat_lower_line():
    net, spec, spaces = toy_setup()
    # exhaustive grid oracle over s in [0, 1]: gamma(s) = -eps*s, best at 0
    grid = np.linspace(0, 1, 1001)
    assert (-spec.epsilon * grid).max() == 0.0
    best = frown.optimize_bounds(
        net, spec, 2, [[0]], ["lower"], frown.OptimizerConfig(),
        frown.collect_variables(spaces))
    assert best[0] == pytest.approx(0.0, abs=1e-3)


def test_best_iterate_never_worse_than_init():
    for seed in range(4):
        act = ("sigmoid", "tanh")[seed % 2]
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        spec = PerturbationSpec(np.full(4, 0.02), np.inf, 0.3)
        bounds = crown.propagate(net, spec)
        spaces = spaces_for(net, bounds, 3)
        vv = frown.collect_variables(spaces)
        for sense in ("lower", "upper"):
            g0, _ = frown.objective_and_gradient(
                net, spec, 3, frown.RowGroups.of([[0, 1, 2]], [sense]), vv,
                vv.start[None])
            best = frown.optimize_bounds(
                net, spec, 3, [[0, 1, 2]], [sense],
                frown.OptimizerConfig(max_iters=40), vv)
            # both are lower bounds of the signed rows: an upper-sense
            # row's gamma is minus the neuron's upper bound
            assert np.all(best >= g0 - 1e-12)


def test_restarts_only_help():
    net = generate_random_network(21, [4, 6, 6, 6, 3], "sigmoid", scale=1.2)
    spec = PerturbationSpec(np.full(4, 0.02), np.inf, 0.4)
    bounds = crown.propagate(net, spec)
    vv = frown.collect_variables(spaces_for(net, bounds, 4))
    one = frown.optimize_bounds(
        net, spec, 4, [[0]], ["lower"],
        frown.OptimizerConfig(max_iters=30, restarts=1, seed=5), vv)
    three = frown.optimize_bounds(
        net, spec, 4, [[0]], ["lower"],
        frown.OptimizerConfig(max_iters=30, restarts=3, seed=5), vv)
    assert three[0] >= one[0] - 1e-12


def test_a_restart_is_one_more_copy_of_the_group():
    net = generate_random_network(21, [4, 6, 6, 6, 3], "sigmoid", scale=1.2)
    spec = PerturbationSpec(np.full(4, 0.02), np.inf, 0.4)
    bounds = crown.propagate(net, spec)
    vv = frown.collect_variables(spaces_for(net, bounds, 4))
    seed = [7, 4, 0]
    three = frown.optimize_bounds(
        net, spec, 4, [[0, 1]], ["upper"],
        frown.OptimizerConfig(max_iters=30, restarts=3), vv, [seed])
    rng = np.random.default_rng(seed)
    starts = [vv.start] + [rng.uniform(vv.lo, vv.hi) for _ in range(2)]
    runs = [frown.optimize_bounds(
        net, spec, 4, [[0, 1]], ["upper"],
        frown.OptimizerConfig(max_iters=30),
        dataclasses.replace(vv, start=start)) for start in starts]
    assert np.allclose(three, np.max(runs, axis=0), rtol=1e-12, atol=0)


def record_evaluations(monkeypatch):
    """The value arrays of every ``objective_and_gradient`` call."""
    evaluated = []
    original = frown.objective_and_gradient

    def recording(net, spec, k, batch, var_vec, values):
        evaluated.append(values.copy())
        return original(net, spec, k, batch, var_vec, values)

    monkeypatch.setattr(frown, "objective_and_gradient", recording)
    return evaluated


def test_one_evaluation_per_iteration_serves_every_restart(monkeypatch):
    net = generate_random_network(13, [4, 6, 5, 3], "tanh", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.35)
    vv = frown.collect_variables(spaces_for(net, crown.propagate(net, spec),
                                            3))
    evaluated = record_evaluations(monkeypatch)
    # IMPROVEMENT_TOL 0 stops no group: the running best never falls
    monkeypatch.setattr(frown, "IMPROVEMENT_TOL", 0.0)
    frown.optimize_bounds(
        net, spec, 3, [[0, 1], [2]], ["lower", "upper"],
        frown.OptimizerConfig(max_iters=20, restarts=3), vv)
    assert [len(values) for values in evaluated] == [3 * 2] * 21


def test_a_stop_ends_the_ascent_at_the_first_best_it_accepts(monkeypatch):
    net = generate_random_network(13, [4, 6, 5, 3], "tanh", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.35)
    vv = frown.collect_variables(spaces_for(net, crown.propagate(net, spec),
                                            3))
    cfg = frown.OptimizerConfig(max_iters=20, restarts=2)
    args = (net, spec, 3, [[0, 1], [2]], ["lower", "upper"], cfg, vv)
    evaluated = record_evaluations(monkeypatch)
    full = frown.optimize_bounds(*args)
    assert len(evaluated) > 3
    never = frown.optimize_bounds(*args, stop=lambda best: False)
    assert never.tobytes() == full.tobytes()
    seen = []

    def third(best):
        seen.append(best.copy())
        return len(seen) == 3

    evaluated.clear()
    stopped = frown.optimize_bounds(*args, stop=third)
    # the stop sees the running best after every evaluation, the first
    # included, and the ascent returns the best it accepted
    assert len(evaluated) == len(seen) == 3
    assert stopped.tobytes() == seen[-1].tobytes()
    assert np.all(np.diff(seen, axis=0) >= 0.0)
    assert np.all(stopped <= full)


def test_iterates_stay_in_box_and_lines_valid(monkeypatch):
    net = generate_random_network(13, [4, 6, 5, 3], "tanh", scale=1.0)
    spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.35)
    bounds = crown.propagate(net, spec)
    spaces = spaces_for(net, bounds, 3)
    var_vec = frown.collect_variables(spaces)
    evaluated = record_evaluations(monkeypatch)
    frown.optimize_bounds(
        net, spec, 3, [[0]], ["lower"],
        frown.OptimizerConfig(max_iters=50, restarts=2), var_vec)
    assert sum(len(values) for values in evaluated) > 50
    for values in evaluated:
        assert np.all((var_vec.lo <= values) & (values <= var_vec.hi))
        for row in values:
            for rec, theta in per_record(spaces, var_vec, row):
                assert relax.validate_line(rec.act, rec.side, rec.l, rec.u,
                                           *rec.members(theta), 501).all()


# --- frown_propagate ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        frown.OptimizerConfig(step_size=0.0)
    with pytest.raises(ValueError):
        frown.OptimizerConfig(group_size=0)
    with pytest.raises(ValueError):
        frown.OptimizerConfig(max_iters=0)


@pytest.mark.parametrize("act", ["relu", "sigmoid"])
def test_propagate_dominates_baseline_and_sound(act):
    for seed in range(3):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.0)
        spec = PerturbationSpec(np.full(4, 0.05), np.inf, 0.3)
        cb = crown.propagate(net, spec)
        fb = frown.frown_propagate(
            net, spec, frown.OptimizerConfig(max_iters=40,
                                             group_size=net.layer_width(2)))
        for k in range(1, net.m + 1):
            assert np.all(fb.lower[k - 1] >= cb.lower[k - 1] - 1e-12)
            assert np.all(fb.upper[k - 1] <= cb.upper[k - 1] + 1e-12)
        assert not oracle.sample_check(net, spec, fb, 30000, seed=seed)


def test_group_of_one_at_least_as_tight_as_full_layer(monkeypatch):
    # the direction of the tightness-vs-cost trade-off: a dedicated
    # optimization per neuron beats the shared group compromise, up to the
    # residual a first-order method leaves around each optimum (measured
    # ~5e-5 here, against a typical per-neuron advantage of 5e-4 .. 1e-2)
    monkeypatch.setattr(frown, "IMPROVEMENT_TOL", 0.0)
    advantages = []
    for seed in range(10):
        net = generate_random_network(seed, [4, 5, 4, 3], "sigmoid", scale=1.2)
        spec = PerturbationSpec(np.full(4, 0.02), np.inf, 0.35)
        per_neuron = frown.frown_propagate(
            net, spec, frown.OptimizerConfig(max_iters=100, group_size=1,
                                             restarts=3))
        grouped = frown.frown_propagate(
            net, spec, frown.OptimizerConfig(max_iters=100, group_size=4,
                                             restarts=3))
        for k in range(2, net.m + 1):
            assert np.all(per_neuron.lower[k - 1] >= grouped.lower[k - 1] - 1e-4)
            assert np.all(per_neuron.upper[k - 1] <= grouped.upper[k - 1] + 1e-4)
            advantages.extend(
                (per_neuron.lower[k - 1] - grouped.lower[k - 1]).tolist())
            advantages.extend(
                (grouped.upper[k - 1] - per_neuron.upper[k - 1]).tolist())
    assert np.mean(advantages) > 1e-4


@pytest.mark.parametrize("group_size", [1, 6])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_handed_over_crown_bounds_give_the_same_bits(act, group_size,
                                                     monkeypatch):
    # a search hands frown its crown screen's bounds at the same ball; with
    # them frown runs no crown pass of its own and changes no bit
    cfg = frown.OptimizerConfig(max_iters=20, restarts=2,
                                group_size=group_size)
    propagate = crown.propagate
    for seed in range(2):
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale=1.5)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        spec = PerturbationSpec(x0, np.inf, 0.2)
        own = frown.frown_propagate(net, spec, cfg)
        handed = propagate(net, spec)
        monkeypatch.setattr(crown, "propagate", None)
        got = frown.frown_propagate(net, spec, cfg, crown_bounds=handed)
        monkeypatch.setattr(crown, "propagate", propagate)
        for a, b in zip(own.lower + own.upper, got.lower + got.upper):
            assert a.tobytes() == b.tobytes(), (seed, a, b)


def test_zero_radius_collapses_to_forward_values():
    net = generate_random_network(5, [4, 6, 5, 3], "sigmoid", scale=1.0)
    x0 = np.full(4, 0.1)
    spec = PerturbationSpec(x0, np.inf, 0.0)
    fb = frown.frown_propagate(net, spec, frown.OptimizerConfig(max_iters=5))
    out = forward(net, x0)
    assert np.allclose(fb.output_lower, out, atol=1e-9)
    assert np.allclose(fb.output_upper, out, atol=1e-9)

