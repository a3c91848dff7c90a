"""crown and frown on an extreme-input grid: tiny to huge weights and radii.

Every cell is a relu, sigmoid or tanh 4-6-5-3 net of one weight scale and
seed, with x0 drawn from the seed, bounded at one radius and norm.  Each
engine's bounds must come back finite and ordered at every layer, frown's
never looser than crown's, and, where the ball is small enough for sampling
to mean something (eps <= 1) or large enough for a width to overflow, no
uniform sample of the ball may fall outside them.  In the overflow regime
(weight scale 1e150, or eps 1e300 and up) an engine may instead raise a
clear error, a bad interval or a NaN bound, and then crown and frown raise
the same one.
"""

import math

import numpy as np
import pytest

from netcert import crown, frown, oracle
from netcert.model import PerturbationSpec, generate_random_network

from conftest import toy_relu_net

SCALES = (1e-3, 1.0, 10.0, 100.0, 1e150)
SEEDS = (0, 1)
RADII = (1e-12, 1e-6, 1.0, 1e3, 1e8, 1e300, 1e308)
NORMS = (1.0, 2.0, math.inf)
FROWN = frown.OptimizerConfig(max_iters=20)
#: the errors an overflowing cell may end in
OVERFLOW_ERRORS = {ValueError: "bad interval", RuntimeError: "is NaN"}


def _bounds(engine, net, spec):
    """The engine's bounds, or the error it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return engine(net, spec)
    except tuple(OVERFLOW_ERRORS) as exc:
        return exc


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh"])
def test_crown_and_frown_bounds_on_extreme_inputs(act, scale):
    for seed in SEEDS:
        net = generate_random_network(seed, [4, 6, 5, 3], act, scale)
        x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        for eps in RADII:
            for p in NORMS:
                spec = PerturbationSpec(x0, p, eps)
                cell = f"seed {seed}, eps {eps:g}, p {p}"
                cb = _bounds(crown.propagate, net, spec)
                fb = _bounds(lambda net, spec: frown.frown_propagate(
                    net, spec, FROWN), net, spec)
                if isinstance(cb, Exception) or isinstance(fb, Exception):
                    assert scale >= 1e150 or eps >= 1e300, (cell, cb, fb)
                    assert type(cb) is type(fb), (cell, cb, fb)
                    assert OVERFLOW_ERRORS[type(cb)] in str(cb), cell
                    continue
                for bounds in (cb, fb):
                    for low, up in zip(bounds.lower, bounds.upper):
                        assert np.all(np.isfinite(low) & np.isfinite(up)), cell
                        assert np.all(low <= up), cell
                    if eps <= 1.0 or eps >= 1e300:
                        assert not oracle.sample_check(net, spec, bounds, 4000,
                                                       seed=seed), cell
                for k in range(1, net.m + 1):
                    assert np.all(fb.lower[k - 1] >= cb.lower[k - 1]), cell
                    assert np.all(fb.upper[k - 1] <= cb.upper[k - 1]), cell


def test_overflowing_width_is_rejected_not_bounded():
    # z2 = relu(x): at eps 9e307 the layer-1 interval [-9e307, 9e307] is
    # representable but its width is not, and a chord slope
    # (f(u) - f(l)) / (u - l) of 0 would give the output the upper bound 0,
    # while relu(eps / 2) = 4.5e307
    net = toy_relu_net()
    for eps in (9e307, 1e308):
        spec = PerturbationSpec([0.0], math.inf, eps)
        for engine in (crown.propagate, frown.frown_propagate):
            with pytest.raises(ValueError, match="bad interval"):
                engine(net, spec)
