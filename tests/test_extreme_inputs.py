"""crown and frown on an extreme-input grid: tiny to huge weights and radii.

Every cell is a relu, sigmoid or tanh 4-6-5-3 net of one weight scale and
seed, with x0 drawn from the seed, bounded at one radius and norm.  Each
engine's bounds must come back finite and ordered at every layer, frown's
never looser than crown's, and, where the ball is small enough for sampling
to mean something (eps <= 1), no uniform sample of the ball may fall
outside them.
"""

import math

import numpy as np
import pytest

from netcert import crown, frown, oracle
from netcert.model import PerturbationSpec, generate_random_network

SCALES = (1e-3, 1.0, 10.0, 100.0)
SEEDS = (0, 1)
RADII = (1e-12, 1e-6, 1.0, 1e3, 1e8)
NORMS = (1.0, 2.0, math.inf)
FROWN = frown.OptimizerConfig(max_iters=20)


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
                cb = crown.propagate(net, spec)
                fb = frown.frown_propagate(net, spec, FROWN)
                for bounds in (cb, fb):
                    for low, up in zip(bounds.lower, bounds.upper):
                        assert np.all(np.isfinite(low) & np.isfinite(up)), cell
                        assert np.all(low <= up), cell
                    if eps <= 1.0:
                        assert not oracle.sample_check(net, spec, bounds, 4000,
                                                       seed=seed), cell
                for k in range(1, net.m + 1):
                    assert np.all(fb.lower[k - 1] >= cb.lower[k - 1]), cell
                    assert np.all(fb.upper[k - 1] <= cb.upper[k - 1]), cell
