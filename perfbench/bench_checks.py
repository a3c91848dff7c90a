"""Correctness checks on every certificate, run outside the timed region.

* Sampling: draws from the ball at the certified radius (``oracle.ball_samples``)
  evaluated with ``model.forward_batch``; none may change the label, and the
  certificate's own margins must be nonnegative.
* frown-deep: the frown radius is at least the crown radius of the same
  (network, sample, norm).
* lp-small relu nets: ``oracle.exact_output_functional_range`` shows every
  margin nonnegative over the ball at the certified radius.
* Repeats of a task in later passes must reproduce the first radius exactly.
"""

from __future__ import annotations

import numpy as np

#: ball samples drawn per certificate
BALL_SAMPLES = 2000
#: float slack for the exact-oracle margin (its own LPs round at ~1e-12)
EXACT_SLACK = 1e-9


class Checker:
    def __init__(self, nc, seed: int):
        self.nc = nc
        self.seed = seed
        self.crown_radius: dict[int, float] = {}
        self.first_radius: dict[int, float] = {}

    def baseline_radius(self, task) -> float | None:
        """Crown radius of a frown task (searched once per task); None when
        the crown search itself raises, which leaves nothing to compare."""
        if task.index not in self.crown_radius:
            kwargs = {k: v for k, v in task.search_kwargs.items()
                      if k != "frown_config"}
            try:
                cert = self.nc.certify.search_epsilon(
                    task.net, task.x0, task.label, task.p, "crown", **kwargs)
                self.crown_radius[task.index] = cert.epsilon_certified
            except Exception:  # a crown defect; the frown search succeeded
                self.crown_radius[task.index] = None
        return self.crown_radius[task.index]

    def check(self, task, cert) -> list[str]:
        """Problems found with ``cert``; empty when it passes."""
        nc = self.nc
        eps = cert.epsilon_certified
        problems = []
        first = self.first_radius.setdefault(task.index, eps)
        if first != eps:
            problems.append(f"radius {eps!r} differs from first pass {first!r}")
            return problems
        crown_eps = (self.baseline_radius(task)
                     if task.klass.method == "frown" else None)
        if crown_eps is not None and eps < crown_eps:
            problems.append(f"frown radius {eps!r} below crown "
                            f"{self.crown_radius[task.index]!r}")
        if eps <= 0.0:
            return problems
        if np.asarray(cert.margins).size and np.min(cert.margins) < 0.0:
            problems.append("negative margin at the certified radius")
        spec = nc.PerturbationSpec(task.x0, task.p, eps)
        rng = np.random.default_rng([self.seed, task.index])
        xs = nc.oracle.ball_samples(spec, BALL_SAMPLES, rng)
        flips = int(np.sum(np.argmax(nc.forward_batch(task.net, xs), axis=1)
                           != task.label))
        if flips:
            problems.append(f"{flips} ball samples change the label")
        if task.klass.method == "lp" and task.klass.activation == "relu":
            n_out = task.net.layer_width(task.net.m)
            for j in range(n_out):
                if j == task.label:
                    continue
                w = np.zeros(n_out)
                w[task.label], w[j] = 1.0, -1.0
                low = nc.oracle.exact_output_functional_range(task.net, spec, w).min
                if low < -EXACT_SLACK:
                    problems.append(f"exact margin against class {j} is {low!r}")
        return problems
