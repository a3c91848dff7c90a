"""Seeded workloads: networks, samples and search settings.

A workload is a list of network classes (shape, activation, weight scale,
method and its options).  One round draws one network per class and one
sample per (network, norm); a pass is several rounds, interleaved so that
any prefix of the task list covers every class about equally.

Samples are placed at a fixed first-order distance from the decision
boundary: among uniform candidates the one whose ratio (top-2 logit gap) /
(dual norm of the gap's gradient) is closest to ``target`` is refined by a
few Newton steps along the steepest direction of the norm.  Certified radii
then measure how tight the bounds are rather than how close a random point
happened to land to the boundary, which keeps ``radius_mean`` steady from
seed to seed.  Only the public netcert API (``generate_random_network``,
``forward_batch``) is used to make the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: uniform candidate points per sample
CANDIDATES = 32
#: Newton refinement steps towards the target distance
REFINE_STEPS = 8
#: refinement stops once the distance is within 2% of the target
CLOSE_ENOUGH = math.log(1.02)
#: radius searches stop at this multiple of the target distance.  Many
#: sigmoid nets give every input the same label (95% of the deep ones at
#: scale 1, 60% of the 4-6-6-3 ones); with no boundary to place a sample
#: near, they certify at the cap instead of probing radii a hundred times the
#: target, which would dominate both time and radius_mean
CAP_FACTOR = 2.0


@dataclass(frozen=True)
class NetClass:
    widths: tuple
    activation: str
    scale: float
    method: str                 # "crown" | "frown" | "lp"
    norms: tuple
    frown: dict | None = None   # OptimizerConfig keyword arguments
    menu: str | None = None     # lp relaxation menu ("multi" | "single")

    @property
    def label(self) -> str:
        shape = "-".join(str(w) for w in self.widths)
        extra = f"/g{self.frown['group_size']}" if self.frown else ""
        extra += f"/{self.menu}" if self.menu else ""
        return f"{self.method}/{self.activation}/{shape}{extra}"


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    rounds: int                 # rounds in one pass over the task list
    target: float               # first-order boundary distance of samples
    rel_tol: float = 1e-3


@dataclass
class Task:
    index: int
    klass: NetClass
    net: object
    x0: np.ndarray
    label: int
    p: float
    search_kwargs: dict


def _deep(width, depth, out, n):
    return (n,) + (width,) * depth + (out,)


WORKLOADS = {
    # crown is the baseline of every sweep; relax.layer_line_spaces holds most
    # of its time, so relaxation and crown changes show here, while frown,
    # lp and simplex never run (predicted unchanged).  Crown searches are
    # cheap, so each network serves all three norms.  A round holds one wide
    # net and two deep nets per activation: with the two shapes equal, the
    # probe median fell in the gap between their probe-time modes.  Sigmoid
    # nets are left out because crown raises on some of them (see DEFECTS);
    # sigmoid relaxations still run inside frown-deep.
    "crown-wide": Workload(
        "crown-wide",
        tuple(NetClass(widths, act, 1.0, "crown", (math.inf, 2.0, 1.0))
              for widths in ((20, 50, 50, 50, 10), _deep(24, 8, 10, 20),
                             _deep(24, 8, 10, 20))
              for act in ("relu", "tanh")),
        rounds=10, target=0.03),
    # frown in the regime of acceptance criterion 7 (width 10, scale 2.5):
    # whole-layer groups on depth-5 and depth-6 nets, per-neuron groups on
    # depth-2 nets, so a change that helps one optimiser setting and costs
    # the other shows; crown runs only as the fold baseline inside frown.
    # Deep whole-layer nets are tanh only: at scale 2.5 about 60% of depth-5
    # sigmoid nets give every input the same label (no decision boundary),
    # so their searches end at the cap and the share of such nets in a pass
    # would swing the workload's figures from seed to seed.  Each network
    # serves one norm, so a pass holds as many independent networks as
    # searches.
    "frown-deep": Workload(
        "frown-deep",
        tuple(NetClass(widths, act, 2.5, "frown", (p,),
                       frown={"max_iters": 10, "group_size": group})
              for widths, group, acts in ((_deep(10, 4, 10, 10), 10, ("tanh",)),
                                          (_deep(10, 5, 10, 10), 10, ("tanh",)),
                                          ((10, 10, 10), 1, ("sigmoid", "tanh")))
              for act in acts
              for p in (math.inf, 2.0)),
        rounds=6, target=0.03, rel_tol=1e-2),
    # lp on relu nets with one hidden layer of 8 neurons, at p = inf with
    # the multi and single menus: build_lp and the built-in simplex
    # dominate, and every certificate also fits the exact oracle.  The
    # built-in simplex fails on some inputs (see DEFECTS), and a workload
    # must run without a failed search: on about one in six searches of
    # sigmoid and tanh nets, and on rare relu nets at p = 1.  No search of
    # about 2800 on relu nets at p = inf failed.  Each network serves one
    # setting.  All nets have one shape: a mix of 3-5-3 and 4-6-6-3 nets,
    # whose probes differ sevenfold in time, put the 90th percentile of the
    # probe times between the two modes, and it moved by 10% from seed to
    # seed.
    "lp-small": Workload(
        "lp-small",
        tuple(NetClass((4, 8, 3), "relu", 1.0, "lp", (math.inf,), menu=menu)
              for menu in ("multi", "single")),
        rounds=39, target=0.03, rel_tol=1e-2),
}

#: Inputs on which the library fails today.  A timed workload must run
#: without a failed search, so these are kept out of WORKLOADS and are
#: searched by ``known_defects.py`` instead, which tallies the failures.
DEFECTS = {
    # crown raises ValueError ("variable ... outside [lo, hi]") on about 2%
    # of the deep sigmoid searches and 0.2% of the wide ones: a tangent
    # family on a tiny crossing interval gets an inverted admissible range
    "crown-sigmoid": Workload(
        "crown-sigmoid",
        tuple(NetClass(widths, "sigmoid", 1.0, "crown", (math.inf, 2.0, 1.0))
              for widths in ((20, 50, 50, 50, 10), _deep(24, 8, 10, 20))),
        rounds=12, target=0.03),
    # the built-in simplex raises SimplexError, UnboundedError or
    # LinAlgError on LPs that scipy's HiGHS solves to optimality.  It also
    # fails on rare relu nets at p = 1; those are not searched here, as a
    # seed shows such a failure only by chance
    "lp-sigmoid-tanh": Workload(
        "lp-sigmoid-tanh",
        tuple(NetClass(widths, act, 1.0, "lp", (p,), menu=menu)
              for widths in ((4, 6, 6, 3), (3, 5, 3))
              for act in ("sigmoid", "tanh")
              for p in (math.inf, 1.0)
              for menu in ("multi", "single")),
        rounds=1, target=0.03, rel_tol=1e-2),
}


def _seed_int(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _gap_and_grad(nc, net, xs, h=1e-6):
    """Top-2 logit gap at each row of ``xs``, its gradient (forward
    differences) and the top class."""
    count, n = xs.shape
    pts = np.concatenate([xs[:, None, :],
                          xs[:, None, :] + h * np.eye(n)[None]], axis=1)
    out = nc.forward_batch(net, pts.reshape(-1, n)).reshape(count, n + 1, -1)
    order = np.argsort(out[:, 0, :], axis=1)
    top, runner = order[:, -1], order[:, -2]
    rows = np.arange(count)
    gaps = out[rows, :, top] - out[rows, :, runner]
    return gaps[:, 0], (gaps[:, 1:] - gaps[:, :1]) / h, top


def _dual(grad, p):
    q = {math.inf: 1, 2.0: 2, 1.0: math.inf}[p]
    return np.linalg.norm(grad, ord=q, axis=-1)


def _steepest(grad, p):
    """Unit vector (in the p-norm) along which the gap grows fastest."""
    if p == math.inf:
        return np.sign(grad)
    if p == 2.0:
        return grad / np.linalg.norm(grad)
    out = np.zeros_like(grad)
    j = int(np.argmax(np.abs(grad)))
    out[j] = np.sign(grad[j])
    return out


def make_samples(nc, net, norms, target, rng):
    """Per norm p, (x0, label) at first-order distance about ``target`` from
    the decision boundary in the p-norm."""
    xs = rng.uniform(-1.0, 1.0, size=(CANDIDATES, net.n))
    gap, grad, top = _gap_and_grad(nc, net, xs)
    samples = []
    for p in norms:
        dist = gap / np.maximum(_dual(grad, p), 1e-300)
        miss = np.abs(np.log(np.maximum(dist, 1e-300) / target))
        best = int(np.argmin(miss))
        x = x_best = xs[best]
        best_miss, label = miss[best], int(top[best])
        cur_gap, cur_grad = gap[best], grad[best]
        for _ in range(REFINE_STEPS):
            norm = _dual(cur_grad, p)
            if not norm > 0:
                break
            x = x - (cur_gap / norm - target) * _steepest(cur_grad, p)
            g, gr, tp = _gap_and_grad(nc, net, x[None, :])
            cur_gap, cur_grad = g[0], gr[0]
            dist = cur_gap / max(_dual(cur_grad, p), 1e-300)
            if not dist > 0:
                break
            m = abs(math.log(dist / target))
            if m < best_miss:
                best_miss, x_best, label = m, x.copy(), int(tp[0])
            if best_miss < CLOSE_ENOUGH:
                break
        samples.append((x_best, label))
    return samples


def build_tasks(nc, workload: Workload, seed: int, rounds: int | None = None):
    """The task list of one pass, made from ``seed`` only."""
    wl_id = list({**WORKLOADS, **DEFECTS}).index(workload.name)
    tasks = []
    for r in range(workload.rounds if rounds is None else rounds):
        for c, klass in enumerate(workload.classes):
            net = nc.generate_random_network(_seed_int(seed, wl_id, r, c),
                                             klass.widths, klass.activation,
                                             klass.scale)
            rng = np.random.default_rng(_seed_int(seed, wl_id, r, c, 1))
            samples = make_samples(nc, net, klass.norms, workload.target, rng)
            for p, (x0, label) in zip(klass.norms, samples):
                kwargs = {"rel_tol": workload.rel_tol,
                          "cap": CAP_FACTOR * workload.target}
                if klass.frown:
                    kwargs["frown_config"] = nc.OptimizerConfig(**klass.frown)
                if klass.menu:
                    kwargs["lp_menu"] = getattr(nc.RelaxationMenu, klass.menu)()
                tasks.append(Task(len(tasks), klass, net, x0, label, p, kwargs))
    return tasks
