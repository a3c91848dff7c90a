#!/usr/bin/env python3
"""Radius-search benchmark for netcert.

    python3 perfbench/run.py --workload crown-wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from ``src/``.
The load is a closed loop: one client in one process, each
``certify.search_epsilon`` call starting when the previous one ends.  Every
run first completes one pass over its seeded task list (so ``radius_mean``
covers a fixed set of searches), then keeps cycling the list until
``--seconds`` have gone by.  Correctness checks run on every certificate,
outside the timed region.

Every timed search and set-up is bracketed by two timings of a fixed
reference computation that shares no code with netcert, and its CPU time is
reported at the host speed at which the reference takes ``REFERENCE_S``.
Other tenants of a shared host slow it by up to 1.8x for seconds to minutes
at a time; the reference slows with it, so the scaled times do not.  The
set-ups behind ``setup_s`` are spread over the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every task
twice, once plain and once with the per-layer trace installed (alternating
which goes first), and prints the per-layer metrics; ``trace.overhead_frac``
compares the two halves.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys

# numpy links a threaded OpenBLAS; pin it to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NETCERT_WORKERS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

from bench_checks import Checker  # noqa: E402
from bench_tasks import WORKLOADS, build_tasks  # noqa: E402
from bench_trace import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: set-ups per run, the first before the searches and the others spread
#: over the run; setup_s is their median
SETUP_REPS = 9
#: CPU seconds of one ``reference_work`` call on a quiet 2-CPU VM (Python
#: 3.11, numpy 2.4); time metrics are scaled to the host speed at which it
#: takes this long
REFERENCE_S = 0.002
#: a run stops starting searches after this long even if its first pass is
#: unfinished (the result then covers fewer tasks and says so)
HARD_LIMIT_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "search_s.p50": "s",
    "probe_s.p50": "s",
    "probe_s.p90": "s",
    "searches_per_s": "1/s",
    "radius_mean": "eps",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: exception classes tallied by name; anything else counts as fail.other
FAIL_CLASSES = ("SimplexError", "InfeasibleError", "UnboundedError",
                "IterationLimitError", "LinAlgError", "TangentUndefinedError",
                "ValueError", "RuntimeError")

_SPAN_METRICS = (
    ("relax.layer_line_spaces", ("calls", "s")),
    ("crown.propagate", ("calls", "s", "self_s")),
    ("crown.choose_layer_lines", ("calls", "s")),
    ("crown.backward_rows", ("calls", "s")),
    ("frown.frown_propagate", ("s",)),
    ("frown.optimize_bounds", ("calls", "s")),
    ("frown.objective_and_gradient", ("calls", "s", "self_s")),
    ("frown._materialize", ("s",)),
    ("lp.lp_propagate", ("s",)),
    ("lp.build_lp", ("calls", "s")),
    ("lp.solve", ("calls", "s", "self_s")),
    ("simplex.solve_inequality_form", ("calls", "s")),
)
_COUNTER_METRICS = ("relax.line_space", "relax.validate_line")

PER_LAYER = {"certify.probes_per_search": "probes/search",
             "certify.search_epsilon.s": "s/search"}
for _name, _kinds in _SPAN_METRICS:
    for _kind in _kinds:
        PER_LAYER[f"{_name}.{_kind}"] = \
            "calls/search" if _kind == "calls" else "s/search"
for _name in _COUNTER_METRICS:
    PER_LAYER[f"{_name}.calls"] = "calls/search"
    PER_LAYER[f"{_name}.s"] = "s/search"
PER_LAYER.update({
    "relax.family_frac": "ratio",
    "frown.evals_per_optimize": "count",
    "frown.radius_gain_pct": "%",
    "lp.rows_mean": "count",
    "lp.cols_mean": "count",
    "simplex.fail_frac": "ratio",
    "model.load_network.s": "s",
    "oracle.check_s": "s/search",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
})
for _cls in FAIL_CLASSES + ("other", "check"):
    PER_LAYER[f"fail.{_cls}"] = "count"


class SetupError(RuntimeError):
    """The checkout does not hold a usable netcert source tree."""


def cpu_clock() -> float:
    """CPU seconds used by this process and its reaped children.

    Times are CPU time, not wall time: the library runs single-threaded
    (BLAS pinned above), so on an idle machine the two agree, while on a
    shared host CPU time leaves out the time the virtual CPU is preempted
    (seen to double wall time within minutes).  Children are included so
    that work moved into other processes is still counted.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def reference_work() -> float:
    """A fixed load of small numpy operations and Python loops, the mix the
    library runs, sharing no code with it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 24))
    x = rng.standard_normal(24)
    acc = 0.0
    for _ in range(200):
        y = a @ x
        y = np.maximum(y, 0.0) - 0.5 * np.minimum(y, 0.0)
        acc += sum(float(v) * 1.0001 for v in y[:8])
        x = y / (np.linalg.norm(y) + 1.0)
    return acc


def reference_s() -> float:
    """CPU seconds of one ``reference_work`` call.  The garbage collector is
    held off, so that the library's garbage is not collected on its clock."""
    gc.disable()
    try:
        t0 = cpu_clock()
        reference_work()
        return cpu_clock() - t0
    finally:
        gc.enable()


def host_speed(before: float, after: float) -> float:
    """Factor that turns CPU seconds measured between two ``reference_s``
    timings into seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def import_netcert():
    """A fresh import of netcert from the checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "netcert", "__init__.py")):
        raise SetupError(f"no netcert package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "netcert" or m.startswith("netcert.")]:
        del sys.modules[name]
    nc = importlib.import_module("netcert")
    if not os.path.abspath(nc.__file__).startswith(SRC + os.sep):
        raise SetupError(f"netcert imported from {nc.__file__}, not {SRC}")
    return nc


def round_trip(nc, tasks, directory) -> float:
    """Save and reload every network and sample; returns the seconds spent
    in ``load_network``."""
    os.makedirs(directory, exist_ok=True)
    # holding every original keeps their ids unique while tasks are rebound
    nets = [task.net for task in tasks]
    loaded = {}
    load_s = 0.0
    try:
        for task, net in zip(tasks, nets):
            if id(net) not in loaded:
                path = os.path.join(directory, f"net{len(loaded)}.json")
                nc.save_network(net, path)
                t0 = cpu_clock()
                loaded[id(net)] = nc.model.load_network(path)
                load_s += cpu_clock() - t0
            path = os.path.join(directory, f"sample{task.index}.json")
            nc.save_sample(task.x0, task.label, path)
            task.x0, task.label = nc.load_sample(path)
            task.net = loaded[id(net)]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return load_s


def setup(workload, seed, rounds=None):
    """Import netcert, make the inputs and round-trip them.

    Returns (netcert module, tasks, setup seconds, load seconds).
    """
    t0 = cpu_clock()
    nc = import_netcert()
    tasks = build_tasks(nc, workload, seed, rounds)
    load_s = round_trip(nc, tasks, os.path.join(OUT, f"setup-{os.getpid()}"))
    return nc, tasks, cpu_clock() - t0, load_s


class ProbeTimer:
    """CPU time of every ``certify.certified_at`` call during a search."""

    def __init__(self, certify):
        self.certify = certify
        self.original = certify.certified_at
        self.times: list[float] = []
        original, times = self.original, self.times

        def timed(*args, **kwargs):
            t0 = cpu_clock()
            try:
                result = original(*args, **kwargs)
            except Exception:
                times.append(math.inf)  # a failed probe misses any limit
                raise
            times.append(cpu_clock() - t0)
            return result

        self.wrapper = timed

    def install(self):
        self.certify.certified_at = self.wrapper

    def uninstall(self):
        self.certify.certified_at = self.original


class Run:
    """State of one benchmark run over a task list."""

    def __init__(self, nc, tasks, seed, trace):
        self.nc = nc
        self.tasks = tasks
        self.trace = trace
        self.checker = Checker(nc, seed)
        self.tracer = Tracer(nc) if trace else None
        self.probes = None if trace else ProbeTimer(nc.certify)
        self.search_s: list[float] = []
        self.wall_s = 0.0
        # end-to-end mode only, at the reference speed: the latency of each
        # search, with a failed one at +inf (a request that fails counts as
        # missing any latency limit), and the time of each probe
        self.latency_s: list[float] = []
        self.probe_s: list[float] = []
        self.scaled_s = 0.0
        self.speeds: list[float] = []
        self.setup_s: list[float] = []
        self.successes = 0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.check_s = 0.0
        self.first_radius: dict[int, float] = {}
        self.iterations: list[int] = []
        self.radius_pairs: list[tuple] = []  # (frown radius, crown radius)
        self.paired_s = {False: 0.0, True: 0.0}
        self.paired_ok = {False: 0, True: 0}
        self.traced_searches = 0
        self.first_pass_done = False

    def loop(self, seconds: float, min_tasks: int, setup=None,
             setups: int = 0) -> None:
        """Cycle the tasks; ``setup`` (timed into ``setup_s``) runs
        ``setups`` times at even intervals of ``seconds``, between searches."""
        start = perf_counter()
        deadline = start + seconds
        hard = start + max(seconds, HARD_LIMIT_S)
        i = done = 0
        while True:
            now = perf_counter()
            if done < setups and now >= start + seconds * (done + 1) / (setups + 1):
                self.setup_s.append(setup())
                done += 1
                continue
            if now >= hard or (now >= deadline and i >= min_tasks):
                break
            task = self.tasks[i % len(self.tasks)]
            if self.trace:
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    self.search(task, traced)
            else:
                self.search(task, False)
            i += 1
        for _ in range(done, setups):  # a run cut at its hard limit
            self.setup_s.append(setup())
        self.first_pass_done = i >= len(self.tasks)
        self.loop_s = perf_counter() - start

    def search(self, task, traced: bool) -> None:
        nc = self.nc
        hook = self.tracer if traced else self.probes
        if traced:
            self.tracer.search_id = self.traced_searches
        if hook is not None:
            hook.install()
        cert, error = None, None
        if not self.trace:
            first_probe = len(self.probes.times)
            ref_before = reference_s()
        w0, t0 = perf_counter(), cpu_clock()
        try:
            cert = nc.certify.search_epsilon(task.net, task.x0, task.label,
                                             task.p, task.klass.method,
                                             **task.search_kwargs)
        except Exception as exc:  # tallied by class; the run goes on
            error = type(exc).__name__
        finally:
            elapsed = cpu_clock() - t0
            self.wall_s += perf_counter() - w0
            if hook is not None:
                hook.uninstall()
        if not self.trace:
            speed = host_speed(ref_before, reference_s())
            self.speeds.append(speed)
            self.scaled_s += elapsed * speed
            self.probe_s.extend(t * speed for t in self.probes.times[first_probe:])
        self.attempted += 1
        self.search_s.append(elapsed)
        if self.trace:
            self.paired_s[traced] += elapsed
            self.traced_searches += int(traced)
        t0 = cpu_clock()
        problems = [] if cert is None else self.checker.check(task, cert)
        crown_eps = self.checker.crown_radius.get(task.index)
        if cert is not None and crown_eps is not None \
                and task.index not in self.first_radius:
            self.radius_pairs.append((cert.epsilon_certified, crown_eps))
        self.check_s += cpu_clock() - t0
        ok = error is None and not problems
        if error is not None:
            self.failures[error if error in FAIL_CLASSES else "other"] += 1
        elif problems:
            self.failures["check"] += 1
            self.problems.extend(f"task {task.index} ({task.klass.label}, "
                                 f"p={task.p}): {msg}" for msg in problems)
        else:
            self.successes += 1
            self.iterations.append(cert.iterations)
            if self.trace:
                self.paired_ok[traced] += 1
        if not self.trace:
            self.latency_s.append(elapsed * speed if ok else math.inf)
        if task.index not in self.first_radius:
            self.first_radius[task.index] = cert.epsilon_certified if ok else 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        return {
            "setup_s": statistics.median(self.setup_s),
            "search_s.p50": float(np.percentile(self.latency_s, 50, method="inverted_cdf")),
            "probe_s.p50": float(np.percentile(self.probe_s, 50, method="inverted_cdf")),
            "probe_s.p90": float(np.percentile(self.probe_s, 90, method="inverted_cdf")),
            "searches_per_s": self.successes / self.scaled_s,
            "radius_mean": float(np.mean(list(self.first_radius.values()))),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, load_times) -> dict:
        tr = self.tracer
        per = max(self.traced_searches, 1)
        totals = tr.span_totals()
        out = {}
        for name, kinds in _SPAN_METRICS + (("certify.search_epsilon", ("s",)),):
            calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
            values = {"calls": calls, "s": total, "self_s": self_s}
            for kind in kinds:
                out[f"{name}.{kind}"] = values[kind] / per
        for name in _COUNTER_METRICS:
            out[f"{name}.calls"] = tr.counter_calls[name] / per
            out[f"{name}.s"] = tr.counter_time[name] / per
        out["certify.probes_per_search"] = (float(np.mean(self.iterations))
                                            if self.iterations else 0.0)
        out["relax.family_frac"] = tr.spaces_family / max(tr.spaces_total, 1)
        n_opt = totals.get("frown.optimize_bounds", (0,))[0]
        n_eval = totals.get("frown.objective_and_gradient", (0,))[0]
        out["frown.evals_per_optimize"] = n_eval / n_opt if n_opt else 0.0
        frown_sum = sum(f for f, _ in self.radius_pairs)
        crown_sum = sum(c for _, c in self.radius_pairs)
        out["frown.radius_gain_pct"] = (100.0 * (frown_sum / crown_sum - 1.0)
                                        if crown_sum > 0 else 0.0)
        out["lp.rows_mean"] = tr.lp_rows / tr.lp_problems if tr.lp_problems else 0.0
        out["lp.cols_mean"] = tr.lp_cols / tr.lp_problems if tr.lp_problems else 0.0
        n_simplex = totals.get("simplex.solve_inequality_form", (0,))[0]
        out["simplex.fail_frac"] = (tr.errors["simplex.solve_inequality_form"]
                                    / n_simplex if n_simplex else 0.0)
        out["model.load_network.s"] = statistics.median(load_times)
        out["oracle.check_s"] = self.check_s / self.attempted
        sps = {t: self.paired_ok[t] / self.paired_s[t] if self.paired_s[t] else 0.0
               for t in (False, True)}
        out["trace.overhead_frac"] = ((sps[False] - sps[True]) / sps[False]
                                      if sps[False] else 0.0)
        out["fail_frac"] = self.failed / self.attempted
        for cls in FAIL_CLASSES + ("other", "check"):
            out[f"fail.{cls}"] = self.failures[cls]
        return out


def run_benchmark(workload_name, seed, seconds, trace, sliver=None):
    """One benchmark run; returns the result object printed as JSON."""
    workload = WORKLOADS[workload_name]
    rounds = None if sliver is None else 1
    load_times = []

    def timed_setup():
        before = reference_s()
        nc, tasks, setup_s, load_s = setup(workload, seed, rounds)
        load_times.append(load_s)
        return nc, tasks, setup_s * host_speed(before, reference_s())

    def another_setup():
        # a fresh import; the run keeps the modules and tasks of the first
        return timed_setup()[2]

    nc, tasks, setup_s = timed_setup()

    if sliver is not None:
        tasks = tasks[:sliver]
    run = Run(nc, tasks, seed, trace)
    run.setup_s.append(setup_s)
    # the first pass fixes the task set behind radius_mean; the traced run
    # reports only per-layer figures and needs no full pass
    run.loop(seconds, min_tasks=len(tasks) if not trace or sliver else 0,
             setup=another_setup,
             setups=SETUP_REPS - 1 if sliver is None else 0)
    if not run.first_pass_done:
        print(f"warning: first pass unfinished, radius_mean covers "
              f"{len(run.first_radius)} of {len(tasks)} tasks", file=sys.stderr)
    for line in run.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print("run " + json.dumps({
        "workload": workload_name, "seed": seed, "tasks_per_pass": len(tasks),
        "searches": run.attempted, "loop_s": run.loop_s,
        "search_cpu_s": sum(run.search_s), "search_wall_s": run.wall_s,
        "host_speed": statistics.median(run.speeds) if run.speeds else None,
        "check_s": run.check_s,
        "failures": dict(sorted(run.failures.items()))}))
    if trace:
        values = run.per_layer(load_times)
        units = PER_LAYER
        os.makedirs(OUT, exist_ok=True)
        run.tracer.write_spans(os.path.join(
            OUT, f"spans-{workload_name}-seed{seed}.csv.gz"))
    else:
        values = run.end_to_end()
        units = END_TO_END
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }


def smoke() -> int:
    """A sliver of every workload in both modes; every declared metric must
    be emitted with a finite value."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from the code")
        return 1
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_benchmark(name, seed=0, seconds=0.0, trace=bool(trace),
                                   sliver=2)
            emitted = set(result["metrics"])
            bad = [k for k, v in result["metrics"].items()
                   if not math.isfinite(v["value"])]
            if emitted != declared[trace] or bad or result["attempted"] < 1:
                ok = False
                print(f"smoke {name} trace={trace}: missing "
                      f"{sorted(declared[trace] - emitted)}, extra "
                      f"{sorted(emitted - declared[trace])}, non-finite {bad}")
            else:
                print(f"smoke {name} trace={trace}: ok "
                      f"({result['attempted']} searches, {result['failed']} failed)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a sliver of every workload and check the "
                             "metric names")
    args = parser.parse_args(argv)
    print("env " + json.dumps(environment()))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
