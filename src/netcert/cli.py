"""Command-line front end: bound queries, radius certification, benchmarks.

Exit codes: 0 success, 1 internal or input failure, 2 unsupported request
(for example the LP method with the Euclidean norm).  All reports serialize
floats at full precision so they reparse exactly; the benchmark writes one
CSV row per (network, norm) cell plus a JSON document holding every
per-sample radius, and cells keep their values regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import certify, frown, lp
from .model import ModelError, PerturbationSpec, load_network, load_sample

WORKERS_ENV = "NETCERT_WORKERS"

#: keys a bench config may hold; the first three are required
BENCH_KEYS = ("networks", "samples", "methods", "norms", "rel_tol", "cap",
              "frown", "lp_lines", "timing")
METHODS = ("crown", "frown", "lp")
#: numpy's overflow warnings, silenced: the engines reject what an overflow
#: breaks (a non-finite interval width, a NaN bound) with an error of their own
QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore"}


def _parse_p(text: str) -> float:
    if text in ("inf", "Inf", "INF"):
        return math.inf
    value = float(text)
    if value not in (1.0, 2.0):
        raise argparse.ArgumentTypeError(f"p must be 1, 2 or inf, got {text}")
    return value


def _p_str(p: float) -> str:
    return "inf" if p == math.inf else str(int(p))


def _frown_config(args) -> frown.OptimizerConfig | None:
    """Optimizer settings for ``--method frown`` (validated only there)."""
    if args.method != "frown":
        return None
    return frown.OptimizerConfig(
        step_size=args.step, max_iters=args.iters, restarts=args.restarts,
        group_size=args.group_size, seed=args.seed)


def _write_report(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_bounds(args) -> int:
    if args.dump_lp and args.method != "lp":
        raise lp.LpUnsupportedError("--dump-lp needs --method lp")
    net = load_network(args.network)
    x0, _ = load_sample(args.sample)
    spec = PerturbationSpec(x0, args.p, args.eps)
    menu = lp.RelaxationMenu(args.lines)
    bounds = certify.output_bounds(net, spec, args.method, _frown_config(args),
                                   menu)
    dump = ""
    if args.dump_lp:
        lines = [menu.layer_lines(net.activation, *bounds.layer(v))
                 for v in range(1, net.m)]
        width = net.layer_width(net.m)
        dump = lp.dump_lp(lp.build_lp(net, spec, net.m,
                                      np.repeat(np.arange(width), 2),
                                      ("lower", "upper") * width, bounds,
                                      lines))
    doc = {
        "network": args.network,
        "sample": args.sample,
        "method": args.method,
        "p": _p_str(args.p),
        "eps": args.eps,
        "gamma_lower": bounds.output_lower.tolist(),
        "gamma_upper": bounds.output_upper.tolist(),
    }
    if args.all_layers:
        doc["layers"] = [
            {"layer": k,
             "lower": bounds.lower[k - 1].tolist(),
             "upper": bounds.upper[k - 1].tolist()}
            for k in range(1, len(bounds.lower) + 1)
        ]
    _write_report(doc, args.out)
    if args.dump_lp:
        with open(args.dump_lp, "w") as fh:
            fh.write(dump)
    return 0


def cmd_certify(args) -> int:
    net = load_network(args.network)
    x0, label = load_sample(args.sample)
    cert = certify.search_epsilon(
        net, x0, label, args.p, method=args.method, target=args.targeted,
        rel_tol=args.rel_tol, cap=args.cap,
        frown_config=_frown_config(args),
        lp_menu=lp.RelaxationMenu(args.lines))
    doc = cert.to_dict()
    doc["network"] = args.network
    doc["sample"] = args.sample
    _write_report(doc, args.out)
    if args.out:
        flags = "".join(f", {name}" for name, hit in
                        (("cap hit", cert.cap_hit),
                         ("never certified", cert.never_certified)) if hit)
        print(f"certified radius {cert.epsilon_certified:.8g} "
              f"(method {args.method}, p {_p_str(args.p)}{flags})")
    return 0


def _bench_cell(task: dict) -> dict:
    """One (network, norm, method) cell of the benchmark matrix."""
    net = load_network(task["network"])
    cfg = (frown.OptimizerConfig(**task["frown"])
           if task["method"] == "frown" and task["frown"] else None)
    menu = lp.RelaxationMenu(task.get("lp_lines", "multi"))
    radii, times, iters = [], [], []
    for sample_path in task["samples"]:
        x0, label = load_sample(sample_path)
        cert = certify.search_epsilon(
            net, x0, label, task["p"], method=task["method"],
            rel_tol=task["rel_tol"], cap=task["cap"],
            frown_config=cfg, lp_menu=menu)
        radii.append(cert.epsilon_certified)
        times.append(cert.wall_time)
        iters.append(cert.iterations)
    return {
        "network": task["network"],
        "p": _p_str(task["p"]),
        "method": task["method"],
        "radii": radii,
        "mean_radius": float(np.mean(radii)),
        "mean_time": float(np.mean(times)),
        "iterations": iters,
    }


def _bench_norms(config) -> list:
    """The norms of a bench config, after rejecting a malformed config."""
    if not isinstance(config, dict):
        raise ModelError("bench config must be a JSON object")
    missing = [key for key in BENCH_KEYS[:3] if key not in config]
    if missing:
        raise ModelError(f"bench config lacks {', '.join(missing)}")
    unknown = sorted(set(config) - set(BENCH_KEYS))
    if unknown:
        raise ModelError(f"unknown bench config keys: {', '.join(unknown)}")
    for key in BENCH_KEYS[:3]:
        value = config[key]
        if (not isinstance(value, list) or not value
                or not all(isinstance(v, str) for v in value)):
            raise ModelError(f"bench {key} must be a non-empty list of "
                             f"strings, got {value!r}")
    if any(m not in METHODS for m in config["methods"]):
        raise ModelError(f"bench methods must be drawn from "
                         f"{', '.join(METHODS)}, got {config['methods']!r}")
    for key in [key for key in ("rel_tol", "cap") if key in config]:
        value = config[key]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not (math.isfinite(value) and value > 0)):
            raise ModelError(f"bench {key} must be a positive finite "
                             f"number, got {value!r}")
    if not isinstance(config.get("timing", True), bool):
        raise ModelError(f"bench timing must be true or false, "
                         f"got {config['timing']!r}")
    lines = config.get("lp_lines", "multi")
    if lines not in ("single", "multi"):
        raise ModelError(f"lp_lines must be 'single' or 'multi', "
                         f"got {lines!r}")
    try:
        return [_parse_p(str(p)) for p in config.get("norms", ["inf"])]
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ModelError(f"bad bench norm: {exc}") from None


def _bench_workers() -> int:
    """The worker count ``NETCERT_WORKERS`` sets, 1 when it is unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ModelError(f"{WORKERS_ENV} must be an integer >= 1, "
                         f"got {raw!r}")
    return workers


def cmd_bench(args) -> int:
    workers = _bench_workers()
    with open(args.config) as fh:
        config = json.load(fh)
    norms = _bench_norms(config)
    networks = config["networks"]
    samples = config["samples"]
    methods = config["methods"]
    timing = config.get("timing", True)
    tasks = []
    for net_path in networks:
        for p in norms:
            for method in methods:
                if method == "lp" and p == 2.0:
                    continue
                tasks.append({
                    "network": net_path, "samples": samples, "method": method,
                    "p": p, "rel_tol": config.get("rel_tol", 1e-3),
                    "cap": config.get("cap", 10.0),
                    "frown": config.get("frown"),
                    "lp_lines": config.get("lp_lines", "multi"),
                })
    cells = []
    if workers > 1:
        # spawned workers start from a clean interpreter, not a fork of this
        # one with its threads and BLAS state
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            for task, result in zip(tasks, pool.map(_bench_cell_safe, tasks)):
                cells.append(result)
    else:
        for task in tasks:
            cells.append(_bench_cell_safe(task))

    by_key: dict = {}
    for cell in cells:
        by_key.setdefault((cell["network"], cell["p"]), {})[cell.get("method")] = cell

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "bench.csv")
    json_path = os.path.join(args.out_dir, "bench.json")
    header = ["network", "p"]
    for method in methods:
        header.append(f"eps_{method}")
    for method in methods:
        if method != "crown":
            header.append(f"improv_{method}_pct")
    if timing:
        for method in methods:
            header.append(f"time_{method}_s")
        if "frown" in methods and "lp" in methods:
            header.append("speedup_frown_over_lp")
    rows = []
    for (net_path, p_str), group in sorted(by_key.items()):
        row = {"network": net_path, "p": p_str}
        crown_mean = group.get("crown", {}).get("mean_radius")
        for method in methods:
            cell = group.get(method)
            if cell is None:
                continue
            if "error" in cell:
                row[f"eps_{method}"] = f"error:{cell['error']}"
                continue
            row[f"eps_{method}"] = repr(cell["mean_radius"])
            if method != "crown" and crown_mean:
                improv = 100.0 * (cell["mean_radius"] - crown_mean) / crown_mean
                row[f"improv_{method}_pct"] = repr(improv)
            if timing:
                row[f"time_{method}_s"] = repr(cell["mean_time"])
        if timing and "frown" in group and "lp" in group \
                and "error" not in group["frown"] and "error" not in group["lp"]:
            if group["frown"]["mean_time"] > 0:
                row["speedup_frown_over_lp"] = repr(
                    group["lp"]["mean_time"] / group["frown"]["mean_time"])
        rows.append(row)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval="")
        writer.writeheader()
        writer.writerows(rows)
    _write_report({"config": config, "cells": cells}, json_path)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _bench_cell_safe(task: dict) -> dict:
    try:
        with np.errstate(**QUIET_OVERFLOW):
            return _bench_cell(task)
    except Exception as exc:  # cell failures must not kill the sweep
        return {"network": task["network"], "p": _p_str(task["p"]),
                "method": task["method"], "error": str(exc)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcert",
        description="Certified output bounds and robust radii for MLPs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("network")
        p.add_argument("sample")
        p.add_argument("--p", type=_parse_p, default=math.inf)
        p.add_argument("--method", choices=["crown", "frown", "lp"],
                       default="crown")
        p.add_argument("--group-size", type=int, default=1)
        p.add_argument("--iters", type=int, default=100)
        p.add_argument("--step", type=float, default=0.05)
        p.add_argument("--restarts", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lines", choices=["single", "multi"], default="multi")
        p.add_argument("--out", default=None)

    pb = sub.add_parser("bounds", help="output bounds at a fixed radius")
    add_common(pb)
    pb.add_argument("--eps", type=float, required=True)
    pb.add_argument("--all-layers", action="store_true")
    pb.add_argument("--dump-lp", default=None,
                    help="write the assembled output-layer LPs to this file")
    pb.set_defaults(func=cmd_bounds)

    pc = sub.add_parser("certify", help="largest certifiable radius")
    add_common(pc)
    pc.add_argument("--targeted", type=int, default=None)
    pc.add_argument("--rel-tol", type=float, default=1e-3)
    pc.add_argument("--cap", type=float, default=10.0)
    pc.set_defaults(func=cmd_certify)

    pben = sub.add_parser("bench", help="method x norm benchmark matrix")
    pben.add_argument("config")
    pben.add_argument("--out-dir", default="bench-out")
    pben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(**QUIET_OVERFLOW):
            return args.func(args)
    except lp.LpUnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
