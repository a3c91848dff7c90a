#!/usr/bin/env python3
"""Search the inputs the library fails on today and tally the failures.

    python3 perfbench/known_defects.py --seed 0

The timed workloads of ``run.py`` must run without a failed search, so the
inputs on which netcert raises are kept out of them and listed in
``bench_tasks.DEFECTS``.  This script searches each of them once and prints,
per defect and per network class, how many searches raised which exception.
The last line of standard output is one JSON object.  It exits with code 0
whatever it finds; a defect that is fixed shows as a tally of zero.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NETCERT_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

from bench_tasks import DEFECTS, build_tasks  # noqa: E402
from run import SetupError, import_netcert  # noqa: E402


def tally(nc, name, seed, rounds=None) -> dict:
    searches, failures = Counter(), Counter()
    for task in build_tasks(nc, DEFECTS[name], seed, rounds):
        key = f"{task.klass.label}/p={task.p}"
        searches[key] += 1
        try:
            nc.certify.search_epsilon(task.net, task.x0, task.label, task.p,
                                      task.klass.method, **task.search_kwargs)
        except Exception as exc:  # the failure is what is being counted
            failures[f"{key}: {type(exc).__name__}"] += 1
    return {"searches": sum(searches.values()),
            "failed": sum(failures.values()),
            "per_class": dict(sorted(searches.items())),
            "failures": dict(sorted(failures.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds per defect (default: its own)")
    args = parser.parse_args(argv)
    try:
        nc = import_netcert()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {name: tally(nc, name, args.seed, args.rounds) for name in DEFECTS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
