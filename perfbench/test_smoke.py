"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, HERE)
    try:
        import run
    finally:
        sys.path.remove(HERE)
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"][-1] == "perfbench/run.py"


def test_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 6, proc.stdout


def test_known_defects_reports_a_tally():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "known_defects.py"),
                           "--seed", "0", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    sys.path.insert(0, HERE)
    try:
        from bench_tasks import DEFECTS
    finally:
        sys.path.remove(HERE)
    assert set(result) == set(DEFECTS)
    for tally in result.values():
        assert tally["searches"] == sum(tally["per_class"].values()) >= 1
        assert tally["failed"] == sum(tally["failures"].values())
