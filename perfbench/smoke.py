"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/smoke.py      (or: python3 perfbench/smoke.py)

Runs every workload once untraced and once traced with ``--tiny`` and
checks that the result line names every metric of ``BENCHMARK.json``
for that mode, with its unit, and that the run's outputs were correct.
The file name keeps it out of the default test collection.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


if __name__ == "__main__":
    test_every_metric_printed_with_its_unit()
    print("smoke test passed")
