"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records as ``run.py`` appends them to
``.perfbench_out/runs.jsonl`` (untraced runs are used).  Runs pair up by
(workload, seed).  For every metric the table shows each side's median
and quartiles, the share of pairs the change wins (ties count for
neither) and a verdict:

* ``improved``   -- wins at least 9 of 10 pairs and the medians differ,
  in the better direction, by more than the base's quartile spread;
* ``worse``      -- the change's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- either side's quartile spread, as a share of its
  median, exceeds the bound, unless every change run beats every base run;
* ``no worse``   -- otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound, pairs):
    """Verdict for one metric; ``base``/``change`` are value lists and
    ``pairs`` the (base, change) values of runs on the same seed."""
    sign = 1 if better == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    gain = sign * (c_med - b_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1:
        return wins, "improved"
    if -gain > bound * b_med:
        return wins, "worse"
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "no worse"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, change = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':9s} {'metric':13s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'won':>7s}  verdict")
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        seeds = sorted(set(b_runs) & set(c_runs))
        flagged = [r["seed"] for r in list(b_runs.values()) + list(c_runs.values())
                   if not r["correct"]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_runs.values()]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(b_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            wins, text = verdict(b_vals, c_vals, metric["better"], metric["bound"], pairs)
            bq, cq = quartiles(b_vals), quartiles(c_vals)
            print(f"{workload:9s} {name:13s} {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {wins:3d}/{len(pairs):<3d}  {text}")
        if flagged:
            print(f"{workload:9s} incorrect runs on seeds {sorted(flagged)}")


if __name__ == "__main__":
    main(sys.argv[1:])
