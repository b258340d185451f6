"""klab's benchmark: one closed-loop caller, one thread, exact-output checks.

    python3 perfbench/run.py --workload {omega,chain,pipeline} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from
``src/`` beside this directory.  Each check's inputs come from
``(seed, check index, round)`` and are built before the check's timer
starts; the next check starts when the previous one returns.  Each
round draws its entries afresh and builds every object new.

``--trace 0`` runs a fixed set of checks (whole cycles, at least 100, so
ten or more latencies lie beyond p90) round after round on fresh inputs
for ``--seconds`` (at least three rounds) and reports the end-to-end
metrics: ``checks_per_s`` (checks per second of busy time) and
``call_ms.p50``/``call_ms.p90`` (latency of one check's public calls,
over every check of every round); ``setup_s`` (median over fresh
interpreters, started every few seconds between checks, of importing
klab and generating the first eight checks' inputs); and ``peak_rss_mb``.

Times are calibrated: a shared machine's speed moves by half over
seconds to minutes, so a fixed reference unit (``reference_unit``, a
Dijkstra search with Fraction weights, the program's own mix) is timed
before every check and in every set-up probe, and each time is scaled
by ``REFERENCE_S`` over the reference unit's local median.  The times
therefore read as on a machine where the reference unit takes exactly
``REFERENCE_S`` (its time on a 2-core x86-64 VM, CPython 3.11, in a
fast spell); a change to klab moves them, a change in the machine's
speed moves them far less.  The uncalibrated figures are printed too.

``--trace 1`` alternates untraced and traced passes, a pair per round,
for ``--seconds`` and reports the per-layer metrics of ``tracer.py``
(counts from the first round, which repeat exactly on one seed; times
as medians over passes) plus the tracing overhead.  Spans of the first
traced pass go to ``.perfbench_out/spans-<workload>-<seed>.tsv.gz``.

Every run first replays a fixed canary (seed 0) and compares each
check's output digest with ``expected.json``; a changed value,
truncation flag or golden report counts as a failed check.  The last
stdout line is the JSON result; each run is also appended to
``.perfbench_out/runs.jsonl`` for ``compare.py``.
``--write-expected`` regenerates ``expected.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected.json")

CANARY_SEED = 0
MIN_ROUNDS = 3
SETUP_EVERY_S = 1.5
SETUP_CHECKS = 8
HARD_LIMIT_S = 140.0  # the run must end within 180 s
REFERENCE_S = 0.0012  # the reference unit's nominal time
REFERENCE_WINDOW = 4  # a check's speed is the median of the 2 * 4 + 1 nearest reference times
SETUP_REFERENCES = 9


def _reference_graph(side=10):
    """A fixed grid with Fraction edge weights for ``reference_unit``."""
    graph = {}
    for i in range(side):
        for j in range(side):
            graph[(i, j)] = [((i + di, j + dj), Fraction(1 + (i * j + di) % 3, 1 + (i + j) % 2))
                             for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0))
                             if 0 <= i + di < side and 0 <= j + dj < side]
    return graph


REFERENCE_GRAPH = _reference_graph()


def reference_unit():
    """Fixed work in the program's own mix (heap, dicts keyed by tuples,
    Fraction sums): a Dijkstra search over ``REFERENCE_GRAPH``."""
    dist = {(0, 0): Fraction(0)}
    heap = [(Fraction(0), (0, 0))]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, weight in REFERENCE_GRAPH[v]:
            nd = d + weight
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def reference_time() -> float:
    start = time.perf_counter()
    reference_unit()
    return time.perf_counter() - start


def local_medians(values, k=REFERENCE_WINDOW):
    """Median of each value's window of up to ``2k + 1`` neighbours."""
    return [statistics.median(values[max(0, j - k):j + k + 1]) for j in range(len(values))]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["omega", "chain", "pipeline"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one cycle of checks per round (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-expected", action="store_true",
                   help="rewrite expected.json from the current code and exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_expected:
        p.error("--workload is required")
    return args


def bench_env():
    """Fixed hash seed, so set iteration order and with it every count
    repeats; byte code cached beside the sources, as an installed package
    has it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_digest(outputs) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16]


def combined_digest(digests) -> str:
    return hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16]


def run_check(wl, inputs, tracer=None, check_outputs=True):
    """Time one check's calls, traced if a tracer is installed; returns
    (seconds, ok, output strings), the outputs only if asked for."""
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    try:
        result = wl.call(inputs)
    except Exception as exc:  # a raising check is a failed check
        return time.perf_counter() - start, False, [f"raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.enabled = False
    elapsed = time.perf_counter() - start
    if not check_outputs:
        return elapsed, True, []
    try:
        ok, outputs = wl.outputs(inputs, result)
    except Exception as exc:
        return elapsed, False, [f"output check raised {type(exc).__name__}: {exc}"]
    return elapsed, ok, outputs


def run_pass(wl, seed, count, tracer=None, round_=0):
    """``count`` checks of one round with all inputs built first; returns
    busy seconds, failures and per-check digests."""
    inputs = [wl.make(seed, i, round_) for i in range(count)]
    if tracer is not None:
        tracer.install()
    busy, failed, digests = 0.0, 0, []
    try:
        for i, item in enumerate(inputs):
            if tracer is not None:
                tracer.check_id = i
            elapsed, ok, outputs = run_check(wl, item, tracer)
            busy += elapsed
            failed += not ok
            digests.append(check_digest(outputs))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return busy, failed, digests


def canary(wl):
    """Replays one cycle of seed 0; returns the checks run and those that
    failed or whose digest differs from expected.json."""
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[wl.name]
    _, failed, digests = run_pass(wl, CANARY_SEED, wl.cycle)
    mismatched = sum(got != want for got, want in zip(digests, expected))
    mismatched += abs(len(digests) - len(expected))
    return len(digests), max(failed, mismatched)


def setup_probe(args):
    """Prints the set-up time and, after it, the median reference time."""
    start = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    for i in range(SETUP_CHECKS):
        wl.make(args.seed, i)
    elapsed = time.perf_counter() - start
    reference = statistics.median(reference_time() for _ in range(SETUP_REFERENCES))
    print(repr(elapsed), repr(reference))


class SetupProbes:
    """``setup_s`` probes in fresh interpreters, one every SETUP_EVERY_S
    seconds between checks, so that they spread over the run like its
    rounds do; the first probe, which compiles byte code, is discarded."""

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.times, self.raw = [], []
        self.probe()
        self.times.clear()
        self.raw.clear()
        self.probe()
        self.due = time.perf_counter() + SETUP_EVERY_S

    def probe(self):
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60,
                              env=bench_env(), check=True)
        elapsed, reference = map(float, done.stdout.split())
        self.raw.append(elapsed)
        self.times.append(elapsed * REFERENCE_S / reference)

    def maybe(self):
        if time.perf_counter() >= self.due:
            self.probe()
            self.due = time.perf_counter() + SETUP_EVERY_S


def check_count(args, wl) -> int:
    """Checks per round, the same set untraced and traced; one cycle with
    ``--tiny``."""
    return wl.cycle if args.tiny else wl.checks


def end_to_end(args, wl, probes, started):
    """Runs a fixed set of checks (whole cycles, at least 100, so ten or
    more latencies lie beyond p90) round after round, on freshly built
    inputs each round (same sizes, new entries), until ``--seconds`` have
    passed and at least MIN_ROUNDS rounds are done.  The reference unit
    runs before every check, and each check's time is calibrated by the
    median of its nearest reference times.  Latencies and throughput are
    over every check of every round.  Outputs are checked in the first
    round; later rounds fail a check only if it raises.  ``setup_s``
    probes run between checks."""
    count = check_count(args, wl)
    deadline = time.perf_counter() + args.seconds
    latencies, raw, digests = [], [], []
    attempted = failed = rounds = 0
    while True:
        times, references = [], []
        for i in range(count):
            if rounds and time.perf_counter() >= started + HARD_LIMIT_S:
                break
            probes.maybe()
            inputs = wl.make(args.seed, i, rounds)
            references.append(reference_time())
            elapsed, ok, outputs = run_check(wl, inputs, check_outputs=not rounds)
            attempted += 1
            times.append(elapsed)
            if not rounds:
                digests.append(check_digest(outputs))
            failed += not ok
        raw.extend(times)
        latencies.extend(t * REFERENCE_S / r for t, r in zip(times, local_medians(references)))
        rounds += 1
        now = time.perf_counter()
        if (rounds >= MIN_ROUNDS and now >= deadline) or now >= started + HARD_LIMIT_S:
            break
    metrics = {
        "checks_per_s": (attempted - failed) / sum(latencies),
        "call_ms.p50": 1000 * statistics.median(latencies),
        "call_ms.p90": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "setup_s": statistics.median(probes.times),
    }
    info = {"checks": attempted, "failed": failed, "samples": count, "rounds": rounds,
            "setup_probes": len(probes.times), "digest": combined_digest(digests),
            "beyond_p90": sum(x * 1000 > metrics["call_ms.p90"] for x in latencies),
            "raw_checks_per_s": len(raw) / sum(raw),
            "raw_call_ms.p50": 1000 * statistics.median(raw),
            "raw_setup_s": statistics.median(probes.raw),
            "speed": sum(raw) / sum(latencies)}
    return metrics, info


def traced(args, wl, started):
    """Pairs of passes, untraced then traced, each pair on the inputs of
    its own round; the traced pass must give the untraced pass's digests.
    Counts and shares come from the first pair, so they repeat exactly on
    one seed; times are medians over the traced passes."""
    import tracer as tracing
    count = check_count(args, wl)
    deadline = time.perf_counter() + args.seconds
    plain_s, traced_s, layer_runs = [], [], []
    digests, failed, attempted, same, counts = None, 0, 0, True, None
    while True:
        pair_start = time.perf_counter()
        round_ = len(traced_s)
        busy, pass_failed, plain_digests = run_pass(wl, args.seed, count, round_=round_)
        plain_s.append(busy)
        tracer = tracing.Tracer(keep_spans=not round_)
        busy, traced_failed, traced_digests = run_pass(wl, args.seed, count, tracer, round_)
        traced_s.append(busy)
        attempted += 2 * count
        failed += pass_failed + traced_failed
        same &= traced_digests == plain_digests
        layer_runs.append(tracer.metrics())
        if not round_:
            digests, counts = plain_digests, tracer.counts()
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz"))
        now = time.perf_counter()
        if now >= deadline or 2 * now - pair_start >= started + HARD_LIMIT_S:
            break
    metrics = {}
    for key in layer_runs[0]:
        values = [run[key] for run in layer_runs]
        metrics[key] = statistics.median(values) if key.endswith("_s") else values[0]
    metrics["trace.untraced_s"] = statistics.median(plain_s)
    metrics["trace.traced_s"] = statistics.median(traced_s)
    metrics["trace.overhead"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
    info = {"checks": attempted, "failed": failed, "passes": len(traced_s),
            "samples": count, "digest": combined_digest(digests),
            "counts_digest": check_digest([repr(counts)]), "traced_same": same}
    return metrics, info


def commit_of(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported tree; do not let git search above it
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def write_expected():
    import workloads
    expected = {}
    for name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]()
        _, failed, digests = run_pass(wl, CANARY_SEED, wl.cycle)
        if failed:
            sys.exit(f"{name}: {failed} canary checks fail; not writing expected digests")
        expected[name] = digests
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "klab", "__init__.py")):
        print(f"no klab sources under {SRC}; run from a klab checkout", file=sys.stderr)
        return 2
    if os.environ != bench_env():
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  bench_env())
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args)
        return 0
    started = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_expected:
        write_expected()
        return 0
    load_before = os.getloadavg()
    # before klab is imported here, so that its byte code is compiled in
    # the discarded first probe and not in this process
    probes = None if args.trace else SetupProbes(args)
    import workloads
    import klab
    if not os.path.abspath(klab.__file__).startswith(SRC + os.sep):
        print(f"imported klab from {klab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    canary_checks, canary_failed = canary(wl)
    if args.trace:
        metrics, info = traced(args, wl, started)
        import tracer as tracing
        units = tracing.per_layer_units()
    else:
        metrics, info = end_to_end(args, wl, probes, started)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"checks_per_s": "1/s", "call_ms.p50": "ms", "call_ms.p90": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    attempted = info["checks"] + canary_checks
    failed = info["failed"] + canary_failed
    correct = failed == 0 and info.get("traced_same", True)
    stamp = {"commit": commit_of(ROOT), "python": platform.python_version(),
             "nproc": os.cpu_count(), "load_before": load_before,
             "load_after": os.getloadavg()}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{info['checks']} checks, canary {canary_checks - canary_failed}/{canary_checks} "
          f"match expected.json, fail_ratio {failed / attempted}")
    print(f"digest {args.workload} seed={args.seed} checks={info['samples']} {info['digest']}")
    if args.trace:
        print(f"trace: {info['passes']} untraced and {info['passes']} traced passes; "
              f"traced digests equal untraced: {info['traced_same']}; "
              f"overhead {metrics['trace.overhead']:.3f}; counts {info['counts_digest']}")
    else:
        print(f"latency samples {info['checks']} ({info['samples']} checks x {info['rounds']} "
              f"rounds), {info['beyond_p90']} beyond p90, {info['setup_probes']} set-up probes")
        print(f"uncalibrated: checks_per_s {info['raw_checks_per_s']:.4g}, call_ms.p50 "
              f"{info['raw_call_ms.p50']:.4g}, setup_s {info['raw_setup_s']:.4g}; "
              f"wall time over calibrated time {info['speed']:.3f}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "seconds": args.seconds, "stamp": stamp, "info": info,
                             **result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
