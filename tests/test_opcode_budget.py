"""Python-level work of the benchmark workloads, counted in bytecodes.

Host speed drifts between runs by more than a small change moves the
workloads; the number of bytecodes klab's own frames execute does not.
Each workload first runs one warm-up pass, so one-time costs (first
imports, class-level caches) stay out of the count.  Then ``CHECKS``
checks on fresh inputs for seed 0 run under ``sys.settrace``, and every
``opcode`` event in a frame whose code lives in the ``klab`` package is
counted.  The tracer found before the count is restored after it.

The count repeats exactly across processes and hash seeds, but it
belongs to one interpreter version: the ceilings hold on Python 3.11,
and on any other version the test reports the counts and asserts
nothing.  Bytecodes are not time.  Work moved into C builtins reads as
fewer opcodes, whatever it costs, so a count never decides a speed
claim; it says whether Python-level work went up or down.  A change that
raises a ceiling names it in ``CHANGES.md`` and says why, as for the
work budgets in ``test_work_budget.py``.
"""

import importlib.util
import os
import sys

import klab

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                         "workloads.py")
KLAB = os.path.dirname(os.path.abspath(klab.__file__)) + os.sep

CHECKS = 6
CEILINGS = {"omega": 121_284, "chain": 351_489, "pipeline": 674_075}


def load_workloads():
    # loaded from its path without registering it, so perfbench stays untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_opcodes(run) -> int:
    """The ``opcode`` events of ``klab`` frames while ``run()`` runs."""
    count = [0]
    ours = {}  # code object -> whether it lives in the klab package

    def local(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = code.co_filename.startswith(KLAB)
        if not mine:
            return None
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return local

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count[0]


def one_pass(workload):
    """A pass of ``CHECKS`` checks on seed 0, its inputs built now."""
    inputs = [workload.make(0, index) for index in range(CHECKS)]
    return lambda: [workload.call(case) for case in inputs]


def test_workloads_stay_within_their_opcode_budget():
    module = load_workloads()
    counts = {}
    for name, workload in (("omega", module.Omega()), ("chain", module.Chain()),
                           ("pipeline", module.Pipeline())):
        one_pass(workload)()
        counts[name] = count_opcodes(one_pass(workload))
    print(f"opcodes over {CHECKS} checks: {counts}")
    if sys.version_info[:2] != (3, 11):
        return  # the counts belong to one interpreter version
    assert {name: n for name, n in counts.items() if n > CEILINGS[name]} == {}, counts
