"""Work budgets for the benchmark workloads, counted in calls, not seconds.

Host speed drifts between runs by more than a small change moves the
workloads, and call counts do not drift.  Each budget runs one fixed
pass of a workload on seed 0 and counts calls:

* the ``pipeline`` pass runs ``l_transfer``, ``k_transfer``,
  ``projected_torsion`` and ``finite_replacement`` on the first 16
  inputs; the ``chain`` pass runs ``Chain.call`` on the first 20.
* ``ChainMap.compose`` and ``IntMatrix.__matmul__`` have ceilings: each
  composite is built once.  A change that lowers the work may lower a
  ceiling; one that raises it names the ceiling and the reason in
  ``CHANGES.md``.
* The identities checked have a floor, so no identity check silently
  disappears: ``ChainHomotopy.holds`` calls plus the ``holds_at`` calls
  made from outside ``holds``.  The floors are the counts of the
  per-degree algebra, whose ``holds`` called ``holds_at`` once per degree.
* On ``chain``, the torsion and signature kernels ``IntMatrix.det`` and
  ``symmetric_diagonalize`` run an exact number of times: two torsion
  determinants and one Lemma A signature per check.
* The ``omega`` pass runs ``Omega.call`` on the first 28 inputs, one
  cycle.  Each check joins the move relation exactly twice, once for the
  action and once for its pair action, and reads all five of its samples
  (checked or skipped); ``DSLambdaMetric._step`` has a ceiling.
"""

import importlib.util
import os
from fractions import Fraction

from klab import ltheory, transfer
from klab.actions import DSLambdaMetric, HomotopySAction
from klab.chaincore import ChainHomotopy, ChainMap
from klab.intmat import IntMatrix

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                         "workloads.py")

COMPOSE_CEILING = 576
MATMUL_CEILING = 1213
IDENTITIES_FLOOR = 320

CHAIN_COMPOSE_CEILING = 360
CHAIN_MATMUL_CEILING = 620
CHAIN_IDENTITIES_FLOOR = 80
CHAIN_DETS = 40
CHAIN_SIGNATURES = 20

OMEGA_JOINS_PER_CHECK = 2
OMEGA_STEP_CEILING = 154


def load_workloads():
    # loaded from its path without registering it, so perfbench stays untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, targets):
    """Wrap each ``(owner, name)`` so that its calls are counted by name."""
    counts = dict.fromkeys((name for _, name in targets), 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, call)

    for owner, name in targets:
        counted(owner, name)
    return counts


def count_identities(monkeypatch, counts):
    """Count ``holds`` calls, and ``holds_at`` calls made outside ``holds``,
    as ``counts["identities"]``."""
    counts["identities"] = 0
    inside = [0]
    holds, holds_at = ChainHomotopy.holds, ChainHomotopy.holds_at

    def counted_holds(self):
        counts["identities"] += 1
        inside[0] += 1
        try:
            return holds(self)
        finally:
            inside[0] -= 1

    def counted_holds_at(self, n):
        counts["identities"] += not inside[0]
        return holds_at(self, n)
    monkeypatch.setattr(ChainHomotopy, "holds", counted_holds)
    monkeypatch.setattr(ChainHomotopy, "holds_at", counted_holds_at)


def test_transfer_pipelines_stay_within_their_work_budget(monkeypatch):
    pipeline = load_workloads().Pipeline()
    inputs = [pipeline.make(0, index) for index in range(16)]  # built before counting
    counts = count_calls(monkeypatch, [(ChainMap, "compose"), (IntMatrix, "__matmul__")])
    count_identities(monkeypatch, counts)
    half = Fraction(1, 2)
    for pcx, psi, psi2, quad, alpha, alpha_inv, domination, *_ in inputs:
        assert transfer.l_transfer(quad, pcx, half).ok()
        kres = transfer.k_transfer(alpha, alpha_inv, pcx, half)
        transfer.projected_torsion(kres)
        assert transfer.finite_replacement(*domination).ok()
    assert counts["compose"] <= COMPOSE_CEILING, counts
    assert counts["__matmul__"] <= MATMUL_CEILING, counts
    assert counts["identities"] >= IDENTITIES_FLOOR, counts


def test_chain_checks_stay_within_their_work_budget(monkeypatch):
    chain = load_workloads().Chain()
    inputs = [chain.make(0, index) for index in range(20)]  # built before counting
    counts = count_calls(monkeypatch, [(ChainMap, "compose"), (IntMatrix, "__matmul__"),
                                       (IntMatrix, "det"), (ltheory, "symmetric_diagonalize")])
    count_identities(monkeypatch, counts)
    for case in inputs:
        assert chain.outputs(case, chain.call(case))[0]
    assert counts["compose"] <= CHAIN_COMPOSE_CEILING, counts
    assert counts["__matmul__"] <= CHAIN_MATMUL_CEILING, counts
    assert counts["identities"] >= CHAIN_IDENTITIES_FLOOR, counts
    assert counts["det"] == CHAIN_DETS, counts
    assert counts["symmetric_diagonalize"] == CHAIN_SIGNATURES, counts


def test_omega_checks_stay_within_their_work_budget(monkeypatch):
    omega = load_workloads().Omega()
    inputs = [omega.make(0, index) for index in range(omega.cycle)]  # built before counting
    counts = count_calls(monkeypatch, [(DSLambdaMetric, "_step")])
    joins = []
    move_relation = HomotopySAction.move_relation

    def joined(action):
        if action._moves is None:  # built here, not read from the action
            joins.append(action)
        return move_relation(action)
    monkeypatch.setattr(HomotopySAction, "move_relation", joined)
    for case in inputs:
        before = len(joins)
        audit = omega.call(case)
        assert audit.ok(), audit.counterexamples
        assert len(joins) - before == OMEGA_JOINS_PER_CHECK
        assert audit.checked + audit.skipped == omega.batch
    assert counts["_step"] <= OMEGA_STEP_CEILING, counts
