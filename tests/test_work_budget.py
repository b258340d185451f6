"""Work budgets for the transfer pipelines, counted in calls, not seconds.

Host speed drifts between runs by more than a small change moves the
pipelines, and call counts do not drift.  One fixed pass runs
``l_transfer``, ``k_transfer``, ``projected_torsion`` and
``finite_replacement`` on the first 16 ``pipeline`` inputs of seed 0 and
counts three calls:

* ``ChainMap.compose`` and ``IntMatrix.__matmul__`` have ceilings: each
  composite is built once.  A change that lowers the work may lower a
  ceiling; one that raises it names the ceiling and the reason in
  ``CHANGES.md``.
* ``ChainHomotopy.holds_at`` has a floor, so no identity check silently
  disappears.
"""

import importlib.util
import os
from fractions import Fraction

from klab import transfer
from klab.chaincore import ChainHomotopy, ChainMap
from klab.intmat import IntMatrix

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                         "workloads.py")

COMPOSE_CEILING = 576
MATMUL_CEILING = 1854
HOLDS_AT_FLOOR = 632


def load_pipeline():
    # loaded from its path without registering it, so perfbench stays untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Pipeline()


def test_transfer_pipelines_stay_within_their_work_budget(monkeypatch):
    pipeline = load_pipeline()
    inputs = [pipeline.make(0, index) for index in range(16)]  # built before counting
    counts = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(owner, name, call)

    counted(ChainMap, "compose")
    counted(IntMatrix, "__matmul__")
    counted(ChainHomotopy, "holds_at")
    half = Fraction(1, 2)
    for pcx, psi, psi2, quad, alpha, alpha_inv, domination, *_ in inputs:
        assert transfer.l_transfer(quad, pcx, half).ok()
        kres = transfer.k_transfer(alpha, alpha_inv, pcx, half)
        transfer.projected_torsion(kres)
        assert transfer.finite_replacement(*domination).ok()
    assert counts["compose"] <= COMPOSE_CEILING, counts
    assert counts["__matmul__"] <= MATMUL_CEILING, counts
    assert counts["holds_at"] >= HOLDS_AT_FLOOR, counts
