"""Certificates and reachability on the exact integer view of a space.

``transfer._letter_bound`` works on ``space.index`` and the ``scaled()``
rows and builds one ``Fraction`` per letter; the ``Fraction`` version it
replaced is kept below as the reference.  ``DSLambdaMetric`` computes the
finite-table closure of its move letters once, on first use, where it
rebuilt it on every unanswered query.
"""

import importlib.util
import os
from fractions import Fraction

import pytest

from klab import actions, transfer
from klab.actions import DSLambdaMetric, HomotopySAction, lebesgue_lambda_search
from klab.control import ControlSpace
from klab.errors import HorizonExceeded, InputError
from klab.fixtures import dihedral_cover
from klab.groups import FiniteSubset, FiniteTableGroup, SubgroupDescription

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                         "workloads.py")


def ref_letter_bound(action, lam, letter, pairs):
    worst = Fraction(0)
    e = action.backend.identity()
    fset = action.f_set(letter)
    for (x, y) in pairs:
        options = []
        if letter == e:
            options.append(lam * action.space.d(x, y))
        for fm in fset:
            options.append(1 + lam * action.space.d(x, action.apply(fm, y)))
        best = min(options)
        if best > worst:
            worst = best
    return worst


def load_workloads():
    # loaded from its path without registering it, so perfbench stays untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_letter_bounds_match_fractions_on_pipeline_inputs(monkeypatch):
    real, compared = transfer._letter_bound, []

    def checked(action, lam, letter, pairs):
        value = real(action, lam, letter, pairs)
        assert type(value) is Fraction
        assert value == ref_letter_bound(action, lam, letter, pairs)
        compared.append(value)
        return value

    monkeypatch.setattr(transfer, "_letter_bound", checked)
    pipeline, half = load_workloads().Pipeline(), Fraction(1, 2)
    for seed in (0, 1):
        for index in range(48):
            pcx, psi, psi2, quad, alpha, alpha_inv = pipeline.make(seed, index)[:6]
            lres = transfer.l_transfer(quad, pcx, half)
            kres = transfer.k_transfer(alpha, alpha_inv, pcx, half)
            assert lres.certificate.bound == max(lres.certificate.pieces.values())
            assert kres.certificate.bound == max(kres.certificate.pieces.values())
    assert len(compared) > 200 and len(set(compared)) > 1


def swap_action(dist):
    """C2 swapping ``a`` and ``b`` and fixing ``c``, on an unchecked space."""
    c2 = FiniteTableGroup.cyclic(2)
    space = ControlSpace(["a", "b", "c"], dist, check=False)
    swap = {0: {"a": "a", "b": "b", "c": "c"}, 1: {"a": "b", "b": "a", "c": "c"}}
    return HomotopySAction.from_genuine(c2, space, FiniteSubset.of(c2, [0, 1]), swap)


def test_letter_bounds_on_spaces_with_undefined_distances():
    lam = Fraction(2, 3)
    full = swap_action({("a", "b"): Fraction(1), ("b", "c"): Fraction(3, 2),
                        ("a", "c"): Fraction(5, 2)})
    for letter in (0, 1):
        for pairs in ({("a", "a")}, {("a", "c"), ("c", "b")}, {("b", "a"), ("c", "c")}):
            assert (transfer._letter_bound(full, lam, letter, pairs)
                    == ref_letter_bound(full, lam, letter, pairs))
    partial = swap_action({("a", "b"): Fraction(1), ("b", "c"): Fraction(3, 2)})
    # pairs that meet d(a, c): InputError before and after
    with pytest.raises(InputError):
        ref_letter_bound(partial, lam, 1, {("a", "c")})
    with pytest.raises(InputError):
        transfer._letter_bound(partial, lam, 1, {("a", "c")})
    # pairs that miss it: scaled() reads every pair, so the space is refused
    # as DSLambdaMetric refuses it, where the Fraction code found a value
    assert ref_letter_bound(partial, lam, 1, {("a", "a")}) == 1 + lam
    with pytest.raises(InputError):
        transfer._letter_bound(partial, lam, 1, {("a", "a")})
    with pytest.raises(InputError):
        DSLambdaMetric(partial, lam)


class RefMetric(DSLambdaMetric):
    """The closure rebuilt on every unanswered query, as before."""

    def _certified_unreachable(self, displacement):
        if self.backend.kind == "finite-table":
            sub = SubgroupDescription.of(self.backend, self.letters or [self.backend.identity()])
            return displacement not in sub.closure()
        return super()._certified_unreachable(displacement)


GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1))


def test_lebesgue_truncation_flags_unchanged_on_dihedral_covers(monkeypatch):
    flags = []
    for n in range(3, 7):
        act, cover = dihedral_cover(n)
        carrier = list(cover.carrier)
        for lam in GRID:
            for n_max in (0, 1, 4):
                new = DSLambdaMetric(act, lam, n_max).table(carrier)
                ref = RefMetric(act, lam, n_max).table(carrier)
                assert (new.truncated, new.values) == (ref.truncated, ref.values)
                flags.append(new.truncated)
        new_search = lebesgue_lambda_search(act, cover, Fraction(1, 2), GRID, 4)
        with monkeypatch.context() as patched:
            patched.setattr(actions, "DSLambdaMetric", RefMetric)
            assert new_search == lebesgue_lambda_search(act, cover, Fraction(1, 2), GRID, 4)
    assert True in flags and False in flags  # both kinds of table occur


def test_closure_is_built_once_per_metric(monkeypatch):
    act, cover = dihedral_cover(4)
    real, calls = SubgroupDescription.closure, []

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(SubgroupDescription, "closure", counted)
    metric = DSLambdaMetric(act, Fraction(1), 1)
    metric.table(list(cover.carrier))
    metric.table(list(cover.carrier))
    assert len(calls) == 1

    def capped(self, *args):
        calls.append(self)
        raise HorizonExceeded("subgroup closure exceeded cap")

    monkeypatch.setattr(SubgroupDescription, "closure", capped)
    calls.clear()
    metric = DSLambdaMetric(act, Fraction(1), 1)
    for _ in range(3):  # the memoised failure is raised again, not recomputed
        with pytest.raises(HorizonExceeded, match="closure exceeded cap"):
            metric.table(list(cover.carrier))
    assert len(calls) == 1
