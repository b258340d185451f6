"""Lebesgue numbers and nerve maps against the per-set scans they replaced.

``lebesgue_number`` and ``nerve_map`` read each point's distances to the
complements of all cover sets from one pass over its table row.  They
used to call ``distance_to_complement`` once per (point, set) pair, and
``lebesgue_number`` tracked infinity with two flags.  That code is kept
below as the reference, and a derandomized differential test runs both
over generated covers of Z walking on one point and of the dihedral
fixture, at horizons that truncate the table and horizons that do not.
"""

from fractions import Fraction
from typing import Dict, Optional, Tuple

from hypothesis import given, settings, strategies as st

from klab.actions import (CoverSpec, DSLambdaMetric, HomotopySAction, MetricTable,
                          lebesgue_number, nerve_complex, nerve_map)
from klab.control import INF, ControlSpace
from klab.errors import EmptyCover, HorizonExceeded, InputError, ZeroDenominator
from klab.fixtures import dihedral_cover
from klab.groups import FiniteSubset, FreeAbelianGroup
from klab.simplicial import PointInComplex


# -- the reference: one scan of the carrier per (point, set) pair -----------------


def distance_to_complement(cover: CoverSpec, table: MetricTable, name: str,
                           p: Tuple[object, object]) -> Optional[Fraction]:
    """min distance from ``p`` to carrier points outside the named set."""
    members = cover.sets[name]
    best: Optional[Fraction] = None
    pi = table.position[p]
    for j, q in enumerate(table.carrier):
        if q in members:
            continue
        d = table.d_by_index(pi, j)
        if d is None:
            continue  # unreachable complement point imposes no constraint
        if best is None or d < best:
            best = d
    # an empty or unreachable complement bounds nothing
    return best if best is not None else INF


def reference_lebesgue_number(cover: CoverSpec, table: MetricTable) -> Optional[Fraction]:
    if not cover.sets:
        raise EmptyCover("cover has no sets")
    overall: Optional[Fraction] = None
    overall_inf = True
    for p in cover.carrier:
        best: Optional[Fraction] = Fraction(0)
        best_inf = False
        for name in cover.sets:
            d = distance_to_complement(cover, table, name, p)
            if d is INF:
                best_inf = True
                break
            if d > best:
                best = d
        if best_inf:
            continue  # this point imposes no finite constraint
        overall_inf = False
        if overall is None or best < overall:
            overall = best
    return INF if overall_inf else overall


def reference_nerve_map(cover: CoverSpec, table: MetricTable):
    if not cover.sets:
        raise EmptyCover("cover has no sets")
    nerve = nerve_complex(cover)
    out: Dict[Tuple[object, object], PointInComplex] = {}
    for p in cover.carrier:
        coords: Dict[object, Fraction] = {}
        for name in cover.sets:
            d = distance_to_complement(cover, table, name, p)
            if d is INF:  # on a truncated table, unreached may still be finite
                if table.truncated:
                    raise HorizonExceeded(f"the complement of {name!r} is unreached from "
                                          f"{p!r} in a truncated table")
                raise InputError("nerve map needs a finite metric on the carrier")
            if d > 0:
                coords[name] = d
        total = sum(coords.values(), Fraction(0))
        if total == 0:
            raise ZeroDenominator(f"point {p!r} has zero distance to every complement")
        out[p] = PointInComplex(nerve, {k: v / total for k, v in coords.items()})
    return nerve, out


# -- generated covers ---------------------------------------------------------------


def _walk_action() -> HomotopySAction:
    """Z (free abelian, rank 1) walking on one point with S = {0, 1, -1}."""
    z = FreeAbelianGroup(1)
    space = ControlSpace.from_matrix(["a"], [[0]])
    S = FiniteSubset.of(z, [(0,), (1,), (-1,)])
    return HomotopySAction.from_genuine(z, space, S, {g: {"a": "a"} for g in S})


WALK = _walk_action()


@st.composite
def covers(draw):
    """``(action, cover, Lambda, horizon)``.  Each carrier point lies in a
    drawn set of names, so a set may be empty, hold the whole carrier (an
    empty complement) or have a complement the horizon leaves unreached;
    some covers have no sets."""
    if draw(st.booleans()):
        action = WALK
        window = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=7))
        carrier = tuple(((g,), "a") for g in window)  # a carrier may repeat points
        horizon = draw(st.sampled_from([0, 1, 2, 8, 8]))  # 8 spans every window
    else:
        action, fixture = dihedral_cover(draw(st.sampled_from([3, 4])))
        carrier = fixture.carrier
        if draw(st.booleans()):
            carrier = tuple(draw(st.lists(st.sampled_from(carrier), min_size=1,
                                          max_size=len(carrier), unique=True)))
        horizon = draw(st.integers(0, 2))
    names = draw(st.lists(st.sampled_from("ABCD"), min_size=2, max_size=4, unique=True))
    least = draw(st.sampled_from([0, 1]))  # 0 leaves points outside every set
    member = {p: draw(st.sets(st.sampled_from(names), min_size=least,
                              max_size=len(names) - 1))
              for p in dict.fromkeys(carrier)}
    sets = {name: frozenset(p for p, ns in member.items() if name in ns) for name in names}
    if draw(st.integers(0, 9)) == 9:
        sets = {}
    lam = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    return action, CoverSpec(carrier, sets), lam, horizon


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (EmptyCover, HorizonExceeded, InputError, ZeroDenominator) as exc:
        return type(exc), str(exc)


def _placed(result):
    nerve, images = result
    return nerve.simplices, {p: image.coords for p, image in images.items()}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(covers())
def test_lebesgue_number_and_nerve_map_match_the_per_set_scans(case):
    action, cover, lam, horizon = case
    table = DSLambdaMetric(action, lam, horizon).table(list(cover.carrier))
    assert _outcome(lebesgue_number, cover, table) \
        == _outcome(reference_lebesgue_number, cover, table)
    got, want = _outcome(nerve_map, cover, table), _outcome(reference_nerve_map, cover, table)
    if got[0] == want[0] == "value":
        got, want = _placed(got[1]), _placed(want[1])
    assert got == want
