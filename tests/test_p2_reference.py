"""The pair space against the checked construction it replaced.

``p2_metric`` used to build every pair space through ``validate``, whose
triangle check is a Floyd--Warshall pass over the pair points.  It now
certifies the pair space by the base space's ``validate`` (the lemma in
its docstring) and runs the pair check only when the base fails it.
The old construction is kept below as the reference, and a derandomized
differential test runs both over metric bases, built checked or
unchecked, and over bases built unchecked that are asymmetric,
non-positive, break the triangle inequality, store a nonzero
self-distance or miss an entry.
"""

import operator
from fractions import Fraction
from itertools import repeat

from hypothesis import given, settings, strategies as st

from klab.actions import DSLambdaMetric, HomotopySAction
from klab.control import ControlSpace
from klab.errors import InputError
from klab.groups import FiniteSubset, FiniteTableGroup
from klab.p2 import p2_action, p2_metric, p2_points


# -- the reference: the pair space checked by its own Floyd--Warshall -------------


def reference_closure(rows):
    closure = list(rows)
    for k, via in enumerate(closure):
        for i, row in enumerate(closure):
            if max(map(operator.sub, row, via)) > row[k]:  # row[z] > row[k] + via[z]
                closure[i] = tuple(map(min, row, map(operator.add, via, repeat(row[k]))))
    return tuple(closure)


def reference_validate(space):
    pts = space.points
    for a in pts:
        if space.dist[(a, a)] != 0:
            raise InputError(f"d({a},{a}) != 0")
    _, rows = space.scaled()
    for i, (a, row_a) in enumerate(zip(pts, rows)):
        for j, (b, v) in enumerate(zip(pts, row_a)):
            if v != rows[j][i]:
                raise InputError(f"asymmetric distance at ({a},{b})")
            if i != j and v <= 0:
                raise InputError(f"non-positive distance at ({a},{b})")
    if reference_closure(rows) == rows:
        return
    for a, row_a in zip(pts, rows):  # name the first failing triple
        for b, row_b, d_ab in zip(pts, rows, row_a):
            if max(map(operator.sub, row_a, row_b)) > d_ab:
                k = next(k for k in range(len(pts)) if row_a[k] > d_ab + row_b[k])
                raise InputError(f"triangle inequality fails at ({a},{b},{pts[k]})")


def reference_p2_metric(space):
    """The pair points, ``scaled()``, ``closure()`` and eagerly built
    ``dist`` of the checked pair space."""
    pairs = p2_points(space)
    scale, ints = space.scaled()
    index = space.index
    ends = [(ints[index[x]], ints[index[y]], index[x], index[y]) for x, y in pairs]
    rows = tuple(tuple(min(dx[i] + dy[j], dx[j] + dy[i]) for (_, _, i, j) in ends)
                 for (dx, dy, _, _) in ends)
    values = {v: Fraction(v, scale) for v in set().union(*rows)}
    pair = ControlSpace(pairs, {}, check=False)
    pair.dist = {(a, b): values[v] for a, row in zip(pairs, rows) for b, v in zip(pairs, row)}
    pair._scaled = (scale, rows)
    reference_validate(pair)
    return tuple(pairs), (scale, rows), reference_closure(rows), pair.dist


# -- bases -------------------------------------------------------------------------

FAULTS = ["asymmetric", "non-positive", "triangle", "diagonal", "missing"]


@st.composite
def bases(draw):
    """A base space and whether it is known to be a metric.  Metric bases
    are points of the plane with rational coordinates under the l1 metric,
    built checked or unchecked, so that the base's ``validate`` and not
    its constructor decides how ``p2_metric`` fills the pair rows; a fault
    then breaks one entry of an unchecked copy."""
    n = draw(st.integers(1, 5))
    coords = draw(st.lists(st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 2),
                           min_size=n, max_size=n, unique=True))
    pts = [f"x{i}" for i in range(n)]
    dist = {(a, b): abs(u[0] - v[0]) + abs(u[1] - v[1])
            for a, u in zip(pts, coords) for b, v in zip(pts, coords)}
    fault = draw(st.sampled_from([None, None, "unchecked", *FAULTS]))
    if fault is None:
        return ControlSpace(pts, dist), True
    if fault == "unchecked":
        return ControlSpace(pts, dist, check=False), True
    a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
    if fault == "asymmetric" and a != b:
        dist[(a, b)] += draw(st.sampled_from([Fraction(1, 3), Fraction(-1, 2), Fraction(1)]))
    elif fault == "non-positive" and a != b:
        dist[(a, b)] = dist[(b, a)] = draw(st.sampled_from([Fraction(0), Fraction(-1)]))
    elif fault == "triangle" and a != b:
        dist[(a, b)] = dist[(b, a)] = sum(dist.values()) + 1
    elif fault == "diagonal":
        dist[(a, a)] = draw(st.sampled_from([Fraction(1), Fraction(-1, 2)]))
    elif fault == "missing" and a != b:
        del dist[(a, b)], dist[(b, a)]
    return ControlSpace(pts, dist, check=False), False


def _outcome(build):
    try:
        return "value", build()
    except InputError as exc:
        return type(exc), str(exc)


def _pair_space(space):
    pair = p2_metric(space)
    return pair.points, pair.scaled(), pair.closure(), pair.dist  # dist built on this read


def _swap_action(space, perm):
    """C2 acting on the base by an involution of its points."""
    c2 = FiniteTableGroup.cyclic(2)
    flip = dict(zip(space.points, (space.points[i] for i in perm)))
    return HomotopySAction.from_genuine(c2, space, FiniteSubset.of(c2, [0, 1]),
                                        {0: {p: p for p in space.points}, 1: flip})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bases(), st.data())
def test_p2_metric_matches_the_checked_pair_space(case, data):
    space, metric = case
    got, want = _outcome(lambda: _pair_space(space)), _outcome(lambda: reference_p2_metric(space))
    assert got == want
    if got[0] != "value":
        assert not metric
        return
    # the lazily built distances are the eager ones, diagonal included
    points, lazy, eager = got[1][0], got[1][3], want[1][3]
    assert set(lazy) == set(eager) == {(a, b) for a in points for b in points}
    assert all(type(lazy[key]) is Fraction and lazy[key] == v for key, v in eager.items())
    # the distances on G x P2(X) read the preset closure as a fresh space's own
    n = len(space.points)
    order = data.draw(st.permutations(range(n)))
    swaps = data.draw(st.integers(0, n // 2))
    perm = list(range(n))
    for i, j in zip(order[0:2 * swaps:2], order[1:2 * swaps:2]):
        perm[i], perm[j] = j, i
    act = _swap_action(space, perm)
    pair = p2_action(act)
    fresh = ControlSpace(pair.space.points, pair.space.dist)
    again = HomotopySAction(act.backend, fresh, act.S, pair.phi, pair.H)
    lam = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1)]))
    carrier = [(g, p) for g in (0, 1) for p in pair.space.points]
    assert DSLambdaMetric(pair, lam, 2).table(carrier) \
        == DSLambdaMetric(again, lam, 2).table(carrier)
