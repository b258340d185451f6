"""Unordered pairs of points: metric, stabilizers, induced actions, and
the comparison audits feeding the L-theory transfer."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from .actions import DSLambdaMetric, DSLambdaResult, HomotopySAction, PointMap
from .control import ControlSpace
from .errors import InputError
from .groups import (FamilyPredicate, GroupBackend,
                     SubgroupDescription, family_member)


def unordered_pair(x, y) -> Tuple[object, object]:
    """Canonically sorted pair, by ``repr`` and stable on a tie; ``(x:y) = (y:x)``."""
    return (x, y) if repr(x) <= repr(y) else (y, x)


def _pair_ends(space: ControlSpace) -> Tuple[List[Tuple[int, int]], List[Tuple[object, object]]]:
    """The point indices ``(i, j)`` of each unordered pair and the pair
    itself, in ``p2_points``' order, each ordered as ``unordered_pair``
    orders its points; one ``repr`` per point."""
    pts = space.points
    keys = [repr(p) for p in pts]
    n = len(keys)
    ends = [(i, j) if keys[i] <= keys[j] else (j, i) for i in range(n) for j in range(i, n)]
    return ends, [(pts[i], pts[j]) for i, j in ends]


def p2_points(space: ControlSpace) -> List[Tuple[object, object]]:
    return _pair_ends(space)[1]


def p2_metric(space: ControlSpace) -> ControlSpace:
    """min of the two matchings: ``min{d(x,x')+d(y,y'), d(x,y')+d(y,x')}``,
    summed on the base space's ``scaled()`` integers.  The pair space has
    the base scale: ``d((x:x), (x:y)) = d(x, y)``, so its values include
    every base value and share no factor with the scale.

    Lemma: when the base rows are a metric, so are the pair rows.  A sum
    of two base values is symmetric when they are, and it is zero only
    when both are, that is when the matching pairs each point with itself
    and the two unordered pairs are equal: the diagonal is zero and every
    other value positive.  For the triangle inequality, compose an optimal
    matching of ``(x:y)`` with ``(x':y')`` and one of ``(x':y')`` with
    ``(x'':y'')``: the composite matches ``(x:y)`` with ``(x'':y'')``, and
    the base inequality, termwise, bounds its cost by the sum of the two.
    So a base that passes ``validate`` certifies the pair space, whose
    ``closure()`` is then its ``scaled()`` rows.  Only a base built
    unchecked can fail it; the pair space then runs its own ``validate``,
    which names the pair rows' first failure.

    Built once per base space: every later call returns the same space."""
    if space._pairs is not None:
        return space._pairs
    ends, pairs = _pair_ends(space)
    scale, ints = space.scaled()
    rows = [[a if (a := dx[i] + dy[j]) <= (b := dx[j] + dy[i]) else b for i, j in ends]
            for dx, dy in [(ints[x], ints[y]) for x, y in ends]]
    pair = ControlSpace.from_scaled(pairs, scale, rows)
    try:
        space.validate()
    except InputError:
        pair.validate()  # only a base built unchecked gets here
    else:
        pair._closure = pair.scaled()[1]  # by the lemma, no path is shorter
    space._pairs = pair
    return pair


def p2_point_map(space: ControlSpace, pair_space: ControlSpace, m: PointMap) -> PointMap:
    """Induced map on unordered pairs of a point map on the space."""
    index = space.index
    return tuple(unordered_pair(m[index[x]], m[index[y]]) for (x, y) in pair_space.points)


def p2_action(action: HomotopySAction) -> HomotopySAction:
    """Induced homotopy S-action on the pair space (componentwise maps,
    grid homotopies descend), built once per action.

    Each distinct map of the action's index view is induced once, as a
    tuple of pair indices read from a table of ``p2_points``' order, and
    those tuples seed the pair action's own index view before it runs
    ``validate``.  A pair map determines its map on the diagonal, so the
    pair action passes ``validate`` exactly when the action does.  A map
    that is not total cannot be induced: ``validate`` names it when it
    checks it, and otherwise it is an ``InputError`` of its own."""
    if action._pairs is not None:
        return action._pairs
    phi, H = action._index_view()
    if None in phi.values() or any(None in grid for grid in H.values()):
        action.validate()
        raise InputError("a point map outside the products of S is not total")
    pair_space = p2_metric(action.space)
    n, index, pairs = len(action.space.points), action.space.index, pair_space.points
    ends = [(index[x], index[y]) for x, y in pairs]
    table = [[0] * n for _ in range(n)]  # the pair index of each two point indices
    for k, (i, j) in enumerate(ends):
        table[i][j] = table[j][i] = k
    induced: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], PointMap]] = {}
    for m in chain(phi.values(), *H.values()):
        if m not in induced:
            rows = [table[y] for y in m]
            pm = tuple([rows[i][m[j]] for i, j in ends])
            induced[m] = pm, tuple(map(pairs.__getitem__, pm))
    pair = HomotopySAction(action.backend, pair_space, action.S,
                           {g: induced[m][1] for g, m in phi.items()},
                           {key: tuple(induced[m][1] for m in grid) for key, grid in H.items()},
                           check=False)
    pair._view = ({g: induced[m][0] for g, m in phi.items()},
                  {key: tuple(induced[m][0] for m in grid) for key, grid in H.items()})
    pair.validate()
    action._pairs = pair
    return pair


class StabilizerReport:
    def __init__(self, pair: Tuple[object, object], stabilizer: List[object],
                 intersection: List[object], index: int, in_family2: Optional[bool]):
        self.pair = pair
        self.stabilizer = stabilizer
        self.intersection = intersection
        self.index = index
        self.in_family2 = in_family2

    def ok(self) -> bool:
        return self.index in (1, 2) and self.in_family2 is not False


def p2_stabilizer_check(backend: GroupBackend, action: Dict[object, Dict[object, object]],
                        pair: Tuple[object, object],
                        family: Optional[FamilyPredicate] = None) -> StabilizerReport:
    """Stabilizer of an unordered pair under a genuine finite action.

    Computes ``G_(x:y)`` and ``G_x n G_y``, asserts the index is 1 or 2,
    and checks F_2 membership when the point stabilizers lie in the
    family.
    """
    if backend.kind != "finite-table":
        raise InputError("stabilizer enumeration needs a finite-table backend")
    x, y = pair
    stab = []
    inter = []
    for g in backend.elements():
        gx, gy = action[g][x], action[g][y]
        if unordered_pair(gx, gy) == unordered_pair(x, y):
            stab.append(g)
        if gx == x and gy == y:
            inter.append(g)
    if len(stab) % len(inter) != 0:
        raise InputError("stabilizer sizes are inconsistent")
    index = len(stab) // len(inter)
    in_family2: Optional[bool] = None
    if family is not None:
        gx_stab = [g for g in backend.elements() if action[g][x] == x]
        gy_stab = [g for g in backend.elements() if action[g][y] == y]
        f_plain = FamilyPredicate(family.kind, False, family.custom)
        if (family_member(f_plain, SubgroupDescription.of(backend, gx_stab))
                and family_member(f_plain, SubgroupDescription.of(backend, gy_stab))):
            f2 = FamilyPredicate(family.kind, True, family.custom)
            in_family2 = family_member(f2, SubgroupDescription.of(backend, stab))
    return StabilizerReport(unordered_pair(x, y), stab, inter, index, in_family2)


class AuditReport:
    def __init__(self, checked: int, skipped: int, counterexamples: List[str]):
        self.checked = checked
        self.skipped = skipped
        self.counterexamples = counterexamples

    def ok(self) -> bool:
        return not self.counterexamples


def lipschitz_transfer_audit(space_x: ControlSpace, space_y: ControlSpace,
                             f: Dict[object, object], delta: Fraction,
                             eps: Fraction) -> AuditReport:
    """If ``f`` moves delta-close points at most eps/2 apart, then the
    pair map moves delta-close pairs at most eps apart (checked on all
    pairs; a counterexample signals an implementation bug)."""
    delta, eps = Fraction(delta), Fraction(eps)
    for x in space_x.points:
        if x not in f or f[x] not in space_y:
            raise InputError(f"map undefined at {x!r}")
    # hypothesis
    for x in space_x.points:
        for xp in space_x.points:
            if space_x.d(x, xp) <= delta and space_y.d(f[x], f[xp]) > eps / 2:
                return AuditReport(0, 1, [])  # hypothesis not satisfied; nothing to audit
    px = p2_metric(space_x)
    py = p2_metric(space_y)
    checked = 0
    bad: List[str] = []
    for a in px.points:
        for b in px.points:
            if px.d(a, b) > delta:
                continue
            checked += 1
            fa = unordered_pair(f[a[0]], f[a[1]])
            fb = unordered_pair(f[b[0]], f[b[1]])
            if py.d(fa, fb) > eps:
                bad.append(f"P2(f) moves {a!r},{b!r} too far")
    return AuditReport(checked, 0, bad)


def _sum(a: DSLambdaResult, b: DSLambdaResult) -> Optional[Tuple[int, int]]:
    """``a.value + b.value`` as ``(numerator, denominator)`` over the two
    results' units; None when either is infinite."""
    if a.found is None or b.found is None:
        return None
    return a.found * b.unit + b.found * a.unit, a.unit * b.unit


def omega_audit(action: HomotopySAction, lam: Fraction,
                samples: Sequence[Tuple[Tuple[object, object], Tuple[object, object]]],
                n_max: int = 6) -> AuditReport:
    """Factor-2 comparison along ``omega(g,(x:y)) = ((g,x):(g,y))``.

    For sampled pairs ``z, z'`` in ``G x P2(X)`` checks
    ``d_{S,Lambda,P2(G x X)}(omega z, omega z') <= 2 d_{S,Lambda,G x P2(X)}(z, z')``
    whenever both sides are exact at the horizon; truncated values are
    skipped and counted.  Sums and comparisons run on each result's
    scaled cost, cross-multiplied over the units; a ``Fraction`` is built
    only for a counterexample's message.
    """
    pair_action = p2_action(action)
    metric_x = DSLambdaMetric(action, lam, n_max)
    metric_p2 = DSLambdaMetric(pair_action, lam, n_max)
    backend = action.backend
    checked = skipped = 0
    bad: List[str] = []
    for (z, zp) in samples:
        (g, pair), (h, pairp) = z, zp
        pair = unordered_pair(*pair)
        pairp = unordered_pair(*pairp)
        # G-invariance: all five distances are read at one displacement,
        # each from the search of its source point
        disp = backend.mul(backend.inv(backend.canonical(g)), backend.canonical(h))
        rhs = metric_p2._result(metric_p2._search(pair), disp, pairp)
        if rhs.truncated:
            skipped += 1
            continue
        # omega images: unordered pair of (g,x) points measured in the
        # pair metric built from d_{S,Lambda} on G x X
        legs = []
        for (a, b) in [(pair[0], pairp[0]), (pair[1], pairp[1]),
                       (pair[0], pairp[1]), (pair[1], pairp[0])]:
            r = metric_x._result(metric_x._search(a), disp, b)
            if r.truncated:
                break
            legs.append(r)
        if len(legs) < 4:
            skipped += 1
            continue
        m1, m2 = _sum(legs[0], legs[1]), _sum(legs[2], legs[3])
        # the lesser matching, the first on a tie; None when both are infinite
        lhs = m1 if m2 is None or (m1 is not None and m1[0] * m2[1] <= m2[0] * m1[1]) else m2
        checked += 1
        if rhs.is_infinite():
            continue  # rhs infinite bounds nothing
        if lhs is None or lhs[0] * rhs.unit > 2 * rhs.found * lhs[1]:
            bad.append(f"omega inequality fails at {z!r}, {zp!r}: "
                       f"lhs={None if lhs is None else Fraction(*lhs)}, rhs={rhs.value}")
    return AuditReport(checked, skipped, bad)
