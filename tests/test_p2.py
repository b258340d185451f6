import itertools
import math
import random
from fractions import Fraction

import pytest

import klab.p2
from klab.actions import DSLambdaMetric, DSLambdaResult, HomotopySAction
from klab.control import ControlSpace
from klab.errors import InputError
from klab.fixtures import dihedral_action, z2_swap_action
from klab.groups import FamilyPredicate, FiniteSubset, FiniteTableGroup
from klab.p2 import (lipschitz_transfer_audit, omega_audit, p2_action,
                     p2_metric, p2_point_map, p2_points, p2_stabilizer_check,
                     unordered_pair)


def test_p2_action_induces_each_distinct_map_once():
    act = dihedral_action(3)
    maps = set(act.phi.values()) | {m for grid in act.H.values() for m in grid}
    pair = p2_action(act)
    pair_maps = [*pair.phi.values(), *itertools.chain(*pair.H.values())]
    phi, H = pair._index_view()
    # one induced map, and one pair-index tuple, per distinct map of the action
    assert len({id(m) for m in pair_maps}) == len(maps)
    assert len({id(m) for m in [*phi.values(), *itertools.chain(*H.values())]}) == len(maps)
    # a genuine action's grids repeat its phi maps
    assert len(maps) < len(act.phi) + sum(map(len, act.H.values()))
    assert pair.phi == {g: p2_point_map(act.space, pair.space, m) for g, m in act.phi.items()}
    assert phi == {g: tuple(map(pair.index.__getitem__, m)) for g, m in pair.phi.items()}


def test_unordered_pair_canonical():
    assert unordered_pair("x", "y") == unordered_pair("y", "x")


def test_p2_metric_formula():
    # d(x,x')=1, d(y,y')=2, d(x,y')=5, d(y,x')=5 -> min matching is 3
    pts = ["x", "y", "x2", "y2"]
    rows = [[0, 3, 1, 5],
            [3, 0, 4, 2],
            [1, 4, 0, 4],
            [5, 2, 4, 0]]
    space = ControlSpace.from_matrix(pts, rows)
    pair = p2_metric(space)
    assert pair.d(unordered_pair("x", "y"), unordered_pair("x2", "y2")) == 3
    assert pair.d(unordered_pair("x", "y"), unordered_pair("x", "y")) == 0


def test_pair_space_scale_is_the_common_denominator():
    # points of the plane with rational coordinates under the l1 metric
    rng = random.Random(8)
    for _ in range(30):
        coords = set()
        while len(coords) < rng.randint(1, 5):
            coords.add(tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6]))
                             for _ in range(2)))
        pts = [f"x{i}" for i in range(len(coords))]
        dist = {(a, b): abs(u[0] - v[0]) + abs(u[1] - v[1])
                for a, u in zip(pts, coords) for b, v in zip(pts, coords)}
        space = ControlSpace(pts, dist)
        pair = p2_metric(space)
        scale, rows = pair.scaled()
        assert scale == math.lcm(1, *(v.denominator for v in pair.dist.values()))
        assert scale == space.scaled()[0]
        fresh = ControlSpace(pair.points, pair.dist)
        assert fresh.scaled() == (scale, rows)
        assert fresh.closure() == pair.closure() == rows


def test_p2_metric_axioms_random():
    rng = random.Random(31)
    pts = [f"x{i}" for i in range(6)]
    raw = {}
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if i < j:
                raw[(a, b)] = raw[(b, a)] = Fraction(rng.randint(1, 6))
    for k in pts:
        for a in pts:
            for b in pts:
                if a != b and a != k and b != k:
                    v = raw[(a, k)] + raw[(k, b)]
                    if v < raw[(a, b)]:
                        raw[(a, b)] = raw[(b, a)] = v
    dist = {(a, b): (Fraction(0) if a == b else raw[(a, b)])
            for a in pts for b in pts}
    space = ControlSpace(pts, dist)
    pair = p2_metric(space)
    # a fresh space runs its own Floyd--Warshall: an exhaustive triangle
    # check on all pair triples, which p2_metric certifies from the base
    fresh = ControlSpace(pair.points, pair.dist)
    assert fresh.closure() == pair.scaled()[1] == pair.closure()


def test_projection_one_lipschitz():
    act = z2_swap_action()
    space = act.space
    pair = p2_metric(space)
    for x0 in space.points:
        for y0 in space.points:
            for x1 in space.points:
                for y1 in space.points:
                    lhs = pair.d(unordered_pair(x0, y0), unordered_pair(x1, y1))
                    assert lhs <= space.d(x0, x1) + space.d(y0, y1)


def test_p2_functoriality():
    act = z2_swap_action()
    pair = p2_metric(act.space)
    index = {p: i for i, p in enumerate(pair.points)}
    swap = act.phi[1]
    ident = act.phi[0]
    # P2(swap o swap) = P2(swap) o P2(swap) on points
    lhs = p2_point_map(act.space, pair, tuple(swap[act.index[y]] for y in swap))
    p2_swap = p2_point_map(act.space, pair, swap)
    rhs = tuple(p2_swap[index[p2_swap[i]]] for i in range(len(pair.points)))
    assert lhs == rhs
    assert p2_point_map(act.space, pair, ident) == tuple(pair.points)


def test_p2_action_descends():
    act = z2_swap_action()
    induced = p2_action(act)
    induced.validate()
    # diagonal pairs map to diagonal pairs
    for g in induced.S:
        for x in act.space.points:
            diag = unordered_pair(x, x)
            image = induced.phi[g][induced.index[diag]]
            assert image[0] == image[1]


def _wandering_path5():
    """C2 flipping ``ControlSpace.path(5)``, with a coherence homotopy that
    wanders through a non-injective map."""
    z2 = FiniteTableGroup.cyclic(2)
    line = ControlSpace.path(5)
    pts = tuple(line.points)
    flip = tuple(f"p{4 - i}" for i in range(5))
    double = tuple(f"p{min(2 * i, 4)}" for i in range(5))
    return HomotopySAction(z2, line, FiniteSubset.of(z2, [0, 1]),
                           {0: pts, 1: flip},
                           {(0, 0): (pts,),
                            (0, 1): (flip, double, flip),
                            (1, 0): (flip,),
                            (1, 1): (pts,)})


def test_p2_action_nongenuine_homotopies_descend():
    induced = p2_action(_wandering_path5())  # validates grid endpoints on the quotient
    assert len(induced.H[(0, 1)]) == 3


def test_omega_audit_runs_no_floyd_warshall_on_a_pair_space(monkeypatch):
    act = _wandering_path5()
    closed = []  # each space whose closure() ran Floyd--Warshall
    closure = ControlSpace.closure
    monkeypatch.setattr(ControlSpace, "closure",
                        lambda self: (self._closure is None and closed.append(self))
                        or closure(self))
    rng, pair_pts = random.Random(4), p2_points(act.space)
    samples = [((rng.choice([0, 1]), rng.choice(pair_pts)),
                (rng.choice([0, 1]), rng.choice(pair_pts))) for _ in range(25)]
    for lam in (Fraction(1, 2), Fraction(1)):
        assert omega_audit(act, lam, samples, n_max=4).ok()
    assert closed == [act.space]
    pair = p2_action(act)
    assert p2_action(act) is pair and p2_metric(act.space) is pair.space
    assert pair.space.closure() is pair.space.scaled()[1]


def test_pair_space_builds_its_fractions_when_read():
    act = _wandering_path5()
    rng, pair_pts = random.Random(6), p2_points(act.space)
    samples = [((rng.choice([0, 1]), rng.choice(pair_pts)),
                (rng.choice([0, 1]), rng.choice(pair_pts))) for _ in range(25)]
    assert omega_audit(act, Fraction(1, 2), samples, n_max=4).ok()
    pair = p2_metric(act.space)
    assert "dist" not in vars(pair)  # the audit read only the integer view
    a, b = pair_pts[0], pair_pts[-1]
    scale, rows = pair.scaled()
    assert pair.d(a, b) == Fraction(rows[0][-1], scale) and pair.d(a, a) == 0
    assert len(pair.dist) == len(pair_pts) ** 2 and pair.dist is pair.dist  # built once
    pair.dist = {**pair.dist, (a, b): Fraction(7)}  # assignment replaces it
    assert pair.d(a, b) == 7


def test_dslambda_result_keeps_the_scaled_cost():
    metric = DSLambdaMetric(z2_swap_action(), Fraction(5, 2), 1)
    exact, truncated = metric.distance((0, "p"), (1, "q")), metric.distance((0, "p"), (1, "p"))
    assert (exact.found, exact.unit, exact.truncated) == (2, 2, False)  # the cost, unreduced
    assert exact.value == exact.lower_bound == 1
    assert (truncated.found, truncated.unit, truncated.truncated) == (7, 2, True)
    assert (truncated.value, truncated.lower_bound) == (Fraction(7, 2), 2)
    assert all(type(v) is Fraction for v in (exact.value, truncated.value,
                                             exact.lower_bound, truncated.lower_bound))
    unreached = DSLambdaMetric(z2_swap_action(), Fraction(5, 2), 0).distance((0, "p"), (1, "p"))
    assert (unreached.found, unreached.truncated, unreached.lower_bound) == (None, True, 1)
    given = DSLambdaResult(3, 2, True, 2)
    assert (given.found, given.unit, given.value, given.lower_bound) == (3, 2, Fraction(3, 2), 2)
    infinite = DSLambdaResult(None, 1, False, 3)
    assert infinite.is_infinite() and infinite.value is None and infinite.lower_bound == 3


@pytest.mark.parametrize("args", [
    (Fraction(3, 2), True, Fraction(2)),  # the old (value, truncated, lower_bound) order
    (Fraction(3), 1, False),
    (1.5, 1, False),
    (True, 1, False),
    (3, True, False),
    (3, 0, False),
    (3, -2, False),
    (3, Fraction(2), False),
])
def test_dslambda_result_takes_an_int_cost_over_a_positive_int_unit(args):
    with pytest.raises(InputError, match="found must be an int or None, and unit a positive int"):
        DSLambdaResult(*args)


def test_stabilizer_trivial_action():
    triv = FiniteTableGroup.cyclic(3)
    action = {g: {"a": "a", "b": "b"} for g in triv.elements()}
    rep = p2_stabilizer_check(triv, action, ("a", "b"))
    assert rep.index == 1
    assert sorted(rep.stabilizer) == triv.elements()


def test_stabilizer_z2_swap():
    z2 = FiniteTableGroup.cyclic(2)
    action = {0: {"p": "p", "q": "q"}, 1: {"p": "q", "q": "p"}}
    fam = FamilyPredicate("trivial")
    rep = p2_stabilizer_check(z2, action, ("p", "q"), fam)
    assert rep.index == 2
    assert rep.intersection == [0]
    assert rep.in_family2 is True


def test_stabilizer_dihedral_diagonal():
    act = dihedral_action(4)
    dn = act.backend
    # build the full genuine action table for all elements
    full = {}
    for g in dn.elements():
        rot, ref = g // 2, g % 2
        full[g] = {f"x{t}": f"x{(rot + t) % 4 if ref == 0 else (rot - t) % 4}"
                   for t in range(4)}
    rep = p2_stabilizer_check(dn, full, ("x0", "x2"), FamilyPredicate("finite"))
    assert rep.index in (1, 2)
    assert rep.in_family2 is not False
    # the diagonal pair of the square is preserved by rotation by 2 and by
    # the reflections fixing it; index of the intersection is 2
    assert rep.index == 2


def test_stabilizer_index_always_one_or_two():
    rng = random.Random(5)
    for n in (3, 4, 6):
        act = dihedral_action(n)
        dn = act.backend
        full = {}
        for g in dn.elements():
            rot, ref = g // 2, g % 2
            full[g] = {f"x{t}": f"x{(rot + t) % n if ref == 0 else (rot - t) % n}"
                       for t in range(n)}
        pts = [f"x{t}" for t in range(n)]
        for x in pts:
            for y in pts:
                rep = p2_stabilizer_check(dn, full, (x, y))
                assert rep.index in (1, 2)


def test_lipschitz_transfer_audit():
    x = ControlSpace.path(3)
    y = ControlSpace.path(3)
    ident = {p: p for p in x.points}
    rep = lipschitz_transfer_audit(x, y, ident, Fraction(1), Fraction(2))
    assert rep.ok() and rep.checked > 0


def test_omega_audit_z2():
    act = z2_swap_action()
    pair_space = p2_metric(act.space)
    samples = []
    for g in [0, 1]:
        for a in pair_space.points:
            for h in [0, 1]:
                for b in pair_space.points:
                    samples.append(((g, a), (h, b)))
    rep = omega_audit(act, Fraction(1, 2), samples, n_max=4)
    assert rep.ok()
    assert rep.checked == len(samples)


def test_omega_audit_diagonal_factor_two():
    act = z2_swap_action()
    metric_x = DSLambdaMetric(act, Fraction(1, 2), 4)
    induced = p2_action(act)
    metric_p = DSLambdaMetric(induced, Fraction(1, 2), 4)
    # diagonal pairs: both sides reduce to doubled chain costs
    z = (0, unordered_pair("p", "p"))
    z2_ = (1, unordered_pair("q", "q"))
    rhs = metric_p.distance(z, z2_)
    leg = metric_x.distance((0, "p"), (1, "q"))
    assert rhs.value is not None and leg.value is not None
    assert 2 * leg.value <= 2 * rhs.value


def _cli_samples(action, rng, count):
    """Samples drawn as ``klab p2`` draws them over a finite group."""
    pair_pts = p2_action(action).space.points
    window = action.backend.elements()
    return [((rng.choice(window), rng.choice(pair_pts)),
             (rng.choice(window), rng.choice(pair_pts))) for _ in range(count)]


def test_omega_audit_skips_a_sample_with_a_truncated_leg():
    act, lam = z2_swap_action(), Fraction(3)
    samples = _cli_samples(act, random.Random(1), 200)
    metric_x = DSLambdaMetric(act, lam, 1)
    metric_p2 = DSLambdaMetric(p2_action(act), lam, 1)
    truncated_pair = truncated_leg = 0
    for (g, (x, y)), (h, (xp, yp)) in samples:
        pair = metric_p2.distance((g, unordered_pair(x, y)), (h, unordered_pair(xp, yp)))
        leg = any(metric_x.distance((g, a), (h, b)).truncated
                  for a in (x, y) for b in (xp, yp))
        truncated_pair += pair.truncated
        truncated_leg += leg and not pair.truncated
    assert truncated_leg == 21
    audit = omega_audit(act, lam, samples, n_max=1)
    assert audit.skipped == truncated_pair + truncated_leg
    assert audit.checked == len(samples) - audit.skipped and audit.ok()


def test_omega_audit_counts_infinite_sides_as_checked():
    # S = {e}: no move changes the group element, so the two cosets of C2
    # are at distance infinity on both sides
    c2 = FiniteTableGroup.cyclic(2)
    space = ControlSpace.path(3)
    act = HomotopySAction.from_genuine(c2, space, FiniteSubset.of(c2, [0]),
                                       {0: {x: x for x in space.points}})
    a, b = unordered_pair("p0", "p1"), unordered_pair("p2", "p2")
    samples = [((0, a), (1, b)), ((1, b), (0, a)), ((1, a), (0, a))]
    assert DSLambdaMetric(p2_action(act), Fraction(1), 6).distance(*samples[0]).is_infinite()
    audit = omega_audit(act, Fraction(1), samples)
    assert (audit.checked, audit.skipped, audit.counterexamples) == (3, 0, [])


def test_omega_audit_reports_a_counterexample(monkeypatch):
    act = z2_swap_action()

    class HalvedPairs(DSLambdaMetric):
        """Halves every distance on the pair space, so the factor 2 breaks."""
        def _result(self, search, disp, y):  # the audit reads every result here
            r = super()._result(search, disp, y)
            if self.action is act or r.value is None:
                return r
            return DSLambdaResult(r.found, 2 * r.unit, r.truncated, r._lower)

    monkeypatch.setattr(klab.p2, "DSLambdaMetric", HalvedPairs)
    samples = [((0, ("p", "p")), (1, ("p", "p")))]
    audit = omega_audit(act, Fraction(1, 2), samples, n_max=4)
    assert not audit.ok() and audit.checked == 1
    assert audit.counterexamples[0].startswith("omega inequality fails at")
