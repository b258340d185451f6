import heapq
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klab import actions
from klab.actions import (DEFAULT_STATE_CAP, CoverSpec, DSLambdaMetric, DominationData,
                          HomotopySAction, audit_nerve_contraction,
                          check_f_cover, lebesgue_lambda_search,
                          lebesgue_number, MetricTable, moduli, nerve_map,
                          validate_domination)
from klab.control import ControlSpace
from klab.errors import EmptyCover, HorizonExceeded, InputError
from klab.fixtures import (dihedral_action, dihedral_cover, path_point_domination,
                           z2_swap_action)
from klab.groups import (FamilyPredicate, FiniteSubset, FiniteTableGroup, FreeAbelianGroup,
                         FreeGroup)
from klab.p2 import (omega_audit, p2_action, p2_metric, p2_point_map, p2_points,
                     unordered_pair)


def trivial_action_on_path(n=4):
    triv = FiniteTableGroup.cyclic(1)
    line = ControlSpace.path(n)
    s = FiniteSubset.of(triv, [0])
    return HomotopySAction.from_genuine(triv, line, s,
                                        {0: {p: p for p in line.points}})


# -- F-sets and orbits --------------------------------------------------------


def _swap_parts():
    """The arguments of ``z2_swap_action``'s ``HomotopySAction``, to spoil one at a time."""
    act = z2_swap_action()
    return dict(backend=act.backend, space=act.space, S=act.S, phi=dict(act.phi),
                homotopies=dict(act.H))


def _drop(key, name):
    return lambda parts: parts[key].pop(name)


def _put(key, name, value):
    return lambda parts: parts[key].__setitem__(name, value)


@pytest.mark.parametrize("spoil, message", [
    (lambda parts: parts.update(S=FiniteSubset.of(parts["backend"], [1])),
     "S must contain the identity"),
    (_put("phi", 0, ("q", "p")), "phi_e must be the identity"),
    (_drop("homotopies", (1, 1)), "homotopy missing for pair (1,1)"),
    (_put("homotopies", (1, 1), (("p", "q"), ("p",), ("p", "q"))),
     "H[1,1] has a non-total grid map"),
    (_put("homotopies", (0, 0), (("p", "q"), ("q", "p"), ("p", "q"))),
     "H[e,e] must be constantly the identity"),
], ids=["no-identity-in-S", "phi-e-moves", "homotopy-missing", "non-total-grid-map",
        "H-e-e-moves"])
def test_homotopy_s_action_refuses_each_broken_axiom(spoil, message):
    parts = _swap_parts()
    HomotopySAction(**parts)  # the unspoilt action is valid
    spoil(parts)
    with pytest.raises(InputError, match=re.escape(message)):
        HomotopySAction(**parts)


def test_f_set_genuine_action():
    act = z2_swap_action()
    fs = act.f_set(1)
    assert fs == [("q", "p")]  # left translation by the swap
    fe = act.f_set(0)
    assert ("p", "q") in fe  # identity map present


def test_f_set_contains_identity_for_e():
    act = z2_swap_action()
    assert tuple(act.space.points) in act.f_set(0)


def test_s_orbit_depth_zero_and_one():
    act = z2_swap_action()
    assert act.s_orbit(0, (0, "p")) == {(0, "p")}
    # genuine case: {(g a^{-1}, a x)} over products of two letters
    orbit = act.s_orbit(1, (0, "p"))
    assert orbit == {(0, "p"), (1, "q")}


def test_s_orbit_genuine_closed_form():
    # for an honest action restricted to symmetric S, the depth-n set is
    # {(g a^{-1}, a x)} with a ranging over products of 2n letters of S
    z4 = FiniteTableGroup.cyclic(4)
    pts = [f"x{i}" for i in range(4)]
    dist = {(a, b): (Fraction(0) if a == b else Fraction(1))
            for a in pts for b in pts}
    space = ControlSpace(pts, dist)
    action = {k: {pts[i]: pts[(i + k) % 4] for i in range(4)} for k in range(4)}
    s = FiniteSubset.of(z4, [0, 1, 3])  # symmetric: 1^{-1} = 3
    act = HomotopySAction.from_genuine(z4, space, s, action)
    for n in (1, 2):
        products = {0}
        for _ in range(2 * n):
            products = {z4.mul(a, l) for a in products for l in s}
        expected = {(z4.inv(a), pts[(0 + a) % 4]) for a in products}
        assert act.s_orbit(n, (0, "x0")) == expected


def free_orbit_action(n_points):
    """F2 acting trivially on a path, with ``S = {e, a^{+-1}, b^{+-1}}``."""
    f2, line = FreeGroup(2), ControlSpace.path(n_points)
    s = FiniteSubset.of(f2, ["", "a", "A", "b", "B"])
    return HomotopySAction.from_genuine(f2, line, s, {g: {p: p for p in line.points} for g in s})


@pytest.mark.parametrize("build, depth", [(lambda: free_orbit_action(2), 3),
                                          (lambda: dihedral_action(4), 4)],
                         ids=["free", "dihedral4"])
def test_s_orbit_cap_admits_exactly_the_largest_layer(build, depth, monkeypatch):
    act = build()
    start = (act.backend.identity(), act.space.points[0])
    largest = max(len(act.s_orbit(k, start)) for k in range(depth + 1))
    want = act.s_orbit(depth, start)
    monkeypatch.setattr(actions, "ORBIT_CAP", largest)
    assert act.s_orbit(depth, start) == want
    monkeypatch.setattr(actions, "ORBIT_CAP", largest - 1)
    with pytest.raises(HorizonExceeded):
        act.s_orbit(depth, start)


def test_s_orbit_nonconstant_homotopy():
    # 3-point space, one nonconstant homotopy on a 3-step grid
    triv = FiniteTableGroup.cyclic(1)
    pts = ["x", "y", "z"]
    space = ControlSpace.from_matrix(pts, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    s = FiniteSubset.of(triv, [0])
    ident = ("x", "y", "z")
    wander = ("y", "y", "y")
    middle = ("y", "y", "z")
    act = HomotopySAction(triv, space, s,
                          {0: ident},
                          {(0, 0): (ident,)},
                          check=False)
    # hand-built action with a nontrivial H_{e,e} is not allowed; use a
    # second letter in a bigger group instead
    z2 = FiniteTableGroup.cyclic(2)
    s2 = FiniteSubset.of(z2, [0, 1])
    act = HomotopySAction(z2, space, s2,
                          {0: ident, 1: ident},
                          {(0, 0): (ident,),
                           (0, 1): (ident, middle, ident),
                           (1, 0): (ident,),
                           (1, 1): (ident,)})
    maps = act.f_set(1)
    assert len(maps) == 2  # ident and the wandering grid map
    oracle = set()
    for a in [0, 1]:
        for b in [0, 1]:
            step = z2.mul(z2.inv(a), b)
            for f in act.f_set(a):
                for ft in act.f_set(b):
                    for y in pts:
                        for x2 in pts:
                            if f[act.index[y]] == ft[act.index[x2]]:
                                pass
    got = act.s_orbit(1, (0, "x"))
    brute = set()
    for a in [0, 1]:
        for b in [0, 1]:
            for f in act.f_set(a):
                for ft in act.f_set(b):
                    for x2 in pts:
                        if f[act.index["x"]] == ft[act.index[x2]]:
                            brute.add((z2.mul(z2.inv(a), b), x2))
    assert got == brute


# -- the quasi-metric ---------------------------------------------------------


def brute_dslambda(act, lam, src, dst, nmax=2):
    best = None
    pts = act.space.points
    bk = act.backend
    letters = list(act.S)
    if src[0] == dst[0]:
        best = lam * act.space.d(src[1], dst[1])
    for n in range(1, nmax + 1):
        for xs in itertools.product(pts, repeat=n):
            for zs in itertools.product(pts, repeat=n):
                xfull = (src[1],) + xs
                zfull = zs + (dst[1],)
                for ab in itertools.product(letters, repeat=2 * n):
                    a, b = ab[:n], ab[n:]
                    g = src[0]
                    for t in range(n):
                        g = bk.mul(g, bk.mul(bk.inv(a[t]), b[t]))
                    if g != dst[0]:
                        continue
                    ok = True
                    for t in range(1, n + 1):
                        if not any(f[act.index[zfull[t - 1]]] == ft[act.index[xfull[t]]]
                                   for f in act.f_set(a[t - 1])
                                   for ft in act.f_set(b[t - 1])):
                            ok = False
                            break
                    if not ok:
                        continue
                    cost = Fraction(n)
                    for t in range(n + 1):
                        zt = zfull[t] if t < n else dst[1]
                        cost += lam * act.space.d(xfull[t], zfull[t] if t < n else dst[1])
                    if best is None or cost < best:
                        best = cost
    return best


def test_dslambda_z2_worked_example():
    act = z2_swap_action()
    for lam in (Fraction(1, 2), Fraction(1, 3)):
        metric = DSLambdaMetric(act, lam, n_max=4)
        assert metric.distance((0, "p"), (0, "p")).value == 0
        assert metric.distance((0, "p"), (1, "q")).value == 1
        assert metric.distance((0, "p"), (1, "p")).value == 1 + lam
        assert metric.distance((0, "p"), (0, "q")).value == lam


def test_dslambda_matches_bruteforce():
    act = z2_swap_action()
    lam = Fraction(1, 2)
    metric = DSLambdaMetric(act, lam, n_max=2)
    for src in [(0, "p"), (1, "q")]:
        for dst in [(0, "p"), (0, "q"), (1, "p"), (1, "q")]:
            got = metric.distance(src, dst)
            assert got.value == brute_dslambda(act, lam, src, dst)


@st.composite
def small_actions(draw):
    """A cyclic group acting on 2-3 points through a permutation of
    matching order, with one grid homotopy given a wandering middle map
    and distances in [1, 2] (so the triangle inequality holds) drawn
    with mixed denominators."""
    order = draw(st.integers(1, 3))
    n_pts = draw(st.integers(2, 3))
    pts = [f"x{i}" for i in range(n_pts)]

    def power(perm, k):
        image = tuple(range(n_pts))
        for _ in range(k):
            image = tuple(perm[i] for i in image)
        return image

    identity = tuple(range(n_pts))
    perm = draw(st.sampled_from([p for p in itertools.permutations(range(n_pts))
                                 if power(p, order) == identity]))

    group = FiniteTableGroup.cyclic(order)
    s_elems = [0] + ([draw(st.integers(1, order - 1))] if order > 1 else [])
    rational = st.builds(lambda q, p: 1 + Fraction(p % (q + 1), q),
                         st.sampled_from([1, 2, 3, 5, 7]), st.integers(0, 7))
    dist = {}
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            dist[(pts[i], pts[j])] = draw(rational)
    space = ControlSpace(pts, dist)
    phi = {g: tuple(pts[i] for i in power(perm, g)) for g in s_elems}
    homotopies = {(g, h): (phi[(g + h) % order],) for g in s_elems for h in s_elems
                  if (g + h) % order in s_elems}
    if len(s_elems) > 1:  # H[e,e] must stay constant
        wander = tuple(draw(st.sampled_from(pts)) for _ in pts)
        homotopies[(0, s_elems[1])] = (phi[s_elems[1]], wander, phi[s_elems[1]])
    act = HomotopySAction(group, space, FiniteSubset.of(group, s_elems), phi, homotopies)
    lam = Fraction(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 4, 7])))
    src = (draw(st.integers(0, order - 1)), draw(st.sampled_from(pts)))
    return act, lam, src


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_actions())
def test_dslambda_matches_bruteforce_generated(case):
    act, lam, src = case
    metric = DSLambdaMetric(act, lam, n_max=2)
    for h in act.backend.elements():
        for y in act.space.points:
            got = metric.distance(src, (h, y))
            assert got.value == brute_dslambda(act, lam, src, (h, y))


def test_dslambda_one_search_per_source(monkeypatch):
    act = dihedral_action(3)
    carrier = [(g, x) for g in act.backend.elements() for x in act.space.points]
    metric = DSLambdaMetric(act, Fraction(1, 2), n_max=3)
    searched = []
    start = metric._start
    monkeypatch.setattr(metric, "_start", lambda x0: searched.append(x0) or start(x0))
    # every query from a point x runs the one search from (e, x)
    values = {(p, q): metric.distance(p, q) for p in carrier if p[1] == "x0" for q in carrier}
    assert searched == ["x0"]
    table = metric.table(carrier)
    assert sorted(searched) == ["x0", "x1", "x2"]
    fresh = DSLambdaMetric(act, Fraction(1, 2), n_max=3).table(carrier)
    assert table == fresh
    for (p, q), res in values.items():
        assert res.value == fresh.d(p, q)


def test_dslambda_state_cap_reraises(monkeypatch):
    act = z2_swap_action()
    metric = DSLambdaMetric(act, Fraction(1, 2), n_max=4, state_cap=3)
    searched = []
    start = metric._start
    monkeypatch.setattr(metric, "_start", lambda x0: searched.append(x0) or start(x0))
    for _ in range(2):
        with pytest.raises(HorizonExceeded):
            metric.distance((0, "p"), (1, "q"))
    with pytest.raises(HorizonExceeded):
        metric.table([(0, "p")])
    assert searched == ["p", "p", "p"]  # a capped search is never kept


def heap_dijkstra(act, lam, n_max, state_cap, x0):
    """The heap Dijkstra that ``DSLambdaMetric`` ran before its layered
    search, kept as a reference: ``(best, scale, states)`` with ``best``
    the least scaled cost from ``(e, x0)`` to every reached ``(g, x)`` and
    ``states`` the number of reachable ``(g, x, k)``."""
    points, d = act.space.points, act.space.d
    rows = {x: [(z, d(x, z)) for z in points if z != x] for x in points}
    den = math.lcm(1, *(v.denominator for row in rows.values() for _, v in row))
    scale = den * lam.denominator
    num = lam.numerator * den
    fiber = {x: tuple((z, num * v.numerator // v.denominator) for z, v in row)
             for x, row in rows.items()}
    _, moves = move_table_by_relation(act)
    mul, unit, cap = act.backend.mul, scale, state_cap
    push, pop = heapq.heappush, heapq.heappop
    start = (act.backend.identity(), x0, 0)
    dist = {start: 0}
    best = {}
    heap = [(0, 0, start)]
    counter = 0
    while heap:
        cost, _, state = pop(heap)
        if dist[state] != cost:
            continue
        g, x, k = state
        key = (g, x)
        if key not in best or cost < best[key]:
            best[key] = cost
        for z, w in fiber[x]:
            nstate, ncost = (g, z, k), cost + w
            old = dist.get(nstate)
            if old is None or ncost < old:
                dist[nstate] = ncost
                counter += 1
                push(heap, (ncost, counter, nstate))
        if k < n_max:
            ncost = cost + unit
            for step, xp in moves[x]:
                nstate = (mul(g, step), xp, k + 1)
                old = dist.get(nstate)
                if old is None or ncost < old:
                    dist[nstate] = ncost
                    counter += 1
                    push(heap, (ncost, counter, nstate))
        if len(dist) > cap:
            raise HorizonExceeded("d_{S,Lambda} state cap exceeded")
    return best, scale, len(dist)


@st.composite
def unchecked_actions(draw):
    """Arbitrary maps and grid homotopies, built unchecked so the move
    edges vary freely, over a cyclic group or over Z (where the layers
    keep growing), on 1-4 points whose distances, built unchecked too,
    often break the triangle inequality; with a horizon of 0-3 moves and
    either the default state cap or one of 1-40 states."""
    if draw(st.booleans()):
        group = FiniteTableGroup.cyclic(draw(st.integers(1, 4)))
        others = group.elements()[1:]
    else:
        group = FreeAbelianGroup(1)
        others = [(-2,), (-1,), (1,), (3,)]
    e = group.identity()
    s_elems = [e] + draw(st.lists(st.sampled_from(others), max_size=2, unique=True)
                         if others else st.just([]))
    n_pts = draw(st.integers(1, 4))
    pts = [f"x{i}" for i in range(n_pts)]
    weight = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3),
                              Fraction(5)])
    dist = {(pts[i], pts[j]): draw(weight) for i in range(n_pts) for j in range(i + 1, n_pts)}
    space = ControlSpace(pts, dist, check=False)
    point_map = st.lists(st.sampled_from(pts), min_size=n_pts, max_size=n_pts).map(tuple)
    phi = {g: draw(point_map) for g in s_elems}
    phi[e] = tuple(pts)
    homotopies = {(g, h): tuple(draw(st.lists(point_map, min_size=1, max_size=2)))
                  for g in s_elems for h in s_elems if group.mul(g, h) in s_elems}
    act = HomotopySAction(group, space, FiniteSubset.of(group, s_elems), phi, homotopies,
                          check=False)
    lam = Fraction(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3])))
    state_cap = draw(st.one_of(st.just(DEFAULT_STATE_CAP), st.integers(1, 40)))
    return act, lam, draw(st.integers(0, 3)), state_cap


@st.composite
def valid_actions(draw):
    """``unchecked_actions`` with every grid rebuilt to run from
    ``phi_g o phi_h`` through at most one arbitrary map to ``phi_gh``, and
    ``H[e,e]`` constantly the identity, on a space whose distances lie in
    ``[1, 2]`` and so form a metric: each one passes ``validate``."""
    act, *rest = draw(unchecked_actions())
    e, pts = act.backend.identity(), act.space.points
    weight = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)])
    space = ControlSpace(pts, {(x, y): draw(weight) for i, x in enumerate(pts) for y in pts[i + 1:]})
    point_map = st.lists(st.sampled_from(pts), min_size=len(pts), max_size=len(pts)).map(tuple)
    homotopies = {}
    for g, h, gh in act.S.products:
        middle = [] if g == h == e else draw(st.lists(point_map, max_size=1))
        outer = act.phi[g]
        homotopies[(g, h)] = (tuple(outer[act.index[y]] for y in act.phi[h]), *middle, act.phi[gh])
    return (HomotopySAction(act.backend, space, act.S, act.phi, homotopies), *rest)


def pair_case(case):
    """A case of ``valid_actions`` with its action replaced by its pair action."""
    return (p2_action(case[0]), *case[1:])


# unchecked actions rarely have an identity letter that moves each point to
# itself, which a search step skips; valid actions and their pair actions
# often do, so the search tests draw all three
search_actions = st.one_of(unchecked_actions(), valid_actions(), valid_actions().map(pair_case))


def layered_costs(metric, x0):
    """``metric._layered(x0)``, whose rows are keyed by element id and
    indexed by point, as ``{(g, x): cost}``."""
    rows = metric._layered(x0)
    elements = {i: g for g, i in metric._reach()[0].items()}
    return {(elements[g], x): v for g, row in rows.items() for x, v in zip(metric.points, row)}


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(search_actions)
def test_layered_search_matches_heap_dijkstra(case):
    act, lam, n_max, state_cap = case
    metric = DSLambdaMetric(act, lam, n_max=n_max, state_cap=state_cap)
    for x0 in act.space.points:
        try:
            want, scale, states = heap_dijkstra(act, lam, n_max, state_cap, x0)
        except HorizonExceeded:
            with pytest.raises(HorizonExceeded):
                metric._layered(x0)
            continue
        assert metric.scale == scale
        assert layered_costs(metric, x0) == want
    # the cap admits exactly the reachable states
    x0 = act.space.points[-1]
    _, _, states = heap_dijkstra(act, lam, n_max, DEFAULT_STATE_CAP, x0)
    assert DSLambdaMetric(act, lam, n_max=n_max, state_cap=states)._layered(x0)
    with pytest.raises(HorizonExceeded):
        DSLambdaMetric(act, lam, n_max=n_max, state_cap=states - 1)._layered(x0)


def queries(act):
    """Every ``(g, y)``: the whole group when it is finite, else the
    window -7..7 of Z, which holds both reached and unreached elements."""
    elements = act.backend.elements() or [(k,) for k in range(-7, 8)]
    return [(g, y) for g in elements for y in act.space.points]


def test_table_reads_each_triple_once_and_matches_per_pair_distances():
    """``table`` reads one value per ``(x, g^-1 h, y)``; on carriers that
    repeat points and displacements (a drawn carrier and a translate of
    it, over abelian groups) its values are the per-pair ``distance``
    values of a fresh metric and its flag the OR of theirs, and a capped
    metric raises for both.  Capped, truncated and infinite entries occur."""
    seen = dict.fromkeys(("capped", "truncated", "infinite", "shared"), 0)

    @settings(max_examples=160, deadline=None, derandomize=True, database=None)
    @given(unchecked_actions(), st.data())
    def check(case, data):
        act, lam, n_max, state_cap = case
        backend, pts = act.backend, act.space.points
        pool = backend.elements() or [(k,) for k in range(-2, 3)]
        base = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pts)),
                                  min_size=1, max_size=5))
        t = data.draw(st.sampled_from(pool))
        carrier = base + [(backend.mul(g, t), x) for g, x in base]
        metric = DSLambdaMetric(act, lam, n_max=n_max, state_cap=state_cap)
        fresh = DSLambdaMetric(act, lam, n_max=n_max, state_cap=state_cap)
        reads = []
        result = metric._result

        def counted(search, disp, y):
            reads.append((disp, y))
            return result(search, disp, y)
        metric._result = counted
        try:
            table = metric.table(carrier)
        except HorizonExceeded:
            seen["capped"] += 1
            with pytest.raises(HorizonExceeded):
                fresh.distance(carrier[0], carrier[0])
            return
        want = {(i, j): fresh.distance(p, q) for i, p in enumerate(carrier)
                for j, q in enumerate(carrier)}
        assert table.values == {key: res.value for key, res in want.items()}
        assert table.truncated == any(res.truncated for res in want.values())
        triples = {(x, backend.mul(backend.inv(g), h), y) for g, x in carrier for h, y in carrier}
        assert len(reads) == len(triples) < len(want)
        seen["truncated"] += table.truncated
        seen["infinite"] += None in table.values.values()
        seen["shared"] += 1

    check()
    assert all(seen.values()), seen


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(search_actions, st.data())
def test_resumed_searches_match_heap_dijkstra_and_fresh_metrics(case, data):
    act, lam, n_max, state_cap = case
    metric = DSLambdaMetric(act, lam, n_max=n_max, state_cap=state_cap)
    steps = []
    step = metric._step
    metric._step = lambda search: steps.append(search) or step(search)
    for x0 in act.space.points:
        src = (act.backend.identity(), x0)
        order = data.draw(st.permutations(queries(act)))
        try:
            want, scale, _ = heap_dijkstra(act, lam, n_max, state_cap, x0)
        except HorizonExceeded:
            for dst in order:  # a capped metric raises on every query
                with pytest.raises(HorizonExceeded):
                    metric.distance(src, dst)
            continue
        for dst in order:
            before = len(steps)
            got = metric.distance(src, dst)
            cost = want.get(dst)
            assert got.value == (None if cost is None else Fraction(cost, scale))
            if cost is None:  # an unreached displacement runs no layer
                assert len(steps) == before
            fresh = DSLambdaMetric(act, lam, n_max=n_max, state_cap=state_cap).distance(src, dst)
            assert ((got.value, got.truncated, got.lower_bound)
                    == (fresh.value, fresh.truncated, fresh.lower_bound))


def test_queries_stop_at_the_layer_that_certifies_them():
    metric = DSLambdaMetric(z2_swap_action(), Fraction(1, 2), n_max=4)
    src = (0, "p")
    assert metric.distance(src, (0, "q")).value == Fraction(1, 2)  # at most 1 = (0 + 1) moves
    search = metric._searches["p"]
    assert search.k == 0
    assert metric.distance(src, (1, "q")).value == 1
    assert metric.distance(src, (1, "p")).value == Fraction(3, 2)  # resumed, final at k = 1
    assert search.k == 1
    assert metric._layered("p") == search.rows  # the horizon changes no entry here


def test_state_cap_stops_inside_the_layer_that_passes_it(monkeypatch):
    act = free_orbit_action(3)
    letters = len(act.move_relation()[1])
    layer1 = len({act.backend.mul("", step) for step, _ in act.move_relation()[1]})
    muls = []
    mul = act.backend.mul
    monkeypatch.setattr(act.backend, "mul", lambda a, b: muls.append(a) or mul(a, b))
    # layers 0 and 1 fit; the first element of layer 1 spends the rest, so
    # at most one element of layer 1 gets its successors, not all of them
    metric = DSLambdaMetric(act, Fraction(1, 2), n_max=2, state_cap=3 * (1 + layer1))
    with pytest.raises(HorizonExceeded):
        metric._reach()
    assert letters <= len(muls) <= 2 * letters < letters * layer1


def move_table_by_relation(act):
    """The move table on points, each point ``z`` mapped to its moves
    ``(a^{-1} b, x')``, as built before the images under ``F_a`` were
    joined with the preimages under ``F_b``: one ``move_relation(a, b)``
    per pair of letters, kept as a reference.  Edges are sets here."""
    def move_relation(a, b):
        fa, fb = act.f_set(a), act.f_set(b)
        out, targets = set(), {}
        for fm in fb:
            for x in act.space.points:
                targets.setdefault(fm[act.index[x]], []).append(x)
        for fm in fa:
            for z in act.space.points:
                for x in targets.get(fm[act.index[z]], ()):
                    out.add((z, x))
        return out

    mul, inv = act.backend.mul, act.backend.inv
    letters, edges = set(), {z: set() for z in act.space.points}
    for a in act.S:
        for b in act.S:
            step = mul(inv(a), b)
            letters.add(step)
            for z, xp in move_relation(a, b):
                edges[z].add((step, xp))
    return sorted(letters, key=repr), edges


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(unchecked_actions())
def test_index_moves_and_pair_maps_match_references(case):
    act, lam, n_max, state_cap = case
    index = act.space.index
    want_letters, want_edges = move_table_by_relation(act)
    metric = DSLambdaMetric(act, lam, n_max=n_max, state_cap=state_cap)
    assert metric.letters == want_letters
    assert metric.moves is act.move_relation()[1]  # read as it is, not re-indexed
    assert ({(step, x, xp) for step, out in metric.moves for x, xps in enumerate(out)
             for xp in xps}
            == {(step, index[z], index[xp]) for z, out in want_edges.items() for step, xp in out})
    assert all(list(xps) == sorted(set(xps)) for _, out in metric.moves for xps in out)
    try:
        act.validate()
    except InputError:
        # a pair map determines its map on the diagonal, so the induced
        # action fails its check exactly when the action does
        with pytest.raises(InputError):
            p2_action(act)
        return
    pair = p2_action(act)
    induced = {m: p2_point_map(act.space, pair.space, m)
               for m in [*act.phi.values(), *itertools.chain(*act.H.values())]}
    assert pair.phi == {g: induced[m] for g, m in act.phi.items()}
    assert pair.H == {key: tuple(induced[m] for m in grid) for key, grid in act.H.items()}


def reference_move_relation(act):
    """``move_relation`` as it was when it joined the sorted ``f_set`` maps,
    re-indexed through the point dict, kept as the reference."""
    mul, inv, index = act.backend.mul, act.backend.inv, act.index
    n = len(act.space.points)
    images, preimages = {}, {}
    for a in act.S:
        fa = [tuple(index[y] for y in m) for m in act.f_set(a)]
        images[a] = [{m[z] for m in fa} for z in range(n)]
        pre = preimages[a] = [set() for _ in range(n)]
        for m in fa:
            for x, y in enumerate(m):
                pre[y].add(x)
    relation = {}
    for a in act.S:
        for b in act.S:
            step, pre = mul(inv(a), b), preimages[b]
            out = relation.setdefault(step, [set() for _ in range(n)])
            for xs, ys in zip(out, images[a]):
                for y in ys:
                    xs |= pre[y]
    letters = sorted(relation, key=repr)
    return letters, [(step, tuple(tuple(sorted(xs)) for xs in relation[step]))
                     for step in letters if any(relation[step])]


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(st.one_of(unchecked_actions(), valid_actions()))
def test_move_relation_matches_the_f_set_join(case):
    act = case[0]
    assert act.move_relation() == reference_move_relation(act)
    try:
        pair = p2_action(act)
    except InputError:  # the action fails its check, or the pair space over its base does
        with pytest.raises(InputError):
            act.validate()
            p2_metric(act.space)
        return
    act.validate()
    induced = {m: p2_point_map(act.space, pair.space, m)
               for m in [*act.phi.values(), *itertools.chain(*act.H.values())]}
    assert pair.phi == {g: induced[m] for g, m in act.phi.items()}
    assert pair.H == {key: tuple(induced[m] for m in grid) for key, grid in act.H.items()}
    assert pair.move_relation() == reference_move_relation(pair)


def short_and_stray_actions():
    """Z/2 on the path of three points, built unchecked, each with one map
    that is not total: short, long, or with an image that is not a point;
    as the image of 1 in ``phi`` and its grid (``in_grid``) or in ``phi``
    alone."""
    z2, line = FiniteTableGroup.cyclic(2), ControlSpace.path(3)
    pts = tuple(line.points)
    flip = pts[::-1]
    for bad in (pts[:2], pts + pts[:1], ("p0", "zz", "p2")):
        for in_grid in (True, False):
            homotopies = {(0, 0): (pts,), (0, 1): (bad if in_grid else flip,),
                          (1, 0): (bad if in_grid else flip,), (1, 1): (pts,)}
            yield in_grid, lambda: HomotopySAction(z2, line, FiniteSubset.of(z2, [0, 1]),
                                                   {0: pts, 1: bad}, homotopies, check=False)


def test_maps_that_are_not_total_are_input_errors():
    for in_grid, build in short_and_stray_actions():
        with pytest.raises(InputError, match="not a total point map"):
            build().validate()
        with pytest.raises(InputError, match="not a total point map"):
            p2_action(build())  # exactly where validate fails, with its message
        if in_grid:
            with pytest.raises(InputError, match="non-total grid map"):
                build().move_relation()
        else:  # the join reads the grids only
            assert build().move_relation() == reference_move_relation(build())


def test_p2_action_refuses_a_stray_map_that_validate_does_not_read():
    z2, line = FiniteTableGroup.cyclic(2), ControlSpace.path(3)
    pts = tuple(line.points)
    # H[(1, 1)] is no product of S = {0}, so validate and the join skip it
    act = HomotopySAction(z2, line, FiniteSubset.of(z2, [0]), {0: pts},
                          {(0, 0): (pts,), (1, 1): (pts[:2],)})
    assert act.move_relation() == reference_move_relation(act)
    with pytest.raises(InputError, match="outside the products of S"):
        p2_action(act)


class FractionResult:
    """``DSLambdaResult`` as it was when it held ``Fraction``s, kept as the
    reference: ``value`` None is the infinity marker."""

    def __init__(self, value, truncated, lower_bound):
        self.value = value
        self.truncated = truncated
        self.lower_bound = lower_bound

    def is_infinite(self):
        return self.value is None


class ReferenceDistances:
    """``d_{S,Lambda}`` results read off ``heap_dijkstra``'s costs, one
    search per source point, as ``Fraction``s."""

    def __init__(self, act, lam, n_max):
        self.act, self.lam, self.n_max = act, lam, n_max
        self.certifier = DSLambdaMetric(act, lam, n_max)  # for _certified_unreachable only
        self.costs = {}

    def distance(self, src, dst):
        backend = self.act.backend
        g, x = backend.canonical(src[0]), src[1]
        h, y = backend.canonical(dst[0]), dst[1]
        disp = backend.mul(backend.inv(g), h)
        if x not in self.costs:
            self.costs[x] = heap_dijkstra(self.act, self.lam, self.n_max, DEFAULT_STATE_CAP, x)[:2]
        best, scale = self.costs[x]
        cost, bound = best.get((disp, y)), Fraction(self.n_max + 1)
        if cost is None:
            return FractionResult(None, not self.certifier._certified_unreachable(disp), bound)
        value = Fraction(cost, scale)
        if value <= bound:
            return FractionResult(value, False, value)
        return FractionResult(value, True, bound)


def reference_omega_audit(act, lam, samples, n_max):
    """``omega_audit`` as it was when it summed and compared ``Fraction``s,
    on ``ReferenceDistances``: ``(checked, skipped, counterexamples)``."""
    metric_x = ReferenceDistances(act, lam, n_max)
    metric_p2 = ReferenceDistances(p2_action(act), lam, n_max)
    checked = skipped = 0
    bad = []
    for (z, zp) in samples:
        (g, pair), (h, pairp) = z, zp
        pair = unordered_pair(*pair)
        pairp = unordered_pair(*pairp)
        rhs = metric_p2.distance((g, pair), (h, pairp))
        if rhs.truncated:
            skipped += 1
            continue
        legs = {}
        exact = True
        for (a, b) in [(pair[0], pairp[0]), (pair[1], pairp[1]),
                       (pair[0], pairp[1]), (pair[1], pairp[0])]:
            r = metric_x.distance((g, a), (h, b))
            if r.truncated:
                exact = False
                break
            legs[(a, b)] = r.value
        if not exact:
            skipped += 1
            continue

        def add(u, v):
            if u is None or v is None:
                return None
            return u + v

        m1 = add(legs[(pair[0], pairp[0])], legs[(pair[1], pairp[1])])
        m2 = add(legs[(pair[0], pairp[1])], legs[(pair[1], pairp[0])])
        finite = [m for m in (m1, m2) if m is not None]
        lhs = min(finite) if finite else None
        checked += 1
        if rhs.is_infinite():
            continue
        if lhs is None or lhs > 2 * rhs.value:
            bad.append(f"omega inequality fails at {z!r}, {zp!r}: "
                       f"lhs={lhs}, rhs={rhs.value}")
    return checked, skipped, bad


def preset_unchecked_pairs(act, shrink=1):
    """Give ``act`` the pair space and pair action that ``p2_metric`` and
    ``p2_action`` build, unchecked and with every pair distance divided by
    ``shrink``: the audit then runs on actions and spaces that fail their
    checks, on two metrics with different units, and, once the pair
    distances shrink, where the factor 2 fails."""
    space = act.space
    pairs = p2_points(space)
    scale, ints = space.scaled()
    index = space.index
    rows = [[min(ints[index[x]][index[xp]] + ints[index[y]][index[yp]],
                 ints[index[x]][index[yp]] + ints[index[y]][index[xp]]) for xp, yp in pairs]
            for x, y in pairs]
    space._pairs = ControlSpace.from_scaled(pairs, scale * shrink, rows)
    induced = {m: p2_point_map(space, space._pairs, m)
               for m in [*act.phi.values(), *itertools.chain(*act.H.values())]}
    act._pairs = HomotopySAction(act.backend, space._pairs, act.S,
                                 {g: induced[m] for g, m in act.phi.items()},
                                 {key: tuple(induced[m] for m in grid)
                                  for key, grid in act.H.items()}, check=False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(unchecked_actions(), st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1),
                                             Fraction(3, 2)]),
       st.integers(0, 4), st.data())
def test_omega_audit_matches_the_fraction_audit(case, lam, n_max, data):
    act, shrink = case[0], data.draw(st.sampled_from([1, 1, 4, 16]))
    if shrink > 1:
        preset_unchecked_pairs(act, shrink)
    else:
        try:
            p2_action(act)
        except InputError:
            preset_unchecked_pairs(act)
    window = act.backend.elements() or [(k,) for k in range(-3, 4)]
    point = st.tuples(st.sampled_from(window), st.sampled_from(p2_points(act.space)))
    samples = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=8))
    # every result the audit read, with its query: the audit reads each
    # one from the search of its source point, at the sample's displacement
    queried, sources = [], {}
    search, result = DSLambdaMetric._search, DSLambdaMetric._result

    def recorded_search(metric, x0):
        found = search(metric, x0)
        sources[id(found)] = x0
        return found

    def recorded_result(metric, found, disp, y):
        got = result(metric, found, disp, y)
        queried.append((metric.action, (act.backend.identity(), sources[id(found)]), (disp, y),
                        got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DSLambdaMetric, "_search", recorded_search)
        mp.setattr(DSLambdaMetric, "_result", recorded_result)
        audit = omega_audit(act, lam, samples, n_max=n_max)
    assert ((audit.checked, audit.skipped, audit.counterexamples)
            == reference_omega_audit(act, lam, samples, n_max))
    assert len(queried) >= len(samples)  # the pair distance of each sample at least
    want = {a: ReferenceDistances(a, lam, n_max) for a in (act, p2_action(act))}
    for a, src, dst, got in queried:
        ref = want[a].distance(src, dst)
        assert ((got.value, got.truncated, got.lower_bound)
                == (ref.value, ref.truncated, ref.lower_bound))


def unchecked_swap_action():
    """Z/2 swapping the ends of ``a, b, c``, on a space built unchecked that
    stores ``d(a,a) = 1`` and breaks the triangle inequality:
    ``d(a,c) = 5 > d(a,b) + d(b,c) = 3/2``."""
    z2 = FiniteTableGroup.cyclic(2)
    space = ControlSpace(["a", "b", "c"], {("a", "a"): 1, ("a", "b"): 1, ("b", "c"): Fraction(1, 2),
                                           ("a", "c"): 5}, check=False)
    return HomotopySAction.from_genuine(z2, space, FiniteSubset.of(z2, [0, 1]),
                                        {0: {"a": "a", "b": "b", "c": "c"},
                                         1: {"a": "c", "b": "b", "c": "a"}})


def on_fresh_space(act):
    """The same action on a new copy of its space (nothing built yet)."""
    space = ControlSpace(act.space.points, act.space.dist, check=False)
    return HomotopySAction(act.backend, space, act.S, act.phi, act.H, check=False)


@pytest.mark.parametrize("build", [unchecked_swap_action, lambda: dihedral_action(3)],
                         ids=["unchecked", "dihedral3"])
def test_metrics_share_the_space_closure(build, monkeypatch):
    act = build()
    lams = (Fraction(1, 2), Fraction(3, 2), Fraction(2))
    metrics = [DSLambdaMetric(act, lams[0], n_max=3)]
    # later metrics read the space's integer view, not its distances
    monkeypatch.setattr(act.space, "d", None)
    metrics += [DSLambdaMetric(act, lam, n_max=3) for lam in lams[1:]]
    assert metrics[0].closure is act.space.closure()
    # the shared rows cannot be written in place
    assert all(type(row) is tuple for row in act.space.closure() + act.space.scaled()[1])
    monkeypatch.undo()
    for metric in reversed(metrics):
        fresh = DSLambdaMetric(on_fresh_space(act), metric.lam, n_max=3)
        assert metric.scale == fresh.scale
        for x0 in act.space.points:
            assert metric._layered(x0) == fresh._layered(x0)
    assert act.space.closure() == on_fresh_space(act).space.closure()
    assert act.index is act.space.index


def test_unchecked_space_distances_unchanged():
    # the metric reads d(a,a) as 0, as ControlSpace.d does, and measures
    # fiber paths: d(a,c) = 3/2 through b
    act = unchecked_swap_action()
    with pytest.raises(InputError, match=r"d\(a,a\) != 0"):
        act.space.validate()
    metric = DSLambdaMetric(act, Fraction(1), n_max=2)
    assert metric.distance((0, "a"), (0, "a")).value == 0
    assert metric.distance((0, "a"), (0, "c")).value == Fraction(3, 2)
    assert metric.distance((0, "a"), (1, "c")).value == 1
    assert metric.distance((0, "c"), (1, "b")).value == Fraction(3, 2)
    for x0 in act.space.points:
        want, scale, _ = heap_dijkstra(act, Fraction(1), 2, DEFAULT_STATE_CAP, x0)
        assert metric.scale == scale == 2
        assert layered_costs(metric, x0) == want


def test_dslambda_rejects_negative_distance():
    # the heap search never ended on a negative fiber edge
    triv = FiniteTableGroup.cyclic(1)
    space = ControlSpace(["a", "b"], {("a", "b"): Fraction(-1)}, check=False)
    act = HomotopySAction.from_genuine(triv, space, FiniteSubset.of(triv, [0]),
                                       {0: {"a": "a", "b": "b"}})
    with pytest.raises(InputError):
        DSLambdaMetric(act, Fraction(1))


def test_metric_table_positions_first_occurrence():
    values = {(i, j): Fraction(10 * i + j) for i in range(3) for j in range(3)}
    table = MetricTable(((0, "p"), (1, "q"), (0, "p")), values, False)
    assert table.d((0, "p"), (1, "q")) == 1
    assert table.d((1, "q"), (0, "p")) == 10
    assert table == MetricTable(table.carrier, dict(values), False)
    assert "position" not in repr(table)


def random_invariant_action(rng, n_pts=3, order=3):
    g = FiniteTableGroup.cyclic(order)
    pts = [f"x{i}" for i in range(n_pts)]
    dist = {(a, b): (Fraction(0) if a == b else Fraction(2))
            for a in pts for b in pts}
    space = ControlSpace(pts, dist)
    action = {k: {pts[i]: pts[(i + k) % n_pts] for i in range(n_pts)}
              for k in range(order)}
    s = FiniteSubset.of(g, [0, 1])
    return HomotopySAction.from_genuine(g, space, s, action)


def test_dslambda_metric_axioms_randomized():
    rng = random.Random(21)
    for trial in range(12):
        act = random_invariant_action(rng)
        lam = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        metric = DSLambdaMetric(act, lam, n_max=3)
        carrier = [(g, x) for g in range(3) for x in act.space.points]
        table = metric.table(carrier)
        n = len(carrier)
        for i in range(n):
            assert table.values[(i, i)] == 0
            for j in range(n):
                assert table.values[(i, j)] == table.values[(j, i)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a, b, c = (table.values[(i, j)], table.values[(j, k)],
                               table.values[(i, k)])
                    if a is not None and b is not None:
                        assert c is not None and c <= a + b


def test_dslambda_g_invariance():
    act = z2_swap_action()
    metric = DSLambdaMetric(act, Fraction(1, 2), n_max=3)
    for k in [0, 1]:
        for (g, x) in [(0, "p"), (1, "q")]:
            for (h, y) in [(0, "q"), (1, "p")]:
                lhs = metric.distance((act.backend.mul(k, g), x),
                                      (act.backend.mul(k, h), y))
                rhs = metric.distance((g, x), (h, y))
                assert lhs.value == rhs.value


def test_dslambda_small_distance_equality():
    rng = random.Random(22)
    act = random_invariant_action(rng)
    lam = Fraction(1, 10)
    metric = DSLambdaMetric(act, lam, n_max=3)
    for x in act.space.points:
        for y in act.space.points:
            if lam * act.space.d(x, y) < 1:
                assert metric.distance((0, x), (0, y)).value == lam * act.space.d(x, y)


def test_dslambda_monotone_in_s():
    # enlarging S never increases the metric
    z4 = FiniteTableGroup.cyclic(4)
    pts = ["x0", "x1", "x2", "x3"]
    dist = {(a, b): (Fraction(0) if a == b else Fraction(1)) for a in pts for b in pts}
    space = ControlSpace(pts, dist)
    action = {k: {pts[i]: pts[(i + k) % 4] for i in range(4)} for k in range(4)}
    small = HomotopySAction.from_genuine(z4, space, FiniteSubset.of(z4, [0, 1]), action)
    large = HomotopySAction.from_genuine(z4, space,
                                         FiniteSubset.of(z4, [0, 1, 2, 3]), action)
    lam = Fraction(1)
    m_small = DSLambdaMetric(small, lam, n_max=4)
    m_large = DSLambdaMetric(large, lam, n_max=4)
    for g in range(4):
        for x in pts:
            a = m_small.distance((0, "x0"), (g, x))
            b = m_large.distance((0, "x0"), (g, x))
            if a.value is not None and b.value is not None:
                assert b.value <= a.value


def test_dslambda_orbit_membership_surrogate():
    # for large Lambda, distance <= m forces orbit membership at depth m
    act = z2_swap_action()
    lam = Fraction(50)
    metric = DSLambdaMetric(act, lam, n_max=3)
    for m in (1, 2):
        for (h, y) in [(0, "p"), (0, "q"), (1, "p"), (1, "q")]:
            d = metric.distance((0, "p"), (h, y))
            if d.value is not None and d.value <= m:
                assert (h, y) in act.s_orbit(m, (0, "p"))


def test_dslambda_unreachable_certified():
    from klab.groups import FreeAbelianGroup
    z = FreeAbelianGroup(1)
    space = ControlSpace.from_matrix(["a"], [[0]])
    s = FiniteSubset.of(z, [(0,)])
    act = HomotopySAction.from_genuine(z, space, s, {(0,): {"a": "a"}})
    metric = DSLambdaMetric(act, Fraction(1), n_max=3)
    res = metric.distance(((0,), "a"), ((5,), "a"))
    assert res.is_infinite() and not res.truncated


# -- moduli --------------------------------------------------------------------


def test_moduli_isometric_action():
    act = z2_swap_action()
    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    alpha, beta = moduli(act, grid)
    for eps in grid:
        assert beta[eps] <= eps
    for eps in grid:
        if alpha[eps] is not None:
            assert beta[alpha[eps]] <= eps


def test_moduli_doubling_homotopy():
    # 5-point interval with a doubling map riding on a homotopy grid: beta
    # doubles small displacements, computed by exhaustive pairs
    z2 = FiniteTableGroup.cyclic(2)
    pts = tuple(f"p{i}" for i in range(5))
    line = ControlSpace.path(5)
    s = FiniteSubset.of(z2, [0, 1])
    ident = pts
    flip = tuple(f"p{4 - i}" for i in range(5))
    double = tuple(f"p{min(2 * i, 4)}" for i in range(5))
    act = HomotopySAction(z2, line, s,
                          {0: ident, 1: flip},
                          {(0, 0): (ident,),
                           (0, 1): (flip, double, flip),
                           (1, 0): (flip,),
                           (1, 1): (ident,)})
    grid = [Fraction(1), Fraction(2)]
    alpha, beta = moduli(act, grid)
    worst1 = max(line.d(m[act.index[a]], m[act.index[b]])
                 for m in [ident, flip, double]
                 for a in pts for b in pts if line.d(a, b) <= 1)
    assert beta[Fraction(1)] == worst1 == 2
    assert alpha[Fraction(2)] == Fraction(1)
    assert beta[Fraction(1)] <= beta[Fraction(2)]


def reference_moduli(action, eps_grid):
    """``moduli`` as it was when it read every grid of ``H`` through
    ``apply`` and compared ``Fraction`` distances, kept as the reference."""
    grid = sorted(Fraction(e) for e in eps_grid)
    maps = [action.phi[g] for g in action.S]
    for gridmaps in action.H.values():
        maps.extend(gridmaps)
    pts = action.space.points
    beta = {}
    for eps in grid:
        worst = Fraction(0)
        for x in pts:
            for y in pts:
                if action.space.d(x, y) <= eps:
                    for m in maps:
                        disp = action.space.d(m[action.index[x]], m[action.index[y]])
                        if disp > worst:
                            worst = disp
        beta[eps] = worst
    alpha = {}
    for eps in grid:
        qualifying = [d for d in grid if beta[d] <= eps]
        alpha[eps] = max(qualifying) if qualifying else None
    return alpha, beta


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(unchecked_actions(), valid_actions()),
       st.lists(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                 Fraction(3), 5]), min_size=1, max_size=4))
def test_moduli_match_the_fraction_reference(case, eps_grid):
    # every grid of these actions is one of S.products, so both read the same maps
    act = case[0]
    assert set(act.H) == {(g, h) for g, h, _ in act.S.products}
    assert moduli(act, eps_grid) == reference_moduli(act, eps_grid)


def test_moduli_read_only_the_maps_validate_checks():
    z2, line = FiniteTableGroup.cyclic(2), ControlSpace.path(3)
    pts = tuple(line.points)
    # H[(1, 1)] is no product of S = {0}: validate skips it, and so does moduli
    act = HomotopySAction(z2, line, FiniteSubset.of(z2, [0]), {0: pts},
                          {(0, 0): (pts,), (1, 1): (pts[:2],)})
    assert moduli(act, [Fraction(1)]) == ({Fraction(1): Fraction(1)}, {Fraction(1): Fraction(1)})
    for in_grid, build in short_and_stray_actions():  # phi[1] is not total
        with pytest.raises(InputError, match="not a total point map"):
            moduli(build(), [Fraction(1)])
    flip = pts[::-1]
    for bad in (pts[:2], ("p0", "zz", "p2")):  # a grid map of a product of S
        grid_only = HomotopySAction(z2, line, FiniteSubset.of(z2, [0, 1]), {0: pts, 1: flip},
                                    {(0, 0): (pts,), (0, 1): (flip, bad, flip), (1, 0): (flip,),
                                     (1, 1): (pts,)}, check=False)
        with pytest.raises(InputError, match=r"H\[0,1\] has a non-total grid map"):
            moduli(grid_only, [Fraction(1)])
    missing = HomotopySAction(z2, line, FiniteSubset.of(z2, [0, 1]), {0: pts},
                              {(0, 0): (pts,)}, check=False)
    with pytest.raises(InputError, match="phi missing for 1"):
        moduli(missing, [Fraction(1)])


# -- covers, Lebesgue numbers, nerves -------------------------------------------


def half_cover_fixture():
    act = trivial_action_on_path(4)
    carrier = tuple((0, p) for p in act.space.points)
    cover = CoverSpec(carrier,
                      {"L": frozenset({(0, "p0"), (0, "p1"), (0, "p2")}),
                       "R": frozenset({(0, "p1"), (0, "p2"), (0, "p3")})},
                      {0: {"L": "L", "R": "R"}})
    return act, cover


def test_lebesgue_single_set_is_infinite():
    act, _ = half_cover_fixture()
    carrier = tuple((0, p) for p in act.space.points)
    cover = CoverSpec(carrier, {"U": frozenset(carrier)}, {0: {"U": "U"}})
    table = DSLambdaMetric(act, Fraction(1), 2).table(list(carrier))
    assert lebesgue_number(cover, table) is None


def test_lebesgue_two_half_covers():
    act, cover = half_cover_fixture()
    table = DSLambdaMetric(act, Fraction(1), 2).table(list(cover.carrier))
    assert lebesgue_number(cover, table) == 2


def test_lebesgue_empty_cover():
    act, cover = half_cover_fixture()
    table = DSLambdaMetric(act, Fraction(1), 2).table(list(cover.carrier))
    with pytest.raises(EmptyCover):
        lebesgue_number(CoverSpec(cover.carrier, {}, {}), table)


def test_lebesgue_lambda_search_on_z2():
    act = z2_swap_action()
    carrier = tuple((g, x) for g in [0, 1] for x in act.space.points)
    cover = CoverSpec(carrier, {"U": frozenset(carrier)},
                      {0: {"U": "U"}, 1: {"U": "U"}})
    lam, results = lebesgue_lambda_search(act, cover, Fraction(2),
                                          [Fraction(1, 2), Fraction(1)], 3)
    assert lam == Fraction(1, 2)  # infinite Lebesgue number at once


def test_lebesgue_lambda_search_refuses_floats():
    act = z2_swap_action()
    carrier = tuple((g, x) for g in [0, 1] for x in act.space.points)
    cover = CoverSpec(carrier, {"U": frozenset(carrier)},
                      {0: {"U": "U"}, 1: {"U": "U"}})
    for grid in ([0.1], [Fraction(1, 2), 0.5], [True]):
        with pytest.raises(InputError, match="Lambda must be an int or a Fraction"):
            lebesgue_lambda_search(act, cover, Fraction(2), grid, 3)
    for m in (0.5, 2.0, True):
        with pytest.raises(InputError, match="the target m must be an int or a Fraction"):
            lebesgue_lambda_search(act, cover, m, [Fraction(1, 2)], 3)
    assert lebesgue_lambda_search(act, cover, 2, [1], 3)[0] == 1


def test_check_f_cover_passes_and_flags():
    act = z2_swap_action()
    carrier = tuple((g, x) for g in [0, 1] for x in act.space.points)
    good = CoverSpec(carrier, {"U": frozenset(carrier)},
                     {0: {"U": "U"}, 1: {"U": "U"}})
    fam = FamilyPredicate("virtually-cyclic")
    rep = check_f_cover(good, fam, act.backend, act, N=3, s_long_depth=1)
    assert rep.ok() and rep.dimension == 0
    # a cover violating equivariance: name action says U maps to U but the
    # translated set leaves it
    bad_sets = {"U": frozenset({(0, "p"), (0, "q")}),
                "V": frozenset({(1, "p"), (1, "q")})}
    bad = CoverSpec(carrier, bad_sets, {0: {"U": "U", "V": "V"},
                                        1: {"U": "U", "V": "V"}})
    rep = check_f_cover(bad, fam, act.backend, act, N=3, s_long_depth=0)
    assert not rep.ok()
    assert any("g(U) != named image" in v for v in rep.violations)


def test_check_f_cover_dihedral_enumeration():
    act, cover = dihedral_cover(4)
    fam = FamilyPredicate("virtually-cyclic")
    rep = check_f_cover(cover, fam, act.backend, act, N=1, s_long_depth=1)
    assert rep.ok()
    assert rep.dimension == 0
    rot_stab = rep.isotropy["Urot"]
    assert sorted(rot_stab) == [0, 2, 4, 6]  # the rotation subgroup


def test_nerve_map_coordinates():
    act, cover = half_cover_fixture()
    table = DSLambdaMetric(act, Fraction(1), 2).table(list(cover.carrier))
    nerve, images = nerve_map(cover, table)
    assert images[(0, "p0")].coords == {"L": Fraction(1)}
    assert images[(0, "p1")].coords == {"L": Fraction(2, 3), "R": Fraction(1, 3)}
    # equidistant-from-complements point gets (1/2, 1/2)
    act5 = trivial_action_on_path(5)
    carrier = tuple((0, p) for p in act5.space.points)
    cover5 = CoverSpec(carrier,
                       {"L": frozenset({(0, "p0"), (0, "p1"), (0, "p2"), (0, "p3")}),
                        "R": frozenset({(0, "p1"), (0, "p2"), (0, "p3"), (0, "p4")})},
                       {0: {"L": "L", "R": "R"}})
    table5 = DSLambdaMetric(act5, Fraction(1), 2).table(list(carrier))
    _, images5 = nerve_map(cover5, table5)
    assert images5[(0, "p2")].coords == {"L": Fraction(1, 2), "R": Fraction(1, 2)}


def test_nerve_contraction_audit():
    act, cover = half_cover_fixture()
    table = DSLambdaMetric(act, Fraction(1), 2).table(list(cover.carrier))
    pairs = [(a, b) for a in cover.carrier for b in cover.carrier]
    audit = audit_nerve_contraction(cover, table, N=1, D=Fraction(2), pairs=pairs)
    assert audit.ok()
    assert audit.checked > 0 and audit.shared_simplex == audit.checked


def test_nerve_equivariance_on_z2():
    act = z2_swap_action()
    carrier = tuple((g, x) for g in [0, 1] for x in act.space.points)
    sets = {"A": frozenset({(0, "p"), (1, "q"), (0, "q")}),
            "B": frozenset({(1, "p"), (0, "q"), (1, "q")})}
    cover = CoverSpec(carrier, sets, {0: {"A": "A", "B": "B"},
                                      1: {"A": "B", "B": "A"}})
    table = DSLambdaMetric(act, Fraction(1, 2), 3).table(list(carrier))
    _, images = nerve_map(cover, table)
    # G-equivariance: f(g p) = sigma_g(f(p)) on the vertex names
    for (g, x) in carrier:
        moved = (act.backend.mul(1, g), x)
        image = images[moved].coords
        expected = {({"A": "B", "B": "A"})[name]: c
                    for name, c in images[(g, x)].coords.items()}
        assert image == expected


# -- domination validation -------------------------------------------------------


def test_validate_domination_path_fixture():
    data = path_point_domination(9, 4)
    rep = validate_domination(data)
    assert rep.ok(), rep.violations
    assert rep.track_diameter == 2


def test_validate_domination_identity():
    from klab.simplicial import PointInComplex, SimplicialComplex
    line = ControlSpace.path(3)
    verts = ["v0", "v1", "v2"]
    K = SimplicialComplex.from_maximal(
        verts, [frozenset(("v0", "v1")), frozenset(("v1", "v2"))])
    i_map = {f"p{i}": PointInComplex(K, {f"v{i}": Fraction(1)}) for i in range(3)}
    p_map = {f"v{i}": f"p{i}" for i in range(3)}
    track = (tuple(line.points),)
    data = DominationData(line, K, 1, Fraction(0), i_map, p_map, track)
    rep = validate_domination(data)
    assert rep.ok() and rep.track_diameter == 0


def test_validate_domination_flags_violations():
    data = path_point_domination(9, 4)
    bad = DominationData(data.space, data.complex, data.N, Fraction(1),
                         data.i_map, data.p_map, data.track)
    rep = validate_domination(bad)
    assert not rep.ok()
    assert any("track diameter" in v for v in rep.violations)


def _free_cover():
    # one point, the free group on one letter, and a name action by ``a``:
    # its isotropy <a> is infinite cyclic, which is not decided for free groups
    free = FreeGroup(1)
    carrier = (("", "x"), ("a", "x"))
    return free, CoverSpec(carrier, {"U": frozenset(carrier)}, {"a": {"U": "U"}})


def test_check_f_cover_reports_undecidable_isotropy_as_skip():
    free, cover = _free_cover()
    rep = check_f_cover(cover, FamilyPredicate("virtually-cyclic"), free)
    assert rep.ok()
    assert any("isotropy membership for U" in s and "not decided" in s
               for s in rep.skipped)


def test_check_f_cover_lets_internal_errors_through(monkeypatch):
    import klab.actions

    def broken(family, sub):
        raise RuntimeError("bug in family_member")

    monkeypatch.setattr(klab.actions, "family_member", broken)
    free, cover = _free_cover()
    with pytest.raises(RuntimeError, match="bug in family_member"):
        check_f_cover(cover, FamilyPredicate("virtually-cyclic"), free)


def test_check_f_cover_partial_name_action_is_a_violation():
    act = z2_swap_action()
    carrier = tuple((g, x) for g in [0, 1] for x in act.space.points)
    sets = {"U": frozenset(carrier[:2]), "V": frozenset(carrier[2:])}
    rep = check_f_cover(CoverSpec(carrier, sets, {1: {"U": "V"}}),
                        FamilyPredicate("finite"), act.backend)
    assert any("not a permutation" in v for v in rep.violations)
    assert rep.isotropy == {"U": [], "V": []}


def test_dslambda_rejects_unknown_target_point():
    # an unknown target is an input error, as an unknown source is, not a
    # truncated value that omega_audit would count as skipped
    act = z2_swap_action()
    metric = DSLambdaMetric(act, Fraction(1, 2), n_max=3)
    for query in (lambda: metric.distance((0, "p"), (0, "nowhere")),
                  lambda: metric.distance((0, "p"), (1, "nowhere")),
                  lambda: metric.table([(0, "p"), (1, "nowhere")]),
                  lambda: omega_audit(act, Fraction(1, 2),
                                      [((0, ("p", "q")), (1, ("p", "nowhere")))], n_max=3)):
        with pytest.raises(InputError, match="unknown point .*'nowhere'"):
            query()
    assert metric.distance((0, "p"), (1, "q")).value == 1


def test_dslambda_rejects_negative_horizon():
    with pytest.raises(InputError, match="move horizon"):
        DSLambdaMetric(z2_swap_action(), Fraction(1), n_max=-1)
    DSLambdaMetric(z2_swap_action(), Fraction(1), n_max=0)  # zero moves is a horizon


def test_dslambda_rejects_a_float_lambda():
    # 0.1 would run at its binary value, 3602879701896397/2^55
    with pytest.raises(InputError, match="Lambda must be an int or a Fraction, not float"):
        DSLambdaMetric(z2_swap_action(), 0.1)


def test_dslambda_rejects_a_string_lambda():
    with pytest.raises(InputError, match="Lambda must be an int or a Fraction, not str"):
        DSLambdaMetric(z2_swap_action(), "1/2")
    assert DSLambdaMetric(z2_swap_action(), 2).lam == 2  # an int is a Lambda
