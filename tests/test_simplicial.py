import random
from fractions import Fraction

import pytest

from klab.errors import DifferentComplex, InputError, SampleBudgetExceeded
from klab.simplicial import (PointInComplex, SimplicialComplex,
                             barycentric_control_space, chain_complex_of,
                             delta_search, induced_p2_automorphism,
                             p2_point, p2_simplicial, product_structure,
                             random_point, staircase_coords, subdivide,
                             subdivision_coords)


def test_face_closure_enforced():
    with pytest.raises(InputError):
        SimplicialComplex(["a", "b", "c"], [frozenset(("a", "b", "c"))])
    sc = SimplicialComplex.from_maximal(["a", "b", "c"], [frozenset(("a", "b", "c"))])
    sc.validate()
    assert sc.dimension() == 2


def test_l1_distance_examples():
    edge = SimplicialComplex.standard_simplex(1)
    p = PointInComplex.vertex(edge, "v0")
    q = PointInComplex.vertex(edge, "v1")
    assert p.l1_to(p) == 0
    assert p.l1_to(q) == 2
    tri = SimplicialComplex.standard_simplex(2)
    mid = PointInComplex(tri, {"v0": Fraction(1, 3), "v1": Fraction(1, 3),
                               "v2": Fraction(1, 3)})
    v = PointInComplex.vertex(tri, "v0")
    assert mid.l1_to(v) == Fraction(2, 3) + Fraction(2, 3)
    with pytest.raises(DifferentComplex):
        p.l1_to(v)


def test_l1_metric_axioms_in_simplex():
    rng = random.Random(41)
    tri = SimplicialComplex.standard_simplex(2)
    pts = [random_point(tri, rng) for _ in range(12)]
    for a in pts:
        for b in pts:
            assert a.l1_to(b) == b.l1_to(a)
            for c in pts:
                assert a.l1_to(c) <= a.l1_to(b) + b.l1_to(c)


def test_subdivide_and_dimension():
    tri = SimplicialComplex.standard_simplex(2)
    sd = subdivide(tri)
    sd.validate()
    assert sd.dimension() == 2
    assert len(sd.vertices) == 7  # 3 vertices + 3 edges + 1 face


def test_p2_point_is_point():
    pt = SimplicialComplex.standard_simplex(0)
    q = p2_simplicial(pt)
    assert q.dimension() == 0 and len(q.vertices) == 1


def test_p2_delta1_counts():
    edge = SimplicialComplex.standard_simplex(1)
    prod = product_structure(edge)
    assert prod.dimension() == 2
    assert len(prod.vertices) == 9
    quot = p2_simplicial(edge)
    assert quot.dimension() == 2
    assert [len(quot.simplices_of_dim(k)) for k in range(3)] == [6, 9, 4]


def test_p2_dimension_doubles():
    for sc in (SimplicialComplex.standard_simplex(1),
               SimplicialComplex.standard_simplex(2),
               SimplicialComplex.circle(3)):
        assert product_structure(sc).dimension() == 2 * sc.dimension()
        quot = p2_simplicial(sc)
        quot.validate()
        assert quot.dimension() == 2 * sc.dimension()


def test_flip_fixes_setwise_invariant_simplices_pointwise():
    # the pair quotient is simplicial because a product simplex meeting
    # its own flip must consist of diagonal vertices only
    for sc in (SimplicialComplex.standard_simplex(1),
               SimplicialComplex.standard_simplex(2),
               SimplicialComplex.circle(3)):
        prod = product_structure(sc)
        for simplex in prod.simplices:
            flipped = frozenset((b, a) for (a, b) in simplex)
            if flipped == simplex:
                assert all(a == b for (a, b) in simplex)


def test_induced_automorphism_simplicial_bijection():
    edge = SimplicialComplex.standard_simplex(1)
    quot = p2_simplicial(edge)
    vm = induced_p2_automorphism(edge, {"v0": "v1", "v1": "v0"})
    for k in range(quot.dimension() + 1):
        images = {frozenset(vm[v] for v in s) for s in quot.simplices
                  if len(s) == k + 1}
        originals = {s for s in quot.simplices if len(s) == k + 1}
        assert images == originals  # bijection on simplices of each dimension


def test_subdivision_coords_invert():
    rng = random.Random(42)
    tri = SimplicialComplex.standard_simplex(2)
    sd = subdivide(tri)
    for _ in range(25):
        p = random_point(tri, rng)
        sp = subdivision_coords(p, sd)
        back = {}
        for face, w in sp.coords.items():
            for v in face:
                back[v] = back.get(v, Fraction(0)) + w / len(face)
        assert back == dict(p.coords)


def test_staircase_marginals_and_quotient():
    rng = random.Random(43)
    edge = SimplicialComplex.standard_simplex(1)
    sd = subdivide(edge)
    prod = product_structure(edge)
    quot = p2_simplicial(edge)
    for _ in range(25):
        p, q = random_point(edge, rng), random_point(edge, rng)
        sp, sq = subdivision_coords(p, sd), subdivision_coords(q, sd)
        pair = staircase_coords(sp, sq, prod)
        m1, m2 = {}, {}
        for (a, b), w in pair.coords.items():
            m1[a] = m1.get(a, Fraction(0)) + w
            m2[b] = m2.get(b, Fraction(0)) + w
        assert m1 == dict(sp.coords) and m2 == dict(sq.coords)
        z = p2_point(sp, sq, prod, quot)
        z_rev = p2_point(sq, sp, prod, quot)
        assert z.coords == z_rev.coords


def test_delta_search_monotone():
    edge = SimplicialComplex.standard_simplex(1)
    res1 = delta_search(edge, Fraction(1, 2), samples=80, seed=7)
    res2 = delta_search(edge, Fraction(1), samples=80, seed=7)
    res3 = delta_search(edge, Fraction(2), samples=80, seed=7)
    values = [r.delta for r in (res1, res2, res3)]
    assert all(v is not None for v in values)
    assert values[0] <= values[1] <= values[2]


def test_delta_search_point_returns_grid_max():
    pt = SimplicialComplex.standard_simplex(0)
    grid = [Fraction(1, 2), Fraction(1), Fraction(4)]
    res = delta_search(pt, Fraction(1), samples=20, seed=1, grid=grid)
    assert res.delta == Fraction(4)


def test_delta_search_budget():
    edge = SimplicialComplex.standard_simplex(1)
    with pytest.raises(SampleBudgetExceeded):
        delta_search(edge, Fraction(1), samples=10, budget=5)


def test_chain_complex_of_circle():
    circle = SimplicialComplex.circle(3)
    cx = chain_complex_of(circle)
    assert cx.ranks == {0: 3, 1: 3}
    assert cx.d(1).rank() == 2  # H_0 has rank 3 - 2 = 1


def test_chain_complex_single_vertex():
    pt = SimplicialComplex.standard_simplex(0)
    cx = chain_complex_of(pt)
    assert cx.ranks == {0: 1}


def test_positioned_chain_complex_mesh_control():
    from klab.chaincore import ChainMap
    from klab.control import max_displacement
    circle = SimplicialComplex.circle(4)
    space, names = barycentric_control_space(circle)
    placement = {s: names[s] for s in circle.simplices}
    cx = chain_complex_of(circle, placement)
    # differential support pairs are barycenters of incident simplices
    mesh = max(space.d(names[s], names[frozenset([v])])
               for s in circle.simplices if len(s) == 2 for v in s)
    phi = ChainMap(cx, cx, -1, {1: cx.d(1)})
    assert max_displacement([phi], space) <= mesh
