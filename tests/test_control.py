import random
from fractions import Fraction

import pytest

from klab import control
from klab.actions import HomotopySAction
from klab.chaincore import ChainComplex, ChainHomotopy, ChainMap, dual_map
from klab.control import ControlSpace, GPos, check_control, max_displacement
from klab.errors import InputError
from klab.fixtures import rand_matrix, z2_swap_action
from klab.gring import GRComplex, GRMatrix
from klab.groups import FiniteSubset, FiniteTableGroup, FreeGroup
from klab.intmat import IntMatrix
from klab.transfer import (HomotopySChainComplex, certify_dslambda, expand_complex,
                           expand_letters)
from test_actions import short_and_stray_actions
from test_equivariant_reference import place_letters


def three_point_space():
    return ControlSpace.from_matrix(["a", "b", "c"],
                                    [[0, 3, 4], [3, 0, 2], [4, 2, 0]])


def module(positions):
    """A positioned module: a complex concentrated in degree 0."""
    positions = tuple(positions)
    return ChainComplex({0: len(positions)}, positions={0: positions})


def module_map(source, target, matrix):
    """A controlled morphism: a degree-0 chain map between positioned modules."""
    return ChainMap(module(source), module(target), 0, {0: matrix})


def expanded(psi, fiber, cosets):
    """``psi``, with source and target fibers both at the positions
    ``fiber``, over explicit positions ``(g, z)`` for ``g`` in ``cosets``."""
    cx = expand_complex(psi.backend, module(fiber), cosets)
    return ChainMap(cx, cx, 0, {0: place_letters(psi.backend, psi.letters, cosets,
                                                   psi.rows, psi.cols)})


def test_metric_validation():
    with pytest.raises(InputError):
        ControlSpace.from_matrix(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(InputError):
        ControlSpace.from_matrix(["a", "b", "c"],
                                 [[0, 1, 5], [1, 0, 1], [5, 1, 0]])


@pytest.mark.parametrize("rows, message", [
    ([[1, 1], [1, 0]], r"d\(a,a\) != 0"),
    ([[0, 1], [2, 0]], r"asymmetric distance at \(a,b\)"),
    ([[0, 0], [0, 0]], r"non-positive distance at \(a,b\)"),
    ([[0, Fraction(1, 2), Fraction(6, 5)], [Fraction(1, 2), 0, Fraction(2, 3)],
      [Fraction(6, 5), Fraction(2, 3), 0]], r"triangle inequality fails at \(a,b,c\)"),
])
def test_metric_validation_messages(rows, message):
    pts = ["a", "b", "c"][:len(rows)]
    with pytest.raises(InputError, match=message):
        ControlSpace.from_matrix(pts, rows)


def test_metric_validation_exact_at_equality():
    # d(a,c) = 7/6 = d(a,b) + d(b,c): the scaled integer check must accept it
    third = Fraction(7, 6)
    space = ControlSpace.from_matrix(["a", "b", "c"],
                                     [[0, Fraction(1, 2), third], [Fraction(1, 2), 0, Fraction(2, 3)],
                                      [third, Fraction(2, 3), 0]])
    assert space.d("c", "a") == third


def test_metric_validation_undefined_distance():
    with pytest.raises(InputError, match=r"distance undefined for \('a','c'\)"):
        ControlSpace(["a", "b", "c"], {("a", "b"): 1, ("c", "b"): 1})


def test_identity_control():
    z2 = FiniteTableGroup.cyclic(2)
    space = three_point_space()
    ident = ChainMap.identity(module((GPos(0, "a"), GPos(0, "b"), GPos(1, "c"))))
    assert check_control(ident, Fraction(0), FiniteSubset.of(z2, [0]), space, z2)


def test_block_displacement_bounds():
    z2 = FiniteTableGroup.cyclic(2)
    space = three_point_space()
    phi = module_map((GPos(0, "a"),), (GPos(1, "b"),), IntMatrix.from_rows([[1]]))
    assert max_displacement([phi], space) == 3
    assert not check_control(phi, Fraction(2), None, space)
    assert check_control(phi, Fraction(3), FiniteSubset.of(z2, [0, 1]), space, z2)
    assert not check_control(phi, Fraction(3), FiniteSubset.of(z2, [0]), space, z2)


def gpos_module(rng, pts):
    """A positioned module of rank 3 at random positions ``GPos(g, z)`` over C4."""
    return module(GPos(rng.randrange(4), rng.choice(pts)) for _ in range(3))


def test_control_additive_under_composition():
    rng = random.Random(11)
    z4 = FiniteTableGroup.cyclic(4)
    space = three_point_space()
    pts = list(space.points)
    for _ in range(60):
        mids, srcs, tgts = gpos_module(rng, pts), gpos_module(rng, pts), gpos_module(rng, pts)
        f = ChainMap(srcs, mids, 0, {0: rand_matrix(rng, 3, 3, 0.6)})
        g = ChainMap(mids, tgts, 0, {0: rand_matrix(rng, 3, 3, 0.6)})
        eps_f = max_displacement([f], space)
        eps_g = max_displacement([g], space)
        letters_f = {z4.mul(z4.inv(t.g), s.g) for (t, s) in f.support_pairs()}
        letters_g = {z4.mul(z4.inv(t.g), s.g) for (t, s) in g.support_pairs()}
        comp = g.compose(f)
        prod = FiniteSubset.of(z4, [z4.mul(a, b) for a in letters_g
                                    for b in letters_f] or [0])
        assert check_control(comp, eps_f + eps_g, prod, space, z4)


# -- the per-pair Fraction reference of check_control and max_displacement -------


def _split_position(pos):
    """Split a position into (group part or None, space part)."""
    if isinstance(pos, GPos):
        return pos.g, pos.z
    return None, pos


def ref_check_control(f, eps, S, space, backend=None):
    for (tp, sp) in f.support_pairs():
        tg, tz = _split_position(tp)
        sg, sz = _split_position(sp)
        if eps is not None and space.d(tz, sz) > eps:
            return False
        if S is not None:
            if tg is None or sg is None or backend is None:
                raise InputError("group control needs group-labeled positions and a backend")
            if backend.mul(backend.inv(tg), sg) not in S:
                return False
    return True


def ref_max_displacement(maps, space):
    return max((space.d(_split_position(tp)[1], _split_position(sp)[1])
                for f in maps for tp, sp in f.support_pairs()), default=Fraction(0))


def test_one_reader_matches_the_fraction_reference_on_gpos_maps():
    rng = random.Random(29)
    z4 = FiniteTableGroup.cyclic(4)
    space = ControlSpace.from_matrix(["a", "b", "c"], [[0, Fraction(3, 2), 4],
                                                       [Fraction(3, 2), 0, Fraction(5, 2)],
                                                       [4, Fraction(5, 2), 0]])
    pts, tick, bounds = list(space.points), Fraction(1, 1000), set()
    for _ in range(60):
        mids, srcs, tgts = gpos_module(rng, pts), gpos_module(rng, pts), gpos_module(rng, pts)
        f = ChainMap(srcs, mids, 0, {0: rand_matrix(rng, 3, 3, 0.6)})
        g = ChainMap(mids, tgts, 0, {0: rand_matrix(rng, 3, 3, 0.6)})
        for h in (f, g, g.compose(f)):
            bound = max_displacement([h], space)
            assert type(bound) is Fraction and bound == ref_max_displacement([h], space)
            bounds.add(bound)
            letters = sorted({z4.mul(z4.inv(t.g), s.g) for t, s in h.support_pairs()})
            subsets = [None, FiniteSubset.of(z4, letters or [0])]
            if len(letters) > 1:
                subsets.append(FiniteSubset.of(z4, letters[1:]))  # one letter short
            for eps in (None, bound - tick, bound, bound + tick):
                for S in subsets:
                    if not letters and eps is not None and eps < 0:
                        continue  # a map with no support: see the test below
                    assert check_control(h, eps, S, space, z4) == \
                        ref_check_control(h, eps, S, space, z4), (eps, S)
        assert max_displacement([f, g], space) == ref_max_displacement([f, g], space)
    assert len(bounds) > 3


def test_a_map_with_no_support_is_controlled_from_eps_zero():
    # the reader's max over no pairs is 0; the reference read every eps,
    # even a negative one, as vacuously met
    space = three_point_space()
    zero = module_map((GPos(0, "a"),), (GPos(1, "b"),), IntMatrix.zeros(1, 1))
    assert max_displacement([zero], space) == 0
    assert check_control(zero, Fraction(0), None, space)
    assert not check_control(zero, Fraction(-1), None, space)
    assert ref_check_control(zero, Fraction(-1), None, space)


OUTSIDE = r"position 'z' is not a point of the space"


def test_a_position_outside_the_space_is_refused_by_every_reader():
    space = three_point_space()
    # a diagonal pair at a position outside the space, which the reference read as d(z, z) = 0
    still = module_map((GPos(0, "z"),), (GPos(0, "z"),), IntMatrix.from_rows([[1]]))
    assert ref_max_displacement([still], space) == 0
    assert ref_check_control(still, Fraction(0), None, space)
    with pytest.raises(InputError, match=OUTSIDE):
        max_displacement([still], space)
    with pytest.raises(InputError, match=OUTSIDE):
        check_control(still, Fraction(0), None, space)
    act = z2_swap_action()
    cx = GRComplex(act.backend, {0: 2}, {}, positions={0: ("p", "z")})
    with pytest.raises(InputError, match=OUTSIDE):
        certify_dslambda(act, Fraction(1), {"id": ChainMap.identity(cx)})
    P = ChainComplex({0: 2}, positions={0: ("p", "z")})
    ident = ChainMap.identity(P)
    chain = HomotopySChainComplex(act.backend, act.space, act.S, P, {0: ident, 1: ident},
                                  {gh: ChainHomotopy(ident, ident, {}) for gh in act.H},
                                  point_action=act)
    with pytest.raises(InputError, match=OUTSIDE):
        chain.achieved_phi_control()
    # a map over Z[G] has no single space displacement per pair to read
    with pytest.raises(InputError, match="control bounds read maps over Z"):
        max_displacement([ChainMap.identity(cx)], space)


def test_point_maps_that_are_not_total_are_refused_by_every_certificate():
    # phi[1] of the point action is short, long or has an image off the
    # space; with in_grid, so is a grid map of H[0,1] and H[1,0].  Before,
    # a short map ended in an IndexError and a long one was read as total.
    for in_grid, build in short_and_stray_actions():
        act = build()
        pts = act.space.points
        P = ChainComplex({0: len(pts)}, positions={0: pts})
        ident = ChainMap.identity(P)
        chain = HomotopySChainComplex(act.backend, act.space, act.S, P, {0: ident, 1: ident},
                                      {gh: ChainHomotopy(ident, ident, {}) for gh in act.H},
                                      point_action=act)
        with pytest.raises(InputError, match=r"phi\[1\] is not a total point map"):
            chain.achieved_phi_control()
        cx = GRComplex(act.backend, {0: len(pts)}, {}, positions={0: pts})
        pieces = {"id": ChainMap.identity(cx)}
        if in_grid:
            with pytest.raises(InputError, match="a point map of the grid is not total"):
                chain.achieved_homotopy_control()
            with pytest.raises(InputError, match=r"H\[0,1\] has a non-total grid map"):
                certify_dslambda(act, Fraction(1), pieces)
        else:
            assert chain.achieved_homotopy_control() == 0
            assert certify_dslambda(act, Fraction(1), pieces).bound == 0


def test_an_empty_letter_set_is_refused_by_its_certificate():
    # Z/2 on the path, unchecked, with grids for (0, 0) and (1, 1) only:
    # F_1 is empty, so a letter-1 support pair has no chain to bound it.
    # Before, its bound was a min over nothing, a bare ValueError.
    z2, line = FiniteTableGroup.cyclic(2), ControlSpace.path(3)
    pts = tuple(line.points)
    act = HomotopySAction(z2, line, FiniteSubset.of(z2, [0, 1]), {0: pts, 1: pts[::-1]},
                          {(0, 0): (pts,), (1, 1): (pts,)}, check=False)
    fiber = GRComplex.constant(z2, ChainComplex.point("p0"))
    one = ChainMap(fiber, fiber, 0, GRMatrix(z2, 1, 1, {1: IntMatrix.identity(1)}))
    with pytest.raises(InputError, match="F_1 is empty"):
        certify_dslambda(act, Fraction(1), {"one": one})
    e = ChainMap(fiber, fiber, 0, GRMatrix(z2, 1, 1, {0: IntMatrix.identity(1)}))
    assert certify_dslambda(act, Fraction(1), {"e": e}).bound == 0


def test_point_indices_are_held_per_complex_and_space(monkeypatch):
    """Each complex reads its positions' point indices once per space index;
    another space gets its own, and a position off the space is refused on
    every read."""
    built = []
    real = control.point_indices
    monkeypatch.setattr(control, "point_indices",
                        lambda points, index: built.append(points) or real(points, index))
    P = ChainComplex({0: 3}, positions={0: ("p0", "p1", "p2")})
    Q = ChainComplex({0: 2}, positions={0: ("p2", "p0")})
    f = ChainMap(P, Q, 0, IntMatrix.from_rows([[1, 0, 1], [0, 1, 0]]))
    line = ControlSpace.path(3)
    shuffled = ControlSpace.from_matrix(["q", "p2", "p1", "p0"], [[0, 1, 1, 1], [1, 0, 1, 2],
                                                                 [1, 1, 0, 1], [1, 2, 1, 0]])

    def want(space):
        return sorted((space.index[t], space.index[s]) for t, s in f.support_pairs())

    for space in (line, shuffled, line, shuffled, shuffled):
        assert sorted(control.support_indices(f, space.index)) == want(space)
    assert len(built) == 8  # both complexes on the first read and at each change of space
    assert max_displacement([f], line) == 2 and max_displacement([f], shuffled) == 2
    stray = ChainComplex({0: 1}, positions={0: ("zz",)})
    g = ChainMap.identity(stray)
    for _ in range(2):
        with pytest.raises(InputError, match="'zz' is not a point of the space"):
            list(control.support_indices(g, line.index))
    edge = ControlSpace.from_matrix(["zz"], [[0]])
    assert list(control.support_indices(g, edge.index)) == [(0, 0)]


def test_convolve_matches_expansion():
    rng = random.Random(12)
    z3 = FiniteTableGroup.cyclic(3)
    fiber = ("a", "b")
    for _ in range(40):
        psi = GRMatrix(z3, 2, 2, {g: rand_matrix(rng, 2, 2, 0.6) for g in range(3)})
        phi = GRMatrix(z3, 2, 2, {g: rand_matrix(rng, 2, 2, 0.6) for g in range(3)})
        conv = phi @ psi
        ball = z3.elements()
        lhs = expanded(conv, fiber, ball)
        rhs = expanded(phi, fiber, ball).compose(expanded(psi, fiber, ball))
        assert lhs.mats == rhs.mats


def test_expand_letters_matches_the_block_placement():
    """The coset expansion on one-degree fibers against ``place_letters``,
    over full and partial coset lists in any order."""
    rng = random.Random(33)
    d3 = FiniteTableGroup.dihedral(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = GRMatrix(d3, rows, cols, {g: rand_matrix(rng, rows, cols, 0.6)
                                      for g in rng.sample(d3.elements(), 3)})
        cosets = rng.sample(d3.elements(), rng.randint(1, 6))
        got = expand_letters(m, cosets, ChainComplex({0: rows}), ChainComplex({0: cols}))
        assert got == place_letters(d3, m.letters, cosets, rows, cols)


def test_expand_letters_refuses_a_matrix_that_does_not_fit_the_fibers():
    # before, the entries were placed unchecked: a 2x1 matrix over C2 on
    # fibers of rank 1 gave a 2x2 matrix holding an entry in row 2
    c2 = FiniteTableGroup.cyclic(2)
    one, two = ChainComplex({0: 1}), ChainComplex({0: 2})
    tall = GRMatrix(c2, 2, 1, {0: IntMatrix.from_rows([[1], [1]])})
    for target, source in ((one, one), (two, two), (one, two)):
        with pytest.raises(InputError, match="a 2x1 matrix does not fit fibers"):
            expand_letters(tall, [0, 1], target, source)
    assert expand_letters(tall, [0, 1], two, one) == IntMatrix.from_rows(
        [[1, 0], [1, 0], [0, 1], [0, 1]])


def test_single_letter_convolution():
    z4 = FiniteTableGroup.cyclic(4)
    psi_a = GRMatrix(z4, 1, 1, {1: IntMatrix.from_rows([[2]])})
    psi_b = GRMatrix(z4, 1, 1, {2: IntMatrix.from_rows([[3]])})
    conv = psi_a @ psi_b
    assert set(conv.letters) == {3}
    assert conv.letter(3) == IntMatrix.from_rows([[6]])


def test_convolution_identity_and_horizon():
    f = FreeGroup(1)
    ident = GRMatrix.constant(f, IntMatrix.identity(1))
    psi = GRMatrix(f, 1, 1, {"a": IntMatrix.from_rows([[1]])})
    assert (psi @ ident).letters == psi.letters
    # the product letter leaves the ball of radius 1 and is kept
    assert (psi @ psi).letters == {"aa": IntMatrix.from_rows([[1]])}


def test_pushforward_functorial_and_direct_sum():
    space = three_point_space()
    phi = module_map(("a", "b"), ("a", "c"), IntMatrix.from_rows([[1, 2], [0, 1]]))

    def relabeled(f, along):
        """Relabel both endpoints along a map of control spaces; the matrix is unchanged."""
        return f.retarget(f.source.relabel(along.__getitem__),
                          f.target.relabel(along.__getitem__))
    collapse = {"a": "z", "b": "z", "c": "w"}
    pushed = relabeled(phi, collapse)
    assert pushed.source.pos(0) == ("z", "z")
    assert pushed.target.pos(0).count("z") == 1
    ident = {"a": "a", "b": "b", "c": "c"}
    assert relabeled(phi, ident).mats == phi.mats
    then = {"z": "top", "w": "top"}
    assert relabeled(pushed, then).target.pos(0) == \
        relabeled(phi, {k: "top" for k in collapse}).target.pos(0)


def test_dual_support_transpose():
    phi = module_map((GPos(0, "a"), GPos(0, "b")), (GPos(1, "c"),),
                     IntMatrix.from_rows([[5, 0]]))
    dual = dual_map(phi)
    assert set(dual.support_pairs()) == {(s, t) for (t, s) in phi.support_pairs()}


def test_equivariant_dual_letters():
    z4 = FiniteTableGroup.cyclic(4)
    psi = GRMatrix(z4, 2, 2, {1: IntMatrix.from_rows([[1, 2], [0, 0]])})
    dual = psi.transpose()
    assert set(dual.letters) == {3}
    assert dual.letter(3) == IntMatrix.from_rows([[1, 0], [2, 0]])


def test_equivariant_dual_matches_expanded_dual():
    # letterwise (f^-*)_a = (f_{a^-1})^-* against the explicit-position dual
    rng = random.Random(13)
    z3 = FiniteTableGroup.cyclic(3)
    fiber = ("a", "b")
    for _ in range(25):
        psi = GRMatrix(z3, 2, 2, {g: rand_matrix(rng, 2, 2, 0.6) for g in range(3)})
        ball = z3.elements()
        lhs = expanded(psi.transpose(), fiber, ball)
        rhs = dual_map(expanded(psi, fiber, ball))
        assert lhs.mats == rhs.mats
        assert set(lhs.support_pairs()) == set(rhs.support_pairs())
