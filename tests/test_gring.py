import random

import pytest

from klab.chaincore import self_torsion, shift
from klab.errors import NotAnEquivalence
from klab.fixtures import junk_equivalence, rand_matrix
from klab.gring import (GRComplex, GRGradedMap, GRMatrix, gr_mul,
                        gr_self_torsion)
from klab.groups import FiniteTableGroup
from klab.intmat import IntMatrix


def test_berkowitz_matches_integer_det_trivial_group():
    rng = random.Random(61)
    triv = FiniteTableGroup.cyclic(1)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, 0.7, -3, 3)
        gm = GRMatrix.constant(triv, m)
        det = gm.det()
        expected = m.det()
        assert det.get(0, 0) == expected
        assert all(k == 0 for k in det)


def test_berkowitz_multiplicative():
    rng = random.Random(62)
    z3 = FiniteTableGroup.cyclic(3)
    for _ in range(15):
        a = GRMatrix(z3, 2, 2, {g: rand_matrix(rng, 2, 2, 0.5, -1, 1)
                                for g in range(3)})
        b = GRMatrix(z3, 2, 2, {g: rand_matrix(rng, 2, 2, 0.5, -1, 1)
                                for g in range(3)})
        lhs = (a @ b).det()
        rhs = gr_mul(z3, a.det(), b.det())
        assert lhs == rhs


def test_star_involution():
    z4 = FiniteTableGroup.cyclic(4)
    a = GRMatrix(z4, 2, 3, {1: IntMatrix.from_rows([[1, 2, 0], [0, 0, 3]])})
    star = a.star()
    assert star.rows == 3 and star.cols == 2
    assert star.letters == {3: IntMatrix.from_rows([[1, 0], [2, 0], [0, 3]])}
    assert a.star().star() == a


def test_gr_self_torsion_degree_zero_unit():
    z2 = FiniteTableGroup.cyclic(2)
    c = GRComplex(z2, {0: 1}, {})
    unit = GRMatrix(z2, 1, 1, {1: IntMatrix.from_rows([[-1]])})
    f = GRGradedMap(c, c, 0, {0: unit})
    g = GRGradedMap(c, c, 0, {0: unit})  # (-s)^2 = e
    rep = gr_self_torsion(f, g, {}, {})
    assert rep.det() == {1: -1}


def test_gr_self_torsion_identity():
    z2 = FiniteTableGroup.cyclic(2)
    c = GRComplex(z2, {0: 2, 1: 1}, {1: GRMatrix.constant(
        z2, IntMatrix.from_rows([[0], [0]]))})
    ident = GRGradedMap.identity(c)
    rep = gr_self_torsion(ident, ident, {}, {})
    assert rep.det() == {0: 1}


def test_gr_self_torsion_rejects_bad_witness():
    z2 = FiniteTableGroup.cyclic(2)
    c = GRComplex(z2, {0: 1}, {})
    two = GRGradedMap(c, c, 0, {0: GRMatrix.constant(z2, IntMatrix.from_rows([[2]]))})
    with pytest.raises(NotAnEquivalence):
        gr_self_torsion(two, two, {}, {})


def test_free_abelian_group_ring_det():
    from klab.groups import FreeAbelianGroup
    z = FreeAbelianGroup(1)
    # the unit t in Z[t, t^{-1}]: det of [t] is t
    a = GRMatrix(z, 1, 1, {(1,): IntMatrix.from_rows([[1]])})
    assert a.det() == {(1,): 1}
    b = a @ a
    assert b.det() == {(2,): 1}


def test_shifted_unit_gives_inverse_class():
    # the unit t placed in degree 1 instead of degree 0 has torsion det t^{-1}
    from klab.groups import FreeAbelianGroup
    z = FreeAbelianGroup(1)
    unit = GRMatrix(z, 1, 1, {(1,): IntMatrix.from_rows([[1]])})
    unit_inv = GRMatrix(z, 1, 1, {(-1,): IntMatrix.from_rows([[1]])})
    c0 = GRComplex(z, {0: 1}, {})
    f0 = GRGradedMap(c0, c0, 0, {0: unit})
    g0 = GRGradedMap(c0, c0, 0, {0: unit_inv})
    rep0 = gr_self_torsion(f0, g0, {}, {})
    assert rep0.det() == {(1,): 1}
    c1 = GRComplex(z, {1: 1}, {})
    f1 = GRGradedMap(c1, c1, 0, {1: unit})
    g1 = GRGradedMap(c1, c1, 0, {1: unit_inv})
    rep1 = gr_self_torsion(f1, g1, {}, {})
    assert rep1.det() == {(-1,): 1}


def test_cone_torsion_agrees_over_z_and_trivial_group_ring():
    # the same junk equivalences, once over Z and once lifted to Z[1]
    triv = FiniteTableGroup.cyclic(1)

    def lift(mats):
        return {n: GRMatrix.constant(triv, m) for n, m in mats.items()}

    rng = random.Random(64)
    for _ in range(25):
        C, D, f, g, h, k = junk_equivalence(rng)
        over_z = self_torsion(f, g, h, k).det_sign()
        C1 = GRComplex(triv, C.ranks, lift(C.diff))
        D1 = GRComplex(triv, D.ranks, lift(D.diff))
        f1 = GRGradedMap(C1, D1, 0, lift(f.mats))
        g1 = GRGradedMap(D1, C1, 0, lift(g.mats))
        rep = gr_self_torsion(f1, g1, lift(h.mats), lift(k.mats))
        assert rep.det() == {triv.identity(): over_z}


def test_shift_keeps_group_ring():
    z2 = FiniteTableGroup.cyclic(2)
    norm = GRMatrix(z2, 1, 1, {0: IntMatrix.identity(1), 1: IntMatrix.identity(1)})
    c = GRComplex(z2, {0: 1, 1: 1}, {1: norm})
    s = shift(c, 1)
    assert s.ring is c.ring
    s.validate()
    assert s.ranks == {1: 1, 2: 1}
    assert s.d(2) == norm.scale(-1)
    assert s.d(1) == GRMatrix(z2, 0, 1)  # a filled-in zero is over Z[C2] too
