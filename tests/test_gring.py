import ast
import random
from pathlib import Path

import pytest

from klab.chaincore import ChainHomotopy, ChainMap, self_torsion, shift
from klab.errors import InputError, NotAnEquivalence
from klab.fixtures import junk_equivalence, rand_matrix
from klab.gring import GRComplex, GRMatrix, gr_mul
from klab.groups import FiniteTableGroup
from klab.intmat import IntMatrix


def gr_self_torsion(f, g, h, k):
    """``self_torsion`` over Z[G] from the matrices of ``g f ~ id`` and ``f g ~ id``."""
    return self_torsion(f, g, ChainHomotopy(g.compose(f), ChainMap.identity(f.source), h),
                        ChainHomotopy(f.compose(g), ChainMap.identity(f.target), k)).matrix


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
    star = a.transpose()
    assert star.rows == 3 and star.cols == 2
    assert star.letters == {3: IntMatrix.from_rows([[1, 0], [2, 0], [0, 3]])}
    assert a.transpose().transpose() == a


def test_sum_checks_shapes_with_a_letterless_operand():
    z3 = FiniteTableGroup.cyclic(3)
    a = GRMatrix(z3, 2, 2, {1: IntMatrix.identity(2)})
    for other in (GRMatrix(z3, 3, 3), GRMatrix(z3, 2, 3),
                  GRMatrix(z3, 3, 3, {2: IntMatrix.identity(3)})):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(InputError):
                op(a, other)
            with pytest.raises(InputError):
                op(other, a)
    assert a + GRMatrix(z3, 2, 2) == a and GRMatrix(z3, 2, 2) - a == -a


@pytest.mark.parametrize("shape", [(-1, -1), (1, -1)])
def test_negative_shape_is_an_input_error(shape):
    # with no letter block to check the shape against, as IntMatrix(-1, -1) raises
    with pytest.raises(InputError, match="must not be negative"):
        GRMatrix(FiniteTableGroup.cyclic(2), *shape)


def test_gr_self_torsion_degree_zero_unit():
    z2 = FiniteTableGroup.cyclic(2)
    c = GRComplex(z2, {0: 1}, {})
    unit = GRMatrix(z2, 1, 1, {1: IntMatrix.from_rows([[-1]])})
    f = ChainMap(c, c, 0, {0: unit}, check=False)
    g = ChainMap(c, c, 0, {0: unit}, check=False)  # (-s)^2 = e
    rep = gr_self_torsion(f, g, {}, {})
    assert rep.det() == {1: -1}


def test_gr_self_torsion_identity():
    z2 = FiniteTableGroup.cyclic(2)
    c = GRComplex(z2, {0: 2, 1: 1}, {1: GRMatrix.constant(
        z2, IntMatrix.from_rows([[0], [0]]))})
    ident = ChainMap.identity(c)
    rep = gr_self_torsion(ident, ident, {}, {})
    assert rep.det() == {0: 1}


def test_gr_self_torsion_rejects_bad_witness():
    z2 = FiniteTableGroup.cyclic(2)
    c = GRComplex(z2, {0: 1}, {})
    two = ChainMap(c, c, 0, {0: GRMatrix.constant(z2, IntMatrix.from_rows([[2]]))},
                   check=False)
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
    f0 = ChainMap(c0, c0, 0, {0: unit}, check=False)
    g0 = ChainMap(c0, c0, 0, {0: unit_inv}, check=False)
    rep0 = gr_self_torsion(f0, g0, {}, {})
    assert rep0.det() == {(1,): 1}
    c1 = GRComplex(z, {1: 1}, {})
    f1 = ChainMap(c1, c1, 0, {1: unit}, check=False)
    g1 = ChainMap(c1, c1, 0, {1: unit_inv}, check=False)
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
        C1 = GRComplex.constant(triv, C)
        D1 = GRComplex.constant(triv, D)
        f1 = ChainMap(C1, D1, 0, lift(f.mats), check=False)
        g1 = ChainMap(D1, C1, 0, lift(g.mats), check=False)
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


def test_library_names_morphism_shims_only_where_it_defines_them():
    """Under ``src/klab`` a morphism over ``Z[G]`` is a ``GRMatrix``:
    ``control.EquivariantMorphism`` and ``transfer.group_module`` are
    named only by their own definitions, and ``GeometricModule`` not at
    all.  ``test_equivariant_reference`` (which builds its inputs with
    perfbench's ``Pipeline.make``) and ``test_tracer_targets`` keep the
    two shims callable."""
    shims = {"EquivariantMorphism", "GeometricModule", "group_module"}
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "klab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.alias, ast.ClassDef,
                                                        ast.FunctionDef))
                    else None)
            if name in shims:
                found.append((path.stem, type(node).__name__, name))
    assert sorted(found) == [("control", "ClassDef", "EquivariantMorphism"),
                             ("transfer", "FunctionDef", "group_module")]
