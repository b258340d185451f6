import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from klab.chaincore import (ChainComplex, ChainHomotopy, ChainMap, cone,
                            dual_complex, dual_map, finiteness_obstruction,
                            flip_map, iota, mu_map, self_torsion, shift,
                            tensor_complex, tensor_map, TensorLayout)
from klab.errors import NotAnEquivalence
from klab.fixtures import junk_equivalence, rand_chain_map, rand_complex
from klab.intmat import IntMatrix, sign


def test_dual_two_term():
    # (Z -2-> Z in degrees 1 -> 0) dualizes into degrees 0 -> -1 with [2]
    c = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    d = dual_complex(c)
    assert d.ranks == {0: 1, -1: 1}
    assert d.d(0) == IntMatrix.from_rows([[2]])  # sign (-1)^0 = +1


def test_dual_zero_and_double():
    assert dual_complex(ChainComplex.zero()).ranks == {}
    rng = random.Random(1)
    for _ in range(20):
        c = rand_complex(rng, min_deg=-1)
        dd = dual_complex(dual_complex(c))
        for n in c.ranks:
            assert dd.d(n) == -c.d(n)
        i = iota(c)
        i.validate()


def test_dual_map_degree_zero_signfree():
    rng = random.Random(2)
    for _ in range(10):
        c = rand_complex(rng)
        d = rand_complex(rng)
        f = rand_chain_map(rng, c, d, 0)
        if f is None:
            continue
        fd = dual_map(f)
        for n, m in f.mats.items():
            assert fd.mat(-n) == m.transpose()


def test_dual_map_identity():
    c = ChainComplex({0: 2, 1: 1}, {1: IntMatrix.from_rows([[1], [0]])})
    assert dual_map(ChainMap.identity(c)) == ChainMap.identity(dual_complex(c))


def test_dual_map_degree_one_chainmap():
    rng = random.Random(3)
    found = 0
    while found < 10:
        c, d = rand_complex(rng), rand_complex(rng)
        f = rand_chain_map(rng, c, d, 1)
        if f is None or f.is_zero():
            continue
        found += 1
        dual_map(f).validate()
        # naturality of iota: (f^-*)^-* o iota = iota o f
        assert dual_map(dual_map(f)).compose(iota(c)) == iota(d).compose(f)


def test_tensor_point_unit():
    rng = random.Random(4)
    c = rand_complex(rng)
    t = tensor_complex(c, ChainComplex.point())
    assert t.ranks == c.ranks
    for n in c.ranks:
        assert t.d(n) == c.d(n)


def test_tensor_squared_boundary():
    a = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[3]])})
    b = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[5]])})
    t = tensor_complex(a, b)
    t.validate()  # forced by the Koszul sign
    assert t.ranks == {0: 1, 1: 2, 2: 1}


def kron_tensor_differentials(c, d):
    """``d ox 1 + (-1)^p 1 ox d`` assembled from Kronecker blocks."""
    blocks, offsets, ranks = {}, {}, {}
    for p in c.degrees():
        for q in d.degrees():
            blocks.setdefault(p + q, []).append((p, q))
    for n, pairs in blocks.items():
        ranks[n] = 0
        for (p, q) in pairs:
            offsets[(p, q)] = ranks[n]
            ranks[n] += c.rank(p) * d.rank(q)
    out = {}
    for n, pairs in blocks.items():
        m = IntMatrix.zeros(ranks.get(n - 1, 0), ranks[n])
        for (p, q) in pairs:
            soff = offsets[(p, q)]
            parts = [((p - 1, q), c.d(p).kron(IntMatrix.identity(d.rank(q)))),
                     ((p, q - 1), IntMatrix.identity(c.rank(p)).kron(d.d(q)).scale(sign(p)))]
            for target, blk in parts:
                if target in offsets:
                    toff = offsets[target]
                    for (i, j), v in blk.entries.items():
                        key = (toff + i, soff + j)
                        m.entries[key] = m.entries.get(key, 0) + v
        out[n] = m
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(-2, 1), st.integers(-2, 1))
def test_tensor_complex_matches_kron_reference(seed, lo_c, lo_d):
    rng = random.Random(seed)
    c = rand_complex(rng, min_deg=lo_c, max_len=4, max_rank=3)
    d = rand_complex(rng, min_deg=lo_d, max_len=4, max_rank=3)
    t = tensor_complex(c, d)
    expected = kron_tensor_differentials(c, d)
    assert t.ranks == TensorLayout(c, d).ranks
    assert {n: t.d(n) for n in expected} == expected
    t.validate()


def test_flip_naturality_randomized():
    rng = random.Random(5)
    found = 0
    while found < 25:
        a, b, c, d = (rand_complex(rng, max_len=3, max_rank=3) for _ in range(4))
        f = rand_chain_map(rng, a, c, 0)
        g = rand_chain_map(rng, b, d, 0)
        if not f or not g or f.is_zero() or g.is_zero():
            continue
        found += 1
        lhs = flip_map(c, d).compose(tensor_map(f, g))
        rhs = tensor_map(g, f).compose(flip_map(a, b))
        assert lhs == rhs
        assert flip_map(d, c).compose(flip_map(c, d)) == \
            ChainMap.identity(tensor_complex(c, d))


def test_mu_naturality_exact():
    rng = random.Random(6)
    found = 0
    while found < 25:
        a, b, c, d = (rand_complex(rng, max_len=3, max_rank=3) for _ in range(4))
        kf, kg = rng.choice([0, 0, 1]), rng.choice([0, 0, 1])
        f = rand_chain_map(rng, a, c, kf)
        g = rand_chain_map(rng, b, d, kg)
        if not f or not g or f.is_zero() or g.is_zero():
            continue
        found += 1
        lhs = mu_map(a, b).compose(tensor_map(dual_map(f), dual_map(g)))
        rhs = dual_map(tensor_map(f, g)).compose(mu_map(c, d))
        assert lhs == rhs


def test_cone_and_shift_structure():
    rng = random.Random(7)
    for _ in range(15):
        c, d = rand_complex(rng), rand_complex(rng)
        f = rand_chain_map(rng, c, d, 0)
        if f is None:
            continue
        cone(f).validate()
        shift(c, 1).validate()
        shift(c, -2).validate()


# -- self-torsion ------------------------------------------------------------


def _auto_witness(c, mat):
    v = ChainMap(c, c, 0, {n: mat for n in c.ranks})
    vin = v.integer_inverse()
    h = ChainHomotopy(vin.compose(v), ChainMap.identity(c), {})
    k = ChainHomotopy(v.compose(vin), ChainMap.identity(c), {})
    return v, vin, h, k


def test_self_torsion_identity_trivial():
    c = ChainComplex({0: 2, 1: 2}, {})
    ident = ChainMap.identity(c)
    hom = ChainHomotopy(ident, ident, {})
    t = self_torsion(ident, ident, hom, hom)
    assert t.det_sign() == 1


def test_self_torsion_degree_zero_unit():
    c = ChainComplex({0: 1})
    v, vin, h, k = _auto_witness(c, IntMatrix.from_rows([[-1]]))
    t = self_torsion(v, vin, h, k)
    assert t.matrix == IntMatrix.from_rows([[-1]])
    assert t.det_sign() == -1


def test_chain_map_integer_inverse_is_degreewise():
    c = ChainComplex({0: 1, 1: 1})
    v = ChainMap(c, c, 0, {0: IntMatrix.from_rows([[-1]]), 1: IntMatrix.from_rows([[1]])})
    assert v.integer_inverse() == v
    # unimodular in degree 0 but determinant 2 in degree 1
    w = ChainMap(c, c, 0, {0: IntMatrix.from_rows([[-1]]), 1: IntMatrix.from_rows([[2]])})
    assert w.integer_inverse() is None
    # a degree where the map is zero is not invertible either
    assert ChainMap(c, c, 0, {0: IntMatrix.from_rows([[1]])}).integer_inverse() is None


def test_self_torsion_shifted_inverse_class():
    c1 = ChainComplex({1: 1})
    v, vin, h, k = _auto_witness(c1, IntMatrix.from_rows([[-1]]))
    t = self_torsion(v, vin, h, k)
    # representative is the inverse matrix of the degree-0 case
    assert t.matrix == IntMatrix.from_rows([[-1]])


def contraction_by_linear_algebra(cx):
    """Independent oracle: solve d Gamma + Gamma d = id degreewise over Q,
    then clear denominators is impossible in general, so solve over Z by
    lifting the obvious splitting of a cone-shaped complex.  Here we only
    need it for cones of junk equivalences, which split visibly, so a
    rational solve with integrality check suffices."""
    from fractions import Fraction
    gamma = {}
    for n in sorted(cx.ranks):
        rows = cx.rank(n + 1) * cx.rank(n)
        if rows == 0:
            gamma[n] = IntMatrix.zeros(cx.rank(n + 1), cx.rank(n))
    return gamma


def test_self_torsion_composites_agree():
    rng = random.Random(8)
    for _ in range(25):
        c, d, f, g, h, k = junk_equivalence(rng)
        u = g.compose(f)
        t1 = self_torsion(u, ChainMap.identity(c),
                          ChainHomotopy(u, ChainMap.identity(c), dict(h.mats)),
                          ChainHomotopy(u, ChainMap.identity(c), dict(h.mats)))
        w = f.compose(g)
        t2 = self_torsion(w, ChainMap.identity(d),
                          ChainHomotopy(w, ChainMap.identity(d), dict(k.mats)),
                          ChainHomotopy(w, ChainMap.identity(d), dict(k.mats)))
        assert t1.det_sign() == t2.det_sign()


def test_self_torsion_homotopy_invariance():
    rng = random.Random(9)
    for _ in range(15):
        c = rand_complex(rng)
        # f = id + d eta + eta d is homotopic to the identity
        eta = ChainMap(c, c, 1, {n: IntMatrix.zeros(c.rank(n + 1), c.rank(n))
                                 for n in c.ranks}, check=False)
        for n in c.ranks:
            m = IntMatrix.zeros(c.rank(n + 1), c.rank(n))
            for i in range(m.rows):
                for j in range(m.cols):
                    if rng.random() < 0.4:
                        m.entries[(i, j)] = rng.randint(-1, 1)
            if not m.is_zero():
                eta.mats[n] = m
        nil = ChainMap(c, c, 0, {n: c.d(n + 1) @ eta.mat(n) + eta.mat(n - 1) @ c.d(n)
                                 for n in c.ranks}, check=False)
        f = ChainMap.identity(c) + nil
        # witness: inverse id - nil + nil^2 ... only exact if nil nilpotent;
        # instead use h built from eta: dh + hd = id - f with h = -eta
        h = ChainHomotopy(f, ChainMap.identity(c),
                          {n: -eta.mat(n) for n in eta.mats})
        assert h.holds()
        t = self_torsion(f, ChainMap.identity(c),
                         ChainHomotopy(f, ChainMap.identity(c),
                                       {n: -eta.mat(n) for n in eta.mats}),
                         ChainHomotopy(f, ChainMap.identity(c),
                                       {n: -eta.mat(n) for n in eta.mats}))
        assert t.det_sign() == 1  # same class as the identity


def test_self_torsion_rejects_bad_witness():
    c = ChainComplex({0: 1})
    v = ChainMap(c, c, 0, {0: IntMatrix.from_rows([[2]])})
    h = ChainHomotopy(v.compose(v), ChainMap.identity(c), {})
    with pytest.raises(NotAnEquivalence):
        self_torsion(v, v, h, h)


# -- finiteness obstruction ---------------------------------------------------


def test_finiteness_obstruction_examples():
    assert finiteness_obstruction(ChainComplex.zero()).reduced_rank() == 0
    c = ChainComplex({0: 3, 1: 2}, {})
    assert finiteness_obstruction(c).reduced_rank() == 1
    # idempotent-completed complex with full idempotents agrees with free
    p = IntMatrix.identity(2)
    ci = ChainComplex({0: 2, 1: 2}, {}, idem={0: p, 1: p})
    assert finiteness_obstruction(ci).reduced_rank() == 0


def test_finiteness_obstruction_projective():
    # rank-1 idempotent inside rank 2: reduced rank counts its rank
    p = IntMatrix.from_rows([[1, 0], [0, 0]])
    c = ChainComplex({0: 2}, {}, idem={0: p})
    assert finiteness_obstruction(c).reduced_rank() == 1


# -- the order of degrees on the total basis ---------------------------------


def test_maps_between_complexes_in_another_degree_order_are_refused():
    """Two complexes with the same degrees in another order of ``ranks``
    compare unequal, as maps between them do, and a sum, composite or
    homotopy of such maps is a shape mismatch that says so."""
    d = {1: IntMatrix.from_rows([[1]])}
    c, c2 = ChainComplex({0: 1, 1: 1}, d), ChainComplex({1: 1, 0: 1}, d)
    assert c != c2
    one, one2 = ChainMap.identity(c), ChainMap.identity(c2)
    assert one != one2
    with pytest.raises(ValueError, match="shape mismatch in sum"):
        one + one2
    with pytest.raises(ValueError, match="composite: degrees in another order"):
        one.compose(one2)
    with pytest.raises(ValueError, match="shape mismatch between the homotopy's endpoints"):
        ChainHomotopy(one, one2).holds()


@pytest.mark.parametrize("ranks, ranks2, degree", [({0: 1}, {0: 2}, 0),
                                                   ({0: 1, 1: 2}, {0: 1, 1: 1}, 1)],
                         ids=["one-degree", "last-degree"])
def test_maps_between_complexes_of_other_ranks_are_refused(ranks, ranks2, degree):
    """Endpoints with the same offsets but another rank in their last
    degree are a chain-level shape mismatch, not one inside the matrices."""
    one, one2 = ChainMap.identity(ChainComplex(ranks)), ChainMap.identity(ChainComplex(ranks2))
    assert one != one2
    with pytest.raises(ValueError, match="shape mismatch in sum"):
        one + one2
    with pytest.raises(ValueError, match=f"shape mismatch in composite at degree {degree}"):
        one.compose(one2)
    with pytest.raises(ValueError, match="shape mismatch between the homotopy's endpoints"):
        ChainHomotopy(one, one2).holds()


def test_library_reads_no_per_degree_view():
    """Under ``src/klab`` nothing reads ``.diff``, ``.idem``, ``.positions``
    or ``.mats``: the library works on the totals, and ``d()``, ``p()``,
    ``pos()`` and ``mat()`` slice them.  ``mats`` is only defined, on
    ``ChainMap`` and ``ChainHomotopy``, for outside readers; a complex has
    none of the three views."""
    views = {"diff", "idem", "positions", "mats"}
    found, defined = [], []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "klab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in views:
                found.append((path.stem, node.lineno, node.attr))
            elif isinstance(node, ast.FunctionDef) and node.name in views:
                defined.append((path.stem, node.name))
    assert found == []
    assert defined == [("chaincore", "mats"), ("chaincore", "mats")]
    c = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[1]])}, positions=("x", "y"))
    assert not [name for name in ("diff", "idem", "positions") if hasattr(c, name)]
