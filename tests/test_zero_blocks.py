"""Absent blocks in ``klab.chaincore`` are zero and are never built.

``ChainComplex.validate``, ``ChainMap.validate``, ``ChainHomotopy.holds``,
``ChainMap.compose``, ``+``, ``==``, ``dual_complex`` and ``cone`` read
``diff``, ``mats`` and ``idem`` directly: a missing degree is the zero
block (the identity for ``idem``).  The reference functions below are the
explicit-zero versions those replaced; over generated complexes, maps and
homotopies over ``Z`` and ``Z[G]`` the new code must give equal results,
the same bool or the same exception class, with and without planted
faults.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from klab.chaincore import (ChainComplex, ChainHomotopy, ChainMap, cone, cone_torsion,
                            dual_complex, tensor_complex, tensor_map)
from klab.fixtures import domination_instance, junk_equivalence, rand_complex, rand_matrix
from klab.gring import GRMatrix, GroupRing
from klab.groups import FiniteTableGroup
from klab.intmat import IntMatrix, sign
from klab.transfer import finite_replacement

# -- reference: the explicit-zero checks and algebra ---------------------------


def ref_complex_validate(c):
    for n in c.ranks:
        dn = c.d(n)
        if (dn.rows, dn.cols) != (c.rank(n - 1), c.rank(n)):
            raise ValueError(f"differential shape mismatch at degree {n}")
        if not (dn @ c.d(n + 1)).is_zero():
            raise ValueError(f"d o d != 0 at degree {n + 1}")
        if c.positions is not None:
            ps = c.pos(n)
            if ps is None or len(ps) != c.rank(n):
                raise ValueError(f"positions missing at degree {n}")
        if c.idem is not None:
            pn = c.p(n)
            if not (pn @ pn - pn).is_zero():
                raise ValueError(f"idempotent fails p^2 = p at degree {n}")
            if not (c.p(n - 1) @ dn @ pn - dn).is_zero():
                raise ValueError(f"differential not compatible with idempotents at {n}")


def ref_map_validate(f):
    k = f.degree
    degs = set(f.source.ranks) | {n - k for n in f.target.ranks}
    idem = f.source.idem is not None or f.target.idem is not None
    for n in degs:
        m = f.mat(n)
        if (m.rows, m.cols) != (f.target.rank(n + k), f.source.rank(n)):
            raise ValueError(f"chain map shape mismatch at degree {n}")
        lhs = f.target.d(n + k) @ m
        rhs = (f.mat(n - 1) @ f.source.d(n)).scale(sign(k))
        if lhs != rhs:
            raise ValueError(f"not a chain map at degree {n}")
        if idem and not (f.target.p(n + k) @ m @ f.source.p(n) - m).is_zero():
            raise ValueError(f"map not compatible with idempotents at degree {n}")


def ref_is_chain_map(f):
    try:
        ref_map_validate(f)
    except ValueError:
        return False
    return True


def ref_holds(h):
    f, g = h.source_map, h.target_map
    k = f.degree
    C, D = f.source, f.target
    for n in set(C.ranks) | set(h.mats) | {n - k for n in D.ranks}:
        lhs = D.d(n + k + 1) @ h.mat(n) + (h.mat(n - 1) @ C.d(n)).scale(sign(k))
        if lhs != g.mat(n) - f.mat(n):
            return False
    return True


def ref_eq(f, g):
    if not isinstance(g, ChainMap) or f.degree != g.degree:
        return False
    return all(f.mat(n) == g.mat(n) for n in set(f.mats) | set(g.mats))


def ref_add(f, g):
    if f.degree != g.degree:
        raise ValueError("degree mismatch in sum")
    return ChainMap(f.source, f.target, f.degree,
                    {n: f.mat(n) + g.mat(n) for n in set(f.mats) | set(g.mats)}, check=False)


def ref_compose(f, g):
    k = g.degree
    degs = set(g.mats) | {n - k for n in f.mats}
    return ChainMap(g.source, f.target, f.degree + g.degree,
                    {n: f.mat(n + k) @ g.mat(n) for n in degs}, check=False)


def ref_dual(c):
    ranks = {-n: r for n, r in c.ranks.items()}
    diff = {n: c.d(-n + 1).transpose().scale(sign(n)) for n in ranks}
    idem = None if c.idem is None else {-n: c.p(n).transpose() for n in c.ranks}
    positions = None if c.positions is None else {-n: c.pos(n) for n in c.ranks}
    return ChainComplex(ranks, diff, idem, positions, check=False)


def ref_cone(f):
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    C, D = f.source, f.target
    degs = {n + 1 for n in C.ranks} | set(D.ranks)
    diff = {n: C.ring.from_blocks([[-C.d(n - 1), None], [f.mat(n - 1), D.d(n)]],
                                  [C.rank(n - 2), D.rank(n - 1)], [C.rank(n - 1), D.rank(n)])
            for n in degs}
    idem = None
    if C.idem is not None or D.idem is not None:
        idem = {n: C.ring.from_blocks([[C.p(n - 1), None], [None, D.p(n)]],
                                      [C.rank(n - 1), D.rank(n)], [C.rank(n - 1), D.rank(n)])
                for n in degs}
    positions = None
    if C.positions is not None and D.positions is not None:
        positions = {n: tuple(C.pos(n - 1) or ()) + tuple(D.pos(n) or ()) for n in degs}
    return ChainComplex({n: C.rank(n - 1) + D.rank(n) for n in degs}, diff, idem, positions,
                        check=False, ring=C.ring)


# -- generated inputs ------------------------------------------------------------

C3 = FiniteTableGroup.cyclic(3)
GR = GroupRing(C3)


class Ring:
    """Random blocks over ``Z`` or ``Z[C3]``, zero-padded so that the
    idempotent ``1 + 0`` of a decorated complex fixes them."""

    def __init__(self, rng, group_ring):
        self.rng = rng
        self.ring = GR if group_ring else IntMatrix

    def lift(self, m, letter=0):
        if self.ring is IntMatrix:
            return m
        return GRMatrix(C3, m.rows, m.cols, {letter: m})

    def block(self, rows, cols, pad_rows=0, pad_cols=0, density=0.5):
        rng = self.rng
        def one():
            return rand_matrix(rng, rows, cols, density, -1, 1).direct_sum(
                IntMatrix.zeros(pad_rows, pad_cols))
        if self.ring is IntMatrix:
            return one()
        return GRMatrix(C3, rows + pad_rows, cols + pad_cols,
                        {a: one() for a in rng.sample(range(3), rng.randint(1, 2))})

    def nonzero(self, rows, cols):
        m = IntMatrix(rows, cols, {(0, 0): 1, (rows - 1, cols - 1): -1})
        return self.lift(m, self.rng.randrange(3))


class Decorated:
    """A random complex, its basis grown by ``extra[n]`` vectors that the
    idempotent cuts away (all zero when there are no idempotents)."""

    def __init__(self, ring, lo, idempotents, positions, tag):
        rng = ring.rng
        base = rand_complex(rng, min_deg=lo, max_len=3, max_rank=3)
        self.base = base.ranks
        self.extra = {n: rng.randint(0, 1) if idempotents else 0 for n in base.ranks}
        ranks = {n: r + self.extra[n] for n, r in base.ranks.items()}
        diff = {n: ring.lift(m.direct_sum(IntMatrix.zeros(self.extra.get(n - 1, 0),
                                                          self.extra[n])), rng.randrange(3))
                for n, m in base.diff.items()}
        idem = None
        if idempotents:
            idem = {n: ring.lift(IntMatrix.identity(r).direct_sum(
                IntMatrix.zeros(self.extra[n], self.extra[n]))) for n, r in base.ranks.items()}
        pos = None
        if positions:
            pos = {n: tuple((tag, i) for i in range(r)) for n, r in ranks.items()}
        self.ring, self.ranks, self.diff, self.idem, self.pos = ring, ranks, diff, idem, pos

    def build(self):
        return ChainComplex(self.ranks, self.diff, self.idem, self.pos, check=False,
                            ring=self.ring.ring)


def graded(ring, src, tgt, k, keep=0.8):
    """Random blocks of degree ``k``; some degrees are left absent."""
    rng = ring.rng
    return {n: ring.block(tgt.base.get(n + k, 0), src.base[n],
                          tgt.extra.get(n + k, 0), src.extra[n])
            for n in src.base if rng.random() < keep}


def boundary(C, D, k, hmats):
    """``d H + (-1)^k H d`` for the degree-``k + 1`` blocks ``hmats``: a
    chain map of degree ``k``, homotopic to zero."""
    h = ChainHomotopy(ChainMap.zero(C, D, k), ChainMap.zero(C, D, k), hmats)
    return {n: D.d(n + k + 1) @ h.mat(n) + (h.mat(n - 1) @ C.d(n)).scale(sign(k))
            for n in set(C.ranks) | {n - k for n in D.ranks}}


FAULTS = ("none", "dd", "chain", "homotopy", "idempotent", "shape")
SHAPE_PLACES = ("diff", "f", "h", "idem C", "idem D")


def case(seed, group_ring, lo, k, idempotents, positions, fault, plant=None):
    """One generated case.  ``plant`` places the fault, random if None:
    ``(where, offset)`` for a mis-shaped block at degree
    ``min(C.ranks) - 1 + offset``, ``(kind, offset)`` for a wrong
    idempotent at the ``offset``-th degree of ``D``."""
    rng = random.Random(seed)
    ring = Ring(rng, group_ring)
    cs = Decorated(ring, lo, idempotents, positions, "c")
    ds = Decorated(ring, lo + rng.randint(-1, 1), idempotents, positions, "d")
    if fault == "dd":
        n = rng.choice(sorted(ds.ranks))
        if ds.ranks.get(n - 1):
            ds.diff[n] = ring.block(ds.ranks[n - 1], ds.ranks[n], density=0.7)
    if fault == "idempotent" and idempotents:
        kind, offset = plant or (rng.choice(("zero", "column", "random")), rng.randrange(3))
        n = sorted(ds.ranks)[offset % len(ds.ranks)]
        r = ds.ranks[n]
        # zero and e_00 + e_r0 are idempotents that need not commute with d
        ds.idem[n] = ring.lift({"zero": IntMatrix.zeros(r, r),
                                "column": IntMatrix(r, r, {(r - 1, 0): 1, (0, 0): 1}),
                                "random": rand_matrix(rng, r, r, 0.5, -1, 1)}[kind])
    hmats = graded(ring, cs, ds, k + 1)
    kmats = graded(ring, cs, ds, k + 1)
    C, D = cs.build(), ds.build()
    fmats = boundary(C, D, k, hmats)
    gmats = {n: m + fmats[n] for n, m in boundary(C, D, k, kmats).items()}
    if fault == "chain":
        n = rng.choice(sorted(cs.ranks))
        if D.rank(n + k):
            fmats[n] = fmats[n] + ring.nonzero(D.rank(n + k), C.rank(n))
    if fault == "homotopy":
        n = rng.choice(sorted(cs.ranks))
        if D.rank(n + k + 1):
            kmats[n] = ring.nonzero(D.rank(n + k + 1), C.rank(n))
    if fault == "shape":
        # one present block of a wrong shape, possibly just outside the ranks
        where, offset = plant or (rng.choice(SHAPE_PLACES if idempotents else SHAPE_PLACES[:3]),
                                  rng.randint(0, len(C.ranks) + 1))
        n = min(C.ranks) - 1 + offset
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        if where == "diff":
            if (rows, cols) != (D.rank(n - 1), D.rank(n)):
                D = ChainComplex(D.ranks, {**D.diff, n: ring.nonzero(rows, cols)}, D.idem,
                                 D.positions, check=False, ring=D.ring)
        elif where == "idem C" and idempotents and (rows, cols) != (C.rank(n), C.rank(n)):
            C = ChainComplex(C.ranks, C.diff, {**C.idem, n: ring.nonzero(rows, cols)},
                             C.positions, check=False, ring=C.ring)
        elif where == "idem D" and idempotents and (rows, cols) != (D.rank(n), D.rank(n)):
            D = ChainComplex(D.ranks, D.diff, {**D.idem, n: ring.nonzero(rows, cols)},
                             D.positions, check=False, ring=D.ring)
        elif where in ("f", "h") and (rows, cols) != (D.rank(n + k + (where == "h")), C.rank(n)):
            (fmats if where == "f" else kmats)[n] = ring.nonzero(rows, cols)
    f = ChainMap(C, D, k, fmats, check=False)
    g = ChainMap(C, D, k, gmats, check=False)
    hom = ChainHomotopy(f, g, kmats)
    x = ChainMap(C, C, 0, graded(ring, cs, cs, 0, keep=0.6), check=False)
    y = ChainMap(D, D, 1, graded(ring, ds, ds, 1, keep=0.6), check=False)
    return C, D, f, g, hom, x, y


def outcome(fn):
    """The value of ``fn()`` in a comparable form, or the class it raised."""
    try:
        value = fn()
    except Exception as exc:  # the class is what is compared
        return type(exc)
    if isinstance(value, ChainMap):
        return ("map", value.degree, value.mats, id(value.source), id(value.target))
    if isinstance(value, ChainComplex):  # an absent idempotent block is the identity
        idem = None if value.idem is None else [value.p(n) for n in sorted(value.ranks)]
        return ("complex", value.ranks, value.diff, idem, value.positions)
    return value


def differential_pairs(C, D, f, g, hom, x, y):
    """(name, new, reference) for every check and operation on one case."""
    twin = ChainMap(f.source, f.target, f.degree, dict(f.mats), check=False)
    pairs = [
        ("validate C", C.validate, lambda: ref_complex_validate(C)),
        ("validate D", D.validate, lambda: ref_complex_validate(D)),
        ("validate f", f.validate, lambda: ref_map_validate(f)),
        ("is_chain_map g", g.is_chain_map, lambda: ref_is_chain_map(g)),
        ("holds", hom.holds, lambda: ref_holds(hom)),
        ("holds g g", ChainHomotopy(g, g, {}).holds, lambda: ref_holds(ChainHomotopy(g, g, {}))),
        ("f + g", lambda: f + g, lambda: ref_add(f, g)),
        ("f - f", lambda: f - f, lambda: ref_add(f, -f)),
        ("f == g", lambda: f == g, lambda: ref_eq(f, g)),
        ("f == twin", lambda: f == twin, lambda: ref_eq(f, twin)),
        ("f o x", lambda: f.compose(x), lambda: ref_compose(f, x)),
        ("y o f", lambda: y.compose(f), lambda: ref_compose(y, f)),
        ("y o g o x", lambda: y.compose(g).compose(x),
         lambda: ref_compose(ref_compose(y, g), x)),
    ]
    if f.degree == 0:
        pairs.append(("cone f", lambda: cone(f), lambda: ref_cone(f)))
    if D.ring is IntMatrix:  # duals are integral only
        pairs.append(("dual D", lambda: dual_complex(D), lambda: ref_dual(D)))
    return pairs


def assert_matches_reference(built, group_ring, fault):
    for name, new, ref in differential_pairs(*built):
        got, want = outcome(new), outcome(ref)
        if group_ring and fault == "shape" and got != want:
            # over Z[G] the explicit zeros met a mis-shaped block in whichever
            # GRMatrix operation came first: InputError from a product, False
            # from a comparison of shapes, or nothing from a sum with a zero
            # operand.  Now it is the ValueError of the shape check, as over Z.
            assert got in (ValueError, False), (name, got, want)
        elif name == "dual D" and fault == "shape" and got != want:
            # the explicit-zero dual transposed a mis-shaped block as it found it
            assert got is ValueError and not isinstance(want, type), want
        else:
            assert got == want, (name, fault)


CASES = (st.integers(0, 2 ** 32), st.booleans(), st.integers(-1, 1), st.integers(0, 1),
         st.booleans(), st.booleans(), st.sampled_from(FAULTS))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(*CASES)
def test_absent_blocks_match_explicit_zeros(seed, group_ring, lo, k, idempotents,
                                            positions, fault):
    built = case(seed, group_ring, lo, k, idempotents, positions, fault)
    assert_matches_reference(built, group_ring, fault)


@pytest.mark.parametrize("group_ring", [False, True])
def test_faults_in_every_place(group_ring):
    """A mis-shaped block planted in each dict and at each degree from just
    below the ranks to just above them, and each kind of wrong idempotent
    at each degree of the target."""
    places = [("shape", where) for where in SHAPE_PLACES]
    places += [("idempotent", kind) for kind in ("zero", "column", "random")]
    for seed in range(10):
        for (fault, where) in places:
            for offset in range(5):
                built = case(seed, group_ring, seed % 3 - 1, seed % 2, True, seed % 3 == 0,
                             fault, (where, offset))
                assert_matches_reference(built, group_ring, fault)


def test_planted_faults_are_caught():
    """Each planted fault is seen by the reference on some seed, so the
    generated cases exercise failing checks, not only passing ones."""
    seen = {fault: set() for fault in FAULTS}
    for seed in range(60):
        for fault in FAULTS:
            C, D, f, g, hom, x, y = case(seed, seed % 2 == 0, seed % 3 - 1, seed % 2,
                                         True, False, fault)
            for name, _, ref in differential_pairs(C, D, f, g, hom, x, y):
                result = outcome(ref)
                if result is False or isinstance(result, type):
                    seen[fault].add(name)
    assert not seen["none"] - {"f == g"}
    assert {"validate D", "validate f"} <= seen["dd"]
    assert {"validate f", "holds"} <= seen["chain"]
    assert "holds" in seen["homotopy"]
    assert "validate D" in seen["idempotent"]
    assert {"validate C", "validate D", "validate f", "holds", "f + g", "cone f"} <= seen["shape"]


def test_identity_idempotent_and_zero_blocks_are_not_built(monkeypatch):
    """On a sound case no check, sum, composite or tensor of maps builds a
    zero or an identity matrix, and no dual, cone, cone torsion or finite
    replacement a zero."""
    C, D, f, g, hom, x, y = case(5, False, 0, 0, True, True, "none")
    held = tensor_complex(D, C), tensor_complex(C, C)  # the endpoints, built first
    JC, JD, proj, incl, jh, jk = junk_equivalence(random.Random(5))
    dominations = [domination_instance(random.Random(seed), seed % 3) for seed in range(6)]
    built = []
    for name in ("zeros", "identity"):
        real = getattr(IntMatrix, name)
        monkeypatch.setattr(IntMatrix, name,
                            staticmethod(lambda *a, _real=real, _n=name: built.append(_n)
                                         or _real(*a)))
    C.validate(), D.validate(), f.validate(), g.validate()
    assert hom.holds() and f == f + ChainMap.zero(C, D, f.degree)
    assert (f - f).mats == {} and y.compose(f).compose(x) is not None
    assert tensor_map(f, x).source is held[1] and tensor_map(g, x).target is held[0]
    assert built == []
    assert dual_complex(C).ranks and dual_complex(D).diff and cone(f).idem
    assert cone_torsion(proj, incl, jh.as_map(), jk.as_map()).det() in (1, -1)
    assert all(finite_replacement(*dom).ok() for dom in dominations)
    assert "zeros" not in built  # a cone's idempotents are sums of p() blocks


@pytest.mark.parametrize("k", [0, 1])
def test_holds_at_is_the_per_degree_identity(k):
    for seed in range(20):
        C, D, f, g, hom, x, y = case(seed, seed % 2 == 0, 0, k, False, False, "homotopy")
        degs = set(C.ranks) | set(hom.mats) | {n - k for n in D.ranks}
        assert hom.holds() == all(hom.holds_at(n) for n in degs) == ref_holds(hom)


def test_mis_shaped_differential_is_refused_by_dual_and_tensor():
    bad = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[1], [1]])}, check=False)
    for build in (dual_complex, lambda c: tensor_complex(c, ChainComplex.point()),
                  lambda c: tensor_complex(ChainComplex.point(), c)):
        with pytest.raises(ValueError, match="differential shape mismatch"):
            build(bad)
