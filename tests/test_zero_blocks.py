"""The total-basis algebra of ``klab.chaincore`` against the per-degree one.

``klab.chaincore`` holds each differential, idempotent, chain map and
homotopy as one matrix on the total basis ``+_n C_n``.  The reference
below is the per-degree algebra it replaced, kept here: complexes, maps
and homotopies held as dicts of blocks, where an absent block is zero
(the identity for an idempotent), with the explicit-zero checks and
constructions.  Over generated complexes, maps and homotopies over ``Z``
and ``Z[G]``, with idempotents, in degrees -1, 0 and 1, the two must give
equal results, the same bool or the same exception class, with and
without planted faults.

A mis-shaped block is refused when the total basis is built, not when
the block is first used, so each operation is compared build-then-use:
the total-basis objects an operation reads are built inside it, and a
``ValueError`` there stands for the reference's outcome, whatever it was.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from klab.chaincore import (ChainComplex, ChainHomotopy, ChainMap, cone, cone_torsion,
                            dual_complex, dual_map, flip_map, mu_map, tensor_complex,
                            tensor_map)
from klab.errors import InputError, NotAnEquivalence
from klab.fixtures import domination_instance, junk_equivalence, rand_complex, rand_matrix
from klab.gring import GRMatrix, GroupRing
from klab.groups import FiniteTableGroup
from klab.intmat import IntMatrix, sign
from klab.transfer import finite_replacement
from test_chaincore_memo import ref_flip, ref_mu, ref_tensor, ref_tensor_map

# -- reference: the per-degree objects, checks and algebra ----------------------


class RefComplex:
    """A complex held per degree: absent blocks of ``diff`` are zero, of ``idem`` the identity."""

    def __init__(self, ranks, diff=None, idem=None, positions=None, ring=IntMatrix):
        self.ring = ring
        self.ranks = {n: r for n, r in ranks.items() if r > 0}
        self.diff = {n: m for n, m in (diff or {}).items() if not m.is_zero()}
        self.idem = dict(idem) if idem else None
        self.positions = dict(positions) if positions else None

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, n):
        return self.ranks.get(n, 0)

    def d(self, n):
        m = self.diff.get(n)
        return self.ring.zeros(self.rank(n - 1), self.rank(n)) if m is None else m

    def p(self, n):
        m = None if self.idem is None else self.idem.get(n)
        return self.ring.identity(self.rank(n)) if m is None else m

    def pos(self, n):
        return None if self.positions is None else self.positions.get(n)


class RefMap:
    """A graded map held per degree; absent blocks are zero."""

    def __init__(self, source, target, degree, mats):
        self.source, self.target, self.degree = source, target, degree
        self.mats = {n: m for n, m in mats.items() if not m.is_zero()}

    def mat(self, n):
        m = self.mats.get(n)
        if m is None:
            return self.target.ring.zeros(self.target.rank(n + self.degree), self.source.rank(n))
        return m


class RefHomotopy:
    def __init__(self, source_map, target_map, mats):
        self.source_map, self.target_map, self.mats = source_map, target_map, dict(mats)

    def mat(self, n):
        f = self.source_map
        m = self.mats.get(n)
        return f.target.ring.zeros(f.target.rank(n + f.degree + 1), f.source.rank(n)) \
            if m is None else m


def ref_from_blocks(ring, grid, row_sizes, col_sizes):
    """``IntMatrix.from_blocks``, letter by letter over ``Z[G]``."""
    if ring is IntMatrix:
        return IntMatrix.from_blocks(grid, row_sizes, col_sizes)
    letters = {a for row in grid for blk in row if blk is not None for a in blk.letters}
    return GRMatrix(ring.backend, sum(row_sizes), sum(col_sizes), {
        a: IntMatrix.from_blocks([[None if blk is None else blk.letters.get(a) for blk in row]
                                  for row in grid], row_sizes, col_sizes)
        for a in letters})


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


def ref_holds_at(h, n):
    f, g = h.source_map, h.target_map
    k, C, D = f.degree, f.source, f.target
    lhs = D.d(n + k + 1) @ h.mat(n) + (h.mat(n - 1) @ C.d(n)).scale(sign(k))
    return lhs == g.mat(n) - f.mat(n)


def ref_degrees(h):
    f = h.source_map
    return set(f.source.ranks) | set(h.mats) | {n - f.degree for n in f.target.ranks}


def ref_holds(h):
    return all(ref_holds_at(h, n) for n in ref_degrees(h))


def ref_eq(f, g):
    if f.degree != g.degree:
        return False
    return all(f.mat(n) == g.mat(n) for n in set(f.mats) | set(g.mats))


def ref_add(f, g):
    if f.degree != g.degree:
        raise ValueError("degree mismatch in sum")
    return RefMap(f.source, f.target, f.degree,
                  {n: f.mat(n) + g.mat(n) for n in set(f.mats) | set(g.mats)})


def ref_neg(f):
    return RefMap(f.source, f.target, f.degree, {n: -m for n, m in f.mats.items()})


def ref_compose(f, g):
    k = g.degree
    degs = set(g.mats) | {n - k for n in f.mats}
    return RefMap(g.source, f.target, f.degree + g.degree,
                  {n: f.mat(n + k) @ g.mat(n) for n in degs})


def ref_dual(c):
    ranks = {-n: r for n, r in c.ranks.items()}
    diff = {n: c.d(-n + 1).transpose().scale(sign(n)) for n in ranks}
    idem = None if c.idem is None else {-n: c.p(n).transpose() for n in c.ranks}
    positions = None if c.positions is None else {-n: c.pos(n) for n in c.ranks}
    return RefComplex(ranks, diff, idem, positions, ring=c.ring)


def ref_dual_map(f):
    k = f.degree
    mats = {}
    for m, mat in f.mats.items():
        if (mat.rows, mat.cols) != (f.target.rank(m + k), f.source.rank(m)):
            raise ValueError(f"chain map shape mismatch at degree {m}")
        mats[-m - k] = mat.transpose().scale(sign((m + k) * k))
    return RefMap(ref_dual(f.target), ref_dual(f.source), k, mats)


def ref_cone(f):
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    C, D = f.source, f.target
    degs = {n + 1 for n in C.ranks} | set(D.ranks)
    diff = {n: ref_from_blocks(C.ring, [[-C.d(n - 1), None], [f.mat(n - 1), D.d(n)]],
                               [C.rank(n - 2), D.rank(n - 1)], [C.rank(n - 1), D.rank(n)])
            for n in degs}
    idem = None
    if C.idem is not None or D.idem is not None:
        idem = {n: ref_from_blocks(C.ring, [[C.p(n - 1), None], [None, D.p(n)]],
                                   [C.rank(n - 1), D.rank(n)], [C.rank(n - 1), D.rank(n)])
                for n in degs}
    positions = None
    if C.positions is not None and D.positions is not None:
        positions = {n: tuple(C.pos(n - 1) or ()) + tuple(D.pos(n) or ()) for n in degs}
    return RefComplex({n: C.rank(n - 1) + D.rank(n) for n in degs}, diff, idem, positions,
                      ring=C.ring)


def ref_cone_torsion(f, g, hm, km):
    """``(d + Gamma)_odd`` assembled block by block on the cone of ``f``."""
    C, D = f.source, f.target
    e = ref_cone(f)
    theta = ref_add(ref_compose(f, hm), ref_neg(ref_compose(km, f)))
    top_left = ref_add(ref_compose(g, theta), ref_neg(hm))
    bottom_left = ref_compose(km, theta)
    blocks = {}
    for n in e.ranks:
        if n - 1 in e.ranks:
            blocks[(n - 1, n)] = e.d(n)
        if n + 1 in e.ranks:
            blocks[(n + 1, n)] = ref_from_blocks(
                C.ring, [[top_left.mat(n - 1), g.mat(n)], [bottom_left.mat(n - 1), km.mat(n)]],
                [C.rank(n), D.rank(n + 1)], [C.rank(n - 1), D.rank(n)])
    odd = [n for n in sorted(e.ranks) if n % 2]
    even = [n for n in sorted(e.ranks) if not n % 2]
    rep = ref_from_blocks(C.ring, [[blocks.get((t, s)) for s in odd] for t in even],
                          [e.rank(t) for t in even], [e.rank(s) for s in odd])
    if rep.rows != rep.cols:
        raise NotAnEquivalence("cone has unequal odd/even ranks")
    return rep


def ref_tensor_of(f, g):
    if f.source.ring is not IntMatrix:
        raise InputError("tensors need complexes over Z, not over Z[G]")
    return ref_tensor_map(f, g)


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

    def build(self, new):
        if new:
            return ChainComplex(self.ranks, self.diff, self.idem, self.pos, check=False,
                                ring=self.ring.ring)
        return RefComplex(self.ranks, self.diff, self.idem, self.pos, ring=self.ring.ring)


def graded(ring, src, tgt, k, keep=0.8):
    """Random blocks of degree ``k``; some degrees are left absent."""
    rng = ring.rng
    return {n: ring.block(tgt.base.get(n + k, 0), src.base[n],
                          tgt.extra.get(n + k, 0), src.extra[n])
            for n in src.base if rng.random() < keep}


def boundary(C, D, k, hmats):
    """``d H + (-1)^k H d`` for the degree-``k + 1`` blocks ``hmats``: a
    chain map of degree ``k``, homotopic to zero."""
    h = RefHomotopy(RefMap(C, D, k, {}), RefMap(C, D, k, {}), hmats)
    return {n: D.d(n + k + 1) @ h.mat(n) + (h.mat(n - 1) @ C.d(n)).scale(sign(k))
            for n in set(C.ranks) | {n - k for n in D.ranks}}


FAULTS = ("none", "dd", "chain", "homotopy", "idempotent", "shape")
SHAPE_PLACES = ("diff", "f", "h", "idem C", "idem D")


class Case:
    """The blocks of one generated case, built on demand by the total-basis
    constructors (``new``) or as per-degree reference objects; each object
    is built once, and a refused one raises again on every use."""

    def __init__(self, cs, ds, k, fmats, gmats, kmats, xmats, ymats, wmats, zmats):
        self.cs, self.ds, self.k = cs, ds, k
        self.blocks = dict(f=fmats, g=gmats, h=kmats, x=xmats, y=ymats, w=wmats, z=zmats)
        self.memo = {}

    def get(self, name, new):
        key = (name, new)
        if key not in self.memo:
            try:
                self.memo[key] = (True, self._build(name, new))
            except ValueError as exc:
                self.memo[key] = (False, exc)
        ok, value = self.memo[key]
        if not ok:
            raise value
        return value

    def _build(self, name, new):
        if name in ("C", "D"):
            return (self.cs if name == "C" else self.ds).build(new)
        C, D, k, b = self.get("C", new), self.get("D", new), self.k, self.blocks
        Map = ChainMap if new else RefMap
        if name == "hom":
            return (ChainHomotopy if new else RefHomotopy)(
                self.get("f", new), self.get("g", new), b["h"])
        src, tgt, degree = {"f": (C, D, k), "g": (C, D, k), "x": (C, C, 0), "y": (D, D, 1),
                            "w": (D, C, 0), "z": (C, C, 1)}[name]
        if new:
            return ChainMap(src, tgt, degree, b[name], check=False)
        return Map(src, tgt, degree, b[name])

    def objects(self, new=True):
        return tuple(self.get(name, new) for name in ("C", "D", "f", "g", "hom", "x", "y"))


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
    C, D = cs.build(False), ds.build(False)
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
                ds.diff = {**ds.diff, n: ring.nonzero(rows, cols)}
        elif where == "idem C" and idempotents and (rows, cols) != (C.rank(n), C.rank(n)):
            cs.idem = {**cs.idem, n: ring.nonzero(rows, cols)}
        elif where == "idem D" and idempotents and (rows, cols) != (D.rank(n), D.rank(n)):
            ds.idem = {**ds.idem, n: ring.nonzero(rows, cols)}
        elif where in ("f", "h") and (rows, cols) != (D.rank(n + k + (where == "h")), C.rank(n)):
            (fmats if where == "f" else kmats)[n] = ring.nonzero(rows, cols)
    xmats = graded(ring, cs, cs, 0, keep=0.6)
    ymats = graded(ring, ds, ds, 1, keep=0.6)
    wmats = graded(ring, ds, cs, 0, keep=0.6)
    zmats = graded(ring, cs, cs, 1, keep=0.6)
    return Case(cs, ds, k, fmats, gmats, kmats, xmats, ymats, wmats, zmats)


def outcome(fn):
    """The value of ``fn()`` in a comparable form, or the class it raised."""
    try:
        value = fn()
    except Exception as exc:  # the class is what is compared
        return type(exc)
    if isinstance(value, (ChainMap, RefMap)):
        return ("map", value.degree, {n: m for n, m in value.mats.items() if not m.is_zero()},
                value.source.ranks, value.target.ranks)
    if isinstance(value, (ChainComplex, RefComplex)):  # an absent idempotent block is the identity
        idem = None if value.idem is None else [value.p(n) for n in sorted(value.ranks)]
        positions = None if value.positions is None else {
            n: tuple(ps) for n, ps in value.positions.items() if n in value.ranks}
        return ("complex", value.ranks, {n: m for n, m in value.diff.items() if not m.is_zero()},
                idem, positions)
    return value


def differential_pairs(cs):
    """(name, objects read, operation on total-basis objects, operation on
    reference objects) for every check and operation the per-degree
    algebra had."""
    def twin(f):
        if isinstance(f, ChainMap):
            return ChainMap(f.source, f.target, f.degree, dict(f.mats), check=False)
        return RefMap(f.source, f.target, f.degree, f.mats)

    pairs = [
        ("validate C", "C", lambda C: C.validate(), ref_complex_validate),
        ("validate D", "D", lambda D: D.validate(), ref_complex_validate),
        ("validate f", "f", lambda f: f.validate(), ref_map_validate),
        ("is_chain_map g", "g", lambda g: g.is_chain_map(), ref_is_chain_map),
        ("holds", "hom", lambda h: h.holds(), ref_holds),
        ("holds g g", "g", lambda g: ChainHomotopy(g, g, {}).holds(),
         lambda g: ref_holds(RefHomotopy(g, g, {}))),
        ("f + g", "fg", lambda f, g: f + g, ref_add),
        ("f - f", "f", lambda f: f - f, lambda f: ref_add(f, ref_neg(f))),
        ("f == g", "fg", lambda f, g: f == g, ref_eq),
        ("f == twin", "f", lambda f: f == twin(f), lambda f: ref_eq(f, twin(f))),
        ("f o x", "fx", lambda f, x: f.compose(x), ref_compose),
        ("y o f", "yf", lambda y, f: y.compose(f), ref_compose),
        ("y o g o x", "ygx", lambda y, g, x: y.compose(g).compose(x),
         lambda y, g, x: ref_compose(ref_compose(y, g), x)),
    ]
    if cs.k == 0:
        pairs.append(("cone f", "f", cone, ref_cone))
    if cs.cs.ring.ring is IntMatrix:  # the per-degree duals were integral only
        pairs.append(("dual D", "D", dual_complex, ref_dual))
    return pairs


def total_basis_pairs(cs):
    """The operations the per-degree reference gains here: duals over either
    ring, ``holds_at`` in every degree, tensors, flips, ``mu`` and
    ``cone_torsion``."""
    group_ring = cs.cs.ring.ring is not IntMatrix

    def over_z(ref):
        def run(*args):
            if group_ring:
                raise InputError("tensors need complexes over Z, not over Z[G]")
            return ref(*args)
        return run

    def degrees():
        f_degree = cs.k
        return sorted(set(cs.cs.ranks) | set(cs.blocks["h"]) | {n - f_degree for n in cs.ds.ranks})

    pairs = [
        ("dual f", "f", dual_map, ref_dual_map),
        ("dual y", "y", dual_map, ref_dual_map),
        ("dual D over either ring", "D", dual_complex, ref_dual),
        ("holds_at", "hom", lambda h: [h.holds_at(n) for n in degrees()],
         lambda h: [ref_holds_at(h, n) for n in degrees()]),
        ("C ox D", "CD", tensor_complex, over_z(ref_tensor)),
        ("D ox C", "DC", tensor_complex, over_z(ref_tensor)),
        ("f ox x", "fx", tensor_map, over_z(ref_tensor_of)),
        ("y ox f", "yf", tensor_map, over_z(ref_tensor_of)),
        ("flip C D", "CD", flip_map, over_z(ref_flip)),
        ("mu C D", "CD", mu_map, over_z(ref_mu)),
    ]
    if cs.k == 0:
        pairs.append(("cone torsion", "fwzy", cone_torsion, ref_cone_torsion))
    return pairs


def compare(cs, pairs, group_ring, fault):
    for name, reads, new, ref in pairs:
        names = ["hom"] if reads == "hom" else list(reads)
        try:
            args = [cs.get(n, True) for n in names]
        except ValueError:
            # the total basis refuses a mis-shaped block when it is built
            assert fault == "shape", (name, fault)
            continue
        got = outcome(lambda: new(*args))
        want = outcome(lambda: ref(*[cs.get(n, False) for n in names]))
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


def assert_matches_reference(cs, group_ring, fault):
    compare(cs, differential_pairs(cs) + total_basis_pairs(cs), group_ring, fault)


CASES = (st.integers(0, 2 ** 32), st.booleans(), st.integers(-1, 1), st.integers(-1, 1),
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
            cs = case(seed, seed % 2 == 0, seed % 3 - 1, seed % 2, True, False, fault)
            for name, reads, _, ref in differential_pairs(cs):
                names = ["hom"] if reads == "hom" else list(reads)
                result = outcome(lambda: ref(*[cs.get(n, False) for n in names]))
                if result is False or isinstance(result, type):
                    seen[fault].add(name)
    assert not seen["none"] - {"f == g"}
    assert {"validate D", "validate f"} <= seen["dd"]
    assert {"validate f", "holds"} <= seen["chain"]
    assert "holds" in seen["homotopy"]
    assert "validate D" in seen["idempotent"]
    assert {"validate C", "validate D", "validate f", "holds", "f + g", "cone f"} <= seen["shape"]


def test_mis_shaped_blocks_are_refused_when_built():
    """Every planted mis-shaped block that the reference trips over is
    refused by the total basis as the objects are built."""
    refused = 0
    for seed in range(60):
        cs = case(seed, seed % 2 == 0, seed % 3 - 1, seed % 2, True, False, "shape")
        try:
            cs.objects()
        except ValueError:
            refused += 1
            continue
        assert all(outcome(lambda: ref(*[cs.get(n, False) for n in (
            ["hom"] if reads == "hom" else list(reads))])) is not ValueError
            for _, reads, _, ref in differential_pairs(cs))
    assert refused


def test_identity_idempotent_and_zero_blocks_are_not_built(monkeypatch):
    """On a sound case no check, sum, composite or tensor of maps builds a
    zero or an identity matrix, and no dual, cone, cone torsion or finite
    replacement a zero."""
    C, D, f, g, hom, x, y = case(5, False, 0, 0, True, True, "none").objects()
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
        cs = case(seed, seed % 2 == 0, 0, k, False, False, "homotopy")
        hom = cs.get("hom", True)
        ref = cs.get("hom", False)
        degs = ref_degrees(ref)
        assert hom.holds() == all(hom.holds_at(n) for n in degs) == ref_holds(ref)


def test_mis_shaped_differential_is_refused_by_dual_and_tensor():
    def bad():
        return ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[1], [1]])}, check=False)
    for build in (dual_complex, lambda c: tensor_complex(c, ChainComplex.point()),
                  lambda c: tensor_complex(ChainComplex.point(), c)):
        with pytest.raises(ValueError, match="differential shape mismatch"):
            build(bad())
