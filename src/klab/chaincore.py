"""Exact graded chain-complex calculus over the integers or a group ring.

Sign conventions (fixed once, tested everywhere):

* a graded map ``f`` of degree ``k`` is a chain map when
  ``d o f = (-1)^k f o d``;
* a homotopy ``H`` between degree-``k`` maps ``f -> g`` satisfies
  ``d o H + (-1)^k H o d = g - f`` (for ``k = 0``: ``dH + Hd = g - f``,
  i.e. homotopies point from their source map to their target map);
* dual complex: ``(C^-*)_n = (C_{-n})^*`` with differential
  ``(-1)^n (d_{-n+1})^T``;
* dual of a degree-``k`` map: ``(f^-*)_n = (-1)^{nk} (f_{-n-k})^T``,
  equivalently ``f^-*(a) = (-1)^{|a| |f|} a o f`` on elements;
* double-dual identification ``iota_n = (-1)^n id``;
* tensor differential ``d (x ox y) = dx ox y + (-1)^{|x|} x ox dy``;
* tensor of maps ``(f ox g)|_{A_p ox B_q} = (-1)^{|g| p} f ox g``;
* flip ``C ox D -> D ox C`` carries ``(-1)^{pq}`` on ``C_p ox D_q``;
* ``mu_{C,D}: C^-* ox D^-* -> (C ox D)^-*`` carries ``(-1)^{pq}`` on
  ``(C^-*)_p ox (D^-*)_q`` under the dual-basis identification.

Complexes may carry positions (one label per basis vector and degree)
and idempotents ``p`` with ``p^2 = p`` for objects of the idempotent
completion; both are transported through every construction here.

A complex's coefficient ring is the class or object that makes its zero
and identity matrices and assembles block matrices: ``IntMatrix`` for
``Z`` (the default), ``gring.GroupRing`` for ``Z[G]``.  Maps, homotopies,
cones and ``cone_torsion`` work over either; duals and tensors are
integral only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import NotAnEquivalence
from .intmat import IntMatrix, sign

Positions = Tuple[object, ...]


def _pair_positions(pa: Positions, pb: Positions) -> Positions:
    return tuple((a, b) for a in pa for b in pb)


class ChainComplex:
    """Finite complex of free (or idempotent-completed) modules over ``ring``.

    ``diff[n]`` is the matrix of ``d_n: C_n -> C_{n-1}``; degrees outside
    ``[lo, hi]`` are zero.  ``positions[n]``, when present, labels the
    basis vectors of ``C_n`` with points of a control space.
    """

    def __init__(self, ranks: Dict[int, int],
                 diff: Optional[Dict[int, IntMatrix]] = None,
                 idem: Optional[Dict[int, IntMatrix]] = None,
                 positions: Optional[Dict[int, Positions]] = None,
                 check: bool = True, ring=IntMatrix):
        self.ring = ring
        self.ranks = {n: r for n, r in ranks.items() if r > 0}
        self.diff = {}
        if diff:
            for n, m in diff.items():
                if not m.is_zero():
                    self.diff[n] = m
        self.idem = dict(idem) if idem else None
        self.positions = dict(positions) if positions else None
        if check:
            self.validate()

    # -- structure ------------------------------------------------------

    @property
    def lo(self) -> int:
        return min(self.ranks) if self.ranks else 0

    @property
    def hi(self) -> int:
        return max(self.ranks) if self.ranks else 0

    def degrees(self) -> List[int]:
        return sorted(self.ranks)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def d(self, n: int) -> IntMatrix:
        m = self.diff.get(n)
        if m is None:
            return self.ring.zeros(self.rank(n - 1), self.rank(n))
        return m

    def p(self, n: int) -> IntMatrix:
        if self.idem is None or n not in self.idem:
            return self.ring.identity(self.rank(n))
        return self.idem[n]

    def pos(self, n: int) -> Optional[Positions]:
        if self.positions is None:
            return None
        return self.positions.get(n)

    def is_free(self) -> bool:
        return self.idem is None or all(self.p(n) == self.ring.identity(self.rank(n))
                                        for n in self.ranks)

    def euler_characteristic(self) -> int:
        return sum(sign(n) * r for n, r in self.ranks.items())

    def validate(self) -> None:
        for n in self.ranks:
            dn = self.d(n)
            if (dn.rows, dn.cols) != (self.rank(n - 1), self.rank(n)):
                raise ValueError(f"differential shape mismatch at degree {n}")
            if not (dn @ self.d(n + 1)).is_zero():
                raise ValueError(f"d o d != 0 at degree {n + 1}")
            if self.positions is not None:
                ps = self.pos(n)
                if ps is None or len(ps) != self.rank(n):
                    raise ValueError(f"positions missing at degree {n}")
            if self.idem is not None:
                pn = self.p(n)
                if not (pn @ pn - pn).is_zero():
                    raise ValueError(f"idempotent fails p^2 = p at degree {n}")
                # d is a morphism (C_n,p_n) -> (C_{n-1},p_{n-1}) in Idem
                if not (self.p(n - 1) @ dn @ pn - dn).is_zero():
                    raise ValueError(f"differential not compatible with idempotents at {n}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChainComplex) and self.ranks == other.ranks
                and {n: self.d(n) for n in self.ranks} == {n: other.d(n) for n in other.ranks}
                and all(self.p(n) == other.p(n) for n in self.ranks))

    def __repr__(self):  # pragma: no cover
        return f"ChainComplex(ranks={self.ranks})"

    @staticmethod
    def zero() -> "ChainComplex":
        return ChainComplex({})

    @staticmethod
    def point(position: Optional[object] = None) -> "ChainComplex":
        """Z concentrated in degree 0 (the trivial complex T)."""
        positions = {0: (position,)} if position is not None else None
        return ChainComplex({0: 1}, positions=positions)


class ChainMap:
    """Graded map of degree ``k``; ``mats[n]: C_n -> D_{n+k}``."""

    def __init__(self, source: ChainComplex, target: ChainComplex, degree: int = 0,
                 mats: Optional[Dict[int, IntMatrix]] = None, check: bool = True):
        self.source = source
        self.target = target
        self.degree = degree
        self.mats = {}
        if mats:
            for n, m in mats.items():
                if not m.is_zero():
                    self.mats[n] = m
        if check:
            self.validate()

    def mat(self, n: int) -> IntMatrix:
        m = self.mats.get(n)
        if m is None:
            return self.target.ring.zeros(self.target.rank(n + self.degree),
                                          self.source.rank(n))
        return m

    def validate(self) -> None:
        k = self.degree
        degs = set(self.source.ranks) | {n - k for n in self.target.ranks}
        idem = self.source.idem is not None or self.target.idem is not None
        for n in degs:
            m = self.mat(n)
            if (m.rows, m.cols) != (self.target.rank(n + k), self.source.rank(n)):
                raise ValueError(f"chain map shape mismatch at degree {n}")
            lhs = self.target.d(n + k) @ m
            rhs = (self.mat(n - 1) @ self.source.d(n)).scale(sign(k))
            if lhs != rhs:
                raise ValueError(f"not a chain map at degree {n}")
            if idem and not (self.target.p(n + k) @ m @ self.source.p(n) - m).is_zero():
                raise ValueError(f"map not compatible with idempotents at degree {n}")

    def is_chain_map(self) -> bool:
        try:
            self.validate()
        except ValueError:
            return False
        return True

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainMap) or self.degree != other.degree:
            return False
        degs = set(self.mats) | set(other.mats)
        return all(self.mat(n) == other.mat(n) for n in degs)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        degs = set(self.mats) | set(other.mats)
        return ChainMap(self.source, self.target, self.degree,
                        {n: self.mat(n) + other.mat(n) for n in degs}, check=False)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree,
                        {n: -m for n, m in self.mats.items()}, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def scale(self, c: int) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree,
                        {n: m.scale(c) for n, m in self.mats.items()}, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (apply ``other`` first)."""
        k = other.degree
        degs = set(other.mats) | {n - k for n in self.mats}
        return ChainMap(other.source, self.target, self.degree + other.degree,
                        {n: self.mat(n + k) @ other.mat(n) for n in degs}, check=False)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        return self.compose(other)

    @staticmethod
    def identity(c: ChainComplex) -> "ChainMap":
        # identity of an idempotent-completed object is the idempotent itself
        return ChainMap(c, c, 0, {n: c.p(n) for n in c.ranks}, check=False)

    @staticmethod
    def zero(source: ChainComplex, target: ChainComplex, degree: int = 0) -> "ChainMap":
        return ChainMap(source, target, degree, {}, check=False)

    def __repr__(self):  # pragma: no cover
        return f"ChainMap(degree={self.degree}, degs={sorted(self.mats)})"


@dataclass
class ChainHomotopy:
    """Witness ``H`` with ``d H + (-1)^k H d = target_map - source_map``."""

    source_map: ChainMap
    target_map: ChainMap
    mats: Dict[int, IntMatrix] = field(default_factory=dict)

    def mat(self, n: int) -> IntMatrix:
        m = self.mats.get(n)
        if m is None:
            f = self.source_map
            return f.target.ring.zeros(f.target.rank(n + f.degree + 1), f.source.rank(n))
        return m

    def as_map(self) -> ChainMap:
        return ChainMap(self.source_map.source, self.source_map.target,
                        self.source_map.degree + 1, dict(self.mats), check=False)

    def holds(self) -> bool:
        f, g = self.source_map, self.target_map
        k = f.degree
        C, D = f.source, f.target
        degs = set(C.ranks) | set(self.mats) | {n - k for n in D.ranks}
        for n in degs:
            lhs = D.d(n + k + 1) @ self.mat(n) + (self.mat(n - 1) @ C.d(n)).scale(sign(k))
            if lhs != g.mat(n) - f.mat(n):
                return False
        return True

    def validate(self) -> None:
        if not self.holds():
            raise ValueError("homotopy identity fails")


# -- duals, tensors, flips, mu ------------------------------------------


def dual_complex(c: ChainComplex) -> ChainComplex:
    """``(C^-*)_n = (C_{-n})^*`` with differential ``(-1)^n (d_{-n+1})^T``."""
    ranks = {-n: r for n, r in c.ranks.items()}
    diff = {}
    for n in ranks:
        d = c.d(-n + 1)  # C_{-n+1} -> C_{-n}
        if not d.is_zero():
            diff[n] = d.transpose().scale(sign(n))
    idem = None
    if c.idem is not None:
        idem = {-n: c.p(n).transpose() for n in c.ranks}
    positions = None
    if c.positions is not None:
        positions = {-n: c.pos(n) for n in c.ranks}
    return ChainComplex(ranks, diff, idem, positions, check=False)


def dual_map(f: ChainMap) -> ChainMap:
    """``(f^-*)_n = (-1)^{nk} (f_{-n-k})^T`` from ``D^-*`` to ``C^-*``."""
    k = f.degree
    src = dual_complex(f.target)
    tgt = dual_complex(f.source)
    mats = {}
    for m, mat in f.mats.items():
        n = -m - k  # source degree in the dual
        mats[n] = mat.transpose().scale(sign(n * k))
    return ChainMap(src, tgt, k, mats, check=False)


def iota(c: ChainComplex) -> ChainMap:
    """Natural isomorphism ``C -> (C^-*)^-*`` given by ``(-1)^n id``."""
    dd = dual_complex(dual_complex(c))
    return ChainMap(c, dd, 0, {n: c.p(n).scale(sign(n)) for n in c.ranks}, check=False)


class TensorLayout:
    """Index bookkeeping for ``(C ox D)_n = sum over p+q=n of C_p ox D_q``."""

    def __init__(self, c: ChainComplex, d: ChainComplex):
        self.c = c
        self.d = d
        self.blocks: Dict[int, List[Tuple[int, int]]] = {}
        for p in c.degrees():
            for q in d.degrees():
                self.blocks.setdefault(p + q, []).append((p, q))
        for n in self.blocks:
            self.blocks[n].sort()
        self.offsets: Dict[Tuple[int, int], int] = {}
        self.ranks: Dict[int, int] = {}
        for n, pairs in self.blocks.items():
            off = 0
            for (p, q) in pairs:
                self.offsets[(p, q)] = off
                off += c.rank(p) * d.rank(q)
            self.ranks[n] = off

    def block_rank(self, p: int, q: int) -> int:
        return self.c.rank(p) * self.d.rank(q)


def tensor_complex(c: ChainComplex, d: ChainComplex,
                   layout: Optional[TensorLayout] = None) -> ChainComplex:
    """``C ox D`` with ``d = d_C ox 1 + (-1)^p 1 ox d_D`` on ``C_p ox D_q``.

    ``layout`` is ``TensorLayout(c, d)`` when the caller has built it.
    """
    if layout is None:
        layout = TensorLayout(c, d)
    offsets = layout.offsets
    diff: Dict[int, IntMatrix] = {}
    for n, pairs in layout.blocks.items():
        ent: Dict[Tuple[int, int], int] = {}
        for (p, q) in pairs:
            soff = offsets[(p, q)]
            rc, rd = c.rank(p), d.rank(q)
            # d_C ox 1: (e_j ox f_t) -> sum_i v e_i ox f_t, v = d_C[i, j]
            toff = offsets.get((p - 1, q))
            if toff is not None:
                for (i, j), v in c.d(p).entries.items():
                    for t in range(rd):
                        ent[(toff + i * rd + t, soff + j * rd + t)] = v
            # (-1)^p 1 ox d_D: (e_s ox f_j) -> sum_i (-1)^p v e_s ox f_i
            toff = offsets.get((p, q - 1))
            if toff is not None:
                dd = d.d(q)
                rt = dd.rows
                for (i, j), v in dd.entries.items():
                    v = sign(p) * v
                    for t in range(rc):
                        ent[(toff + t * rt + i, soff + t * rd + j)] = v
        if ent:
            diff[n] = IntMatrix._trusted(layout.ranks.get(n - 1, 0), layout.ranks[n], ent)
    idem = None
    if c.idem is not None or d.idem is not None:
        idem = {}
        for n, pairs in layout.blocks.items():
            ent = {}
            for (p, q) in pairs:
                off = offsets[(p, q)]
                for (i, j), v in c.p(p).kron(d.p(q)).entries.items():
                    ent[(off + i, off + j)] = v
            idem[n] = IntMatrix._trusted(layout.ranks[n], layout.ranks[n], ent)
    positions = None
    if c.positions is not None and d.positions is not None:
        positions = {}
        for n, pairs in layout.blocks.items():
            ps: List[object] = []
            for (p, q) in pairs:
                ps.extend(_pair_positions(c.pos(p), d.pos(q)))
            positions[n] = tuple(ps)
    return ChainComplex(layout.ranks, diff, idem, positions, check=False)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """``(f ox g)|_{A_p ox B_q} = (-1)^{|g| p} f_p ox g_q``."""
    src = TensorLayout(f.source, g.source)
    tgt = TensorLayout(f.target, g.target)
    k = f.degree + g.degree
    mats: Dict[int, IntMatrix] = {}
    for n, pairs in src.blocks.items():
        ent: Dict[Tuple[int, int], int] = {}
        for (p, q) in pairs:
            toff = tgt.offsets.get((p + f.degree, q + g.degree))
            if toff is None:
                continue
            soff = src.offsets[(p, q)]
            blk = f.mat(p).kron(g.mat(q))
            s = sign(g.degree * p)
            for (i, j), v in blk.entries.items():
                ent[(toff + i, soff + j)] = s * v
        if ent:
            mats[n] = IntMatrix._trusted(tgt.ranks.get(n + k, 0), src.ranks[n], ent)
    return ChainMap(tensor_complex(f.source, g.source, src),
                    tensor_complex(f.target, g.target, tgt), k, mats, check=False)


def flip_map(c: ChainComplex, d: ChainComplex) -> ChainMap:
    """Chain isomorphism ``C ox D -> D ox C`` with ``(-1)^{pq}`` signs."""
    src = TensorLayout(c, d)
    tgt = TensorLayout(d, c)
    mats: Dict[int, IntMatrix] = {}
    for n, pairs in src.blocks.items():
        ent: Dict[Tuple[int, int], int] = {}
        for (p, q) in pairs:
            soff = src.offsets[(p, q)]
            toff = tgt.offsets[(q, p)]
            rc, rd = c.rank(p), d.rank(q)
            sgn = sign(p * q)
            for i in range(rc):
                for j in range(rd):
                    # basis e_i ox f_j at index i*rd+j maps to f_j ox e_i
                    ent[(toff + j * rc + i, soff + i * rd + j)] = sgn
        mats[n] = IntMatrix._trusted(tgt.ranks.get(n, 0), src.ranks[n], ent)
    return ChainMap(tensor_complex(c, d, src), tensor_complex(d, c, tgt), 0, mats,
                    check=False)


def mu_map(c: ChainComplex, d: ChainComplex) -> ChainMap:
    """``mu_{C,D}: C^-* ox D^-* -> (C ox D)^-*`` with ``(-1)^{pq}`` blocks.

    Under dual bases this is a signed identity on each block
    ``(C_{-p})^* ox (D_{-q})^* = (C_{-p} ox D_{-q})^*``; it is a chain
    isomorphism for finite complexes.
    """
    cd, dd = dual_complex(c), dual_complex(d)
    src = TensorLayout(cd, dd)
    tgt = TensorLayout(c, d)  # blocks of (C ox D)_{-n} index the dual basis
    tgt_cx = dual_complex(tensor_complex(c, d, tgt))
    mats: Dict[int, IntMatrix] = {}
    for n, pairs in src.blocks.items():
        ent: Dict[Tuple[int, int], int] = {}
        for (p, q) in pairs:
            soff = src.offsets[(p, q)]
            toff = tgt.offsets.get((-p, -q))
            if toff is None:
                continue
            sgn = sign(p * q)
            for t in range(src.block_rank(p, q)):
                ent[(toff + t, soff + t)] = sgn
        mats[n] = IntMatrix._trusted(tgt_cx.rank(n), src.ranks[n], ent)
    return ChainMap(tensor_complex(cd, dd, src), tgt_cx, 0, mats, check=False)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone of a degree-0 chain map: ``E_n = C_{n-1} + D_n``."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    C, D = f.source, f.target
    ranks: Dict[int, int] = {}
    degs = set()
    for n in C.ranks:
        degs.add(n + 1)
    degs.update(D.ranks)
    for n in degs:
        ranks[n] = C.rank(n - 1) + D.rank(n)
    diff: Dict[int, IntMatrix] = {}
    for n in degs:
        # d(c, d) = (-d c, f c + d d)
        m = C.ring.from_blocks(
            [[-C.d(n - 1), None], [f.mat(n - 1), D.d(n)]],
            [C.rank(n - 2), D.rank(n - 1)], [C.rank(n - 1), D.rank(n)])
        if not m.is_zero():
            diff[n] = m
    idem = None
    if C.idem is not None or D.idem is not None:
        idem = {n: C.p(n - 1).direct_sum(D.p(n)) for n in degs}
    positions = None
    if C.positions is not None and D.positions is not None:
        positions = {n: tuple(C.pos(n - 1) or ()) + tuple(D.pos(n) or ()) for n in degs}
    return ChainComplex(ranks, diff, idem, positions, check=False, ring=C.ring)


def shift(c: ChainComplex, k: int) -> ChainComplex:
    """``C[k]_n = C_{n-k}`` with differential ``(-1)^k d``."""
    ranks = {n + k: r for n, r in c.ranks.items()}
    diff = {n + k: m.scale(sign(k)) for n, m in c.diff.items()}
    idem = {n + k: m for n, m in c.idem.items()} if c.idem is not None else None
    positions = ({n + k: c.pos(n) for n in c.ranks} if c.positions is not None else None)
    return ChainComplex(ranks, diff, idem, positions, check=False, ring=c.ring)


# -- K-theory classes -----------------------------------------------------


@dataclass
class K0Class:
    """Formal integer combination of idempotent classes."""

    terms: List[Tuple[int, IntMatrix]] = field(default_factory=list)

    def add(self, coeff: int, idempotent: IntMatrix) -> None:
        if coeff:
            self.terms.append((coeff, idempotent))

    def reduced_rank(self) -> int:
        """Image in K_0(Z) = Z by rank of each idempotent."""
        return sum(c * p.rank() for c, p in self.terms)


@dataclass
class K1Class:
    """Invertible-matrix representative plus reduced invariants.

    Over ``Z`` the determinant sign is the full invariant; over a
    commutative group ring only the determinant is computed (by the
    caller); no normal form is attempted otherwise.
    """

    matrix: IntMatrix

    def det_sign(self) -> int:
        d = self.matrix.det()
        if d not in (1, -1):
            raise NotAnEquivalence(f"torsion representative has determinant {d}")
        return d


def finiteness_obstruction(c: ChainComplex) -> K0Class:
    """Alternating sum of the degreewise classes of a finite projective complex."""
    out = K0Class()
    for n in sorted(c.ranks):
        out.add(sign(n), c.p(n))
    return out


def cone_torsion(f: ChainMap, g: ChainMap, hm: ChainMap, km: ChainMap):
    """``(d + Gamma)_odd`` on the (contractible) mapping cone of ``f: C -> D``.

    ``g`` is a homotopy inverse and ``hm``, ``km`` (``h``, ``k`` below)
    are the degree-1 maps of homotopies ``g f ~ id_C`` and ``f g ~ id_D``.
    With ``theta = f h - k f`` the graded map
    ``(c, d) -> (-h c + g d + g theta c, k d + k theta c)`` satisfies
    ``d Gamma + Gamma d = id`` on the cone (the naive candidate misses the
    identity by the square-zero error ``(c,d) -> (0, theta c)``, which the
    ``g theta`` / ``k theta`` terms cancel).  Blocks are assembled over
    the coefficient ring of ``C``.
    """
    C, D = f.source, f.target
    ring = C.ring
    e = cone(f)
    theta = f.compose(hm) - km.compose(f)
    top_left = g.compose(theta) - hm
    bottom_left = km.compose(theta)
    blocks = {}
    for n in e.ranks:
        if n - 1 in e.ranks:
            blocks[(n - 1, n)] = e.d(n)
        if n + 1 in e.ranks:
            blocks[(n + 1, n)] = ring.from_blocks(
                [[top_left.mat(n - 1), g.mat(n)], [bottom_left.mat(n - 1), km.mat(n)]],
                [C.rank(n), D.rank(n + 1)], [C.rank(n - 1), D.rank(n)])
    odd = [n for n in sorted(e.ranks) if n % 2]
    even = [n for n in sorted(e.ranks) if not n % 2]
    rep = ring.from_blocks([[blocks.get((t, s)) for s in odd] for t in even],
                           [e.rank(t) for t in even], [e.rank(s) for s in odd])
    if rep.rows != rep.cols:
        raise NotAnEquivalence("cone has unequal odd/even ranks")
    return rep


def self_torsion(f: ChainMap, g: ChainMap, h: ChainHomotopy, k: ChainHomotopy) -> K1Class:
    """K_1 representative of a self chain homotopy equivalence.

    ``f: C -> D`` with inverse witness ``g, h: gf ~ id_C, k: fg ~ id_D``;
    the representative is ``cone_torsion`` of the witnesses.  For
    ``C = D`` and ``f`` a degree-0 automorphism ``v`` this reduces to the
    class of the matrix ``v``.
    """
    if not h.holds() or not k.holds():
        raise NotAnEquivalence("homotopy witnesses do not certify an equivalence")
    if h.target_map != ChainMap.identity(f.source) or h.source_map != g.compose(f):
        raise NotAnEquivalence("h must be a homotopy from g o f to id")
    if k.target_map != ChainMap.identity(f.target) or k.source_map != f.compose(g):
        raise NotAnEquivalence("k must be a homotopy from f o g to id")
    return K1Class(cone_torsion(f, g, h.as_map(), k.as_map()))
