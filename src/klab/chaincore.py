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
  ``(C^-*)_p ox (D^-*)_q`` under the dual-basis identification;
* together these give ``psi_C = flip o (mu o (iota ox id))^-1: D^-* -> D``
  on ``D = C^-* ox C`` (``ltheory.mult_hyperbolic_complex``): block
  ``(p, q)`` of ``(D^-*)_n``, basis ``(i, t)``, goes to block ``(-q, -p)``
  of ``D_n``, basis ``(t, i)``, with sign ``(-1)^p``.

Complexes may carry positions (one label per basis vector and degree)
and idempotents ``p`` with ``p^2 = p`` for objects of the idempotent
completion; both are transported through every construction here.  The
identity of ``(C, p)`` is ``p``, so the tensor differential, built by the
rule for tensors of maps, is ``d_C ox p_D + (-1)^p p_C ox d_D``.

A block absent from ``diff`` or ``mats`` is zero, one absent from ``idem``
the identity: the algebra and the checks never materialise it, and check
each present block they read against its ranks.  ``mat()``, ``d()`` and
``p()`` return explicit zero and identity matrices for outside callers.

A complex is a value: its ranks, matrices, idempotents and positions
are set by its constructor and never written afterwards.  That is what
makes sharing safe: ``dual_complex(c)`` and ``tensor_complex(c, d)``
are memoised on ``c`` and built once.  A derived complex lives as long
as its first factor and holds no factor, so no reference cycle forms.

A complex's coefficient ring is the class or object that makes its zero
and identity matrices and assembles block matrices: ``IntMatrix`` for
``Z`` (the default), ``gring.GroupRing`` for ``Z[G]``, whose transpose
is the involution transpose.  Maps, homotopies, cones, ``cone_torsion``
and duals work over either ring; a tensor over ``Z[G]`` is an input error.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from .errors import InputError, NotAnEquivalence
from .intmat import IntMatrix, sign

Positions = Tuple[object, ...]


def _block(blocks: Dict[int, IntMatrix], n: int, rows: int, cols: int, what: str):
    """The block at degree ``n``, or None when it is absent (zero, or an
    implicit identity); a present block must be ``rows x cols``."""
    m = blocks.get(n)
    if m is not None and (m.rows != rows or m.cols != cols):
        raise ValueError(f"{what} shape mismatch at degree {n}")
    return m


def _mul(a, b, k: int = 0):
    """``(-1)^k a @ b``, or None when a factor is absent."""
    return None if a is None or b is None else -(a @ b) if k % 2 else a @ b


def _plus(a, b):
    """``a + b`` with None as the zero term."""
    return b if a is None else a if b is None else a + b


def _same(a, b) -> bool:
    """``a == b`` for blocks of one shape, None reading as zero."""
    if a is None:
        return b is None or b.is_zero()
    return a.is_zero() if b is None else a == b


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
        self._dual = None  # dual_complex(self), once built
        self._one = None  # the blocks of ChainMap.identity(self), once built
        self._tensors = {}  # id(d) -> (weak d, TensorLayout, self ox d)
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

    def relabel(self, f) -> "ChainComplex":
        """The same complex with every position ``p`` moved to ``f(p)``."""
        if self.positions is None:
            raise InputError("relabeling needs positions")
        return ChainComplex(self.ranks, self.diff, self.idem,
                            {n: tuple(f(p) for p in ps) for n, ps in self.positions.items()},
                            check=False, ring=self.ring)

    def euler_characteristic(self) -> int:
        return sum(sign(n) * r for n, r in self.ranks.items())

    def validate(self) -> None:
        diff, idem, rank = self.diff, self.idem, self.rank
        for n in self.ranks:
            dn = _block(diff, n, rank(n - 1), rank(n), "differential")
            up = diff.get(n + 1)  # d_n, present or zero, fixes the rows of d_{n+1}
            if up is not None and up.rows != rank(n):
                raise ValueError(f"differential shape mismatch at degree {n + 1}")
            if dn is not None and up is not None and not (dn @ up).is_zero():
                raise ValueError(f"d o d != 0 at degree {n + 1}")
            if self.positions is not None:
                ps = self.pos(n)
                if ps is None or len(ps) != rank(n):
                    raise ValueError(f"positions missing at degree {n}")
            if idem is not None:
                pn = _block(idem, n, rank(n), rank(n), "idempotent")
                below = _block(idem, n - 1, rank(n - 1), rank(n - 1), "idempotent")
                if pn is not None and pn @ pn != pn:
                    raise ValueError(f"idempotent fails p^2 = p at degree {n}")
                # d is a morphism (C_n,p_n) -> (C_{n-1},p_{n-1}) in Idem
                x = dn if dn is None or below is None else below @ dn
                if dn is not None and (x if pn is None else x @ pn) != dn:
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
        k, S, T, mats = self.degree, self.source, self.target, self.mats
        s_idem, t_idem = S.idem or {}, T.idem or {}
        for n in set(S.ranks) | {n - k for n in T.ranks}:
            m = _block(mats, n, T.rank(n + k), S.rank(n), "chain map")
            below = _block(mats, n - 1, T.rank(n + k - 1), S.rank(n - 1), "chain map")
            dt = _block(T.diff, n + k, T.rank(n + k - 1), T.rank(n + k), "differential")
            ds = _block(S.diff, n, S.rank(n - 1), S.rank(n), "differential")
            if not _same(_mul(dt, m), _mul(below, ds, k)):
                raise ValueError(f"not a chain map at degree {n}")
            if s_idem or t_idem:
                pt = _block(t_idem, n + k, T.rank(n + k), T.rank(n + k), "idempotent")
                ps = _block(s_idem, n, S.rank(n), S.rank(n), "idempotent")
                x = m if m is None or pt is None else pt @ m
                if m is not None and (x if ps is None else x @ ps) != m:
                    raise ValueError(f"map not compatible with idempotents at degree {n}")

    def is_chain_map(self) -> bool:
        try:
            self.validate()
        except ValueError:
            return False
        return True

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def retarget(self, source: ChainComplex, target: ChainComplex) -> "ChainMap":
        """The same matrices between other endpoints of the same ranks."""
        return ChainMap(source, target, self.degree, self.mats, check=False)

    def support_pairs(self):
        """``(target position, source position)`` for every nonzero entry.

        Over ``Z[G]`` the entry ``(i, j)`` of the letter-``a`` block maps
        the source fiber at coset ``a`` to the target fiber at ``e``, so
        it yields ``((e, x), (a, y))`` for the fiber positions ``x, y``.
        """
        integral = self.source.ring is IntMatrix
        e = None if integral else self.source.ring.backend.identity()
        for n, mat in self.mats.items():
            src = self.source.pos(n)
            tgt = self.target.pos(n + self.degree)
            if src is None or tgt is None:
                raise InputError("support pairs need positioned complexes")
            if integral:
                for (i, j) in mat.entries:
                    yield tgt[i], src[j]
                continue
            for a, blk in mat.letters.items():
                for (i, j) in blk.entries:
                    yield (e, tgt[i]), (a, src[j])

    def integer_inverse(self) -> Optional["ChainMap"]:
        """Degreewise inverse over Z, or None when some degree is not unimodular."""
        if self.source.ring is not IntMatrix:
            raise InputError("integer_inverse needs a map over Z, not over Z[G]")
        k = self.degree
        mats = {}
        for n in set(self.source.ranks) | {n - k for n in self.target.ranks}:
            inv = self.mat(n).integer_inverse()
            if inv is None:
                return None
            mats[n + k] = inv
        return ChainMap(self.target, self.source, -k, mats, check=False)

    def __eq__(self, other: object) -> bool:
        # present blocks are nonzero, so a block present on one side only differs
        return (isinstance(other, ChainMap) and self.degree == other.degree
                and self.mats == other.mats)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        mats = {}
        for n in set(self.mats) | set(other.mats):
            a, b = self.mats.get(n), other.mats.get(n)
            if a is None or b is None:  # the present term must fit the absent zero block
                z, present = (self, other) if a is None else (other, self)
                _block(present.mats, n, z.target.rank(n + z.degree), z.source.rank(n), "sum")
            mats[n] = _plus(a, b)
        return ChainMap(self.source, self.target, self.degree, mats, check=False)

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
        mats = {}
        for n in set(other.mats) | {n - k for n in self.mats}:
            a, b = self.mats.get(n + k), other.mats.get(n)
            if a is not None and b is not None:
                mats[n] = a @ b
            elif ((self.source.rank(n + k) if a is None else a.cols)
                  != (other.target.rank(n + k) if b is None else b.rows)):
                raise ValueError(f"shape mismatch in composite at degree {n}")
        return ChainMap(other.source, self.target, self.degree + other.degree, mats, check=False)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        return self.compose(other)

    @classmethod
    def identity(cls, c: ChainComplex) -> "ChainMap":
        return cls(c, c, 0, _one(c), check=False)

    @staticmethod
    def zero(source: ChainComplex, target: ChainComplex, degree: int = 0) -> "ChainMap":
        return ChainMap(source, target, degree, {}, check=False)

    def __repr__(self):  # pragma: no cover
        return f"ChainMap(degree={self.degree}, degs={sorted(self.mats)})"


class ChainHomotopy:
    """Witness ``H`` with ``d H + (-1)^k H d = target_map - source_map``."""

    def __init__(self, source_map: ChainMap, target_map: ChainMap,
                 mats: Optional[Dict[int, IntMatrix]] = None):
        self.source_map = source_map
        self.target_map = target_map
        self.mats = {} if mats is None else mats

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
        f = self.source_map
        return all(map(self.holds_at, set(f.source.ranks) | set(self.mats)
                       | {n - f.degree for n in f.target.ranks}))

    def holds_at(self, n: int) -> bool:
        """The identity in degree ``n``: ``d H_n + (-1)^k H_{n-1} d + f_n = g_n``."""
        f, g = self.source_map, self.target_map
        k, C, D, mats = f.degree, f.source, f.target, self.mats
        h = _block(mats, n, D.rank(n + k + 1), C.rank(n), "homotopy")
        below = _block(mats, n - 1, D.rank(n + k), C.rank(n - 1), "homotopy")
        dd = _block(D.diff, n + k + 1, D.rank(n + k), D.rank(n + k + 1), "differential")
        dc = _block(C.diff, n, C.rank(n - 1), C.rank(n), "differential")
        fn = _block(f.mats, n, D.rank(n + k), C.rank(n), "chain map")
        gn = _block(g.mats, n, D.rank(n + k), C.rank(n), "chain map")
        return _same(_plus(_plus(_mul(dd, h), _mul(below, dc, k)), fn), gn)


# -- duals, tensors, flips, mu ------------------------------------------


def _one(c: ChainComplex) -> Dict[int, IntMatrix]:
    """``{n: p_n}``: the identity of an idempotent-completed object is its
    idempotent.  Built once and held by ``c``; zero blocks are kept."""
    if c._one is None:
        c._one = {n: c.p(n) for n in c.ranks}
    return c._one


def _dual_blocks(mats, k: int, source: ChainComplex, target: ChainComplex,
                 what: str = "chain map") -> Dict[int, IntMatrix]:
    """``(f^-*)_n = (-1)^{nk} (f_{-n-k})^T`` for the blocks ``mats`` of a
    degree-``k`` map ``source -> target``; each block must fit its ranks."""
    out = {}
    for m, mat in mats.items():
        _block(mats, m, target.rank(m + k), source.rank(m), what)
        t = mat.transpose()
        out[-m - k] = t.scale(-1) if (m + k) * k % 2 else t
    return out


def dual_complex(c: ChainComplex) -> ChainComplex:
    """``(C^-*)_n = (C_{-n})^*``: the duals of ``d`` and of ``1 = p`` as maps.

    Shared: built once and held by ``c``.
    """
    if c._dual is None:
        idem = None if c.idem is None else _dual_blocks(_one(c), 0, c, c, "idempotent")
        positions = None if c.positions is None else {-n: c.pos(n) for n in c.ranks}
        c._dual = ChainComplex({-n: r for n, r in c.ranks.items()},
                               _dual_blocks(c.diff, -1, c, c, "differential"), idem,
                               positions, check=False, ring=c.ring)
    return c._dual


def dual_map(f: ChainMap) -> ChainMap:
    """``(f^-*)_n = (-1)^{nk} (f_{-n-k})^T`` from ``D^-*`` to ``C^-*``."""
    return ChainMap(dual_complex(f.target), dual_complex(f.source), f.degree,
                    _dual_blocks(f.mats, f.degree, f.source, f.target), check=False)


def iota(c: ChainComplex) -> ChainMap:
    """Natural isomorphism ``C -> (C^-*)^-*`` given by ``(-1)^n id``."""
    dd = dual_complex(dual_complex(c))
    return ChainMap(c, dd, 0, {n: p.scale(sign(n)) for n, p in _one(c).items()}, check=False)


class TensorLayout:
    """Index bookkeeping for ``(C ox D)_n = sum over p+q=n of C_p ox D_q``.

    Keeps the two rank dicts, not the complexes, so a layout held in a
    complex's memo refers to no complex.
    """

    def __init__(self, c: ChainComplex, d: ChainComplex):
        self.c_ranks = c.ranks
        self.d_ranks = d.ranks
        self.blocks: Dict[int, List[Tuple[int, int]]] = {}
        for p in c.degrees():
            for q in d.degrees():
                self.blocks.setdefault(p + q, []).append((p, q))  # sorted by p
        self.offsets: Dict[Tuple[int, int], int] = {}
        self.ranks: Dict[int, int] = {}
        for n, pairs in self.blocks.items():
            off = 0
            for (p, q) in pairs:
                self.offsets[(p, q)] = off
                off += self.block_rank(p, q)
            self.ranks[n] = off

    def block_rank(self, p: int, q: int) -> int:
        return self.c_ranks.get(p, 0) * self.d_ranks.get(q, 0)


def _tensor_blocks(src: TensorLayout, tgt: TensorLayout, terms,
                   what: str = "chain map") -> Dict[int, IntMatrix]:
    """The blocks of ``sum a ox b`` from ``src`` to ``tgt``, each term
    ``(a, |a|, b, |b|)`` given by its blocks and placed by
    ``(a ox b)|_{A_p ox B_q} = (-1)^{|b| p} a_p ox b_q``.  The terms share a
    total degree and have distinct bidegrees, so no two write one entry;
    every block read must fit the layouts' ranks.
    """
    k = terms[0][1] + terms[0][3]
    out: Dict[int, IntMatrix] = {}
    for n, pairs in src.blocks.items():
        ent: Dict[Tuple[int, int], int] = {}
        for a, ka, b, kb in terms:
            for (p, q) in pairs:
                x, y = a.get(p), b.get(q)
                if x is None or y is None:
                    continue
                if ((x.rows, x.cols, y.rows, y.cols) != (tgt.c_ranks.get(p + ka, 0),
                        src.c_ranks[p], tgt.d_ranks.get(q + kb, 0), src.d_ranks[q])):
                    raise ValueError(f"{what} shape mismatch at degree {(p, q)}")
                toff, soff = tgt.offsets.get((p + ka, q + kb)), src.offsets[(p, q)]
                s, rows, cols, ys = sign(kb * p), y.rows, y.cols, y.entries.items()
                for (i, j), u in x.entries.items():
                    row, col, u = toff + i * rows, soff + j * cols, s * u
                    for (t, v), w in ys:
                        ent[(row + t, col + v)] = u * w
        if ent:
            out[n] = IntMatrix._trusted(tgt.ranks.get(n + k, 0), src.ranks[n], ent)
    return out


def tensor_complex(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """``C ox D`` with ``d = d_C ox 1 + 1 ox d_D`` and ``p = 1 ox 1``.

    Shared: built once, held by ``c`` while ``d`` lives; over Z only.
    """
    return _tensor(c, d)[1]


def _tensor(c: ChainComplex, d: ChainComplex) -> Tuple[TensorLayout, ChainComplex]:
    """``(TensorLayout(c, d), C ox D)``, memoised on ``c``.

    The memo is keyed by ``id(d)``; a weak reference to ``d`` tells a
    live key from the id of a dead complex, and the next insert drops the
    entries of dead ``d``.  An input error for a complex over ``Z[G]``.
    """
    entry = c._tensors.get(id(d))
    if entry is not None and entry[0]() is d:
        return entry[1], entry[2]
    if c.ring is not IntMatrix or d.ring is not IntMatrix:
        raise InputError("tensors need complexes over Z, not over Z[G]")
    layout = TensorLayout(c, d)
    one_c, one_d = _one(c), _one(d)
    diff = _tensor_blocks(layout, layout, [(c.diff, -1, one_d, 0), (one_c, 0, d.diff, -1)],
                          "differential")
    idem = None
    if c.idem is not None or d.idem is not None:
        one = _tensor_blocks(layout, layout, [(one_c, 0, one_d, 0)], "idempotent")
        idem = {n: one[n] if n in one else IntMatrix.zeros(r, r) for n, r in layout.ranks.items()}
    positions = None
    if c.positions is not None and d.positions is not None:
        positions = {n: tuple((a, b) for (p, q) in pairs for a in c.pos(p) for b in d.pos(q))
                     for n, pairs in layout.blocks.items()}
    out = ChainComplex(layout.ranks, diff, idem, positions, check=False)
    c._tensors = {key: e for key, e in c._tensors.items() if e[0]() is not None}
    c._tensors[id(d)] = (weakref.ref(d), layout, out)
    return layout, out


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """``(f ox g)|_{A_p ox B_q} = (-1)^{|g| p} f_p ox g_q``."""
    src, src_cx = _tensor(f.source, g.source)
    tgt, tgt_cx = _tensor(f.target, g.target)
    mats = _tensor_blocks(src, tgt, [(f.mats, f.degree, g.mats, g.degree)])
    return ChainMap(src_cx, tgt_cx, f.degree + g.degree, mats, check=False)


def flip_map(c: ChainComplex, d: ChainComplex) -> ChainMap:
    """Chain isomorphism ``C ox D -> D ox C`` with ``(-1)^{pq}`` signs."""
    src, src_cx = _tensor(c, d)
    tgt, tgt_cx = _tensor(d, c)
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
    return ChainMap(src_cx, tgt_cx, 0, mats, check=False)


def mu_map(c: ChainComplex, d: ChainComplex) -> ChainMap:
    """``mu_{C,D}: C^-* ox D^-* -> (C ox D)^-*`` with ``(-1)^{pq}`` blocks.

    Under dual bases this is a signed identity on each block
    ``(C_{-p})^* ox (D_{-q})^* = (C_{-p} ox D_{-q})^*``; it is a chain
    isomorphism for finite complexes.
    """
    src, src_cx = _tensor(dual_complex(c), dual_complex(d))
    tgt, cd_cx = _tensor(c, d)  # blocks of (C ox D)_{-n} index the dual basis
    tgt_cx = dual_complex(cd_cx)
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
    return ChainMap(src_cx, tgt_cx, 0, mats, check=False)


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
        # d(c, d) = (-d c, f c + d d); from_blocks checks each present block
        dc, fc, dd = C.diff.get(n - 1), f.mats.get(n - 1), D.diff.get(n)
        if dc is not None or fc is not None or dd is not None:
            diff[n] = C.ring.from_blocks(
                [[None if dc is None else -dc, None], [fc, dd]],
                [C.rank(n - 2), D.rank(n - 1)], [C.rank(n - 1), D.rank(n)])
    idem = None
    if C.idem is not None or D.idem is not None:
        idem = {n: C.ring.from_blocks([[C.p(n - 1), None], [None, D.p(n)]],
                                      [C.rank(n - 1), D.rank(n)], [C.rank(n - 1), D.rank(n)])
                for n in degs}
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


class K0Class:
    """Formal integer combination of idempotent classes."""

    def __init__(self, terms: Optional[List[Tuple[int, IntMatrix]]] = None):
        self.terms = [] if terms is None else terms

    def add(self, coeff: int, idempotent: IntMatrix) -> None:
        if coeff:
            self.terms.append((coeff, idempotent))

    def reduced_rank(self) -> int:
        """Image in K_0(Z) = Z by rank of each idempotent."""
        return sum(c * p.rank() for c, p in self.terms)


class K1Class:
    """Invertible-matrix representative plus reduced invariants.

    Over ``Z`` the determinant sign is the full invariant; over a
    commutative group ring only the determinant is computed (by the
    caller); no normal form is attempted otherwise.
    """

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix

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
            blocks[(n - 1, n)] = e.diff.get(n)
        grid = [[top_left.mats.get(n - 1), g.mats.get(n)],
                [bottom_left.mats.get(n - 1), km.mats.get(n)]]
        if n + 1 in e.ranks and any(b is not None for row in grid for b in row):
            blocks[(n + 1, n)] = ring.from_blocks(
                grid, [C.rank(n), D.rank(n + 1)], [C.rank(n - 1), D.rank(n)])
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
