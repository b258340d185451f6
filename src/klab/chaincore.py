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

Complexes may carry positions (one label per basis vector) and
idempotents ``p`` with ``p^2 = p`` for objects of the idempotent
completion; both are transported through every construction here.  The
identity of ``(C, p)`` is ``p``, so the tensor differential, built by the
rule for tensors of maps, is ``d_C ox p_D + (-1)^p p_C ox d_D``.

Everything lives on the total basis ``+_n C_n``, degrees in the order of
``ranks`` (a dual keeps its complex's order, so it is a transpose): a
complex holds ``d_total``, ``p_total`` (None when free) and ``pos_total``,
a degree-``k`` map or homotopy one matrix ``total`` of blocks ``C_n ->
D_{n+k}``.  Blocks given to a constructor are placed once and checked
there.  ``mat()``, ``d()``, ``p()`` and ``pos()`` slice one degree out of them.

A complex is a value, never written after its constructor, so
``dual_complex(c)`` and ``tensor_complex(c, d)`` are memoised on ``c``;
a derived complex holds no factor, so no reference cycle forms.  A
homotopy is a value too: it compares ``d H + (-1)^k H d + f`` with
``g`` once, and ``holds`` and ``holds_at`` read the degrees where the
two differ.  The coefficient ring is ``IntMatrix`` for ``Z`` or ``gring.GroupRing`` for
``Z[G]`` (total-size ``GRMatrix``es, the transpose an involution
transpose); a tensor over ``Z[G]`` is an input error.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .errors import InputError, NotAnEquivalence
from .intmat import IntMatrix, sign

Positions = Tuple[object, ...]


def _letters(m):
    """The ``(letter, IntMatrix)`` pairs of a matrix (letter None over Z)."""
    return ((None, m),) if type(m) is IntMatrix else m.letters.items()


def _wrap(ring, rows: int, cols: int, acc):
    """The matrix over ``ring`` with the entry dicts ``acc`` (letter -> entries)."""
    if ring is IntMatrix:
        return IntMatrix._trusted(rows, cols, acc.get(None) or {})
    return ring.matrix(rows, cols, {a: IntMatrix._trusted(rows, cols, e)
                                    for a, e in acc.items() if e})


def _each(ring, m, rows: int, cols: int, fn, letter=None):
    """The matrix with entries ``fn(entries of m)``, letter ``a`` moved to ``letter(a)``."""
    if ring is IntMatrix:
        return IntMatrix._trusted(rows, cols, fn(m.entries))
    return _wrap(ring, rows, cols, {a if letter is None else letter(a): fn(blk.entries)
                                    for a, blk in m.letters.items()})


def _total(ring, m, S: "ChainComplex", T: "ChainComplex", k: int, what: str,
           idempotent: bool = False):
    """A total matrix ``S -> T`` of degree ``k`` as given, or one from blocks
    ``{n: S_n -> T_{n+k}}``, each one fitting its ranks, zero or not (an
    ``idempotent`` is 1 where none is given)."""
    if m is not None and type(m) is not dict:
        if (m.rows, m.cols) != (T.size, S.size):
            raise ValueError(f"{what} shape mismatch on the total basis")
        return m
    m, acc = m or {}, {}
    for n, blk in m.items():
        if (blk.rows, blk.cols) != (T.rank(n + k), S.rank(n)):
            raise ValueError(f"{what} shape mismatch at degree {n}")
        r0, c0 = T.offsets.get(n + k, 0), S.offsets.get(n, 0)
        for a, x in _letters(blk):
            acc.setdefault(a, {}).update({(r0 + i, c0 + j): v for (i, j), v in x.entries.items()})
    if idempotent:
        acc.setdefault(None if ring is IntMatrix else ring.backend.identity(), {}).update(
            ((t, t), 1) for n, off in S.offsets.items() if n not in m
            for t in range(off, off + S.ranks[n]))
    return _wrap(ring, T.size, S.size, acc)


def _split(m, S: "ChainComplex", T: "ChainComplex", k: int) -> Dict[int, object]:
    """The nonzero blocks ``{n: S_n -> T_{n+k}}`` of a total matrix."""
    degs, slocs = S._basis()
    tlocs = T._basis()[1]
    acc: Dict[int, Dict[object, Dict[Tuple[int, int], int]]] = {}
    for a, blk in _letters(m):
        for (i, j), v in blk.entries.items():
            acc.setdefault(degs[j], {}).setdefault(a, {})[(tlocs[i], slocs[j])] = v
    return {n: _wrap(T.ring, T.rank(n + k), S.rank(n), acc[n]) for n in sorted(acc)}


def _slice(m, S: "ChainComplex", T: "ChainComplex", k: int, n: int):
    """The block ``S_n -> T_{n+k}`` of a total matrix of degree ``k``, zero or not."""
    if n not in S.offsets or n + k not in T.offsets:
        return T.ring.zeros(T.rank(n + k), S.rank(n))
    r0, c0, c1 = T.offsets[n + k], S.offsets[n], S.offsets[n] + S.ranks[n]
    return _each(T.ring, m, T.ranks[n + k], S.ranks[n], lambda entries: {
        (i - r0, j - c0): v for (i, j), v in entries.items() if c0 <= j < c1})


def _first(m, c: "ChainComplex") -> int:
    """The lowest degree of ``c`` with a column holding an entry of ``m``."""
    return min(c._basis()[0][j] for _, blk in _letters(m) for (_, j) in blk.entries)


def _row_degrees(m, c: "ChainComplex"):
    """The degrees of ``c`` with a row holding an entry of ``m``."""
    degs = c._basis()[0]
    return {degs[i] for _, blk in _letters(m) for (i, _) in blk.entries}


def _place(ring, rows: int, cols: int, parts):
    """Entry ``(i, j)`` of each part ``(m, rmap, cmap, s)``, times ``s``, at
    ``(rmap[i], cmap[j])`` unless either is None; parts write disjoint entries."""
    acc: Dict[object, Dict[Tuple[int, int], int]] = {}
    for m, rmap, cmap, s in parts:
        for a, blk in _letters(m):
            acc.setdefault(a, {}).update({
                (rmap[i], cmap[j]): s * v for (i, j), v in blk.entries.items()
                if rmap[i] is not None and cmap[j] is not None})
    return _wrap(ring, rows, cols, acc)


class ChainComplex:
    """Finite complex of free (or idempotent-completed) modules over ``ring``;
    ``diff`` (``diff[n]: C_n -> C_{n-1}``) and ``idem`` (1 where absent) are
    blocks or total matrices, ``positions`` per-degree tuples or one tuple."""

    # (space index, point index of each position), set by the control walk
    # when it first reads this complex's positions against that index
    _points = None

    def __init__(self, ranks: Dict[int, int], diff=None, idem=None, positions=None,
                 check: bool = True, ring=IntMatrix):
        self.ring = ring
        self.ranks = {n: r for n, r in ranks.items() if r > 0}
        self.offsets: Dict[int, int] = {}  # in the order of ranks
        size = 0
        for n, r in self.ranks.items():
            self.offsets[n], size = size, size + r
        self.size = size
        # built on first use: the basis lists, the dual, the identity, and
        # the tensors {id(d): (weak d, TensorLayout, self ox d)}
        self._lists = self._dual = self._one = self._tensors = None
        self.d_total = _total(ring, diff, self, self, -1, "differential")
        self.p_total = None if not idem else _total(ring, idem, self, self, 0, "idempotent",
                                                    idempotent=True)
        if positions and type(positions) is not tuple:  # per-degree tuples
            for n, r in self.ranks.items():
                if len(positions.get(n) or ()) != r:
                    raise ValueError(f"positions missing at degree {n}")
            positions = tuple(p for n in self.offsets for p in positions[n])
        if positions and len(positions) != size:
            raise ValueError("positions missing on the total basis")
        self.pos_total = positions or None
        if check:
            self.validate()

    def _basis(self):
        """``(degree, index in its degree)`` of every basis vector, built once."""
        if self._lists is None:
            degs, locs = self._lists = ([], [])
            for n in self.offsets:
                degs += [n] * self.ranks[n]
                locs += range(self.ranks[n])
        return self._lists

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

    def d(self, n: int):
        return _slice(self.d_total, self, self, -1, n)

    def p(self, n: int):
        if self.p_total is None:
            return self.ring.identity(self.rank(n))
        return _slice(self.p_total, self, self, 0, n)

    def pos(self, n: int) -> Optional[Positions]:
        if self.pos_total is None or n not in self.offsets:
            return None
        return self.pos_total[self.offsets[n]:self.offsets[n] + self.ranks[n]]

    def is_free(self) -> bool:
        return self.p_total is None or self.p_total == self.ring.identity(self.size)

    def relabel(self, f) -> "ChainComplex":
        """The same complex with every position ``p`` moved to ``f(p)``."""
        if self.pos_total is None:
            raise InputError("relabeling needs positions")
        return ChainComplex(self.ranks, self.d_total, self.p_total,
                            tuple(f(p) for p in self.pos_total), check=False, ring=self.ring)

    def euler_characteristic(self) -> int:
        return sum(sign(n) * r for n, r in self.ranks.items())

    def validate(self) -> None:
        """``d d = 0`` and, with an idempotent, ``p p = p`` and ``p d p = d``
        (``d`` is a morphism in Idem); a failure names its lowest degree."""
        d, p = self.d_total, self.p_total
        dd = d @ d
        if not dd.is_zero():
            raise ValueError(f"d o d != 0 at degree {_first(dd, self)}")
        if p is not None:
            pp, pdp = p @ p, p @ d @ p
            if pp != p:
                raise ValueError(f"idempotent fails p^2 = p at degree {_first(pp - p, self)}")
            if pdp != d:
                raise ValueError("differential not compatible with idempotents at "
                                 f"{_first(pdp - d, self)}")

    def __eq__(self, other: object) -> bool:
        """Equal totals on the same degrees in the same order."""
        return (isinstance(other, ChainComplex) and self.ranks == other.ranks
                and self.offsets == other.offsets and self.d_total == other.d_total
                and _one(self) == _one(other))

    def __repr__(self):  # pragma: no cover
        return f"ChainComplex(ranks={self.ranks})"

    @staticmethod
    def zero() -> "ChainComplex":
        return ChainComplex({})

    @staticmethod
    def point(position: Optional[object] = None) -> "ChainComplex":
        """Z concentrated in degree 0 (the trivial complex T)."""
        return ChainComplex({0: 1}, positions=None if position is None else (position,))


class ChainMap:
    """Graded map of degree ``k``; ``mats`` is the blocks ``C_n -> D_{n+k}``
    or the total matrix, held as ``total``."""

    def __init__(self, source: ChainComplex, target: ChainComplex, degree: int = 0,
                 mats=None, check: bool = True):
        self.source, self.target, self.degree = source, target, degree
        self.total = _total(target.ring, mats, source, target, degree, "chain map")
        if check:
            self.validate()

    @classmethod
    def _of(cls, source: ChainComplex, target: ChainComplex, degree: int, total) -> "ChainMap":
        """The map with a total matrix that fits its endpoints, unchecked."""
        self = object.__new__(cls)
        self.source, self.target, self.degree, self.total = source, target, degree, total
        return self

    @cached_property
    def mats(self) -> Dict[int, object]:
        """Deprecated per-degree view: the nonzero blocks of ``total``."""
        return _split(self.total, self.source, self.target, self.degree)

    def mat(self, n: int):
        """The block ``C_n -> D_{n+k}``, zero or not."""
        return _slice(self.total, self.source, self.target, self.degree, n)

    def validate(self) -> None:
        """``d f = (-1)^k f d`` and, with idempotents, ``p f p = f``; a
        failure names its lowest source degree."""
        S, T, f = self.source, self.target, self.total
        df, fd = T.d_total @ f, (-f if self.degree % 2 else f) @ S.d_total
        if df != fd:
            raise ValueError(f"not a chain map at degree {_first(df - fd, S)}")
        if S.p_total is not None or T.p_total is not None:
            x = f if T.p_total is None else T.p_total @ f
            x = x if S.p_total is None else x @ S.p_total
            if x != f:
                raise ValueError("map not compatible with idempotents at degree "
                                 f"{_first(x - f, S)}")

    def is_chain_map(self) -> bool:
        try:
            self.validate()
            return True
        except ValueError:
            return False

    def is_zero(self) -> bool:
        return self.total.is_zero()

    def retarget(self, source: ChainComplex, target: ChainComplex) -> "ChainMap":
        """The same matrix between other endpoints of the same ranks."""
        return ChainMap._of(source, target, self.degree, self.total)

    def support_pairs(self):
        """``(target position, source position)`` for every nonzero entry.

        Over ``Z[G]`` the entry ``(i, j)`` of the letter-``a`` block maps
        the source fiber at coset ``a`` to the target fiber at ``e``, so
        it yields ``((e, x), (a, y))`` for the fiber positions ``x, y``.
        """
        m, src, tgt = self.total, self.source.pos_total, self.target.pos_total
        if not m.is_zero() and (src is None or tgt is None):
            raise InputError("support pairs need positioned complexes")
        if type(m) is IntMatrix:
            yield from ((tgt[i], src[j]) for (i, j) in m.entries)
        else:
            e = self.source.ring.backend.identity()
            yield from (((e, tgt[i]), (a, src[j])) for a, blk in m.letters.items()
                        for (i, j) in blk.entries)

    def integer_inverse(self) -> Optional["ChainMap"]:
        """Degreewise inverse over Z, or None when some degree is not
        unimodular: the inverse of the total holds the blocks' inverses."""
        if self.source.ring is not IntMatrix:
            raise InputError("integer_inverse needs a map over Z, not over Z[G]")
        inv = self.total.integer_inverse()
        return None if inv is None else ChainMap._of(self.target, self.source, -self.degree, inv)

    def _ends(self):
        """The ranks and offsets of source and target: the same ranks in the same order."""
        return (self.source.ranks, self.source.offsets, self.target.ranks, self.target.offsets)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChainMap) and self.degree == other.degree
                and self.total == other.total and self._ends() == other._ends())

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        if self._ends() != other._ends():
            raise ValueError("shape mismatch in sum")
        return ChainMap._of(self.source, self.target, self.degree, self.total + other.total)

    def __neg__(self) -> "ChainMap":
        return ChainMap._of(self.source, self.target, self.degree, -self.total)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def scale(self, c: int) -> "ChainMap":
        return ChainMap._of(self.source, self.target, self.degree, self.total.scale(c))

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (apply ``other`` first)."""
        mid, top = self.source, other.target
        if mid is not top and (mid.ranks, mid.offsets) != (top.ranks, top.offsets):
            bad = [n for n in set(mid.ranks) | set(top.ranks) if mid.rank(n) != top.rank(n)]
            raise ValueError(f"shape mismatch in composite at degree {min(bad) - other.degree}"
                             if bad else "shape mismatch in composite: degrees in another order")
        return ChainMap._of(other.source, self.target, self.degree + other.degree,
                        self.total @ other.total)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        return self.compose(other)

    @classmethod
    def identity(cls, c: ChainComplex) -> "ChainMap":
        return cls(c, c, 0, _one(c), check=False)

    @staticmethod
    def zero(source: ChainComplex, target: ChainComplex, degree: int = 0) -> "ChainMap":
        return ChainMap(source, target, degree, None, check=False)

    def __repr__(self):  # pragma: no cover
        return f"ChainMap(degree={self.degree}, shape={self.total.rows}x{self.total.cols})"


class ChainHomotopy:
    """Witness ``H`` with ``d H + (-1)^k H d = target_map - source_map``
    between maps of one degree and the same ends; ``mats`` is the blocks or
    the total matrix."""

    _fails = None  # set by _failing() on the first holds or holds_at

    def __init__(self, source_map: ChainMap, target_map: ChainMap, mats=None):
        f = source_map
        if target_map.degree != f.degree or f._ends() != target_map._ends():
            raise ValueError("chain map shape mismatch between the homotopy's endpoints")
        self.source_map, self.target_map = f, target_map
        self.total = _total(f.target.ring, mats, f.source, f.target, f.degree + 1, "homotopy")

    @cached_property
    def mats(self) -> Dict[int, object]:
        """Deprecated per-degree view: the nonzero blocks of ``total``."""
        f = self.source_map
        return _split(self.total, f.source, f.target, f.degree + 1)

    def as_map(self) -> ChainMap:
        f = self.source_map
        return ChainMap._of(f.source, f.target, f.degree + 1, self.total)

    def holds(self) -> bool:
        return not self._failing()

    def holds_at(self, n: int) -> bool:
        """``d H_n + (-1)^k H_{n-1} d + f_n = g_n``: the rows of ``D_{n+k}``
        of the total identity (none when ``D_{n+k} = 0``)."""
        return n + self.source_map.degree not in self._failing()

    def _failing(self):
        """The degrees of ``D`` whose rows of ``d H + (-1)^k H d + f``
        differ from ``g``'s (empty when the identity holds), built once: a
        homotopy is a value."""
        if self._fails is None:
            f, h = self.source_map, self.total
            r, g = f.total, self.target_map.total
            if not h.is_zero():
                dh, hd = f.target.d_total @ h, h @ f.source.d_total
                r = (dh - hd if f.degree % 2 else dh + hd) + r
            self._fails = () if r == g else _row_degrees(r - g, f.target)
        return self._fails


# -- duals, tensors, flips, mu ------------------------------------------


def _one(c: ChainComplex):
    """The identity of an idempotent-completed object is its idempotent;
    built once and held by ``c``."""
    if c._one is None:
        c._one = c.ring.identity(c.size) if c.p_total is None else c.p_total
    return c._one


def _dual_total(m, k: int, source: ChainComplex, target: ChainComplex,
                row_signs: bool = False):
    """``(f^-*)_n = (-1)^{nk} (f_{-n-k})^T`` for the total matrix of a
    degree-``k`` map ``source -> target``: the transpose, as a dual keeps
    the index order, with sign ``(-1)^{(n+k)k}`` on a column of degree
    ``n``, times ``(-1)^{|i|}`` on row ``i`` with ``row_signs`` (for even
    ``k``); over ``Z[G]`` letter ``a`` goes to ``a^-1``."""
    if not (k % 2 or row_signs):
        return m.transpose()  # over Z[G] the involution transpose
    sdeg, tdeg = source._basis()[0], target._basis()[0]
    if k % 2:  # the sign is -1 on the columns of even degree
        def fn(entries):
            return {(j, i): v if sdeg[j] % 2 else -v for (i, j), v in entries.items()}
    else:
        def fn(entries):
            return {(j, i): -v if tdeg[i] % 2 else v for (i, j), v in entries.items()}
    ring = source.ring
    return _each(ring, m, m.cols, m.rows, fn, None if ring is IntMatrix else ring.backend.inv)


def dual_complex(c: ChainComplex) -> ChainComplex:
    """``(C^-*)_n = (C_{-n})^*``: the duals of ``d`` and of ``1 = p`` as
    maps, built once and held by ``c``."""
    if c._dual is None:
        p = None if c.p_total is None else _dual_total(c.p_total, 0, c, c)
        c._dual = ChainComplex({-n: r for n, r in c.ranks.items()},
                               _dual_total(c.d_total, -1, c, c), p, c.pos_total, check=False,
                               ring=c.ring)
    return c._dual


def dual_map(f: ChainMap) -> ChainMap:
    """``(f^-*)_n = (-1)^{nk} (f_{-n-k})^T`` from ``D^-*`` to ``C^-*``."""
    return ChainMap._of(dual_complex(f.target), dual_complex(f.source), f.degree,
                    _dual_total(f.total, f.degree, f.source, f.target))


def iota(c: ChainComplex) -> ChainMap:
    """Natural isomorphism ``C -> (C^-*)^-*`` given by ``(-1)^n id``."""
    degs = c._basis()[0]
    return ChainMap._of(c, dual_complex(dual_complex(c)), 0, _each(
        c.ring, _one(c), c.size, c.size,
        lambda entries: {(i, j): -v if degs[j] % 2 else v for (i, j), v in entries.items()}))


class TensorLayout:
    """Index bookkeeping for ``(C ox D)_n = sum over p+q=n of C_p ox D_q``:
    degree by degree, the blocks ``(p, q)`` by ``p``, each in Kronecker
    order; ``index[i * |D| + j]`` is where ``e_i ox f_j`` sits.  Holds ranks
    and index lists, not the complexes, so a layout held in a complex's
    memo refers to no complex."""

    def __init__(self, c: ChainComplex, d: ChainComplex):
        base: Dict[Tuple[int, int], int] = {}
        self.ranks: Dict[int, int] = {}
        self.size = 0
        for _, p, q in sorted([(p + q, p, q) for p in c.ranks for q in d.ranks]):
            r = c.ranks[p] * d.ranks[q]
            base[(p, q)], self.size = self.size, self.size + r
            self.ranks[p + q] = self.ranks.get(p + q, 0) + r
        self.c_degrees = c._basis()[0]
        self.index = [base[(p, q)] + i * d.ranks[q] + j
                      for p, i in zip(*c._basis()) for q, j in zip(*d._basis())]


def _tensor_total(src: TensorLayout, tgt: TensorLayout, terms) -> IntMatrix:
    """The total matrix of ``sum a ox b`` from ``src`` to ``tgt``, each term
    ``(a, b, |b|)`` given by its total matrices and placed by
    ``(a ox b)|_{A_p ox B_q} = (-1)^{|b| p} a_p ox b_q``.  The terms have
    distinct bidegrees, so no two write one entry."""
    ent: Dict[Tuple[int, int], int] = {}
    sdeg, sx, tx = src.c_degrees, src.index, tgt.index
    for a, b, kb in terms:
        rows, cols, ws = b.rows, b.cols, list(b.entries.items())
        for (i, j), v in a.entries.items():
            u, i, j = -v if kb % 2 and sdeg[j] % 2 else v, i * rows, j * cols
            for (k, l), w in ws:
                ent[(tx[i + k], sx[j + l])] = u * w
    return IntMatrix._trusted(tgt.size, src.size, ent)


def tensor_complex(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """``C ox D`` with ``d = d_C ox 1 + 1 ox d_D`` and ``p = 1 ox 1``; over Z
    only, built once and held by ``c`` while ``d`` lives."""
    return _tensor(c, d)[1]


def _tensor(c: ChainComplex, d: ChainComplex) -> Tuple[TensorLayout, ChainComplex]:
    """``(TensorLayout(c, d), C ox D)``, memoised on ``c``.

    The memo is keyed by ``id(d)``; a weak reference to ``d`` tells a
    live key from the id of a dead complex, and the next insert drops the
    entries of dead ``d``.  An input error for a complex over ``Z[G]``.
    """
    entry = c._tensors and c._tensors.get(id(d))
    if entry and entry[0]() is d:
        return entry[1], entry[2]
    if c.ring is not IntMatrix or d.ring is not IntMatrix:
        raise InputError("tensors need complexes over Z, not over Z[G]")
    layout = TensorLayout(c, d)
    one_c, one_d = _one(c), _one(d)
    diff = _tensor_total(layout, layout, [(c.d_total, one_d, 0), (one_c, d.d_total, -1)])
    idem = None
    if c.p_total is not None or d.p_total is not None:
        idem = _tensor_total(layout, layout, [(one_c, one_d, 0)])
    positions = None
    if c.pos_total is not None and d.pos_total is not None:  # indices are distinct: sort by them
        positions = tuple(xy for _, xy in sorted(zip(layout.index, (
            (x, y) for x in c.pos_total for y in d.pos_total))))
    cx = ChainComplex(layout.ranks, diff, idem, positions, check=False)
    c._tensors = {key: e for key, e in (c._tensors or {}).items() if e[0]() is not None}
    c._tensors[id(d)] = (weakref.ref(d), layout, cx)
    return layout, cx


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """``(f ox g)|_{A_p ox B_q} = (-1)^{|g| p} f_p ox g_q``."""
    src, src_cx = _tensor(f.source, g.source)
    tgt, tgt_cx = _tensor(f.target, g.target)
    return ChainMap._of(src_cx, tgt_cx, f.degree + g.degree,
                        _tensor_total(src, tgt, [(f.total, g.total, g.degree)]))


def flip_map(c: ChainComplex, d: ChainComplex) -> ChainMap:
    """Chain isomorphism ``C ox D -> D ox C`` with ``(-1)^{pq}`` signs."""
    src, src_cx = _tensor(c, d)
    tgt, tgt_cx = _tensor(d, c)
    cdeg, ddeg, m, n = c._basis()[0], d._basis()[0], c.size, d.size
    return ChainMap._of(src_cx, tgt_cx, 0, IntMatrix._trusted(tgt.size, src.size, {
        (tgt.index[j * m + i], src.index[i * n + j]): -1 if cdeg[i] * ddeg[j] % 2 else 1
        for i in range(m) for j in range(n)}))


def mu_map(c: ChainComplex, d: ChainComplex) -> ChainMap:
    """``mu_{C,D}: C^-* ox D^-* -> (C ox D)^-*`` with ``(-1)^{pq}`` blocks.

    Under dual bases this is a signed identity on each block
    ``(C_{-p})^* ox (D_{-q})^* = (C_{-p} ox D_{-q})^*``; it is a chain
    isomorphism for finite complexes; a dual keeps its complex's index order.
    """
    src, src_cx = _tensor(dual_complex(c), dual_complex(d))
    tgt, cd_cx = _tensor(c, d)
    signs = [-1 if p * q % 2 else 1 for p in c._basis()[0] for q in d._basis()[0]]
    return ChainMap._of(src_cx, dual_complex(cd_cx), 0, IntMatrix._trusted(tgt.size, src.size, {
        (t, s): v for t, s, v in zip(tgt.index, src.index, signs)}))


def _cone(f: ChainMap):
    """The mapping cone ``E_n = C_{n-1} + D_n`` of a degree-0 chain map, and
    where the basis vectors of ``C`` and of ``D`` sit in ``E``."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    C, D = f.source, f.target
    ranks = {n: C.rank(n - 1) + D.rank(n) for n in sorted({n + 1 for n in C.ranks} | set(D.ranks))}
    off, size = dict(zip(ranks, accumulate(ranks.values(), initial=0))), sum(ranks.values())
    cmap = [off[n + 1] + loc for n, loc in zip(*C._basis())]
    dmap = [off[n] + C.rank(n - 1) + loc for n, loc in zip(*D._basis())]
    # d(c, d) = (-d c, f c + d d)
    d = _place(C.ring, size, size, [(C.d_total, cmap, cmap, -1), (f.total, dmap, cmap, 1),
                                    (D.d_total, dmap, dmap, 1)])
    p = None
    if C.p_total is not None or D.p_total is not None:
        p = _place(C.ring, size, size, [(_one(C), cmap, cmap, 1), (_one(D), dmap, dmap, 1)])
    pos = None
    if C.pos_total is not None and D.pos_total is not None:  # indices are distinct: sort by them
        pos = tuple(x for _, x in sorted(zip(cmap + dmap, C.pos_total + D.pos_total)))
    return ChainComplex(ranks, d, p, pos, check=False, ring=C.ring), cmap, dmap


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone of a degree-0 chain map: ``E_n = C_{n-1} + D_n``."""
    return _cone(f)[0]


def shift(c: ChainComplex, k: int) -> ChainComplex:
    """``C[k]_n = C_{n-k}`` with differential ``(-1)^k d``, on the same total basis."""
    return ChainComplex({n + k: r for n, r in c.ranks.items()}, c.d_total.scale(sign(k)),
                        c.p_total, c.pos_total, check=False, ring=c.ring)


# -- K-theory classes -----------------------------------------------------


class K0Class:
    """Formal integer combination of idempotent classes."""

    def __init__(self, terms: Optional[List[Tuple[int, IntMatrix]]] = None):
        self.terms = [] if terms is None else terms

    def reduced_rank(self) -> int:
        """Image in K_0(Z) = Z by rank of each idempotent."""
        return sum(c * p.rank() for c, p in self.terms)


class K1Class:
    """Invertible-matrix representative: over ``Z`` the determinant sign is
    the full invariant; over a commutative group ring the caller computes
    only the determinant, and no normal form is attempted."""

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix

    def det_sign(self) -> int:
        d = self.matrix.det()
        if d not in (1, -1):
            raise NotAnEquivalence(f"torsion representative has determinant {d}")
        return d


def finiteness_obstruction(c: ChainComplex) -> K0Class:
    """Alternating sum of the degreewise classes of a finite projective complex."""
    return K0Class([(sign(n), c.p(n)) for n in sorted(c.ranks)])


def cone_torsion(f: ChainMap, g: ChainMap, hm: ChainMap, km: ChainMap):
    """``(d + Gamma)_odd`` on the (contractible) mapping cone of ``f: C -> D``.

    ``g`` is a homotopy inverse and ``hm``, ``km`` (``h``, ``k`` below)
    are the degree-1 maps of homotopies ``g f ~ id_C`` and ``f g ~ id_D``.
    With ``theta = f h - k f`` the graded map
    ``(c, d) -> (-h c + g d + g theta c, k d + k theta c)`` satisfies
    ``d Gamma + Gamma d = id`` on the cone (the naive candidate misses the
    identity by the square-zero error ``(c,d) -> (0, theta c)``, which the
    ``g theta`` / ``k theta`` terms cancel).  The representative takes the
    rows of the even degrees of the cone and the columns of the odd ones,
    each in the order of the total basis, over the coefficient ring of ``C``.
    """
    theta = f.compose(hm) - km.compose(f)
    top_left = g.compose(theta) - hm
    bottom_left = km.compose(theta)
    e, cmap, dmap = _cone(f)
    degs = e._basis()[0]
    rows = [t for t in range(e.size) if degs[t] % 2 == 0]
    cols = [t for t in range(e.size) if degs[t] % 2]
    if len(rows) != len(cols):
        raise NotAnEquivalence("cone has unequal odd/even ranks")
    even, odd = [None] * e.size, [None] * e.size  # cone index -> row, column
    for r, t in enumerate(rows):
        even[t] = r
    for c, t in enumerate(cols):
        odd[t] = c
    ec, ed = [even[t] for t in cmap], [even[t] for t in dmap]
    oc, od = [odd[t] for t in cmap], [odd[t] for t in dmap]
    return _place(e.ring, len(rows), len(cols), [
        (e.d_total, even, odd, 1), (top_left.total, ec, oc, 1), (g.total, ec, od, 1),
        (bottom_left.total, ed, oc, 1), (km.total, ed, od, 1)])


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
