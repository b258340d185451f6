"""Labeled metric spaces and control certificates.

A controlled morphism is a positioned ``ChainMap`` (a degree-0 map
between one-degree complexes for a single module map); the one control
walk, ``support_indices``, reads its support pairs on the space's point
indices, the target position first and the source second, and every
bound reads it: ``grid_control`` and ``transfer.certify_dslambda``.  Each
complex holds its positions' point indices for the last space index
they were read against (a complex is a value).  A group-equivariant
morphism over ``G x Z`` is a ``gring.GRMatrix``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .chaincore import ChainComplex, ChainMap
from .errors import InputError
from .gring import GRMatrix
from .groups import FiniteSubset, GroupBackend
from .intmat import IntMatrix

INF = None  # marker for unreachable / unbounded distances
_ZERO = Fraction(0)  # every diagonal read shares it: a Fraction is immutable


class GPos(NamedTuple):
    """Position labeled by a group element and a space point.

    Space points may themselves be tuples, so group-labeled positions
    are a distinct type rather than a bare pair.
    """

    g: object
    z: object


class ControlSpace:
    """Finite metric space with exact rational distances.  Its exact integer
    view, ``scaled()`` and ``closure()``, is built once on first use and
    shared by ``validate``, ``p2_metric`` and every ``DSLambdaMetric``; so
    is its pair space, which ``p2_metric`` keeps in ``_pairs``.  A space
    built by ``from_scaled`` holds that integer view alone and builds its
    ``Fraction`` view, ``dist``, when it is first read."""

    def __init__(self, points: Sequence[object], dist: Dict[Tuple[object, object], Fraction],
                 check: bool = True):
        self._set_points(points)
        self.dist = {key: v if type(v) is Fraction else Fraction(v) for key, v in dist.items()}
        for p in self.points:
            self.dist.setdefault((p, p), Fraction(0))
        if check:
            self.validate()

    def _set_points(self, points: Sequence[object]) -> None:
        self.points = tuple(points)
        self.index = {p: i for i, p in enumerate(self.points)}  # point -> position
        if len(self.index) != len(self.points):
            raise InputError("duplicate points in control space")
        self._scaled = self._closure = self._pairs = None  # built on first use

    @cached_property
    def dist(self) -> Dict[Tuple[object, object], Fraction]:
        """Every ``d(a, b)`` keyed by ``(a, b)``.  ``__init__`` stores it; a
        ``from_scaled`` space builds it here, on first read, from its
        ``scaled()`` rows with one ``Fraction`` per distinct value.
        Assigning ``dist`` replaces it either way."""
        scale, rows = self._scaled
        pts = self.points
        values = {v: Fraction(v, scale) for v in set().union(*rows)}
        return {(a, b): values[v] for a, row in zip(pts, rows) for b, v in zip(pts, row)}

    def d(self, a, b) -> Fraction:
        if a == b:
            return _ZERO
        v = self.dist.get((a, b))
        if v is None:
            v = self.dist.get((b, a))
        if v is None:
            raise InputError(f"distance undefined for ({a!r},{b!r})")
        return v

    def scaled(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """``(scale, rows)`` with ``rows[i][j] = scale * d(p_i, p_j)`` in
        point order and ``scale`` the common denominator of the distances.
        The rows are tuples: every reader shares them."""
        if self._scaled is None:
            d, pts = self.d, self.points
            rows = [[d(a, b) for b in pts] for a in pts]
            scale = math.lcm(1, *(v.denominator for row in rows for v in row))
            self._scaled = (scale, tuple(tuple(v.numerator * (scale // v.denominator) for v in row)
                                         for row in rows))
        return self._scaled

    def closure(self) -> Tuple[Tuple[int, ...], ...]:
        """Least scaled cost of a path between every two points
        (Floyd--Warshall on ``scaled()``); it equals ``scaled()`` exactly
        when the triangle inequality holds."""
        if self._closure is None:
            closure = list(self.scaled()[1])
            for k, via in enumerate(closure):
                for i, row in enumerate(closure):
                    if max(map(operator.sub, row, via)) > row[k]:  # row[z] > row[k] + via[z]
                        closure[i] = tuple(map(min, row, map(operator.add, via, repeat(row[k]))))
            self._closure = tuple(closure)
        return self._closure

    def validate(self) -> None:
        """Zero diagonal on the stored entries, then symmetry, positivity and
        the triangle inequality on ``scaled()``."""
        pts = self.points
        for a in pts:
            if self.dist[(a, a)] != 0:
                raise InputError(f"d({a},{a}) != 0")
        _, rows = self.scaled()
        for i, (a, row_a) in enumerate(zip(pts, rows)):
            for j, (b, v) in enumerate(zip(pts, row_a)):
                if v != rows[j][i]:
                    raise InputError(f"asymmetric distance at ({a},{b})")
                if i != j and v <= 0:
                    raise InputError(f"non-positive distance at ({a},{b})")
        if self.closure() == rows:
            return
        for a, row_a in zip(pts, rows):  # name the first failing triple
            for b, row_b, d_ab in zip(pts, rows, row_a):
                if max(map(operator.sub, row_a, row_b)) > d_ab:
                    k = next(k for k in range(len(pts)) if row_a[k] > d_ab + row_b[k])
                    raise InputError(f"triangle inequality fails at ({a},{b},{pts[k]})")

    @staticmethod
    def from_scaled(points: Sequence[object], scale: int,
                    rows: Sequence[Sequence[int]]) -> "ControlSpace":
        """The unchecked space with ``d(p_i, p_j) = rows[i][j] / scale``,
        whose ``scaled()`` is ``(scale, rows)`` with the rows as tuples;
        ``scale`` must be the common denominator of those values.  The
        caller checks it: ``p2_metric`` certifies its rows from the base
        space's, or else runs ``validate``, which also rejects a nonzero
        diagonal.  Its ``dist`` is built when it is first read."""
        space = ControlSpace.__new__(ControlSpace)
        space._set_points(points)
        space._scaled = (scale, tuple(map(tuple, rows)))
        return space

    @staticmethod
    def from_matrix(points: Sequence[object],
                    rows: Sequence[Sequence[Fraction]]) -> "ControlSpace":
        dist = {}
        pts = list(points)
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                dist[(p, q)] = Fraction(rows[i][j])
        return ControlSpace(pts, dist)

    @staticmethod
    def path(n: int) -> "ControlSpace":
        """n points on a line at unit spacing, ids ``p0..p{n-1}``."""
        pts = [f"p{i}" for i in range(n)]
        dist = {(pts[i], pts[j]): Fraction(abs(i - j))
                for i in range(n) for j in range(n)}
        return ControlSpace(pts, dist, check=False)

    def __contains__(self, p) -> bool:
        return p in self.index

    def __repr__(self):  # pragma: no cover
        return f"ControlSpace({len(self.points)} points)"


def point_indices(points: Optional[Sequence[object]], index: Dict[object, int]) -> List[int]:
    """The space index of each position, a ``GPos`` read at its point."""
    if points is None:
        raise InputError("support pairs need positioned complexes")
    try:
        return [index[p.z if type(p) is GPos else p] for p in points]
    except KeyError as exc:
        raise InputError(f"position {exc.args[0]!r} is not a point of the space") from None


def _held_indices(c: ChainComplex, index: Dict[object, int]) -> List[int]:
    """``point_indices`` of the positions of ``c``, held by ``c`` for the
    last ``index`` read (a complex is a value); a failure is not held."""
    held = c._points
    if held is None or held[0] is not index:
        held = c._points = (index, point_indices(c.pos_total, index))
    return held[1]


def support_indices(f: ChainMap, index: Dict[object, int]):
    """The support pairs of ``f`` on the point indices ``index``, the
    positions read once per complex and index: ``(x, y)`` for a nonzero
    entry of a map over Z, and ``(c, x, y)`` for a nonzero entry of the
    letter-``c`` block over Z[G], where ``ChainMap.support_pairs`` yields
    ``((e, x), (c, y))``."""
    m = f.total
    if m.is_zero():
        return
    tgt, src = _held_indices(f.target, index), _held_indices(f.source, index)
    if f.source.ring is IntMatrix:
        for (i, j) in m.entries:
            yield tgt[i], src[j]
        return
    for c, blk in m.letters.items():
        for (i, j) in blk.entries:
            yield c, tgt[i], src[j]


def grid_control(space: ControlSpace,
                 pieces: Iterable[Tuple[ChainMap, Optional[Sequence[Sequence[int]]]]]) -> Fraction:
    """The max over each piece ``(f, grid)`` and support pair ``(x, y)`` of
    the map ``f`` over Z of the min over the point maps ``m`` of ``grid``
    of ``d(x, m(y))``, taken on the space's ``scaled()`` rows and read as
    one ``Fraction``.  The point maps are on the space's point indices,
    as ``HomotopySAction._index_view`` holds them (None, a map that is not
    total, is an input error); a grid of None is the identity."""
    scale, rows = space.scaled()
    index, worst = space.index, 0
    for f, grid in pieces:
        if f.source.ring is not IntMatrix:
            raise InputError("control bounds read maps over Z")
        if grid is not None and None in grid:
            raise InputError("a point map of the grid is not total")
        for x, y in support_indices(f, index):
            row = rows[x]
            v = row[y] if grid is None else min([row[m[y]] for m in grid])
            if v > worst:
                worst = v
    return Fraction(worst, scale)


def check_control(f: ChainMap, eps: Optional[Fraction],
                  S: Optional[FiniteSubset], space: ControlSpace,
                  backend: Optional[GroupBackend] = None) -> bool:
    """(eps, S)-control of a positioned map: every support pair moves at
    most ``eps`` in the space and by a letter of ``S`` in the group.

    ``eps=None`` checks S-control only; ``S=None`` checks eps-control
    only (the (eps,G) degeneration).
    """
    if eps is not None and max_displacement([f], space) > eps:
        return False
    if S is not None:
        for tp, sp in f.support_pairs():
            if type(tp) is not GPos or type(sp) is not GPos or backend is None:
                raise InputError("group control needs group-labeled positions and a backend")
            if backend.mul(backend.inv(tp.g), sp.g) not in S:
                return False
    return True


def max_displacement(maps: Iterable[ChainMap], space: ControlSpace) -> Fraction:
    """Smallest eps such that every one of the positioned maps is
    eps-controlled over the space: ``grid_control`` on the identity."""
    return grid_control(space, ((f, None) for f in maps))


class EquivariantMorphism(GRMatrix):
    """Deprecated constructor shim: ``EquivariantMorphism(backend, source_rank,
    target_rank, letters)`` is ``GRMatrix(backend, target_rank, source_rank,
    letters)``.  Only ``perfbench/workloads.py`` and ``perfbench/tracer.py``
    use it; it goes with ``EquivariantChainMap.letters`` once the benchmark
    builds its morphisms as ``GRMatrix``."""

    def __init__(self, backend: GroupBackend, source: int, target: int,
                 letters: Dict[object, IntMatrix]):
        super().__init__(backend, target, source, letters)

    convolve = GRMatrix.__matmul__
