"""Matrices over group rings, and the group ring as a coefficient ring
for chain complexes.

A matrix over ``Z[G]`` is stored letterwise: a dict ``a -> IntMatrix``
of one shape whose product is convolution over the group and whose
transpose is the involution transpose.  A map over ``G x Z`` is a chain
map between complexes over ``Z[G]`` with such matrices.  The determinant
(the K_1 reduction for commutative group rings) uses the Berkowitz
algorithm, which needs no division and so works over any commutative
ring.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .chaincore import ChainComplex
from .errors import InputError
from .groups import GroupBackend
from .intmat import IntMatrix

GRElem = Dict[object, int]  # group element -> integer coefficient


def gr_add(a: GRElem, b: GRElem) -> GRElem:
    out = dict(a)
    for g, c in b.items():
        s = out.get(g, 0) + c
        if s:
            out[g] = s
        else:
            out.pop(g, None)
    return out


def gr_neg(a: GRElem) -> GRElem:
    return {g: -c for g, c in a.items()}


def gr_mul(backend: GroupBackend, a: GRElem, b: GRElem) -> GRElem:
    out: GRElem = {}
    for g, c in a.items():
        for h, d in b.items():
            k = backend.mul(g, h)
            s = out.get(k, 0) + c * d
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


class GRMatrix:
    """Matrix over the group ring of a backend, stored letterwise: a dict
    ``a -> IntMatrix`` of one shape, zero blocks dropped.  Letters are a
    value like a matrix's entries: only the constructor writes them."""

    def __init__(self, backend: GroupBackend, rows: int, cols: int,
                 letters: Optional[Dict[object, IntMatrix]] = None):
        if rows < 0 or cols < 0:
            raise InputError("morphism ranks must not be negative")
        self.backend = backend
        self.rows = rows
        self.cols = cols
        self.letters: Dict[object, IntMatrix] = {}
        for a, m in (letters or {}).items():
            if (m.rows, m.cols) != (rows, cols):
                raise InputError("letter block shape mismatch")
            if not m.is_zero():
                self.letters[backend.canonical(a)] = m

    def _like(self, letters: Dict[object, IntMatrix]) -> "GRMatrix":
        """A matrix of the same shape with other letters."""
        return GRMatrix(self.backend, self.rows, self.cols, letters)

    @staticmethod
    def constant(backend: GroupBackend, m: IntMatrix) -> "GRMatrix":
        return GRMatrix(backend, m.rows, m.cols, {backend.identity(): m})

    def letter(self, a) -> IntMatrix:
        m = self.letters.get(self.backend.canonical(a))
        return IntMatrix.zeros(self.rows, self.cols) if m is None else m

    def is_zero(self) -> bool:
        return not self.letters

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GRMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.letters == other.letters)

    def __add__(self, other: "GRMatrix") -> "GRMatrix":
        # a letterless operand has no block to carry its shape into the sum
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in sum")
        acc = dict(self.letters)
        for a, m in other.letters.items():
            s = acc.get(a)
            acc[a] = m if s is None else s + m
        return self._like(acc)

    def __neg__(self) -> "GRMatrix":
        return self._like({a: -m for a, m in self.letters.items()})

    def __sub__(self, other: "GRMatrix") -> "GRMatrix":
        return self + (-other)

    def scale(self, c: int) -> "GRMatrix":
        return self._like({a: m.scale(c) for a, m in self.letters.items()})

    def _convolve(self, other: "GRMatrix") -> Dict[object, IntMatrix]:
        """Letters of ``self o other``: ``(x y)_c = sum over ab = c of x_a y_b``."""
        if self.cols != other.rows:
            raise InputError("shape mismatch in mul")
        acc: Dict[object, IntMatrix] = {}
        mul = self.backend.mul
        for a, x in self.letters.items():
            for b, y in other.letters.items():
                c = mul(a, b)
                prod = x @ y
                s = acc.get(c)
                acc[c] = prod if s is None else s + prod
        return acc

    def __matmul__(self, other: "GRMatrix") -> "GRMatrix":
        return GRMatrix(self.backend, self.rows, other.cols, self._convolve(other))

    def transpose(self) -> "GRMatrix":
        """Involution transpose: ``(A^T)_g = (A_{g^{-1}})^T``."""
        inv = self.backend.inv
        return GRMatrix(self.backend, self.cols, self.rows,
                        {inv(a): m.transpose() for a, m in self.letters.items()})

    def entry(self, i: int, j: int) -> GRElem:
        out: GRElem = {}
        for g, m in self.letters.items():
            v = m.get(i, j)
            if v:
                out[g] = v
        return out

    def det(self) -> GRElem:
        """Berkowitz determinant; requires a commutative group ring."""
        if self.rows != self.cols:
            raise InputError("det of non-square matrix")
        return _berkowitz_det(self.backend, [[self.entry(i, j) for j in range(self.cols)]
                                             for i in range(self.rows)])


def _berkowitz_det(backend: GroupBackend, a: List[List[GRElem]]) -> GRElem:
    n = len(a)
    one: GRElem = {backend.identity(): 1}
    if n == 0:
        return one
    coeffs: List[GRElem] = [one]
    for r in range(1, n + 1):
        diag = a[r - 1][r - 1]
        row = [a[r - 1][j] for j in range(r - 1)]
        col = [a[i][r - 1] for i in range(r - 1)]
        sub = [[a[i][j] for j in range(r - 1)] for i in range(r - 1)]
        t: List[GRElem] = [one, gr_neg(diag)]
        vec = col
        for _ in range(r - 1):
            t.append(gr_neg(_dot_row(backend, row, vec)))
            vec = [_dot_row(backend, sub[i], vec) for i in range(r - 1)]
        new: List[GRElem] = [{} for _ in range(r + 1)]
        for i in range(r + 1):
            for j in range(min(i + 1, r)):
                new[i] = gr_add(new[i], gr_mul(backend, t[i - j], coeffs[j]))
        coeffs = new
    det = coeffs[n]
    if n % 2:
        det = gr_neg(det)
    return det


def _dot_row(backend: GroupBackend, row: List[GRElem], vec: List[GRElem]) -> GRElem:
    out: GRElem = {}
    for x, y in zip(row, vec):
        out = gr_add(out, gr_mul(backend, x, y))
    return out


# -- the group ring as a coefficient ring for chain complexes ---------------


class GroupRing:
    """``Z[G]`` as a coefficient ring: the ``zeros`` and ``identity`` that
    ``IntMatrix`` supplies for ``Z``, and ``matrix`` from letters."""

    def __init__(self, backend: GroupBackend):
        self.backend = backend

    def zeros(self, rows: int, cols: int) -> GRMatrix:
        return GRMatrix(self.backend, rows, cols)

    def identity(self, n: int) -> GRMatrix:
        return GRMatrix.constant(self.backend, IntMatrix.identity(n))

    def matrix(self, rows: int, cols: int, letters: Dict[object, IntMatrix]) -> GRMatrix:
        return GRMatrix(self.backend, rows, cols, letters)


class GRComplex(ChainComplex):
    """Finite complex of free (or idempotent-completed) ``Z[G]``-modules;
    ``diff[n]``: rank n -> n-1, or the total differential."""

    def __init__(self, backend: GroupBackend, ranks: Dict[int, int], diff,
                 idem=None, positions=None):
        super().__init__(ranks, diff, idem, positions, check=False, ring=GroupRing(backend))

    @staticmethod
    def constant(backend: GroupBackend, cx: ChainComplex) -> "GRComplex":
        """An integral complex read over ``Z[G]``: its differential and
        idempotent at letter e, on its total basis; the positions are the fiber's."""
        p = None if cx.p_total is None else GRMatrix.constant(backend, cx.p_total)
        return GRComplex(backend, cx.ranks, GRMatrix.constant(backend, cx.d_total), p, cx.pos_total)
