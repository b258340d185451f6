"""Exact sparse matrices over the integers and the rationals.

Matrices are maps ``(row, col) -> value`` storing nonzero ``int``
entries only; positions in the control module make blocks naturally
sparse.  Rank, determinant and inverse eliminate over the integers;
only the congruence diagonal of a symmetric form is rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple

Entry = Tuple[int, int]


def sign(n: int) -> int:
    """``(-1)^n`` as an exact integer for any integer ``n``."""
    return -1 if n % 2 else 1


class IntMatrix:
    """Sparse exact matrix with explicit shape."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[Dict[Entry, int]] = None):
        if rows < 0 or cols < 0:
            raise ValueError(f"bad shape ({rows},{cols})")
        self.rows = rows
        self.cols = cols
        self.entries: Dict[Entry, int] = {}
        if entries:
            for (i, j), v in entries.items():
                if v == 0:
                    continue
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                self.entries[(i, j)] = v

    @staticmethod
    def _trusted(rows: int, cols: int, entries: Dict[Entry, int]) -> "IntMatrix":
        """Wrap ``entries`` without copying or checking them: callers pass
        only nonzero entries inside ``rows x cols``, by construction."""
        m = object.__new__(IntMatrix)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        # a fresh dict per call: callers may write into the result
        if n < 0:
            raise ValueError(f"bad shape ({n},{n})")
        return IntMatrix._trusted(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        data = [list(r) for r in rows]
        ncols = len(data[0]) if data else 0
        entries: Dict[Entry, int] = {}
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v != 0:
                    entries[(i, j)] = v
        return IntMatrix._trusted(len(data), ncols, entries)

    @staticmethod
    def from_blocks(grid: List[List[Optional["IntMatrix"]]],
                    row_sizes: List[int], col_sizes: List[int]) -> "IntMatrix":
        """Assemble a block matrix; ``None`` blocks are zero."""
        roff, coff = [0, *accumulate(row_sizes)], [0, *accumulate(col_sizes)]
        entries: Dict[Entry, int] = {}
        for bi, row in enumerate(grid):
            for bj, block in enumerate(row):
                if block is None:
                    continue
                if (block.rows, block.cols) != (row_sizes[bi], col_sizes[bj]):
                    raise ValueError("block shape mismatch")
                r, c = roff[bi], coff[bj]
                for (i, j), v in block.entries.items():
                    entries[(r + i, c + j)] = v
        return IntMatrix._trusted(roff[-1], coff[-1], entries)

    # -- basic algebra -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):  # pragma: no cover - matrices used as values, not keys
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return IntMatrix._trusted(self.rows, self.cols, out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix.zeros(self.rows, self.cols)
        return IntMatrix._trusted(self.rows, self.cols, {k: c * v for k, v in self.entries.items()})

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in mul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row: Dict[int, List[Tuple[int, int]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: Dict[Entry, int] = {}
        for (i, k), v in self.entries.items():
            for (j, w) in by_row.get(k, ()):
                key = (i, j)
                s = acc.get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return IntMatrix._trusted(self.rows, other.cols, acc)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(self.cols, self.rows,
                                  {(j, i): v for (i, j), v in self.entries.items()})

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product; index order is (self index, other index)."""
        r, c = other.rows, other.cols
        return IntMatrix._trusted(self.rows * r, self.cols * c, {
            (i * r + k, j * c + l): v * w
            for (i, j), v in self.entries.items() for (k, l), w in other.entries.items()})

    def direct_sum(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix.from_blocks([[self, None], [None, other]],
                                     [self.rows, other.rows], [self.cols, other.cols])

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def to_dense(self) -> List[List[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"IntMatrix({self.rows}x{self.cols}, {sorted(self.entries.items())})"

    # -- exact linear algebra ------------------------------------------

    def rank(self) -> int:
        """Rank over the rationals by fraction-free (Bareiss) elimination.

        Every entry below the pivots is a minor of the original matrix,
        so each division by the previous pivot is exact.
        """
        a = self.to_dense()
        r = 0
        prev = 1
        for col in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if a[i][col]), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            top = a[r]
            pv = top[col]
            for i in range(r + 1, self.rows):
                f = a[i][col]
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], top)]
            prev = pv
            r += 1
            if r == self.rows:
                break
        return r

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination.

        A zero pivot swaps in the first row below with a nonzero entry in
        its column, flipping the sign.  A lower row with a zero in the
        pivot column is only rescaled, and kept as it is when the pivot
        equals the previous one.
        """
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_dense()
        sign = 1
        prev = 1
        for k in range(n - 1):
            top = a[k]
            if not top[k]:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return 0
                top, a[swap] = a[swap], top
                a[k] = top
                sign = -sign
            pv = top[k]
            for i in range(k + 1, n):
                row = a[i]
                f = row[k]
                if f:
                    a[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
                elif pv != prev:
                    a[i] = [pv * x // prev for x in row]
            prev = pv
        return sign * a[n - 1][n - 1]

    def is_signed_permutation(self) -> bool:
        """Square, with one entry +-1 in each row and each column."""
        n, ents = self.rows, self.entries
        return (self.cols == n and len(ents) == n and len({i for i, _ in ents}) == n
                and len({j for _, j in ents}) == n
                and all(v == 1 or v == -1 for v in ents.values()))

    def integer_inverse(self) -> Optional["IntMatrix"]:
        """Inverse if it exists over Z (determinant a unit), else None.

        A signed permutation is inverted by its transpose.  Otherwise the
        Bareiss determinant must be +-1, and Gauss-Jordan with integer
        row operations (Euclid on each pivot column) reduces ``[A | I]``
        to ``[I | A^-1]``; every pivot is then +-1.
        """
        n = self.rows
        if self.cols != n:
            return None
        if self.is_signed_permutation():
            return self.transpose()
        if self.det() not in (1, -1):
            return None
        a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.to_dense())]
        for k in range(n):
            # Euclid: the entry of least size moves up and reduces the rest
            while any(a[i][k] for i in range(k + 1, n)):
                p = min((i for i in range(k, n) if a[i][k]), key=lambda i: abs(a[i][k]))
                a[k], a[p] = a[p], a[k]
                for i in range(k + 1, n):
                    q = a[i][k] // a[k][k]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            top = a[k]
            if top[k] < 0:
                a[k] = top = [-x for x in top]
            for i in range(n):
                if i != k and a[i][k]:
                    q = a[i][k]
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
        return IntMatrix._trusted(n, n, {(i, j): v for i, row in enumerate(a)
                                         for j, v in enumerate(row[n:]) if v})


def _hermite_pivots(vectors: List[List[int]], length: int) -> List[List[int]]:
    """Echelon generators of the lattice spanned by ``vectors``.

    Hermite-style gcd elimination: at each coordinate in turn, the vectors
    nonzero there are gcd-combined into one pivot and the remainders go on.
    """
    vecs = [v for v in vectors if any(v)]
    pivots: List[List[int]] = []
    for k in range(length):
        active = [v for v in vecs if v[k] != 0]
        if not active:
            continue
        vecs = [v for v in vecs if v[k] == 0]
        pivot = active[0]
        for other in active[1:]:
            while other[k] != 0:
                if abs(pivot[k]) > abs(other[k]):
                    pivot, other = other, pivot
                q = other[k] // pivot[k]
                other = [o - q * p for o, p in zip(other, pivot)]
            vecs.append(other)
        pivots.append(pivot)
    return pivots


def column_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the lattice spanned by the columns, as basis columns; for
    an idempotent matrix the column lattice is its image, a free direct
    summand."""
    basis = _hermite_pivots([[m.get(i, j) for i in range(m.rows)] for j in range(m.cols)], m.rows)
    return IntMatrix(m.rows, len(basis), {(i, j): v for j, col in enumerate(basis)
                                          for i, v in enumerate(col)})


def idempotent_splitting(p: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Basis ``B`` of ``im(p)`` and retraction ``R`` with ``R B = I`` and
    ``B R = p``.

    Valid over Z because an integer idempotent splits the free module
    into the images of ``p`` and ``1 - p``; the concatenated bases form
    a unimodular matrix.
    """
    if (p @ p) != p:
        raise ValueError("idempotent_splitting needs p^2 = p")
    b_im = column_lattice_basis(p)
    b_ker = column_lattice_basis(IntMatrix.identity(p.rows) - p)
    full = IntMatrix.from_blocks([[b_im, b_ker]], [p.rows],
                                 [b_im.cols, b_ker.cols])
    inv = full.integer_inverse()
    if inv is None:
        raise ValueError("idempotent does not split unimodularly")
    retraction = IntMatrix(b_im.cols, p.rows,
                           {(i, j): inv.get(i, j) for i in range(b_im.cols)
                            for j in range(p.rows) if inv.get(i, j)})
    return b_im, retraction


def lattice_member(gens: List[List[int]], target: List[int]) -> bool:
    """Membership of an integer vector in the lattice spanned by ``gens``:
    reduce the generators to echelon pivots, then divide the target
    through them exactly."""
    vec = list(target)
    if any(len(g) != len(vec) for g in gens if any(g)):
        raise ValueError("generator length mismatch")
    for pivot in _hermite_pivots(gens, len(vec)):
        col = next(i for i, v in enumerate(pivot) if v != 0)
        if vec[col] % pivot[col] != 0:
            return False
        q = vec[col] // pivot[col]
        vec = [v - q * p for v, p in zip(vec, pivot)]
    return not any(vec)


def symmetric_diagonalize(gram: IntMatrix) -> List[Fraction]:
    """Diagonal of a congruent diagonal form of a symmetric matrix over Q.

    Lagrange's algorithm: pivot on a nonzero diagonal entry; when the
    remaining diagonal vanishes but some off-diagonal entry survives, mix
    the two rows first (x -> x+y trick).  Returns the list of diagonal
    entries (zeros included for a degenerate form).

    The form is kept as sparse symmetric integer rows over the indices
    not yet pivoted, holding ``c`` times the form still to diagonalize,
    where ``c > 0`` is the size of the last pivot (1 at the start); a
    positive scale changes no zero pattern, so the pivots are those of
    the rational form.  The lowest index with a nonzero diagonal entry
    is taken at each step.  A pivot ``pv`` leaves as ``pv / c`` and
    takes the Schur complement at scale ``|pv|``: fraction-free, as in
    Bareiss, every entry is up to sign a minor of a congruent integer
    form, so each division by ``c`` is exact and the entries stay
    small.  Only the pairs of the pivot row's nonzero columns need more
    than a rescale.
    """
    if not gram.is_symmetric():
        raise ValueError("symmetric_diagonalize needs a symmetric matrix")
    rows: Dict[int, Dict[int, int]] = {i: {} for i in range(gram.rows)}
    for (i, j), v in gram.entries.items():
        rows[i][j] = v
    live = {i for i, r in rows.items() if i in r}
    c = 1

    def put(i: int, j: int, v: int) -> None:
        if v:
            rows[i][j] = v
        else:
            rows[i].pop(j, None)

    diag: List[Fraction] = []
    while rows:
        if live:
            pivot = min(live)
        else:
            i = min((i for i, r in rows.items() if r), default=None)
            if i is None:
                diag.extend(Fraction(0) for _ in rows)
                break
            ri = rows[i]
            j = min(ri)
            # x_i -> x_i + x_j; the diagonal is zero, so a_ii becomes 2 a_ij
            for k, v in rows[j].items():
                if k != i:
                    s = ri.get(k, 0) + v
                    put(i, k, s)
                    put(k, i, s)
            ri[i] = 2 * ri[j]
            pivot = i
        live.discard(pivot)
        prow = rows.pop(pivot)
        pv = prow.pop(pivot)
        diag.append(Fraction(pv, c))
        for k in prow:
            del rows[k][pivot]
        scale = abs(pv)
        if scale != c:  # pairs the pivot row misses only change scale
            for j, r in rows.items():
                for k in r:
                    if j not in prow or k not in prow:
                        r[k] = r[k] * scale // c
        s = 1 if pv > 0 else -1
        for j, ajp in prow.items():
            rj = rows[j]
            f = s * ajp
            for k, apk in prow.items():
                put(j, k, (scale * rj.get(k, 0) - f * apk) // c)
            if j in rj:
                live.add(j)
            else:
                live.discard(j)
        c = scale
    return diag
