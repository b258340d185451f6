"""Computable group backends: finite tables, free abelian, and free groups.

Elements are canonical hashable values (table index / int vector /
reduced word), so equality is exact everywhere.  Backends are immutable
after construction and all operations are pure.
"""

from __future__ import annotations

from functools import cached_property
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import HorizonExceeded, InputError, UndecidableBackend

DEFAULT_BALL_HORIZON = 12
DEFAULT_BALL_CAP = 10 ** 6


class GroupBackend:
    """Common interface; concrete element types differ per kind."""

    kind: str

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def elements(self) -> Optional[List[object]]:
        """All elements for finite backends, None otherwise."""
        return None

    def canonical(self, a):
        """Validate and canonicalize an element representation."""
        raise NotImplementedError


class FiniteTableGroup(GroupBackend):
    """Finite group given by a 0-based multiplication table."""

    kind = "finite-table"

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G"):
        n = len(table)
        self.name = name
        self.order = n
        self.table = [list(map(int, row)) for row in table]
        for i, row in enumerate(self.table):
            if len(row) != n or any(x < 0 or x >= n for x in row):
                raise InputError(f"bad multiplication table row {i}")
        # locate identity
        e = None
        for i in range(n):
            if all(self.table[i][j] == j and self.table[j][i] == j for j in range(n)):
                e = i
                break
        if e is None:
            raise InputError("table has no identity element")
        self._e = e
        self._inv = [0] * n
        for i in range(n):
            j = next((j for j in range(n) if self.table[i][j] == e), None)
            if j is None or self.table[j][i] != e:
                raise InputError(f"element {i} has no two-sided inverse")
            self._inv[i] = j
        # (ab)c = a(bc) for every c: the row of ab is the row of a read along the row of b
        table = self.table
        for row_a in table:
            for ab, row_b in zip(row_a, table):
                if table[ab] != [row_a[x] for x in row_b]:
                    raise InputError("multiplication table is not associative")

    def identity(self) -> int:
        return self._e

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def elements(self) -> List[int]:
        return list(range(self.order))

    def canonical(self, a) -> int:
        i = int(a)
        if not 0 <= i < self.order:
            raise InputError(f"element {a} out of range for {self.name}")
        return i

    @staticmethod
    def cyclic(n: int) -> "FiniteTableGroup":
        return FiniteTableGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                                name=f"C{n}")

    @staticmethod
    def dihedral(n: int) -> "FiniteTableGroup":
        """Dihedral group of order 2n; element 2k is rotation, 2k+1 reflection."""

        def enc(rot: int, ref: int) -> int:
            return 2 * (rot % n) + ref

        def mul(a: int, b: int) -> int:
            r1, s1 = a // 2, a % 2
            r2, s2 = b // 2, b % 2
            if s1 == 0:
                return enc(r1 + r2, s2)
            return enc(r1 - r2, 1 - s2)

        return FiniteTableGroup([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)],
                                name=f"D{n}")


class FreeAbelianGroup(GroupBackend):
    """Z^rank with elements as integer tuples."""

    kind = "free-abelian"

    def __init__(self, rank: int):
        if rank < 0:
            raise InputError("negative rank")
        self.rank = rank

    def identity(self) -> Tuple[int, ...]:
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def canonical(self, a) -> Tuple[int, ...]:
        t = tuple(int(x) for x in a)
        if len(t) != self.rank:
            raise InputError(f"vector length {len(t)} != rank {self.rank}")
        return t


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FreeGroup(GroupBackend):
    """Free group on ``rank`` letters; elements are reduced words.

    Words are strings over a..z with capitals as inverses; the empty
    word is the identity.
    """

    kind = "free"

    def __init__(self, rank: int):
        if not 0 <= rank <= 26:
            raise InputError("free rank must be between 0 and 26")
        self.rank = rank

    @staticmethod
    def _reduce(word: str) -> str:
        out: List[str] = []
        for ch in word:
            if out and out[-1] != ch and out[-1].lower() == ch.lower():
                out.pop()
            else:
                out.append(ch)
        return "".join(out)

    def identity(self) -> str:
        return ""

    def mul(self, a: str, b: str) -> str:
        return self._reduce(a + b)

    def inv(self, a: str) -> str:
        return a[::-1].swapcase()

    def canonical(self, a) -> str:
        w = str(a)
        for ch in w:
            if ch.lower() not in _LETTERS[: self.rank]:
                raise InputError(f"letter {ch!r} outside rank-{self.rank} alphabet")
        if self._reduce(w) != w:
            raise InputError(f"word {w!r} is not reduced")
        return w


class _Value:
    """A value: ``__init__`` sets its fields once, through ``_freeze``; no
    assignment follows, and ``==`` and ``hash`` read the fields in order."""

    def _freeze(self, **fields):
        self.__dict__.update(fields, _key=tuple(fields.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


class FiniteSubset(_Value):
    """Deduplicated finite subset of a group; ``S`` sets carry the identity."""

    def __init__(self, backend: GroupBackend, elements: Tuple[object, ...]):
        self._freeze(backend=backend, elements=elements)

    @staticmethod
    def of(backend: GroupBackend, elements: Iterable[object],
           require_identity: bool = False) -> "FiniteSubset":
        canon = []
        seen = set()
        for x in elements:
            c = backend.canonical(x)
            if c not in seen:
                seen.add(c)
                canon.append(c)
        if require_identity and backend.identity() not in seen:
            raise InputError("subset must contain the identity")
        return FiniteSubset(backend, tuple(sorted(canon, key=repr)))

    @cached_property
    def members(self) -> FrozenSet[object]:
        return frozenset(self.elements)

    @cached_property
    def products(self) -> Tuple[Tuple[object, object, object], ...]:
        """``(g, h, gh)`` for every ``g, h`` with ``gh`` in the subset, ``g`` outer."""
        mul, members = self.backend.mul, self.members
        return tuple((g, h, gh) for g in self.elements for h in self.elements
                     if (gh := mul(g, h)) in members)

    def is_symmetric(self) -> bool:
        return all(self.backend.inv(x) in self.members for x in self.elements)

    def __contains__(self, x) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def ball(backend: GroupBackend, S: FiniteSubset, n: int,
         cap: int = DEFAULT_BALL_CAP) -> FiniteSubset:
    """All products of at most ``2n`` factors from ``S u S^-1``.

    Contains the identity (empty product); closed under inversion when
    ``S`` is symmetric.  Raises ``HorizonExceeded`` past a radius of
    ``DEFAULT_BALL_HORIZON`` or the element cap.
    """
    if n < 0:
        raise InputError("negative radius")
    if n > DEFAULT_BALL_HORIZON:
        raise HorizonExceeded(f"ball radius {n} exceeds horizon {DEFAULT_BALL_HORIZON}")
    letters = set(S.elements) | {backend.inv(x) for x in S.elements}
    current: Set[object] = {backend.identity()}
    out: Set[object] = set(current)
    for _ in range(2 * n):
        current = {backend.mul(x, s) for x in current for s in letters}
        out |= current
        if len(out) > cap:
            raise HorizonExceeded(f"ball size exceeds cap {cap}")
    return FiniteSubset.of(backend, out)


class SubgroupDescription(_Value):
    """Subgroup given by generators over a backend."""

    def __init__(self, backend: GroupBackend, generators: Tuple[object, ...]):
        self._freeze(backend=backend, generators=generators)

    @staticmethod
    def of(backend: GroupBackend, generators: Iterable[object]) -> "SubgroupDescription":
        return SubgroupDescription(backend, tuple(backend.canonical(g) for g in generators))

    def closure(self, cap: int = DEFAULT_BALL_CAP) -> FrozenSet[object]:
        """Element set; only computable for finite-table backends."""
        if self.backend.kind != "finite-table":
            raise UndecidableBackend("closure needs a finite-table backend")
        e = self.backend.identity()
        out = {e}
        frontier = [e]
        gens = list(self.generators) + [self.backend.inv(g) for g in self.generators]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.backend.mul(x, g)
                if y not in out:
                    out.add(y)
                    frontier.append(y)
                    if len(out) > cap:
                        raise HorizonExceeded("subgroup closure exceeded cap")
        return frozenset(out)

    def free_abelian_rank(self) -> int:
        """Rank of the subgroup of Z^n spanned by the generators."""
        if self.backend.kind != "free-abelian":
            raise UndecidableBackend("rank needs a free-abelian backend")
        from .intmat import IntMatrix

        if not self.generators:
            return 0
        rows = [list(g) for g in self.generators]
        return IntMatrix.from_rows(rows).rank()

    def is_trivial(self) -> bool:
        e = self.backend.identity()
        return all(g == e for g in self.generators)


class FamilyPredicate(_Value):
    """Family of subgroups: trivial, finite, virtually-cyclic or custom-list.

    ``f2`` turns the family F into F_2: a subgroup belongs when it
    contains an F-member of index at most 2 (the closure the quadratic
    side of the transfer machinery needs).  ``custom`` holds frozensets
    of elements of a finite-table backend.
    """

    def __init__(self, kind: str, f2: bool = False, custom: Tuple[FrozenSet[object], ...] = ()):
        if kind not in ("trivial", "finite", "virtually-cyclic", "custom-list"):
            raise InputError(f"unknown family kind {kind!r}")
        self._freeze(kind=kind, f2=f2, custom=custom)


def _index2_subgroups(backend: FiniteTableGroup, elements: FrozenSet[int]) -> List[FrozenSet[int]]:
    """All subgroups of index exactly 2 of a finite subgroup ``H``.

    The subgroup ``Q`` generated by squares contains the commutator
    subgroup, so ``H / Q`` is an F_2-vector space and the index-2 subgroups
    are the kernels of its nonzero functionals.  Each element's coordinates
    are read in a greedy basis: an element outside the span so far joins
    the basis, and its products with the span get its bit.
    """
    square = SubgroupDescription.of(backend, [backend.mul(h, h) for h in elements]).closure()
    coords = dict.fromkeys(square, 0)  # element -> its coordinates as a bit mask
    bit = 1
    for x in sorted(elements):
        if x not in coords:
            coords.update([(backend.mul(x, q), c | bit) for q, c in coords.items()])
            bit <<= 1
    return [frozenset(h for h, c in coords.items() if not (c & f).bit_count() % 2)
            for f in range(1, bit)]


def _member_plain(F: FamilyPredicate, H: SubgroupDescription) -> bool:
    backend = H.backend
    if F.kind == "custom-list":
        if backend.kind != "finite-table":
            raise UndecidableBackend("custom-list families need finite-table backends")
        return H.closure() in set(F.custom)
    if backend.kind == "finite-table":
        if F.kind == "trivial":
            return len(H.closure()) == 1
        # every subgroup of a finite group is finite, hence virtually cyclic
        return True
    if backend.kind == "free-abelian":
        rank = H.free_abelian_rank()
        if F.kind == "trivial" or F.kind == "finite":
            return rank == 0
        return rank <= 1
    # free backend
    if F.kind == "trivial" or F.kind == "finite":
        return H.is_trivial()
    if H.is_trivial():
        return True
    raise UndecidableBackend(
        "virtually-cyclic membership is not decided for free groups here")


def family_member(F: FamilyPredicate, H: SubgroupDescription) -> bool:
    """Membership of ``H`` in the family, honouring the ``f2`` closure."""
    if _member_plain(FamilyPredicate(F.kind, False, F.custom), H):
        return True
    if not F.f2:
        return False
    backend = H.backend
    if backend.kind == "finite-table":
        elements = H.closure()
        for K in _index2_subgroups(backend, elements):  # index exactly 2
            if _member_plain(FamilyPredicate(F.kind, False, F.custom),
                             SubgroupDescription.of(backend, sorted(K))):
                return True
        return False
    if backend.kind == "free-abelian":
        # finite-index subgroups of Z^n have the same rank, so the plain
        # answer is already final
        return False
    raise UndecidableBackend("f2 closure is only decided for finite-table "
                             "and free-abelian backends")


def validate_family_closure(F: FamilyPredicate, backend: FiniteTableGroup) -> List[str]:
    """Check a custom-list family is conjugation- and subgroup-closed.

    Returns a list of violations (empty when the family axioms hold on
    the listed subgroups).
    """
    if F.kind != "custom-list":
        return []
    violations = []
    members = set(F.custom)
    for sub in F.custom:
        for g in backend.elements():
            conj = frozenset(backend.mul(backend.mul(g, h), backend.inv(g)) for h in sub)
            if conj not in members:
                violations.append(f"conjugate of {sorted(sub)} by {g} missing")
        for h in sub:
            cyc = SubgroupDescription.of(backend, [h]).closure()
            if cyc not in members:
                violations.append(f"cyclic subgroup of {h} missing from family")
    return sorted(set(violations))
