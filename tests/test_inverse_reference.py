"""``ChainMap.integer_inverse`` against the per-degree inverse it replaced.

A degree-``k`` map holds one total matrix whose blocks ``C_n -> D_{n+k}``
sit in disjoint rows and columns, so the total is invertible over Z
exactly when every block is, and its inverse holds the blocks' inverses.
The library therefore inverts the total with ``IntMatrix.integer_inverse``.
The per-degree loop it used before is kept below as the reference, and a
derandomized differential test compares the two on generated graded maps:
degrees in other orders, shifted degrees, and signed-permutation,
unimodular, singular and non-square blocks.
"""

import random

import pytest

from klab.chaincore import ChainComplex, ChainMap
from klab.errors import InputError
from klab.gring import GRComplex
from klab.groups import FiniteTableGroup
from klab.intmat import IntMatrix


def degreewise_inverse(f: ChainMap):
    """The inverse of ``f`` block by block, or None when a block is not
    unimodular (a block of a degree that only one end has is not square)."""
    k = f.degree
    mats = {n + k: f.mat(n).integer_inverse()
            for n in set(f.source.ranks) | {n - k for n in f.target.ranks}}
    if None in mats.values():
        return None
    return ChainMap(f.target, f.source, -k, mats, check=False)


def signed_permutation(rng: random.Random, n: int) -> IntMatrix:
    cols = rng.sample(range(n), n)
    return IntMatrix(n, n, {(i, j): rng.choice((-1, 1)) for i, j in enumerate(cols)})


def unimodular(rng: random.Random, n: int) -> IntMatrix:
    """A signed permutation under a few integer row operations."""
    rows = signed_permutation(rng, n).to_dense()
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def block(rng: random.Random, rows: int, cols: int):
    """``(kind, block)``: a generated block of that kind."""
    if rows != cols:
        return "non-square", IntMatrix(rows, cols, {
            (i, j): rng.randint(-2, 2) for i in range(rows) for j in range(cols)})
    kind = rng.choices(("signed-permutation", "unimodular", "singular", "random"),
                       (3, 3, 1, 1))[0]
    if kind == "signed-permutation":
        return kind, signed_permutation(rng, rows)
    if kind == "unimodular":
        return kind, unimodular(rng, rows)
    if kind == "singular":  # a repeated row
        dense = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows - 1)]
        return kind, IntMatrix.from_rows(dense + [dense[0]] if dense else [[0]])
    return kind, IntMatrix(rows, cols, {(i, j): rng.randint(-2, 2)
                                        for i in range(rows) for j in range(cols)})


def graded_map(rng: random.Random):
    """A degree-``k`` graded map (not checked to be a chain map: the
    inverse reads only its total), with the kinds of its blocks."""
    degrees = rng.sample(range(-2, 3), rng.randint(1, 4))
    source = {n: rng.randint(1, 3) for n in degrees}
    k = rng.randint(-2, 2)
    target = {n + k: r for n, r in source.items()}
    if rng.random() < 0.2:  # another rank, or another degree, at one end
        n = rng.choice(list(target))
        target[n] += rng.choice((-1, 1))
    if rng.random() < 0.1:
        target[max(target) + 1] = 1
    order = list(target)
    rng.shuffle(order)
    S = ChainComplex(source, check=False)
    T = ChainComplex({n: target[n] for n in order}, check=False)
    kinds, mats = [], {}
    for n in S.ranks:
        if T.rank(n + k):
            kind, mats[n] = block(rng, T.rank(n + k), S.rank(n))
            kinds.append(kind)
    return ChainMap(S, T, k, mats, check=False), kinds


def test_integer_inverse_matches_the_degreewise_reference():
    rng = random.Random(3303)
    seen = {"inverted": 0, "signed-permutation": 0, "refused": 0}
    kinds = set()
    for _ in range(600):
        f, block_kinds = graded_map(rng)
        kinds.update(block_kinds)
        got, want = f.integer_inverse(), degreewise_inverse(f)
        if want is None:
            assert got is None
            seen["refused"] += 1
            continue
        assert got is not None
        assert (got.source, got.target, got.degree) == (f.target, f.source, -f.degree)
        assert got.total == want.total
        assert got.compose(f).total == IntMatrix.identity(f.source.size)
        seen["signed-permutation" if f.total.is_signed_permutation() else "inverted"] += 1
    assert min(seen.values()) >= 100, seen
    assert kinds == {"signed-permutation", "unimodular", "singular", "random", "non-square"}


def test_integer_inverse_over_the_group_ring_is_refused():
    c = GRComplex.constant(FiniteTableGroup.cyclic(2), ChainComplex({0: 2, 1: 1}))
    with pytest.raises(InputError, match=r"over Z\[G\]"):
        ChainMap.identity(c).integer_inverse()
