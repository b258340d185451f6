import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klab.fixtures import rand_matrix
from klab.intmat import (IntMatrix, column_lattice_basis, idempotent_splitting,
                         lattice_member, sign, symmetric_diagonalize)


def random_unimodular(rng, n, steps=12):
    m = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = IntMatrix.identity(n)
        e.entries[(i, j)] = rng.randint(-2, 2)
        m = m @ e
    return m


def test_sign_exact_for_negative_exponents():
    assert sign(-1) == -1 and sign(-2) == 1 and sign(0) == 1 and sign(3) == -1
    assert all(isinstance(sign(n), int) for n in range(-5, 5))


def test_det_matches_cofactor_oracle():
    rng = random.Random(201)

    def cofactor_det(m):
        n = m.rows
        if n == 0:
            return 1
        if n == 1:
            return m.get(0, 0)
        total = 0
        for j in range(n):
            v = m.get(0, j)
            if v == 0:
                continue
            minor = IntMatrix(n - 1, n - 1)
            for (a, b), w in m.entries.items():
                if a == 0 or b == j:
                    continue
                minor.entries[(a - 1, b - 1 if b > j else b)] = w
            total += sign(j) * v * cofactor_det(minor)
        return total

    for _ in range(40):
        n = rng.randint(0, 4)
        m = rand_matrix(rng, n, n, 0.7, -3, 3)
        assert m.det() == cofactor_det(m)


def test_det_multiplicative():
    rng = random.Random(202)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, 0.7, -2, 2)
        b = rand_matrix(rng, n, n, 0.7, -2, 2)
        assert (a @ b).det() == a.det() * b.det()


def test_rank_and_inverse():
    rng = random.Random(203)
    for _ in range(30):
        n = rng.randint(1, 4)
        u = random_unimodular(rng, n)
        assert abs(u.det()) == 1
        assert u.rank() == n
        inv = u.integer_inverse()
        assert inv is not None and u @ inv == IntMatrix.identity(n)
    singular = IntMatrix.from_rows([[1, 2], [2, 4]])
    assert singular.rank() == 1
    assert singular.integer_inverse() is None
    two = IntMatrix.from_rows([[2]])
    assert two.integer_inverse() is None  # invertible over Q only


def test_symmetric_diagonalize_sylvester_invariance():
    rng = random.Random(204)
    for _ in range(25):
        n = rng.randint(1, 4)
        g = rand_matrix(rng, n, n, 0.8, -2, 2)
        gram = g + g.transpose()
        diag = symmetric_diagonalize(gram)
        pos = sum(1 for v in diag if v > 0)
        neg = sum(1 for v in diag if v < 0)
        # congruence by a random base change preserves the counts
        b = random_unimodular(rng, n)
        diag2 = symmetric_diagonalize(b.transpose() @ gram @ b)
        assert (pos, neg) == (sum(1 for v in diag2 if v > 0),
                              sum(1 for v in diag2 if v < 0))


def test_lattice_member():
    assert lattice_member([[2, 0], [0, 3]], [4, -3])
    assert not lattice_member([[2, 0], [0, 3]], [1, 0])
    assert lattice_member([[2, 4]], [-6, -12])
    assert not lattice_member([[2, 4]], [2, 2])
    assert lattice_member([], [0, 0])
    assert not lattice_member([], [1, 0])
    # a non-diagonal lattice: span{(1,1),(0,2)} contains (3,1) but not (0,1)
    assert lattice_member([[1, 1], [0, 2]], [3, 1])
    assert not lattice_member([[1, 1], [0, 2]], [0, 1])


def test_idempotent_splitting_randomized():
    rng = random.Random(205)
    for _ in range(30):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        e = IntMatrix.zeros(n, n)
        for i in range(r):
            e.entries[(i, i)] = 1
        u = random_unimodular(rng, n)
        p = u @ e @ u.integer_inverse()
        assert (p @ p) == p
        basis, retraction = idempotent_splitting(p)
        assert retraction @ basis == IntMatrix.identity(basis.cols)
        assert basis @ retraction == p
        assert basis.cols == r
    with pytest.raises(ValueError):
        idempotent_splitting(IntMatrix.from_rows([[2]]))


def test_column_lattice_basis_spans():
    rng = random.Random(206)
    for _ in range(25):
        m = rand_matrix(rng, 3, rng.randint(1, 4), 0.7, -2, 2)
        basis = column_lattice_basis(m)
        cols = [[m.get(i, j) for i in range(3)] for j in range(m.cols)]
        basis_cols = [[basis.get(i, j) for i in range(3)] for j in range(basis.cols)]
        # both lattices contain each other
        for c in cols:
            assert lattice_member(basis_cols, c)
        for c in basis_cols:
            assert lattice_member(cols, c)


def test_kron_and_blocks():
    a = IntMatrix.from_rows([[1, 2], [0, 1]])
    b = IntMatrix.from_rows([[3]])
    assert a.kron(b) == IntMatrix.from_rows([[3, 6], [0, 3]])
    blocks = IntMatrix.from_blocks([[a, None], [None, b]], [2, 1], [2, 1])
    assert blocks.get(2, 2) == 3 and blocks.get(0, 1) == 2


# -- the fast paths against the Fraction algorithms they replaced ----------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def fraction_integer_inverse(m):
    """Gauss-Jordan over Q, then integrality of every entry."""
    n = m.rows
    if m.cols != n:
        return None
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m.to_dense())]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    if any(v.denominator != 1 for row in aug for v in row[n:]):
        return None
    return IntMatrix.from_rows([[int(v) for v in row[n:]] for row in aug])


def fraction_rank(m):
    dense = [[Fraction(v) for v in row] for row in m.to_dense()]
    r = 0
    for col in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if dense[i][col] != 0), None)
        if pivot is None:
            continue
        dense[r], dense[pivot] = dense[pivot], dense[r]
        for i in range(r + 1, m.rows):
            factor = dense[i][col] / dense[r][col]
            dense[i] = [a - factor * b for a, b in zip(dense[i], dense[r])]
        r += 1
    return r


def dense_lagrange(gram):
    """Lagrange's algorithm on the dense Fraction matrix, pivots as in
    ``symmetric_diagonalize``."""
    n = gram.rows
    a = [[Fraction(v) for v in row] for row in gram.to_dense()]
    diag = []
    idx = list(range(n))
    while idx:
        pivot = next((i for i in idx if a[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in idx for j in idx if i != j and a[i][j] != 0), None)
            if pair is None:
                diag.extend(Fraction(0) for _ in idx)
                break
            i, j = pair
            for k in range(n):
                a[i][k] = a[i][k] + a[j][k]
            for k in range(n):
                a[k][i] = a[k][i] + a[k][j]
            pivot = i
        pv = a[pivot][pivot]
        diag.append(pv)
        idx.remove(pivot)
        for i in idx:
            if a[i][pivot] != 0:
                f = a[i][pivot] / pv
                for k in range(n):
                    a[i][k] = a[i][k] - f * a[pivot][k]
                for k in range(n):
                    a[k][i] = a[k][i] - f * a[k][pivot]
    return diag


@st.composite
def signed_permutations(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return IntMatrix(n, n, {(i, perm[i]): signs[i] for i in range(n)})


@st.composite
def near_signed_permutations(draw):
    """A signed permutation with one defect: a repeated column, an entry
    of 2 or a missing row."""
    m = draw(signed_permutations(max_n=6).filter(lambda m: m.rows >= 2))
    entries = dict(m.entries)
    (i, j), v = sorted(entries.items())[draw(st.integers(0, m.rows - 1))]
    defect = draw(st.sampled_from(["repeat", "two", "missing"]))
    if defect == "repeat":
        other = next(c for (r, c) in sorted(entries) if r != i)
        del entries[(i, j)]
        entries[(i, other)] = v
    elif defect == "two":
        entries[(i, j)] = 2 * v
    else:
        del entries[(i, j)]
    return IntMatrix(m.rows, m.cols, entries)


@st.composite
def square_matrices(draw):
    """Unimodular, singular, Q-only-invertible or plain random squares."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["unimodular", "singular", "q-only", "random"]))
    if kind == "unimodular":
        return random_unimodular(rng, n, steps=rng.randint(1, 20))
    if kind == "singular":
        m = rand_matrix(rng, n, n, 0.7, -3, 3)
        dup = rng.randrange(n)
        for j in range(n):  # row dup repeats row 0 (or is zero when dup == 0)
            m.entries.pop((dup, j), None)
            if dup and m.get(0, j):
                m.entries[(dup, j)] = m.get(0, j)
        return m
    if kind == "q-only":
        scale = IntMatrix.identity(n)
        scale.entries[(0, 0)] = rng.choice([2, -3])
        return random_unimodular(rng, n) @ scale @ random_unimodular(rng, n)
    return rand_matrix(rng, n, n, rng.random(), -2, 2)


@PROPERTY
@given(signed_permutations())
def test_integer_inverse_of_signed_permutation_is_transpose(m):
    assert m.integer_inverse() == m.transpose()


@PROPERTY
@given(st.one_of(near_signed_permutations(), square_matrices()))
def test_integer_inverse_matches_fraction_reference(m):
    assert m.integer_inverse() == fraction_integer_inverse(m)


@PROPERTY
@given(st.integers(0, 2 ** 32), st.integers(0, 5), st.integers(0, 5))
def test_rank_matches_fraction_reference(seed, rows, cols):
    rng = random.Random(seed)
    m = rand_matrix(rng, rows, cols, rng.random(), -3, 3)
    if rows > 1 and rng.random() < 0.5:  # force a dependent row
        for j in range(cols):
            m.entries.pop((rows - 1, j), None)
            if m.get(0, j) - m.get(1, j):
                m.entries[(rows - 1, j)] = m.get(0, j) - m.get(1, j)
    assert m.rank() == fraction_rank(m)


@PROPERTY
@given(st.integers(0, 2 ** 32), st.integers(0, 7), st.booleans())
def test_symmetric_diagonalize_matches_dense_lagrange(seed, n, hollow):
    rng = random.Random(seed)
    g = rand_matrix(rng, n, n, rng.random(), -2, 2)
    gram = g + g.transpose()
    if hollow:  # zero diagonal: every pivot goes through the x -> x+y mix
        gram = IntMatrix(n, n, {(i, j): v for (i, j), v in gram.entries.items() if i != j})
    diag = symmetric_diagonalize(gram)
    assert diag == dense_lagrange(gram)
    assert all(type(v) is Fraction for v in diag)
