import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klab import intmat
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


def reference_column_lattice_basis(m: IntMatrix) -> IntMatrix:
    """``column_lattice_basis`` as it was before it shared its elimination
    with ``lattice_member``, kept as a reference."""
    cols = [[m.get(i, j) for i in range(m.rows)] for j in range(m.cols)]
    cols = [c for c in cols if any(c)]
    basis = []
    for row in range(m.rows):
        active = [c for c in cols if c[row] != 0]
        rest = [c for c in cols if c[row] == 0]
        if not active:
            cols = rest
            continue
        pivot = active[0]
        for other in active[1:]:
            while other[row] != 0:
                if abs(pivot[row]) > abs(other[row]):
                    pivot, other = other, pivot
                q = other[row] // pivot[row]
                other = [o - q * p for o, p in zip(other, pivot)]
            rest.append(other)
        basis.append(pivot)
        cols = rest
    out = IntMatrix.zeros(m.rows, len(basis))
    for j, col in enumerate(basis):
        for i, v in enumerate(col):
            if v:
                out.entries[(i, j)] = v
    return out


def reference_lattice_member(gens, target) -> bool:
    """``lattice_member`` as it was before it shared its elimination with
    ``column_lattice_basis``, kept as a reference."""
    basis = [list(g) for g in gens if any(g)]
    vec = list(target)
    n = len(vec)
    if any(len(g) != n for g in basis):
        raise ValueError("generator length mismatch")
    pivots = []
    for col in range(n):
        active = [b for b in basis if b[col] != 0]
        rest = [b for b in basis if b[col] == 0]
        if not active:
            basis = rest
            continue
        pivot = active[0]
        for other in active[1:]:
            while other[col] != 0:
                if abs(pivot[col]) > abs(other[col]):
                    pivot, other = other, pivot
                q = other[col] // pivot[col]
                other = [o - q * p for o, p in zip(other, pivot)]
            rest.append(other)
        pivots.append(pivot)
        basis = rest
    for pivot in pivots:
        col = next(i for i, v in enumerate(pivot) if v != 0)
        if vec[col] % pivot[col] != 0:
            return False
        q = vec[col] // pivot[col]
        vec = [v - q * p for v, p in zip(vec, pivot)]
    return not any(vec)


@st.composite
def lattice_cases(draw):
    """Columns of length ``n`` mixing zero columns, free columns and integer
    combinations of a few base columns, and a target that is either free or
    such a combination (so both membership answers occur)."""
    n = draw(st.integers(0, 4))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    base = draw(st.lists(vector, max_size=3))
    combination = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)).map(
        lambda ks: [sum(k * b[i] for k, b in zip(ks, base)) for i in range(n)])
    cols = draw(st.lists(st.one_of(st.just([0] * n), vector, combination), max_size=5))
    return n, cols, draw(st.one_of(vector, combination))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattice_cases())
def test_hermite_elimination_matches_reference_copies(case):
    n, cols, target = case
    m = IntMatrix(n, len(cols), {(i, j): v for j, c in enumerate(cols) for i, v in enumerate(c)})
    # the very basis matrix, not only the same lattice: idempotent_splitting
    # builds its retraction, and so projected_torsion, from these columns
    assert column_lattice_basis(m) == reference_column_lattice_basis(m)
    assert lattice_member(cols, target) == reference_lattice_member(cols, target)


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


def _elementary_product(draw, n):
    """The rows of a product of elementary unimodular operations on ``I_n``:
    adding a multiple of one row to another, swapping two rows, negating one."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 10)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            c = draw(st.integers(-3, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


@st.composite
def inverse_cases(draw):
    """Squares with n <= 6: ``U D V`` with ``U``, ``V`` products of
    elementary operations and ``D`` the identity with one diagonal entry
    of +-1 (unimodular), +-2 (det +-2) or 0 (singular); and squares of
    small random entries."""
    n = draw(st.integers(0, 6))
    c = draw(st.sampled_from([1, -1, 2, -2, 0, None]))
    if n == 0 or c is None:
        return IntMatrix.from_rows([[draw(st.integers(-2, 2)) for _ in range(n)]
                                    for _ in range(n)])
    k = draw(st.integers(0, n - 1))
    d = IntMatrix(n, n, {(i, i): c if i == k else 1 for i in range(n)})  # drops a 0
    return _elementary_product(draw, n) @ d @ _elementary_product(draw, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inverse_cases())
def test_integer_inverse_exists_exactly_for_a_unit_determinant(m):
    inv = m.integer_inverse()
    if m.det() not in (1, -1):
        assert inv is None
    else:
        ident = IntMatrix.identity(m.rows)
        assert inv is not None and m @ inv == ident and inv @ m == ident


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


def fraction_det(m):
    """Gaussian elimination over Q, taking the first nonzero pivot below."""
    n = m.rows
    a = [[Fraction(v) for v in row] for row in m.to_dense()]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            factor = a[i][col] / a[col][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    assert det.denominator == 1
    return int(det)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 12),
       st.sampled_from(["random", "swap", "scale", "singular"]))
def test_det_matches_fraction_reference(seed, n, kind):
    rng = random.Random(seed)
    m = rand_matrix(rng, n, n, 0.1 + 0.9 * rng.random(), -3, 3)
    if kind == "swap" and n > 1:  # a zero leading entry with a nonzero one below it
        m.entries.pop((0, 0), None)
        m.entries[(rng.randrange(1, n), 0)] = rng.choice([-3, -2, -1, 1, 2, 3])
    elif kind == "scale" and n > 1:  # a nonzero pivot and a zero below it in its column
        m.entries[(0, 0)] = rng.choice([-3, -2, -1, 1, 2, 3])
        m.entries.pop((rng.randrange(1, n), 0), None)
    elif kind == "singular" and n > 1:  # force a dependent row
        last, mult = n - 1, rng.randint(-2, 2)
        for j in range(n):
            m.entries.pop((last, j), None)
            if mult * m.get(0, j) - m.get(1, j):
                m.entries[(last, j)] = mult * m.get(0, j) - m.get(1, j)
    assert m.det() == fraction_det(m)


def check_against_dense_lagrange(seed, n, hollow, bound):
    rng = random.Random(seed)
    g = rand_matrix(rng, n, n, rng.random(), -bound, bound)
    gram = g + g.transpose()
    if hollow:  # zero diagonal: every pivot goes through the x -> x+y mix
        gram = IntMatrix(n, n, {(i, j): v for (i, j), v in gram.entries.items() if i != j})
    diag = symmetric_diagonalize(gram)
    assert diag == dense_lagrange(gram)
    assert all(type(v) is Fraction for v in diag)


@PROPERTY
@given(st.integers(0, 2 ** 32), st.integers(0, 7), st.booleans())
def test_symmetric_diagonalize_matches_dense_lagrange(seed, n, hollow):
    check_against_dense_lagrange(seed, n, hollow, 2)


@PROPERTY
@given(st.integers(0, 2 ** 32), st.integers(0, 10), st.booleans())
def test_symmetric_diagonalize_matches_dense_lagrange_past_unit_pivots(seed, n, hollow):
    # entries up to 10 in size: pivots other than +-1 rescale the integer rows
    check_against_dense_lagrange(seed, n, hollow, 5)


def test_symmetric_diagonalize_keeps_its_rows_at_minor_size(monkeypatch):
    """On a positive definite form no x -> x+y mix happens, so each scaled
    pivot is a leading principal minor: at most the product of the diagonal
    (Hadamard).  Rows scaled by every pivot without the Bareiss division
    double their entries' bit length per pivot instead."""
    sizes = []

    def recording(*args):
        sizes.extend(abs(v) for v in args)
        return Fraction(*args)
    monkeypatch.setattr(intmat, "Fraction", recording)
    rng = random.Random(207)
    for n in range(1, 13):
        b = rand_matrix(rng, n, n, 0.8, -3, 3)
        gram = b.transpose() @ b + IntMatrix.identity(n)
        hadamard = 1
        for i in range(n):
            hadamard *= gram.get(i, i)
        sizes.clear()
        diag = symmetric_diagonalize(gram)
        assert diag == dense_lagrange(gram)
        assert max(sizes) <= hadamard
