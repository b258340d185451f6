import random
from fractions import Fraction

import pytest

from klab.chaincore import ChainComplex, ChainMap, dual_complex
from klab.errors import DegenerateForm
from klab.fixtures import rand_complex
from klab.intmat import IntMatrix
from klab.ltheory import (PoincareWitness, SymmetricForm,
                          UltraQuadraticComplex, degree_zero_form,
                          hyperbolic_form, lemmaA_check,
                          mult_hyperbolic_complex, mult_hyperbolic_form,
                          signature, sum_decomposition_witness,
                          symmetrized_dual, verify_ultraquadratic)


def test_mult_hyperbolic_form_examples():
    assert mult_hyperbolic_form(0).rank == 0
    one = mult_hyperbolic_form(1)
    assert one.gram == IntMatrix.from_rows([[1]])
    assert signature(one) == 1
    three = mult_hyperbolic_form(3)
    assert three.gram.is_symmetric() and abs(three.gram.det()) == 1
    assert signature(three) == 3


def test_trace_form_signature_through_six():
    for n in range(7):
        form = mult_hyperbolic_form(n)
        if n == 0:
            continue
        assert signature(form) == n


def test_signature_examples():
    assert signature(SymmetricForm(1, IntMatrix.from_rows([[1]]))) == 1
    assert signature(hyperbolic_form(1)) == 0
    with pytest.raises(DegenerateForm):
        signature(SymmetricForm(1, IntMatrix.zeros(1, 1)))


def test_sum_decomposition_small_ranks():
    for p in range(4):
        for q in range(4):
            if p + q <= 5:
                basis, target = sum_decomposition_witness(p, q)
                source = mult_hyperbolic_form(p + q)
                assert basis.transpose() @ source.gram @ basis == target.gram


def test_sum_decomposition_degenerate_edges():
    basis, target = sum_decomposition_witness(3, 0)
    assert basis == IntMatrix.identity(9)
    basis, target = sum_decomposition_witness(1, 1)
    assert target.rank == 4


def test_mult_hyperbolic_complex_point():
    D, psi = mult_hyperbolic_complex(ChainComplex.point())
    assert psi.mat(0) == IntMatrix.from_rows([[1]])


def test_mult_hyperbolic_complex_two_term():
    c = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    D, psi = mult_hyperbolic_complex(c)
    assert sorted(D.ranks.items()) == [(-1, 1), (0, 2), (1, 1)]
    psi.validate()
    for n in D.ranks:
        assert abs(psi.mat(n).det()) == 1
    assert symmetrized_dual(psi) == psi


def test_degree_zero_form_decomposition():
    rng = random.Random(51)
    for _ in range(30):
        c = rand_complex(rng, min_deg=rng.randint(-1, 0), max_len=3, max_rank=3)
        form = degree_zero_form(mult_hyperbolic_complex(c)[1])
        blocks = None
        for i in sorted(c.ranks, reverse=True):
            blk = mult_hyperbolic_form(c.rank(i)).gram.scale(-1 if i % 2 else 1)
            blocks = blk if blocks is None else blocks.direct_sum(blk)
        assert form.gram == blocks


def test_lemmaA_examples():
    assert lemmaA_check(ChainComplex.point()).signature == 1
    rep = lemmaA_check(ChainComplex({0: 3, 1: 2}, {}))
    assert rep.ok() and rep.signature == 1
    rep = lemmaA_check(ChainComplex({0: 1, 1: 1, 2: 1}, {}))
    assert rep.ok() and rep.signature == 1


def test_lemmaA_randomized():
    rng = random.Random(52)
    for _ in range(60):
        c = rand_complex(rng, min_deg=rng.randint(-1, 0), max_len=4, max_rank=3)
        rep = lemmaA_check(c)
        assert rep.ok(), (c.ranks, rep)


def test_verify_ultraquadratic_hyperbolic_form():
    c = ChainComplex({0: 2})
    alpha = ChainMap(dual_complex(c), c, 0,
                     {0: IntMatrix.from_rows([[0, 1], [0, 0]])})
    rep = verify_ultraquadratic(UltraQuadraticComplex(c, alpha))
    assert rep.ok()


def test_verify_ultraquadratic_failure():
    c = ChainComplex({0: 1})
    bad = ChainMap(dual_complex(c), c, 0, {0: IntMatrix.from_rows([[1]])})
    rep = verify_ultraquadratic(UltraQuadraticComplex(c, bad))
    assert not rep.ok()
    assert any("symmetrization" in f for f in rep.failures())


def test_verify_ultraquadratic_with_witness():
    from klab.chaincore import ChainHomotopy
    c = ChainComplex({0: 2})
    alpha = ChainMap(dual_complex(c), c, 0,
                     {0: IntMatrix.from_rows([[0, 1], [0, 0]])})
    sigma = alpha + symmetrized_dual(alpha)
    inv_mat = sigma.mat(0).integer_inverse()
    inverse = ChainMap(c, dual_complex(c), 0, {0: inv_mat}, check=False)
    h = ChainHomotopy(inverse.compose(sigma), ChainMap.identity(dual_complex(c)), {})
    k = ChainHomotopy(sigma.compose(inverse), ChainMap.identity(c), {})
    uq = UltraQuadraticComplex(c, alpha, PoincareWitness(inverse, h, k))
    rep = verify_ultraquadratic(uq)
    assert rep.ok()


def test_psi_c_symmetry_randomized():
    rng = random.Random(53)
    for _ in range(30):
        c = rand_complex(rng, min_deg=0, max_len=3, max_rank=3)
        D, psi = mult_hyperbolic_complex(c)
        assert symmetrized_dual(psi) == psi
        for n in D.ranks:
            assert psi.mat(n).integer_inverse() is not None
