import random
from fractions import Fraction

import pytest

from klab.actions import DSLambdaMetric
from klab.chaincore import (ChainComplex, ChainHomotopy, ChainMap,
                            dual_complex, flip_map, mu_map, tensor_complex)
from klab.errors import HorizonExceeded, HypothesisViolation, InputError, SupportEscape
from klab.fixtures import (domination_instance, path_chain_domination,
                           rand_matrix, z2_chain_fixture,
                           z2_nontrivial_chain_fixture, z2_quadratic_alpha,
                           z2_swap_action, z2_unit_alpha)
from klab.gring import GRComplex, GRMatrix
from klab.groups import FiniteSubset, FiniteTableGroup
from klab.intmat import IntMatrix
from klab.ltheory import verify_ultraquadratic
from klab.transfer import (EquivariantChainMap, certify_dslambda,
                           expanded_ultraquadratic,
                           finite_replacement, functoriality_witness,
                           induce_chain_action, invert_equivariant, k_transfer,
                           l_symmetric_complex, l_transfer,
                           l_transfer_recovers_form, module_tensor,
                           projected_torsion,
                           replacement_control_growth, tr, whitehead_transfer)


def z2():
    return FiniteTableGroup.cyclic(2)


# -- the transfer map -----------------------------------------------------------


def test_tr_identity_is_identity():
    pcx = z2_chain_fixture()
    ident = GRMatrix.constant(z2(), IntMatrix.identity(2))
    out = tr(ident, pcx)
    src = module_tensor(2, pcx.P)
    for n in src.ranks:
        assert out.letters[0].mat(n) == IntMatrix.identity(src.rank(n))


def test_tr_trivial_complex_recovers_psi():
    from klab.fixtures import z2_swap_action
    act = z2_swap_action()
    t_complex = ChainComplex.point("p")
    ident = ChainMap.identity(t_complex)
    from klab.transfer import HomotopySChainComplex
    homs = {(g, h): ChainHomotopy(ident, ident, {})
            for g in [0, 1] for h in [0, 1]}
    trivial = HomotopySChainComplex(z2(), act.space, act.S, t_complex,
                                    {0: ident, 1: ident}, homs,
                                    point_action=act)
    rng = random.Random(71)
    psi = GRMatrix(z2(), 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
    out = tr(psi, trivial)
    for g in [0, 1]:
        assert out.letters[g].mat(0) == psi.letter(g)


def test_tr_blocks_match_hand_expansion():
    pcx = z2_chain_fixture()
    rng = random.Random(72)
    psi = GRMatrix(z2(), 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
    out = tr(psi, pcx)
    for g in [0, 1]:
        for n in pcx.P.ranks:
            assert out.letters[g].mat(n) == psi.letter(g).kron(pcx.phi[g].mat(n))


def test_tr_support_escape():
    pcx = z2_chain_fixture()
    z4 = FiniteTableGroup.cyclic(4)
    psi = GRMatrix(z4, 1, 1, {2: IntMatrix.from_rows([[1]])})
    with pytest.raises((SupportEscape, Exception)):
        tr(psi, pcx)


# -- Lemma 6.3 -------------------------------------------------------------------


def test_functoriality_strict_for_genuine_actions():
    pcx = z2_chain_fixture()  # genuine chain action: all homotopies zero
    rng = random.Random(73)
    psi = GRMatrix(z2(), 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
    psi2 = GRMatrix(z2(), 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
    witness = functoriality_witness(psi2, psi, pcx)
    assert witness.is_zero()
    assert tr(psi2, pcx).compose(tr(psi, pcx)) == tr(psi2 @ psi, pcx)


def test_functoriality_nontrivial_homotopy_exact():
    rng = random.Random(74)
    for trial in range(25):
        pcx = z2_nontrivial_chain_fixture(rng)
        psi = GRMatrix(z2(), 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
        psi2 = GRMatrix(z2(), 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
        functoriality_witness(psi2, psi, pcx)  # raises on any sign defect


def test_functoriality_witness_supported_on_e_letters():
    pcx = z2_chain_fixture()
    rng = random.Random(75)
    psi = GRMatrix(z2(), 1, 1, {0: IntMatrix.from_rows([[3]])})
    psi2 = GRMatrix(z2(), 1, 1, {0: IntMatrix.from_rows([[2]])})
    witness = functoriality_witness(psi2, psi, pcx)
    assert witness.is_zero()


# -- finite replacement -----------------------------------------------------------


def test_finite_replacement_identity_families():
    rng = random.Random(76)
    for _ in range(30):
        C, D, i, r, h = domination_instance(rng, rng.randint(0, 2))
        res = finite_replacement(C, D, i, r, h)
        assert res.ok(), res.checks


def test_finite_replacement_iso_case():
    rng = random.Random(77)
    D = ChainComplex({0: 2, 1: 1}, {1: IntMatrix.from_rows([[1], [0]])})
    ident = ChainMap.identity(D)
    res = finite_replacement(D, D, ident, ident,
                             ChainHomotopy(ident, ident, {}))
    assert res.ok()
    # P is isomorphic to D up to the stabilization bookkeeping
    assert res.P.rank(0) == D.rank(0)
    # D carries no positions, so there is no displacement to measure
    from klab.control import ControlSpace
    with pytest.raises(InputError):
        replacement_control_growth(res, ControlSpace.from_matrix(["z"], [[0]]))


def test_finite_replacement_path_fixture_control():
    space, C, D, i, r, h = path_chain_domination(9, 4)
    res = finite_replacement(C, D, i, r, h)
    assert res.ok()
    # control growth <= (N + 2) * eps on the certified fixture
    eps = Fraction(0)
    for m, src, tgt in ((i.total, C, D), (r.total, D, C), (h.total, C, C), (C.d_total, C, C)):
        for (a, b) in m.entries:
            eps = max(eps, space.d(tgt.pos_total[a], src.pos_total[b]))
    growth = replacement_control_growth(res, space)
    N = D.hi
    assert growth <= (N + 2) * eps, (growth, eps)


def test_finite_replacement_rejects_bad_input():
    space, C, D, i, r, h = path_chain_domination(9, 4)
    spoiled = {n: IntMatrix(m.rows, m.cols, dict(m.entries)) for n, m in h.mats.items()}
    block = spoiled[0]
    block.entries[(0, 0)] = block.get(0, 0) + 1
    bad = ChainHomotopy(r.compose(i), ChainMap.identity(C), spoiled)
    assert not bad.holds()
    with pytest.raises(InputError):
        finite_replacement(C, D, i, r, bad)


def _path_flip_action_data():
    """Z/2 flipping the 9-point path, on the chain level."""
    space, C, D, i, r, h = path_chain_domination(9, 4)
    backend = z2()
    n = 9
    flip0 = IntMatrix.zeros(n, n)
    for t in range(n):
        flip0.entries[(n - 1 - t, t)] = 1
    flip1 = IntMatrix.zeros(n - 1, n - 1)
    for t in range(n - 1):
        flip1.entries[(n - 2 - t, t)] = -1
    phi_s = ChainMap(C, C, 0, {0: flip0, 1: flip1})
    ident = ChainMap.identity(C)
    phi_c = {0: ident, 1: phi_s}
    H_c = {(0, 0): ChainHomotopy(ident, ident, {}),
           (0, 1): ChainHomotopy(phi_s, phi_s, {}),
           (1, 0): ChainHomotopy(phi_s, phi_s, {}),
           (1, 1): ChainHomotopy(phi_s.compose(phi_s), ident, {})}
    return space, C, D, i, r, h, backend, phi_c, H_c


def test_induced_chain_action_on_replacement():
    # conjugate the Z/2 involution of the path through the replacement
    space, C, D, i, r, h, backend, phi_c, H_c = _path_flip_action_data()
    S = FiniteSubset.of(backend, [0, 1])
    repl = finite_replacement(C, D, i, r, h)
    assert repl.ok()
    chain = induce_chain_action(repl, backend, space, S, phi_c, H_c)
    chain.validate()


def test_induced_chain_action_when_fg_is_not_identity():
    # on generic dominations f o g differs from id_P; the induced homotopy
    # for inverse letter pairs must close that gap through k
    rng = random.Random(86)
    backend = z2()
    S = FiniteSubset.of(backend, [0, 1])
    built = 0
    while built < 5:
        C, D, i, r, h = domination_instance(rng, rng.randint(0, 2))
        repl = finite_replacement(C, D, i, r, h)
        if repl.f.compose(repl.g) == ChainMap.identity(repl.P):
            continue
        built += 1
        ident = ChainMap.identity(C)
        phi_c = {0: ident, 1: ident}  # trivial chain action: still exercises
        H_c = {(g1, g2): ChainHomotopy(ident, ident, {})
               for g1 in [0, 1] for g2 in [0, 1]}
        from klab.control import ControlSpace
        dummy = ControlSpace.from_matrix(["z"], [[0]])
        chain = induce_chain_action(repl, backend, dummy, S, phi_c, H_c)
        chain.validate()


def test_replacement_feeds_k_transfer_end_to_end():
    # domination -> finite replacement -> induced chain action -> transfer
    space, C, D, i, r, h, backend, phi_c, H_c = _path_flip_action_data()
    S = FiniteSubset.of(backend, [0, 1])
    repl = finite_replacement(C, D, i, r, h)
    chain = induce_chain_action(repl, backend, space, S, phi_c, H_c)
    # point action: the flip on the face control space of the path
    coords = {p: space.d("p0", p) for p in space.points}
    flip_map_pts = {p: min(space.points, key=lambda q: (abs(coords[q]
                    - (coords["p8"] - coords[p])), repr(q)))
                    for p in space.points}
    from klab.actions import HomotopySAction
    act = HomotopySAction.from_genuine(
        backend, space, S,
        {0: {p: p for p in space.points}, 1: flip_map_pts})
    chain.point_action = act
    alpha, alpha_inv = z2_unit_alpha()
    result = k_transfer(alpha, alpha_inv, chain, Fraction(1, 4))
    assert result.certified(), (result.certificate, result.target_bound)
    rep = projected_torsion(result)
    # the projected complex has idempotent top degree: restrict to the free
    # invariant when possible, else the representative determinant still
    # matches the input unit exactly
    alpha_gr = GRMatrix(backend, 1, 1, dict(alpha.letters))
    assert rep.det() == alpha_gr.det()


# -- K-transfer --------------------------------------------------------------------


def test_k_transfer_certificate_and_projection():
    pcx = z2_chain_fixture()
    alpha, alpha_inv = z2_unit_alpha()
    result = k_transfer(alpha, alpha_inv, pcx, Fraction(1, 2))
    assert result.certified()
    assert result.certificate.bound <= Fraction(3, 2)
    rep = projected_torsion(result)
    alpha_gr = GRMatrix(z2(), 1, 1, dict(alpha.letters))
    assert rep.det() == alpha_gr.det()


def test_k_transfer_identity_alpha():
    pcx = z2_chain_fixture()
    ident = GRMatrix.constant(z2(), IntMatrix.identity(2))
    result = k_transfer(ident, ident, pcx, Fraction(1))
    assert result.h.is_zero() and result.k.is_zero()
    rep = projected_torsion(result)
    assert rep.det() == {0: 1}


def test_k_transfer_nontrivial_homotopies():
    rng = random.Random(79)
    pcx = z2_nontrivial_chain_fixture(rng)
    alpha, alpha_inv = z2_unit_alpha()
    result = k_transfer(alpha, alpha_inv, pcx, Fraction(1, 4))
    assert result.certified(), (result.certificate, result.target_bound)
    rep = projected_torsion(result)
    alpha_gr = GRMatrix(z2(), 1, 1, dict(alpha.letters))
    assert rep.det() == alpha_gr.det()


def test_k_transfer_rejects_non_inverse():
    pcx = z2_chain_fixture()
    alpha, _ = z2_unit_alpha()
    two = GRMatrix(z2(), 1, 1, {0: IntMatrix.from_rows([[2]])})
    with pytest.raises(InputError):
        k_transfer(alpha, two, pcx, Fraction(1))


def test_k_transfer_dslambda_cross_check():
    # the certificate bound really bounds the metric on sampled support pairs
    pcx = z2_chain_fixture()
    alpha, alpha_inv = z2_unit_alpha()
    result = k_transfer(alpha, alpha_inv, pcx, Fraction(1, 2))
    act = pcx.point_action
    metric = DSLambdaMetric(act, Fraction(1, 2), 4)
    for a, cmap in result.map.letters.items():
        for n, mat in cmap.mats.items():
            tgt = result.map.target.pos(n)
            src = result.map.source.pos(n)
            for (i, j) in mat.entries:
                d = metric.distance((0, tgt[i]), (a, src[j]))
                assert d.value is not None
                assert d.value <= result.certificate.bound


def test_certificate_needs_positions():
    bare = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    eq = EquivariantChainMap.identity(GRComplex.constant(z2(), bare))
    with pytest.raises(InputError):
        certify_dslambda(z2_swap_action(), Fraction(1), {"id": eq})


@pytest.mark.parametrize("lam, message", [
    (0.1, "Lambda must be an int or a Fraction, not float"),
    (0, "Lambda must be positive"),
    (-1, "Lambda must be positive"),
    (True, "Lambda must be an int or a Fraction, not bool"),
    (Fraction(0), "Lambda must be positive"),
    (Fraction(-1, 2), "Lambda must be positive"),
])
def test_transfers_refuse_a_lambda_the_metric_refuses(lam, message):
    # before, 0.1 ran at its binary value, 0 certified and -1 failed its certificate
    pcx = z2_chain_fixture()
    alpha, alpha_inv = z2_unit_alpha()
    eq = EquivariantChainMap.identity(GRComplex.constant(z2(), pcx.P))
    calls = (lambda: certify_dslambda(pcx.point_action, lam, {"id": eq}),
             lambda: k_transfer(alpha, alpha_inv, pcx, lam),
             lambda: l_transfer(z2_quadratic_alpha(), pcx, lam),
             lambda: DSLambdaMetric(pcx.point_action, lam))
    for call in calls:
        with pytest.raises(InputError, match=message):
            call()


def test_integer_inverse_over_the_group_ring_is_an_input_error():
    alpha, _ = z2_unit_alpha()
    tra = tr(alpha, z2_chain_fixture())
    with pytest.raises(InputError, match=r"over Z\[G\]"):
        tra.integer_inverse()


def test_tensors_over_the_group_ring_are_an_input_error():
    P = z2_nontrivial_chain_fixture(random.Random(5))
    lift = GRComplex.constant(z2(), module_tensor(1, P.P))
    for call in (lambda: tensor_complex(lift, lift), lambda: flip_map(lift, P.P),
                 lambda: mu_map(P.P, lift)):
        with pytest.raises(InputError, match=r"over Z\[G\]"):
            call()


def test_transfers_build_each_piece_once(monkeypatch):
    """One ``k_transfer`` builds ``tr`` twice: ``tr(alpha)`` and
    ``tr(alpha^-1)``; each witness checks against the identity of its lift,
    which is ``tr(id)`` as ``phi_e = id``.  No transfer reads the per-letter
    view ``EquivariantChainMap.letters``."""
    from klab import transfer
    calls = []
    real_tr = transfer._tr

    def counted(*args):
        calls.append(args[0])
        return real_tr(*args)

    def refuse(self):
        raise AssertionError("the per-letter view was read")

    monkeypatch.setattr(transfer, "_tr", counted)
    monkeypatch.setattr(EquivariantChainMap, "letters", property(refuse))
    pcx = z2_chain_fixture()
    alpha, alpha_inv = z2_unit_alpha()
    assert k_transfer(alpha, alpha_inv, pcx, Fraction(1, 2)).certified()
    assert len(calls) == 2
    assert l_transfer(z2_quadratic_alpha(), pcx, Fraction(1, 2)).ok()
    functoriality_witness(alpha, alpha_inv, pcx)


# -- L-theory transfer ---------------------------------------------------------------


def test_l_symmetric_complex_assertions():
    data = l_symmetric_complex(z2_chain_fixture())
    assert data.ok(), data.checks
    names = [name for name, _ in data.checks]
    for required in ("H-D-homotopies", "mu-diagonal-support", "mu-symmetric",
                     "mu-equivariance", "degree-window"):
        assert required in names


def test_l_symmetric_complex_nontrivial_homotopies():
    rng = random.Random(80)
    for _ in range(10):
        data = l_symmetric_complex(z2_nontrivial_chain_fixture(rng))
        assert data.ok(), data.checks


def test_l_symmetric_requires_symmetric_s():
    z4 = FiniteTableGroup.cyclic(4)
    from klab.control import ControlSpace
    from klab.transfer import HomotopySChainComplex
    space = ControlSpace.from_matrix(["z"], [[0]])
    P = ChainComplex.point("z")
    ident = ChainMap.identity(P)
    s = FiniteSubset.of(z4, [0, 1])  # not symmetric: inverse of 1 is 3
    homs = {(0, 0): ChainHomotopy(ident, ident, {}),
            (0, 1): ChainHomotopy(ident, ident, {}),
            (1, 0): ChainHomotopy(ident, ident, {})}
    pcx = HomotopySChainComplex(z4, space, s, P, {0: ident, 1: ident}, homs)
    with pytest.raises(HypothesisViolation):
        l_symmetric_complex(pcx)


def test_l_symmetric_control_certificates_inherit():
    # the pair-space displacement of phi^D is bounded by twice the fiber
    # displacement of phi^P (sum metric projected 1-Lipschitz to pairs)
    rng = random.Random(85)
    for _ in range(5):
        pcx = z2_nontrivial_chain_fixture(rng)
        data = l_symmetric_complex(pcx)
        eps_p = max(pcx.achieved_phi_control(), pcx.achieved_complex_control())
        eps_d = max(data.chain.achieved_phi_control(),
                    data.chain.achieved_complex_control())
        assert eps_d <= 2 * eps_p


def test_l_transfer_z2_pipeline():
    pcx = z2_chain_fixture()
    alpha = z2_quadratic_alpha()
    result = l_transfer(alpha, pcx, Fraction(1, 2))
    assert result.ok(), result.checks
    assert result.certified()
    assert l_transfer_recovers_form(result, alpha)
    # degree window -N..N
    assert result.complex.lo >= -pcx.P.hi and result.complex.hi <= pcx.P.hi


def test_l_transfer_symmetrization_identity_is_exact():
    rng = random.Random(81)
    for _ in range(10):
        pcx = z2_nontrivial_chain_fixture(rng)
        alpha = z2_quadratic_alpha()
        result = l_transfer(alpha, pcx, Fraction(1, 2))
        assert result.ok(), result.checks


def test_l_transfer_reaudit_through_verify_ultraquadratic():
    pcx = z2_chain_fixture()
    alpha = z2_quadratic_alpha()
    result = l_transfer(alpha, pcx, Fraction(1, 2))
    uq, space = expanded_ultraquadratic(result, Fraction(1, 2))
    rep = verify_ultraquadratic(uq, eps=result.target_bound, S=pcx.S,
                                backend=pcx.backend, space=space)
    assert rep.ok(), rep.failures()


def test_expanded_ultraquadratic_refuses_a_truncated_table(monkeypatch):
    """At ``n_max = 0`` the table on the carrier is truncated: a horizon
    that names ``n_max``, raised before any entry is read as a distance."""
    from klab.actions import MetricTable

    def refuse(self, i, j):
        raise AssertionError("a truncated table's entry was read")

    result = l_transfer(z2_quadratic_alpha(), z2_nontrivial_chain_fixture(random.Random(3)),
                        Fraction(1, 2))
    monkeypatch.setattr(MetricTable, "d_by_index", refuse)
    with pytest.raises(HorizonExceeded, match="n_max = 0"):
        expanded_ultraquadratic(result, Fraction(1, 2), n_max=0)


def test_l_transfer_trivial_instance():
    from klab.control import ControlSpace
    from klab.transfer import HomotopySChainComplex, PointEquivalence
    backend = FiniteTableGroup.cyclic(1)
    space = ControlSpace.from_matrix(["z"], [[0]])
    P = ChainComplex.point("z")
    ident = ChainMap.identity(P)
    s = FiniteSubset.of(backend, [0])
    homs = {(0, 0): ChainHomotopy(ident, ident, {})}
    from klab.actions import HomotopySAction
    act = HomotopySAction.from_genuine(backend, space, s, {0: {"z": "z"}})
    pcx = HomotopySChainComplex(backend, space, s, P, {0: ident}, homs,
                                point_action=act,
                                point_equivalence=PointEquivalence(ident, ident, "z"))
    alpha = GRMatrix(backend, 2, 2, {0: IntMatrix.from_rows([[0, 1], [0, 0]])})
    result = l_transfer(alpha, pcx, Fraction(2))
    assert result.ok()
    # trivial fiber: the pair complex is trivial, mu is [1], and the
    # structure map is alpha itself
    assert result.data.D.ranks == {0: 1}
    assert result.data.mu.mat(0) == IntMatrix.from_rows([[1]])
    assert result.psi.letters[0].mat(0) == alpha.letter(0)


def test_l_transfer_inverse_letters_outside_s():
    # over C7, sigma = [[0, u], [u, 0]] with the unit u = t + t^-1 - 1; the
    # inverse of u has letters {0, 1, 3, 4, 6}, and 3, 4 are outside S
    from klab.actions import HomotopySAction
    from klab.control import ControlSpace
    from klab.transfer import HomotopySChainComplex, PointEquivalence
    c7 = FiniteTableGroup.cyclic(7)
    s = FiniteSubset.of(c7, [0, 1, 2, 5, 6])
    space = ControlSpace.from_matrix(["z"], [[0]])
    P = ChainComplex.point("z")
    ident = ChainMap.identity(P)
    homs = {(g, h): ChainHomotopy(ident, ident, {})
            for g in s for h in s if c7.mul(g, h) in s}
    act = HomotopySAction.from_genuine(c7, space, s, {g: {"z": "z"} for g in s})
    pcx = HomotopySChainComplex(c7, space, s, P, {g: ident for g in s}, homs,
                                point_action=act,
                                point_equivalence=PointEquivalence(ident, ident, "z"))
    up = IntMatrix.from_rows([[0, 1], [0, 0]])
    alpha = GRMatrix(c7, 2, 2, {0: IntMatrix.from_rows([[0, -1], [0, 0]]), 1: up, 6: up})
    with pytest.raises(SupportEscape):
        l_transfer(alpha, pcx, Fraction(1, 2))


def test_invert_equivariant_inverts_units_and_refuses_the_rest():
    # over C7 the unit u = t + t^-1 - 1 has an inverse with letters {0, 1, 3, 4, 6};
    # 1 + t has augmentation 2, and a non-square matrix has no inverse
    c7 = FiniteTableGroup.cyclic(7)
    one = IntMatrix.identity(1)
    u = GRMatrix(c7, 1, 1, {0: one.scale(-1), 1: one, 6: one})
    inv = invert_equivariant(u)
    assert sorted(inv.letters) == [0, 1, 3, 4, 6]
    assert u @ inv == inv @ u == GRMatrix.constant(c7, one)
    for sigma in (GRMatrix(c7, 1, 1, {0: one, 1: one}),
                  GRMatrix(c7, 2, 1, {0: IntMatrix.from_rows([[1], [0]])}),
                  GRMatrix(c7, 1, 2, {0: IntMatrix.from_rows([[1, 0]])})):
        with pytest.raises(InputError, match="not invertible over Z"):
            invert_equivariant(sigma)


def test_z3_transfers_exercise_noninvolutive_letters():
    # over Z/3 the letter inverses differ from the letters, so the
    # inversion bookkeeping in phi^D, H^D, duals and witnesses is live
    from klab.fixtures import z3_rotation_fixture, z3_quadratic_alpha
    rng = random.Random(90)
    pcx = z3_rotation_fixture()
    z3 = pcx.backend
    data = l_symmetric_complex(pcx)
    assert data.ok(), data.checks

    # K side: alpha = the unit t (a non-involutive letter)
    unit_t = GRMatrix(z3, 1, 1, {1: IntMatrix.identity(1)})
    unit_t_inv = GRMatrix(z3, 1, 1, {2: IntMatrix.identity(1)})
    kres = k_transfer(unit_t, unit_t_inv, pcx, Fraction(1, 2))
    assert kres.certified()
    rep = projected_torsion(kres)
    assert rep.det() == {1: 1}  # the class of t itself

    # L side: twisted quadratic form with letters on t and t^2
    for _ in range(10):
        alpha = z3_quadratic_alpha(rng)
        lres = l_transfer(alpha, pcx, Fraction(1, 2))
        assert lres.ok(), lres.checks
        assert lres.certified()
        assert l_transfer_recovers_form(lres, alpha)
    uq, space = expanded_ultraquadratic(lres, Fraction(1, 2))
    audit = verify_ultraquadratic(uq, eps=lres.target_bound, S=pcx.S,
                                  backend=z3, space=space)
    assert audit.ok(), audit.failures()


# -- classical transfers ---------------------------------------------------------------


def test_whitehead_transfer_point_complex():
    backend = z2()
    pt = ChainComplex.point()
    letters = {0: IntMatrix.from_rows([[1, 1], [0, 1]]),
               1: IntMatrix.from_rows([[0, -1], [0, 0]])}
    ident = ChainMap.identity(pt)
    out = whitehead_transfer(letters, backend, pt, {0: ident, 1: ident})
    for g, m in letters.items():
        assert out.mat(0).letters[g] == m


def test_whitehead_transfer_trivial_group_blockwise():
    backend = FiniteTableGroup.cyclic(1)
    c = ChainComplex({0: 2, 1: 1}, {1: IntMatrix.from_rows([[1], [2]])})
    ident = ChainMap.identity(c)
    a = {0: IntMatrix.from_rows([[3]])}
    out = whitehead_transfer(a, backend, c, {0: ident})
    for n in c.ranks:
        assert out.mat(n).letters[0] == a[0].kron(IntMatrix.identity(c.rank(n)))


def test_whitehead_transfer_twisted_hand_expansion():
    backend = z2()
    c = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[0]])})
    ident = ChainMap.identity(c)
    twist = ChainMap(c, c, 0, {0: IntMatrix.from_rows([[-1]]),
                               1: IntMatrix.from_rows([[1]])})
    a = {0: IntMatrix.from_rows([[2]]), 1: IntMatrix.from_rows([[5]])}
    out = whitehead_transfer(a, backend, c, {0: ident, 1: twist})
    # letterwise: A_e ox r(e) and A_s ox r(s)
    assert out.mat(0).letters[0] == IntMatrix.from_rows([[2]])
    assert out.mat(0).letters[1] == IntMatrix.from_rows([[-5]])
    assert out.mat(1).letters[1] == IntMatrix.from_rows([[5]])
    assert out.is_chain_map()


def test_classical_l_transfer_shape():
    from klab.transfer import classical_l_transfer
    backend = FiniteTableGroup.cyclic(1)
    c = ChainComplex.point()
    ident = ChainMap.identity(c)
    phi = ChainMap(dual_complex(c), c, 0, {0: IntMatrix.from_rows([[1]])})
    psi = {0: IntMatrix.from_rows([[0, 1], [0, 0]])}
    out = classical_l_transfer(psi, backend, c, phi, {0: ident})
    assert out.mat(0).letters[0] == IntMatrix.from_rows([[0, 1], [0, 0]])
