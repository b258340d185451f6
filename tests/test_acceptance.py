"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured statistics after asserting every stated tolerance."""

import math
import random
import time
from fractions import Fraction

from klab.actions import (CoverSpec, DSLambdaMetric, HomotopySAction,
                          audit_nerve_contraction, lebesgue_lambda_search,
                          lebesgue_number)
from klab.chaincore import (ChainComplex, ChainHomotopy, ChainMap, cone,
                            dual_complex, dual_map, flip_map, iota, mu_map,
                            self_torsion, tensor_complex, tensor_map)
from klab.control import ControlSpace, GPos, check_control, max_displacement
from klab.fixtures import (dihedral_action, domination_instance,
                           junk_equivalence, path_chain_domination,
                           rand_complex, rand_matrix,
                           z2_chain_fixture, z2_nontrivial_chain_fixture,
                           z2_quadratic_alpha, z2_swap_action, z2_unit_alpha)
from klab.groups import FiniteSubset, FiniteTableGroup
from klab.gring import GRMatrix
from klab.intmat import IntMatrix, sign
from klab.ltheory import (lemmaA_check, mult_hyperbolic_form, signature,
                          sum_decomposition_witness, verify_ultraquadratic)
from klab.p2 import omega_audit, p2_metric, p2_stabilizer_check
from klab.simplicial import SimplicialComplex, p2_simplicial
from klab.transfer import (expanded_ultraquadratic, finite_replacement,
                           functoriality_witness, k_transfer,
                           l_transfer, l_transfer_recovers_form,
                           projected_torsion, replacement_control_growth,
                           tr)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def cheap_chain_map(rng, C, D, degree=0):
    """``d xi + (-1)^k xi d`` is a chain map for every graded ``xi``."""
    xi = {n: rand_matrix(rng, D.rank(n + degree + 1), C.rank(n), 0.4, -1, 1)
          for n in C.ranks}
    mats = {}
    for n in C.ranks:
        m = D.d(n + degree + 1) @ xi.get(
            n, IntMatrix.zeros(D.rank(n + degree + 1), C.rank(n)))
        prev = xi.get(n - 1)
        if prev is not None:
            m = m + (prev @ C.d(n)).scale(sign(degree))
        mats[n] = m
    return ChainMap(C, D, degree, mats, check=False)


def test_criterion_1_sign_calculus():
    rng = random.Random(101)
    start = time.time()
    count = 1000
    for _ in range(count):
        C = rand_complex(rng, min_deg=rng.randint(-1, 0), max_len=4, max_rank=4)
        D = rand_complex(rng, min_deg=rng.randint(-1, 0), max_len=4, max_rank=4)
        dual_complex(C).validate()
        tensor_complex(C, D).validate()
        flip_map(C, D).validate()
        f = cheap_chain_map(rng, C, D, 0)
        f.validate()
        cone(f).validate()
        assert dual_map(dual_map(f)).compose(iota(C)) == iota(D).compose(f)
        g = cheap_chain_map(rng, D, C, rng.choice([0, 1]))
        lhs = mu_map(C, D).compose(tensor_map(dual_map(f), dual_map(g)))
        rhs = dual_map(tensor_map(f, g)).compose(mu_map(D, C))
        assert lhs == rhs
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"{count} randomized complexes, exact equality, {elapsed:.1f}s")


def test_criterion_2_control_additivity():
    rng = random.Random(102)
    z4 = FiniteTableGroup.cyclic(4)
    pts = ["a", "b", "c"]
    space = ControlSpace.from_matrix(pts, [[0, 3, 4], [3, 0, 2], [4, 2, 0]])
    count = 500
    for _ in range(count):
        # positioned modules are complexes concentrated in degree 0
        modules = [ChainComplex({0: 3}, positions={0: tuple(
            GPos(rng.randrange(4), rng.choice(pts)) for _ in range(3))}) for _ in range(3)]
        f = ChainMap(modules[0], modules[1], 0, {0: rand_matrix(rng, 3, 3, 0.6)})
        g = ChainMap(modules[1], modules[2], 0, {0: rand_matrix(rng, 3, 3, 0.6)})
        eps_f, eps_g = max_displacement([f], space), max_displacement([g], space)
        letters_f = {z4.mul(z4.inv(t.g), s.g) for (t, s) in f.support_pairs()}
        letters_g = {z4.mul(z4.inv(t.g), s.g) for (t, s) in g.support_pairs()}
        product = FiniteSubset.of(z4, [z4.mul(a, b) for a in letters_g
                                       for b in letters_f] or [0])
        assert check_control(g.compose(f), eps_f + eps_g, product, space, z4)
    report(2, f"{count} composites carry the (eps+eps', S.S') certificate")


def _random_invariant_action(rng):
    order = rng.choice([2, 3, 4])
    n_pts = order
    g = FiniteTableGroup.cyclic(order)
    pts = [f"x{i}" for i in range(n_pts)]
    scale = Fraction(rng.randint(1, 3))
    dist = {(a, b): (Fraction(0) if a == b else scale) for a in pts for b in pts}
    space = ControlSpace(pts, dist)
    action = {k: {pts[i]: pts[(i + k) % n_pts] for i in range(n_pts)}
              for k in range(order)}
    return HomotopySAction.from_genuine(g, space, FiniteSubset.of(g, [0, 1]), action)


def test_criterion_3_dslambda_suite():
    rng = random.Random(103)
    instances = 0
    while instances < 200:
        act = _random_invariant_action(rng)
        lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        metric = DSLambdaMetric(act, lam, n_max=3)
        order = len(act.backend.elements())
        carrier = [(g, x) for g in range(order) for x in act.space.points]
        table = metric.table(carrier)
        n = len(carrier)
        # the values on integers scaled by their common denominator, None kept
        scale = math.lcm(1, *(v.denominator for v in table.values.values() if v is not None))
        ints = [[None if v is None else v.numerator * (scale // v.denominator)
                 for v in (table.values[(i, j)] for j in range(n))] for i in range(n)]
        for i, row_i in enumerate(ints):
            assert row_i[i] == 0
            for j, a in enumerate(row_i):
                assert a == ints[j][i]
                if a is None:
                    continue
                for b, c in zip(ints[j], row_i):  # b = d(j, k), c = d(i, k)
                    if b is not None:
                        assert c is not None and c <= a + b
        # G-invariance on a sampled translate
        k = rng.randrange(order)
        src, dst = rng.choice(carrier), rng.choice(carrier)
        moved_src = (act.backend.mul(k, src[0]), src[1])
        moved_dst = (act.backend.mul(k, dst[0]), dst[1])
        assert metric.distance(moved_src, moved_dst).value == \
            metric.distance(src, dst).value
        # Lemma small-distance equality
        for x in act.space.points:
            for y in act.space.points:
                if lam * act.space.d(x, y) < 1:
                    assert metric.distance((0, x), (0, y)).value == \
                        lam * act.space.d(x, y)
        instances += 1
    # the worked example against its enumeration oracle
    from test_actions import brute_dslambda
    act = z2_swap_action()
    lam = Fraction(1, 2)
    metric = DSLambdaMetric(act, lam, 2)
    for src in [(0, "p"), (1, "q")]:
        for dst in [(0, "p"), (0, "q"), (1, "p"), (1, "q")]:
            assert metric.distance(src, dst).value == \
                brute_dslambda(act, lam, src, dst)
    report(3, f"{instances} random instances plus the worked example oracle")


def _omega_scenarios():
    yield z2_swap_action()
    triv = FiniteTableGroup.cyclic(1)
    line = ControlSpace.path(3)
    yield HomotopySAction.from_genuine(
        triv, line, FiniteSubset.of(triv, [0]), {0: {p: p for p in line.points}})
    z2 = FiniteTableGroup.cyclic(2)
    line4 = ControlSpace.path(4)
    flip = {f"p{i}": f"p{3 - i}" for i in range(4)}
    yield HomotopySAction.from_genuine(
        z2, line4, FiniteSubset.of(z2, [0, 1]),
        {0: {p: p for p in line4.points}, 1: flip})
    for order in (3, 4):
        g = FiniteTableGroup.cyclic(order)
        pts = [f"x{i}" for i in range(order)]
        dist = {(a, b): Fraction(0) if a == b else Fraction(1)
                for a in pts for b in pts}
        space = ControlSpace(pts, dist)
        action = {k: {pts[i]: pts[(i + k) % order] for i in range(order)}
                  for k in range(order)}
        yield HomotopySAction.from_genuine(g, space,
                                           FiniteSubset.of(g, [0, 1]), action)
    # a genuinely non-strict action: the coherence homotopy wanders
    z2 = FiniteTableGroup.cyclic(2)
    line5 = ControlSpace.path(5)
    pts5 = tuple(line5.points)
    flip5 = tuple(f"p{4 - i}" for i in range(5))
    double5 = tuple(f"p{min(2 * i, 4)}" for i in range(5))
    yield HomotopySAction(z2, line5, FiniteSubset.of(z2, [0, 1]),
                          {0: pts5, 1: flip5},
                          {(0, 0): (pts5,),
                           (0, 1): (flip5, double5, flip5),
                           (1, 0): (flip5,),
                           (1, 1): (pts5,)})


def test_criterion_4_omega_inequality():
    rng = random.Random(104)
    total_checked = 0
    scenario_count = 0
    for act in _omega_scenarios():
        scenario_count += 1
        pair_points = p2_metric(act.space).points
        window = act.backend.elements()
        samples = [((rng.choice(window), rng.choice(pair_points)),
                    (rng.choice(window), rng.choice(pair_points)))
                   for _ in range(220)]
        audit = omega_audit(act, Fraction(rng.randint(1, 2), 2), samples, n_max=4)
        assert audit.ok(), audit.counterexamples
        total_checked += audit.checked
    assert scenario_count >= 5 and total_checked >= 1000
    report(4, f"factor-2 bound on {total_checked} pairs across "
              f"{scenario_count} scenarios")


def test_criterion_5_nerve_contraction():
    # S-long two-set cover on the swap instance
    act = z2_swap_action()
    carrier = tuple((g, x) for g in [0, 1] for x in act.space.points)
    u1 = frozenset({(0, "p"), (1, "q")})
    u2 = frozenset({(0, "q"), (1, "p")})
    cover = CoverSpec(carrier, {"U1": u1, "U2": u2},
                      {0: {"U1": "U1", "U2": "U2"}, 1: {"U1": "U2", "U2": "U1"}})
    from klab.actions import check_f_cover
    from klab.groups import FamilyPredicate
    fc = check_f_cover(cover, FamilyPredicate("trivial"), act.backend, act,
                       N=1, s_long_depth=2)
    assert fc.ok() and fc.s_long_checked == len(carrier)
    lam, _ = lebesgue_lambda_search(act, cover, Fraction(1, 2),
                                    [Fraction(1, 4), Fraction(1, 2), Fraction(1)], 4)
    assert lam is not None
    table = DSLambdaMetric(act, lam, 4).table(list(carrier))
    D = lebesgue_number(cover, table)
    assert D is not None and D > 0
    pairs = [(a, b) for a in carrier for b in carrier]
    audit = audit_nerve_contraction(cover, table, N=1, D=D, pairs=pairs)
    assert audit.ok() and audit.checked > 0

    # deeply overlapping half-covers of a long path: the threshold D/(4N)
    # exceeds the carrier spacing, so distinct-point pairs are audited
    triv = FiniteTableGroup.cyclic(1)
    line = ControlSpace.path(25)
    act2 = HomotopySAction.from_genuine(
        triv, line, FiniteSubset.of(triv, [0]), {0: {p: p for p in line.points}})
    carrier2 = tuple((0, p) for p in line.points)
    cover2 = CoverSpec(carrier2,
                       {"L": frozenset((0, f"p{t}") for t in range(18)),
                        "R": frozenset((0, f"p{t}") for t in range(7, 25))},
                       {0: {"L": "L", "R": "R"}})
    table2 = DSLambdaMetric(act2, Fraction(1), 2).table(list(carrier2))
    D2 = lebesgue_number(cover2, table2)
    assert D2 is not None and D2 / 4 >= 1  # distinct pairs clear the threshold
    pairs2 = [(a, b) for a in carrier2 for b in carrier2]
    audit2 = audit_nerve_contraction(cover2, table2, N=1, D=D2, pairs=pairs2)
    assert audit2.ok() and audit2.shared_simplex > len(carrier2)
    report(5, f"contraction bound on {audit.checked + audit2.checked} pairs, "
              f"{audit.disjoint_support + audit2.disjoint_support} disjoint-support "
              f"samples reported")


def test_criterion_6_finite_replacement():
    rng = random.Random(106)
    count = 100
    for _ in range(count):
        C, D, i, r, h = domination_instance(rng, rng.randint(0, 2))
        res = finite_replacement(C, D, i, r, h)
        assert res.ok(), res.checks
    # control growth on the certified path fixture
    space, C, D, i, r, h = path_chain_domination(9, 4)
    res = finite_replacement(C, D, i, r, h)
    assert res.ok()
    eps = Fraction(0)
    for m, src, tgt in ((i.total, C, D), (r.total, D, C), (h.total, C, C),
                        (C.d_total, C, C), (D.d_total, D, D)):
        for (a, b) in m.entries:
            eps = max(eps, space.d(tgt.pos_total[a], src.pos_total[b]))
    growth = replacement_control_growth(res, space)
    assert growth <= (D.hi + 2) * eps
    report(6, f"all identity families on {count} dominations; control growth "
              f"{growth} <= (N+2)*eps = {(D.hi + 2) * eps}")


def test_criterion_7_functoriality_and_l_identities():
    rng = random.Random(107)
    z2 = FiniteTableGroup.cyclic(2)
    count = 100
    for _ in range(count):
        pcx = z2_nontrivial_chain_fixture(rng)
        psi = GRMatrix(z2, 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
        psi2 = GRMatrix(z2, 2, 2, {g: rand_matrix(rng, 2, 2) for g in [0, 1]})
        functoriality_witness(psi2, psi, pcx)  # raises unless exact
    for trial in range(100):
        pcx = z2_nontrivial_chain_fixture(rng)
        c, d = rng.randint(-2, 2), rng.randint(-2, 2)
        alpha = GRMatrix(z2, 2, 2, {0: IntMatrix.from_rows([[0, 1 + c], [-c, 0]]),
                                    1: IntMatrix.from_rows([[0, d], [-d, 0]])})
        result = l_transfer(alpha, pcx, Fraction(1, 2))
        assert result.ok(), result.checks
    report(7, f"Lemma-level and transfer-level identities exact on {count} "
              f"instances each over Z[C2]")


def test_criterion_8_signatures():
    for n in range(7):
        form = mult_hyperbolic_form(n)
        if n == 0:
            assert form.rank == 0
            continue
        assert signature(form) == n
    rng = random.Random(108)
    count = 200
    for _ in range(count):
        c = rand_complex(rng, min_deg=rng.randint(-1, 0), max_len=4, max_rank=3)
        rep = lemmaA_check(c)
        assert rep.ok(), (c.ranks, rep)
    pairs = 0
    for p in range(6):
        for q in range(6):
            if p + q <= 5:
                basis, target = sum_decomposition_witness(p, q)
                source = mult_hyperbolic_form(p + q)
                assert basis.transpose() @ source.gram @ basis == target.gram
                pairs += 1
    report(8, f"trace signatures 0..6, endpoint signature = chi on {count} "
              f"complexes, {pairs} congruence decompositions")


def test_criterion_9_self_torsion():
    c = ChainComplex({0: 2, 1: 1}, {1: IntMatrix.from_rows([[1], [0]])})
    ident = ChainMap.identity(c)
    triv = self_torsion(ident, ident, ChainHomotopy(ident, ident, {}),
                        ChainHomotopy(ident, ident, {}))
    assert triv.det_sign() == 1
    rng = random.Random(109)
    count = 100
    for _ in range(count):
        C, D, f, g, h, k = junk_equivalence(rng)
        u = g.compose(f)
        t1 = self_torsion(u, ChainMap.identity(C),
                          ChainHomotopy(u, ChainMap.identity(C), dict(h.mats)),
                          ChainHomotopy(u, ChainMap.identity(C), dict(h.mats)))
        w = f.compose(g)
        t2 = self_torsion(w, ChainMap.identity(D),
                          ChainHomotopy(w, ChainMap.identity(D), dict(k.mats)),
                          ChainHomotopy(w, ChainMap.identity(D), dict(k.mats)))
        assert t1.det_sign() == t2.det_sign()
    report(9, f"trivial class for the identity; composite classes agree on "
              f"{count} instances over Z")


def test_criterion_10_p2_structures():
    actions = 0
    orbits = 0
    for n in (3, 4, 5, 6):
        act = dihedral_action(n)
        dn = act.backend
        full = {}
        for g in dn.elements():
            rot, ref = g // 2, g % 2
            full[g] = {f"x{t}": f"x{(rot + t) % n if ref == 0 else (rot - t) % n}"
                       for t in range(n)}
        actions += 1
        for x in act.space.points:
            for y in act.space.points:
                rep = p2_stabilizer_check(dn, full, (x, y))
                assert rep.index in (1, 2)
                orbits += 1
    for order in (2, 3, 4, 5, 6):
        g = FiniteTableGroup.cyclic(order)
        pts = [f"y{i}" for i in range(order)]
        full = {k: {pts[i]: pts[(i + k) % order] for i in range(order)}
                for k in range(order)}
        actions += 1
        for x in pts:
            for y in pts:
                rep = p2_stabilizer_check(g, full, (x, y))
                assert rep.index in (1, 2)
                orbits += 1
    triv = FiniteTableGroup.cyclic(1)
    rep = p2_stabilizer_check(triv, {0: {"a": "a", "b": "b"}}, ("a", "b"))
    assert rep.index == 1
    actions += 1
    assert actions >= 10
    for sc, dim in ((SimplicialComplex.standard_simplex(1), 1),
                    (SimplicialComplex.standard_simplex(2), 2),
                    (SimplicialComplex.circle(3), 1)):
        quot = p2_simplicial(sc)
        quot.validate()  # face closure
        assert quot.dimension() == 2 * dim
    report(10, f"index in {{1,2}} on {orbits} orbits of {actions} actions; "
               f"quotient structures face-closed with doubled dimension")


def test_criterion_11_end_to_end():
    pcx = z2_chain_fixture()
    lam = Fraction(1, 2)
    alpha, alpha_inv = z2_unit_alpha()
    kres = k_transfer(alpha, alpha_inv, pcx, lam)
    assert kres.certified()
    assert kres.certificate.bound <= kres.target_bound
    tors = projected_torsion(kres)
    assert tors.det() == GRMatrix(pcx.backend, 1, 1, dict(alpha.letters)).det()

    beta = z2_quadratic_alpha()
    lres = l_transfer(beta, pcx, lam)
    assert lres.ok() and lres.certified()
    assert l_transfer_recovers_form(lres, beta)
    uq, space = expanded_ultraquadratic(lres, lam)
    audit = verify_ultraquadratic(uq, eps=lres.target_bound, S=pcx.S,
                                  backend=pcx.backend, space=space)
    assert audit.ok(), audit.failures()
    report(11, f"K bound {kres.certificate.bound} <= {kres.target_bound}, "
               f"L bound {lres.certificate.bound} <= {lres.target_bound}, "
               f"projections recover the inputs")
