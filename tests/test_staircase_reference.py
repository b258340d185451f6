"""The closed-form finite replacement against the per-degree staircase.

``ref_finite_replacement`` keeps the per-degree construction: each block
``D_j -> D_k`` of the differential out of ``C'_m`` is built from the
chains ``h_{m-1} ... h_j r_j``, and each degree of the staircase, of
``f'`` and of ``g'`` is assembled with ``IntMatrix.from_blocks``.
``transfer.finite_replacement`` builds the same objects in one closed
form on the total basis of ``D``.  Every output is compared exactly: the
staircase, ``P``, ``f``, ``g``, ``k``, ``l`` (with their degree orders and
positions) and the named checks.
"""

import os
import random

import pytest

from klab.chaincore import ChainComplex, ChainHomotopy, ChainMap
from klab.errors import IdempotentFailure
from klab.fixtures import domination_instance, junk_equivalence, path_chain_domination
from klab.intmat import IntMatrix, sign
from klab.scenario import load_scenario
from klab.transfer import finite_replacement

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "klab",
                    "scenarios", "path.json")
SEEDS = range(40)


def ref_finite_replacement(C, D, i, r, h):
    """The staircase degree by degree; returns the fields of a
    ``FiniteReplacementResult`` as a tuple."""
    N = D.hi
    cap = N + 3
    checks = []
    ri = r.compose(i)
    hm = h.as_map()

    def h_chain(j, m):
        """``h_{m-1} ... h_j r_j``."""
        comp = r.mat(j)
        for t in range(j, m):
            comp = hm.mat(t) @ comp
        return comp

    def djk(m, j, k):
        """Block ``D_j -> D_k`` of the differential out of degree ``m``; the
        signs and the diagonal parity read the target degree ``m - 1``."""
        mm = m - 1
        if j >= k + 2:
            return None
        if j == k + 1:
            return D.d(j).scale(sign(mm + k))
        if j == k:
            ir = i.mat(j) @ r.mat(j)
            return ir if (j - mm) % 2 else IntMatrix.identity(D.rank(j)) - ir
        return (i.mat(k) @ h_chain(j, k)).scale(sign(mm + k + 1))

    ranks = {m: sum(D.rank(j) for j in range(min(m, N) + 1)) for m in range(cap + 1)}
    diff = {}
    for m in range(1, cap + 1):
        js, ks = range(min(m, N) + 1), range(min(m - 1, N) + 1)
        diff[m] = IntMatrix.from_blocks([[djk(m, j, k) for j in js] for k in ks],
                                        [D.rank(k) for k in ks], [D.rank(j) for j in js])
    positions = None if D.pos_total is None else {
        m: tuple(p for j in range(min(m, N) + 1) for p in D.pos(j) or ()) for m in range(cap + 1)}
    staircase = ChainComplex(ranks, diff, positions=positions, check=False)
    try:
        staircase.validate()
        checks.append(("staircase-d-squared", True))
    except ValueError:
        checks.append(("staircase-d-squared", False))

    fp_mats, gp_mats = {}, {}
    for m in range(cap + 1):
        js = range(min(m, N) + 1)
        cols = [D.rank(j) for j in js]
        fp_mats[m] = IntMatrix.from_blocks([[i.mat(m) if j == m else None] for j in js],
                                           cols, [C.rank(m)])
        gp_mats[m] = IntMatrix.from_blocks([[h_chain(j, m) for j in js]], [C.rank(m)], cols)
    fprime = ChainMap(C, staircase, 0, fp_mats, check=False)
    gprime = ChainMap(staircase, C, 0, gp_mats, check=False)
    checks.append(("f-prime-chain-map", fprime.is_chain_map()))
    checks.append(("g-prime-chain-map", gprime.is_chain_map()))
    checks.append(("gf-equals-ri", gprime.compose(fprime) == ri))

    kp_mats = {m: IntMatrix(ranks[m + 1], ranks[m], {(t, t): 1 for t in range(ranks[m])})
               for m in range(cap)}
    kprime = ChainHomotopy(fprime.compose(gprime), ChainMap.identity(staircase), kp_mats)
    checks.append(("k-prime-homotopy", all(map(kprime.holds_at, range(cap)))))

    ident_n = IntMatrix.identity(ranks[N])
    tail_ok = (all(diff[m] @ diff[m] == diff[m] for m in range(N + 1, cap + 1))
               and all(diff[m + 1] == ident_n - diff[m] for m in range(N + 1, cap)))
    checks.append(("tail-idempotency", tail_ok))
    if not tail_ok:
        raise IdempotentFailure("stabilized tail is not idempotent")
    c_top = diff[N + 1]
    pN = ident_n - c_top

    p_diff = {m: diff[m] for m in range(1, N)}
    if N >= 1:
        p_diff[N] = diff[N] @ pN
    p_idem = {m: (pN if m == N else IntMatrix.identity(ranks[m])) for m in range(N + 1)}
    p_positions = {m: positions[m] for m in range(N + 1)} if positions else None
    P = ChainComplex({m: ranks[m] for m in range(N + 1)}, p_diff, p_idem, p_positions)

    u = ChainMap(P, staircase, 0, p_idem, check=False)
    v = ChainMap(staircase, P, 0, p_idem, check=False)
    checks.append(("u-chain-map", u.is_chain_map()))
    checks.append(("v-chain-map", v.is_chain_map()))
    checks.append(("vu-identity", v.compose(u) == ChainMap.identity(P)))

    lp_mats = {m: c_top - ident_n if (m - N) % 2 else -c_top for m in range(N, cap)}
    lprime = ChainHomotopy(ChainMap.identity(staircase), u.compose(v), lp_mats)
    checks.append(("l-prime-homotopy", all(map(lprime.holds_at, range(cap)))))

    f = v.compose(fprime)
    g = gprime.compose(u)
    k = ChainHomotopy(f.compose(g), ChainMap.identity(P), v.total @ kprime.total @ u.total)
    checks.append(("k-homotopy", k.holds()))
    l_map = hm - gprime.compose(lprime.as_map()).compose(fprime)
    l = ChainHomotopy(g.compose(f), ChainMap.identity(C), l_map.total)
    checks.append(("l-homotopy", l.holds()))
    return P, f, g, k, l, staircase, checks


def complex_key(c):
    """Degrees in their order, ranks, totals and positions."""
    return list(c.ranks.items()), c.d_total, c.p_total, c.pos_total


def assert_same(C, D, i, r, h):
    P, f, g, k, l, staircase, checks = ref_finite_replacement(C, D, i, r, h)
    res = finite_replacement(C, D, i, r, h)
    assert res.checks == checks
    assert complex_key(res.staircase) == complex_key(staircase)
    assert complex_key(res.P) == complex_key(P)
    for new, old in ((res.f, f), (res.g, g), (res.k, k), (res.l, l)):
        assert new.total == old.total
    assert (res.f.source, res.g.target, res.l.source_map.source) == (C, C, C)
    assert complex_key(res.f.target) == complex_key(res.g.source) == complex_key(P)
    return res


@pytest.mark.parametrize("nmax", range(4))
def test_closed_form_matches_the_per_degree_staircase(nmax):
    perturbed = 0
    for seed in SEEDS:
        C, D, i, r, h = domination_instance(random.Random(seed), nmax)
        assert_same(C, D, i, r, h)
        perturbed += i != junk_equivalence(random.Random(seed), nmax + 1, 2)[2]
    # some instances carry a null-homotopic change of i; for nmax 0, D sits
    # in degree 0, so every change C_n -> D_{n+1} is zero
    assert perturbed or nmax == 0


def test_closed_form_matches_on_the_positioned_dominations():
    """The path's dominations, and a positioned ``D`` with no degree 0: the
    library's per-degree construction raised ``TypeError`` reading the
    positions of the absent ``D_0``, which the reference reads as empty."""
    gap = ChainComplex({1: 2, 2: 1}, {2: IntMatrix.from_rows([[1], [-1]])},
                       positions={1: ("p", "q"), 2: ("p",)})
    one = ChainMap.identity(gap)
    dominations = [path_chain_domination(9, 4)[1:],
                   load_scenario(PATH).get("dominations", "coarsen"),
                   (gap, gap, one, one, ChainHomotopy(one, one, {}))]
    for C, D, i, r, h in dominations:
        res = assert_same(C, D, i, r, h)
        assert res.ok() and res.staircase.pos_total is not None
