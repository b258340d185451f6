import random

import pytest

from klab.errors import HorizonExceeded, InputError, UndecidableBackend
from klab.groups import (FamilyPredicate, FiniteSubset, FiniteTableGroup,
                         FreeAbelianGroup, FreeGroup, SubgroupDescription,
                         _index2_subgroups, ball, family_member, validate_family_closure)


def test_ball_free_abelian_rank1():
    z = FreeAbelianGroup(1)
    s = FiniteSubset.of(z, [(0,), (1,), (-1,)])
    b = ball(z, s, 1)
    assert sorted(x[0] for x in b) == [-2, -1, 0, 1, 2]


def test_ball_identity_only():
    for backend in (FreeAbelianGroup(2), FreeGroup(2), FiniteTableGroup.cyclic(5)):
        s = FiniteSubset.of(backend, [backend.identity()])
        b = ball(backend, s, 5)
        assert list(b) == [backend.identity()]


def brute_free_ball(rank, letters, n):
    """Oracle: exhaustive enumeration of reduced products of <= 2n factors."""
    f = FreeGroup(rank)
    alphabet = set()
    for w in letters:
        alphabet.add(w)
        alphabet.add(f.inv(w))
    alphabet.discard("")
    out = {""}
    frontier = {""}
    for _ in range(2 * n):
        frontier = {f.mul(x, a) for x in frontier for a in alphabet}
        out |= frontier
    return out


def test_ball_free_rank2_oracle():
    f = FreeGroup(2)
    s = FiniteSubset.of(f, ["", "a", "b"])
    b = ball(f, s, 2)
    oracle = brute_free_ball(2, ["a", "b"], 2)
    assert set(b.elements) == oracle
    # 1 + 4 + 12 + 36 + 108 reduced words of length <= 4
    assert len(b) == 161


def test_ball_monotone_and_symmetric():
    rng = random.Random(3)
    f = FreeGroup(2)
    s = FiniteSubset.of(f, ["", "a", "aB"])
    previous = set()
    for n in range(4):
        b = set(ball(f, s, n).elements)
        assert previous <= b
        previous = b
    sym = FiniteSubset.of(f, [*s, *(f.inv(x) for x in s)])
    b = ball(f, sym, 2)
    for x in b:
        assert f.inv(x) in b


def test_ball_horizon():
    f = FreeGroup(2)
    s = FiniteSubset.of(f, ["", "a", "b"])
    with pytest.raises(HorizonExceeded):
        ball(f, s, 20)
    with pytest.raises(HorizonExceeded):
        ball(f, s, 5, cap=10)


def test_family_member_basic():
    z = FreeAbelianGroup(1)
    two_z = SubgroupDescription.of(z, [(2,)])
    assert family_member(FamilyPredicate("virtually-cyclic"), two_z)
    assert not family_member(FamilyPredicate("finite"), two_z)
    trivial = SubgroupDescription.of(z, [(0,)])
    assert family_member(FamilyPredicate("finite"), trivial)
    z2 = FreeAbelianGroup(2)
    full = SubgroupDescription.of(z2, [(1, 0), (0, 1)])
    assert not family_member(FamilyPredicate("virtually-cyclic"), full)


def test_family_member_trivial_subgroup():
    g = FiniteTableGroup.dihedral(3)
    triv = SubgroupDescription.of(g, [g.identity()])
    assert family_member(FamilyPredicate("finite"), triv)
    assert family_member(FamilyPredicate("trivial"), triv)


def test_family_member_free_undecidable():
    f = FreeGroup(2)
    sub = SubgroupDescription.of(f, ["ab"])
    with pytest.raises(UndecidableBackend):
        family_member(FamilyPredicate("virtually-cyclic"), sub)
    assert family_member(FamilyPredicate("virtually-cyclic"),
                         SubgroupDescription.of(f, [""]))


from klab.fixtures import dihedral_cyclic_family


def test_family_f2_dihedral():
    # index-2 overgroup of the cyclic subgroup inside a dihedral group
    dn, fam = dihedral_cyclic_family(4)
    assert not validate_family_closure(fam, dn)
    whole = SubgroupDescription.of(dn, list(dn.elements()))
    assert not family_member(fam, whole)
    fam2 = FamilyPredicate("custom-list", True, fam.custom)
    assert family_member(fam2, whole)
    # a reflection subgroup {e, r} has the trivial group as index-2 member
    reflection = SubgroupDescription.of(dn, [1])
    assert family_member(fam2, reflection)


def test_family_conjugation_invariance():
    dn, fam = dihedral_cyclic_family(6)
    rotation = SubgroupDescription.of(dn, [4])  # rotation subgroup member
    base = family_member(fam, rotation)
    for g in dn.elements():
        conj = [dn.mul(dn.mul(g, h), dn.inv(g)) for h in rotation.closure()]
        assert family_member(fam, SubgroupDescription.of(dn, conj)) == base


def test_finite_table_axioms():
    g = FiniteTableGroup.dihedral(4)
    e = g.identity()
    elements = g.elements()
    for a in elements:
        assert g.mul(a, e) == a == g.mul(e, a)
        assert g.mul(a, g.inv(a)) == e
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_free_group_reduction():
    f = FreeGroup(2)
    assert f.mul("aB", "ba") == "aa"
    assert f.mul("ab", "BA") == ""
    assert f.inv("aB") == "bA"


@pytest.mark.parametrize("backend, items", [
    (FiniteTableGroup.dihedral(3), [0, 1, 3, 4]),
    (FreeAbelianGroup(1), [(0,), (1,), (-1,), (2,)]),
    (FreeGroup(2), ["", "a", "A", "ab"]),
], ids=["dihedral", "free-abelian", "free"])
def test_finite_subset_products_match_the_double_loop(backend, items):
    s = FiniteSubset.of(backend, items)
    assert s.members == frozenset(s.elements)
    expected = [(g, h, backend.mul(g, h)) for g in s.elements for h in s.elements
                if backend.mul(g, h) in set(s.elements)]
    assert list(s.products) == expected
    assert all(gh in s for _, _, gh in s.products)
    assert s.products is s.products  # built once per subset


def test_associativity_is_checked_at_every_size():
    # C65 with 3 * 3 = 7: (1 * 2) * 3 = 7 but 1 * (2 * 3) = 6; identity and
    # inverses survive the edit, and tables past 64 elements went unchecked
    n = 65
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    table[3][3] = 7
    with pytest.raises(InputError, match="not associative"):
        FiniteTableGroup(table)
    assert FiniteTableGroup.cyclic(n).order == n


def mask_index2_subgroups(backend, elements):
    """The index-2 subgroups as they were found before: every union of half
    the cosets of the square subgroup that holds the identity coset and is
    closed under multiplication, over all subsets of the other cosets."""
    closure = SubgroupDescription.of(backend, [backend.mul(h, h) for h in elements]).closure()
    cosets = []
    remaining = set(elements)
    while remaining:
        x = next(iter(remaining))
        coset = frozenset(backend.mul(x, q) for q in closure)
        cosets.append(coset)
        remaining -= coset
    identity_coset = next(c for c in cosets if backend.identity() in c)
    others = [c for c in cosets if c is not identity_coset]
    m = len(cosets)
    if m % 2:
        return []
    reps = [next(iter(c)) for c in cosets]
    out = []
    for mask in range(1 << len(others)):
        chosen = [identity_coset] + [c for i, c in enumerate(others) if mask >> i & 1]
        if len(chosen) != m // 2:
            continue
        union = frozenset().union(*chosen)
        if all(backend.mul(a, b) in union for a in reps if a in union
               for b in reps if b in union):
            out.append(union)
    return out


def all_subgroups(backend):
    """Every subgroup, grown from the trivial one by adjoining elements."""
    found = {frozenset([backend.identity()])}
    frontier = list(found)
    while frontier:
        sub = frontier.pop()
        for g in backend.elements():
            if g not in sub:
                bigger = SubgroupDescription.of(backend, sorted(sub) + [g]).closure()
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def elementary_abelian(r):
    n = 1 << r
    return FiniteTableGroup([[a ^ b for b in range(n)] for a in range(n)], name=f"Z2^{r}")


def test_index2_subgroups_match_the_coset_masks():
    z2z4 = FiniteTableGroup([[4 * ((a // 4 + b // 4) % 2) + (a + b) % 4 for b in range(8)]
                             for a in range(8)], name="Z2xZ4")
    groups = [FiniteTableGroup.cyclic(8), FiniteTableGroup.dihedral(4),
              FiniteTableGroup.dihedral(6), z2z4] + [elementary_abelian(r) for r in range(1, 5)]
    cases = kernels = 0
    for backend in groups:
        for sub in all_subgroups(backend):
            got = _index2_subgroups(backend, sub)
            assert len(set(got)) == len(got)
            assert set(got) == set(mask_index2_subgroups(backend, sub)), (backend.name, sorted(sub))
            cases, kernels = cases + 1, kernels + len(got)
    assert cases == 4 + 10 + 16 + 8 + 2 + 5 + 16 + 67
    assert kernels > cases
