"""Certificates and reachability on the exact integer view of a space.

``transfer.certify_dslambda``, the ``achieved_*`` controls of a chain
action and ``control.max_displacement`` read ``space.index`` and the
``scaled()`` rows and build one ``Fraction`` per value; the ``Fraction``
code they replaced is kept below as the reference.  ``DSLambdaMetric``
computes the finite-table closure of its move letters once, on first
use, where it rebuilt it on every unanswered query.
"""

import importlib.util
import os
from fractions import Fraction

import pytest

from klab import actions, transfer
from klab.actions import DSLambdaMetric, HomotopySAction, lebesgue_lambda_search
from klab.chaincore import ChainComplex, ChainHomotopy, ChainMap
from klab.control import ControlSpace, GPos
from klab.errors import HorizonExceeded, InputError
from klab.fixtures import dihedral_cover
from klab.gring import GRComplex, GRMatrix
from klab.groups import FiniteSubset, FiniteTableGroup, SubgroupDescription
from klab.intmat import IntMatrix
from klab.transfer import HomotopySChainComplex

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                         "workloads.py")


# -- the Fraction reference -------------------------------------------------------


def ref_letter_bound(action, lam, letter, pairs):
    worst = Fraction(0)
    e = action.backend.identity()
    fset = action.f_set(letter)
    for (x, y) in pairs:
        options = []
        if letter == e:
            options.append(lam * action.space.d(x, y))
        for fm in fset:
            options.append(1 + lam * action.space.d(x, fm[action.index[y]]))
        best = min(options)
        if best > worst:
            worst = best
    return worst


def ref_piece_bound(action, lam, eq):
    """The best exhibited bound over the ``((e, x), (a, y))`` support pairs of a piece."""
    pairs = {}
    for (_, x), (a, y) in eq.support_pairs():
        pairs.setdefault(a, set()).add((x, y))
    return max((ref_letter_bound(action, lam, a, ps) for a, ps in pairs.items()),
               default=Fraction(0))


def ref_phi_control(P):
    act, d = P.point_action, P.space.d
    return max((d(x, act.phi[g][act.index[y]])
                for g in P.S for x, y in P.phi[g].support_pairs()), default=Fraction(0))


def ref_homotopy_control(P):
    act, d = P.point_action, P.space.d
    return max((min(d(x, m[act.index[y]]) for m in act.H[gh])
                for gh, hom in P.H.items() for x, y in hom.as_map().support_pairs()),
               default=Fraction(0))


def ref_max_displacement(maps, space):
    def z(pos):
        return pos.z if isinstance(pos, GPos) else pos
    return max((space.d(z(tp), z(sp)) for f in maps for tp, sp in f.support_pairs()),
               default=Fraction(0))


def load_workloads():
    # loaded from its path without registering it, so perfbench stays untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_letter_bounds_match_fractions_on_pipeline_inputs(monkeypatch):
    """Every certificate piece and bound, every ``achieved_*`` control and
    every ``max_displacement`` the two transfers compute equals the
    ``Fraction`` reference's."""
    compared = []

    def check(value, ref):
        assert type(value) is Fraction and value == ref
        compared.append(value)
        return value

    real_certify = transfer.certify_dslambda

    def certify(action, lam, pieces):
        cert = real_certify(action, lam, pieces)
        refs = {name: ref_piece_bound(action, Fraction(lam), eq) for name, eq in pieces.items()}
        assert set(cert.pieces) == set(refs)
        for name, ref in refs.items():
            check(cert.pieces[name], ref)
        check(cert.bound, max(refs.values(), default=Fraction(0)))
        return cert

    real_displacement = transfer.max_displacement

    def displacement(maps, space):
        maps = list(maps)
        return check(real_displacement(maps, space), ref_max_displacement(maps, space))

    def controlled(name, ref):
        real = getattr(HomotopySChainComplex, name)
        monkeypatch.setattr(HomotopySChainComplex, name, lambda P: check(real(P), ref(P)))

    monkeypatch.setattr(transfer, "certify_dslambda", certify)
    monkeypatch.setattr(transfer, "max_displacement", displacement)
    controlled("achieved_phi_control", ref_phi_control)
    controlled("achieved_homotopy_control", ref_homotopy_control)
    pipeline, half = load_workloads().Pipeline(), Fraction(1, 2)
    for seed in (0, 1):
        for index in range(48):
            pcx, psi, psi2, quad, alpha, alpha_inv = pipeline.make(seed, index)[:6]
            lres = transfer.l_transfer(quad, pcx, half)
            kres = transfer.k_transfer(alpha, alpha_inv, pcx, half)
            assert lres.certificate.bound == max(lres.certificate.pieces.values())
            assert kres.certificate.bound == max(kres.certificate.pieces.values())
    # 17 values a pass: 5 + 4 pieces, 2 bounds and 3 controls on each of two chain actions
    assert len(compared) == 17 * 96 and len(set(compared)) > 1


def swap_action(dist):
    """C2 swapping ``a`` and ``b`` and fixing ``c``, on an unchecked space."""
    c2 = FiniteTableGroup.cyclic(2)
    space = ControlSpace(["a", "b", "c"], dist, check=False)
    swap = {0: {"a": "a", "b": "b", "c": "c"}, 1: {"a": "b", "b": "a", "c": "c"}}
    return HomotopySAction.from_genuine(c2, space, FiniteSubset.of(c2, [0, 1]), swap)


def letter_piece(action, letter, pairs):
    """A map over Z[G] on the space's points whose letter block has one entry
    per pair ``(x, y)``, at ``((e, x), (letter, y))``."""
    pts, at, n = action.space.points, action.index, len(action.space.points)
    cx = GRComplex(action.backend, {0: n}, {}, positions={0: pts})
    block = IntMatrix(n, n, {(at[x], at[y]): 1 for x, y in pairs})
    return ChainMap(cx, cx, 0, {0: GRMatrix(action.backend, n, n, {letter: block})},
                    check=False)


def certified(action, lam, letter, pairs):
    return transfer.certify_dslambda(action, lam,
                                     {"piece": letter_piece(action, letter, pairs)}).bound


def test_letter_bounds_on_spaces_with_undefined_distances():
    lam = Fraction(2, 3)
    full = swap_action({("a", "b"): Fraction(1), ("b", "c"): Fraction(3, 2),
                        ("a", "c"): Fraction(5, 2)})
    for letter in (0, 1):
        for pairs in ({("a", "a")}, {("a", "c"), ("c", "b")}, {("b", "a"), ("c", "c")}):
            assert certified(full, lam, letter, pairs) == ref_letter_bound(full, lam, letter, pairs)
    partial = swap_action({("a", "b"): Fraction(1), ("b", "c"): Fraction(3, 2)})
    # pairs that meet d(a, c): InputError before and after
    with pytest.raises(InputError):
        ref_letter_bound(partial, lam, 1, {("a", "c")})
    with pytest.raises(InputError):
        certified(partial, lam, 1, {("a", "c")})
    # pairs that miss it: scaled() reads every pair, so the space is refused
    # as DSLambdaMetric refuses it, where the Fraction code found a value
    assert ref_letter_bound(partial, lam, 1, {("a", "a")}) == 1 + lam
    with pytest.raises(InputError):
        certified(partial, lam, 1, {("a", "a")})
    with pytest.raises(InputError):
        DSLambdaMetric(partial, lam)


def test_achieved_controls_read_the_point_action_in_its_own_order():
    """A chain action built unchecked over a point action whose space lists
    the points in another order: ``phi_g`` and ``H_{g,h}`` are read in the
    point action's order, the distances in the chain action's space."""
    z2 = FiniteTableGroup.cyclic(2)
    S = FiniteSubset.of(z2, [0, 1])
    swap = {0: {"p": "p", "q": "q"}, 1: {"p": "q", "q": "p"}}
    P = ChainComplex({0: 2, 1: 2}, {}, positions={0: ("p", "q"), 1: ("p", "q")})
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    ident, phi_s = ChainMap.identity(P), ChainMap(P, P, 0, {0: flip, 1: flip})
    homs = {(0, 0): ChainHomotopy(ident, ident, {}),
            (0, 1): ChainHomotopy(phi_s, phi_s, {0: flip}),
            (1, 0): ChainHomotopy(phi_s, phi_s, {}),
            (1, 1): ChainHomotopy(phi_s.compose(phi_s), ident, {})}
    space = ControlSpace.from_matrix(["p", "q"], [[0, 1], [1, 0]])
    values = []
    for act_space in (space, ControlSpace.from_matrix(["q", "p"], [[0, 1], [1, 0]])):
        act = HomotopySAction.from_genuine(z2, act_space, S, swap)
        # validate() asks for the chain action's own space, so only the first checks
        cx = HomotopySChainComplex(z2, space, S, P, {0: ident, 1: phi_s}, homs,
                                   point_action=act, check=act_space is space)
        assert cx.achieved_phi_control() == ref_phi_control(cx)
        assert cx.achieved_homotopy_control() == ref_homotopy_control(cx)
        values.append((cx.achieved_phi_control(), cx.achieved_homotopy_control()))
    # phi_s and H_{e,s} move each point onto the point the swap sends it to
    assert values == [(0, 0), (0, 0)]


class RefMetric(DSLambdaMetric):
    """The closure rebuilt on every unanswered query, as before."""

    def _certified_unreachable(self, displacement):
        if self.backend.kind == "finite-table":
            sub = SubgroupDescription.of(self.backend, self.letters or [self.backend.identity()])
            return displacement not in sub.closure()
        return super()._certified_unreachable(displacement)


GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1))


def test_lebesgue_truncation_flags_unchanged_on_dihedral_covers(monkeypatch):
    flags = []
    for n in range(3, 7):
        act, cover = dihedral_cover(n)
        carrier = list(cover.carrier)
        for lam in GRID:
            for n_max in (0, 1, 4):
                new = DSLambdaMetric(act, lam, n_max).table(carrier)
                ref = RefMetric(act, lam, n_max).table(carrier)
                assert (new.truncated, new.values) == (ref.truncated, ref.values)
                flags.append(new.truncated)
        new_search = lebesgue_lambda_search(act, cover, Fraction(1, 2), GRID, 4)
        with monkeypatch.context() as patched:
            patched.setattr(actions, "DSLambdaMetric", RefMetric)
            assert new_search == lebesgue_lambda_search(act, cover, Fraction(1, 2), GRID, 4)
    assert True in flags and False in flags  # both kinds of table occur


def test_closure_is_built_once_per_metric(monkeypatch):
    act, cover = dihedral_cover(4)
    real, calls = SubgroupDescription.closure, []

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(SubgroupDescription, "closure", counted)
    metric = DSLambdaMetric(act, Fraction(1), 1)
    metric.table(list(cover.carrier))
    metric.table(list(cover.carrier))
    assert len(calls) == 1

    def capped(self, *args):
        calls.append(self)
        raise HorizonExceeded("subgroup closure exceeded cap")

    monkeypatch.setattr(SubgroupDescription, "closure", capped)
    calls.clear()
    metric = DSLambdaMetric(act, Fraction(1), 1)
    for _ in range(3):  # the memoised failure is raised again, not recomputed
        with pytest.raises(HorizonExceeded, match="closure exceeded cap"):
            metric.table(list(cover.carrier))
    assert len(calls) == 1
