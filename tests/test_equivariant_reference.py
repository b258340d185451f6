"""The transfers against the letterwise representation they replaced.

The twisted transfer, its functoriality homotopy and the K- and
L-transfer witnesses are chain maps between complexes over ``Z[G]``.
They used to be a second representation: a dict ``letter -> ChainMap``
over ``Z`` (``EquivariantChainMap`` on a ``LetterMap``), which
``project_to_point`` turned into a ``GRGradedMap`` for torsion.  That
code is kept below as the reference, with the pipelines written on it,
and a derandomized differential test runs both on the benchmark's
``pipeline`` inputs.
"""

import importlib.util
import os
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

import pytest

from klab import transfer
from klab.chaincore import (ChainComplex, ChainHomotopy, ChainMap, dual_complex,
                            self_torsion)
from klab.control import GPos
from klab.errors import HorizonExceeded, IdentityFailure, InputError, SupportEscape
from klab.gring import GRComplex, GRMatrix
from klab.groups import FiniteSubset, GroupBackend
from klab.intmat import IntMatrix, idempotent_splitting
from klab.ltheory import (PoincareWitness, UltraQuadraticComplex, symmetrized_dual,
                          verify_ultraquadratic)
from klab.transfer import (DSLambdaCertificate, KTransferResult, LTransferResult,
                           expand_complex, invert_equivariant, l_symmetric_complex,
                           module_tensor)

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                         "workloads.py")


# -- the reference: letter -> ChainMap over Z -----------------------------------


def place_letters(backend, letters, cosets, rows, cols):
    """Reference copy of the removed ``gring.place_letters``: the explicit
    matrix over ``cosets`` with block ``letters[a]`` at ``(g, g a)``;
    products ``g a`` outside the coset list are dropped."""
    index = {g: i for i, g in enumerate(cosets)}
    grid = [[None] * len(cosets) for _ in cosets]
    for g, grid_row in zip(cosets, grid):
        for a, blk in letters.items():
            si = index.get(backend.mul(g, a))
            if si is not None:
                grid_row[si] = blk
    return IntMatrix.from_blocks(grid, [rows] * len(cosets), [cols] * len(cosets))


class LetterMap:
    """Blocks indexed by group letters; zero blocks are dropped."""

    def __init__(self, backend: GroupBackend, letters: Dict[object, object]):
        self.backend = backend
        self.letters: Dict[object, object] = {}
        for a, m in letters.items():
            if not m.is_zero():
                self.letters[backend.canonical(a)] = m

    def letter(self, a):
        m = self.letters.get(self.backend.canonical(a))
        return self._zero_block() if m is None else m

    def is_zero(self) -> bool:
        return not self.letters

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LetterMap) and self.letters == other.letters

    def __add__(self, other: "LetterMap") -> "LetterMap":
        acc = dict(self.letters)
        for a, m in other.letters.items():
            s = acc.get(a)
            acc[a] = m if s is None else s + m
        return self._like(acc)

    def _convolve(self, other: "LetterMap",
                  allowed: Optional[FiniteSubset] = None) -> Dict[object, object]:
        acc: Dict[object, object] = {}
        mul = self.backend.mul
        for a, x in self.letters.items():
            for b, y in other.letters.items():
                c = mul(a, b)
                if allowed is not None and c not in allowed:
                    raise HorizonExceeded(f"product letter {c!r} escapes the allowed ball")
                prod = x @ y
                s = acc.get(c)
                acc[c] = prod if s is None else s + prod
        return acc

    def _inverse_letters(self, block: Callable) -> Dict[object, object]:
        return {self.backend.inv(a): block(m) for a, m in self.letters.items()}


class EquivariantChainMap(LetterMap):
    """Letter-indexed chain maps between fiber complexes over ``Z``."""

    def __init__(self, backend, source, target, degree, letters):
        if any(m.degree != degree for m in letters.values()):
            raise InputError("letter degree mismatch")
        self.source = source
        self.target = target
        self.degree = degree
        super().__init__(backend, letters)

    def _like(self, letters):
        return EquivariantChainMap(self.backend, self.source, self.target, self.degree, letters)

    def _zero_block(self) -> ChainMap:
        return ChainMap.zero(self.source, self.target, self.degree)

    def convolve(self, other, allowed=None):
        return EquivariantChainMap(self.backend, other.source, self.target,
                                   self.degree + other.degree, self._convolve(other, allowed))

    def symdual(self):
        return self._like(self._inverse_letters(symmetrized_dual))

    @staticmethod
    def identity(backend, c):
        return EquivariantChainMap(backend, c, c, 0, {backend.identity(): ChainMap.identity(c)})

    def is_homotopy_from_to(self, source_map, target_map) -> bool:
        keys = set(self.letters) | set(source_map.letters) | set(target_map.letters)
        return all(ChainHomotopy(source_map.letter(a), target_map.letter(a),
                                 self.letter(a).mats).holds() for a in keys)

    def expand(self, cosets: Sequence[object]) -> ChainMap:
        gs = [self.backend.canonical(g) for g in cosets]
        src = expand_complex(self.backend, self.source, gs)
        tgt = expand_complex(self.backend, self.target, gs)
        mats: Dict[int, IntMatrix] = {}
        for n in self.source.ranks:
            m = place_letters(self.backend, {a: blk.mat(n) for a, blk in self.letters.items()},
                              gs, self.target.rank(n + self.degree), self.source.rank(n))
            if m.entries:
                mats[n] = m
        return ChainMap(src, tgt, self.degree, mats, check=False)


class GRGradedMap(ChainMap):
    """Degree-``k`` graded map between complexes over ``Z[G]``, unchecked."""

    def __init__(self, source, target, degree, mats):
        super().__init__(source, target, degree, mats, check=False)


def constant_complex(backend, cx: ChainComplex) -> GRComplex:
    """An integral complex read over ``Z[G]``, its idempotents and positions dropped."""
    return GRComplex(backend, dict(cx.ranks),
                     {n: GRMatrix.constant(backend, cx.d(n)) for n in cx.ranks})


def project_to_point(eq: EquivariantChainMap) -> GRGradedMap:
    backend = eq.backend
    degs = {n for cmap in eq.letters.values() for n in cmap.mats}
    mats = {n: GRMatrix(backend, eq.target.rank(n + eq.degree), eq.source.rank(n),
                        {a: cmap.mat(n) for a, cmap in eq.letters.items()})
            for n in degs}
    return GRGradedMap(constant_complex(backend, eq.source),
                       constant_complex(backend, eq.target), eq.degree, mats)


def module_tensor_map(block, f, src, tgt) -> ChainMap:
    return ChainMap(src, tgt, f.degree, {n: block.kron(m) for n, m in f.mats.items()},
                    check=False)


def ref_tr(psi, P) -> EquivariantChainMap:
    src = module_tensor(psi.cols, P.P)
    tgt = module_tensor(psi.rows, P.P)
    letters = {}
    for a, block in psi.letters.items():
        if a not in P.S:
            raise SupportEscape(f"letter {a!r} is outside S")
        letters[a] = module_tensor_map(block, P.phi[a], src, tgt)
    return EquivariantChainMap(P.backend, src, tgt, 0, letters)


def ref_letter_pair_witness(x, y, P, src, tgt, through=None) -> EquivariantChainMap:
    acc = {}
    for a, ma in x.letters.items():
        for b, mb in y.letters.items():
            ab = P.backend.mul(a, b)
            if ab not in P.S:
                raise SupportEscape(f"product letter {ab!r} leaves S")
            hom = P.H[(a, b)].as_map()
            if through is not None:
                hom = through(hom)
            piece = module_tensor_map(ma @ mb, hom, src, tgt)
            acc[ab] = acc[ab] + piece if ab in acc else piece
    return EquivariantChainMap(P.backend, src, tgt, 1, acc)


def ref_functoriality_witness(psi2, psi, P) -> EquivariantChainMap:
    witness = ref_letter_pair_witness(psi2, psi, P, module_tensor(psi.cols, P.P),
                                      module_tensor(psi2.rows, P.P))
    lhs = ref_tr(psi2, P).convolve(ref_tr(psi, P))
    rhs = ref_tr(psi2 @ psi, P)
    if not witness.is_homotopy_from_to(lhs, rhs):
        raise IdentityFailure("functoriality homotopy identity fails")
    return witness


def ref_letter_bound(action, lam, letter, pairs) -> Fraction:
    """Best exhibited ``d_{S,Lambda}`` bound over the pairs of one letter, in
    ``Fraction``s: ``min over f in F_letter of 1 + Lambda * d(x, f(y))``, and
    ``Lambda * d(x, y)`` as well at the identity letter."""
    d, e = action.space.d, action.backend.identity()
    worst = Fraction(0)
    for (x, y) in pairs:
        options = [1 + lam * d(x, fm[action.index[y]]) for fm in action.f_set(letter)]
        if letter == e:
            options.append(lam * d(x, y))
        worst = max(worst, min(options))
    return worst


def ref_certify_dslambda(action, lam, pieces) -> DSLambdaCertificate:
    lam = Fraction(lam)
    per_piece = {name: max((ref_letter_bound(action, lam, a, set(cmap.support_pairs()))
                            for a, cmap in eq.letters.items()), default=Fraction(0))
                 for name, eq in pieces.items()}
    return DSLambdaCertificate(lam, max(per_piece.values(), default=Fraction(0)), per_piece)


def ref_control(P) -> Fraction:
    """The largest of the chain action's three achieved controls, in
    ``Fraction``s: ``d(x, phi_g(y))`` over the support of each ``phi_g``,
    the best grid time's ``d(x, H_{g,h}(y, t))`` over the support of each
    ``H_{g,h}``, and ``d(x, y)`` over the support of ``d`` and ``p``."""
    act, d = P.point_action, P.space.d
    phi = max((d(x, act.phi[g][act.index[y]])
               for g in P.S for x, y in P.phi[g].support_pairs()), default=Fraction(0))
    homotopy = max((min(d(x, m[act.index[y]]) for m in act.H[gh])
                    for gh, hom in P.H.items() for x, y in hom.as_map().support_pairs()),
                   default=Fraction(0))
    structure = [ChainMap(P.P, P.P, -1, P.P.d_total, check=False),
                 ChainMap(P.P, P.P, 0, P.P.p_total, check=False)]
    complex_ = max((d(x, y) for f in structure for x, y in f.support_pairs()),
                   default=Fraction(0))
    return max(phi, homotopy, complex_)


def ref_k_transfer(alpha, alpha_inv, P, lam) -> KTransferResult:
    lam = Fraction(lam)
    ident = GRMatrix.constant(alpha.backend, IntMatrix.identity(alpha.cols))
    if (alpha_inv @ alpha).letters != ident.letters \
            or (alpha @ alpha_inv).letters != ident.letters:
        raise InputError("alpha_inv does not invert alpha")
    tra = ref_tr(alpha, P)
    trinv = ref_tr(alpha_inv, P)
    h = ref_functoriality_witness(alpha_inv, alpha, P)
    k = ref_functoriality_witness(alpha, alpha_inv, P)
    cert = ref_certify_dslambda(P.point_action, lam,
                                {"map": tra, "inverse": trinv, "h": h, "k": k})
    return KTransferResult(tra.source, tra, trinv, h, k, cert, 1 + lam * ref_control(P))


def ref_projected_torsion(result: KTransferResult) -> GRMatrix:
    f = project_to_point(result.map)
    g = project_to_point(result.inverse)
    h = dict(project_to_point(result.h).mats)
    k = dict(project_to_point(result.k).mats)
    cx = result.complex
    if cx.p_total is not None and not cx.is_free():
        backend = result.map.backend
        bases = {n: idempotent_splitting(cx.p(n)) for n in cx.ranks}

        def conj(mats, degree):
            out = {}
            for n, m in mats.items():
                if n not in bases or n + degree not in bases:
                    continue
                b = GRMatrix.constant(backend, bases[n][0])
                r = GRMatrix.constant(backend, bases[n + degree][1])
                out[n] = r @ m @ b
            return out

        ranks = {n: bases[n][0].cols for n in cx.ranks}
        free_src = GRComplex(backend, ranks, conj({n: f.source.d(n) for n in cx.ranks}, -1))
        f = GRGradedMap(free_src, free_src, 0, conj(f.mats, 0))
        g = GRGradedMap(free_src, free_src, 0, conj(g.mats, 0))
        h = conj(h, 1)
        k = conj(k, 1)
    return self_torsion(f, g, ChainHomotopy(g.compose(f), ChainMap.identity(f.source), h),
                        ChainHomotopy(f.compose(g), ChainMap.identity(f.target), k)).matrix


def ref_l_transfer(alpha, P, lam) -> LTransferResult:
    lam = Fraction(lam)
    backend = alpha.backend
    S = P.S
    checks = []
    data = l_symmetric_complex(P)
    D = data.D
    m_rank = alpha.cols
    sigma_mod = alpha + alpha.transpose()
    sigma_inverse = invert_equivariant(sigma_mod)
    mdd = module_tensor(m_rank, D)
    mdd_dual = module_tensor(m_rank, dual_complex(D))
    phi_mu = {a: data.phi[a].compose(data.mu)
              for a in set(alpha.letters) | set(sigma_mod.letters)}
    psi = EquivariantChainMap(backend, mdd_dual, mdd, 0,
                              {a: module_tensor_map(blk, phi_mu[a], mdd_dual, mdd)
                               for a, blk in alpha.letters.items()})
    sigma_eq = psi + psi.symdual()
    expected = EquivariantChainMap(backend, mdd_dual, mdd, 0,
                                   {a: module_tensor_map(blk, phi_mu[a], mdd_dual, mdd)
                                    for a, blk in sigma_mod.letters.items()})
    checks.append(("symmetrization-identity", sigma_eq == expected))
    mu_inv = data.mu.integer_inverse()
    tau = EquivariantChainMap(backend, mdd, mdd_dual, 0,
                              {b: module_tensor_map(blk, mu_inv.compose(data.phi[b]),
                                                    mdd, mdd_dual)
                               for b, blk in sigma_inverse.letters.items()})
    k_eq = ref_letter_pair_witness(sigma_mod, sigma_inverse, data.chain, mdd, mdd)
    checks.append(("witness-k",
                   k_eq.is_homotopy_from_to(sigma_eq.convolve(tau),
                                            EquivariantChainMap.identity(backend, mdd))))
    h_eq = ref_letter_pair_witness(sigma_inverse, sigma_mod, data.chain, mdd_dual, mdd_dual,
                                   lambda hom: mu_inv.compose(hom).compose(data.mu))
    checks.append(("witness-h",
                   h_eq.is_homotopy_from_to(tau.convolve(sigma_eq),
                                            EquivariantChainMap.identity(backend, mdd_dual))))
    for name, eq in (("psi-letters", psi), ("inverse-letters", tau),
                     ("h-letters", h_eq), ("k-letters", k_eq)):
        checks.append((name + "-in-S", all(a in S for a in eq.letters)))
    cert = ref_certify_dslambda(data.pair_action, lam,
                                {"psi": psi, "sigma": sigma_eq, "inverse": tau,
                                 "h": h_eq, "k": k_eq})
    return LTransferResult(data, mdd, psi, sigma_eq, tau, h_eq, k_eq, cert,
                           1 + lam * ref_control(data.chain), checks)


def ref_expanded(result: LTransferResult):
    """The four expanded maps and the complex of ``expanded_ultraquadratic``."""
    backend = result.psi.backend
    cosets = backend.elements()
    c_exp = expand_complex(backend, result.complex, cosets).relabel(
        lambda p: GPos(p.g, (p.g, p.z)))
    cd_exp = dual_complex(c_exp)
    psi = result.psi.expand(cosets).retarget(cd_exp, c_exp)
    inverse = result.inverse.expand(cosets).retarget(c_exp, cd_exp)
    sigma_full = result.sigma.expand(cosets).retarget(cd_exp, c_exp)
    h = ChainHomotopy(inverse.compose(sigma_full), ChainMap.identity(cd_exp),
                      dict(result.h.expand(cosets).mats))
    k = ChainHomotopy(sigma_full.compose(inverse), ChainMap.identity(c_exp),
                      dict(result.k.expand(cosets).mats))
    return UltraQuadraticComplex(c_exp, psi, PoincareWitness(inverse, h, k))


# -- the differential test ------------------------------------------------------


def load_pipeline():
    # loaded from its path without registering it, so perfbench stays untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Pipeline()


def per_letter(eq) -> Dict[object, Dict[int, IntMatrix]]:
    return {a: dict(cmap.mats) for a, cmap in eq.letters.items()}


def letter_support(eq, e):
    """``((e, x), (a, y))`` for every entry of the per-letter view."""
    out = set()
    for a, cmap in eq.letters.items():
        for n, m in cmap.mats.items():
            tgt, src = cmap.target.pos(n + cmap.degree), cmap.source.pos(n)
            out |= {((e, tgt[i]), (a, src[j])) for (i, j) in m.entries}
    return out


def same_certificate(a: DSLambdaCertificate, b: DSLambdaCertificate) -> bool:
    return (a.lam, a.bound, a.pieces) == (b.lam, b.bound, b.pieces)


def audit(uq: UltraQuadraticComplex, result: LTransferResult, P, space):
    rep = verify_ultraquadratic(uq, eps=result.target_bound, S=P.S,
                                backend=P.backend, space=space)
    return [(name, okay) for name, okay, _ in rep.items]


@pytest.mark.parametrize("seed", range(4))
def test_transfers_match_the_letterwise_reference(seed):
    pipeline = load_pipeline()
    half = Fraction(1, 2)
    for index in range(pipeline.checks):
        pcx, psi, psi2, quad, alpha, alpha_inv = pipeline.make(seed, index)[:6]
        where = (seed, index)

        witness = transfer.functoriality_witness(psi2, psi, pcx)
        assert per_letter(witness) == per_letter(ref_functoriality_witness(psi2, psi, pcx)), where

        kres = transfer.k_transfer(alpha, alpha_inv, pcx, half)
        kref = ref_k_transfer(alpha, alpha_inv, pcx, half)
        e = pcx.backend.identity()
        for name in ("map", "inverse", "h", "k"):
            assert per_letter(getattr(kres, name)) == per_letter(getattr(kref, name)), where
            piece = getattr(kres, name)
            assert set(piece.support_pairs()) == letter_support(piece, e), where
        assert same_certificate(kres.certificate, kref.certificate), where
        assert kres.target_bound == kref.target_bound, where
        assert transfer.projected_torsion(kres).det() == ref_projected_torsion(kref).det(), where

        lres = transfer.l_transfer(quad, pcx, half)
        lref = ref_l_transfer(quad, pcx, half)
        assert lres.checks == lref.checks, where
        for name in ("psi", "sigma", "inverse", "h", "k"):
            assert per_letter(getattr(lres, name)) == per_letter(getattr(lref, name)), where
            piece = getattr(lres, name)
            assert set(piece.support_pairs()) == letter_support(piece, e), where
        assert same_certificate(lres.certificate, lref.certificate), where
        assert lres.target_bound == lref.target_bound, where

        uq, space = transfer.expanded_ultraquadratic(lres, half)
        uq_ref = ref_expanded(lref)
        assert uq.psi == uq_ref.psi and uq.C == uq_ref.C, where
        assert uq.witness.inverse == uq_ref.witness.inverse, where
        assert uq.witness.h.mats == uq_ref.witness.h.mats, where
        assert uq.witness.k.mats == uq_ref.witness.k.mats, where
        assert audit(uq, lres, pcx, space) == audit(uq_ref, lref, pcx, space), where
