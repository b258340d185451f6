"""Chain homotopy S-actions, the twisted transfer, the finite
replacement of dominated complexes, and the K- and L-transfer pipelines.

Everything here is equivariant data on a fundamental domain: a morphism
over ``G x Z`` is a chain map between fibers read over ``Z[G]``, whose
matrices hold one integral block per group letter, and the transferred
objects carry exact control certificates in the ``d_{S,Lambda}`` sense
(an explicit one-move chain witnesses each support pair, giving the
``1 + Lambda * eps`` bound).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .actions import DSLambdaMetric, HomotopySAction, check_lambda
from .chaincore import (ChainComplex, ChainHomotopy, ChainMap, cone_torsion, dual_complex,
                        dual_map, tensor_complex, tensor_map)
from .control import (ControlSpace, GPos, grid_control, max_displacement, point_indices,
                      support_indices)
from .errors import (HorizonExceeded, HypothesisViolation, IdentityFailure,
                     IdempotentFailure, InputError, NotAnEquivalence, SupportEscape)
from .gring import GRComplex, GRMatrix, place_letters
from .groups import FiniteSubset, GroupBackend
from .intmat import IntMatrix, idempotent_splitting, sign
from .ltheory import (PoincareWitness, UltraQuadraticComplex,
                      mult_hyperbolic_complex, symmetrized_dual)
from .p2 import p2_action, p2_metric, unordered_pair


def group_module(rank: int) -> int:
    """Deprecated shim: the rank itself.  Only ``perfbench/workloads.py`` uses
    it, to build the ``control.EquivariantMorphism`` shim that
    ``perfbench/tracer.py`` patches; both go with ``EquivariantChainMap.letters``."""
    return rank


def _module_index(rank: int, p: ChainComplex) -> Tuple[List[int], List[int]]:
    """``(base, stride)``: basis vector ``i`` of ``P`` in copy ``a`` of
    ``Z^rank ox P`` is ``base[i] + a * stride[i]`` on its total basis,
    degree by degree, each degree in kron order (module, fiber)."""
    degs, locs = p._basis()
    return [rank * p.offsets[n] + loc for n, loc in zip(degs, locs)], [p.ranks[n] for n in degs]


def module_tensor(rank: int, p: ChainComplex) -> ChainComplex:
    """``Z^rank ox P`` with kron index order (module, fiber) in each degree."""
    base, stride = _module_index(rank, p)

    def lift(m: IntMatrix) -> IntMatrix:
        return IntMatrix._trusted(rank * p.size, rank * p.size, {
            (base[i] + a * stride[i], base[j] + a * stride[j]): v
            for (i, j), v in m.entries.items() for a in range(rank)})
    positions = None
    if p.pos_total is not None:
        positions = tuple(x for n, off in p.offsets.items()
                          for x in p.pos_total[off:off + p.ranks[n]] * rank)
    return ChainComplex({n: rank * r for n, r in p.ranks.items()}, lift(p.d_total),
                        None if p.p_total is None else lift(p.p_total), positions, check=False)


def _structure_maps(cx: ChainComplex) -> List[ChainMap]:
    """The differential and the idempotents as degree -1 and degree 0 maps."""
    return [ChainMap(cx, cx, -1, cx.d_total, check=False),
            ChainMap(cx, cx, 0, cx.p_total, check=False)]


# -- chain homotopy S-actions -------------------------------------------------


class PointEquivalence:
    """Equivalence of a homotopy S-chain complex with the trivial complex."""

    def __init__(self, to_point: ChainMap, from_point: ChainMap, basepoint: object):
        self.to_point = to_point      # P -> T
        self.from_point = from_point  # T -> P
        self.basepoint = basepoint


class HomotopySChainComplex:
    """Positioned complex with chain maps ``phi_g`` and homotopies
    ``H_{g,h}: phi_g o phi_h ~ phi_gh``; ``phi_e = id`` and ``H_{e,e} = 0``."""

    def __init__(self, backend: GroupBackend, space: ControlSpace, S: FiniteSubset,
                 P: ChainComplex, phi: Dict[object, ChainMap],
                 homotopies: Dict[Tuple[object, object], ChainHomotopy],
                 point_action: Optional[HomotopySAction] = None,
                 point_equivalence: Optional[PointEquivalence] = None,
                 check: bool = True):
        self.backend = backend
        self.space = space
        self.S = S
        self.P = P
        self.phi = {backend.canonical(g): m for g, m in phi.items()}
        self.H = {(backend.canonical(g), backend.canonical(h)): hom
                  for (g, h), hom in homotopies.items()}
        self.point_action = point_action
        self.point_equivalence = point_equivalence
        if check:
            self.validate()

    def validate(self) -> None:
        e = self.backend.identity()
        if e not in self.S:
            raise InputError("S must contain the identity")
        for g in self.S:
            if g not in self.phi:
                raise InputError(f"phi missing for {g!r}")
            self.phi[g].validate()
        if self.phi[e] != ChainMap.identity(self.P):
            raise InputError("phi_e must be the identity")
        for g, h, gh in self.S.products:
            hom = self.H.get((g, h))
            if hom is None:
                raise InputError(f"homotopy missing for pair ({g!r},{h!r})")
            if (hom.source_map != self.phi[g].compose(self.phi[h])
                    or hom.target_map != self.phi[gh]):
                raise InputError(f"H[{g!r},{h!r}] endpoints are wrong")
            if not hom.holds():
                raise InputError(f"H[{g!r},{h!r}] homotopy identity fails")
        if not self.H[(e, e)].total.is_zero():
            raise InputError("H[e,e] must be zero")
        act = self.point_action
        if act is not None:
            if act.space is not self.space:
                raise InputError("the point action must act on the chain action's space")
            if not set(self.S.products) <= set(act.S.products):
                raise InputError("the point action must have every product (g, h, gh) "
                                 "of the chain action's S")
        if self.point_equivalence is not None:
            pe = self.point_equivalence
            if pe.to_point.compose(pe.from_point) != ChainMap.identity(pe.to_point.target):
                raise InputError("point equivalence must satisfy f o fbar = id_T")

    # -- control certificates against the underlying point action -------

    def achieved_complex_control(self) -> Fraction:
        return max_displacement(_structure_maps(self.P), self.space)

    def achieved_phi_control(self) -> Fraction:
        """max over ``g`` and support pairs of ``d(x, phi_g(y))``, with
        ``y`` and ``phi_g`` read in the point action's order."""
        act = self.point_action
        if act is None:
            raise InputError("certificates need the underlying point action")
        return grid_control(self.space, ((self.phi[g], (act.phi[g],)) for g in self.S), act.index)

    def achieved_homotopy_control(self) -> Fraction:
        """max over pairs and support of min over grid times of
        ``d(x, H_{g,h}(y, t))``, with ``y`` and the grid read in the point
        action's order."""
        act = self.point_action
        if act is None:
            raise InputError("certificates need the underlying point action")
        return grid_control(self.space, ((hom.as_map(), act.H[gh]) for gh, hom in self.H.items()),
                            act.index)


# -- equivariant chain maps ----------------------------------------------------


class EquivariantChainMap(ChainMap):
    """Chain map between constant complexes over ``Z[G]`` (``GRComplex.constant``
    fibers): the letter-``a`` matrix of ``total`` maps the source fiber at
    coset ``g a`` to the target fiber at ``g``."""

    @property
    def letters(self) -> Dict[object, ChainMap]:
        """``{a: the letter-a matrix}`` as maps between the integral fibers;
        a letter with no entry is absent.  A view for outside readers,
        rebuilt on every read: the library reads ``total`` (and
        ``support_pairs``) directly."""
        src, tgt = _fiber(self.source), _fiber(self.target)
        return {a: ChainMap(src, tgt, self.degree, m, check=False)
                for a, m in self.total.letters.items()}


def _fiber(cx: ChainComplex) -> ChainComplex:
    """The integral complex that a constant complex over ``Z[G]`` holds at letter e."""
    e = cx.ring.backend.identity()
    return ChainComplex(cx.ranks, cx.d_total.letter(e),
                        None if cx.p_total is None else cx.p_total.letter(e),
                        cx.pos_total, check=False)


def _module_map(source: ChainComplex, target: ChainComplex, degree: int,
                terms: Iterable[Tuple[object, IntMatrix, ChainMap]]) -> EquivariantChainMap:
    """The sum of ``block ox f`` at letter ``a`` over the terms ``(a, block, f)``,
    between module tensors ``Z^m ox P`` read over ``Z[G]``, placed on
    their total bases."""
    acc: Dict[object, Dict[Tuple[int, int], int]] = {}
    index: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}

    def module_index(rank: int, fiber: ChainComplex):
        key = (rank, id(fiber))  # the terms share their fibers
        if key not in index:
            index[key] = _module_index(rank, fiber)
        return index[key]

    for a, block, f in terms:
        (tb, ts), (sb, ss) = module_index(block.rows, f.target), module_index(block.cols, f.source)
        out = acc.setdefault(a, {})
        entries = f.total.entries.items()
        for (s, t), u in block.entries.items():
            for (i, j), v in entries:
                key = (tb[i] + s * ts[i], sb[j] + t * ss[j])
                x = out.get(key, 0) + u * v
                if x:
                    out[key] = x
                else:
                    del out[key]
    return EquivariantChainMap(source, target, degree, GRMatrix(
        source.ring.backend, target.size, source.size,
        {a: IntMatrix._trusted(target.size, source.size, e) for a, e in acc.items()}),
        check=False)


def _lifts(P: HomotopySChainComplex, *ranks: int) -> Dict[int, ChainComplex]:
    """``Z^m ox P`` read over ``Z[G]`` for each rank ``m``: one transfer call
    builds them once and every map it makes runs between them."""
    return {m: GRComplex.constant(P.backend, module_tensor(m, P.P)) for m in set(ranks)}


def expand_complex(backend: GroupBackend, fiber: ChainComplex,
                   cosets: Sequence[object]) -> ChainComplex:
    """Direct sum of translated fibers over an explicit coset list."""
    gs = [backend.canonical(g) for g in cosets]
    cx = module_tensor(len(gs), fiber)
    if fiber.pos_total is None:
        return cx
    return ChainComplex(cx.ranks, cx.d_total, cx.p_total,
                        tuple(GPos(g, z) for n, off in fiber.offsets.items() for g in gs
                              for z in fiber.pos_total[off:off + fiber.ranks[n]]),
                        check=False)


# -- the transfer --------------------------------------------------------------


def tr(psi: GRMatrix, P: HomotopySChainComplex) -> EquivariantChainMap:
    """``tr psi = sum over a of psi_a ox phi^P_a``.

    Source and target are module tensors ``M ox P`` read over ``Z[G]``;
    letters outside the S of the chain action raise support-escape.
    """
    return _tr(psi, P, _lifts(P, psi.cols, psi.rows))


def _tr(psi: GRMatrix, P: HomotopySChainComplex,
        lifts: Dict[int, ChainComplex]) -> EquivariantChainMap:
    for a in psi.letters:
        if a not in P.S:
            raise SupportEscape(f"letter {a!r} is outside S")
    return _module_map(lifts[psi.cols], lifts[psi.rows], 0,
                       ((a, block, P.phi[a]) for a, block in psi.letters.items()))


def _letter_pair_witness(x: GRMatrix, y: GRMatrix,
                         P: HomotopySChainComplex, src: ChainComplex, tgt: ChainComplex,
                         through=None) -> EquivariantChainMap:
    """``sum over a, b of (x_a @ y_b) ox H_{a,b}``, each homotopy first
    passed through ``through`` when given; a product ``ab`` outside S
    raises support-escape."""
    def terms():
        for a, ma in x.letters.items():
            for b, mb in y.letters.items():
                ab = P.backend.mul(a, b)
                if ab not in P.S:
                    raise SupportEscape(f"product letter {ab!r} leaves S")
                hom = P.H[(a, b)].as_map()
                yield ab, ma @ mb, hom if through is None else through(hom)
    return _module_map(src, tgt, 1, terms())


def functoriality_witness(psi2: GRMatrix, psi: GRMatrix,
                          P: HomotopySChainComplex) -> EquivariantChainMap:
    """Exact homotopy ``sum (psi2_a o psi_b) ox H_{a,b}`` from
    ``tr(psi2) o tr(psi)`` to ``tr(psi2 o psi)``."""
    lifts = _lifts(P, psi.cols, psi.rows, psi2.rows)
    return _functoriality_witness(psi2, psi, P, lifts, _tr(psi2, P, lifts), _tr(psi, P, lifts),
                                  _tr(psi2 @ psi, P, lifts))


def _functoriality_witness(psi2: GRMatrix, psi: GRMatrix,
                           P: HomotopySChainComplex, lifts: Dict[int, ChainComplex],
                           tr_psi2: EquivariantChainMap, tr_psi: EquivariantChainMap,
                           rhs: ChainMap) -> EquivariantChainMap:
    """The witness for ``tr_psi2 = tr(psi2)``, ``tr_psi = tr(psi)`` and
    ``rhs = tr(psi2 o psi)``, which the caller already holds."""
    witness = _letter_pair_witness(psi2, psi, P, lifts[psi.cols], lifts[psi2.rows])
    if not ChainHomotopy(tr_psi2.compose(tr_psi), rhs, witness.total).holds():
        raise IdentityFailure("functoriality homotopy identity fails "
                              "(convention mismatch)")
    return witness


# -- d_{S,Lambda} control certificates ----------------------------------------


class DSLambdaCertificate:
    """Achieved bound ``max(1 + Lambda * d(x, f(y)))`` over support pairs,
    each witnessed by a one-move chain in the metric's defining graph."""

    def __init__(self, lam: Fraction, bound: Fraction, pieces: Dict[str, Fraction]):
        self.lam = lam
        self.bound = bound
        self.pieces = pieces

    def within(self, target: Fraction) -> bool:
        return self.bound <= target


def certify_dslambda(action: HomotopySAction, lam: Fraction,
                     pieces: Dict[str, EquivariantChainMap]) -> DSLambdaCertificate:
    """Certificate for transferred data relabeled over ``G x X``.

    A support pair ``(x, y)`` of the letter-``c`` block sits at
    ``((e, x), (c, y))``, as ``ChainMap.support_pairs`` yields it over
    ``Z[G]``; the exhibited chain through ``f in F_c`` bounds its
    ``d_{S,Lambda}`` distance by ``1 + Lambda * d(x, f(y))``.

    One walk over each piece's support reads the bounds in integers on
    the ``scaled()`` rows, over ``den = q * scale`` for ``Lambda = p / q``:
    each ``(c, x, y)`` bound once across the pieces, from each ``F_c``
    read on point indices once, and one ``Fraction`` per piece.
    """
    lam = check_lambda(lam)
    scale, rows = action.space.scaled()
    index, p, den = action.index, lam.numerator, lam.denominator * scale
    e = action.backend.identity()
    maps: Dict[object, List[List[int]]] = {}  # letter c -> F_c on point indices
    bounds: Dict[Tuple[object, int, int], int] = {}  # (c, x, y) -> den * bound
    per_piece = {}
    for name, eq in pieces.items():
        worst = 0
        for pair in support_indices(eq, index, index):
            v = bounds.get(pair)
            if v is None:
                c, x, y = pair
                fc = maps.get(c)
                if fc is None:
                    fc = maps[c] = [point_indices(fm, index) for fm in action.f_set(c)]
                row = rows[x]
                v = min(den + p * row[f[y]] for f in fc)  # den * (1 + Lambda * d(x, f(y)))
                if c == e:  # the chain with no move: Lambda * d(x, y)
                    v = min(v, p * row[y])
                bounds[pair] = v
            if v > worst:
                worst = v
        per_piece[name] = Fraction(worst, den)
    return DSLambdaCertificate(lam, max(per_piece.values(), default=Fraction(0)), per_piece)


# -- K-theory transfer ----------------------------------------------------------


def _check_square_inside(backend: GroupBackend, letters, S: FiniteSubset) -> None:
    """Support-escape unless every product of two letters lies in ``S``."""
    if any(backend.mul(a, b) not in S for a in letters for b in letters):
        raise SupportEscape("T.T does not stay inside S")


class KTransferResult:
    def __init__(self, complex: ChainComplex, map: EquivariantChainMap,
                 inverse: EquivariantChainMap, h: EquivariantChainMap, k: EquivariantChainMap,
                 certificate: DSLambdaCertificate, target_bound: Fraction):
        self.complex = complex  # fiber of M ox P
        self.map = map          # tr(alpha)
        self.inverse = inverse  # tr(alpha^{-1})
        self.h = h              # homotopy tr(a^-1) tr(a) ~ id
        self.k = k              # homotopy tr(a) tr(a^-1) ~ id
        self.certificate = certificate
        self.target_bound = target_bound

    def certified(self) -> bool:
        return self.certificate.within(self.target_bound)


def k_transfer(alpha: GRMatrix, alpha_inv: GRMatrix,
               P: HomotopySChainComplex, lam: Fraction) -> KTransferResult:
    """Lift of a T-automorphism to an ``(S, 1 + Lambda*eps)``-controlled
    self-equivalence of ``M ox P``.

    ``alpha_inv`` must invert ``alpha`` letterwise (the convolutions are
    verified); the homotopy witnesses come from the functoriality
    homotopy, and the certificate bounds the support of every output
    piece in the ``d_{S,Lambda}`` sense.
    """
    lam = check_lambda(lam)
    if P.point_action is None:
        raise InputError("k_transfer needs the underlying point action")
    ident = GRMatrix.constant(alpha.backend, IntMatrix.identity(alpha.cols))
    if alpha_inv @ alpha != ident or alpha @ alpha_inv != ident:
        raise InputError("alpha_inv does not invert alpha")
    _check_square_inside(alpha.backend, list(alpha.letters) + list(alpha_inv.letters), P.S)
    lifts = _lifts(P, alpha.cols, alpha.rows)
    tra = _tr(alpha, P, lifts)
    trinv = _tr(alpha_inv, P, lifts)
    # h: tr(inv) tr(a) ~ tr(id) = id, as phi_e = id; same for k with the roles swapped
    h = _functoriality_witness(alpha_inv, alpha, P, lifts, trinv, tra,
                               ChainMap.identity(tra.source))
    k = _functoriality_witness(alpha, alpha_inv, P, lifts, tra, trinv,
                               ChainMap.identity(trinv.source))
    cert = certify_dslambda(P.point_action, lam,
                            {"map": tra, "inverse": trinv, "h": h, "k": k})
    eps = max(P.achieved_phi_control(), P.achieved_homotopy_control(),
              P.achieved_complex_control())
    return KTransferResult(_fiber(tra.source), tra, trinv, h, k, cert, 1 + lam * eps)


def projected_torsion(result: KTransferResult) -> GRMatrix:
    """K_1 representative of the transfer, a self-equivalence of free
    ``Z[G]``-complexes.

    Idempotent-completed fibers are first conjugated onto free summands:
    the fiber idempotents are integer matrices, so their images split
    off unimodularly and all identities transport through ``x -> R x B``.
    The homotopies ``g o f ~ id`` and ``f o g ~ id`` are built on one
    composite each and checked here; the representative is
    ``chaincore.cone_torsion`` of the witnesses.
    """
    f, g = result.map, result.inverse
    h, k = result.h.total, result.k.total
    cx = result.complex
    if not cx.is_free():
        backend = f.source.ring.backend
        bases = {n: idempotent_splitting(cx.p(n)) for n in cx.ranks}
        free = ChainComplex({n: b.cols for n, (b, _) in bases.items()})
        # x -> R x B degree by degree, as one product on the total bases
        b = GRMatrix.constant(backend, ChainMap(free, cx, 0, {n: b for n, (b, _) in bases.items()},
                                                check=False).total)
        r = GRMatrix.constant(backend, ChainMap(cx, free, 0, {n: r for n, (_, r) in bases.items()},
                                                check=False).total)

        def conj(m: GRMatrix) -> GRMatrix:
            return r @ m @ b

        free_src = GRComplex(backend, free.ranks, conj(f.source.d_total))
        f = ChainMap(free_src, free_src, 0, conj(f.total), check=False)
        g = ChainMap(free_src, free_src, 0, conj(g.total), check=False)
        h = conj(h)
        k = conj(k)
    if not f.is_chain_map() or not g.is_chain_map():
        raise NotAnEquivalence("torsion inputs must be chain maps")
    h_hom = ChainHomotopy(g.compose(f), ChainMap.identity(f.source), h)
    k_hom = ChainHomotopy(f.compose(g), ChainMap.identity(f.target), k)
    if not h_hom.holds() or not k_hom.holds():
        raise NotAnEquivalence("homotopy witnesses do not certify an equivalence")
    return cone_torsion(f, g, h_hom.as_map(), k_hom.as_map())


# -- finite replacement (the staircase construction) ---------------------------


class FiniteReplacementResult:
    def __init__(self, P: ChainComplex, f: ChainMap, g: ChainMap, k: ChainHomotopy,
                 l: ChainHomotopy, staircase: ChainComplex, checks: List[Tuple[str, bool]]):
        self.P = P
        self.f = f                  # C -> P
        self.g = g                  # P -> C
        self.k = k                  # f o g ~ id_P
        self.l = l                  # g o f ~ id_C
        self.staircase = staircase  # C' up to the checked tail degrees
        self.checks = checks

    def ok(self) -> bool:
        return all(okay for _, okay in self.checks)


def finite_replacement(C: ChainComplex, D: ChainComplex, i: ChainMap,
                       r: ChainMap, h: ChainHomotopy) -> FiniteReplacementResult:
    """Replace a dominated complex by a finite idempotent-completed one.

    Implements the staircase complex ``C'_m = sum_{j<=m} D_j`` with the
    displayed differential, the maps ``f', g', k'``, the stabilized tail
    with its idempotent, ``u, v`` with ``v o u = id``, and the final
    homotopies ``k = v o k' o u`` and ``l = h - g' o l' o f'``.  Every
    identity family is verified exactly and reported.
    """
    if C.lo < 0:
        raise InputError("C must be concentrated in non-negative degrees")
    if D.lo < 0:
        raise InputError("D must be concentrated in non-negative degrees")
    ri = r.compose(i)
    if h.source_map != ri or h.target_map != ChainMap.identity(C):
        raise InputError("h must be a homotopy from r o i to id_C")
    if not h.holds():
        raise InputError("domination homotopy identity fails")
    N = D.hi
    cap = N + 3
    checks: List[Tuple[str, bool]] = []

    hm = h.as_map()
    ir = {j: i.mats[j] @ r.mats[j] for j in range(N + 1) if j in i.mats and j in r.mats}

    def h_chain(j: int, m: int) -> Optional[IntMatrix]:
        """``h_{m-1} ... h_j r_j``, or None when a factor is absent (zero)."""
        comp = r.mats.get(j)
        for t in range(j, m):
            if comp is None or t not in hm.mats:
                return None
            comp = hm.mats[t] @ comp
        return comp

    def djk(m: int, j: int, k_: int) -> Optional[IntMatrix]:
        """Block ``D_j -> D_k`` of the staircase differential out of degree m.

        The degree entering the signs and the diagonal parity is the
        target degree ``m - 1``; with the source degree instead, the
        inclusion-shaped maps ``f'`` and ``k'`` fail their identities on
        any instance with ``d circ i != 0`` (verified exhaustively).
        """
        mm = m - 1
        if j >= k_ + 2:
            return None
        if j == k_ + 1:
            dj = D.diff.get(j)
            return None if dj is None else dj.scale(sign(mm + k_))
        if j == k_:
            if (j - mm) % 2:
                return ir.get(j)
            ident = IntMatrix.identity(D.rank(j))
            return ident - ir[j] if j in ir else ident
        # j <= k_ - 1: i_k h_{k-1} ... h_j r_j with the alternating sign
        comp, ik = h_chain(j, k_), i.mats.get(k_)
        return None if comp is None or ik is None else (ik @ comp).scale(sign(mm + k_ + 1))

    ranks = {m: sum(D.rank(j) for j in range(min(m, N) + 1)) for m in range(cap + 1)}
    diff: Dict[int, IntMatrix] = {}
    for m in range(1, cap + 1):
        js = list(range(0, min(m, N) + 1))
        ks = list(range(0, min(m - 1, N) + 1))
        diff[m] = IntMatrix.from_blocks(
            [[djk(m, j, k_) for j in js] for k_ in ks],
            [D.rank(k_) for k_ in ks], [D.rank(j) for j in js])
    positions = None if D.positions is None else {
        m: tuple(p for j in range(min(m, N) + 1) for p in D.pos(j)) for m in range(cap + 1)}
    try:
        staircase = ChainComplex(ranks, diff, positions=positions)
        checks.append(("staircase-d-squared", True))
    except ValueError:
        staircase = ChainComplex(ranks, diff, positions=positions, check=False)
        checks.append(("staircase-d-squared", False))

    # f'_m = (0, ..., 0, i_m); g'_m = sum_j h_{m-1} ... h_j r_j
    fp_mats: Dict[int, IntMatrix] = {}
    gp_mats: Dict[int, IntMatrix] = {}
    for m in range(cap + 1):
        js = list(range(0, min(m, N) + 1))
        cols = [D.rank(j) for j in js]
        # f'_m = (0, ..., 0, i_m) stacked into the direct sum
        fp_mats[m] = IntMatrix.from_blocks(
            [[(i.mats.get(m) if (j == m and m <= N) else None)] for j in js],
            cols, [C.rank(m)])
        gp_mats[m] = IntMatrix.from_blocks([[h_chain(j, m) for j in js]], [C.rank(m)], cols)
    fprime = ChainMap(C, staircase, 0, fp_mats, check=False)
    gprime = ChainMap(staircase, C, 0, gp_mats, check=False)
    checks.append(("f-prime-chain-map", fprime.is_chain_map()))
    checks.append(("g-prime-chain-map", gprime.is_chain_map()))
    checks.append(("gf-equals-ri", gprime.compose(fprime) == ri))

    # k': f' o g' ~ id_{C'} via the inclusion C'_m -> C'_{m+1}
    kp_mats = {m: IntMatrix(ranks[m + 1], ranks[m], {(t, t): 1 for t in range(ranks[m])})
               for m in range(cap)}
    kprime = ChainHomotopy(fprime.compose(gprime), ChainMap.identity(staircase), kp_mats)
    checks.append(("k-prime-homotopy", all(map(kprime.holds_at, range(cap)))))

    # tail: c'_m idempotent for m >= N+1 and c'_{m+1} = id - c'_m
    ident_n = IntMatrix.identity(ranks[N])
    tail_ok = (all(diff[m] @ diff[m] == diff[m] for m in range(N + 1, cap + 1))
               and all(diff[m + 1] == ident_n - diff[m] for m in range(N + 1, cap)))
    checks.append(("tail-idempotency", tail_ok))
    if not tail_ok:
        raise IdempotentFailure("stabilized tail is not idempotent")
    c_top = diff[N + 1]
    pN = ident_n - c_top

    # P = D': degrees 0..N with the idempotent at the top
    p_ranks = {m: ranks[m] for m in range(N + 1)}
    p_diff = {m: diff[m] for m in range(1, N)} if N >= 2 else {}
    if N >= 1:
        p_diff[N] = diff[N] @ pN
    p_idem = {m: (pN if m == N else IntMatrix.identity(ranks[m])) for m in range(N + 1)}
    p_positions = {m: positions[m] for m in range(N + 1)} if positions else None
    P = ChainComplex(p_ranks, p_diff, p_idem, p_positions)

    # u: P -> C' and v: C' -> P, both the idempotents of P
    u = ChainMap(P, staircase, 0, p_idem, check=False)
    v = ChainMap(staircase, P, 0, p_idem, check=False)
    checks.append(("u-chain-map", u.is_chain_map()))
    checks.append(("v-chain-map", v.is_chain_map()))
    checks.append(("vu-identity", v.compose(u) == ChainMap.identity(P)))

    # l': id_{C'} ~ u o v; the alternating tail enters negated under the
    # homotopy convention dH + Hd = target - source
    lp_mats = {m: c_top - ident_n if (m - N) % 2 else -c_top for m in range(N, cap)}
    lprime = ChainHomotopy(ChainMap.identity(staircase), u.compose(v), lp_mats)
    checks.append(("l-prime-homotopy", all(map(lprime.holds_at, range(cap)))))

    f = v.compose(fprime)
    g = gprime.compose(u)
    # v has no degree N + 1, so k_N is zero
    k = ChainHomotopy(f.compose(g), ChainMap.identity(P), v.total @ kprime.total @ u.total)
    checks.append(("k-homotopy", k.holds()))
    lpm = ChainMap(staircase, staircase, 1, lp_mats, check=False)
    l_map = hm - gprime.compose(lpm).compose(fprime)
    l = ChainHomotopy(g.compose(f), ChainMap.identity(C), l_map.total)
    checks.append(("l-homotopy", l.holds()))
    return FiniteReplacementResult(P, f, g, k, l, staircase, checks)


def replacement_control_growth(result: FiniteReplacementResult,
                               space: ControlSpace) -> Fraction:
    """Largest displacement among P, f, g, k, l over the control space."""
    maps = _structure_maps(result.P) + [result.f, result.g, result.k.as_map(),
                                        result.l.as_map()]
    return max_displacement(maps, space)


# -- chain action induced on a finite replacement ------------------------------


def induce_chain_action(repl: FiniteReplacementResult, backend: GroupBackend,
                        space: ControlSpace, S: FiniteSubset,
                        phi_c: Dict[object, ChainMap],
                        H_c: Dict[Tuple[object, object], ChainHomotopy],
                        point_action: Optional[HomotopySAction] = None
                        ) -> HomotopySChainComplex:
    """Conjugate a chain action on the dominated complex onto ``P``.

    ``phi^P_g = f o phi_g o g`` for nontrivial ``g`` (identity at ``e``),
    with homotopies assembled from the conjugation defect ``l`` and the
    input homotopies; all identities are re-validated exactly.
    """
    e = backend.identity()
    f, g_map, l = repl.f, repl.g, repl.l
    P = repl.P
    phi = {a: ChainMap.identity(P) if a == e else f.compose(phi_c[a]).compose(g_map) for a in S}
    lm = l.as_map()
    homotopies: Dict[Tuple[object, object], ChainHomotopy] = {}
    for a, b, ab in S.products:
        if a == e or b == e:
            homotopies[(a, b)] = ChainHomotopy(
                phi[a].compose(phi[b]), phi[ab], {})
            continue
        # f phi_a (dl + ld = id - g f) phi_b g  collapses the middle
        defect = f.compose(phi_c[a]).compose(lm).compose(phi_c[b]).compose(g_map)
        inner = f.compose(H_c[(a, b)].as_map()).compose(g_map)
        witness = defect + inner
        if ab == e:
            # the conjugated chain ends at f o g, not at phi_e = id;
            # k closes the gap exactly
            witness = witness + repl.k.as_map()
        homotopies[(a, b)] = ChainHomotopy(phi[a].compose(phi[b]), phi[ab], witness.total)
    return HomotopySChainComplex(backend, space, S, P, phi, homotopies,
                                 point_action=point_action)


# -- L-theory transfer ----------------------------------------------------------


class LSymmetricData:
    """The multiplicative hyperbolic chain action on unordered pairs."""

    def __init__(self, pair_space: ControlSpace, pair_action: HomotopySAction, D: ChainComplex,
                 phi: Dict[object, ChainMap], H: Dict[Tuple[object, object], ChainHomotopy],
                 mu: ChainMap, phi_mu: Dict[object, ChainMap], chain: HomotopySChainComplex,
                 checks: List[Tuple[str, bool]]):
        self.pair_space = pair_space
        self.pair_action = pair_action
        self.D = D    # fiber over the pair space
        self.phi = phi
        self.H = H
        self.mu = mu  # D^-* -> D, diagonal support
        self.phi_mu = phi_mu  # {g: phi^D_g o mu} over S
        self.chain = chain
        self.checks = checks

    def ok(self) -> bool:
        return all(okay for _, okay in self.checks)


def l_symmetric_complex(P: HomotopySChainComplex) -> LSymmetricData:
    """``D = pr_*(P^-* ox P)`` with ``phi^D_g = (phi_{g^-1})^-* ox phi_g``.

    Requires ``S = S^{-1}``; verifies the diagonal support and symmetry
    of ``mu``, its equivariance, the degree window, and that every
    ``H^D_{g,h}`` is an exact homotopy.  The composites ``phi^D_g o mu``
    that the equivariance check compares are all built, and kept as
    ``phi_mu`` for ``l_transfer``.
    """
    if not P.S.is_symmetric():
        raise HypothesisViolation("l_symmetric_complex needs S = S^{-1}")
    backend = P.backend
    checks: List[Tuple[str, bool]] = []
    pd = dual_complex(P.P)
    d_xx = tensor_complex(pd, P.P)  # positions are ordered pairs (x, y)
    D = d_xx.relabel(lambda p: unordered_pair(p[0], p[1]))
    pair_action = p2_action(P.point_action) if P.point_action is not None else None
    pair_space = p2_metric(P.space) if pair_action is None else pair_action.space
    phi_dual = {g: dual_map(P.phi[g]) for g in P.S}  # S = S^{-1} holds every g^{-1}
    phi = {g: tensor_map(phi_dual[backend.inv(g)], P.phi[g]).retarget(D, D) for g in P.S}
    H: Dict[Tuple[object, object], ChainHomotopy] = {}
    for g, h, gh in P.S.products:
        # the dualized homotopy enters negated: under the convention
        # dH + Hd = target - source, dualizing a degree-1 map flips
        # the sign of its Hom-differential
        first = tensor_map(dual_map(P.H[(backend.inv(h), backend.inv(g))].as_map()),
                           P.phi[g].compose(P.phi[h])).scale(-1)
        second = tensor_map(phi_dual[backend.inv(gh)], P.H[(g, h)].as_map())
        H[(g, h)] = ChainHomotopy(phi[g].compose(phi[h]), phi[gh], (first + second).total)
    checks.append(("H-D-homotopies", all(hom.holds() for hom in H.values())))

    _, psi = mult_hyperbolic_complex(P.P)
    mu = psi.retarget(dual_complex(D), D)
    checks.append(("mu-diagonal-support", all(x == y for x, y in mu.support_pairs())))
    checks.append(("mu-symmetric", symmetrized_dual(mu) == mu))
    phi_mu = {g: phi[g].compose(mu) for g in P.S}
    checks.append(("mu-equivariance", all(mu.compose(dual_map(phi[backend.inv(g)]))
                                          == phi_mu[g] for g in P.S)))
    lo, hi = P.P.lo, P.P.hi
    checks.append(("degree-window", D.lo >= -hi and D.hi <= hi and lo >= 0))

    pe = None
    if P.point_equivalence is not None and pair_action is not None:
        f0 = P.point_equivalence.to_point
        f0bar = P.point_equivalence.from_point
        base = unordered_pair(P.point_equivalence.basepoint,
                              P.point_equivalence.basepoint)
        e_map = tensor_map(dual_map(f0bar), f0).retarget(D, ChainComplex.point(base))
        ebar = tensor_map(dual_map(f0), f0bar).retarget(ChainComplex.point(base), D)
        pe = PointEquivalence(e_map, ebar, base)
    chain = HomotopySChainComplex(backend, pair_space, P.S, D, phi, H,
                                  point_action=pair_action,
                                  point_equivalence=pe, check=False)
    return LSymmetricData(pair_space, pair_action, D, phi, H, mu, phi_mu, chain, checks)


class LTransferResult:
    def __init__(self, data: LSymmetricData, complex: ChainComplex, psi: EquivariantChainMap,
                 sigma: EquivariantChainMap, inverse: EquivariantChainMap, h: EquivariantChainMap,
                 k: EquivariantChainMap, certificate: DSLambdaCertificate, target_bound: Fraction,
                 checks: List[Tuple[str, bool]]):
        self.data = data
        self.complex = complex  # fiber of M ox D
        self.psi = psi          # the ultra-quadratic structure
        self.sigma = sigma      # psi + its symmetrized dual
        self.inverse = inverse  # homotopy inverse of sigma
        self.h = h              # inverse o sigma ~ id
        self.k = k              # sigma o inverse ~ id
        self.certificate = certificate
        self.target_bound = target_bound
        self.checks = checks

    def ok(self) -> bool:
        return all(okay for _, okay in self.checks)

    def certified(self) -> bool:
        return self.certificate.within(self.target_bound)


def invert_equivariant(sigma: GRMatrix) -> GRMatrix:
    """Inverse of an equivariant matrix over a finite-table group ring,
    via the regular representation."""
    backend = sigma.backend
    if backend.kind != "finite-table":
        raise InputError("equivariant inversion needs a finite-table backend")
    elements = backend.elements()
    m = sigma.cols
    inv = place_letters(backend, sigma.letters, elements, m, m).integer_inverse()
    if inv is None:
        raise InputError("equivariant matrix is not invertible over Z[G]")
    # the row block of the identity coset holds letter g in column block g
    e_row = elements.index(backend.identity())
    letters = {g: IntMatrix(m, m, {(i, j): inv.get(e_row * m + i, col * m + j)
                                   for i in range(m) for j in range(m)})
               for col, g in enumerate(elements)}
    return GRMatrix(backend, m, m, letters)


def l_transfer(alpha: GRMatrix, P: HomotopySChainComplex,
               lam: Fraction) -> LTransferResult:
    """Ultra-quadratic transfer of a quadratic form along the pair
    construction.

    ``alpha`` is the letterwise quadratic-form data with ``T = T^{-1}``
    and ``T.T`` inside ``S``; the symmetrization identity
    ``psi + psi^-* = tr(alpha + alpha^*) o (id ox mu)`` is replayed as an
    exact matrix equality, the Poincare witness is assembled from the
    functoriality homotopies, and the output is certified as an
    ``(S, 1 + Lambda*eps)``-controlled complex over ``G x P2(X)``.
    """
    lam = check_lambda(lam)
    if P.point_action is None:
        raise InputError("l_transfer needs the underlying point action")
    backend = alpha.backend
    S = P.S
    checks: List[Tuple[str, bool]] = []
    _check_square_inside(backend, alpha.letters, S)
    data = l_symmetric_complex(P)
    D = data.D
    m_rank = alpha.cols

    sigma_mod = alpha + alpha.transpose()
    t_sym = set(sigma_mod.letters)
    if any(backend.inv(a) not in t_sym for a in t_sym):
        raise HypothesisViolation("T = T^{-1} fails for the symmetrization")
    sigma_inverse = invert_equivariant(sigma_mod)
    # phi^D and H^D exist only over the S of the chain action
    outside = (set(alpha.letters) | set(sigma_inverse.letters)) - S.members
    if outside:
        raise SupportEscape(f"letters {sorted(outside, key=repr)!r} of the form "
                            "or its inverse are outside S")

    mdd = module_tensor(m_rank, D)
    lift = GRComplex.constant(backend, mdd)
    lift_dual = dual_complex(lift)  # = M ox D^-* read over Z[G]
    phi_mu = data.phi_mu  # the letters of alpha and sigma lie in S = S^{-1}
    psi = _module_map(lift_dual, lift, 0,
                      ((a, blk, phi_mu[a]) for a, blk in alpha.letters.items()))

    # exact symmetrization identity (the displayed five-line computation)
    sigma_eq = EquivariantChainMap(lift_dual, lift, 0,
                                   (psi + symmetrized_dual(psi)).total, check=False)
    expected = _module_map(lift_dual, lift, 0,
                           ((a, blk, phi_mu[a]) for a, blk in sigma_mod.letters.items()))
    checks.append(("symmetrization-identity", sigma_eq == expected))

    # witness: (id ox mu^{-1}) tr(sigma^{-1}) with the Lemma-6.3 homotopies
    mu_inv = data.mu.integer_inverse()
    if mu_inv is None:
        raise IdentityFailure("mu is not invertible")
    tau = _module_map(lift, lift_dual, 0, ((b, blk, mu_inv.compose(data.phi[b]))
                                           for b, blk in sigma_inverse.letters.items()))

    # k: sigma_eq o tau ~ id_{M ox D}  via sum (sigma_a sigma^{-1}_b) ox H^D_{a,b}
    k_eq = _letter_pair_witness(sigma_mod, sigma_inverse, data.chain, lift, lift)
    checks.append(("witness-k", ChainHomotopy(sigma_eq.compose(tau), ChainMap.identity(lift),
                                              k_eq.total).holds()))
    # h: tau o sigma_eq ~ id of the dual, conjugated through mu
    h_eq = _letter_pair_witness(sigma_inverse, sigma_mod, data.chain, lift_dual, lift_dual,
                                lambda hom: mu_inv.compose(hom).compose(data.mu))
    checks.append(("witness-h", ChainHomotopy(tau.compose(sigma_eq),
                                              ChainMap.identity(lift_dual), h_eq.total).holds()))
    for name, eq in (("psi-letters", psi), ("inverse-letters", tau),
                     ("h-letters", h_eq), ("k-letters", k_eq)):
        checks.append((name + "-in-S", all(a in S for a in eq.total.letters)))

    cert = certify_dslambda(data.pair_action, lam,
                            {"psi": psi, "sigma": sigma_eq, "inverse": tau,
                             "h": h_eq, "k": k_eq})
    eps = max(data.chain.achieved_phi_control(),
              data.chain.achieved_homotopy_control(),
              data.chain.achieved_complex_control())
    return LTransferResult(data, mdd, psi, sigma_eq, tau, h_eq, k_eq,
                           cert, 1 + lam * eps, checks)


def l_transfer_recovers_form(result: LTransferResult,
                             alpha: GRMatrix) -> bool:
    """Exact recovery of the input form through the point equivalence.

    Each scalar ``e o phi^D_a o mu o e^-*`` must be the canonical
    identification ``[1]``; then conjugating the transferred structure
    through ``id ox e`` returns the letters of ``alpha`` on the nose.
    """
    pe = result.data.chain.point_equivalence
    if pe is None:
        raise InputError("recovery check needs a point equivalence on P")
    for a in alpha.letters:
        q_a = pe.to_point.compose(result.data.phi_mu[a]).compose(dual_map(pe.to_point))
        if q_a.mat(0) != IntMatrix.identity(1):
            return False
    return True


def expanded_ultraquadratic(result: LTransferResult, lam: Fraction,
                            n_max: int = 6):
    """Re-audit data: the transferred complex over explicit positions.

    Expands the equivariant data over all cosets of a finite-table
    backend, relabels positions through ``(g, z) -> (g, (g, z))`` (the
    functor induced by the diagonal), and returns the ultra-quadratic
    complex together with the ``d_{S,Lambda}`` control space on
    ``G x P2(X)`` so that ``ltheory.verify_ultraquadratic`` can replay
    every identity and certificate independently.  A table truncated at
    ``n_max`` raises ``HorizonExceeded`` before any entry is read; an
    unreached entry of an exact table is an input error.
    """
    backend = result.data.chain.backend
    if backend.kind != "finite-table":
        raise InputError("expansion needs a finite-table backend")
    cosets = backend.elements()
    pair_action = result.data.pair_action
    if pair_action is None:
        raise InputError("expansion needs the pair-space action")
    carrier = [(g, z) for g in cosets for z in pair_action.space.points]
    table = DSLambdaMetric(pair_action, lam, n_max).table(carrier)
    if table.truncated:  # its found costs bound the distances only from above
        raise HorizonExceeded(f"the d_{{S,Lambda}} table on the carrier is truncated "
                              f"at horizon n_max = {n_max}")
    dist = {}
    for i, p in enumerate(carrier):
        for j, q in enumerate(carrier):
            v = table.d_by_index(i, j)
            if v is None:
                raise InputError("d_{S,Lambda} is not a metric on the carrier")
            dist[(p, q)] = v
    space = ControlSpace(carrier, dist, check=False)

    c_exp = expand_complex(backend, result.complex, cosets).relabel(
        lambda p: GPos(p.g, (p.g, p.z)))
    cd_exp = dual_complex(c_exp)

    def explicit(f: ChainMap, source: ChainComplex, target: ChainComplex) -> ChainMap:
        """``f`` over positions ``(g, z)``: its letters placed per degree."""
        return ChainMap(source, target, f.degree, {
            n: place_letters(backend, m.letters, cosets, m.rows, m.cols)
            for n, m in f.mats.items()}, check=False)

    psi = explicit(result.psi, cd_exp, c_exp)
    inverse = explicit(result.inverse, c_exp, cd_exp)
    sigma_full = explicit(result.sigma, cd_exp, c_exp)
    h = ChainHomotopy(inverse.compose(sigma_full), ChainMap.identity(cd_exp),
                      explicit(result.h, cd_exp, cd_exp).total)
    k = ChainHomotopy(sigma_full.compose(inverse), ChainMap.identity(c_exp),
                      explicit(result.k, c_exp, c_exp).total)
    uq = UltraQuadraticComplex(c_exp, psi, PoincareWitness(inverse, h, k))
    return uq, space


# -- classical transfers (Appendix) ---------------------------------------------


def whitehead_transfer(a_letters: Dict[object, IntMatrix], backend: GroupBackend,
                       C: ChainComplex, r_action: Dict[object, ChainMap]
                       ) -> EquivariantChainMap:
    """Twisted transfer ``A ox_t C`` of a group-ring matrix.

    ``A = sum A_g g`` acts on ``Z[G]^m ox C`` by
    ``g' ox x -> sum lambda_g g' g^{-1} ox r(g)(x)``; letterwise this is
    the block matrix ``A_g ox r(g)``, a graded map of ``Z[G]``-complexes.
    """
    shapes = {(m.rows, m.cols) for m in a_letters.values()}
    if len(shapes) != 1:
        raise InputError("matrix letters must share one shape")
    rows, cols = next(iter(shapes))
    canonical = backend.canonical
    return _module_map(GRComplex.constant(backend, module_tensor(cols, C)),
                       GRComplex.constant(backend, module_tensor(rows, C)), 0,
                       ((canonical(g), block, r_action[canonical(g)])
                        for g, block in a_letters.items()))


def classical_l_transfer(psi_letters: Dict[object, IntMatrix], backend: GroupBackend,
                         C: ChainComplex, phi_form: ChainMap,
                         r_action: Dict[object, ChainMap]) -> ChainMap:
    """Ultra-quadratic form ``psi ox_t (C, phi)`` on ``M ox C``:
    the twisted transfer composed with ``id ox phi``."""
    base = whitehead_transfer(psi_letters, backend, C, r_action)
    cols = next(iter(psi_letters.values())).cols
    dual_src = GRComplex.constant(backend, module_tensor(cols, dual_complex(C)))
    id_phi = _module_map(dual_src, base.source, 0,
                         [(backend.identity(), IntMatrix.identity(cols), phi_form)])
    return base.compose(id_phi)
