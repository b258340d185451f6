"""Built-in desk-scale fixtures: worked examples and fixture generators for
randomized suites."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .actions import DominationData, HomotopySAction
from .chaincore import ChainComplex, ChainHomotopy, ChainMap, cone
from .control import ControlSpace
from .gring import GRMatrix
from .groups import FiniteSubset, FiniteTableGroup
from .intmat import IntMatrix
from .simplicial import PointInComplex, SimplicialComplex
from .transfer import HomotopySChainComplex, PointEquivalence


def rand_matrix(rng: random.Random, rows: int, cols: int,
                density: float = 0.5, lo: int = -2, hi: int = 2) -> IntMatrix:
    # row-major, one density draw per position and a value draw for each kept one
    return IntMatrix(rows, cols, {(i, j): rng.randint(lo, hi) for i in range(rows)
                                  for j in range(cols) if rng.random() < density})


def rand_complex(rng: random.Random, min_deg: int = 0, max_len: int = 4,
                 max_rank: int = 4) -> ChainComplex:
    """Random finite complex; differentials built by rejection so that
    consecutive composites vanish."""
    length = rng.randint(1, max_len)
    ranks = {min_deg + i: rng.randint(1, max_rank) for i in range(length)}
    diff = {}
    prev = None
    for n in sorted(ranks)[1:]:
        rt, rs = ranks[n - 1], ranks[n]
        for _ in range(80):
            cand = rand_matrix(rng, rt, rs, density=0.5, lo=-1, hi=1)
            if prev is None or (prev @ cand).is_zero():
                diff[n] = cand
                prev = cand
                break
        else:
            diff[n] = IntMatrix.zeros(rt, rs)
            prev = diff[n]
    return ChainComplex(ranks, diff)


def rand_chain_map(rng: random.Random, C: ChainComplex, D: ChainComplex,
                   degree: int = 0, tries: int = 300) -> Optional[ChainMap]:
    for _ in range(tries):
        mats = {n: rand_matrix(rng, D.rank(n + degree), C.rank(n), 0.5, -1, 1)
                for n in set(C.ranks) | {m - degree for m in D.ranks}}
        f = ChainMap(C, D, degree, mats, check=False)
        try:
            f.validate()
            return f
        except ValueError:
            continue
    return None


def junk_equivalence(rng: random.Random, max_len: int = 3, max_rank: int = 3):
    """Homotopy equivalence ``C = D + cone(id_E) -> D`` with exact witnesses."""
    D = rand_complex(rng, 0, max_len, max_rank)
    E = rand_complex(rng, 0, 2, max_rank)
    CE = cone(ChainMap.identity(E))
    ranks = {n: D.rank(n) + CE.rank(n) for n in set(D.ranks) | set(CE.ranks)}
    diff = {n: D.d(n).direct_sum(CE.d(n)) for n in ranks}
    C = ChainComplex(ranks, diff)
    proj = ChainMap(C, D, 0, {n: IntMatrix.from_blocks(
        [[IntMatrix.identity(D.rank(n)), None]], [D.rank(n)],
        [D.rank(n), CE.rank(n)]) for n in ranks})
    incl = ChainMap(D, C, 0, {n: IntMatrix.from_blocks(
        [[IntMatrix.identity(D.rank(n))], [None]],
        [D.rank(n), CE.rank(n)], [D.rank(n)]) for n in ranks})
    hmats = {}
    for n in ranks:
        gamma = IntMatrix.from_blocks(
            [[None, IntMatrix.identity(E.rank(n))], [None, None]],
            [E.rank(n), E.rank(n + 1)], [E.rank(n - 1), E.rank(n)])
        hmats[n] = IntMatrix.zeros(D.rank(n + 1), D.rank(n)).direct_sum(gamma)
    h = ChainHomotopy(incl.compose(proj), ChainMap.identity(C), hmats)
    k = ChainHomotopy(proj.compose(incl), ChainMap.identity(D), {})
    return C, D, proj, incl, h, k


def domination_instance(rng: random.Random, nmax: int = 2):
    """Chain-level domination data (C, D, i, r, h), optionally perturbed by
    a null-homotopic change of ``i``."""
    C, D, i, r, h, _ = junk_equivalence(rng, max_len=nmax + 1, max_rank=2)
    if rng.random() < 0.5:
        eta = ChainMap(C, D, 1, {n: rand_matrix(rng, D.rank(n + 1), C.rank(n), 0.3, -1, 1)
                                 for n in C.ranks}, check=False)
        d_eta = ChainMap(C, D, 0,
                         {n: D.d(n + 1) @ eta.mat(n) + eta.mat(n - 1) @ C.d(n)
                          for n in C.ranks}, check=False)
        i = i + d_eta
        r_eta = r.compose(eta)
        h = ChainHomotopy(r.compose(i), ChainMap.identity(C), h.total - r_eta.total)
    return C, D, i, r, h


# -- the Z/2 swap fixture ------------------------------------------------------


def z2_swap_action() -> HomotopySAction:
    """Z/2 swapping two points at distance 1, S = {e, s}."""
    z2 = FiniteTableGroup.cyclic(2)
    X = ControlSpace.from_matrix(["p", "q"], [[0, 1], [1, 0]])
    S = FiniteSubset.of(z2, [0, 1])
    return HomotopySAction.from_genuine(z2, X, S, {0: {"p": "p", "q": "q"},
                                                   1: {"p": "q", "q": "p"}})


def z2_chain_fixture() -> HomotopySChainComplex:
    """Genuine chain involution on a positioned 2-term complex over the
    swap space, with an explicit equivalence to the point complex."""
    act = z2_swap_action()
    z2 = act.backend
    P = ChainComplex({0: 2, 1: 1}, {1: IntMatrix.from_rows([[1], [-1]])},
                     positions={0: ("p", "q"), 1: ("p",)})
    phi_s = ChainMap(P, P, 0, {0: IntMatrix.from_rows([[0, 1], [1, 0]]),
                               1: IntMatrix.from_rows([[-1]])})
    ident = ChainMap.identity(P)
    homs = {(0, 0): ChainHomotopy(ident, ident, {}),
            (0, 1): ChainHomotopy(phi_s, phi_s, {}),
            (1, 0): ChainHomotopy(phi_s, phi_s, {}),
            (1, 1): ChainHomotopy(phi_s.compose(phi_s), ident, {})}
    aug = ChainMap(P, ChainComplex.point("p"), 0, {0: IntMatrix.from_rows([[1, 1]])})
    sec = ChainMap(ChainComplex.point("p"), P, 0, {0: IntMatrix.from_rows([[1], [0]])})
    return HomotopySChainComplex(z2, act.space, act.S, P,
                                 {0: ident, 1: phi_s}, homs,
                                 point_action=act,
                                 point_equivalence=PointEquivalence(aug, sec, "p"))


def z2_unit_alpha() -> Tuple[GRMatrix, GRMatrix]:
    """The unit ``-s`` of ``Z[C2]`` with its inverse."""
    z2 = FiniteTableGroup.cyclic(2)
    alpha = GRMatrix(z2, 1, 1, {1: IntMatrix.from_rows([[-1]])})
    return alpha, alpha


def z2_quadratic_alpha() -> GRMatrix:
    """Twisted quadratic form over ``Z[C2]`` whose symmetrization is the
    hyperbolic form concentrated at the identity letter."""
    z2 = FiniteTableGroup.cyclic(2)
    return GRMatrix(z2, 2, 2, {0: IntMatrix.from_rows([[0, 1], [0, 0]]),
                               1: IntMatrix.from_rows([[0, 1], [-1, 0]])})


def z2_nontrivial_chain_fixture(rng: random.Random) -> HomotopySChainComplex:
    """Chain homotopy action with a genuinely nonzero coherence homotopy:
    ``phi_s = swap + dB + Bd`` with the exact correction homotopy."""
    base = z2_chain_fixture()
    P = base.P
    swap = base.phi[1]
    B = ChainMap(P, P, 1, {n: rand_matrix(rng, P.rank(n + 1), P.rank(n), 0.5, -1, 1)
                           for n in P.ranks}, check=False)
    dB = ChainMap(P, P, 0, {n: P.d(n + 1) @ B.mat(n) + B.mat(n - 1) @ P.d(n)
                            for n in P.ranks}, check=False)
    phi_s = swap + dB
    ident = ChainMap.identity(P)
    # homotopy from phi_s o phi_s to id: expand (swap + N)^2 with N = dB + Bd
    # using swap^2 = id: correction K with dK + Kd = id - phi_s phi_s
    n_map = dB
    middle = swap.compose(B) + B.compose(swap)
    tail = B.compose(n_map)
    K = (middle + tail).scale(-1)
    hom_ss = ChainHomotopy(phi_s.compose(phi_s), ident, K.total)
    if not hom_ss.holds():
        raise AssertionError("generator correction homotopy failed")
    homs = {(0, 0): ChainHomotopy(ident, ident, {}),
            (0, 1): ChainHomotopy(phi_s, phi_s, {}),
            (1, 0): ChainHomotopy(phi_s, phi_s, {}),
            (1, 1): hom_ss}
    return HomotopySChainComplex(base.backend, base.space, base.S, P,
                                 {0: ident, 1: phi_s}, homs,
                                 point_action=base.point_action,
                                 point_equivalence=base.point_equivalence)


def z3_rotation_fixture() -> HomotopySChainComplex:
    """Genuine Z/3 rotation on the filled triangle's chain complex.

    Letters are not self-inverse here, so the inverse bookkeeping of the
    transfer constructions is genuinely exercised.  S = {e, t, t^2} is
    symmetric and the complex is contractible, with the augmentation as
    the equivalence to the point.
    """
    z3 = FiniteTableGroup.cyclic(3)
    pts = ["x0", "x1", "x2"]
    dist = {(a, b): Fraction(0) if a == b else Fraction(1)
            for a in pts for b in pts}
    X = ControlSpace(pts, dist)
    S = FiniteSubset.of(z3, [0, 1, 2])
    action = {k: {pts[i]: pts[(i + k) % 3] for i in range(3)} for k in range(3)}
    act = HomotopySAction.from_genuine(z3, X, S, action)
    # vertices x_i, edges e_i = [x_i -> x_{i+1}] placed at their sources,
    # one 2-cell with boundary e_0 + e_1 + e_2 placed at x0
    d1 = _edge_boundary(3, 3)
    d2 = IntMatrix.from_rows([[1], [1], [1]])
    P = ChainComplex({0: 3, 1: 3, 2: 1}, {1: d1, 2: d2},
                     positions={0: ("x0", "x1", "x2"),
                                1: ("x0", "x1", "x2"), 2: ("x0",)})
    rot = IntMatrix(3, 3, {((i + 1) % 3, i): 1 for i in range(3)})
    phi_t = ChainMap(P, P, 0, {0: rot, 1: rot, 2: IntMatrix.identity(1)})
    phi = {0: ChainMap.identity(P), 1: phi_t, 2: phi_t.compose(phi_t)}
    homotopies = {}
    for g in range(3):
        for h in range(3):
            homotopies[(g, h)] = ChainHomotopy(
                phi[g].compose(phi[h]), phi[(g + h) % 3], {})
    aug = ChainMap(P, ChainComplex.point("x0"), 0,
                   {0: IntMatrix.from_rows([[1, 1, 1]])})
    sec = ChainMap(ChainComplex.point("x0"), P, 0,
                   {0: IntMatrix.from_rows([[1], [0], [0]])})
    return HomotopySChainComplex(z3, X, S, P, phi, homotopies,
                                 point_action=act,
                                 point_equivalence=PointEquivalence(aug, sec, "x0"))


def z3_quadratic_alpha(rng: Optional[random.Random] = None) -> GRMatrix:
    """Quadratic form over Z[C3] with letters on t and t^2 arranged so the
    symmetrization is the hyperbolic form at the identity letter."""
    rng = rng or random.Random(0)
    z3 = FiniteTableGroup.cyclic(3)
    a_block = rand_matrix(rng, 2, 2, 0.7, -2, 2)
    return GRMatrix(z3, 2, 2, {0: IntMatrix.from_rows([[0, 1], [0, 0]]),
                               1: a_block,
                               2: -a_block.transpose()})


# -- dihedral cover fixture ------------------------------------------------------


def dihedral_action(n: int = 4) -> HomotopySAction:
    """Dihedral group acting on the cycle's vertices, S = {e}."""
    dn = FiniteTableGroup.dihedral(n)
    pts = [f"x{t}" for t in range(n)]
    dist = {}
    for a in range(n):
        for b in range(n):
            gap = min((a - b) % n, (b - a) % n)
            dist[(pts[a], pts[b])] = Fraction(gap)
    X = ControlSpace(pts, dist)
    action = {}
    for g in dn.elements():
        rot, ref = g // 2, g % 2
        table = {}
        for t in range(n):
            image = (rot + t) % n if ref == 0 else (rot - t) % n
            table[pts[t]] = pts[image]
        action[g] = table
    S = FiniteSubset.of(dn, [dn.identity()])
    return HomotopySAction.from_genuine(dn, X, S, action)


def dihedral_cover(n: int = 4):
    """Cover of ``D_n x X`` by the rotation and reflection slabs.

    The slabs partition the carrier; rotations fix each slab and
    reflections swap them, so the isotropy of each is the rotation
    subgroup (cyclic of order n)."""
    act = dihedral_action(n)
    dn = act.backend
    pts = act.space.points
    carrier = tuple((g, x) for g in dn.elements() for x in pts)
    rot = frozenset((g, x) for g in dn.elements() if g % 2 == 0 for x in pts)
    ref = frozenset((g, x) for g in dn.elements() if g % 2 == 1 for x in pts)
    sets = {"Urot": rot, "Uref": ref}
    name_action = {}
    for g in dn.elements():
        if g % 2 == 0:
            name_action[g] = {"Urot": "Urot", "Uref": "Uref"}
        else:
            name_action[g] = {"Urot": "Uref", "Uref": "Urot"}
    from .actions import CoverSpec
    return act, CoverSpec(carrier, sets, name_action)


def dihedral_cyclic_family(n: int = 4):
    """Custom-list family: all subgroups of the rotation subgroup of D_n."""
    from .groups import FamilyPredicate, SubgroupDescription
    dn = FiniteTableGroup.dihedral(n)
    subs = set()
    for d in range(1, n + 1):
        if n % d == 0:
            gen = 2 * d  # rotation by d steps encoded as element 2d mod 2n
            subs.add(SubgroupDescription.of(dn, [gen % (2 * n)]).closure())
    return dn, FamilyPredicate("custom-list", False, tuple(sorted(subs, key=sorted)))


# -- path dominations ------------------------------------------------------------


def path_space_with_faces(n: int) -> Tuple[ControlSpace, Dict[object, object]]:
    """Interval coordinates for the faces of the n-vertex path complex."""
    coords: Dict[object, Fraction] = {}
    for t in range(n):
        coords[f"p{t}"] = Fraction(t)
    for t in range(n - 1):
        coords[f"e{t}"] = Fraction(2 * t + 1, 2)
    pts = sorted(coords, key=lambda p: coords[p])
    dist = {(a, b): abs(coords[a] - coords[b]) for a in pts for b in pts}
    return ControlSpace(pts, dist, check=False), coords


def _edge_boundary(vertices: int, edges: int) -> IntMatrix:
    """``d`` of edges ``t -> t + 1 (mod vertices)``: a path, or a cycle when
    the counts agree."""
    return IntMatrix(vertices, edges, {key: v for t in range(edges)
                                       for key, v in (((t, t), -1), (((t + 1) % vertices, t), 1))})


def path_chain_complex(n: int, offset: int = 0, prefix: str = "p",
                       eprefix: str = "e") -> ChainComplex:
    """Simplicial chains of the n-vertex path, positioned on the interval."""
    d1 = _edge_boundary(n, n - 1)
    positions = {0: tuple(f"{prefix}{offset + t}" for t in range(n)),
                 1: tuple(f"{eprefix}{offset + t}" for t in range(n - 1))}
    return ChainComplex({0: n, 1: n - 1}, {1: d1}, positions=positions)


def path_chain_domination(fine: int = 9, step: int = 4):
    """The fine path dominated by its coarsening: exact (i, r, h) with
    positions on a common interval control space."""
    coarse = (fine - 1) // step + 1
    space, coords = path_space_with_faces(fine)
    C = path_chain_complex(fine)
    # coarse complex positioned at its realization inside the same interval
    d1 = _edge_boundary(coarse, coarse - 1)
    dpos = {0: tuple(f"p{step * j}" for j in range(coarse)),
            1: tuple(f"p{step * j + step // 2}" for j in range(coarse - 1))}
    D = ChainComplex({0: coarse, 1: coarse - 1}, {1: d1}, positions=dpos)

    def nearest(t: int) -> int:
        return min(range(coarse), key=lambda j: (abs(step * j - t), j))

    near = [nearest(t) for t in range(fine)]
    i0 = IntMatrix(coarse, fine, {(a, t): 1 for t, a in enumerate(near)})
    # an edge whose ends round to neighbouring coarse vertices maps onto that edge
    i1 = IntMatrix(coarse - 1, fine - 1, {(min(a, b), t): b - a
                                          for t, (a, b) in enumerate(zip(near, near[1:]))
                                          if abs(b - a) == 1})
    i = ChainMap(C, D, 0, {0: i0, 1: i1})
    r0 = IntMatrix(fine, coarse, {(step * j, j): 1 for j in range(coarse)})
    r1 = IntMatrix(fine - 1, coarse - 1, {(t, j): 1 for j in range(coarse - 1)
                                          for t in range(step * j, step * (j + 1))})
    r = ChainMap(D, C, 0, {0: r0, 1: r1})
    # h(p_t) = signed edge chain from r i (p_t) to p_t; h(edges) = 0
    h0 = IntMatrix(fine - 1, fine, {(u, t): 1 if step * a <= t else -1 for t, a in enumerate(near)
                                    for u in range(min(t, step * a), max(t, step * a))})
    h = ChainHomotopy(r.compose(i), ChainMap.identity(C), {0: h0})
    if not h.holds():
        raise AssertionError("path domination homotopy failed")
    return space, C, D, i, r, h


def path_point_domination(fine: int = 9, step: int = 4) -> DominationData:
    """Point-level controlled domination of the fine path by the coarse one."""
    coarse = (fine - 1) // step + 1
    X = ControlSpace.path(fine)
    verts = [f"v{j}" for j in range(coarse)]
    K = SimplicialComplex.from_maximal(
        verts, [frozenset((verts[j], verts[j + 1])) for j in range(coarse - 1)])
    i_map = {}
    for t in range(fine):
        j = min(t // step, coarse - 2) if coarse > 1 else 0
        frac = Fraction(t - step * j, step)
        coords = {verts[j]: 1 - frac, verts[j + 1] if coarse > 1 else verts[j]: frac}
        i_map[f"p{t}"] = PointInComplex(K, {k: v for k, v in coords.items() if v > 0})
    p_map = {verts[j]: f"p{step * j}" for j in range(coarse)}
    composite = []
    for t in range(fine):
        coords = i_map[f"p{t}"].coords
        best = max(coords.values())
        vertex = sorted((v for v, c in coords.items() if c == best))[0]
        composite.append(p_map[vertex])
    track = (tuple(composite), tuple(X.points))
    return DominationData(X, K, 1, Fraction((step + 1) // 2), i_map, p_map, track)
