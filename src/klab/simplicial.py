"""Abstract simplicial complexes with exact barycentric coordinates.

The product triangulation follows the ordered-staircase construction on
the first barycentric subdivision: vertices of the product are pairs of
faces, and simplices are chains in the product of the face posets.  The
quotient by the coordinate flip gives the simplicial structure on the
space of unordered pairs.

The metric ``d^1`` is implemented as the ambient l^1 difference of
barycentric coordinate vectors: exact within a shared simplex and a
lower bound for the path metric globally.  Audits only assert it in its
exact regime and report cross-simplex samples instead.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .control import ControlSpace
from .errors import DifferentComplex, InputError, SampleBudgetExceeded

Simplex = FrozenSet[object]


class SimplicialComplex:
    """Finite complex: sorted vertex ids and a face-closed simplex set."""

    def __init__(self, vertices: Sequence[object], simplices: Iterable[Simplex],
                 check: bool = True):
        self.vertices = tuple(sorted(set(vertices), key=repr))
        self.simplices: Set[Simplex] = set()
        vset = set(self.vertices)
        for s in simplices:
            fs = frozenset(s)
            if not fs or not fs <= vset:
                raise InputError(f"bad simplex {sorted(fs, key=repr)}")
            self.simplices.add(fs)
        for v in self.vertices:
            self.simplices.add(frozenset([v]))
        if check:
            self.validate()

    @staticmethod
    def from_maximal(vertices: Sequence[object], maximal: Iterable[Simplex]
                     ) -> "SimplicialComplex":
        simplices: Set[Simplex] = set()
        for m in maximal:
            m = frozenset(m)
            for k in range(1, len(m) + 1):
                for face in combinations(sorted(m, key=repr), k):
                    simplices.add(frozenset(face))
        return SimplicialComplex(vertices, simplices, check=False)

    def validate(self) -> None:
        for s in self.simplices:
            for k in range(1, len(s)):
                for face in combinations(sorted(s, key=repr), k):
                    if frozenset(face) not in self.simplices:
                        raise InputError(f"face closure fails below {sorted(s, key=repr)}")

    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def has_simplex(self, s: Iterable[object]) -> bool:
        return frozenset(s) in self.simplices

    def simplices_of_dim(self, k: int) -> List[Tuple[object, ...]]:
        return sorted((tuple(sorted(s, key=repr)) for s in self.simplices
                       if len(s) == k + 1))

    def maximal_simplices(self) -> List[Simplex]:
        return [s for s in self.simplices
                if not any(s < t for t in self.simplices)]

    def __repr__(self):  # pragma: no cover
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"dim {self.dimension()})")

    @staticmethod
    def standard_simplex(n: int) -> "SimplicialComplex":
        verts = [f"v{i}" for i in range(n + 1)]
        return SimplicialComplex.from_maximal(verts, [frozenset(verts)])

    @staticmethod
    def circle(n: int = 3) -> "SimplicialComplex":
        """Cycle on ``n >= 3`` vertices."""
        if n < 3:
            raise InputError("circle needs at least 3 vertices")
        verts = [f"c{i}" for i in range(n)]
        edges = [frozenset((verts[i], verts[(i + 1) % n])) for i in range(n)]
        return SimplicialComplex.from_maximal(verts, edges)


class PointInComplex:
    """Rational barycentric coordinates supported on one simplex."""

    def __init__(self, complex: SimplicialComplex, coords: Dict[object, Fraction]):
        clean = {}
        for v, c in coords.items():
            c = Fraction(c)
            if c < 0:
                raise InputError("negative barycentric coordinate")
            if c > 0:
                clean[v] = c
        if sum(clean.values(), Fraction(0)) != 1:
            raise InputError("barycentric coordinates must sum to 1")
        if not complex.has_simplex(frozenset(clean)):
            raise InputError("support is not a simplex of the complex")
        self.complex = complex
        self.coords = clean

    def l1_to(self, other: "PointInComplex") -> Fraction:
        if self.complex is not other.complex:
            raise DifferentComplex("points live in different complexes")
        out = Fraction(0)
        for v in set(self.coords) | set(other.coords):
            out += abs(self.coords.get(v, Fraction(0)) - other.coords.get(v, Fraction(0)))
        return out

    @staticmethod
    def vertex(complex: SimplicialComplex, v: object) -> "PointInComplex":
        return PointInComplex(complex, {v: Fraction(1)})


# -- subdivision, products, unordered pairs ---------------------------------


def _face_name(s: Simplex) -> Tuple[object, ...]:
    return tuple(sorted(s, key=repr))


def subdivide(sc: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision: vertices are faces, simplices are
    chains of faces under inclusion."""
    faces = sorted(sc.simplices, key=lambda s: (len(s), _face_name(s)))
    names = {s: _face_name(s) for s in faces}
    maximal: List[Simplex] = []

    def chains_from(s: Simplex, chain: List[Simplex]) -> None:
        extensions = [t for t in sc.simplices if s < t]
        if not extensions:
            maximal.append(frozenset(names[c] for c in chain))
            return
        for t in extensions:
            if len(t) == len(s) + 1:
                chains_from(t, chain + [t])

    for s in sc.simplices:
        if len(s) == 1:
            chains_from(s, [s])
    return SimplicialComplex.from_maximal([names[s] for s in faces], maximal)


def subdivision_coords(p: PointInComplex, subdivided: SimplicialComplex) -> PointInComplex:
    """Coordinates of a point in the first barycentric subdivision.

    Sort the coordinates decreasingly; the point is the convex
    combination of the barycenters of the initial-segment faces with
    weights ``(j+1)(x_(j) - x_(j+1))``.
    """
    items = sorted(p.coords.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    coords: Dict[object, Fraction] = {}
    for j, (v, c) in enumerate(items):
        nxt = items[j + 1][1] if j + 1 < len(items) else Fraction(0)
        weight = (j + 1) * (c - nxt)
        if weight > 0:
            face = _face_name(frozenset(v for v, _ in items[: j + 1]))
            coords[face] = coords.get(face, Fraction(0)) + weight
    return PointInComplex(subdivided, coords)


def _chain_order(support: Iterable[Tuple[object, ...]]) -> List[Tuple[object, ...]]:
    faces = sorted(support, key=lambda f: (len(f), f))
    for a, b in zip(faces, faces[1:]):
        if not set(a) <= set(b):
            raise InputError("support is not a chain of faces")
    return faces


def product_structure(sc: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of the square of a complex.

    Vertices are pairs of faces of the input; simplices are chains in
    the product of the face poset with itself whose projections are
    chains (the ordered ``e_{i-1} <= e_i`` and ``f_{i-1} <= f_i``
    condition on the barycentric subdivision).
    """
    faces = sorted((_face_name(s) for s in sc.simplices), key=lambda f: (len(f), f))
    verts = [(a, b) for a in faces for b in faces]
    maximal: List[Simplex] = []
    max_faces = [_face_name(s) for s in sc.maximal_simplices()]

    def grow(face: Tuple[object, ...], v: object) -> Tuple[object, ...]:
        return _face_name(frozenset(face) | {v})

    def extend(chain: List[Tuple[Tuple[object, ...], Tuple[object, ...]]],
               top_a: Tuple[object, ...], top_b: Tuple[object, ...]) -> None:
        a, b = chain[-1]
        if a == top_a and b == top_b:
            maximal.append(frozenset(chain))
            return
        for v in set(top_a) - set(a):
            extend(chain + [(grow(a, v), b)], top_a, top_b)
        for v in set(top_b) - set(b):
            extend(chain + [(a, grow(b, v))], top_a, top_b)

    for ta in max_faces:
        for tb in max_faces:
            for va in ta:
                for vb in tb:
                    extend([((va,), (vb,))], ta, tb)
    return SimplicialComplex.from_maximal(verts, maximal)


def staircase_coords(p: PointInComplex, q: PointInComplex,
                     product: SimplicialComplex) -> PointInComplex:
    """Coordinates of ``(p, q)`` in the staircase product triangulation.

    ``p`` and ``q`` are points of the barycentric subdivision (vertices
    are faces).  Merging the cumulative-sum cut points of the two
    coordinate vectors yields the weights on staircase vertices.
    """
    pf = _chain_order(p.coords)
    qf = _chain_order(q.coords)
    pw = [p.coords[f] for f in pf]
    qw = [q.coords[f] for f in qf]
    cuts = sorted(set([sum(pw[: i + 1], Fraction(0)) for i in range(len(pw))]
                      + [sum(qw[: j + 1], Fraction(0)) for j in range(len(qw))]))
    coords: Dict[object, Fraction] = {}
    prev = Fraction(0)
    for cut in cuts:
        ai = next(i for i in range(len(pw)) if sum(pw[: i + 1], Fraction(0)) >= cut)
        bi = next(j for j in range(len(qw)) if sum(qw[: j + 1], Fraction(0)) >= cut)
        weight = cut - prev
        if weight > 0:
            v = (pf[ai], qf[bi])
            coords[v] = coords.get(v, Fraction(0)) + weight
        prev = cut
    return PointInComplex(product, coords)


def _pair_orbit(v: Tuple[Tuple[object, ...], Tuple[object, ...]]
                ) -> Tuple[Tuple[object, ...], ...]:
    return tuple(sorted((v[0], v[1])))


def p2_simplicial(sc: SimplicialComplex) -> SimplicialComplex:
    """Quotient of the product triangulation by the coordinate flip.

    The flip fixes every simplex whose interior it meets, so images of
    simplices form a simplicial structure on the unordered pairs.
    """
    prod = product_structure(sc)
    verts = sorted({_pair_orbit(v) for v in prod.vertices})
    maximal = []
    for s in prod.maximal_simplices():
        image = frozenset(_pair_orbit(v) for v in s)
        if len(image) != len(s):
            raise InputError("flip identifies vertices inside one simplex")
        maximal.append(image)
    return SimplicialComplex.from_maximal(verts, maximal)


def p2_point(p: PointInComplex, q: PointInComplex, product: SimplicialComplex,
             quotient: SimplicialComplex) -> PointInComplex:
    """Image of ``(p, q)`` under the flip quotient."""
    pair = staircase_coords(p, q, product)
    coords: Dict[object, Fraction] = {}
    for v, c in pair.coords.items():
        o = _pair_orbit(v)
        coords[o] = coords.get(o, Fraction(0)) + c
    return PointInComplex(quotient, coords)


def induced_p2_automorphism(sc: SimplicialComplex, vertex_map: Dict[object, object]
                            ) -> Dict[object, object]:
    """Vertex map induced on the unordered-pair complex by a simplicial
    automorphism of the input."""
    def face_image(face: Tuple[object, ...]) -> Tuple[object, ...]:
        return _face_name(frozenset(vertex_map[v] for v in face))

    faces = [_face_name(s) for s in sc.simplices]
    out = {}
    for a in faces:
        for b in faces:
            out[_pair_orbit((a, b))] = _pair_orbit((face_image(a), face_image(b)))
    return out


# -- numerical search for the Lemma about d_{P2(Sigma,d1)} vs d1 -------------


RANDOM_WEIGHT_MAX = 8  # random_point draws each barycentric weight from 0..RANDOM_WEIGHT_MAX


def random_point(sc: SimplicialComplex, rng: random.Random) -> PointInComplex:
    simplex = sorted(rng.choice(sorted(sc.maximal_simplices(), key=_face_name)), key=repr)
    weights = [Fraction(rng.randint(0, RANDOM_WEIGHT_MAX)) for _ in simplex]
    total = sum(weights, Fraction(0))
    if total == 0:
        return PointInComplex.vertex(sc, simplex[0])
    return PointInComplex(sc, {v: w / total for v, w in zip(simplex, weights) if w > 0})


def pair_metric_value(p: PointInComplex, q: PointInComplex,
                      p2: PointInComplex, q2: PointInComplex) -> Fraction:
    """min-of-matchings distance between unordered pairs of points."""
    return min(p.l1_to(p2) + q.l1_to(q2), p.l1_to(q2) + q.l1_to(p2))


class DeltaSearchResult:
    def __init__(self, delta: Optional[Fraction], samples: int,
                 certificate: List[Tuple[Fraction, Fraction]]):
        self.delta = delta
        self.samples = samples
        self.certificate = certificate  # (pair metric, quotient d1)


def delta_search(sc: SimplicialComplex, eps: Fraction, samples: int = 200,
                 seed: int = 0, grid: Optional[Sequence[Fraction]] = None,
                 budget: int = 100_000) -> DeltaSearchResult:
    """Largest grid delta with: pair-metric <= delta implies quotient d1 <= eps.

    A sampling surrogate for the compactness statement; the returned
    certificate lists the sampled value pairs.
    """
    if samples > budget:
        raise SampleBudgetExceeded(f"{samples} samples exceed budget {budget}")
    rng = random.Random(seed)
    sd = subdivide(sc)
    prod = product_structure(sc)
    quot = p2_simplicial(sc)
    eps = Fraction(eps)
    if grid is None:
        grid = [Fraction(k, 8) for k in range(1, 33)]
    observations: List[Tuple[Fraction, Fraction]] = []
    for _ in range(samples):
        p, q = random_point(sc, rng), random_point(sc, rng)
        p2_, q2_ = random_point(sc, rng), random_point(sc, rng)
        sp, sq = subdivision_coords(p, sd), subdivision_coords(q, sd)
        sp2, sq2 = subdivision_coords(p2_, sd), subdivision_coords(q2_, sd)
        z = p2_point(sp, sq, prod, quot)
        z2 = p2_point(sp2, sq2, prod, quot)
        observations.append((pair_metric_value(p, q, p2_, q2_), z.l1_to(z2)))
    best: Optional[Fraction] = None
    for delta in sorted(Fraction(d) for d in grid):
        if all(d1 <= eps for (dm, d1) in observations if dm <= delta):
            best = delta
    return DeltaSearchResult(best, samples, observations[:16])


# -- simplicial chain complexes ----------------------------------------------


def chain_complex_of(sc: SimplicialComplex,
                     placement: Optional[Dict[Simplex, object]] = None):
    """Simplicial chain complex, optionally positioned at placed simplices.

    ``placement`` maps every simplex (as a frozenset) to a control-space
    point; pass ``barycentric_control_space(sc)`` placements to position
    simplices at their barycenters.
    """
    from .chaincore import ChainComplex
    from .intmat import IntMatrix, sign

    by_dim: Dict[int, List[Tuple[object, ...]]] = {}
    for k in range(sc.dimension() + 1):
        by_dim[k] = sc.simplices_of_dim(k)
    ranks = {k: len(v) for k, v in by_dim.items() if v}
    diff: Dict[int, IntMatrix] = {}
    for k in range(1, sc.dimension() + 1):
        rows = {s: i for i, s in enumerate(by_dim[k - 1])}
        diff[k] = IntMatrix(len(by_dim[k - 1]), len(by_dim[k]), {
            (rows[s[:i] + s[i + 1:]], j): sign(i)
            for j, s in enumerate(by_dim[k]) for i in range(len(s))})
    positions = None
    if placement is not None:
        positions = {}
        for k, simplices in by_dim.items():
            positions[k] = tuple(placement[frozenset(s)] for s in simplices)
    return ChainComplex(ranks, diff, positions=positions)


def barycentric_control_space(sc: SimplicialComplex
                              ) -> Tuple[ControlSpace, Dict[Simplex, object]]:
    """Control space whose points are faces, at l^1 barycenter distances."""
    faces = sorted(sc.simplices, key=lambda s: (len(s), _face_name(s)))
    names = {s: _face_name(s) for s in faces}

    def bary(s: Simplex) -> Dict[object, Fraction]:
        return {v: Fraction(1, len(s)) for v in s}

    dist = {}
    for a in faces:
        for b in faces:
            ba, bb = bary(a), bary(b)
            dist[(names[a], names[b])] = sum(
                (abs(ba.get(v, Fraction(0)) - bb.get(v, Fraction(0)))
                 for v in set(ba) | set(bb)), Fraction(0))
    space = ControlSpace([names[s] for s in faces], dist, check=False)
    return space, names
