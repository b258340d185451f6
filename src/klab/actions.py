"""Homotopy S-actions on finite metric spaces and everything they induce:
the quasi-metric on ``G x X``, orbit sets, covers with Lebesgue numbers,
nerve maps with contraction audits, and discrete domination data.

Homotopies are discretized on finite time grids; all distances are exact
rationals.  Enumerations past a configured horizon raise or set a
truncation flag instead of claiming completeness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .control import INF, ControlSpace
from .errors import (EmptyCover, HorizonExceeded, InputError, KlabError, ZeroDenominator)
from .groups import (FamilyPredicate, FiniteSubset, GroupBackend,
                     SubgroupDescription, family_member)
from .intmat import lattice_member
from .simplicial import PointInComplex, SimplicialComplex

PointMap = Tuple[object, ...]  # images listed in space point order

DEFAULT_DSLAMBDA_HORIZON = 8
DEFAULT_STATE_CAP = 200_000
ORBIT_HORIZON = 12  # deepest S^n(g, x) that s_orbit enumerates
ORBIT_CAP = 100_000  # most points s_orbit holds in one layer


class HomotopySAction:
    """Finite metric space with maps ``phi_g`` and grid homotopies ``H_{g,h}``.

    ``H[(g,h)]`` is a tuple of point maps over the time grid, starting at
    ``phi_g o phi_h`` and ending at ``phi_{gh}``; ``H[(e,e)]`` must be
    constantly the identity.
    """

    def __init__(self, backend: GroupBackend, space: ControlSpace, S: FiniteSubset,
                 phi: Dict[object, PointMap],
                 homotopies: Dict[Tuple[object, object], Tuple[PointMap, ...]],
                 check: bool = True):
        self.backend = backend
        self.space = space
        self.S = S
        self.index = space.index
        self.phi = {backend.canonical(g): tuple(m) for g, m in phi.items()}
        self.H = {(backend.canonical(g), backend.canonical(h)): tuple(tuple(m) for m in grid)
                  for (g, h), grid in homotopies.items()}
        self._moves = None  # built on first use by move_table()
        if check:
            self.validate()

    # -- point map helpers ---------------------------------------------

    def apply(self, point_map: PointMap, x) -> object:
        return point_map[self.index[x]]

    def identity_map(self) -> PointMap:
        return tuple(self.space.points)

    def compose_maps(self, outer: PointMap, inner: PointMap) -> PointMap:
        return tuple(outer[self.index[inner[i]]] for i in range(len(inner)))

    def validate(self) -> None:
        e = self.backend.identity()
        if e not in self.S:
            raise InputError("S must contain the identity")
        for g in self.S:
            if g not in self.phi:
                raise InputError(f"phi missing for {g!r}")
            m = self.phi[g]
            if len(m) != len(self.space.points) or any(y not in self.index for y in m):
                raise InputError(f"phi[{g!r}] is not a total point map")
        if self.phi[e] != self.identity_map():
            raise InputError("phi_e must be the identity")
        for g, h, gh in self.S.products:
            grid = self.H.get((g, h))
            if not grid:
                raise InputError(f"homotopy missing for pair ({g!r},{h!r})")
            comp = self.compose_maps(self.phi[g], self.phi[h])
            if grid[0] != comp:
                raise InputError(f"H[{g!r},{h!r}] does not start at phi_g o phi_h")
            if grid[-1] != self.phi[gh]:
                raise InputError(f"H[{g!r},{h!r}] does not end at phi_gh")
            for m in grid:
                if len(m) != len(self.space.points) or any(y not in self.index for y in m):
                    raise InputError(f"H[{g!r},{h!r}] has a non-total grid map")
        ident = self.identity_map()
        for m in self.H[(e, e)]:
            if m != ident:
                raise InputError("H[e,e] must be constantly the identity")

    @staticmethod
    def from_genuine(backend: GroupBackend, space: ControlSpace, S: FiniteSubset,
                     action: Dict[object, Dict[object, object]]) -> "HomotopySAction":
        """Restrict an honest action to ``S`` with constant homotopies."""
        phi = {}
        for g in S:
            amap = action[backend.canonical(g)]
            phi[backend.canonical(g)] = tuple(amap[p] for p in space.points)
        homotopies = {(g, h): (phi[gh],) for g, h, gh in S.products}
        return HomotopySAction(backend, space, S, phi, homotopies)

    # -- Definition-level sets -------------------------------------------

    def f_set(self, g) -> List[PointMap]:
        """All maps ``x -> H_{r,s}(x, t)`` over grid times with ``rs = g``."""
        g = self.backend.canonical(g)
        if g not in self.S:
            raise InputError(f"{g!r} is not in S")
        return sorted({m for r, s, rs in self.S.products if rs == g
                       for m in self.H.get((r, s), ())})

    def move_table(self) -> Tuple[List[object], Dict[object, Tuple[Tuple[object, object], ...]]]:
        """Move letters and move edges, built once per action.

        The letters are every ``a^{-1} b`` over ``a, b in S``, sorted by
        repr.  The edges map each point ``z`` to the moves
        ``(a^{-1} b, x')`` with ``f(z) = f'(x')`` for some ``f in F_a``,
        ``f' in F_b``: the images of ``z`` under ``F_a`` joined with the
        preimages under ``F_b``, each set built once per letter.
        """
        if self._moves is None:
            mul, inv, pts = self.backend.mul, self.backend.inv, self.space.points
            images, preimages = {}, {}
            for a in self.S:
                fa = self.f_set(a)
                images[a] = [{m[i] for m in fa} for i in range(len(pts))]
                pre = preimages[a] = {}
                for m in fa:
                    for x, y in zip(pts, m):
                        pre.setdefault(y, set()).add(x)
            letters = set()
            edges: Dict[object, Set[Tuple[object, object]]] = {z: set() for z in pts}
            for a in self.S:
                for b in self.S:
                    step, pre = mul(inv(a), b), preimages[b]
                    letters.add(step)
                    for z, ys in zip(pts, images[a]):
                        edges[z].update((step, xp) for y in ys for xp in pre.get(y, ()))
            self._moves = (sorted(letters, key=repr),
                           {z: tuple(out) for z, out in edges.items()})
        return self._moves

    def s_orbit(self, n: int, gx: Tuple[object, object]) -> Set[Tuple[object, object]]:
        """Exact enumeration of ``S^n(g, x)`` by depth-``n`` search."""
        if n < 0:
            raise InputError("negative depth")
        if n > ORBIT_HORIZON:
            raise HorizonExceeded(f"orbit depth {n} exceeds horizon {ORBIT_HORIZON}")
        g, x = self.backend.canonical(gx[0]), gx[1]
        if x not in self.index:
            raise InputError(f"unknown point {x!r}")
        _, edges = self.move_table()
        mul = self.backend.mul
        current: Set[Tuple[object, object]] = {(g, x)}
        for _ in range(n):
            current = {(mul(h, step), xp) for (h, y) in current for step, xp in edges[y]}
            if len(current) > ORBIT_CAP:
                raise HorizonExceeded("orbit enumeration exceeded cap")
        return current


class DSLambdaResult:
    """Value of the quasi-metric with its truncation certificate."""

    def __init__(self, value: Optional[Fraction], truncated: bool, lower_bound: Fraction):
        self.value = value  # None encodes the infinity marker
        self.truncated = truncated
        self.lower_bound = lower_bound

    def is_infinite(self) -> bool:
        return self.value is None


class DSLambdaMetric:
    """Exact evaluator for ``d_{S,Lambda}`` on ``G x X``.

    A path runs through states ``(g, x, k)``, ``k`` the moves used.  Fiber
    edges ``(g, x, k) -> (g, z, k)`` cost ``Lambda * d_X(x, z)``; move edges
    ``(g, z, k) -> (g a^{-1} b, x', k + 1)`` cost 1, exist for ``k < n_max``
    and whenever some ``f in F_a``, ``f' in F_b`` satisfy ``f(z) = f'(x')``.
    Values found at total cost at most ``n_max + 1`` are exact; otherwise
    the result is truncated, bounded below by ``n_max + 1`` and above by a cost found.

    Costs are integers: every weight and the move cost 1 are multiplied by
    ``scale``, a common denominator of the ``Lambda * d_X`` values, and
    results are exact rationals again at the boundary.  Once per metric:

    - ``closure[x][z]`` is the least scaled cost of a fiber path from
      point ``x`` to point ``z``: ``Lambda``'s numerator times the space's
      ``closure()``, which is built once per space.  It is the direct
      weight only under the triangle inequality, which spaces built with
      ``check=False`` never test.
    - ``moves`` pairs each move letter with its edges ``x -> (x', ...)``
      on point indices.
    - The layers are counted on the first search.  Every distance of a
      ``ControlSpace`` is defined, so the fiber graph is complete and a
      layer reaches every point of each group element it reaches: layer
      0 is ``{e}`` and layer ``k + 1`` is every ``g * letter`` over ``g``
      in layer ``k``, whatever the source point.  There are ``n_points``
      reachable states per element of each layer; when their total
      exceeds ``state_cap`` every search raises ``HorizonExceeded``.

    The search from ``x0`` is a DP over the layers ``k = 0..n_max``, with
    one row per group element of least costs using at most ``k`` moves.
    Layer 0 is ``{e: closure[x0]}``.  Each step moves the rows the last
    step improved by every letter (``+ scale``) into candidate rows keyed
    by ``g * letter``, closes each candidate as
    ``row[z] = min_x cand[x] + closure[x][z]`` over its improved entries,
    and folds it into that element's row by elementwise ``min``.  A row
    the last step left alone has moved already at the same costs.

    By G-invariance a search depends only on its source point, so the
    metric keeps one search result per source point and every query
    from that point reuses it.
    """

    def __init__(self, action: HomotopySAction, lam: Fraction,
                 n_max: int = DEFAULT_DSLAMBDA_HORIZON,
                 state_cap: int = DEFAULT_STATE_CAP):
        if lam <= 0:
            raise InputError("Lambda must be positive")
        if n_max < 0:
            raise InputError("the move horizon must not be negative")
        self.action = action
        self.lam = Fraction(lam)
        self.n_max = n_max
        self.state_cap = state_cap
        self.backend = action.backend
        self.letters, moves = action.move_table()
        space = action.space
        self.points, self.index = space.points, space.index
        scale, rows = space.scaled()
        if min(map(min, rows), default=0) < 0:
            raise InputError("negative distance in the control space")
        # a common denominator of 1 and every Lambda * d(x, z)
        self.scale = scale * self.lam.denominator
        # the space's closure rows are tuples, shared as they are when num is 1
        num, self.closure = self.lam.numerator, space.closure()
        if num != 1:
            self.closure = [[num * v for v in row] for row in self.closure]
        edges: Dict[object, Dict[int, List[int]]] = {}
        for z, out in moves.items():
            for step, xp in out:
                edges.setdefault(step, {}).setdefault(self.index[z], []).append(self.index[xp])
        self.moves = [(step, tuple((x, tuple(xps)) for x, xps in edges[step].items()))
                      for step in self.letters if step in edges]
        self._layers = None  # (elements, successors, capped), built by _reach()
        self._searches: Dict[object, Dict[Tuple[object, object], int]] = {}
        self._reachable = None  # finite-table displacements the letters reach

    def _search(self, x0) -> Dict[Tuple[object, object], int]:
        """The search from ``(e, x0)``, run on the first query from ``x0``."""
        best = self._searches.get(x0)
        if best is None:
            if x0 not in self.index:
                raise InputError(f"unknown point {x0!r}")
            best = self._searches[x0] = self._layered(x0)
        return best

    def _reach(self) -> Tuple[List[object], Dict[int, List[int]]]:
        """Group elements by id (the identity is 0) and each one's
        successor ids, one per letter of ``moves``; raises once the reachable
        states outnumber ``state_cap``."""
        if self._layers is None:
            mul, n = self.backend.mul, len(self.points)
            elements = [self.backend.identity()]
            ids = {elements[0]: 0}
            successors: Dict[int, List[int]] = {}
            layer, states = [0], n
            for _ in range(self.n_max):
                if states > self.state_cap or not layer:
                    break
                reached = set()
                for g in layer:
                    out = successors.get(g)
                    if out is None:
                        out = successors[g] = []
                        for step, _ in self.moves:
                            h = mul(elements[g], step)
                            i = ids.get(h)
                            if i is None:
                                i = ids[h] = len(elements)
                                elements.append(h)
                            out.append(i)
                    reached.update(out)
                layer = reached
                states += n * len(layer)
            self._layers = (elements, successors, states > self.state_cap)
        elements, successors, capped = self._layers
        if capped:
            raise HorizonExceeded("d_{S,Lambda} state cap exceeded")
        return elements, successors

    def _layered(self, x0) -> Dict[Tuple[object, object], int]:
        """Best scaled cost from ``(e, x0)`` to every ``(g, x)`` within the
        move horizon (min over layers)."""
        elements, successors = self._reach()
        closure, moves, unit, points = self.closure, self.moves, self.scale, self.points
        n = len(points)
        # exceeds every path cost: n_max moves and n_max + 1 fiber paths
        blank = [(self.n_max + 1) * (unit + max(map(max, closure))) + 1] * n
        best = {0: closure[self.index[x0]]}
        frontier = [0]
        for _ in range(self.n_max):
            cand: Dict[int, List[int]] = {}
            for g in frontier:
                row = best[g]
                for h, (_, step_edges) in zip(successors[g], moves):
                    c = cand.get(h)
                    if c is None:
                        c = cand[h] = list(best.get(h, blank))
                    for x, xps in step_edges:
                        v = row[x] + unit
                        for xp in xps:
                            if v < c[xp]:
                                c[xp] = v
            frontier = []
            for h, c in cand.items():
                old = best.get(h, blank)
                shifted = [map(add, closure[x], repeat(v))
                           for x, (v, o) in enumerate(zip(c, old)) if v < o]
                if shifted:
                    best[h] = list(map(min, old, *shifted))
                    frontier.append(h)
            if not frontier:
                break
        return {(elements[g], points[i]): v for g, row in best.items() for i, v in enumerate(row)}

    def _certified_unreachable(self, displacement) -> bool:
        """True when no chain of move letters can realize the displacement."""
        letters = self.letters
        if self.backend.kind == "finite-table":
            if self._reachable is None:  # the closure, or the HorizonExceeded it raised
                try:
                    self._reachable = SubgroupDescription.of(
                        self.backend, letters or [self.backend.identity()]).closure()
                except HorizonExceeded as exc:
                    self._reachable = exc
            if isinstance(self._reachable, HorizonExceeded):
                raise self._reachable.with_traceback(None)
            return displacement not in self._reachable
        if self.backend.kind == "free-abelian":
            return not lattice_member([list(l) for l in letters], list(displacement))
        e = self.backend.identity()
        if all(l == e for l in letters):
            return displacement != e
        return False

    def _result(self, best: Dict[Tuple[object, object], int], disp, y) -> DSLambdaResult:
        """Value of ``(e, x0) -> (disp, y)`` from the search ``best`` of ``x0``."""
        found = best.get((disp, y))
        if found is None:
            return DSLambdaResult(None, not self._certified_unreachable(disp),
                                  Fraction(self.n_max + 1))
        value = Fraction(found, self.scale)
        if found <= (self.n_max + 1) * self.scale:
            return DSLambdaResult(value, False, value)
        return DSLambdaResult(value, True, Fraction(self.n_max + 1))

    def distance(self, src: Tuple[object, object], dst: Tuple[object, object]) -> DSLambdaResult:
        g, x = self.backend.canonical(src[0]), src[1]
        h, y = self.backend.canonical(dst[0]), dst[1]
        # G-invariance: translate the source to the identity
        disp = self.backend.mul(self.backend.inv(g), h)
        return self._result(self._search(x), disp, y)

    def table(self, carrier: Sequence[Tuple[object, object]]) -> "MetricTable":
        """Pairwise values on a finite carrier (one search per source point)."""
        values: Dict[Tuple[int, int], Optional[Fraction]] = {}
        truncated = False
        canon = [(self.backend.canonical(g), x) for (g, x) in carrier]
        mul, inv = self.backend.mul, self.backend.inv
        for i, (g, x) in enumerate(canon):
            best = self._search(x)
            for j, (h, y) in enumerate(canon):
                res = self._result(best, mul(inv(g), h), y)
                values[(i, j)] = res.value
                truncated = truncated or res.truncated
        return MetricTable(tuple(canon), values, truncated)


class MetricTable:
    """Evaluated quasi-metric on a finite carrier of ``(g, x)`` points."""

    def __init__(self, carrier: Tuple[Tuple[object, object], ...],
                 values: Dict[Tuple[int, int], Optional[Fraction]], truncated: bool):
        self.carrier = carrier
        self.values = values
        self.truncated = truncated
        # first index of each carrier point (a carrier may repeat points)
        self.position: Dict[Tuple[object, object], int] = {}
        for i, p in enumerate(carrier):
            self.position.setdefault(p, i)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.carrier, self.values, self.truncated)
                == (other.carrier, other.values, other.truncated))

    def __repr__(self):
        return (f"MetricTable(carrier={self.carrier!r}, values={self.values!r}, "
                f"truncated={self.truncated!r})")

    def d(self, p, q) -> Optional[Fraction]:
        return self.values[(self.position[p], self.position[q])]

    def d_by_index(self, i: int, j: int) -> Optional[Fraction]:
        return self.values[(i, j)]


# -- moduli of the action ---------------------------------------------------


def moduli(action: HomotopySAction, eps_grid: Sequence[Fraction]
           ) -> Tuple[Dict[Fraction, Optional[Fraction]], Dict[Fraction, Fraction]]:
    """Displacement moduli ``beta`` and its partial inverse ``alpha``.

    ``beta(eps)`` is the maximal displacement of eps-close pairs under
    all maps of the action (the ``phi_g`` and every grid homotopy map);
    ``alpha(eps)`` is the largest grid value ``delta`` with
    ``beta(delta) <= eps`` (or None when no grid value qualifies).
    """
    grid = sorted(Fraction(e) for e in eps_grid)
    maps: List[PointMap] = [action.phi[g] for g in action.S]
    for gridmaps in action.H.values():
        maps.extend(gridmaps)
    pts = action.space.points
    beta: Dict[Fraction, Fraction] = {}
    for eps in grid:
        worst = Fraction(0)
        for x in pts:
            for y in pts:
                if action.space.d(x, y) <= eps:
                    for m in maps:
                        disp = action.space.d(action.apply(m, x), action.apply(m, y))
                        if disp > worst:
                            worst = disp
        beta[eps] = worst
    alpha: Dict[Fraction, Optional[Fraction]] = {}
    for eps in grid:
        qualifying = [d for d in grid if beta[d] <= eps]
        alpha[eps] = max(qualifying) if qualifying else None
    return alpha, beta


# -- covers -----------------------------------------------------------------


class CoverSpec:
    """Named subsets of a finite ``(ball in G) x X`` carrier.

    ``name_action[g]`` sends set names to set names and certifies the
    equivariance ``g(U) in cover``; group elements without action data
    are simply not checked.
    """

    def __init__(self, carrier: Tuple[Tuple[object, object], ...],
                 sets: Dict[str, FrozenSet[Tuple[object, object]]],
                 name_action: Optional[Dict[object, Dict[str, str]]] = None):
        self.carrier = carrier
        self.sets = sets
        self.name_action = {} if name_action is None else name_action

    def members(self, name: str) -> FrozenSet[Tuple[object, object]]:
        return self.sets[name]

    def covering_violations(self) -> List[str]:
        out = []
        union = set()
        for s in self.sets.values():
            union |= s
        for p in self.carrier:
            if p not in union:
                out.append(f"point {p!r} not covered")
        return out

    def multiplicity(self) -> int:
        worst = 0
        for p in self.carrier:
            worst = max(worst, sum(1 for s in self.sets.values() if p in s))
        return worst

    def dimension(self) -> int:
        """Cover dimension as (max multiplicity over points) - 1."""
        return self.multiplicity() - 1


class CoverReport:
    def __init__(self, violations: List[str], skipped: List[str], dimension: int,
                 isotropy: Dict[str, List[object]], s_long_checked: int,
                 s_long_failures: List[str]):
        self.violations = violations
        self.skipped = skipped
        self.dimension = dimension
        self.isotropy = isotropy
        self.s_long_checked = s_long_checked
        self.s_long_failures = s_long_failures

    def ok(self) -> bool:
        return not self.violations and not self.s_long_failures


def check_f_cover(cover: CoverSpec, family: FamilyPredicate,
                  backend: GroupBackend, action: Optional[HomotopySAction] = None,
                  N: Optional[int] = None, s_long_depth: Optional[int] = None) -> CoverReport:
    """Verify the open-F-cover axioms on finite data.

    Checks covering, equivariance via the name action, the F-subset
    dichotomy ``g(U) = U or U n g(U) = empty``, isotropy membership in
    the family, dimension against ``N``, and S-long-ness via orbit
    containment when an action is supplied.  Items that leave the finite
    carrier are reported as skipped, never silently passed.
    """
    violations: List[str] = []
    skipped: List[str] = []
    violations.extend(cover.covering_violations())
    carrier = set(cover.carrier)

    for g, perm in cover.name_action.items():
        g = backend.canonical(g)
        if sorted(perm) != sorted(cover.sets):
            violations.append(f"name action of {g!r} is not a permutation of the cover")
            continue
        for name, members in cover.sets.items():
            image_name = perm[name]
            translated = {(backend.mul(g, h), x) for (h, x) in members}
            inside = translated & carrier
            target = cover.sets[image_name]
            if not inside <= target:
                violations.append(f"g(U) != named image for g={g!r}, U={name}")
            if translated - carrier:
                skipped.append(f"g={g!r} moves part of {name} outside the carrier")
            # dichotomy: either the named image is U itself or meets U trivially
            if image_name != name and inside & members:
                violations.append(f"F-subset dichotomy fails for g={g!r}, U={name}")

    isotropy: Dict[str, List[object]] = {}
    for name in cover.sets:
        stab = [g for g, perm in cover.name_action.items() if perm.get(name) == name]
        isotropy[name] = stab
        if cover.name_action:
            sub = SubgroupDescription.of(backend, stab or [backend.identity()])
            try:
                if not family_member(family, sub):
                    violations.append(f"isotropy of {name} is not in the family")
            except KlabError as exc:  # undecidable backends reported, not guessed
                skipped.append(f"isotropy membership for {name}: {exc}")

    dim = cover.dimension()
    if N is not None and dim > N:
        violations.append(f"cover dimension {dim} exceeds N={N}")

    s_long_checked = 0
    s_long_failures: List[str] = []
    if action is not None:
        depth = s_long_depth if s_long_depth is not None else len(action.S)
        for (g, x) in cover.carrier:
            orbit = action.s_orbit(depth, (g, x))
            if not orbit <= carrier:
                skipped.append(f"S^{depth}({g!r},{x!r}) leaves the carrier")
                continue
            s_long_checked += 1
            if not any(orbit <= members for members in cover.sets.values()):
                s_long_failures.append(f"no cover set contains S^{depth}({g!r},{x!r})")
    return CoverReport(violations, skipped, dim, isotropy, s_long_checked, s_long_failures)


def distance_to_complement(cover: CoverSpec, table: MetricTable, name: str,
                           p: Tuple[object, object]) -> Optional[Fraction]:
    """min distance from ``p`` to carrier points outside the named set."""
    members = cover.sets[name]
    best: Optional[Fraction] = None
    pi = table.position[p]
    for j, q in enumerate(table.carrier):
        if q in members:
            continue
        d = table.d_by_index(pi, j)
        if d is None:
            continue  # unreachable complement point imposes no constraint
        if best is None or d < best:
            best = d
    # an empty or unreachable complement bounds nothing
    return best if best is not None else INF


def lebesgue_number(cover: CoverSpec, table: MetricTable) -> Optional[Fraction]:
    """min over points of max over cover sets of distance-to-complement.

    Returns the infinity marker (None) when some point lies in a set
    with unreachable complement.
    """
    if not cover.sets:
        raise EmptyCover("cover has no sets")
    overall: Optional[Fraction] = None
    overall_inf = True
    for p in cover.carrier:
        best: Optional[Fraction] = Fraction(0)
        best_inf = False
        for name in cover.sets:
            d = distance_to_complement(cover, table, name, p)
            if d is INF:
                best_inf = True
                break
            if d > best:
                best = d
        if best_inf:
            continue  # this point imposes no finite constraint
        overall_inf = False
        if overall is None or best < overall:
            overall = best
    return INF if overall_inf else overall


def lebesgue_lambda_search(action: HomotopySAction, cover: CoverSpec,
                           m: Fraction, lambda_grid: Sequence[Fraction],
                           n_max: int = DEFAULT_DSLAMBDA_HORIZON
                           ) -> Tuple[Optional[Fraction], Dict[Fraction, Optional[Fraction]]]:
    """Least grid Lambda whose Lebesgue number reaches ``m/2``.

    A truncated table raises ``HorizonExceeded``: its Lebesgue number is
    no certified bound, so the search cannot go on past it.
    """
    results: Dict[Fraction, Optional[Fraction]] = {}
    for lam in sorted(Fraction(l) for l in lambda_grid):
        table = DSLambdaMetric(action, lam, n_max).table(list(cover.carrier))
        if table.truncated:
            raise HorizonExceeded(f"the Lambda = {lam} table is truncated at horizon {n_max}")
        number = lebesgue_number(cover, table)
        results[lam] = number
        if number is INF or number >= Fraction(m) / 2:
            return lam, results
    return None, results


def nerve_complex(cover: CoverSpec) -> SimplicialComplex:
    """Nerve of the cover on the carrier: simplices are point-supported
    name sets."""
    maximal = []
    for p in cover.carrier:
        names = frozenset(name for name, members in cover.sets.items() if p in members)
        if names:
            maximal.append(names)
    return SimplicialComplex.from_maximal(sorted(cover.sets), maximal)


def nerve_map(cover: CoverSpec, table: MetricTable
              ) -> Tuple[SimplicialComplex, Dict[Tuple[object, object], PointInComplex]]:
    """Barycentric coordinates proportional to distance-to-complement."""
    if not cover.sets:
        raise EmptyCover("cover has no sets")
    nerve = nerve_complex(cover)
    out: Dict[Tuple[object, object], PointInComplex] = {}
    for p in cover.carrier:
        coords: Dict[object, Fraction] = {}
        for name in cover.sets:
            d = distance_to_complement(cover, table, name, p)
            if d is INF:
                raise InputError("nerve map needs a finite metric on the carrier")
            if d > 0:
                coords[name] = d
        total = sum(coords.values(), Fraction(0))
        if total == 0:
            raise ZeroDenominator(f"point {p!r} has zero distance to every complement")
        out[p] = PointInComplex(nerve, {k: v / total for k, v in coords.items()})
    return nerve, out


class ContractionAudit:
    def __init__(self, checked: int, shared_simplex: int, disjoint_support: int,
                 violations: List[str]):
        self.checked = checked
        self.shared_simplex = shared_simplex
        self.disjoint_support = disjoint_support
        self.violations = violations

    def ok(self) -> bool:
        return not self.violations


def audit_nerve_contraction(cover: CoverSpec, table: MetricTable, N: int,
                            D: Fraction, pairs: Sequence[Tuple[Tuple[object, object],
                                                               Tuple[object, object]]]
                            ) -> ContractionAudit:
    """On pairs with ``d <= D/(4N)`` check ``d^1(f p, f q) <= (16 N^2 / D) d``.

    The l^1 comparison is exact when the two image supports span a common
    nerve simplex; disjoint-support samples are counted, not asserted.
    """
    if N <= 0 or D <= 0:
        raise InputError("need positive N and D")
    nerve, images = nerve_map(cover, table)
    threshold = Fraction(D) / (4 * N)
    factor = Fraction(16 * N * N, 1) / Fraction(D)
    checked = shared = disjoint = 0
    violations: List[str] = []
    for (p, q) in pairs:
        d = table.d(p, q)
        if d is None or d > threshold:
            continue
        checked += 1
        fp, fq = images[p], images[q]
        union = frozenset(fp.coords) | frozenset(fq.coords)
        if not nerve.has_simplex(union):
            disjoint += 1
            continue
        shared += 1
        if fp.l1_to(fq) > factor * d:
            violations.append(f"contraction bound fails for {p!r}, {q!r}")
    return ContractionAudit(checked, shared, disjoint, violations)


# -- domination data ---------------------------------------------------------


class DominationData:
    """Discrete controlled-domination witness of a space by a complex.

    ``i_map`` places each point in the complex ``K`` by barycentric
    coordinates, ``p_map`` sends K-vertices back to the space, and
    ``track`` is the discretized homotopy from the composite to the
    identity.  The composite point map sends ``x`` to ``p_map`` of the
    max-coordinate vertex of ``i_map[x]`` (ties by smallest repr).
    """

    def __init__(self, space: ControlSpace, complex: SimplicialComplex, N: int, eps: Fraction,
                 i_map: Dict[object, PointInComplex], p_map: Dict[object, object],
                 track: Tuple[PointMap, ...]):
        self.space = space
        self.complex = complex
        self.N = N
        self.eps = eps
        self.i_map = i_map
        self.p_map = p_map
        self.track = track

    def composite(self) -> PointMap:
        out = []
        for x in self.space.points:
            coords = self.i_map[x].coords
            best = max(coords.values())
            vertex = sorted((v for v, c in coords.items() if c == best), key=repr)[0]
            out.append(self.p_map[vertex])
        return tuple(out)


class DominationReport:
    def __init__(self, violations: List[str], track_diameter: Fraction):
        self.violations = violations
        self.track_diameter = track_diameter

    def ok(self) -> bool:
        return not self.violations


def validate_domination(data: DominationData) -> DominationReport:
    """Check dimension, endpoints, and the track diameter bound."""
    violations: List[str] = []
    if data.complex.dimension() > data.N:
        violations.append(f"complex dimension {data.complex.dimension()} exceeds N={data.N}")
    pts = data.space.points
    for x in pts:
        if x not in data.i_map:
            violations.append(f"i undefined at {x!r}")
    for v in data.complex.vertices:
        if v not in data.p_map or data.p_map[v] not in data.space:
            violations.append(f"p undefined or out of space at vertex {v!r}")
    if violations:
        return DominationReport(violations, Fraction(0))
    if not data.track:
        violations.append("empty track")
        return DominationReport(violations, Fraction(0))
    if data.track[0] != data.composite():
        violations.append("track does not start at p o i")
    if data.track[-1] != tuple(pts):
        violations.append("track does not end at the identity")
    worst = Fraction(0)
    for i in range(len(pts)):
        values = [m[i] for m in data.track]
        for a in values:
            for b in values:
                d = data.space.d(a, b)
                if d > worst:
                    worst = d
    if worst > data.eps:
        violations.append(f"track diameter {worst} exceeds eps={data.eps}")
    return DominationReport(violations, worst)
