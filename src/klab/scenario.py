"""Scenario files: one JSON schema for every module's data.

A scenario is a single UTF-8 JSON document with sorted keys holding
named sections (groups, spaces, actions, covers, complexes, forms,
morphisms, chain actions, dominations, pipelines).  Rationals are
encoded as ints or ``"p/q"`` strings; matrices as dense row lists or
``{"rows": r, "cols": c, "entries": [[i, j, v], ...]}``.  Reparsing a
canonically serialized scenario is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Tuple

from .actions import HomotopySAction, CoverSpec
from .chaincore import ChainComplex, ChainHomotopy, ChainMap
from .control import ControlSpace, EquivariantMorphism
from .errors import InputError
from .groups import (FiniteSubset, FiniteTableGroup, FreeAbelianGroup,
                     FreeGroup, GroupBackend)
from .intmat import IntMatrix
from .ltheory import SymmetricForm
from .simplicial import SimplicialComplex
from .transfer import HomotopySChainComplex, PointEquivalence, group_module

SCHEMA_VERSION = 1


def parse_fraction(v) -> Fraction:
    if isinstance(v, bool):
        raise InputError("booleans are not numbers")
    if isinstance(v, (int, str)):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise InputError(f"zero denominator in {v!r}") from None
        except ValueError:
            raise InputError(f"cannot parse rational from {v!r}") from None
    raise InputError(f"cannot parse rational from {v!r}")


def fraction_str(v: Fraction) -> Any:
    v = Fraction(v)
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def _integer(v) -> int:
    # bool is a subclass of int but not a matrix entry
    if type(v) is not int:
        raise InputError(f"matrix entries and shapes must be integers, not {v!r}")
    return v


def parse_matrix(obj) -> IntMatrix:
    if isinstance(obj, list):
        if not all(isinstance(row, list) for row in obj):
            raise InputError("a dense matrix is a list of rows")
        return IntMatrix.from_rows([[_integer(v) for v in row] for row in obj])
    if isinstance(obj, dict):
        entries = {(_integer(i), _integer(j)): _integer(v)
                   for i, j, v in obj.get("entries", [])}
        try:
            # the constructor drops explicit zeros and rejects out-of-range entries
            return IntMatrix(_integer(obj["rows"]), _integer(obj["cols"]), entries)
        except ValueError as exc:
            raise InputError(f"sparse matrix: {exc}") from None
    raise InputError(f"cannot parse matrix from {obj!r}")


def _element_from_json(backend: GroupBackend, v):
    if backend.kind == "finite-table":
        return backend.canonical(int(v))
    if backend.kind == "free-abelian":
        return backend.canonical(tuple(v) if isinstance(v, list) else (int(v),))
    return backend.canonical(str(v))


def _element_key(backend: GroupBackend, key: str):
    """Group element parsed from a JSON object key."""
    if backend.kind == "finite-table":
        return backend.canonical(int(key))
    if backend.kind == "free-abelian":
        return backend.canonical(tuple(int(t) for t in key.split(",")) if key else ())
    return backend.canonical(key)


@dataclass
class Scenario:
    """Parsed scenario with resolved cross-references."""

    version: int
    raw: Dict[str, Any]
    groups: Dict[str, GroupBackend] = field(default_factory=dict)
    spaces: Dict[str, ControlSpace] = field(default_factory=dict)
    actions: Dict[str, HomotopySAction] = field(default_factory=dict)
    covers: Dict[str, Tuple[CoverSpec, str]] = field(default_factory=dict)
    complexes: Dict[str, ChainComplex] = field(default_factory=dict)
    forms: Dict[str, SymmetricForm] = field(default_factory=dict)
    morphisms: Dict[str, EquivariantMorphism] = field(default_factory=dict)
    chain_actions: Dict[str, HomotopySChainComplex] = field(default_factory=dict)
    dominations: Dict[str, Tuple[ChainComplex, ChainComplex, ChainMap, ChainMap,
                                 ChainHomotopy]] = field(default_factory=dict)
    simplicial: Dict[str, SimplicialComplex] = field(default_factory=dict)
    pipelines: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_scenario(raw)


def parse_scenario(raw: Dict[str, Any]) -> Scenario:
    if not isinstance(raw, dict):
        raise InputError("a scenario must be a JSON object")
    version = int(raw.get("version", 0))
    if version != SCHEMA_VERSION:
        raise InputError(f"unsupported scenario version {version}")
    sc = Scenario(version, raw)
    for name, spec in raw.get("groups", {}).items():
        sc.groups[name] = _parse_group(spec)
    for name, spec in raw.get("spaces", {}).items():
        points = list(spec["points"])
        rows = [[parse_fraction(v) for v in row] for row in spec["distance"]]
        sc.spaces[name] = ControlSpace.from_matrix(points, rows)
    for name, spec in raw.get("actions", {}).items():
        sc.actions[name] = _parse_action(sc, spec)
    for name, spec in raw.get("complexes", {}).items():
        sc.complexes[name] = _parse_complex(spec)
    for name, spec in raw.get("forms", {}).items():
        gram = parse_matrix(spec["gram"])
        sc.forms[name] = SymmetricForm(int(spec["rank"]), gram)
    for name, spec in raw.get("covers", {}).items():
        sc.covers[name] = (_parse_cover(sc, spec), spec["action"])
    for name, spec in raw.get("morphisms", {}).items():
        sc.morphisms[name] = _parse_morphism(sc, spec)
    for name, spec in raw.get("chain_actions", {}).items():
        sc.chain_actions[name] = _parse_chain_action(sc, spec)
    for name, spec in raw.get("dominations", {}).items():
        sc.dominations[name] = _parse_domination(sc, spec)
    for name, spec in raw.get("simplicial", {}).items():
        maximal = [frozenset(s) for s in spec["maximal"]]
        vertices = sorted({v for s in maximal for v in s})
        sc.simplicial[name] = SimplicialComplex.from_maximal(vertices, maximal)
    sc.pipelines = dict(raw.get("pipelines", {}))
    return sc


def _parse_group(spec: Dict[str, Any]) -> GroupBackend:
    kind = spec["kind"]
    if kind == "finite-table":
        preset = spec.get("preset")
        if preset == "cyclic":
            return FiniteTableGroup.cyclic(int(spec["n"]))
        if preset == "dihedral":
            return FiniteTableGroup.dihedral(int(spec["n"]))
        if preset == "trivial":
            return FiniteTableGroup.cyclic(1)
        return FiniteTableGroup(spec["table"], name=spec.get("name", "G"))
    if kind == "free-abelian":
        return FreeAbelianGroup(int(spec["rank"]))
    if kind == "free":
        return FreeGroup(int(spec["rank"]))
    raise InputError(f"unknown group kind {kind!r}")


def _parse_action(sc: Scenario, spec: Dict[str, Any]) -> HomotopySAction:
    backend = sc.groups[spec["group"]]
    space = sc.spaces[spec["space"]]
    S = FiniteSubset.of(backend, [_element_from_json(backend, v) for v in spec["s"]],
                        require_identity=True)
    if "genuine" in spec:
        action = {_element_key(backend, k): dict(v)
                  for k, v in spec["genuine"].items()}
        return HomotopySAction.from_genuine(backend, space, S, action)
    phi = {}
    for k, v in spec["phi"].items():
        g = _element_key(backend, k)
        phi[g] = tuple(v[p] for p in space.points)
    homotopies = {}
    for k, grids in spec["homotopies"].items():
        g_str, h_str = k.split(";")
        g = _element_key(backend, g_str)
        h = _element_key(backend, h_str)
        homotopies[(g, h)] = tuple(tuple(m[p] for p in space.points) for m in grids)
    return HomotopySAction(backend, space, S, phi, homotopies)


def _parse_complex(spec: Dict[str, Any]) -> ChainComplex:
    ranks = {int(k): int(v) for k, v in spec["ranks"].items()}
    diff = {int(k): parse_matrix(v) for k, v in spec.get("differentials", {}).items()}
    idem = None
    if "idempotents" in spec:
        idem = {int(k): parse_matrix(v) for k, v in spec["idempotents"].items()}
    positions = None
    if "positions" in spec:
        positions = {int(k): tuple(v) for k, v in spec["positions"].items()}
    return ChainComplex(ranks, diff, idem, positions)


def _parse_chain_map(spec: Dict[str, Any], source: ChainComplex,
                     target: ChainComplex, check: bool = True) -> ChainMap:
    mats = {int(k): parse_matrix(v) for k, v in spec.get("mats", {}).items()}
    return ChainMap(source, target, int(spec.get("degree", 0)), mats, check=check)


def _parse_cover(sc: Scenario, spec: Dict[str, Any]) -> CoverSpec:
    action = sc.actions[spec["action"]]
    backend = action.backend
    window = [_element_from_json(backend, v) for v in spec["group_window"]]
    carrier = tuple((g, x) for g in window for x in action.space.points)
    sets = {}
    for name, members in spec["sets"].items():
        sets[name] = frozenset((_element_from_json(backend, g), x)
                               for (g, x) in members)
    name_action = {}
    for k, perm in spec.get("name_action", {}).items():
        name_action[_element_key(backend, k)] = dict(perm)
    return CoverSpec(carrier, sets, name_action)


def _parse_morphism(sc: Scenario, spec: Dict[str, Any]) -> EquivariantMorphism:
    backend = sc.groups[spec["group"]]
    rank_s = int(spec.get("rank_source", spec.get("rank")))
    rank_t = int(spec.get("rank_target", spec.get("rank")))
    letters = {_element_key(backend, k): parse_matrix(v)
               for k, v in spec["letters"].items()}
    return EquivariantMorphism(backend, group_module(rank_s),
                               group_module(rank_t), letters)


def _parse_chain_action(sc: Scenario, spec: Dict[str, Any]) -> HomotopySChainComplex:
    backend = sc.groups[spec["group"]]
    space = sc.spaces[spec["space"]]
    P = sc.complexes[spec["complex"]]
    S = FiniteSubset.of(backend, [_element_from_json(backend, v) for v in spec["s"]],
                        require_identity=True)
    phi = {}
    for k, v in spec["phi"].items():
        g = _element_key(backend, k)
        phi[g] = _parse_chain_map(v, P, P)
    homotopies = {}
    for k, v in spec["homotopies"].items():
        g_str, h_str = k.split(";")
        g = _element_key(backend, g_str)
        h = _element_key(backend, h_str)
        gh = backend.mul(g, h)
        mats = {int(kk): parse_matrix(vv) for kk, vv in v.get("mats", {}).items()}
        homotopies[(g, h)] = ChainHomotopy(phi[g].compose(phi[h]), phi[gh], mats)
    point_action = sc.actions[spec["action"]] if "action" in spec else None
    pe = None
    if "equivalence" in spec:
        eq = spec["equivalence"]
        base = eq["basepoint"]
        T = ChainComplex.point(base)
        f = _parse_chain_map(eq["to_point"], P, T)
        fbar = _parse_chain_map(eq["from_point"], T, P)
        pe = PointEquivalence(f, fbar, base)
    return HomotopySChainComplex(backend, space, S, P, phi, homotopies,
                                 point_action=point_action, point_equivalence=pe)


def _parse_domination(sc: Scenario, spec: Dict[str, Any]):
    C = sc.complexes[spec["big"]]
    D = sc.complexes[spec["small"]]
    i = _parse_chain_map(spec["into"], C, D)
    r = _parse_chain_map(spec["retract"], D, C)
    hmats = {int(k): parse_matrix(v) for k, v in spec["homotopy"].get("mats", {}).items()}
    h = ChainHomotopy(r.compose(i), ChainMap.identity(C), hmats)
    return C, D, i, r, h


def canonical_dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def canonicalize_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return canonical_dumps(json.load(fh))
