"""Scenario files: one JSON schema for every module's data.

A scenario is a single UTF-8 JSON document with sorted keys holding
named sections (groups, spaces, actions, covers, complexes, forms,
morphisms, chain actions, dominations, pipelines).  Rationals are
encoded as ints or ``"p/q"`` strings; matrices as dense row lists or
``{"rows": r, "cols": c, "entries": [[i, j, v], ...]}``.  Reparsing a
canonically serialized scenario is byte-identical.  This module is the
only reader of the format: malformed data in an entry is an
``InputError`` naming ``section.name``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, Tuple

from .actions import HomotopySAction, CoverSpec, check_lambda
from .chaincore import ChainComplex, ChainHomotopy, ChainMap
from .control import ControlSpace
from .errors import InputError
from .gring import GRMatrix
from .groups import (FiniteSubset, FiniteTableGroup, FreeAbelianGroup,
                     FreeGroup, GroupBackend)
from .intmat import IntMatrix
from .ltheory import SymmetricForm
from .simplicial import SimplicialComplex
from .transfer import HomotopySChainComplex, PointEquivalence

SCHEMA_VERSION = 1


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise InputError(f"{path} is not a JSON file: {exc}") from None


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


_JSON_TYPES = {int: "integers", str: "a string", list: "a list", dict: "an object"}


def _typed(v, kind: type):
    """``v`` itself when its JSON type is ``kind``; nothing is coerced, and
    a bool is not an integer."""
    if type(v) is not kind:
        raise InputError(f"expected {_JSON_TYPES[kind]}, not {v!r}")
    return v


def _integer(v) -> int:
    return _typed(v, int)


def _int_key(key: str) -> int:
    """The integer an object key names, written as ``str`` writes it:
    ``"-1"``, not ``" 1"``, ``"+1"`` or ``"0_0"``."""
    n = int(key)
    if str(n) != key:
        raise ValueError(f"integer key {key!r} is not written canonically")
    return n


def parse_matrix(obj) -> IntMatrix:
    if isinstance(obj, list):
        if not all(isinstance(row, list) for row in obj):
            raise InputError("a dense matrix is a list of rows")
        return IntMatrix.from_rows([[_integer(v) for v in row] for row in obj])
    if isinstance(obj, dict):
        entries = {}
        for i, j, v in obj.get("entries", []):
            key = (_integer(i), _integer(j))
            if key in entries:
                raise InputError(f"sparse matrix: entry {list(key)} is given twice")
            entries[key] = _integer(v)
        try:
            # the constructor drops explicit zeros and rejects out-of-range entries
            return IntMatrix(_integer(obj["rows"]), _integer(obj["cols"]), entries)
        except ValueError as exc:
            raise InputError(f"sparse matrix: {exc}") from None
    raise InputError(f"cannot parse matrix from {obj!r}")


def _matrices(obj) -> Dict[int, IntMatrix]:
    """Matrices keyed by degree."""
    return {_int_key(k): parse_matrix(v) for k, v in obj.items()}


def _element_from_json(backend: GroupBackend, v):
    """An integer (finite table), a list of integers or one integer (free
    abelian), or a word (free group)."""
    if backend.kind == "finite-table":
        return backend.canonical(_integer(v))
    if backend.kind == "free-abelian":
        return backend.canonical([_integer(t) for t in v] if type(v) is list else [_integer(v)])
    return backend.canonical(_typed(v, str))


def _element_key(backend: GroupBackend, key: str):
    """Group element parsed from a JSON object key (free abelian: ``"1,-2"``)."""
    if backend.kind == "finite-table":
        return _element_from_json(backend, _int_key(key))
    if backend.kind == "free-abelian":
        return _element_from_json(backend, [_int_key(t) for t in key.split(",")] if key else [])
    return _element_from_json(backend, key)


def _pair_key(backend: GroupBackend, key: str):
    """The ``(g, h)`` of a ``"g;h"`` homotopy key."""
    g, h = key.split(";")
    return _element_key(backend, g), _element_key(backend, h)


def _subset(backend: GroupBackend, items) -> FiniteSubset:
    return FiniteSubset.of(backend, [_element_from_json(backend, v) for v in _typed(items, list)],
                           require_identity=True)


def parse_point(action: HomotopySAction, text: str):
    """The point ``(g, x)`` of ``G x X`` written ``g:x``, ``g`` as an object key."""
    if ":" not in text:
        raise InputError(f"point {text!r} is not of the form g:x")
    g_str, x = text.split(":", 1)
    try:
        g = _element_key(action.backend, g_str)
    except ValueError:
        raise InputError(f"cannot parse group element {g_str!r}") from None
    if x not in action.index:
        raise InputError(f"unknown point {x!r}")
    return (g, x)


class Scenario:
    """One dict of resolved entries per section; see ``SECTIONS``."""

    def __init__(self):
        self.groups: Dict[str, GroupBackend] = {}
        self.spaces: Dict[str, ControlSpace] = {}
        self.actions: Dict[str, HomotopySAction] = {}
        self.complexes: Dict[str, ChainComplex] = {}
        self.forms: Dict[str, SymmetricForm] = {}
        self.covers: Dict[str, Tuple[CoverSpec, HomotopySAction]] = {}
        self.morphisms: Dict[str, GRMatrix] = {}
        self.chain_actions: Dict[str, HomotopySChainComplex] = {}
        self.dominations: Dict[str, Tuple[ChainComplex, ChainComplex, ChainMap, ChainMap,
                                          ChainHomotopy]] = {}
        self.simplicial: Dict[str, SimplicialComplex] = {}
        self.pipelines: Dict[str, Tuple[str, tuple]] = {}

    def get(self, section: str, name: str):
        """The named entry of a section; an unknown name is an input error."""
        entries = getattr(self, section)
        if name not in entries:
            raise InputError(f"no {section} entry named {name!r}")
        return entries[name]


def load_scenario(path: str) -> Scenario:
    return parse_scenario(read_json(path))


def parse_scenario(raw: Dict[str, Any]) -> Scenario:
    if not isinstance(raw, dict):
        raise InputError("a scenario must be a JSON object")
    version = raw.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InputError(f"unsupported scenario version {version!r}")
    sc = Scenario()
    for section, parse in SECTIONS.items():
        specs = raw.get(section, {})
        if not isinstance(specs, dict):
            raise InputError(f"{section}: a section maps names to entries")
        entries = getattr(sc, section)
        for name, spec in specs.items():
            try:
                entries[name] = parse(sc, spec)
            except (InputError, TypeError, ValueError, KeyError, AttributeError,
                    IndexError) as exc:  # what malformed data in an entry raises
                what = f"missing {exc}" if isinstance(exc, KeyError) else exc
                raise InputError(f"{section}.{name}: {what}") from None
    return sc


def _parse_group(sc: Scenario, spec: Dict[str, Any]) -> GroupBackend:
    kind = spec["kind"]
    if kind == "finite-table":
        preset = spec.get("preset")
        if preset == "cyclic":
            return FiniteTableGroup.cyclic(_integer(spec["n"]))
        if preset == "dihedral":
            return FiniteTableGroup.dihedral(_integer(spec["n"]))
        if preset == "trivial":
            return FiniteTableGroup.cyclic(1)
        if preset is not None:
            raise InputError(f"unknown preset {preset!r}")
        table = [[_integer(v) for v in _typed(row, list)] for row in _typed(spec["table"], list)]
        return FiniteTableGroup(table, name=spec.get("name", "G"))
    if kind == "free-abelian":
        return FreeAbelianGroup(_integer(spec["rank"]))
    if kind == "free":
        return FreeGroup(_integer(spec["rank"]))
    raise InputError(f"unknown group kind {kind!r}")


def _parse_space(sc: Scenario, spec: Dict[str, Any]) -> ControlSpace:
    points = _typed(spec["points"], list)
    rows = [[parse_fraction(v) for v in _typed(row, list)]
            for row in _typed(spec["distance"], list)]
    if len(rows) != len(points) or any(len(row) != len(points) for row in rows):
        raise InputError("the distance matrix needs one row and one column per point")
    return ControlSpace.from_matrix(points, rows)


def _parse_action(sc: Scenario, spec: Dict[str, Any]) -> HomotopySAction:
    backend = sc.get("groups", spec["group"])
    space = sc.get("spaces", spec["space"])
    S = _subset(backend, spec["s"])
    if "genuine" in spec:
        action = {_element_key(backend, k): _typed(v, dict)
                  for k, v in spec["genuine"].items()}
        return HomotopySAction.from_genuine(backend, space, S, action)
    phi = {_element_key(backend, k): tuple(_typed(v, dict)[p] for p in space.points)
           for k, v in spec["phi"].items()}
    homotopies = {_pair_key(backend, k): tuple(tuple(_typed(m, dict)[p] for p in space.points)
                                               for m in _typed(grids, list))
                  for k, grids in spec["homotopies"].items()}
    return HomotopySAction(backend, space, S, phi, homotopies)


def _parse_complex(sc: Scenario, spec: Dict[str, Any]) -> ChainComplex:
    ranks = {_int_key(k): _integer(v) for k, v in spec["ranks"].items()}
    diff = _matrices(spec.get("differentials", {}))
    idem = _matrices(spec["idempotents"]) if "idempotents" in spec else None
    positions = None
    if "positions" in spec:
        positions = {_int_key(k): tuple(_typed(v, list)) for k, v in spec["positions"].items()}
    return ChainComplex(ranks, diff, idem, positions)


def _parse_form(sc: Scenario, spec: Dict[str, Any]) -> SymmetricForm:
    return SymmetricForm(_integer(spec["rank"]), parse_matrix(spec["gram"]))


def _chain_map(spec: Dict[str, Any], source: ChainComplex,
               target: ChainComplex) -> ChainMap:
    return ChainMap(source, target, _integer(spec.get("degree", 0)),
                    _matrices(spec.get("mats", {})))


def _homotopy(spec: Dict[str, Any], source: ChainMap, target: ChainMap) -> ChainHomotopy:
    return ChainHomotopy(source, target, _matrices(spec.get("mats", {})))


def _parse_cover(sc: Scenario, spec: Dict[str, Any]) -> Tuple[CoverSpec, HomotopySAction]:
    action = sc.get("actions", spec["action"])
    backend = action.backend
    window = [_element_from_json(backend, v) for v in _typed(spec["group_window"], list)]
    carrier = tuple((g, x) for g in window for x in action.space.points)
    sets = {}
    for name, members in spec["sets"].items():
        pairs = [_typed(v, list) for v in _typed(members, list)]  # [g, x] each
        sets[name] = frozenset((_element_from_json(backend, g), x) for g, x in pairs)
    if any(x not in action.space for members in sets.values() for _, x in members):
        raise InputError("cover members must be points of the action's space")
    name_action = {_element_key(backend, k): _typed(perm, dict)
                   for k, perm in spec.get("name_action", {}).items()}
    if any(not set(perm) | set(perm.values()) <= set(sets)
           for perm in name_action.values()):
        raise InputError("name_action must map set names to set names")
    return CoverSpec(carrier, sets, name_action), action


def _parse_morphism(sc: Scenario, spec: Dict[str, Any]) -> GRMatrix:
    backend = sc.get("groups", spec["group"])
    rank_s = _integer(spec.get("rank_source", spec.get("rank")))
    rank_t = _integer(spec.get("rank_target", spec.get("rank")))
    letters = {_element_key(backend, k): parse_matrix(v)
               for k, v in spec["letters"].items()}
    return GRMatrix(backend, rank_t, rank_s, letters)


def _parse_chain_action(sc: Scenario, spec: Dict[str, Any]) -> HomotopySChainComplex:
    backend = sc.get("groups", spec["group"])
    space = sc.get("spaces", spec["space"])
    P = sc.get("complexes", spec["complex"])
    if P.pos_total is not None and not set(P.pos_total) <= space.index.keys():
        raise InputError("complex positions must be points of the space")
    S = _subset(backend, spec["s"])
    phi = {_element_key(backend, k): _chain_map(v, P, P) for k, v in spec["phi"].items()}
    homotopies = {}
    for k, v in spec["homotopies"].items():
        g, h = _pair_key(backend, k)
        homotopies[(g, h)] = _homotopy(v, phi[g].compose(phi[h]), phi[backend.mul(g, h)])
    point_action = sc.get("actions", spec["action"]) if "action" in spec else None
    pe = None
    if "equivalence" in spec:
        eq = spec["equivalence"]
        base = eq["basepoint"]
        T = ChainComplex.point(base)
        pe = PointEquivalence(_chain_map(eq["to_point"], P, T),
                              _chain_map(eq["from_point"], T, P), base)
    return HomotopySChainComplex(backend, space, S, P, phi, homotopies,
                                 point_action=point_action, point_equivalence=pe)


def _parse_domination(sc: Scenario, spec: Dict[str, Any]):
    C = sc.get("complexes", spec["big"])
    D = sc.get("complexes", spec["small"])
    i = _chain_map(spec["into"], C, D)
    r = _chain_map(spec["retract"], D, C)
    return C, D, i, r, _homotopy(spec["homotopy"], r.compose(i), ChainMap.identity(C))


def _parse_simplicial(sc: Scenario, spec: Dict[str, Any]) -> SimplicialComplex:
    maximal = [frozenset(_typed(s, list)) for s in _typed(spec["maximal"], list)]
    vertices = sorted({v for s in maximal for v in s})
    return SimplicialComplex.from_maximal(vertices, maximal)


def _torsion_parts(sc: Scenario, spec: Dict[str, Any]):
    C = sc.get("complexes", spec["complex"])
    D = sc.get("complexes", spec.get("target", spec["complex"]))
    f = _chain_map(spec["f"], C, D)
    g = _chain_map(spec["g"], D, C)
    return (f, g, _homotopy(spec["h"], g.compose(f), ChainMap.identity(C)),
            _homotopy(spec["k"], f.compose(g), ChainMap.identity(D)))


def _squares(sc: Scenario, spec: Dict[str, Any], *keys: str) -> Tuple[GRMatrix, ...]:
    """The named morphisms, which must all be square of one rank."""
    ms = tuple(sc.get("morphisms", spec[k]) for k in keys)
    if len({n for m in ms for n in (m.rows, m.cols)}) != 1:
        raise InputError(" and ".join(keys) + " must be square and of one rank")
    return ms


# pipeline kind -> its parts, in the order the runner takes them
PIPELINES = {
    "transfer-k": lambda sc, spec: (sc.get("chain_actions", spec["chain_action"]),
                                    *_squares(sc, spec, "alpha", "alpha_inv"),
                                    check_lambda(parse_fraction(spec["lambda"]))),
    "transfer-l": lambda sc, spec: (sc.get("chain_actions", spec["chain_action"]),
                                    *_squares(sc, spec, "alpha"),
                                    check_lambda(parse_fraction(spec["lambda"]))),
    "torsion": _torsion_parts,
    "replace": lambda sc, spec: sc.get("dominations", spec["domination"]),
}


def _parse_pipeline(sc: Scenario, spec: Dict[str, Any]) -> Tuple[str, tuple]:
    kind = spec["kind"]
    if kind not in PIPELINES:
        raise InputError(f"unknown pipeline kind {kind!r}")
    return kind, PIPELINES[kind](sc, spec)


# parsed in this order, so an entry can refer to the sections above it
SECTIONS = {
    "groups": _parse_group,
    "spaces": _parse_space,
    "actions": _parse_action,
    "complexes": _parse_complex,
    "forms": _parse_form,
    "covers": _parse_cover,
    "morphisms": _parse_morphism,
    "chain_actions": _parse_chain_action,
    "dominations": _parse_domination,
    "simplicial": _parse_simplicial,
    "pipelines": _parse_pipeline,
}


def read_report_cases(path: str) -> Dict[str, Tuple[str, str]]:
    """``{id: (status, detail)}`` of a report written with ``--json-out``."""
    try:
        return {c["id"]: (c["status"], c.get("detail", ""))
                for c in read_json(path).get("cases", [])}
    except (TypeError, KeyError, AttributeError) as exc:
        raise InputError(f"{path} is not a klab report: {exc!r}") from None


def canonical_dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def canonicalize_file(path: str) -> str:
    return canonical_dumps(read_json(path))
