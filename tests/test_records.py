"""klab's record and value types are plain classes.

Importing klab loads neither ``dataclasses`` nor ``inspect``.  Defaults
that were ``default_factory`` containers are fresh per instance, and the
three frozen value types keep equality, hashing and read-only fields.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from klab.actions import CoverSpec
from klab.chaincore import ChainComplex, ChainHomotopy, ChainMap, K0Class
from klab.cli import Report
from klab.errors import InputError
from klab.groups import FamilyPredicate, FiniteSubset, FiniteTableGroup, SubgroupDescription
from klab.scenario import Scenario

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_klab_loads_neither_dataclasses_nor_inspect():
    names = sorted(p.stem for p in (SRC / "klab").glob("*.py") if p.stem != "__init__")
    code = "\n".join([f"import sys; sys.path.insert(0, {str(SRC)!r})",
                      *(f"import klab.{name}" for name in names),
                      "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert "cli" in names and "fixtures" in names
    assert done.stdout.strip() == "[]"


def _point_map():
    return ChainMap.identity(ChainComplex({0: 1}, {}))


@pytest.mark.parametrize("make", [
    lambda: Report("suite"),
    Scenario,
    K0Class,
    lambda: CoverSpec((), {}),
    lambda: ChainHomotopy(_point_map(), _point_map()),
], ids=["Report", "Scenario", "K0Class", "CoverSpec", "ChainHomotopy"])
def test_default_containers_are_fresh(make):
    a, b = vars(make()), vars(make())
    containers = [name for name, value in a.items() if isinstance(value, (dict, list))]
    assert containers
    assert [name for name in containers if a[name] is b[name]] == []


def test_family_predicate_rejects_unknown_kind():
    with pytest.raises(InputError, match="unknown family kind 'bogus'"):
        FamilyPredicate("bogus")


Z3 = FiniteTableGroup.cyclic(3)


# (value, an equal value built another way, a different value, its fields)
@pytest.mark.parametrize("a, same, other, fields", [
    (FiniteSubset.of(Z3, [2, 0, 2]), FiniteSubset(Z3, (0, 2)), FiniteSubset.of(Z3, [0, 1]),
     ("backend", "elements")),
    (SubgroupDescription.of(Z3, [1]), SubgroupDescription(Z3, (1,)),
     SubgroupDescription.of(Z3, [2]), ("backend", "generators")),
    (FamilyPredicate("finite", True), FamilyPredicate(kind="finite", f2=True),
     FamilyPredicate("finite"), ("kind", "f2", "custom")),
], ids=["FiniteSubset", "SubgroupDescription", "FamilyPredicate"])
def test_value_types_compare_and_hash_by_value(a, same, other, fields):
    assert a is not same and a == same and hash(a) == hash(same)
    assert a != other and len({a, same, other}) == 2
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
    assert a == same

