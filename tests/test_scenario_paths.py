"""Scenario paths the other tests leave out, and the shipped goldens.

Covers an action given by explicit ``phi`` and ``homotopies``, the
``simplicial`` section, the ``free`` group kind and the ``dihedral``
preset, ``d_{S,Lambda}`` on a free group, the bounds ``klab dslambda``
prints for a truncated value, pipeline morphisms of the wrong shape,
and a byte check of ``klab suite --json-out`` against each shipped
golden report.
"""

import json
import os
import re
from fractions import Fraction

import pytest

from klab.actions import HomotopySAction
from klab.cli import main
from klab.control import ControlSpace
from klab.groups import FiniteSubset, FiniteTableGroup
from klab.scenario import canonical_dumps, load_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "src", "klab", "scenarios")
POINTS = [f"p{i}" for i in range(5)]
IDENT = dict(zip(POINTS, POINTS))
FLIP = dict(zip(POINTS, POINTS[::-1]))
DOUBLE = {p: f"p{min(2 * i, 4)}" for i, p in enumerate(POINTS)}


def wandering_doc():
    """Z/2 flipping the path ``p0..p4``; ``H[0,1]`` runs through the flip,
    ``p_i -> p_min(2i,4)`` and the flip again."""
    return {
        "version": 1,
        "groups": {"Z2": {"kind": "finite-table", "preset": "cyclic", "n": 2}},
        "spaces": {"L": {"points": POINTS,
                         "distance": [[abs(i - j) for j in range(5)] for i in range(5)]}},
        "actions": {"wander": {"group": "Z2", "space": "L", "s": [0, 1],
                               "phi": {"0": IDENT, "1": FLIP},
                               "homotopies": {"0;0": [IDENT], "0;1": [FLIP, DOUBLE, FLIP],
                                              "1;0": [FLIP], "1;1": [IDENT]}}},
    }


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(canonical_dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_explicit_phi_and_homotopies_load_as_built_in_python(tmp_path):
    loaded = load_scenario(write(tmp_path, wandering_doc())).actions["wander"]
    z2 = FiniteTableGroup.cyclic(2)
    pts, flip, double = tuple(POINTS), tuple(FLIP.values()), tuple(DOUBLE.values())
    built = HomotopySAction(z2, ControlSpace.path(5), FiniteSubset.of(z2, [0, 1]),
                            {0: pts, 1: flip},
                            {(0, 0): (pts,), (0, 1): (flip, double, flip),
                             (1, 0): (flip,), (1, 1): (pts,)})
    assert loaded.phi == built.phi
    assert loaded.H == built.H


def test_a_grid_off_the_composite_is_an_input_error(tmp_path, capsys):
    doc = wandering_doc()
    doc["actions"]["wander"]["homotopies"]["0;1"] = [DOUBLE, FLIP]
    code, _, err = run(capsys, "validate", write(tmp_path, doc))
    assert code == 2
    assert "actions.wander" in err and "does not start at phi_g o phi_h" in err


def test_simplicial_free_group_and_dihedral_preset_validate(tmp_path, capsys):
    doc = wandering_doc()
    doc["groups"]["F2"] = {"kind": "free", "rank": 2}
    doc["groups"]["D3"] = {"kind": "finite-table", "preset": "dihedral", "n": 3}
    doc["simplicial"] = {"triangle": {"maximal": [["a", "b", "c"], ["c", "d"]]}}
    path = write(tmp_path, doc)
    sc = load_scenario(path)
    assert sc.groups["F2"].kind == "free" and sc.groups["F2"].rank == 2
    assert len(sc.groups["D3"].elements()) == 6
    assert sc.simplicial["triangle"].vertices == ("a", "b", "c", "d")
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    for case in ("groups:F2", "groups:D3", "simplicial:triangle", "actions:wander"):
        assert f"PASS {case}:well-formed" in out


def free_walk(tmp_path, s):
    """The free group on ``a, b`` acting trivially on one point, with ``S = s``."""
    doc = {"version": 1, "groups": {"F2": {"kind": "free", "rank": 2}},
           "spaces": {"X": {"points": ["x"], "distance": [[0]]}},
           "actions": {"walk": {"group": "F2", "space": "X", "s": s,
                                "genuine": {w: {"x": "x"} for w in s}}}}
    return write(tmp_path, doc, "free.json")


def test_free_group_unreached_element(tmp_path, capsys):
    def dslambda(s):
        return run(capsys, "dslambda", free_walk(tmp_path, s), "--action", "walk", "--lam", "1",
                   "--src", ":x", "--dst", "ab:x", "--horizon", "1")
    # a nontrivial letter may reach ``ab`` past the horizon: no certificate
    code, out, _ = dslambda(["", "a", "A"])
    assert code == 3
    assert "d(:x,ab:x) >= 2 [lower bound, truncated]" in out
    # with S = {e} no move leaves the identity: a certified infinity
    code, out, _ = dslambda([""])
    assert code == 0
    assert "d(:x,ab:x) = inf" in out and "truncated" not in out


def printed_bounds(out):
    """The lower and upper bound a truncated ``klab dslambda`` prints."""
    found = re.search(r">= (\S+) \[lower bound, truncated(?:; upper bound (\S+))?\]", out)
    assert found, out
    upper = found.group(2)
    return Fraction(found.group(1)), None if upper is None else Fraction(upper)


@pytest.mark.parametrize("scenario, argv, exact", [
    # no path within the horizon: the value printed to be bounded was inf
    (os.path.join(SCENARIOS, "z2.json"),
     ("--action", "swap", "--lam", "1/2", "--src", "0:p", "--dst", "1:p"), Fraction(3, 2)),
    # a path of cost 4 within the horizon, but the value is 1
    (None, ("--action", "wander", "--lam", "1", "--src", "0:p0", "--dst", "0:p4"), Fraction(1)),
])
def test_truncated_dslambda_prints_a_certified_lower_bound(tmp_path, capsys, scenario,
                                                           argv, exact):
    scenario = scenario or write(tmp_path, wandering_doc())
    code, out, _ = run(capsys, "dslambda", scenario, *argv)
    assert code == 0 and f"= {exact})" in out
    code, out, _ = run(capsys, "dslambda", scenario, *argv, "--horizon", "0")
    assert code == 3
    lower, upper = printed_bounds(out)
    assert lower <= exact
    assert upper is None or upper >= exact


ONE = {"1": {"rows": 1, "cols": 1, "entries": [[0, 0, -1]]}}
TWO = {"1": {"rows": 2, "cols": 2, "entries": [[0, 0, -1], [1, 1, -1]]}}
WIDE = {"1": {"rows": 2, "cols": 1, "entries": [[0, 0, -1]]}}


@pytest.mark.parametrize("command, morphisms, pipeline, message", [
    ("transfer-k", {"one": {"rank": 1, "letters": ONE}, "two": {"rank": 2, "letters": TWO}},
     {"kind": "transfer-k", "alpha": "one", "alpha_inv": "two"},
     "pipelines.bad: alpha and alpha_inv must be square and of one rank"),
    ("transfer-l", {"wide": {"rank_source": 1, "rank_target": 2, "letters": WIDE}},
     {"kind": "transfer-l", "alpha": "wide"},
     "pipelines.bad: alpha must be square and of one rank"),
    ("transfer-l", {"neg": {"rank": -1, "letters": {}}}, {"kind": "transfer-l", "alpha": "neg"},
     "morphisms.neg: morphism ranks must not be negative"),
])
def test_pipeline_morphisms_of_the_wrong_shape_fail_to_load(tmp_path, capsys, command,
                                                              morphisms, pipeline, message):
    with open(os.path.join(SCENARIOS, "z2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["morphisms"].update({k: {"group": "Z2", **v} for k, v in morphisms.items()})
    doc["pipelines"]["bad"] = {"chain_action": "involution", "lambda": "1/2", **pipeline}
    path = write(tmp_path, doc)
    for argv in (("validate",), ("suite",), (command, "--pipeline", "bad")):
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2 and f"input error: {message}" in err


@pytest.mark.parametrize("name", ["z2", "z3", "path", "dihedral"])
def test_suite_json_matches_the_golden_bytes(tmp_path, capsys, name):
    out = tmp_path / f"{name}.json"
    code, _, _ = run(capsys, "suite", os.path.join(SCENARIOS, f"{name}.json"), "--json-out", out)
    assert code == 0
    with open(os.path.join(SCENARIOS, "golden", f"{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
