import argparse
import ast
import contextlib
import copy
import io
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import klab.actions
import klab.cli
import klab.p2
from klab.cli import COMMANDS, build_parser, main
from klab.control import ControlSpace
from klab.errors import InputError
from klab.intmat import IntMatrix
from klab.scenario import (canonical_dumps, canonicalize_file, parse_fraction,
                            parse_matrix, parse_scenario)

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = os.path.join(HERE, "..", "src", "klab", "scenarios")
Z2 = os.path.join(SCENARIOS, "z2.json")
PATH = os.path.join(SCENARIOS, "path.json")
GOLDEN_Z2 = os.path.join(SCENARIOS, "golden", "z2.json")
DIHEDRAL = os.path.join(SCENARIOS, "dihedral.json")


def run_cli(*argv):
    return main(list(argv))


def test_validate_exit_zero(capsys):
    assert run_cli("validate", Z2) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_readme_cli_example_exits_zero(monkeypatch, capsys):
    # every klab line of the README's CLI block, run from the repo root
    root = os.path.join(HERE, "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## The CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    scen = next(line.split("=", 1)[1] for line in lines if line.startswith("SCEN="))
    commands = [line.replace("$SCEN", scen) for line in lines if line.startswith("klab ")]
    assert commands
    monkeypatch.chdir(root)
    failed = [line for line in commands if run_cli(*shlex.split(line)[1:]) != 0]
    assert not failed, capsys.readouterr().err


def test_missing_scenario_exit_two(capsys):
    assert run_cli("validate", os.path.join(SCENARIOS, "nope.json")) == 2


def test_malformed_scenario_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    assert run_cli("validate", str(bad)) == 2


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_the_version_must_be_the_json_integer_one(version, tmp_path, capsys):
    # both used to validate with exit 0, since True == 1.0 == 1
    assert run_cli("validate", _mutated(tmp_path, _set("version", value=version))) == 2
    assert f"unsupported scenario version {version!r}" in capsys.readouterr().err


def test_dslambda_values(capsys):
    assert run_cli("dslambda", Z2, "--action", "swap", "--lam", "1/2",
                   "--src", "0:p", "--dst", "1:p") == 0
    out = capsys.readouterr().out
    assert "3/2" in out


def test_dslambda_unreachable_infinity_marker(tmp_path, capsys):
    doc = {
        "version": 1,
        "groups": {"Z": {"kind": "free-abelian", "rank": 1}},
        "spaces": {"X": {"points": ["a"], "distance": [[0]]}},
        "actions": {"triv": {"group": "Z", "space": "X", "s": [[0]],
                             "genuine": {"0": {"a": "a"}}}},
    }
    path = tmp_path / "free.json"
    path.write_text(canonical_dumps(doc))
    code = run_cli("dslambda", str(path), "--action", "triv", "--lam", "1",
                   "--src", "0:a", "--dst", "5:a")
    out = capsys.readouterr().out
    assert code == 0  # certified unreachable: infinity marker, no truncation
    assert "inf" in out


def test_orbit_and_lebesgue(capsys):
    assert run_cli("orbit", Z2, "--action", "swap", "--depth", "1",
                   "--at", "0:p") == 0
    assert run_cli("lebesgue", Z2, "--cover", "slab", "--lam", "1/2") == 0
    out = capsys.readouterr().out
    assert "number = inf" in out


def test_p2_command(capsys):
    assert run_cli("p2", Z2, "--space", "X", "--action", "swap",
                   "--lam", "1/2", "--samples", "25") == 0


def test_p2_exits_3_when_the_omega_audit_skips_truncated_samples(capsys):
    argv = ("p2", Z2, "--space", "X", "--action", "swap", "--lam", "1/2", "--samples", "200")
    assert run_cli(*argv, "--horizon", "0") == 3
    out = capsys.readouterr().out
    assert "PASS p2:swap:omega  (checked 94, skipped 106)" in out and "[truncated]" in out
    assert run_cli(*argv, "--horizon", "1") == 0
    assert "(checked 200, skipped 0)" in capsys.readouterr().out


def test_transfer_pipelines(capsys):
    assert run_cli("transfer-k", Z2) == 0
    assert run_cli("transfer-l", Z2) == 0
    out = capsys.readouterr().out
    assert "recovers-form" in out


def test_replace_pipeline(capsys):
    assert run_cli("replace", PATH, "--domination", "coarsen") == 0


def test_signature_and_finobstr(capsys):
    assert run_cli("signature", Z2) == 0
    assert run_cli("finobstr", Z2, "--complex", "euler") == 0
    out = capsys.readouterr().out
    assert "reduced rank = 1" in out


def test_suite_with_golden(capsys):
    assert run_cli("suite", Z2, "--golden", GOLDEN_Z2) == 0


def test_suite_golden_compares_details(tmp_path, capsys):
    golden = json.loads(open(GOLDEN_Z2, encoding="utf-8").read())
    case = next(c for c in golden["cases"] if c["detail"] == "dim 0")
    case["detail"] = "dim 7"  # same status, changed value
    edited = tmp_path / "golden.json"
    edited.write_text(canonical_dumps(golden))
    assert run_cli("suite", Z2, "--golden", str(edited)) == 1
    assert "FAIL suite:golden-match" in capsys.readouterr().out


def test_parse_matrix_rejects_entry_outside_shape():
    with pytest.raises(InputError):
        parse_matrix({"rows": 2, "cols": 2, "entries": [[5, 5, 1]]})


@pytest.mark.parametrize("obj", [
    {"rows": 1, "cols": 1, "entries": [[0, 0, 1.5]]},
    [[1.5, 0], [0, -1]],
    [[True]],
    [["a"]],
], ids=["sparse-float", "dense-float", "dense-bool", "dense-string"])
def test_parse_matrix_rejects_non_integer_entries(obj):
    with pytest.raises(InputError):
        parse_matrix(obj)


def test_non_integer_gram_exit_two(tmp_path, capsys):
    doc = {"version": 1, "forms": {"f": {"rank": 2, "gram": [[1.5, 0], [0, -1]]}}}
    path = tmp_path / "float.json"
    path.write_text(canonical_dumps(doc))
    assert run_cli("signature", str(path)) == 2
    assert "integers" in capsys.readouterr().err


def test_parse_matrix_drops_explicit_zeros():
    m = parse_matrix({"rows": 2, "cols": 2, "entries": [[0, 0, 0], [1, 0, 3]]})
    assert m.entries == {(1, 0): 3}
    assert parse_matrix({"rows": 2, "cols": 2, "entries": [[0, 0, 0]]}).is_zero()
    assert parse_matrix({"rows": 2, "cols": 2, "entries": [[0, 0, 0]]}) == IntMatrix.zeros(2, 2)


def test_dihedral_cover_suite(capsys):
    golden = os.path.join(SCENARIOS, "golden", "dihedral.json")
    assert run_cli("suite", DIHEDRAL, "--golden", golden) == 0
    out = capsys.readouterr().out
    assert "cover:slabs:axioms" in out


def test_z3_pipelines_suite(capsys):
    scenario = os.path.join(SCENARIOS, "z3.json")
    golden = os.path.join(SCENARIOS, "golden", "z3.json")
    assert run_cli("suite", scenario, "--golden", golden) == 0
    out = capsys.readouterr().out
    assert "transfer-k:kpipe:projection-torsion" in out


def test_suite_deterministic_and_workers_removed(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli("suite", Z2, "--json-out", str(out1)) == 0
    assert run_cli("suite", Z2, "--json-out", str(out2)) == 0
    assert out1.read_text() == out2.read_text()
    assert run_cli("suite", Z2, "--workers", "4") == 2


@pytest.mark.parametrize("scenario, cover", [(Z2, "slab"), (DIHEDRAL, "slabs")])
def test_unknown_family_fails_the_suite_as_nerve_does(scenario, cover, capsys):
    for command in (("nerve", scenario, "--cover", cover, "--lam", "1/2"), ("suite", scenario)):
        assert run_cli(*command, "--family", "bogus") == 2
        captured = capsys.readouterr()
        assert "input error: unknown family kind 'bogus'" in captured.err
        assert "FAIL" not in captured.out


def test_reports_deterministic_given_seed(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run_cli("p2", Z2, "--space", "X", "--action", "swap", "--lam", "1/2",
            "--samples", "40", "--seed", "3", "--json-out", str(out1))
    run_cli("p2", Z2, "--space", "X", "--action", "swap", "--lam", "1/2",
            "--samples", "40", "--seed", "3", "--json-out", str(out2))
    assert out1.read_text() == out2.read_text()


def test_nerve_command(capsys):
    assert run_cli("nerve", Z2, "--cover", "longcover", "--lam", "1/2",
                   "--family", "trivial", "--n", "1", "--audit-d", "1/2") == 0
    out = capsys.readouterr().out
    assert "nerve dim" in out and "contraction" in out


def test_nerve_audit_places_the_nerve_map_once(monkeypatch, capsys):
    # the map case and the contraction audit read one nerve map
    complexes, rows = [], []
    nerve_complex, distances = klab.actions.nerve_complex, klab.actions._complement_distances
    monkeypatch.setattr(klab.actions, "nerve_complex",
                        lambda cover: complexes.append(cover) or nerve_complex(cover))
    monkeypatch.setattr(klab.actions, "_complement_distances",
                        lambda cover, table, p: rows.append(p) or distances(cover, table, p))
    assert run_cli("nerve", Z2, "--cover", "longcover", "--lam", "1/2", "--n", "1",
                   "--audit-d", "4", "--samples", "50") == 0
    assert "contraction" in capsys.readouterr().out
    assert len(complexes) == 1
    assert len(rows) == len(set(rows)) == len(complexes[0].carrier) == 4


def test_p2_action_builds_the_pair_space_and_action_once(monkeypatch, capsys):
    # the metric case, the induced-action case and omega_audit share them
    spaces, induced = [], []
    from_scaled, action = ControlSpace.from_scaled, klab.p2.HomotopySAction
    monkeypatch.setattr(ControlSpace, "from_scaled",
                        staticmethod(lambda *args: spaces.append(args) or from_scaled(*args)))
    monkeypatch.setattr(klab.p2, "HomotopySAction",
                        lambda *args, **kwargs: induced.append(args) or action(*args, **kwargs))
    assert run_cli("p2", Z2, "--space", "X", "--action", "swap") == 0
    assert "FAIL" not in capsys.readouterr().out
    assert (len(spaces), len(induced)) == (1, 1)


def test_torsion_pipeline(capsys):
    assert run_cli("torsion", Z2) == 0
    out = capsys.readouterr().out
    assert "det sign -1" in out


def test_property_violation_exit_one(tmp_path, capsys):
    doc = json.loads(open(Z2, encoding="utf-8").read())
    # break the cover: claim the slab is fixed but shrink it to one orbit half
    doc["covers"]["slab"]["sets"]["U"] = [[0, "p"], [0, "q"]]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert run_cli("suite", str(bad)) == 1


def _walk(tmp_path, **sections):
    """A scenario file: Z (free abelian, rank 1) walking on one point, plus
    the given sections."""
    doc = {
        "version": 1,
        "groups": {"Z": {"kind": "free-abelian", "rank": 1}},
        "spaces": {"X": {"points": ["a"], "distance": [[0]]}},
        "actions": {"walk": {"group": "Z", "space": "X", "s": [[0], [1], [-1]],
                             "genuine": {"0": {"a": "a"}, "1": {"a": "a"},
                                         "-1": {"a": "a"}}}},
        **sections,
    }
    path = tmp_path / "walk.json"
    path.write_text(canonical_dumps(doc))
    return str(path)


def test_truncation_exit_three(tmp_path, capsys):
    # the target needs 5 moves but the horizon allows 2: truncated lower bound
    code = run_cli("dslambda", _walk(tmp_path), "--action", "walk", "--lam", "1",
                   "--src", "0:a", "--dst", "5:a", "--horizon", "2")
    out = capsys.readouterr().out
    assert code == 3
    assert "truncated" in out


def test_nerve_on_a_truncated_table_exits_three(tmp_path, capsys):
    # over the window -3..3, A holds g <= 0 and B holds g >= 0: at horizon 1
    # the complement of A lies past the table from -3, which is a truncation
    window = range(-3, 4)
    cover = {"action": "walk", "group_window": [[g] for g in window],
             "sets": {"A": [[[g], "a"] for g in window if g <= 0],
                      "B": [[[g], "a"] for g in window if g >= 0]}}
    path = _walk(tmp_path, covers={"c": cover})
    argv = ("nerve", path, "--cover", "c", "--lam", "1", "--n", "1", "--horizon")
    assert run_cli(*argv, "1") == 3
    assert "horizon truncation: the complement of 'A'" in capsys.readouterr().err
    assert run_cli(*argv, "6") == 0


def test_p2_on_an_infinite_group_samples_a_named_ball(tmp_path, monkeypatch, capsys):
    audit, drawn = klab.cli.omega_audit, []
    monkeypatch.setattr(klab.cli, "omega_audit",
                        lambda action, lam, samples, **kw: drawn.extend(samples)
                        or audit(action, lam, samples, **kw))
    assert run_cli("p2", _walk(tmp_path), "--space", "X", "--action", "walk") == 0
    assert any(g != h for (g, _), (h, _) in drawn)
    assert "skipped 0; window: radius-1 ball, 5 elements)" in capsys.readouterr().out


# scenario None is the walk scenario above
@pytest.mark.parametrize("argv, code, message", [
    (("dslambda", Z2, "--action", "swap", "--lam", "-1/2", "--src", "0:p", "--dst", "1:p"),
     2, "Lambda must be positive"),
    (("lebesgue", Z2, "--cover", "slab", "--lambda-grid", "-1/2,1"), 2, "Lambda must be positive"),
    (("dslambda", None, "--action", "walk", "--lam", "1", "--src", "-1:a", "--dst", "1:a"),
     0, "d(-1:a,1:a) = 1"),
    (("lebesgue", Z2, "--cover", "slab", "--lambda-grid", "1", "--m=0"), 2, "m must be positive"),
    (("lebesgue", Z2, "--cover", "slab", "--lambda-grid", "1", "--m", "-1"), 2,
     "m must be positive"),
])
def test_option_values_may_start_with_a_dash(argv, code, message, tmp_path, capsys):
    command, scenario, *rest = argv
    assert run_cli(command, scenario or _walk(tmp_path), *rest) == code
    captured = capsys.readouterr()
    assert message in (captured.err if code else captured.out)


def test_roundtrip_byte_identical():
    for path in (Z2, PATH):
        canon = canonicalize_file(path)
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == canon
        # reparse and re-serialize
        assert canonical_dumps(json.loads(canon)) == canon


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "klab.cli", "validate", Z2],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main parses with one parser per process; calls after the first give
    # the exit codes and output of fresh processes
    calls = [("nerve", Z2, "--cover", "longcover", "--lam", "1/2", "--horizon", "-3"),
             ("dslambda", Z2, "--action", "swap", "--lam", "-1/2", "--src", "0:p", "--dst", "1:p"),
             ("suite", Z2, "--golden", GOLDEN_Z2),
             ("dslambda", Z2, "--action", "swap", "--lam", "1/2", "--src", "0:p", "--dst", "1:p")]
    assert build_parser() is build_parser()
    got = []
    for argv in calls:
        code = run_cli(*argv)
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    assert [code for code, _, _ in got] == [2, 2, 0, 0]
    assert "the move horizon must not be negative" in got[0][2]
    assert "Lambda must be positive" in got[1][2]
    for argv, (code, out, err) in zip(calls, got):
        proc = subprocess.run([sys.executable, "-m", "klab.cli", *argv],
                              capture_output=True, text=True)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)


def test_parse_fraction_rejects_zero_denominator_and_junk():
    for text in ("1/0", "0/0", "abc", "1/", ""):
        with pytest.raises(InputError):
            parse_fraction(text)


def test_zero_denominator_distance_exit_two(tmp_path, capsys):
    doc = {"version": 1,
           "spaces": {"X": {"points": ["p", "q"], "distance": [[0, "1/0"], ["1/0", 0]]}}}
    path = tmp_path / "zero.json"
    path.write_text(canonical_dumps(doc))
    assert run_cli("validate", str(path)) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_dslambda_zero_denominator_lambda_exit_two(capsys):
    assert run_cli("dslambda", Z2, "--action", "swap", "--lam", "1/0",
                   "--src", "0:p", "--dst", "1:p") == 2


def test_scenario_not_an_object_exit_two(tmp_path, capsys):
    with pytest.raises(InputError):
        parse_scenario([1, 2])
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert run_cli("validate", str(path)) == 2


def test_point_without_colon_exit_two(capsys):
    assert run_cli("dslambda", Z2, "--action", "swap", "--lam", "1/2",
                   "--src", "0p", "--dst", "1:p") == 2
    assert "g:x" in capsys.readouterr().err


def test_suite_reports_horizon_as_truncated_skip(tmp_path, capsys):
    # |S| = 13 asks for S^13 orbits, past the orbit horizon of 12
    doc = {
        "version": 1,
        "groups": {"C": {"kind": "finite-table", "preset": "cyclic", "n": 13}},
        "spaces": {"X": {"points": ["a"], "distance": [[0]]}},
        "actions": {"all": {"group": "C", "space": "X", "s": list(range(13)),
                            "genuine": {str(k): {"a": "a"} for k in range(13)}}},
        "covers": {"U": {"action": "all", "group_window": [0],
                         "sets": {"U0": [[0, "a"]]}}},
    }
    path = tmp_path / "wide.json"
    path.write_text(canonical_dumps(doc))
    report = tmp_path / "report.json"
    assert run_cli("suite", str(path), "--json-out", str(report)) == 3
    got = json.loads(report.read_text())
    assert got["truncated"] is True
    case = next(c for c in got["cases"] if c["id"] == "cover:U:truncated")
    assert case["status"] == "skip" and "horizon-exceeded" in case["detail"]
    assert got["counts"]["fail"] == 0


# -- one load boundary, one exit-code map ----------------------------------------


def _mutated(tmp_path, edit, source=Z2):
    doc = json.loads(open(source, encoding="utf-8").read())
    edit(doc)
    path = tmp_path / "mutated.json"
    path.write_text(canonical_dumps(doc))
    return str(path)


def test_scenario_errors_name_section_and_entry(tmp_path, capsys):
    def ragged(doc):
        doc["spaces"]["X"]["distance"] = [[0, 1]]
    assert run_cli("validate", _mutated(tmp_path, ragged)) == 2
    assert "spaces.X: " in capsys.readouterr().err

    def missing(doc):
        del doc["actions"]["swap"]["s"]
    assert run_cli("validate", _mutated(tmp_path, missing)) == 2
    assert "actions.swap: missing 's'" in capsys.readouterr().err

    def misspelt(doc):  # used to report "missing 'table'"
        doc["groups"]["Z2"]["preset"] = "cyclc"
    assert run_cli("validate", _mutated(tmp_path, misspelt)) == 2
    assert "groups.Z2: unknown preset 'cyclc'" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["-1/2", 0])
def test_a_pipeline_lambda_that_is_not_positive_exits_two(lam, tmp_path, capsys):
    # before, "-1/2" read as a failed certificate (exit 1) and 0 certified (exit 0)
    def set_lambda(doc):
        for spec in doc["pipelines"].values():
            if spec["kind"] in ("transfer-k", "transfer-l"):
                spec["lambda"] = lam
    path = _mutated(tmp_path, set_lambda)
    for command in ("transfer-k", "transfer-l"):
        assert run_cli(command, path) == 2
        assert "Lambda must be positive" in capsys.readouterr().err


def test_unknown_name_is_an_input_error(capsys):
    assert run_cli("dslambda", Z2, "--action", "nope", "--lam", "1",
                   "--src", "0:p", "--dst", "1:p") == 2
    assert "no actions entry named 'nope'" in capsys.readouterr().err
    assert run_cli("transfer-k", Z2, "--pipeline", "nope") == 2
    assert run_cli("transfer-k", Z2, "--pipeline", "lpipe") == 2


def test_every_pipeline_kind_has_a_runner():
    import klab.cli
    import klab.scenario
    assert set(klab.cli.RUNNERS) == set(klab.scenario.PIPELINES)


def test_malformed_pipeline_is_exit_two_for_every_command(tmp_path, capsys):
    def zero(doc):
        doc["pipelines"]["kpipe"]["lambda"] = "1/0"
    path = _mutated(tmp_path, zero)
    for command in ("validate", "suite", "transfer-l", "signature"):
        assert run_cli(command, path) == 2
        assert "pipelines.kpipe: zero denominator" in capsys.readouterr().err

    def unknown(doc):
        doc["pipelines"]["kpipe"]["kind"] = "transfer-x"
    assert run_cli("suite", _mutated(tmp_path, unknown)) == 2


def test_transfers_without_a_point_action_are_input_errors(tmp_path, capsys):
    # the schema allows a chain action with no underlying point action
    def drop(doc):
        del doc["chain_actions"]["involution"]["action"]
    path = _mutated(tmp_path, drop)
    for command, name in (("transfer-l", "l_transfer"), ("transfer-k", "k_transfer")):
        assert run_cli(command, path) == 2
        assert f"input error: {name} needs the underlying point action" \
            in capsys.readouterr().err
    assert run_cli("suite", path) == 1
    out = capsys.readouterr().out
    assert "FAIL pipeline:kpipe:error" in out and "FAIL pipeline:lpipe:error" in out


def _swap_on_another_space(doc):
    # the same swap, on a copy Y of the space X
    doc["spaces"]["Y"] = {"points": ["u", "v"], "distance": [[0, 1], [1, 0]]}
    doc["actions"]["swapY"] = {"group": "Z2", "space": "Y", "s": [0, 1], "genuine": {
        "0": {"u": "u", "v": "v"}, "1": {"u": "v", "v": "u"}}}
    doc["chain_actions"]["involution"]["action"] = "swapY"


def _action_of_another_group(doc):
    # Z3 with S = {0, 1} lacks the product (1, 1, 0) of the chain action's S
    doc["groups"]["Z3"] = {"kind": "finite-table", "preset": "cyclic", "n": 3}
    doc["actions"]["rot"] = {"group": "Z3", "space": "X", "s": [0, 1], "genuine": {
        "0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"}}}
    doc["chain_actions"]["involution"]["action"] = "rot"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["complexes"]["P"]["positions"].update({"1": [None]}),
     "chain_actions.involution: complex positions must be points of the space"),
    (_swap_on_another_space,
     "chain_actions.involution: the point action must act on the chain action's space"),
    (_action_of_another_group,
     "chain_actions.involution: the point action must have every product"),
    (lambda doc: doc["covers"]["slab"]["sets"]["U"].append([0, "z"]),
     "covers.slab: cover members must be points"),
    (lambda doc: doc["covers"]["slab"]["name_action"].update({"1": {"U": "W"}}),
     "covers.slab: name_action must map set names to set names"),
    (lambda doc: doc["covers"]["longcover"]["name_action"].update({"1": {"W": "U1"}}),
     "covers.longcover: name_action must map set names to set names"),
], ids=["position-not-a-point", "action-on-another-space", "action-of-another-group",
        "member-not-a-point", "unknown-image", "unknown-source"])
def test_reference_checks_at_load(tmp_path, capsys, edit, message):
    path = _mutated(tmp_path, edit)
    assert run_cli("suite", path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["groups"]["Z2"].update({"n": 2.7}),
     "groups.Z2: expected integers, not 2.7"),
    (lambda doc: doc["spaces"]["X"].update({"points": "pq"}),
     "spaces.X: expected a list, not 'pq'"),
    (lambda doc: doc["actions"]["swap"].update({"s": [0, 1.5]}),
     "actions.swap: expected integers, not 1.5"),
    (lambda doc: doc["actions"]["swap"].update({"s": [0, True]}),
     "actions.swap: expected integers, not True"),
    (lambda doc: doc["covers"]["slab"]["sets"]["U"].__setitem__(0, "0p"),
     "covers.slab: expected a list, not '0p'"),
    (lambda doc: doc["complexes"]["P"]["positions"].update({"0": "pq"}),
     "complexes.P: expected a list, not 'pq'"),
], ids=["n-float", "points-string", "s-float", "s-bool", "member-string", "positions-string"])
def test_wrong_json_types_exit_two(tmp_path, capsys, edit, message):
    # int(), list() and tuple() used to coerce each of these into a scenario
    # that still matched the golden
    assert run_cli("suite", _mutated(tmp_path, edit), "--golden", GOLDEN_Z2) == 2
    assert message in capsys.readouterr().err


def _set(*keys, value):
    """An edit that sets ``doc[keys[0]]...[keys[-1]]`` to ``value``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def _both(*edits):
    def edit(doc):
        for one in edits:
            one(doc)
    return edit


@pytest.mark.parametrize("source, edit, command, message", [
    (Z2, _set("pipelines", "negation", "f", value={"degree": 1, "mats": {}}), ("torsion",),
     "pipelines.negation: chain map shape mismatch between the homotopy's endpoints"),
    (PATH, _both(_set("dominations", "coarsen", "into", value={"degree": 1, "mats": {}}),
                 _set("dominations", "coarsen", "homotopy", value={"mats": {}})),
     ("replace", "--domination", "coarsen"),
     "dominations.coarsen: chain map shape mismatch between the homotopy's endpoints"),
    (Z2, _set("complexes", "euler", "differentials", "1",
              value={"rows": 5, "cols": 7, "entries": []}), ("finobstr",),
     "complexes.euler: differential shape mismatch at degree 1"),
    (Z2, _set("complexes", "euler", "differentials", "9",
              value={"rows": 4, "cols": 4, "entries": []}), ("finobstr",),
     "complexes.euler: differential shape mismatch at degree 9"),
    (Z2, _set("forms", "unit", "gram", "entries", value=[[0, 0, 7], [0, 0, 1]]),
     ("signature", "--form", "unit"), "forms.unit: sparse matrix: entry [0, 0] is given twice"),
], ids=["homotopy-endpoints-of-two-degrees", "domination-into-of-degree-one",
        "zero-differential-of-another-shape", "zero-differential-at-an-absent-degree",
        "sparse-entry-given-twice"])
def test_misshaped_graded_data_fails_to_load(tmp_path, capsys, source, edit, command, message):
    # before, the first two ended in a ValueError traceback when the homotopy
    # was first checked, the zero blocks of the wrong shape loaded, and the
    # last of two entries at one position was kept (signature 1, exit 0)
    path = _mutated(tmp_path, edit, source)
    for argv in ((command[0], path, *command[1:]), ("suite", path)):
        assert run_cli(*argv) == 2
        assert f"input error: {message}" in capsys.readouterr().err


def test_the_f2_closure_of_a_large_elementary_abelian_isotropy_is_quick(tmp_path):
    # Z/2^5 fixing the one set of a one-point cover: its isotropy, the whole
    # group, has 31 subgroups of index 2, none trivial.  Walking the subsets
    # of the 32 cosets of its (trivial) square subgroup takes about 1.5 h.
    n = 32
    doc = {
        "version": 1,
        "groups": {"E": {"kind": "finite-table",
                         "table": [[a ^ b for b in range(n)] for a in range(n)]}},
        "spaces": {"X": {"points": ["p"], "distance": [[0]]}},
        "actions": {"fix": {"group": "E", "space": "X", "s": [0], "genuine": {"0": {"p": "p"}}}},
        "covers": {"all": {"action": "fix", "group_window": list(range(n)),
                           "sets": {"U": [[g, "p"] for g in range(n)]},
                           "name_action": {str(g): {"U": "U"} for g in range(n)}}},
    }
    path = tmp_path / "e32.json"
    path.write_text(canonical_dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "klab.cli", "suite", str(path),
                           "--family", "trivial-2"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL cover:all:axioms  (isotropy of U is not in the family)" in proc.stdout


# where z2.json keys an entry by an integer, and the key it uses there
INTEGER_KEYS = {
    "ranks": (("complexes", "P", "ranks"), "0"),
    "positions": (("complexes", "P", "positions"), "0"),
    "differentials": (("complexes", "P", "differentials"), "1"),
    "genuine": (("actions", "swap", "genuine"), "1"),
}


@pytest.mark.parametrize("site", sorted(INTEGER_KEYS))
@pytest.mark.parametrize("spell", [" {}".format, "+{}".format, "0_{}".format],
                         ids=["space", "plus", "underscore"])
def test_noncanonical_integer_keys_exit_two(tmp_path, capsys, site, spell):
    # int() reads " 0", "+1" and "0_0" as integers, so each of these used to
    # load and still match the golden
    path, key = INTEGER_KEYS[site]

    def respell(doc):
        keyed = doc
        for part in path:
            keyed = keyed[part]
        keyed[spell(key)] = keyed.pop(key)

    assert run_cli("suite", _mutated(tmp_path, respell), "--golden", GOLDEN_Z2) == 2
    assert f"integer key {spell(key)!r} is not written canonically" in capsys.readouterr().err


def test_canonical_integer_keys_load():
    doc = {
        "version": 1,
        "groups": {"Z2": {"kind": "free-abelian", "rank": 2}},
        "spaces": {"X": {"points": ["a"], "distance": [[0]]}},
        "actions": {"triv": {"group": "Z2", "space": "X", "s": [[0, 0], [1, -2], [-1, 2]],
                             "genuine": {"0,0": {"a": "a"}, "1,-2": {"a": "a"},
                                         "-1,2": {"a": "a"}}}},
        "complexes": {"C": {"ranks": {"-1": 1, "0": 1},
                            "differentials": {"0": [[2]]}}},
    }
    sc = parse_scenario(doc)
    assert sc.complexes["C"].ranks == {-1: 1, 0: 1}
    assert sc.complexes["C"].d(0) == IntMatrix.from_rows([[2]])
    for bad in ("1, -2", "1,-02", "+1,-2"):
        doc["actions"]["triv"]["genuine"][bad] = doc["actions"]["triv"]["genuine"].pop("1,-2")
        with pytest.raises(InputError, match="is not written canonically"):
            parse_scenario(doc)
        doc["actions"]["triv"]["genuine"]["1,-2"] = doc["actions"]["triv"]["genuine"].pop(bad)


def test_dslambda_negative_horizon_exit_two(capsys):
    assert run_cli("dslambda", Z2, "--action", "swap", "--lam", "1/2",
                   "--src", "0:p", "--dst", "1:p", "--horizon", "-1") == 2
    assert "move horizon" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("p2", Z2, "--space", "X", "--action", "swap", "--samples", "-5"), "sample count"),
    (("orbit", Z2, "--action", "swap", "--depth", "1", "--at", "0:p", "--horizon", "-3"),
     "unrecognized arguments: --horizon"),
    (("suite", Z2, "--horizon", "-1"), "unrecognized arguments: --horizon"),
    (("nerve", Z2, "--cover", "longcover", "--lam", "1/2", "--n", "-1"), "dimension bound"),
])
def test_negative_counts_are_usage_errors(argv, message, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


# the smallest valid call of each subcommand that reads none of --horizon,
# --seed and --samples, or (dslambda, lebesgue) reads --horizon alone
_BASE_CALLS = {
    "validate": (Z2,),
    "dslambda": (Z2, "--action", "swap", "--lam", "1/2", "--src", "0:p", "--dst", "1:p"),
    "orbit": (Z2, "--action", "swap", "--depth", "1", "--at", "0:p"),
    "lebesgue": (Z2, "--cover", "slab", "--lam", "1/2"),
    "replace": (PATH, "--domination", "coarsen"),
    "transfer-k": (Z2,),
    "transfer-l": (Z2,),
    "torsion": (Z2,),
    "signature": (Z2,),
    "finobstr": (Z2,),
    "suite": (Z2,),
}


@pytest.mark.parametrize("command", sorted(_BASE_CALLS))
def test_unread_options_are_not_declared(command, capsys):
    base = _BASE_CALLS[command]
    assert run_cli(command, *base) == 0
    removed = ("--seed", "--samples") if command in ("dslambda", "lebesgue") \
        else ("--seed", "--samples", "--horizon")
    capsys.readouterr()
    for option in removed:
        assert run_cli(command, *base, option, "1") == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {option}" in captured.err and captured.out == ""


def _cli_functions():
    with open(klab.cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _args_reads(name, functions, seen):
    """The ``args.<dest>`` reads of a cli function and of every cli function
    it passes ``args`` to."""
    if name in seen or name not in functions:
        return set()
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and any(
                isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            reads |= _args_reads(node.func.id, functions, seen)
    return reads


def test_every_declared_option_is_read():
    functions = _cli_functions()
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread, slots = {}, 0
    for command, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        slots += len(dests)
        reads = _args_reads(COMMANDS[command].__name__, functions, set()) \
            if command in COMMANDS else set()
        missing = dests - {"scenario", "json_out"} - reads
        if missing:
            unread[command] = sorted(missing)
    assert not unread
    assert slots == 62


def test_truncation_is_derived_from_the_cases():
    # an exit code of 3 comes from a case read off a truncated result or
    # table, never from a hand-set flag that one command can forget
    tree = ast.parse(open(klab.cli.__file__, encoding="utf-8").read())
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
    functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    functions += [(f"{c.name}.{fn.name}", fn) for c in classes.values()
                  for fn in c.body if isinstance(fn, ast.FunctionDef)]
    assert "Report.merge" not in dict(functions)
    setters = [name for name, fn in functions for node in ast.walk(fn)
               for target in getattr(node, "targets", [getattr(node, "target", None)])
               if isinstance(target, ast.Attribute) and target.attr == "truncated"]
    assert setters == ["Case.__init__"]


def test_lebesgue_takes_lam_or_grid(capsys):
    base = ("lebesgue", Z2, "--cover", "slab")
    assert run_cli(*base, "--lambda-grid", "1/2,1", "--m", "1") == 0
    capsys.readouterr()
    for extra, message in (((), "one of the arguments --lam --lambda-grid is required"),
                           (("--lam", "1/2", "--lambda-grid", "1/2"), "not allowed with"),
                           (("--lam", "1/2", "--m", "1"), "--m sets the target")):
        assert run_cli(*base, *extra) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_lebesgue_grid_search_reports_truncation(tmp_path, capsys):
    # Z acts on p, q at distance 1, the odd elements swapping them; the
    # horizon 1 table of every grid Lambda is truncated
    window = range(-2, 3)
    doc = {
        "version": 1,
        "groups": {"Z": {"kind": "free-abelian", "rank": 1}},
        "spaces": {"X": {"points": ["p", "q"], "distance": [[0, 1], [1, 0]]}},
        "actions": {"alt": {"group": "Z", "space": "X", "s": [[0], [1], [-1]],
                            "genuine": {"0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"},
                                        "-1": {"p": "q", "q": "p"}}}},
        "covers": {"c": {"action": "alt", "group_window": [[g] for g in window],
                         "sets": {"A": [[[g], "p"] for g in window],
                                  "B": [[[g], "q"] for g in window]},
                         "name_action": {str(g): {"A": "B", "B": "A"} if g % 2
                                         else {"A": "A", "B": "B"} for g in window}}},
    }
    path = tmp_path / "alternating.json"
    path.write_text(canonical_dumps(doc))
    assert run_cli("lebesgue", str(path), "--cover", "c", "--lam", "1/2", "--horizon", "1") == 3
    capsys.readouterr()
    assert run_cli("lebesgue", str(path), "--cover", "c", "--lambda-grid", "1/4,1/2",
                   "--m", "1", "--horizon", "1") == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "table is truncated at horizon 1" in captured.err


def test_p2_action_on_another_space_is_an_input_error(tmp_path, capsys):
    def swap_on_y(doc):
        doc["spaces"]["Y"] = {"points": ["u", "v"], "distance": [[0, 1], [1, 0]]}
        doc["actions"]["swapY"] = {"group": "Z2", "space": "Y", "s": [0, 1], "genuine": {
            "0": {"u": "u", "v": "v"}, "1": {"u": "v", "v": "u"}}}
    path = _mutated(tmp_path, swap_on_y)
    assert run_cli("p2", path, "--space", "Y", "--action", "swapY", "--lam", "1/2",
                   "--samples", "20") == 0
    capsys.readouterr()
    assert run_cli("p2", path, "--space", "X", "--action", "swapY", "--lam", "1/2",
                   "--samples", "20") == 2
    captured = capsys.readouterr()
    assert "'swapY'" in captured.err and "'X'" in captured.err and captured.out == ""


def test_canonicalize_missing_or_bad_file_exit_two(tmp_path, capsys):
    assert run_cli("canonicalize", str(tmp_path / "nope.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("canonicalize", str(bad)) == 2
    assert "is not a JSON file" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", '{"cases": [{"id": 1}]}'],
                         ids=["missing", "not-json", "not-an-object", "case-without-status"])
def test_suite_bad_golden_exit_two(tmp_path, capsys, content):
    golden = tmp_path / "golden.json"
    if content is not None:
        golden.write_text(content)
    assert run_cli("suite", Z2, "--golden", str(golden)) == 2
    assert "input error" in capsys.readouterr().err


def test_unwritable_json_out_exit_two(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    assert run_cli("validate", Z2, "--json-out", str(target)) == 2
    assert "input error" in capsys.readouterr().err


def test_diagnosed_error_outside_suite_exit_one(monkeypatch, capsys):
    import klab.cli
    from klab.errors import NotAnEquivalence

    def refuse(*parts):
        raise NotAnEquivalence("the retraction does not split")

    monkeypatch.setattr(klab.cli, "finite_replacement", refuse)
    assert run_cli("replace", PATH, "--domination", "coarsen") == 1
    assert "not-an-equivalence: the retraction does not split" in capsys.readouterr().err


def test_internal_error_is_not_an_input_error(monkeypatch):
    import klab.cli

    def bug(*parts):
        raise KeyError("internal")

    monkeypatch.setattr(klab.cli, "finite_replacement", bug)
    with pytest.raises(KeyError):
        run_cli("replace", PATH, "--domination", "coarsen")


# the mutation fuzzer: drop a key or list item, or put a junk value at a
# random JSON path of a shipped scenario, then run one command in-process
_SHIPPED = {name: json.loads(open(os.path.join(SCENARIOS, name + ".json"),
                                  encoding="utf-8").read())
            for name in ("z2", "z3", "path", "dihedral")}
_JUNK = [None, "x", -1, 1.5, True, [], {}, "1/0"]


def _json_paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_PATHS = {name: list(_json_paths(doc)) for name, doc in _SHIPPED.items()}


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_SHIPPED)), st.integers(0, 10 ** 6),
       st.sampled_from(["drop"] + _JUNK),
       st.sampled_from(["validate", "suite", "transfer-k", "transfer-l", "torsion"]))
def test_mutated_scenarios_never_raise(tmp_path, name, pick, junk, command):
    doc = copy.deepcopy(_SHIPPED[name])
    path = _PATHS[name][pick % len(_PATHS[name])]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if junk == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(junk)
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(command, str(target)) in (0, 1, 2, 3)


def _block(rows, cols):
    return {"rows": rows, "cols": cols, "entries": [[0, 0, 1]]}


@pytest.mark.parametrize("where, degree, block, message", [
    ("homotopies", "0", _block(5, 5), "homotopy shape mismatch at degree 0"),
    ("phi", "0", _block(3, 2), "chain map shape mismatch at degree 0"),
    ("phi", "7", _block(2, 2), "chain map shape mismatch at degree 7"),
    ("homotopies", "9", _block(1, 1), "homotopy shape mismatch at degree 9"),
])
def test_a_malformed_chain_action_block_names_its_degree(tmp_path, capsys, where, degree,
                                                         block, message):
    """A mis-shaped block of a chain action, inside its degrees or outside
    them, exits 2 and names the degree.  A ``phi`` block at degree 7 is
    refused when the chain map is built; the per-degree algebra refused it
    as ``shape mismatch in composite at degree 7`` when it first composed
    the map."""
    doc = copy.deepcopy(_SHIPPED["z2"])
    action = doc["chain_actions"]["involution"]
    (action["homotopies"]["0;1"] if where == "homotopies" else action["phi"]["1"])[
        "mats"][degree] = block
    target = tmp_path / "malformed.json"
    target.write_text(json.dumps(doc))
    assert run_cli("validate", str(target)) == 2
    err = capsys.readouterr().err
    assert f"input error: chain_actions.involution: {message}" in err, err
