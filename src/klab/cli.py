"""Command-line interface: per-operation subcommands over a loaded
scenario, suite orchestration with golden-file comparison, and reporting.

Exit codes, mapped in ``main`` alone: 0 success, 1 property violation or
another diagnosed error, 2 input error, 3 horizon truncation.  Reports
are emitted as human text on stdout and, with ``--json-out``, as machine
JSON with cases sorted by id.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import __version__
from .actions import (DSLambdaMetric, audit_nerve_contraction, check_f_cover,
                      lebesgue_number, lebesgue_lambda_search, nerve_map)
from .chaincore import finiteness_obstruction, self_torsion
from .errors import HorizonExceeded, InputError, KlabError
from .groups import FamilyPredicate, ball
from .ltheory import signature
from .p2 import omega_audit, p2_action, p2_metric
from .scenario import (SECTIONS, Scenario, canonical_dumps, canonicalize_file,
                       fraction_str, load_scenario, parse_fraction, parse_point,
                       read_report_cases)
from .transfer import (finite_replacement, k_transfer, l_transfer,
                       l_transfer_recovers_form, projected_torsion)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_TRUNCATED = 3


class Case:
    def __init__(self, id: str, status: str, detail: str = "", truncated: bool = False):
        self.id = id
        self.status = status  # pass / fail / skip
        self.detail = detail
        self.truncated = truncated  # read from a truncated result or table


class Report:
    def __init__(self, command: str):
        self.command = command
        self.cases: List[Case] = []

    @property
    def truncated(self) -> bool:
        """Derived, never assigned: whether any case is truncated."""
        return any(c.truncated for c in self.cases)

    def add(self, case_id: str, ok: bool, detail: str = "", truncated: bool = False) -> None:
        self.cases.append(Case(case_id, "pass" if ok else "fail", detail, truncated))

    def skip(self, case_id: str, detail: str = "", truncated: bool = False) -> None:
        self.cases.append(Case(case_id, "skip", detail, truncated))

    def exit_code(self) -> int:
        if any(c.status == "fail" for c in self.cases):
            return EXIT_VIOLATION
        if self.truncated:
            return EXIT_TRUNCATED
        return EXIT_OK

    def finish(self, args) -> int:
        self.cases.sort(key=lambda c: c.id)
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.cases:
            counts[c.status] += 1
            line = f"{c.status.upper():4s} {c.id}"
            if c.detail:
                line += f"  ({c.detail})"
            print(line)
        print(f"{self.command}: {counts['pass']} passed, {counts['fail']} failed, "
              f"{counts['skip']} skipped" + ("  [truncated]" if self.truncated else ""))
        if getattr(args, "json_out", None):
            payload = {
                "command": self.command,
                "version": __version__,
                "cases": [{"id": c.id, "status": c.status, "detail": c.detail}
                          for c in self.cases],
                "counts": counts,
                "truncated": self.truncated,
            }
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(canonical_dumps(payload))
        return self.exit_code()


def _family_from_name(name: str) -> FamilyPredicate:
    f2 = name.endswith("-2")
    base = name[:-2] if f2 else name
    return FamilyPredicate(base, f2)


# -- subcommand implementations -------------------------------------------------


def cmd_validate(scenario: Scenario, args) -> Report:
    # loading ran every structural validator and resolved every reference;
    # pipelines are reported by their own runs
    rep = Report("validate")
    for section in SECTIONS.keys() - {"pipelines"}:
        for name in getattr(scenario, section):
            rep.add(f"{section}:{name}:well-formed", True)
    return rep


def cmd_dslambda(scenario: Scenario, args) -> Report:
    rep = Report("dslambda")
    action = scenario.get("actions", args.action)
    lam = parse_fraction(args.lam)
    metric = DSLambdaMetric(action, lam, n_max=args.horizon)
    src = parse_point(action, args.src)
    dst = parse_point(action, args.dst)
    res = metric.distance(src, dst)
    value = "inf" if res.is_infinite() else fraction_str(res.value)
    if res.truncated:  # a cost found within the horizon only bounds the value above
        upper = "" if res.is_infinite() else f"; upper bound {value}"
        value = f">= {fraction_str(res.lower_bound)} [lower bound, truncated{upper}]"
    rep.add(f"dslambda:{args.action}", True,
            f"d({args.src},{args.dst}) " + (value if res.truncated else f"= {value}"),
            truncated=res.truncated)
    return rep


def cmd_orbit(scenario: Scenario, args) -> Report:
    rep = Report("orbit")
    action = scenario.get("actions", args.action)
    at = parse_point(action, args.at)
    orbit = action.s_orbit(args.depth, at)
    listing = sorted(f"{g}:{x}" for (g, x) in orbit)
    rep.add(f"orbit:{args.action}", True,
            f"|S^{args.depth}({args.at})| = {len(orbit)}: {', '.join(listing)}")
    return rep


def cmd_lebesgue(scenario: Scenario, args) -> Report:
    rep = Report("lebesgue")
    cover, action = scenario.get("covers", args.cover)
    if args.lambda_grid is None and args.m is not None:
        raise InputError("--m sets the target of the --lambda-grid search")
    if args.lambda_grid is not None:
        grid = [parse_fraction(v) for v in args.lambda_grid.split(",")]
        m = parse_fraction(args.m) if args.m is not None else Fraction(len(action.S))
        lam, results = lebesgue_lambda_search(action, cover, m, grid, args.horizon)
        detail = ", ".join(f"L({fraction_str(k)})="
                           + ("inf" if v is None else str(fraction_str(v)))
                           for k, v in results.items())
        rep.add(f"lebesgue:{args.cover}:search", lam is not None,
                f"first Lambda with number >= {fraction_str(m)}/2: "
                + (str(fraction_str(lam)) if lam is not None else "none") + f"; {detail}")
    else:
        lam = parse_fraction(args.lam)
        table = DSLambdaMetric(action, lam, args.horizon).table(list(cover.carrier))
        number = lebesgue_number(cover, table)
        rep.add(f"lebesgue:{args.cover}", True,
                "number = " + ("inf" if number is None else str(fraction_str(number))),
                truncated=table.truncated)
    return rep


def cmd_nerve(scenario: Scenario, args) -> Report:
    rep = Report("nerve")
    cover, action = scenario.get("covers", args.cover)
    _run_cover(rep, f"nerve:{args.cover}:f-cover", _family_from_name(args.family),
               cover, action, N=args.n)
    lam = parse_fraction(args.lam)
    table = DSLambdaMetric(action, lam, args.horizon).table(list(cover.carrier))
    nerve, images = nerve_map(cover, table)
    rep.add(f"nerve:{args.cover}:map", True,
            f"nerve dim {nerve.dimension()}, {len(images)} points placed",
            truncated=table.truncated)
    if args.audit_d:
        rng = random.Random(args.seed)
        pairs = [(rng.choice(cover.carrier), rng.choice(cover.carrier))
                 for _ in range(args.samples)]
        audit = audit_nerve_contraction(cover, table, args.n,
                                        parse_fraction(args.audit_d), pairs)
        rep.add(f"nerve:{args.cover}:contraction", audit.ok(),
                f"checked {audit.checked}, shared {audit.shared_simplex}, "
                f"disjoint {audit.disjoint_support}", truncated=table.truncated)
    return rep


def cmd_p2(scenario: Scenario, args) -> Report:
    rep = Report("p2")
    space = scenario.get("spaces", args.space)
    pair_space = p2_metric(space)
    rep.add(f"p2:{args.space}:metric", True,
            f"{len(pair_space.points)} unordered pairs, axioms verified")
    if args.action:
        action = scenario.get("actions", args.action)
        if action.space is not space:
            raise InputError(f"action {args.action!r} does not act on space {args.space!r}")
        induced = p2_action(action)
        rep.add(f"p2:{args.action}:induced-action", True,
                f"induced action on {len(induced.space.points)} pairs validated")
        rng = random.Random(args.seed)
        pair_pts = induced.space.points
        window, named = action.backend.elements(), ""
        if window is None:  # an infinite group: products of at most two letters of S u S^-1
            window = list(ball(action.backend, action.S, 1))
            named = f"; window: radius-1 ball, {len(window)} elements"
        samples = [((rng.choice(window), rng.choice(pair_pts)),
                    (rng.choice(window), rng.choice(pair_pts)))
                   for _ in range(args.samples)]
        audit = omega_audit(action, parse_fraction(args.lam), samples,
                            n_max=args.horizon)
        # the audit skips a sample only for a truncated distance
        rep.add(f"p2:{args.action}:omega", audit.ok(),
                f"checked {audit.checked}, skipped {audit.skipped}" + named,
                truncated=audit.skipped > 0)
    return rep


def cmd_replace(scenario: Scenario, args) -> Report:
    rep = Report("replace")
    _run_replace(rep, args.domination, *scenario.get("dominations", args.domination))
    return rep


def _run_replace(rep: Report, name: str, C, D, i, r, h) -> None:
    for cname, ok in finite_replacement(C, D, i, r, h).checks:
        rep.add(f"replace:{name}:{cname}", ok)


def _run_transfer_k(rep: Report, name: str, chain, alpha, alpha_inv, lam) -> None:
    result = k_transfer(alpha, alpha_inv, chain, lam)
    rep.add(f"transfer-k:{name}:certified", result.certified(),
            f"bound {fraction_str(result.certificate.bound)} <= "
            f"{fraction_str(result.target_bound)}")
    if chain.backend.kind == "finite-table":
        tors_det, alpha_det = projected_torsion(result).det(), alpha.det()
        rep.add(f"transfer-k:{name}:projection-torsion", tors_det == alpha_det,
                f"det {tors_det} vs alpha det {alpha_det}")


def _run_transfer_l(rep: Report, name: str, chain, alpha, lam) -> None:
    result = l_transfer(alpha, chain, lam)
    for cname, ok in result.data.checks + result.checks:
        rep.add(f"transfer-l:{name}:{cname}", ok)
    rep.add(f"transfer-l:{name}:certified", result.certified(),
            f"bound {fraction_str(result.certificate.bound)} <= "
            f"{fraction_str(result.target_bound)}")
    if chain.point_equivalence is not None:
        rep.add(f"transfer-l:{name}:recovers-form",
                l_transfer_recovers_form(result, alpha))


def _run_torsion(rep: Report, name: str, f, g, h, k) -> None:
    rep.add(f"torsion:{name}", True, f"det sign {self_torsion(f, g, h, k).det_sign()}")


# pipeline kind -> runner over the parts ``klab.scenario.PIPELINES`` resolves
RUNNERS = {
    "transfer-k": _run_transfer_k,
    "transfer-l": _run_transfer_l,
    "torsion": _run_torsion,
    "replace": _run_replace,
}


def cmd_pipeline(scenario: Scenario, args) -> Report:
    kind = args.command
    rep = Report(kind)
    names = [args.pipeline] if args.pipeline else [
        n for n, (k, _) in scenario.pipelines.items() if k == kind]
    if not names:
        raise InputError(f"no {kind} pipelines in the scenario")
    for name in names:
        k, parts = scenario.get("pipelines", name)
        if k != kind:
            raise InputError(f"pipeline {name!r} has kind {k!r}")
        RUNNERS[kind](rep, name, *parts)
    return rep


def _cmd_entries(scenario: Scenario, command: str, section: str, name: Optional[str],
                 runner) -> Report:
    """``runner`` on the named entry of ``section``, or on each in name order."""
    rep = Report(command)
    for n in [name] if name else sorted(getattr(scenario, section)):
        runner(rep, n, scenario.get(section, n))
    return rep


def cmd_signature(scenario: Scenario, args) -> Report:
    return _cmd_entries(scenario, "signature", "forms", args.form, _run_signature)


def _run_signature(rep: Report, name: str, form) -> None:
    try:
        rep.add(f"signature:{name}", True, f"signature = {signature(form)}")
    except KlabError as exc:
        rep.add(f"signature:{name}", False, str(exc))


def cmd_finobstr(scenario: Scenario, args) -> Report:
    return _cmd_entries(scenario, "finobstr", "complexes", args.complex, _run_finobstr)


def _run_finobstr(rep: Report, name: str, c) -> None:
    rank = finiteness_obstruction(c).reduced_rank()
    rep.add(f"finobstr:{name}", True, f"reduced rank = {rank}")


def _run_cover(rep: Report, case_id: str, family: FamilyPredicate, cover, action,
               N: Optional[int] = None) -> None:
    fc = check_f_cover(cover, family, action.backend, action, N=N)
    rep.add(case_id, fc.ok(),
            "; ".join(fc.violations + fc.s_long_failures) or f"dim {fc.dimension}")


# -- suite ------------------------------------------------------------------------


def _job(runner, *parts) -> Callable[[], Report]:
    def job() -> Report:
        rep = Report("suite")
        runner(rep, *parts)
        return rep
    return job


def _suite_jobs(sc: Scenario, args) -> List[Tuple[str, Callable[[], Report]]]:
    family = _family_from_name(args.family)  # an unknown family fails the command, not a case
    return ([("validate", lambda: cmd_validate(sc, args))]
            + [(f"form:{n}", _job(_run_signature, n, f)) for n, f in sorted(sc.forms.items())]
            + [(f"complex:{n}", _job(_run_finobstr, n, c))
               for n, c in sorted(sc.complexes.items())]
            + [(f"domination:{n}", _job(_run_replace, n, *d))
               for n, d in sorted(sc.dominations.items())]
            + [(f"cover:{n}", _job(_run_cover, f"cover:{n}:axioms", family, *c))
               for n, c in sorted(sc.covers.items())]
            + [(f"pipeline:{n}", _job(RUNNERS[k], n, *p))
               for n, (k, p) in sorted(sc.pipelines.items())])


def cmd_suite(scenario: Scenario, args) -> Report:
    rep = Report("suite")
    jobs = _suite_jobs(scenario, args)

    for name, fn in jobs:
        try:
            rep.cases.extend(fn().cases)
        except HorizonExceeded as exc:
            rep.skip(f"{name}:truncated", f"{exc.code}: {exc}", truncated=True)
        except KlabError as exc:
            rep.add(f"{name}:error", False, f"{exc.code}: {exc}")
    if args.golden:
        got = {c.id: (c.status, c.detail) for c in rep.cases}
        want = read_report_cases(args.golden)
        rep.add("suite:golden-match", got == want,
                "" if got == want else "case statuses or details differ from the golden file")
    return rep


# -- argument parsing ---------------------------------------------------------------


def _nonnegative(what: str):
    """argparse type for a count: an int, and a negative one is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must not be negative")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """klab's parser, built on the first call and shared by every later one
    in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="klab",
        description="Exact checks for controlled chain algebra, homotopy-action "
                    "metrics, and K-/L-transfers at desk scale.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--json-out", help="write the machine report here")
        return p

    def horizon(p):
        p.add_argument("--horizon", type=_nonnegative("the move horizon"), default=6,
                       help="move horizon for d_{S,Lambda}")
        return p

    def sampled(p):
        p.add_argument("--seed", type=int, default=0, help="seed for sampled audits")
        p.add_argument("--samples", type=_nonnegative("the sample count"), default=200,
                       help="sample count for randomized audits")
        return horizon(p)

    common(sub.add_parser("validate", help="parse and validate every section"))

    p = horizon(common(sub.add_parser("dslambda", help="evaluate the quasi-metric")))
    p.add_argument("--action", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--src", required=True, metavar="g:x")
    p.add_argument("--dst", required=True, metavar="g:x")

    p = common(sub.add_parser("orbit", help="enumerate S^n(g,x)"))
    p.add_argument("--action", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--at", required=True, metavar="g:x")

    p = horizon(common(sub.add_parser("lebesgue", help="Lebesgue number of a cover")))
    p.add_argument("--cover", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--lam")
    which.add_argument("--lambda-grid", dest="lambda_grid",
                       help="comma-separated Lambda grid for the search variant")
    p.add_argument("--m", help="target 2*Lebesgue bound of the grid search (default |S|)")

    p = sampled(common(sub.add_parser("nerve", help="nerve map and contraction audit")))
    p.add_argument("--cover", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--family", default="virtually-cyclic")
    p.add_argument("--n", type=_nonnegative("the dimension bound"), default=2,
                   help="dimension bound N")
    p.add_argument("--audit-d", dest="audit_d",
                   help="Lebesgue D for the 16N^2/D contraction audit")

    p = sampled(common(sub.add_parser("p2", help="unordered pairs: metric, action, omega")))
    p.add_argument("--space", required=True)
    p.add_argument("--action")
    p.add_argument("--lam", default="1")

    p = common(sub.add_parser("replace", help="finite replacement identities"))
    p.add_argument("--domination", required=True)

    for kind in ("transfer-k", "transfer-l", "torsion"):
        p = common(sub.add_parser(kind, help=f"run {kind} pipelines"))
        p.add_argument("--pipeline", help="pipeline name (default: all of this kind)")

    p = common(sub.add_parser("signature", help="signature of symmetric forms"))
    p.add_argument("--form")

    p = common(sub.add_parser("finobstr", help="finiteness obstruction ranks"))
    p.add_argument("--complex")

    p = common(sub.add_parser("suite", help="run every check in the scenario"))
    p.add_argument("--golden", help="golden report to compare against")
    p.add_argument("--family", default="virtually-cyclic")

    p = sub.add_parser("canonicalize", help="print the canonical serialization")
    p.add_argument("scenario")
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "dslambda": cmd_dslambda,
    "orbit": cmd_orbit,
    "lebesgue": cmd_lebesgue,
    "nerve": cmd_nerve,
    "p2": cmd_p2,
    "replace": cmd_replace,
    "transfer-k": cmd_pipeline,
    "transfer-l": cmd_pipeline,
    "torsion": cmd_pipeline,
    "signature": cmd_signature,
    "finobstr": cmd_finobstr,
    "suite": cmd_suite,
}


def _join_dashed_values(argv: List[str]) -> List[str]:
    """``--lam -1/2`` as ``--lam=-1/2``: argparse reads a value that starts
    with ``-`` as an option unless it is a plain number, and no klab option
    starts with ``-`` and a digit, so klab's own parsing judges the value."""
    out: List[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2 and "=" not in out[-1]
                and arg[:1] == "-" and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_dashed_values(argv))
    except SystemExit as exc:  # argparse has printed the usage error, help or version
        return exc.code
    try:
        if args.command == "canonicalize":
            sys.stdout.write(canonicalize_file(args.scenario))
            return EXIT_OK
        return COMMANDS[args.command](load_scenario(args.scenario), args).finish(args)
    except HorizonExceeded as exc:
        print(f"horizon truncation: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KlabError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
