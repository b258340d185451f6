"""The benchmark's three workloads.

Each workload turns ``(seed, index, round)`` into the inputs of one check
(``make``): sizes from the index, entries drawn afresh from all three,
and every object new, so no check shares an object with another.  It
runs the check's public klab calls (``call``, the only timed part) and
turns the result into exact output strings plus a pass/fail verdict
(``outputs``).  Calls go through module attributes
(``p2.omega_audit``, not a local name) so the tracer's patches apply.

Why these three:

* ``omega`` -- ``p2.omega_audit`` batches of 5 pairs.  Each call builds
  two ``DSLambdaMetric``s and sends them ~25 ``distance`` queries from few
  distinct sources, so ``actions`` does nearly all the work and a
  per-source search memo shows here.  ``intmat``/``chaincore`` unused.
  The exact output is every distance the audit compares, recomputed
  outside the timer with fresh metrics.
* ``chain`` -- random complexes with the Koszul sign identities, the
  Lemma-A endpoint and self-torsion.  ``intmat``, ``chaincore`` and
  ``ltheory`` do all the work and ``actions`` none.
* ``pipeline`` -- one fresh instance of every transfer pipeline per check
  plus a one-shot ``DSLambdaMetric.table`` with one carrier point per
  space point (one search per distinct source, so a distance memo cannot
  help), with cover checks and in-process ``klab suite`` runs at a fixed
  rate.  Those extras build tables whose carriers repeat points, so the
  workload's measured table reuse is a little above 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from klab import (actions, chaincore, cli, control, fixtures, gring, groups, intmat,
                  ltheory, p2, transfer)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "src", "klab", "scenarios")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def check_rng(seed: int, index: int, round_: int) -> random.Random:
    """Independent stream per check and round, so check ``i`` of round
    ``r`` is the same however many checks a run completes, and each round
    draws its entries afresh."""
    return random.Random(f"{seed}:{round_}:{index}")


def shape_rng(index: int) -> random.Random:
    """Sizes come from the check index alone and entries from the seed, so
    every seed runs the same mix of input sizes and a run's total work
    does not drift with the seed."""
    return random.Random(-1 - index)


def frac(v) -> str:
    return "inf" if v is None else str(v)


def matrix_key(m) -> str:
    return f"{m.rows}x{m.cols}:{sorted(m.entries.items())}"


def letters_key(letters) -> str:
    """Canonical text of letter-indexed chain maps ``{letter: ChainMap}``."""
    parts = []
    for a in sorted(letters, key=repr):
        mats = letters[a].mats
        parts.append(f"{a!r}:" + ",".join(f"{n}={matrix_key(mats[n])}" for n in sorted(mats)))
    return ";".join(parts)


# -- omega -------------------------------------------------------------------


def _omega_actions():
    """Builders of the six criterion-4 actions, the non-strict one with a
    wandering coherence homotopy sixth, then ``dihedral_action(3|4)``."""
    HSA, CS = actions.HomotopySAction, control.ControlSpace
    FS, FT = groups.FiniteSubset, groups.FiniteTableGroup

    def trivial_path3():
        triv, line = FT.cyclic(1), CS.path(3)
        return HSA.from_genuine(triv, line, FS.of(triv, [0]), {0: {p: p for p in line.points}})

    def flip_path4():
        z2, line4 = FT.cyclic(2), CS.path(4)
        flip = {f"p{i}": f"p{3 - i}" for i in range(4)}
        return HSA.from_genuine(z2, line4, FS.of(z2, [0, 1]),
                                {0: {p: p for p in line4.points}, 1: flip})

    def cyclic(order):
        g = FT.cyclic(order)
        pts = [f"x{i}" for i in range(order)]
        dist = {(a, b): Fraction(0) if a == b else Fraction(1) for a in pts for b in pts}
        rot = {k: {pts[i]: pts[(i + k) % order] for i in range(order)} for k in range(order)}
        return HSA.from_genuine(g, CS(pts, dist), FS.of(g, [0, 1]), rot)

    def wandering_path5():
        z2, line5 = FT.cyclic(2), CS.path(5)
        pts5 = tuple(line5.points)
        flip5 = tuple(f"p{4 - i}" for i in range(5))
        double5 = tuple(f"p{min(2 * i, 4)}" for i in range(5))
        return HSA(z2, line5, FS.of(z2, [0, 1]), {0: pts5, 1: flip5},
                   {(0, 0): (pts5,), (0, 1): (flip5, double5, flip5),
                    (1, 0): (flip5,), (1, 1): (pts5,)})

    return [("swap", fixtures.z2_swap_action), ("trivial-path3", trivial_path3),
            ("flip-path4", flip_path4), ("cyclic3", lambda: cyclic(3)),
            ("cyclic4", lambda: cyclic(4)), ("wandering-path5", wandering_path5),
            ("dihedral3", lambda: fixtures.dihedral_action(3)),
            ("dihedral4", lambda: fixtures.dihedral_action(4))]


def result_key(r) -> str:
    """A distance with its truncation flag and certified bound."""
    return f"{frac(r.value)}{'~' if r.truncated else ''}@{r.lower_bound}"


class Omega:
    name = "omega"
    # Seven slots, the last alternating dihedral_action(3) and (4), each
    # slot once with Lambda = 1/2 and once with 1.  Latencies cluster by
    # (action, Lambda); in this mix the median falls inside the cyclic3
    # cluster and p90 inside the wandering-path5 one, not on a gap.
    cycle = 28
    checks = 112
    batch = 5
    n_max = 4

    def __init__(self):
        self.builders = _omega_actions()

    def make(self, seed: int, index: int, round_: int = 0):
        slot = index % 7
        if slot == 6:
            slot = 6 + (index // 7) % 2
        name, build = self.builders[slot]
        act = build()  # fresh per check, so no call sees another's objects
        pair_points = p2.p2_points(act.space)
        rng = check_rng(seed, index, round_)
        window = act.backend.elements()
        samples = [((rng.choice(window), rng.choice(pair_points)),
                    (rng.choice(window), rng.choice(pair_points))) for _ in range(self.batch)]
        return name, act, Fraction(1 + (index // 14) % 2, 2), samples

    def call(self, inputs):
        _, act, lam, samples = inputs
        return p2.omega_audit(act, lam, samples, n_max=self.n_max)

    def outputs(self, inputs, audit):
        """The audit's counts plus, per sample, the pair distance and the
        four leg distances it compares, from fresh metrics."""
        name, act, lam, samples = inputs
        metric_x = actions.DSLambdaMetric(act, lam, self.n_max)
        metric_p2 = actions.DSLambdaMetric(p2.p2_action(act), lam, self.n_max)
        out = [name, frac(lam), str(audit.checked), str(audit.skipped), *audit.counterexamples]
        for (g, pair), (h, pairp) in samples:
            pair, pairp = p2.unordered_pair(*pair), p2.unordered_pair(*pairp)
            legs = [metric_x.distance((g, a), (h, b))
                    for a, b in ((pair[0], pairp[0]), (pair[1], pairp[1]),
                                 (pair[0], pairp[1]), (pair[1], pairp[0]))]
            rhs = metric_p2.distance((g, pair), (h, pairp))
            out.append(" ".join(result_key(r) for r in [rhs] + legs))
        return audit.ok(), out


# -- chain -------------------------------------------------------------------


def cheap_chain_map(rng, C, D, degree=0):
    """``d xi + (-1)^k xi d`` is a chain map for every graded ``xi``."""
    IntMatrix = intmat.IntMatrix
    xi = {n: fixtures.rand_matrix(rng, D.rank(n + degree + 1), C.rank(n), 0.4, -1, 1)
          for n in C.ranks}
    mats = {}
    for n in C.ranks:
        m = D.d(n + degree + 1) @ xi.get(n, IntMatrix.zeros(D.rank(n + degree + 1), C.rank(n)))
        prev = xi.get(n - 1)
        if prev is not None:
            m = m + (prev @ C.d(n)).scale(intmat.sign(degree))
        mats[n] = m
    return chaincore.ChainMap(C, D, degree, mats, check=False)


def shaped_complex(shape: random.Random, rng: random.Random, max_len: int,
                   max_rank: int):
    """``fixtures.rand_complex`` with its degrees and ranks drawn from
    ``shape`` and its differentials (by the same rejection) from ``rng``."""
    lo = shape.randint(-1, 0)
    ranks = {lo + i: shape.randint(1, max_rank) for i in range(shape.randint(1, max_len))}
    diff, prev = {}, None
    for n in sorted(ranks)[1:]:
        for _ in range(80):
            cand = fixtures.rand_matrix(rng, ranks[n - 1], ranks[n], density=0.5, lo=-1, hi=1)
            if prev is None or (prev @ cand).is_zero():
                break
        else:
            cand = intmat.IntMatrix.zeros(ranks[n - 1], ranks[n])
        diff[n] = prev = cand
    return chaincore.ChainComplex(ranks, diff)


class Chain:
    name = "chain"
    cycle = 20
    checks = 100

    def make(self, seed: int, index: int, round_: int = 0):
        shape, rng = shape_rng(index), check_rng(seed, index, round_)
        C = shaped_complex(shape, rng, 4, 4)
        D = shaped_complex(shape, rng, 4, 4)
        f = cheap_chain_map(rng, C, D, 0)
        g = cheap_chain_map(rng, D, C, shape.choice([0, 1]))
        lemma = shaped_complex(shape, rng, 4, 3)
        junk = fixtures.junk_equivalence(rng)
        return C, D, f, g, lemma, junk

    def call(self, inputs):
        C, D, f, g, lemma, (JC, JD, proj, incl, h, k) = inputs
        cc = chaincore
        cc.dual_complex(C).validate()
        T = cc.tensor_complex(C, D)
        T.validate()
        cc.flip_map(C, D).validate()
        f.validate()
        cc.cone(f).validate()
        iota = cc.iota
        double_dual = cc.dual_map(cc.dual_map(f)).compose(iota(C)) == iota(D).compose(f)
        lhs = cc.mu_map(C, D).compose(cc.tensor_map(cc.dual_map(f), cc.dual_map(g)))
        rhs = cc.dual_map(cc.tensor_map(f, g)).compose(cc.mu_map(D, C))
        report = ltheory.lemmaA_check(lemma)
        ident_c, ident_d = cc.ChainMap.identity(JC), cc.ChainMap.identity(JD)
        u, w = incl.compose(proj), proj.compose(incl)
        t1 = cc.self_torsion(u, ident_c, cc.ChainHomotopy(u, ident_c, dict(h.mats)),
                             cc.ChainHomotopy(u, ident_c, dict(h.mats))).det_sign()
        t2 = cc.self_torsion(w, ident_d, cc.ChainHomotopy(w, ident_d, dict(k.mats)),
                             cc.ChainHomotopy(w, ident_d, dict(k.mats))).det_sign()
        return T, double_dual, lhs, lhs == rhs, report, t1, t2

    def outputs(self, inputs, result):
        C, D, f, g, lemma, _ = inputs
        T, double_dual, lhs, koszul, rep, t1, t2 = result
        ok = double_dual and koszul and rep.ok() and t1 == t2
        return ok, [str(sorted(C.ranks.items())), str(sorted(D.ranks.items())),
                    f"deg g {g.degree}", str(sorted(T.ranks.items())),
                    "tensor d " + ",".join(matrix_key(T.d(n)) for n in sorted(T.ranks)),
                    "mu(f* x g*) " + ",".join(f"{n}={matrix_key(lhs.mats[n])}"
                                              for n in sorted(lhs.mats)),
                    f"double-dual {double_dual}", f"koszul {koszul}",
                    f"lemmaA sig {rep.signature} chi {rep.euler} "
                    f"sym {rep.psi_symmetric} inv {rep.psi_invertible}",
                    f"torsion {t1} {t2}"]


# -- pipeline ----------------------------------------------------------------


SCENARIOS = ("z2", "z3", "path", "dihedral")
LAMBDA_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1))


class Pipeline:
    name = "pipeline"
    # every 16th check carries one extra: a cover check on dihedral_cover(3..6)
    # or a `klab suite` run on one shipped scenario, alternating, so one
    # cycle holds each of the eight extras once.  At this rate the extras
    # (4-100 ms each) fill the top 6% of latencies and p90 falls among
    # the instances, not on a gap between two extras.
    cycle = 128
    checks = 128

    def __init__(self):
        self.goldens = {}
        for name in SCENARIOS:
            with open(os.path.join(SCENARIO_DIR, "golden", name + ".json"), encoding="utf-8") as fh:
                self.goldens[name] = json.load(fh)

    def make(self, seed: int, index: int, round_: int = 0):
        rng = check_rng(seed, index, round_)
        z2 = groups.FiniteTableGroup.cyclic(2)
        module = transfer.group_module
        rand = fixtures.rand_matrix
        pcx = fixtures.z2_nontrivial_chain_fixture(rng)
        EM = control.EquivariantMorphism
        psi = EM(z2, module(2), module(2), {g: rand(rng, 2, 2) for g in (0, 1)})
        psi2 = EM(z2, module(2), module(2), {g: rand(rng, 2, 2) for g in (0, 1)})
        c, d = rng.randint(-2, 2), rng.randint(-2, 2)
        rows = intmat.IntMatrix.from_rows
        quad = EM(z2, module(2), module(2), {0: rows([[0, 1 + c], [-c, 0]]),
                                             1: rows([[0, d], [-d, 0]])})
        # a unit +-e or +-s of Z[C2], which is its own inverse
        unit = {rng.randrange(2): rows([[rng.choice((-1, 1))]])}
        alpha = EM(z2, module(1), module(1), dict(unit))
        alpha_inv = EM(z2, module(1), module(1), dict(unit))
        shape = shape_rng(index)
        domination = fixtures.domination_instance(rng, shape.randint(0, 2))
        order = shape.choice([2, 3, 4])
        cyc = groups.FiniteTableGroup.cyclic(order)
        pts = [f"x{i}" for i in range(order)]
        scale = Fraction(shape.randint(1, 3))
        dist = {(a, b): (Fraction(0) if a == b else scale) for a in pts for b in pts}
        rot = {k: {pts[i]: pts[(i + k) % order] for i in range(order)} for k in range(order)}
        act = actions.HomotopySAction.from_genuine(
            cyc, control.ControlSpace(pts, dist), groups.FiniteSubset.of(cyc, [0, 1]), rot)
        table_lam = Fraction(shape.randint(1, 4), shape.randint(1, 4))
        # one carrier point per orbit point: the search depends only on it
        carrier = [(rng.randrange(order), x) for x in pts]
        extra = None
        if index % 16 == 15:
            turn = index // 16
            if turn % 2 == 0:
                extra = ("cover", fixtures.dihedral_cover(3 + (turn // 2) % 4))
            else:
                extra = ("suite", SCENARIOS[(turn // 2) % 4])
        return (pcx, psi, psi2, quad, alpha, alpha_inv, domination,
                act, table_lam, carrier, extra)

    def call(self, inputs):
        (pcx, psi, psi2, quad, alpha, alpha_inv, domination,
         act, table_lam, carrier, extra) = inputs
        half = Fraction(1, 2)
        witness = transfer.functoriality_witness(psi2, psi, pcx)
        lres = transfer.l_transfer(quad, pcx, half)
        kres = transfer.k_transfer(alpha, alpha_inv, pcx, half)
        torsion = transfer.projected_torsion(kres).det()
        replacement = transfer.finite_replacement(*domination)
        table = actions.DSLambdaMetric(act, table_lam, n_max=3).table(carrier)
        extra_result = None
        if extra is not None:
            kind, arg = extra
            if kind == "cover":
                dact, cover = arg
                fc = actions.check_f_cover(cover, groups.FamilyPredicate("virtually-cyclic"),
                                           dact.backend, dact)
                extra_result = fc, actions.lebesgue_lambda_search(
                    dact, cover, half, LAMBDA_GRID, 4)
            else:
                out = os.path.join(OUT_DIR, f"suite-{arg}.json")
                with contextlib.redirect_stdout(io.StringIO()):
                    extra_result = cli.main(["suite", os.path.join(SCENARIO_DIR, arg + ".json"),
                                             "--json-out", out])
        return witness, lres, kres, torsion, replacement, table, extra_result

    def outputs(self, inputs, result):
        alpha, extra = inputs[4], inputs[10]
        witness, lres, kres, torsion, replacement, table, extra_result = result
        gr = gring.GRMatrix(alpha.backend, 1, 1, dict(alpha.letters)).det()
        checks = [
            ("l-transfer", lres.ok() and lres.certified()),
            ("k-transfer", kres.certified()),
            ("k-torsion", torsion == gr),
            ("replacement", replacement.ok()),
            ("table-axioms", table_axioms_hold(table)),
        ]
        out = [f"witness {letters_key(witness.letters)}",
               f"l checks {lres.checks} bound {lres.certificate.bound} <= {lres.target_bound} "
               f"pieces {sorted((k, str(v)) for k, v in lres.certificate.pieces.items())}",
               f"k bound {kres.certificate.bound} <= {kres.target_bound} torsion {sorted(torsion.items())}",
               f"replacement {replacement.checks} ranks {sorted(replacement.P.ranks.items())}",
               f"table truncated {table.truncated} "
               + " ".join(frac(table.values[key]) for key in sorted(table.values))]
        if extra is not None:
            kind, arg = extra
            if kind == "cover":
                fc, (lam, numbers) = extra_result
                checks.append(("cover", fc.ok()))
                out.append(f"cover {len(arg[1].carrier)} dim {fc.dimension} s-long "
                           f"{fc.s_long_checked} skipped {fc.skipped} lam {frac(lam)} "
                           f"numbers {sorted((str(k), frac(v)) for k, v in numbers.items())}")
            else:
                with open(os.path.join(OUT_DIR, f"suite-{arg}.json"), encoding="utf-8") as fh:
                    got = json.load(fh)
                want = self.goldens[arg]
                # status and detail both, unlike `suite --golden`
                same = (got["cases"] == want["cases"] and got["truncated"] == want["truncated"])
                checks.append(("suite", extra_result == 0 and same))
                out.append(f"suite {arg} exit {extra_result} golden-match {same}")
        out.append(" ".join(f"{name}={okay}" for name, okay in checks))
        return all(okay for _, okay in checks), out


def table_axioms_hold(table) -> bool:
    """Zero diagonal, symmetry and the triangle inequality on finite values."""
    values = table.values
    n = len(table.carrier)
    for i in range(n):
        if values[(i, i)] != 0:
            return False
        for j in range(n):
            a = values[(i, j)]
            if a != values[(j, i)]:
                return False
            if a is None:
                continue
            for k in range(n):
                b, c = values[(j, k)], values[(i, k)]
                if b is not None and (c is None or c > a + b):
                    return False
    return True


WORKLOADS = {"omega": Omega, "chain": Chain, "pipeline": Pipeline}
