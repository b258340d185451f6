"""Spans around klab's public calls, installed from outside the package.

``Tracer.install`` wraps each function or method named in ``TARGETS``:
a method by replacing the class attribute, a function by replacing the
name in every loaded ``klab`` module (and in module-level dicts such as
the CLI's command table) that refers to it.  ``uninstall`` puts every
original back.  Spans (id, name, start, end, parent, check) are kept in
memory; per name the tracer adds up calls and self time, which is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict

from klab import actions, chaincore, cli, control, gring, intmat, ltheory, p2, scenario, transfer

# (span name, owner, attribute); a class owner means a method
TARGETS = [
    ("actions.distance", actions.DSLambdaMetric, "distance"),
    ("actions.table", actions.DSLambdaMetric, "table"),
    ("actions.metric_init", actions.DSLambdaMetric, "__init__"),
    ("actions.s_orbit", actions.HomotopySAction, "s_orbit"),
    ("actions.lebesgue_lambda_search", actions, "lebesgue_lambda_search"),
    ("actions.check_f_cover", actions, "check_f_cover"),
    ("p2.omega_audit", p2, "omega_audit"),
    ("p2.p2_action", p2, "p2_action"),
    ("control.ControlSpace.init", control.ControlSpace, "__init__"),
    ("control.EquivariantMorphism.convolve", control.EquivariantMorphism, "convolve"),
    ("intmat.matmul", intmat.IntMatrix, "__matmul__"),
    ("intmat.kron", intmat.IntMatrix, "kron"),
    ("intmat.det", intmat.IntMatrix, "det"),
    ("intmat.rank", intmat.IntMatrix, "rank"),
    ("intmat.integer_inverse", intmat.IntMatrix, "integer_inverse"),
    ("intmat.symmetric_diagonalize", intmat, "symmetric_diagonalize"),
    ("chaincore.tensor_complex", chaincore, "tensor_complex"),
    ("chaincore.tensor_map", chaincore, "tensor_map"),
    ("chaincore.mu_map", chaincore, "mu_map"),
    ("chaincore.dual_map", chaincore, "dual_map"),
    ("chaincore.cone", chaincore, "cone"),
    ("chaincore.self_torsion", chaincore, "self_torsion"),
    ("chaincore.compose", chaincore.ChainMap, "compose"),
    ("ltheory.lemmaA_check", ltheory, "lemmaA_check"),
    ("ltheory.signature", ltheory, "signature"),
    ("ltheory.mult_hyperbolic_complex", ltheory, "mult_hyperbolic_complex"),
    ("transfer.l_transfer", transfer, "l_transfer"),
    ("transfer.k_transfer", transfer, "k_transfer"),
    ("transfer.functoriality_witness", transfer, "functoriality_witness"),
    ("transfer.finite_replacement", transfer, "finite_replacement"),
    ("transfer.certify_dslambda", transfer, "certify_dslambda"),
    ("transfer.projected_torsion", transfer, "projected_torsion"),
    ("gring.GRMatrix.det", gring.GRMatrix, "det"),
    ("scenario.load_scenario", scenario, "load_scenario"),
    ("cli.cmd_suite", cli, "cmd_suite"),
]

CALL_COUNTS = ["actions.distance", "actions.table", "actions.s_orbit", "intmat.matmul",
               "intmat.kron", "intmat.det", "intmat.rank", "intmat.integer_inverse",
               "intmat.symmetric_diagonalize", "chaincore.tensor_complex",
               "control.EquivariantMorphism.convolve"]
# (metric, unit) beyond "<span>.self_s" and the CALL_COUNTS "<span>.calls"
PROPERTIES = [("actions.distance.reuse", "ratio"), ("actions.table.sources", "count"),
              ("actions.table.reuse", "ratio"),
              ("p2.omega_audit.checked", "count"), ("p2.omega_audit.skipped", "count"),
              ("intmat.integer_inverse.perm_share", "ratio"),
              ("chaincore.tensor_complex.repeat_share", "ratio")]
RUN_METRICS = [("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead", "ratio")]


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in TARGETS:
        if name in CALL_COUNTS:
            units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(PROPERTIES)
    units.update(RUN_METRICS)
    return units


def is_signed_permutation(m) -> bool:
    if m.rows != m.cols or len(m.entries) != m.rows:
        return False
    rows = {i for (i, _) in m.entries}
    cols = {j for (_, j) in m.entries}
    return (len(rows) == m.rows and len(cols) == m.cols
            and all(v in (1, -1) for v in m.entries.values()))


class Tracer:
    """Records spans of one traced pass; ``keep_spans`` keeps every span
    record for writing out, otherwise only the per-name totals."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans = []
        self.stack = []  # open spans as [span id, start, time covered by children]
        self.next_id = 0
        self.check_id = -1
        self.enabled = False  # spans only while a check's calls run
        self.calls = Counter()
        self.self_s = defaultdict(float)
        # workload properties measured at the same boundaries
        self.distance_sources = Counter()
        self.table_sources = 0
        self.table_rows = Counter()
        self.audit_checked = self.audit_skipped = 0
        self.inverse_perms = 0
        self.tensor_pairs = set()
        self.tensor_repeats = 0
        self._held = []  # keeps keyed objects alive so their ids stay unique
        self._patches = []

    # -- observers of arguments and results ---------------------------------

    def _observe(self, name, args, result):
        if name == "actions.distance":
            metric, src = args[0], args[1]
            self._held.append(metric)
            # by G-invariance the search depends only on the source point
            self.distance_sources[(id(metric), src[1])] += 1
        elif name == "actions.table":
            metric, carrier = args[0], args[1]
            self._held.append(metric)
            self.table_sources += len(carrier)
            for _, x in carrier:  # one search per row, keyed like distance's
                self.table_rows[(id(metric), x)] += 1
        elif name == "p2.omega_audit":
            self.audit_checked += result.checked
            self.audit_skipped += result.skipped
        elif name == "intmat.integer_inverse":
            self.inverse_perms += is_signed_permutation(args[0])
        elif name == "chaincore.tensor_complex":
            key = (id(args[0]), id(args[1]))
            self._held.append(args)
            if key in self.tensor_pairs:
                self.tensor_repeats += 1
            self.tensor_pairs.add(key)

    def _wrap(self, name, fn):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        observed = name in ("actions.distance", "actions.table", "p2.omega_audit",
                            "intmat.integer_inverse", "chaincore.tensor_complex")
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if tracer.keep_spans:
                    spans.append((span_id, name, frame[1], end,
                                  stack[-1][0] if stack else -1, tracer.check_id))
            if observed:
                tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "klab" or key.startswith("klab."))]
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._patches.append((value, k, original))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._held.clear()

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer values of this pass (without the run metrics)."""
        out = {}
        for name, _, _ in TARGETS:
            if name in CALL_COUNTS:
                out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        queries = sum(self.distance_sources.values())
        out["actions.distance.reuse"] = queries / len(self.distance_sources) if queries else 0.0
        out["actions.table.sources"] = self.table_sources
        out["actions.table.reuse"] = (self.table_sources / len(self.table_rows)
                                      if self.table_rows else 0.0)
        out["p2.omega_audit.checked"] = self.audit_checked
        out["p2.omega_audit.skipped"] = self.audit_skipped
        inverses = self.calls["intmat.integer_inverse"]
        out["intmat.integer_inverse.perm_share"] = self.inverse_perms / inverses if inverses else 0.0
        tensors = self.calls["chaincore.tensor_complex"]
        out["chaincore.tensor_complex.repeat_share"] = self.tensor_repeats / tensors if tensors else 0.0
        return out

    def counts(self):
        """Everything in this pass that must repeat exactly on one seed."""
        return (sorted(self.calls.items()), sorted(self.distance_sources.values()),
                sorted(self.table_rows.values()), self.audit_checked, self.audit_skipped,
                self.inverse_perms, self.tensor_repeats)

    def write_spans(self, path: str):
        """One tab-separated line per span, in order of completion."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tcheck\n")
            for span in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)
