"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the ``pags`` modules from outside, so
nothing under ``src/`` changes. A wrapped name is replaced in every module
that holds it (``sim`` and ``logic`` import ``lp_feasible``, ``is_flat``,
``substitute`` and ``step_mixed_dist`` by name), otherwise calls made through
those names would be missed.

A span is a list ``[name, parent, start, end, note]``; ``parent`` is the index
of the enclosing span (-1 for none). Spans stay in memory until the run
aggregates them. Self time of a span is its duration minus the durations of
its direct children: the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

NAME, PARENT, START, END, NOTE = range(5)

# Modules whose names are patched; ``oracle`` only produces expected answers
# and ``cli`` is not exercised, so neither is touched.
PATCHED_MODULES = ("", ".prob", ".model", ".formula", ".logic", ".sim")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = False
        self._kind_cache = {}
        self._is_flat = None

    # -- recording ------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self):
        self.spans[self.stack.pop()][END] = time.perf_counter()

    def new_query(self):
        """Forget per-query caches (formula objects die with their query)."""
        self._kind_cache.clear()

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, note=None, nested=False):
        """Wrap ``fn`` in a span called ``name``.

        ``note(args, result)`` may attach data to the span. Unless ``nested``,
        a call made while a span of the same name is innermost (recursion) is
        not a span of its own, so ``calls`` counts entries into the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (
                not nested and tracer.stack and tracer.spans[tracer.stack[-1]][NAME] == name
            ):
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if note is not None:
                tracer.spans[index][NOTE] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self, pags):
        """Patch the layer functions of a freshly imported ``pags``."""
        import sys

        modules = [sys.modules[pags.__name__ + suffix] for suffix in PATCHED_MODULES]
        prob, model, formula, logic, sim = modules[1:]
        self._is_flat = formula.is_flat
        self._kinds = {
            formula.And: "and",
            formula.Or: "or",
            formula.ProbSum: "probsum",
            formula.Mix: "mix",
            formula.Enforce: "enforce",
            formula.Mu: "fixpoint",
            formula.Nu: "fixpoint",
        }
        functions = [
            (prob, "lp_feasible", "prob.lp_feasible", _lp_note),
            (prob, "lift_check", "prob.lift_check", None),
            (prob, "step_mixed_dist", "prob.step_mixed_dist", None),
            (model, "parse_model", "model.parse_model", None),
            (formula, "substitute", "formula.substitute", None),
            (formula, "is_flat", "formula.is_flat", None),
            (formula, "convex_safe", "formula.convex_safe", None),
            (sim, "pa_simulation", "sim.pa_simulation", lambda a, r: r.iterations),
            (sim, "refine_once", "sim.refine_once", None),
            (sim, "exists_pi2_check", "sim.exists_pi2_check", lambda a, r: r is not None),
        ]
        for home, attr, name, note in functions:
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        methods = [
            (logic.Evaluator, "eval", "logic.eval", self._eval_note, True),
            (logic._FlatChecker, "holds", "logic.flat.holds", None, False),
            (logic.CharFormulaBuilder, "state", "logic.char_formula", None, False),
            (logic.CharFormulaBuilder, "dist", "logic.char_formula", None, False),
        ]
        for cls, attr, name, note, nested in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), note, nested))

    def _eval_note(self, args, result):
        phi = args[2]
        hit = self._kind_cache.get(id(phi))
        if hit is None:
            kind = "flat" if self._is_flat(phi) else self._kinds.get(type(phi), "other")
            # Keep ``phi`` alive so its id is not reused within the query.
            hit = self._kind_cache[id(phi)] = (phi, kind)
        return hit[1]


def _lp_note(args, result):
    p = args[0]
    key = hash((tuple(p.names), tuple(
        (tuple(sorted(coeffs.items())), sense, rhs) for coeffs, sense, rhs in p.constraints
    )))
    return key, len(p.constraints), p.n_vars(), result is not None


# -- aggregation ---------------------------------------------------------------

def self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def summarize(spans):
    """Counters and self times of one batch of spans (one pass, or setup).

    Returns two dicts keyed by metric name: counters (``<layer>.calls`` and
    the ratios and sizes below) and self times (``<layer>.self_s``; eval
    spans are split by node kind as ``logic.eval.self_s.<kind>``).
    """
    counters = {}
    self_s = {}
    lp = []
    pi2 = []
    rounds = 0
    # Repeats are counted within one query, the scope an engine memo would have.
    distinct = 0
    seen = set()
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        if name == "query":
            seen = set()
            self_s["query.self_s"] = self_s.get("query.self_s", 0.0) + own
            continue
        counters[name + ".calls"] = counters.get(name + ".calls", 0) + 1
        key = name + ".self_s" + ("." + span[NOTE] if name == "logic.eval" else "")
        self_s[key] = self_s.get(key, 0.0) + own
        if name == "prob.lp_feasible":
            lp.append(span[NOTE])
            if span[NOTE][0] not in seen:
                seen.add(span[NOTE][0])
                distinct += 1
        elif name == "sim.exists_pi2_check":
            pi2.append(span[NOTE])
        elif name == "sim.pa_simulation":
            rounds += span[NOTE]
    if lp:
        counters["prob.lp_feasible.distinct_share"] = distinct / len(lp)
        counters["prob.lp_feasible.feasible_share"] = sum(n[3] for n in lp) / len(lp)
        counters["prob.lp_feasible.rows_p50"] = statistics.median(n[1] for n in lp)
        counters["prob.lp_feasible.cols_p50"] = statistics.median(n[2] for n in lp)
        counters["prob.lp_feasible.cells_max"] = max(n[1] * n[2] for n in lp)
    if pi2:
        counters["sim.exists_pi2_check.pass_share"] = sum(pi2) / len(pi2)
    if rounds:
        counters["sim.pa_simulation.rounds"] = rounds
    return counters, self_s


def write_spans(path, *batches):
    """One JSON array per line: name, parent line (0-based, -1 for none),
    start, end, note. Batches are written one after the other."""
    offset = 0
    with open(path, "w") as fh:
        for spans in batches:
            for name, parent, start, end, note in spans:
                parent = parent + offset if parent >= 0 else -1
                fh.write(json.dumps([name, parent, start, end, note], default=str) + "\n")
            offset += len(spans)
