"""Benchmark of the pags verifier: one seeded workload per run.

    python3 perfbench/run.py --workload sim --seed 1 --seconds 20 --trace 0

One process, one closed-loop client, no threads: each query starts when the
previous one has returned. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` wraps the layer functions (see tracing.py) and
reports the per-layer metrics instead. The last line of standard output is
one JSON object; a fuller report goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# p99.9 is left out: on a shared 2-core VM its ten samples are scheduler
# hiccups rather than slow queries.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
SOURCE_MODULES = ("prob", "model", "formula", "logic", "sim", "oracle", "cli")
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.0
PROBE_REFERENCE_S = 0.015


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def probe_kernel(n=14):
    """Fixed exact-arithmetic work that uses no pags code: Gauss-Jordan
    elimination of an n x n rational matrix (about 15 ms)."""
    rows = [[Fraction(1, i + j + 2) + (n if i == j else 0) for j in range(n)] for i in range(n)]
    for p in range(n):
        inv = 1 / rows[p][p]
        rows[p] = [x * inv for x in rows[p]]
        for i in range(n):
            if i != p:
                f = rows[i][p]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]


class SpeedProbe:
    """Speed of the machine during a run, from ``probe_kernel`` timed between
    queries (never inside one).

    On the shared VM this benchmark was built on, the same query ran up to
    1.7x slower from one minute to the next, while its time over the probe's
    time stayed within a few percent. Each timed span is therefore multiplied
    by ``factor(t0, t1)``, the reference probe time over the median time of
    the probes run within ``PROBE_WINDOW_S`` of the span: it reads as a time
    on a machine where the probe takes ``PROBE_REFERENCE_S``. The report file
    keeps the raw figures.
    """

    def __init__(self):
        self.starts = []
        self.samples = []
        self.spent = 0.0
        self._last = float("-inf")

    def probe(self, force=False):
        start = time.perf_counter()
        if force or start - self._last >= PROBE_EVERY_S:
            # Without collections, the probe's time does not grow with the
            # number of objects pags keeps alive.
            gc.disable()
            try:
                probe_kernel()
            finally:
                gc.enable()
            self._last = time.perf_counter()
            self.starts.append(start)
            self.samples.append(self._last - start)
            self.spent += self._last - start

    def factor(self, t0=None, t1=None):
        """Scale of a span from ``t0`` to ``t1``; of the whole run without."""
        near = self.samples
        if t0 is not None:
            lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
            near = self.samples[lo:hi] or self.samples
        return PROBE_REFERENCE_S / statistics.median(near)

    def scaled(self, t0, t1):
        return (t1 - t0) * self.factor(t0, t1)


def setup(workload, seed, tracer=None):
    """Import pags afresh, parse fixtures and generate the seeded inputs."""
    for name in [m for m in sys.modules if m == "pags" or m.startswith("pags.")]:
        del sys.modules[name]
    pags = importlib.import_module("pags")
    if tracer is not None:
        tracer.install(pags)
        tracer.enabled = True
    queries, texts = workloads.build(pags, workload, seed)
    if tracer is not None:
        tracer.enabled = False
    return pags, queries, texts


def measure(queries, seconds, rng, speed, tracer=None):
    """Run whole shuffled passes over ``queries`` for about ``seconds``.

    Another pass starts only if it should end less than half a pass after
    the deadline, so every query is asked equally often and the figures do
    not depend on where in a pass the clock ran out.
    """
    timed = {}  # qid -> [(start, end)]
    outcomes = {}  # qid -> {summary: executions}
    errors = {}  # qid -> exception text
    raised = 0
    passes = []  # traced: (counters, self times, spans) of each pass
    attempted = 0
    start = time.perf_counter()
    probing = speed.spent
    done = 0
    while True:
        order = list(queries)
        rng.shuffle(order)
        for q in order:
            speed.probe()
            attempted += 1
            if tracer is not None:
                tracer.new_query()
                tracer.enabled = True
                tracer.begin("query")
            t0 = time.perf_counter()
            try:
                result = q.call()
            except Exception as e:  # a query that raises is a failed query
                errors[q.qid] = f"{type(e).__name__}: {e}"
                raised += 1
                continue
            finally:
                if tracer is not None:
                    tracer.end()
                    tracer.enabled = False
            timed.setdefault(q.qid, []).append((t0, time.perf_counter()))
            summary = q.summary(result)
            seen = outcomes.setdefault(q.qid, {})
            seen[summary] = seen.get(summary, 0) + 1
        if tracer is not None:
            spans = tracer.take()
            passes.append(tracing.summarize(spans) + (spans if not passes else None,))
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 > seconds:
            break
    wall = time.perf_counter() - start - (speed.spent - probing)
    return timed, outcomes, errors, raised, attempted, wall, passes


def check(pags, workload, queries, outcomes):
    """Count wrong executions; returns (wrong, problems, answer sources)."""
    checker = workloads.Checker(pags, workload, workloads.load_recorded())
    top = {qid: max(seen, key=seen.get) for qid, seen in outcomes.items()}
    wrong = 0
    problems = []
    sources = {}
    for q in {q.qid: q for q in queries}.values():  # fixture queries repeat
        seen = outcomes.get(q.qid)
        if not seen:
            continue
        src = checker.sources(q)
        sources[src] = sources.get(src, 0) + 1
        for summary, count in seen.items():
            found = checker.problems(q, summary, top)
            if summary != top[q.qid]:
                found.append("answer differs between repetitions")
            if found:
                wrong += count
                problems.append(f"{q.qid}: {'; '.join(found)}")
    return wrong, problems, sources


def tail(latencies, per_pass):
    """Highest ladder percentile with at least ten of one pass's queries
    above it (so at least ten samples), its latency and the number of
    samples above it.

    The percentile is fixed by the pass size, not by how many passes ran: a
    faster build that fits another pass into the run would otherwise report
    a higher percentile and so a larger tail.
    """
    xs = sorted(latencies)
    for p in TAIL_LADDER:
        if per_pass - math.ceil(per_pass * p / 100) >= 10:
            break
    else:
        p = 50.0
    rank = max(1, math.ceil(len(xs) * p / 100))  # nearest-rank percentile
    return p, xs[rank - 1], len(xs) - rank


def src_lines():
    out = {}
    for name in SOURCE_MODULES:
        with open(os.path.join(SRC, "pags", name + ".py")) as fh:
            out[f"{name}.src_lines"] = sum(1 for _ in fh)
    return out


def layer_metrics(passes, setup_spans, raw_latencies, latencies, factor):
    """Counters of the first pass (every pass has the same), self times
    averaged over the passes, set-up and source-size figures. Self times and
    the query time per pass are scaled by the run's speed factor, so that
    they add up; the traced p50 is scaled like the untraced one."""
    values = dict(passes[0][0])
    for name in {name for _, self_s, _ in passes for name in self_s}:
        total = sum(self_s.get(name, 0.0) for _, self_s, _ in passes)
        values[name] = total / len(passes) * factor
    values["trace.query_s"] = sum(raw_latencies) / len(passes) * factor
    values["trace.latency_p50_ms"] = statistics.median(latencies) * 1000
    _, setup_self = tracing.summarize(setup_spans)
    values["model.parse_model.self_s"] = setup_self.get("model.parse_model.self_s", 0.0) * factor
    values.update(src_lines())
    return values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pags", "__init__.py")):
        sys.exit(f"error: no pags package under {SRC}; run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    tracer = tracing.Tracer() if args.trace else None
    speed = SpeedProbe()
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        speed.probe(force=True)
        t0 = time.perf_counter()
        pags, queries, texts = setup(args.workload, args.seed, tracer)
        setups.append((t0, time.perf_counter()))
    setup_spans = tracer.take() if tracer else []
    if not os.path.abspath(pags.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pags from {pags.__file__}, not from {SRC}")
    fingerprint = hashlib.sha256("\0".join(texts).encode()).hexdigest()[:16]

    rng = random.Random(f"order:{args.workload}:{args.seed}")
    timed, outcomes, errors, raised, attempted, wall, passes = measure(
        queries, args.seconds, rng, speed, tracer
    )
    spans = [span for xs in timed.values() for span in xs]
    if not spans:
        sys.exit(f"error: every query raised, e.g. {next(iter(errors.items()))}")
    raw_latencies = [t1 - t0 for t0, t1 in spans]
    latencies = [speed.scaled(t0, t1) for t0, t1 in spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t0 = time.perf_counter()
    wrong, problems, sources = check(pags, args.workload, queries, outcomes)
    check_s = time.perf_counter() - t0
    problems += [f"{qid}: raised {text}" for qid, text in errors.items()]
    failed = wrong + raised
    if tracer is not None and any(p[0] != passes[0][0] for p in passes):
        problems.append("per-layer counters differ between passes")
        failed += 1

    pct, tail_s, beyond = tail(latencies, len(queries))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_fingerprint": fingerprint,
        "queries_per_pass": len(queries),
        "attempted": attempted,
        "failed": failed,
        "wrong_share": failed / attempted,
        "latency_samples": len(latencies),
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "timed_phase_s": wall,
        "check_s": check_s,
        "answer_sources": sources,
        "problems": problems[:50],
        "query_p50_ms": {
            qid: statistics.median(t1 - t0 for t0, t1 in xs) * 1000 for qid, xs in timed.items()
        },
    }
    factor = speed.factor()
    # The timed phase is scaled by its queries' mean factor, weighted by time.
    wall_factor = sum(latencies) / sum(raw_latencies)
    report["speed_factor"] = factor
    report["wall_factor"] = wall_factor
    report["probes"] = len(speed.samples)
    if tracer is None:
        report["raw_metrics"] = {
            "setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
            "latency_p50_ms": statistics.median(raw_latencies) * 1000,
            "latency_tail_ms": tail(raw_latencies, len(queries))[1] * 1000,
            "queries_per_s": (attempted - raised) / wall,
        }
        metrics = {
            "setup_s": statistics.median(speed.scaled(t0, t1) for t0, t1 in setups),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_tail_ms": tail_s * 1000,
            "queries_per_s": (attempted - raised) / (wall * wall_factor),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        metrics = layer_metrics(passes, setup_spans, raw_latencies, latencies, factor)
        metrics["wrong_share"] = report["wrong_share"]
        report["passes"] = len(passes)
        report["counters"] = passes[0][0]
        wanted = spec["per_layer"]
    report["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        tracing.write_spans(stem + "-spans.jsonl", setup_spans, passes[0][2])

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={fingerprint} queries_per_pass={len(queries)}")
    print(f"attempted={attempted} failed={failed} latency samples={len(latencies)} "
          f"tail=p{pct:g} ({beyond} beyond) timed={wall:.2f}s check={check_s:.2f}s speed_factor={factor:.3f}")
    for source, count in sorted(sources.items()):
        print(f"checked {count} distinct queries by: {source}")
    for text in problems[:10]:
        print("problem:", text)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # A layer the workload never enters reports 0 calls and 0 s.
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
