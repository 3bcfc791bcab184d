"""
Shared pieces of the pretzel benchmark: importing the package from this
checkout, running pretzelc, the independent correctness checks, the metric
names, and tracing.

Everything here calls the public functions of the `pretzel` package (and the
`pretzelc` command line, as `python -m pretzel.cli`); nothing in the package
is edited.  See README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = ROOT / ".bench_out"

# The sizes run.py measures; selftest.py passes smaller ones.
SIZES = {
    "enum-8x7": {"max_strands": 8, "max_param": 7},
    "search-5x15": {"max_strands": 5, "max_param": 15},
    "analyze-random": {"knots": 4000, "max_strands": 9, "max_param": 25},
}
SETUP_REPEATS = 3       # input builds per run; setup_s reports the median
STARTUP_REPEATS = 5     # fresh-interpreter imports per run, median
DIGEST_BLOCK = 100      # knots per reference digest in analyze-random

STATUSES = ("ribbon_known", "not_slice", "exceptional",
            "obstructions_vanish", "not_applicable", "inconclusive")
REASONS = ("determinant", "signature", "donaldson")


def import_pretzel():
    """Import the package from this checkout's src/, or exit with a
    message."""
    if not (SRC / "pretzel" / "__init__.py").is_file():
        sys.exit("error: %s/pretzel not found; run from a pretzel checkout"
                 % SRC)
    sys.path.insert(0, str(SRC))
    import pretzel
    if Path(pretzel.__file__).resolve().parent != SRC / "pretzel":
        sys.exit("error: imported pretzel from %s, not from %s"
                 % (pretzel.__file__, SRC))
    return pretzel


def _env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PRETZELC_NODE_LIMIT", None)
    return env


def run_cli(args):
    """Run pretzelc in a fresh interpreter; return (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pretzel.cli", *args],
                          env=_env(), capture_output=True, text=True,
                          check=True, timeout=170)
    return time.perf_counter() - t0, proc.stdout


def startup_seconds(repeats=STARTUP_REPEATS):
    """Median wall time of a fresh interpreter importing pretzel.cli: the
    fixed cost every pretzelc call pays before its first verdict.

    No timeout: with one, subprocess polls for the exit in sleeps of up to
    50 ms, and the times come out rounded to that step."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pretzel.cli"],
                       env=_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def latency_metrics(samples):
    """p50, p95 and p99 of per-call times in seconds, as ms."""
    q = statistics.quantiles(samples, n=100)
    return {"latency_p%d_ms" % p: q[p - 1] * 1000.0 for p in (50, 95, 99)}


# ---------------------------------------------------------------------------
# independent checks (no call into pretzel.lattice.verify_embedding)

def gram_ok(center, legs, witness):
    """-M M^T must equal the star graph's incidence matrix, rebuilt here."""
    weights = [center] + [w for leg in legs for w in leg]
    edges, idx = set(), 1
    for leg in legs:
        prev = 0
        for _ in leg:
            edges |= {(prev, idx), (idx, prev)}
            prev, idx = idx, idx + 1
    k = len(weights)
    return witness is not None and len(witness) == k and all(
        -sum(a * b for a, b in zip(witness[i], witness[j]))
        == (weights[i] if i == j else int((i, j) in edges))
        for i in range(k) for j in range(k))


def legs_of_witness(witness):
    """(center weight, legs) of the star graph whose incidence matrix
    -M M^T would be, reading legs as chains from the center; the caller
    confirms the whole matrix with gram_ok."""
    k = len(witness)
    dot = lambda i, j: -sum(a * b for a, b in zip(witness[i], witness[j]))
    legs, i = [], 1
    while i < k:
        j = i
        while j + 1 < k and dot(j, j + 1) == 1:
            j += 1
        legs.append(tuple(dot(v, v) for v in range(i, j + 1)))
        i = j + 1
    return dot(0, 0), tuple(legs)


def pretzel_determinant(params):
    """det P(p_1..p_n) = |sum_i prod_{j != i} p_j|, the closed form."""
    return abs(sum(math.prod(params[:i] + params[i + 1:])
                   for i in range(len(params))))


def graph_key(g):
    """Canonical key of a negative definite graph, as classify._donaldson
    memoises it: mutants and mirrors share it."""
    return (g.center_weight, tuple(sorted(g.legs)))


def key_text(key):
    center, legs = key
    return "%d;%s" % (center, ";".join(",".join(map(str, leg))
                                       for leg in legs))


def load_reference(workload):
    path = REFERENCE_DIR / ("%s.json" % workload)
    with open(path) as fh:
        return json.load(fh)


class Check:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def expect(self, ok, note, count=1):
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(note)


# ---------------------------------------------------------------------------
# metric names; BENCHMARK.json declares the same names and units

END_TO_END = {
    "verdicts_per_s": "1/s",
    "warm_verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans recorded by the traced replay, one per call into a layer.
SPAN_NAMES = (
    "core.knot_classes", "core.normalize", "fibered.is_fibered",
    "classify.class_fiberable", "plumbing.determinant",
    "plumbing.negative_definite_graph", "lattice.graph_signature",
    "lattice.find_embedding", "lattice.wu_vertices",
    "lattice.verify_embedding", "plumbing.bareiss_determinant",
    "classify.match_family", "classify.is_exceptional",
    "classify.is_detectably_ribbon", "classify.analyze",
)
LAYERS = ("core", "fibered", "plumbing", "lattice", "classify")
COUNTS = (
    "plumbing.graph_vertices", "lattice.searches", "lattice.search_nodes",
    "lattice.search_nodes_max", "lattice.embeddable",
    "lattice.not_embeddable", "classify.verdicts",
    "classify.donaldson_cache_hits", "classify.donaldson_cache_misses",
    "classify.donaldson_cache_hits_warm",
    "classify.donaldson_cache_misses_warm",
) + tuple("classify.reason." + r for r in REASONS) \
  + tuple("classify.status." + s for s in STATUSES) + ("trace.spans",)

PER_LAYER = dict(
    [(n + "_s", "s") for n in SPAN_NAMES]
    + [("self.%s_s" % layer, "s") for layer in LAYERS]
    + [("cli.overhead_s", "s"), ("lattice.search_yield", "ratio")]
    + [(n, "count") for n in COUNTS]
    + [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
       ("trace.uncovered_s", "s"), ("trace.overhead_s", "s")])


# ---------------------------------------------------------------------------
# tracing

class Tracer:
    """Spans (name, start, end, parent index, request id) kept in memory
    until dump()."""

    def __init__(self):
        self.spans = []
        self._open = []          # (span index, request id), innermost last

    def call(self, name, rid, fn, *args):
        idx = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append((idx, rid))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[idx] = (name, t0, time.perf_counter(), parent, rid)
            self._open.pop()

    def wrap(self, name, fn):
        """fn, with each call recorded under the innermost open span."""
        def traced(*args):
            rid = self._open[-1][1] if self._open else None
            return self.call(name, rid, fn, *args)
        return traced

    def covered(self):
        """Time covered by top-level spans."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans
                   if parent < 0)



def dump_spans(tracers, path):
    """Write every tracer's spans as gzipped JSON, one list per tracer."""
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "rid"],
                   "tracers": [tr.spans for tr in tracers]}, fh)


def span_totals(tracers):
    """Per span name: [calls, inclusive time, self time]."""
    out = {}
    for tr in tracers:
        child = [0.0] * len(tr.spans)
        for _, t0, t1, parent, _ in tr.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(tr.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
    return out


@contextlib.contextmanager
def spans_inside_search(pz, tr):
    """Record find_embedding's own dense checks as child spans, by wrapping
    the module globals it calls.  Restored on exit."""
    lattice = pz.lattice
    labels = {"wu_vertices": "lattice.wu_vertices",
              "verify_embedding": "lattice.verify_embedding",
              "bareiss_determinant": "plumbing.bareiss_determinant"}
    saved = {attr: getattr(lattice, attr) for attr in labels}
    try:
        for attr, label in labels.items():
            setattr(lattice, attr, tr.wrap(label, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(lattice, attr, fn)


class Stats:
    """Counts taken at the layer boundaries of a replay."""

    def __init__(self):
        self.vertices = self.searches = self.nodes = self.nodes_max = 0
        self.embeddable = self.not_embeddable = 0
        self.yield_rank = self.yield_nodes = 0
        self.hits = self.misses = 0
        self.lookups = []
        self.status = dict.fromkeys(STATUSES, 0)
        self.reason = dict.fromkeys(REASONS, 0)
        self.verdicts = 0

    def graph(self, g):
        self.vertices += g.rank
        return g

    def search(self, g, res):
        self.searches += 1
        self.nodes += res.nodes
        self.nodes_max = max(self.nodes_max, res.nodes)
        if res:
            self.embeddable += 1
            self.yield_rank += g.rank
            self.yield_nodes += res.nodes
        elif res.status.value == "not_embeddable":
            self.not_embeddable += 1

    def verdict(self, status, reason):
        self.verdicts += 1
        self.status[status] += 1
        if reason in self.reason:
            self.reason[reason] += 1


def replay_analyze(pz, tr, params, rid, memo, stats):
    """classify.analyze, stage by stage in its order, one span per call.
    Returns (status, reason, det, sigma) as analyze() would."""
    def stages():
        p = pz.as_params(params)
        if pz.classify_type(p) is pz.Kind.LINK:
            return "not_applicable", "link", None, None
        pn = tr.call("core.normalize", rid, pz.normalize, p)
        pz.classify_type(pn)
        tr.call("fibered.is_fibered", rid, pz.is_fibered, pn)
        cls = pz.mutation_class(pn)
        det = tr.call("plumbing.determinant", rid, pz.determinant, pn)
        g = stats.graph(tr.call("plumbing.negative_definite_graph", rid,
                                pz.negative_definite_graph, pn))
        s = tr.call("lattice.graph_signature", rid, pz.graph_signature, g)
        sig = -s if g.mirrored else s
        family, _ = tr.call("classify.match_family", rid, pz.match_family, cls)
        exceptional = tr.call("classify.is_exceptional", rid,
                              pz.is_exceptional, cls)
        tr.call("classify.is_detectably_ribbon", rid,
                pz.is_detectably_ribbon, pn)
        if math.isqrt(det) ** 2 != det:
            return "not_slice", "determinant", det, sig
        if sig != 0:
            return "not_slice", "signature", det, sig
        g2 = stats.graph(tr.call("plumbing.negative_definite_graph", rid,
                                 pz.negative_definite_graph,
                                 tuple(sorted(pn))))
        key = graph_key(g2)
        stats.lookups.append(key)
        if memo is not None and key in memo:
            stats.hits += 1
            res = memo[key]
        else:
            stats.misses += 1
            res = tr.call("lattice.find_embedding", rid, pz.find_embedding,
                          g2)
            stats.search(g2, res)
            if memo is not None:
                memo[key] = res
        outcome = res.status.value
        if outcome == "not_embeddable":
            return "not_slice", "donaldson", det, sig
        if outcome == "inconclusive":
            return "inconclusive", "node limit hit", det, sig
        if exceptional:
            return "exceptional", None, det, sig
        status = "ribbon_known" if family is not None else \
            "obstructions_vanish"
        return status, None, det, sig

    out = tr.call("classify.analyze", rid, stages)
    stats.verdict(out[0], out[1])
    return out


def layer_metrics(tracers, section, stats, untraced_wall, traced_wall,
                  cli_overhead=0.0, warm_hits=0, warm_misses=0):
    """Every per-layer metric; `section` is the tracer whose top-level spans
    cover the replay timed as traced_wall."""
    totals = span_totals(tracers)
    m = {}
    for name in SPAN_NAMES:
        m[name + "_s"] = totals.get(name, [0, 0.0, 0.0])[2]
    calls, inclusive, _ = totals.get("classify.analyze", [0, 0.0, 0.0])
    m["classify.analyze_s"] = inclusive / calls if calls else 0.0
    for layer in LAYERS:
        m["self.%s_s" % layer] = sum((row[2] for name, row in totals.items()
                                      if name.startswith(layer + ".")), 0.0)
    m["cli.overhead_s"] = cli_overhead
    m["lattice.search_yield"] = (stats.yield_rank / stats.yield_nodes
                                 if stats.yield_nodes else 0.0)
    m.update({
        "plumbing.graph_vertices": stats.vertices,
        "lattice.searches": stats.searches,
        "lattice.search_nodes": stats.nodes,
        "lattice.search_nodes_max": stats.nodes_max,
        "lattice.embeddable": stats.embeddable,
        "lattice.not_embeddable": stats.not_embeddable,
        "classify.verdicts": stats.verdicts,
        "classify.donaldson_cache_hits": stats.hits,
        "classify.donaldson_cache_misses": stats.misses,
        "classify.donaldson_cache_hits_warm": warm_hits,
        "classify.donaldson_cache_misses_warm": warm_misses,
        "trace.spans": sum(len(tr.spans) for tr in tracers),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.uncovered_s": traced_wall - section.covered(),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for r in REASONS:
        m["classify.reason." + r] = stats.reason[r]
    for s in STATUSES:
        m["classify.status." + s] = stats.status[s]
    return m
