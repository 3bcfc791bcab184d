"""
The three benchmark workloads.  Each returns an Outcome: operations
attempted and failed, the metrics of the requested mode, run details, and
the observed reference data (what record.py stores and later runs check).

Load is a closed loop everywhere: one process and one caller, the next call
issued when the previous one returned, and `--jobs 1` for pretzelc.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from harness import (DIGEST_BLOCK, SETUP_REPEATS, Check, Stats,
                     Tracer, gram_ok, graph_key, key_text, latency_metrics,
                     layer_metrics, legs_of_witness, peak_rss_mb,
                     pretzel_determinant, replay_analyze, run_cli,
                     spans_inside_search, startup_seconds)


@dataclass
class Outcome:
    check: Check
    metrics: dict
    info: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    tracers: list = field(default_factory=list)


def timed_passes(one_pass, seconds, warm=True, check_warm=None):
    """A cold pass, then warm passes over the same inputs until `seconds`
    have gone by since the cold pass started (at least one warm pass).

    In-process passes return (wall, latencies, results); each warm pass's
    results go to check_warm(cold results, warm results) and are then
    dropped, so memory does not grow with the number of passes."""
    t0 = time.perf_counter()
    cold = one_pass()
    warms = []
    while warm and (not warms or time.perf_counter() - t0 < seconds):
        w = one_pass()
        if check_warm:
            check_warm(cold[2], w[2])
            w = w[:2]
        warms.append(w)
    return cold, warms


def median_setup(build):
    """(median seconds, last result) over SETUP_REPEATS calls of build()."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def end_to_end(n, cold, warms, setup):
    """Metrics of an in-process workload from its (wall, per-call latencies,
    results) passes.  Throughput and latency percentiles pool every call of
    every pass: the program keeps no state between calls, so the passes do
    the same work, and the pooled sample leaves at least ten calls beyond
    p99 on both workloads."""
    passes = [cold] + warms
    m = {"verdicts_per_s": n * len(passes) / sum(p[0] for p in passes),
         "warm_verdicts_per_s": n / statistics.median(w[0] for w in warms),
         "setup_s": setup, "peak_rss_mb": peak_rss_mb()}
    m.update(latency_metrics([t for p in passes for t in p[1]]))
    return m


# ---------------------------------------------------------------------------
# enum-8x7: pretzelc enumerate, cold cache then warm cache

def _read_cache(path):
    """{graph key: (status, witness)} from a donaldson-cache.jsonl."""
    out = {}
    if not path.exists():
        return out
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            key = (obj["center"], tuple(tuple(leg) for leg in obj["legs"]))
            out[key] = (obj["status"], obj["witness"])
    return out


def enum_workload(pz, size, seed, trace, seconds, ref, workdir):
    chk = Check()
    cache_dir = workdir / "cache"
    args = ["enumerate", "--max-strands", str(size["max_strands"]),
            "--max-param", str(size["max_param"]), "--jobs", "1",
            "--cache", str(cache_dir)]
    outs = []

    def one_pass():
        out = workdir / ("pass%d.csv" % len(outs))
        outs.append(out)
        return run_cli(args + ["--out", str(out)])[0]

    setup = 0.0 if trace else startup_seconds()
    cold, warms = timed_passes(one_pass, seconds, warm=not trace)

    with open(outs[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    classes = len(rows)
    digest = hashlib.sha256(outs[0].read_bytes()).hexdigest()
    for out in outs:
        chk.attempted += classes
        got = hashlib.sha256(out.read_bytes()).hexdigest()
        chk.expect(got == digest, "%s differs from the cold pass" % out.name,
                   classes)
        if ref:
            chk.expect(got == ref["csv_sha256"],
                       "%s sha256 %s != reference" % (out.name, got), classes)
    inconclusive = sum(r["status"] == "inconclusive" for r in rows)
    chk.expect(inconclusive == 0, "%d inconclusive rows" % inconclusive,
               inconclusive)
    cached = _read_cache(cache_dir / "donaldson-cache.jsonl")
    for key, (status, witness) in cached.items():
        if status == "embeddable":
            # the witness rows follow the legs of the graph first searched,
            # in some order; the key sorts them
            center, legs = legs_of_witness(witness)
            chk.expect(gram_ok(center, legs, witness)
                       and (center, tuple(sorted(legs))) == key,
                       "cached witness fails -MM^T = Q on %s" % key_text(key))
    info = {"classes": classes, "passes": len(outs),
            "cold_s": cold, "warm_s": warms, "cache_entries": len(cached)}
    reference = {"max_strands": size["max_strands"],
                 "max_param": size["max_param"], "classes": classes,
                 "csv_sha256": digest}
    if not trace:
        # the subprocess reports no per-call times: latency is the mean
        mean_ms = 1000.0 * cold / classes
        metrics = {"verdicts_per_s": classes / cold,
                   "warm_verdicts_per_s":
                   classes / statistics.median(warms),
                   "latency_p50_ms": mean_ms, "latency_p95_ms": mean_ms,
                   "latency_p99_ms": mean_ms, "setup_s": setup,
                   "peak_rss_mb": peak_rss_mb()}
        return Outcome(chk, metrics, info, reference)

    # Traced: the same classes in-process, first untraced through
    # class_record (what the CLI runs), then replayed stage by stage.
    expected = [r["status"] for r in rows]
    t0 = time.perf_counter()
    memo = {}
    plain = [pz.class_record(ms, cache=memo) for ms in
             sorted(pz.knot_classes(size["max_strands"], size["max_param"]))]
    untraced = time.perf_counter() - t0

    tr, stats = Tracer(), Stats()
    t0 = time.perf_counter()
    with spans_inside_search(pz, tr):
        keys = tr.call("core.knot_classes", None, lambda: sorted(
            pz.knot_classes(size["max_strands"], size["max_param"])))
        memo = {}
        replayed = []
        for ms in keys:
            tr.call("classify.class_fiberable", ms, pz.class_fiberable, ms)
            replayed.append(replay_analyze(pz, tr, ms, ms, memo, stats)[0])
    traced = time.perf_counter() - t0

    for name, got in (("class_record", [r.status.value for r in plain]),
                      ("replay", replayed)):
        chk.attempted += len(got)
        bad = sum(a != b for a, b in zip(got, expected)) \
            + abs(len(got) - len(expected))
        chk.expect(bad == 0, "%s: %d statuses differ from the CSV"
                   % (name, bad), bad)
    warm_hits = sum(key in cached for key in stats.lookups)
    metrics = layer_metrics([tr], tr, stats, untraced, traced,
                            cli_overhead=cold - untraced, warm_hits=warm_hits,
                            warm_misses=len(stats.lookups) - warm_hits)
    return Outcome(chk, metrics, info, reference, [tr])


# ---------------------------------------------------------------------------
# search-5x15: find_embedding on every canonical Donaldson candidate graph

def build_candidates(pz, size, tr=None, stats=None):
    """{graph key: (graph, first class)} for the classes within the bound
    whose determinant is a square and whose signature is 0."""
    call = tr.call if tr else (lambda name, rid, fn, *a: fn(*a))
    classes = call("core.knot_classes", None, lambda: list(
        pz.knot_classes(size["max_strands"], size["max_param"])))
    graphs = {}
    for ms in classes:
        det = call("plumbing.determinant", ms, pz.determinant, ms)
        if math.isqrt(det) ** 2 != det:
            if stats:
                stats.verdict("not_slice", "determinant")
            continue
        g = call("plumbing.negative_definite_graph", ms,
                 pz.negative_definite_graph, ms)
        if stats:
            stats.graph(g)
        if call("lattice.graph_signature", ms, pz.graph_signature, g) != 0:
            if stats:
                stats.verdict("not_slice", "signature")
            continue
        graphs.setdefault(graph_key(g), (g, ms))
    return graphs


def _check_search(chk, results, graphs, ref):
    """Status and node count per graph against the reference; witnesses by
    an independent Gram check."""
    table = {}
    for key, res in results.items():
        status = res.status.value
        table[key_text(key)] = [status, res.nodes]
        chk.expect(status != "inconclusive", "inconclusive on %s"
                   % key_text(key))
        if res:
            g = graphs[key][0]
            chk.expect(gram_ok(g.center_weight, g.legs, res.witness),
                       "witness fails -MM^T = Q on %s" % key_text(key))
        if ref:
            want = ref["graphs"].get(key_text(key))
            chk.expect(want == [status, res.nodes], "%s: %s/%d, reference %r"
                       % (key_text(key), status, res.nodes, want))
    if ref:
        missing = set(ref["graphs"]) - set(table)
        chk.expect(not missing, "%d reference graphs not built"
                   % len(missing), len(missing))
    return table


def search_workload(pz, size, seed, trace, seconds, ref, workdir):
    chk = Check()
    setup_tracer, stats = Tracer(), Stats()
    if trace:
        setup = 0.0
        graphs = build_candidates(pz, size, setup_tracer, stats)
    else:
        startup = startup_seconds()
        build, graphs = median_setup(lambda: build_candidates(pz, size))
        setup = startup + build
    order = sorted(graphs)
    random.Random(seed).shuffle(order)

    def one_pass():
        lat, results = [], {}
        t0 = time.perf_counter()
        for key in order:
            a = time.perf_counter()
            results[key] = pz.find_embedding(graphs[key][0])
            lat.append(time.perf_counter() - a)
        return time.perf_counter() - t0, lat, results

    def check_warm(cold_results, results):
        chk.attempted += len(results)
        bad = sum(res != cold_results[key] for key, res in results.items())
        chk.expect(bad == 0, "%d warm results differ from cold" % bad, bad)

    cold, warms = timed_passes(one_pass, seconds, not trace, check_warm)
    chk.attempted += len(order)
    table = _check_search(chk, cold[2], graphs, ref)
    info = {"graphs": len(graphs), "passes": 1 + len(warms),
            "cold_s": cold[0], "warm_s": [w[0] for w in warms],
            "ranks": [min(g.rank for g, _ in graphs.values()),
                      max(g.rank for g, _ in graphs.values())]}
    reference = {"max_strands": size["max_strands"],
                 "max_param": size["max_param"], "graphs": table}
    if not trace:
        return Outcome(chk, end_to_end(len(order), cold, warms, setup),
                       info, reference)

    tr = Tracer()
    t0 = time.perf_counter()
    with spans_inside_search(pz, tr):
        replayed = {}
        for key in order:
            g = graphs[key][0]
            replayed[key] = res = tr.call("lattice.find_embedding",
                                          key_text(key), pz.find_embedding, g)
            stats.search(g, res)
    traced = time.perf_counter() - t0
    chk.attempted += len(replayed)
    for key, res in replayed.items():
        chk.expect(res == cold[2][key], "replay differs on %s" % key_text(key))

    metrics = layer_metrics([setup_tracer, tr], tr, stats, cold[0], traced)
    return Outcome(chk, metrics, info, reference, [setup_tracer, tr])


# ---------------------------------------------------------------------------
# analyze-random: seeded random knots through classify.analyze

OVERSAMPLE = 4          # analyze-random draws this many knots per knot kept


def graph_rank(pz, params):
    """Rank of the knot's negative definite graph, without building it: the
    center, one vertex per negative leg and w - 1 per leg w >= 2, after
    mirroring to e(Y) < 0 (the construction in plumbing.py)."""
    pn = pz.normalize(params)
    if pz.euler_number(pn) > 0:
        pn = pz.mirror(pn)
    return 1 + sum(w - 1 if w >= 2 else 1 for w in pn if abs(w) != 1)


def random_knots(pz, seed, size):
    """size["knots"] random knot parameter lists of 3..size["max_strands"]
    strands with 0 < |p_i| <= size["max_param"].  Links and lists that
    cancel completely are dropped and drawn again, which favours few strands.

    The latency tail follows the graph rank, so the sample is stratified on
    it to keep the tail the same from seed to seed: OVERSAMPLE times as many
    knots are drawn, sorted by rank, and every OVERSAMPLE-th is kept from a
    random offset (systematic sampling).  The kept list is shuffled."""
    rng = random.Random(seed)
    values = [v for v in range(-size["max_param"], size["max_param"] + 1)
              if v]
    pool = []
    while len(pool) < size["knots"] * OVERSAMPLE:
        p = tuple(rng.choice(values)
                  for _ in range(rng.randint(3, size["max_strands"])))
        if pz.classify_type(p) is pz.Kind.LINK:
            continue
        try:
            pool.append((graph_rank(pz, p), p))
        except ValueError:      # cancels completely
            continue
    pool.sort(key=lambda rp: rp[0])
    out = [p for _, p in pool[rng.randrange(OVERSAMPLE)::OVERSAMPLE]]
    rng.shuffle(out)
    return out


def _verdict_row(v):
    rep = v.obstructions
    return (v.status.value, v.reason, rep.det_value, rep.signature)


def check_verdicts(pz, chk, knots, verdicts):
    """(rows, digests) of analyze() verdicts: (status, reason, det, sigma)
    per knot, and a digest of the rows per block of DIGEST_BLOCK knots, which
    is what the reference stores.  First the checks that need no reference:
    closed-form determinant, a reason consistent with det and sigma, and
    witnesses by a Gram check."""
    for p, v in zip(knots, verdicts):
        rep = v.obstructions
        det, sig = rep.det_value, rep.signature
        square = math.isqrt(det) ** 2 == det
        chk.expect(det == pretzel_determinant(p), "det %d wrong for %r"
                   % (det, p))
        chk.expect(v.status.value != "inconclusive", "inconclusive %r" % (p,))
        chk.expect((v.reason == "determinant") == (not square)
                   and (v.reason != "signature" or sig != 0)
                   and (v.reason != "donaldson"
                        or (square and sig == 0)),
                   "reason %s inconsistent for %r" % (v.reason, p))
        don = rep.donaldson
        if don:
            g = pz.negative_definite_graph(tuple(sorted(v.normalized)))
            chk.expect(gram_ok(g.center_weight, g.legs, don.witness),
                       "witness fails -MM^T = Q for %r" % (p,))
    rows = [_verdict_row(v) for v in verdicts]
    digests = []
    for i in range(0, len(rows), DIGEST_BLOCK):
        text = "\n".join("%s|%s|%d|%d" % r for r in rows[i:i + DIGEST_BLOCK])
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    return rows, digests


def analyze_reference(pz, seed, size):
    """(digests, check) of one seed, untimed: what record.py stores."""
    knots = random_knots(pz, seed, size)
    chk = Check()
    _, digests = check_verdicts(pz, chk, knots, [pz.analyze(p) for p in knots])
    return digests, chk


def analyze_workload(pz, size, seed, trace, seconds, ref, workdir):
    chk = Check()

    if trace:
        setup, knots = 0.0, random_knots(pz, seed, size)
    else:
        startup = startup_seconds()
        build, knots = median_setup(lambda: random_knots(pz, seed, size))
        setup = startup + build

    def one_pass():
        lat, verdicts = [], []
        t0 = time.perf_counter()
        for p in knots:
            a = time.perf_counter()
            verdicts.append(pz.analyze(p))
            lat.append(time.perf_counter() - a)
        return time.perf_counter() - t0, lat, verdicts

    def check_warm(cold_verdicts, verdicts):
        chk.attempted += len(verdicts)
        bad = sum(_verdict_row(a) != _verdict_row(b)
                  for a, b in zip(verdicts, cold_verdicts))
        chk.expect(bad == 0, "%d warm verdicts differ from cold" % bad, bad)

    cold, warms = timed_passes(one_pass, seconds, not trace, check_warm)
    chk.attempted += len(knots)
    rows, digests = check_verdicts(pz, chk, knots, cold[2])
    want = (ref or {}).get("seeds", {}).get(str(seed))
    if want is not None:
        for i, (a, b) in enumerate(zip(digests, want)):
            chk.expect(a == b, "digest of knots %d..%d differs from the "
                       "reference" % (i * DIGEST_BLOCK,
                                      (i + 1) * DIGEST_BLOCK - 1),
                       len(rows[i * DIGEST_BLOCK:(i + 1) * DIGEST_BLOCK]))
        chk.expect(len(digests) == len(want), "digest count differs")
    info = {"knots": len(knots), "passes": 1 + len(warms),
            "cold_s": cold[0], "warm_s": [w[0] for w in warms],
            "reference": "checked" if want is not None else
            "no reference digest for this seed; independent checks only"}
    reference = {"seed": seed, "blocks": digests}
    if not trace:
        return Outcome(chk, end_to_end(len(knots), cold, warms, setup),
                       info, reference)

    tr, stats = Tracer(), Stats()
    t0 = time.perf_counter()
    with spans_inside_search(pz, tr):
        replayed = [replay_analyze(pz, tr, p, i, None, stats)
                    for i, p in enumerate(knots)]
    traced = time.perf_counter() - t0
    chk.attempted += len(replayed)
    bad = sum(a != b for a, b in zip(replayed, rows))
    chk.expect(bad == 0, "%d replayed verdicts differ" % bad, bad)

    metrics = layer_metrics([tr], tr, stats, cold[0], traced)
    return Outcome(chk, metrics, info, reference, [tr])


WORKLOADS = {
    "enum-8x7": enum_workload,
    "search-5x15": search_workload,
    "analyze-random": analyze_workload,
}
