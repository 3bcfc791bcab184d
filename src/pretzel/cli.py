"""
pretzelc: command-line front end.

Subcommands:
  analyze    full verdict for one parameter list (human text or --json)
  embed      Donaldson embedding witness or exhaustion certificate
  graph      negative definite plumbing graph as DOT, Wu set highlighted
  enumerate  bounded enumeration of mutation classes with a CSV/JSONL report

Exit codes: 0 = verdict produced, 2 = input error (malformed, zero
parameter, a parameter string that expands to more than 4,000 parameters,
link where a knot is required, a parameter too large to build
its graph (|q| > sys.maxsize, or a negative definite graph of rank above
plumbing.MAX_GRAPH_RANK = 4000, refused while the graph is built, before
the leg past the bound is allocated), unwritable output, bad or unreadable
cache file, bad cache directory, enumeration bounds too small, node limit or
--jobs not a positive integer), 3 = search gave up at the node limit.
One node-limit rule: --node-limit (default PRETZELC_NODE_LIMIT, else no
limit) caps the search the same way in analyze, embed and enumerate, at any
rank.

JSON schema of an analysis record (all keys always present):
  input str, params [int], kind str, fibered str, subcase str,
  det int, det_square bool, sigma int,
  donaldson str (embeddable|not_embeddable|inconclusive|skipped),
  witness [[int]]|null, nodes int,
  family str|null, family_pairs [int]|null, family_k int|null,
  family_t int|null, family_mirrored bool|null, all_families [str],
  exceptional bool, detectably_ribbon bool,
  status str, reason str|null, ms int
Enumeration rows use the fixed CSV header
  class_key,kind,subcase,fibered,det,det_square,sigma,donaldson,family,
  exceptional,status,nodes,ms
with ms pinned to 0 so that reports are byte-identical for fixed inputs
regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections import ChainMap, Counter

from .core import classify_type, parse_params
from .classify import Status, analyze, class_record, knot_classes
from .lattice import (DonaldsonStatus, EmbeddingResult, SearchConfig,
                      find_embedding, wu_vertices)
from .plumbing import negative_definite_graph, to_dot


class _InputError(Exception):
    """Bad input: main prints "error: <message>" and exits 2."""


def _node_limit_from(args):
    """--node-limit, else PRETZELC_NODE_LIMIT, else None; a value that is
    not a positive integer is an input error."""
    text = args.node_limit
    if text is None:
        text = os.environ.get("PRETZELC_NODE_LIMIT") or None
    if text is None:
        return None
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit <= 0:
        raise _InputError("node limit must be a positive integer, got '%s'"
                          % text)
    return limit


def _params(text):
    """The parameters of text; an input error when text is not a knot whose
    graph can be built.  A parameter q becomes a leg of up to |q| - 1
    vertices (q or -q, by the mirror), and no tuple is longer than
    sys.maxsize."""
    try:
        params = parse_params(text)
        if not classify_type(params).is_knot():
            raise ValueError("%s is a pretzel link, not a knot" % text)
        too_big = [x for x in params if abs(x) > sys.maxsize]
        if too_big:
            raise ValueError("parameter %d is too large: |q| above "
                             "sys.maxsize gives no plumbing graph"
                             % too_big[0])
        return params
    except ValueError as exc:
        raise _InputError(exc)


def _knot(text):
    """The negative definite graph of the parameters of text, each bad
    input an input error.  negative_definite_graph refuses a rank above
    MAX_GRAPH_RANK before it builds the leg past it."""
    params = _params(text)
    try:
        return negative_definite_graph(params)
    except ValueError as exc:
        raise _InputError(exc)


def record_to_json(verdict, ms_elapsed) -> dict:
    """The analysis record of a knot's verdict: the --json object, and the
    one source of analyze's text."""
    rep = verdict.obstructions
    fam = verdict.family
    don = rep.donaldson
    return {
        "input": ",".join(str(x) for x in verdict.params),
        "params": list(verdict.normalized),
        "kind": verdict.kind.value,
        "fibered": verdict.fibered.status.value,
        "subcase": verdict.fibered.subcase.value,
        "det": rep.det_value,
        "det_square": rep.det_is_square,
        "sigma": rep.signature,
        "donaldson": don.status.value if don is not None else "skipped",
        "witness": [list(r) for r in don.witness]
        if don and don.witness else None,
        "nodes": don.nodes if don is not None else 0,
        "family": fam.tag if fam else None,
        "family_pairs": list(fam.pairs) if fam else None,
        "family_k": fam.k if fam else None,
        "family_t": fam.t if fam else None,
        "family_mirrored": fam.mirrored if fam else None,
        "all_families": [f.tag for f in verdict.all_families],
        "exceptional": verdict.exceptional,
        "detectably_ribbon": verdict.detectably_ribbon,
        "status": verdict.status.value,
        "reason": verdict.reason,
        "ms": ms_elapsed,
    }


def _family_text(rec):
    """The family line of analyze's text, from an analysis record."""
    if rec["family"] is None:
        return "none"
    bits = [rec["family"]]
    if rec["family_pairs"]:
        bits.append("pairs " + ",".join(map(str, rec["family_pairs"])))
    if rec["family_k"] is not None:
        bits.append("k=%(family_k)d" % rec)
    if rec["family_t"] is not None:
        bits.append("t=%(family_t)d" % rec)
    if rec["family_mirrored"]:
        bits.append("mirrored")
    return " ".join(bits)


def cmd_analyze(args):
    params = _params(args.params)
    limit = _node_limit_from(args)
    start = time.monotonic()
    try:
        verdict = analyze(params, node_limit=limit)
    except ValueError as exc:   # the graph's rank bound, checked as it builds
        raise _InputError(exc)
    rec = record_to_json(verdict, int((time.monotonic() - start) * 1000))
    if args.json:
        print(json.dumps(rec, sort_keys=True))
    else:
        print("P(%s)" % ",".join(map(str, rec["params"])))
        print("  kind:       %(kind)s" % rec)
        print("  fibered:    %(fibered)s (%(subcase)s)" % rec)
        print("  det:        %d (%ssquare)"
              % (rec["det"], "" if rec["det_square"] else "non-"))
        print("  signature:  %(sigma)d" % rec)
        print("  donaldson:  %(donaldson)s" % rec)
        print("  family:     %s" % _family_text(rec))
        print("  exceptional: %(exceptional)s" % rec)
        print("  detectably ribbon: %(detectably_ribbon)s" % rec)
        tail = " (%(reason)s)" % rec if rec["reason"] else ""
        print("  status:     %s%s" % (rec["status"], tail))
    return 0 if rec["status"] != Status.INCONCLUSIVE.value else 3


def cmd_embed(args):
    g = _knot(args.params)
    limit = _node_limit_from(args)
    res = find_embedding(g, SearchConfig(node_limit=limit))
    if args.json:
        print(json.dumps({
            "status": res.status.value,
            "witness": [list(r) for r in res.witness] if res.witness else None,
            "nodes": res.nodes,
        }, sort_keys=True))
    elif res.status is DonaldsonStatus.EMBEDDABLE:
        for row in res.witness:
            print(" ".join("%3d" % x for x in row))
    elif res.status is DonaldsonStatus.NOT_EMBEDDABLE:
        print("NO EMBEDDING (%d nodes searched)" % res.nodes)
    if res.status is DonaldsonStatus.INCONCLUSIVE:
        if not args.json:
            print("INCONCLUSIVE (%d nodes searched, limit %d)"
                  % (res.nodes, limit))
        return 3
    return 0


def cmd_graph(args):
    g = _knot(args.params)
    print(to_dot(g, wu_vertices(g)))
    return 0


# ---------------------------------------------------------------------------
# enumeration with report files and a result cache

CSV_HEADER = ("class_key,kind,subcase,fibered,det,det_square,sigma,"
              "donaldson,family,exceptional,status,nodes,ms")


def _report_fields(rec):
    """The report's columns of rec, in CSV_HEADER order, as JSON values."""
    return (list(rec.class_key), rec.kind.value, rec.subcase.value,
            rec.fiberable, rec.det, rec.det_square, rec.sigma,
            rec.donaldson, rec.family, rec.exceptional, rec.status.value,
            rec.nodes, 0)


def _csv_row(rec) -> str:
    key, *cells = _report_fields(rec)
    return ",".join([" ".join(map(str, key))] + [
        "true" if v is True else "false" if v is False else str(v)
        for v in cells])


def _jsonl_row(rec) -> str:
    return json.dumps(dict(zip(CSV_HEADER.split(","), _report_fields(rec))),
                      sort_keys=True)


def _cache_path(directory):
    return os.path.join(directory, "donaldson-cache.jsonl")


def _int(value):
    """value, when it is a JSON integer (not a bool); else ValueError."""
    if type(value) is not int:
        raise ValueError("not an integer: %r" % (value,))
    return value


def _int_rows(value):
    """A JSON list of integer lists as a tuple of tuples; else ValueError."""
    if not isinstance(value, list) or \
            not all(isinstance(row, list) for row in value):
        raise ValueError("not a list of integer lists: %r" % (value,))
    return tuple(tuple(map(_int, row)) for row in value)


def _load_cache(directory):
    """Cached search results; an input error when the cache file cannot
    be opened or has a malformed line."""
    cache = {}
    path = _cache_path(directory)
    if not os.path.exists(path):
        return cache
    try:
        fh = open(path, "rb")   # json.loads decodes, inside the try
    except OSError as exc:
        raise _InputError("cannot read cache file %s: %s" % (path, exc))
    with fh:
        for n, line in enumerate(fh, 1):
            try:
                obj = json.loads(line)
                key = (_int(obj["center"]), _int_rows(obj["legs"]))
                rows = obj["witness"]
                witness = None if rows is None else _int_rows(rows)
                res = EmbeddingResult(DonaldsonStatus(obj["status"]),
                                      witness or None, _int(obj["nodes"]))
                if (res.status is DonaldsonStatus.EMBEDDABLE) != bool(witness):
                    raise ValueError("a witness belongs to exactly the "
                                     "embeddable entries")
            except (ValueError, KeyError, TypeError) as exc:
                raise _InputError("bad cache file %s line %d: %s"
                                  % (path, n, exc))
            # a search that gave up at a node limit decides nothing
            if res.status is not DonaldsonStatus.INCONCLUSIVE:
                cache[key] = res
    return cache


def _save_cache(directory, cache):
    """Write every entry, sorted, to a temporary file and rename it over
    the cache file, so an interrupted save leaves the old file whole.  The
    cache holds decided searches only (classify._donaldson stores no
    INCONCLUSIVE), so a later run with a higher node limit searches
    again."""
    path = _cache_path(directory)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for key, res in sorted(cache.items()):
            fh.write(json.dumps({
                "center": key[0], "legs": [list(leg) for leg in key[1]],
                "status": res.status.value,
                "witness": [list(r) for r in res.witness]
                if res.witness else None,
                "nodes": res.nodes,
            }, sort_keys=True) + "\n")
    os.replace(tmp, path)


_WORKER_CACHE: dict | None = None


def _init_worker(cache):
    global _WORKER_CACHE
    _WORKER_CACHE = cache


def _worker(task):
    """A class's record and the cache entries its search added.  The
    entries go to a fresh dict in front of the loaded cache; no two
    classes of one enumeration share a graph, so no later class of this
    worker would have read them."""
    ms, node_limit = task
    new = {}
    rec = class_record(ms, node_limit=node_limit,
                       cache=ChainMap(new, _WORKER_CACHE))
    return rec, new


def cmd_enumerate(args):
    if args.jobs < 1:
        raise _InputError("--jobs must be a positive integer, got %d"
                          % args.jobs)
    node_limit = _node_limit_from(args)
    if args.cache:
        try:
            os.makedirs(args.cache, exist_ok=True)
        except OSError as exc:
            raise _InputError("cannot create cache directory %s: %s"
                              % (args.cache, exc))
    cache = _load_cache(args.cache) if args.cache else {}
    try:
        classes = sorted(knot_classes(args.max_strands, args.max_param))
    except ValueError as exc:
        raise _InputError(exc)

    records = []
    if args.jobs > 1:
        # imported here, the one place that uses it, so that no other
        # command pays for importing it
        import multiprocessing
        todo = [(ms, node_limit) for ms in classes]
        with multiprocessing.Pool(args.jobs, initializer=_init_worker,
                                  initargs=(cache,)) as pool:
            for rec, new in pool.imap(_worker, todo, chunksize=16):
                records.append(rec)
                cache.update(new)
    else:
        for ms in classes:
            records.append(class_record(ms, node_limit=node_limit,
                                        cache=cache))

    head, row = (([CSV_HEADER], _csv_row) if args.format == "csv"
                 else ([], _jsonl_row))
    text = "\n".join(head + [row(rec) for rec in records]) + "\n"

    # the cache first: a run that exits 2 leaves no report behind
    if args.cache:
        try:
            _save_cache(args.cache, cache)
        except OSError as exc:
            raise _InputError("cannot write cache file %s: %s"
                              % (_cache_path(args.cache), exc))

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _InputError("cannot write %s: %s" % (args.out, exc))
    else:
        sys.stdout.write(text)

    counts = Counter(rec.status.value for rec in records)
    summary = " ".join("%s=%d" % kv for kv in sorted(counts.items()))
    print("enumerated %d classes: %s" % (len(records), summary),
          file=sys.stderr)
    return 0


def _allow_leading_minus(parser):
    # parameter strings like "-1,-1,2,3,-5" are positionals, not flags
    parser._negative_number_matcher = re.compile(r"^-\d")
    return parser


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pretzelc",
        description="pretzel knots: type, fiberedness, slice obstructions")
    sub = ap.add_subparsers(dest="command", required=True)

    a = _allow_leading_minus(sub.add_parser("analyze", help="full verdict for one knot"))
    a.add_argument("params")
    a.add_argument("--json", action="store_true")
    a.add_argument("--node-limit", default=None)
    a.set_defaults(func=cmd_analyze)

    e = _allow_leading_minus(sub.add_parser("embed", help="Donaldson embedding witness"))
    e.add_argument("params")
    e.add_argument("--node-limit", default=None)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_embed)

    g = _allow_leading_minus(sub.add_parser("graph", help="negative definite graph as DOT"))
    g.add_argument("params")
    g.set_defaults(func=cmd_graph)

    n = _allow_leading_minus(sub.add_parser("enumerate", help="bounded enumeration report"))
    n.add_argument("--max-strands", type=int, required=True)
    n.add_argument("--max-param", type=int, required=True)
    n.add_argument("--out", default=None)
    n.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    n.add_argument("--jobs", type=int, default=1)
    n.add_argument("--cache", default=None)
    n.add_argument("--node-limit", default=None)
    n.set_defaults(func=cmd_enumerate)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
