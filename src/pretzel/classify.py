"""
Slice obstructions and the fibered-ribbon families.

One class pipeline serves both entry points.  It takes the sorted,
normalized multiset of a mutation class, classifies it, and stacks the
sliceness obstructions in increasing cost: the determinant must be a
perfect square, the signature must vanish, and the negative definite graph
must embed in the standard diagonal lattice (Donaldson).  A knot failing
any of them is NotSlice; a knot passing all of them is matched against the
known fibered-ribbon families:

  F1: {1,1,1,1,-3,-3,-3}                    (the knot 10_75, up to mirror)
  F2: {q_1,-q_1,...,q_r,-q_r, k}            q_i >= 3 odd, k even, r >= 1
  F3: {1, 3, t+1, -4-t} + pairs {q,-q}      q_i >= 3 odd, r,t >= 0
  F4: {k, -k-1} + pairs {q,-q}              q_i >= 3 odd, 1 < k < q_i

all up to mirror and reordering.  No base holds a pair {q, -q}, and
neither does the exceptional triple below.  So a multiset is a base plus
pairs in at most one way: the base is its pair-free core, what is left
once every pair {q, -q} is taken out.  The matchers split a multiset once
and read the base off its core.  Family membership is reported as
RibbonKnown; vanishing obstructions without a family match are reported
honestly as ObstructionsVanish, never as "slice" (mutants with the right
multiset in the wrong order can have all cover-derived obstructions vanish
yet fail to be slice).  Once parameters reach 8 in absolute value these
include fiberable classes that match no family: (3, -5, -8) plus pairs
{q, -q}, and from |q| = 12 on (3, -5, -12) plus pairs.  At 9 strands and
|q| <= 9 all 35 of them are (3, -5, -8), with zero, one, two or three
pairs in 1, 4, 10 and 20 classes.

The exceptional family, pairs plus the triple (a, -a-2, -(a+1)^2/2) with
a = 1 or 97 mod 120, has so far resisted classification; those classes are
reported as Exceptional and left undecided.

analyze() normalizes one parameter list, runs the class pipeline on its
sorted multiset and adds the two verdicts that depend on the order: Gabai
fiberedness of that ordering and the adjacent-pair ribbon move.
class_record() runs the class pipeline once per class and computes
class-level fiberedness only (is some ordering fibered?), so it needs
neither of the ordered verdicts.

This module owns the Donaldson cache that enumerate --cache keeps between
runs: the key (centre weight and sorted legs, shared by mutants and
mirrors), the order of a witness's rows (_key_order), the rule that only
decided searches are kept (_remember), and the file, donaldson-cache.jsonl,
one JSON line per entry (_cache_line), sorted, saved whole by a rename.
Each line read is checked (_cache_entry): its fields have their types, a
witness comes with exactly the embeddable entries and embeds its key's
graph, and a not_embeddable key is a graph the search runs on, with no
empty leg, negative definite, of square |det| and signature 0.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
from dataclasses import dataclass
from enum import Enum

from .core import Kind, MutationClass, as_params, classify_type, normalize
from .fibered import (FiberStatus, FiberVerdict, Subcase, _class_fiberable,
                      _decide)
from .lattice import (DonaldsonStatus, EmbeddingResult, SearchConfig,
                      find_embedding, graph_signature, verify_embedding)
from .plumbing import (StarGraph, _eliminate_leaves, _graph_and_determinant,
                       _leg_ranges)


class Status(Enum):
    RIBBON_KNOWN = "ribbon_known"
    NOT_SLICE = "not_slice"
    EXCEPTIONAL = "exceptional"
    OBSTRUCTIONS_VANISH = "obstructions_vanish"
    NOT_APPLICABLE = "not_applicable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ObstructionReport:
    det_value: int
    det_is_square: bool
    signature: int
    donaldson: EmbeddingResult | None  # None when short-circuited

    @property
    def all_pass(self):
        return (self.det_is_square and self.signature == 0
                and self.donaldson is not None and bool(self.donaldson))


@dataclass(frozen=True)
class RibbonFamily:
    tag: str                       # "F1".."F4"
    pairs: tuple[int, ...] = ()    # positive pair representatives q_i
    k: int | None = None           # F2 even parameter / F4 k
    t: int | None = None           # F3 twist parameter
    mirrored: bool = False


@dataclass(frozen=True)
class Verdict:
    params: tuple[int, ...]
    normalized: tuple[int, ...]
    kind: Kind
    fibered: FiberVerdict
    obstructions: ObstructionReport | None
    family: RibbonFamily | None
    all_families: tuple[RibbonFamily, ...]
    exceptional: bool
    detectably_ribbon: bool
    status: Status
    reason: str | None = None


# ---------------------------------------------------------------------------
# ribbon family matching

_F1 = (-3, -3, -3, 1, 1, 1, 1)


def _split(ms) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(core, pairs) of the multiset ms, both sorted.  Every pair {q, -q}
    of ms is taken out and recorded in pairs as its q > 0, so the core, the
    rest, holds no such pair.  One count and one sort of the distinct
    values keep it O(n log n) on long lists."""
    count = {}
    for x in ms:
        count[x] = count.get(x, 0) + 1
    core, pairs = [], []
    for x in sorted(count):
        n = min(count[x], count.get(-x, 0))
        core += [x] * (count[x] - n)
        if x > 0:
            pairs += [x] * n
    return tuple(core), tuple(pairs)


def _base(core) -> tuple[str, int | None, int | None] | None:
    """(tag, k, t) of the F1..F4 base that the sorted tuple core is, or
    None.  The least entry of an F4 base is -k-1 and that of an F3 base
    -4-t, so it fixes the rest of the base."""
    if core == _F1:
        return "F1", None, None
    if len(core) == 1 and core[0] % 2 == 0:
        return "F2", core[0], None
    k = -core[0] - 1 if core else 0
    if k > 1 and core[1:] == (k,):
        return "F4", k, None
    if k >= 3 and core[1:] == tuple(sorted((1, 3, k - 2))):
        return "F3", None, k - 3
    return None


def _sides(core):
    """The sorted core and its sorted mirror."""
    return core, tuple(-x for x in reversed(core))


def match_family(c: MutationClass) -> tuple[RibbonFamily | None,
                                            tuple[RibbonFamily, ...]]:
    """All family matches of a mutation class, tried on the multiset and its
    mirror; the primary match is the first in tag order F1 < F2 < F3 < F4."""
    return _families(*_split(as_params(c.multiset)))


def _families(core, pairs):
    """match_family of the multiset split into core and pairs.  Only F2's
    base {k} reads as a base on both sides, so the unmirrored match comes
    first in tag order without a sort."""
    found = []
    if all(q >= 3 and q % 2 for q in pairs):
        for mirrored, side in zip((False, True), _sides(core)):
            tag, k, t = _base(side) or (None, None, None)
            if tag is None or (tag == "F1" and pairs) \
                    or (tag == "F2" and not pairs) \
                    or (tag == "F4" and pairs and pairs[0] <= k):
                continue
            found.append(RibbonFamily(tag, pairs, k, t, mirrored))
    return (found[0] if found else None), tuple(found)


def is_exceptional(c: MutationClass) -> bool:
    """Pairs {p, -p} plus a triple (a, -a-2, -(a+1)^2/2), a = 1 or 97
    mod 120, up to mirror and reordering."""
    return classify_type(c.multiset) is Kind.TYPE2 and \
        _exceptional_triple(_split(c.multiset)[0])


def _exceptional_triple(core) -> bool:
    """is_exceptional of a Type 2 multiset, read off its pair-free core:
    the core or its mirror is the triple, whose positive entry a is its
    greatest."""
    return any(len(side) == 3 and (a := side[2]) % 120 in (1, 97) and
               side == tuple(sorted((a, -a - 2, -((a + 1) ** 2) // 2)))
               for side in _sides(core))


# ---------------------------------------------------------------------------
# the adjacent-pair ribbon move

def detectably_ribbon_reduce(params) -> tuple[int, ...]:
    """Cancel cyclically adjacent parameter pairs (q, -q) with |q| >= 2,
    leftmost first, until no such pair remains.

    Each cancellation is realized by a ribbon band move on the standard
    diagram, so reaching a base form certifies a ribbon disk.  Leftmost
    first takes every pair inside the list before the pair that wraps from
    the last entry to the first.  Cancelling inside a list is confluent
    (where two pairs overlap, as in q, -q, q, either leaves q), so one
    stack pass reaches the one fully cancelled list.  That list holds no
    pair inside it, nor does what remains after the wrap pair goes, so
    only wrap pairs fire from then on: the matching ends are trimmed.
    """
    p = []
    for x in as_params(params):
        if p and abs(x) >= 2 and p[-1] == -x:
            p.pop()
        else:
            p.append(x)
    i, j = 0, len(p) - 1
    while i < j and abs(p[i]) >= 2 and p[i] == -p[j]:
        i, j = i + 1, j - 1
    return tuple(p[i:j + 1])


def is_detectably_ribbon(params) -> bool:
    """The adjacent-pair ribbon move reduces params to a family base (or
    its mirror) with nothing left over."""
    p = tuple(sorted(detectably_ribbon_reduce(params)))
    return any(_base(side) for side in _sides(p))


# ---------------------------------------------------------------------------
# the pipeline

def analyze(params, node_limit: int | None = None) -> Verdict:
    """Full verdict for one parameter list: the facts of its mutation class
    (_class_facts) plus the two verdicts that depend on the order, Gabai
    fiberedness and the adjacent-pair ribbon move."""
    p = as_params(params)
    if classify_type(p) is Kind.LINK:
        return Verdict(p, p, Kind.LINK,
                       FiberVerdict(FiberStatus.NOT_A_KNOT, Subcase.NONE),
                       None, None, (), False, False, Status.NOT_APPLICABLE,
                       reason="link")
    pn = normalize(p)
    # normalizing can trade a Type 2 for a Type 3 knot, so pn is classified
    kind = classify_type(pn)
    report, family, all_fams, exceptional, status, reason = \
        _class_facts(tuple(sorted(pn)), kind, node_limit, None)
    return Verdict(p, pn, kind, _decide(pn, kind), report, family, all_fams,
                   exceptional, is_detectably_ribbon(pn), status, reason)


def _class_facts(ms, kind, node_limit, cache):
    """(ObstructionReport, primary family, all families, exceptional,
    status, reason) of the sorted, normalized multiset ms of the given
    kind, each computed once; the family and the exceptional flag read one
    split of ms into core and pairs.  The callers have validated ms as a
    knot, so the negative definite graph and the determinant come from one
    plumbing construction that does not validate again.

    NotSlice short-circuits before the embedding search whenever the
    determinant or the signature already obstructs.  The signature and the
    Donaldson search read one negative definite graph, built on the sorted
    parameters so that every mutant gets the same graph.
    """
    g, det = _graph_and_determinant(ms)
    det_square = math.isqrt(det) ** 2 == det
    sig = -graph_signature(g) if g.mirrored else graph_signature(g)
    core, pairs = _split(ms)
    family, all_fams = _families(core, pairs)
    exceptional = kind is Kind.TYPE2 and _exceptional_triple(core)

    donaldson = reason = None
    if not det_square:
        status, reason = Status.NOT_SLICE, "determinant"
    elif sig != 0:
        status, reason = Status.NOT_SLICE, "signature"
    else:
        donaldson = _donaldson(g, node_limit, cache)
        if donaldson.status is DonaldsonStatus.NOT_EMBEDDABLE:
            status, reason = Status.NOT_SLICE, "donaldson"
        elif donaldson.status is DonaldsonStatus.INCONCLUSIVE:
            status, reason = Status.INCONCLUSIVE, "node limit hit"
        elif exceptional:
            status = Status.EXCEPTIONAL
        elif family is not None:
            status = Status.RIBBON_KNOWN
        else:
            status = Status.OBSTRUCTIONS_VANISH
    report = ObstructionReport(det, det_square, sig, donaldson)
    return report, family, all_fams, exceptional, status, reason


def _donaldson(g, node_limit, cache):
    """Embedding search on the negative definite graph g, memoized under
    its center weight and sorted legs, which mutants and mirrors share
    (_remember keeps decided results only).  A witness is stored as one
    for the key's graph, StarGraph(*key), and handed back in g's vertex
    order; both are row permutations of M."""
    if cache is None:
        return find_embedding(g, SearchConfig(node_limit=node_limit))
    key = (g.center_weight, tuple(sorted(g.legs)))
    order = _key_order(g)   # row i of the key's graph is vertex order[i]
    res = cache.get(key)
    if res is not None:
        rows = res.witness and tuple(
            r for _, r in sorted(zip(order, res.witness)))
        return EmbeddingResult(res.status, rows, res.nodes)
    res = find_embedding(g, SearchConfig(node_limit=node_limit))
    rows = res.witness and tuple(res.witness[v] for v in order)
    _remember(cache, key, EmbeddingResult(res.status, rows, res.nodes))
    return res


def _key_order(g):
    """The vertices of g in the order of its cache key's graph: the centre,
    then the legs sorted by their weights, each from the centre out."""
    ranges = _leg_ranges(g)
    legs = sorted(range(len(ranges)), key=g.legs.__getitem__)
    return [0, *itertools.chain.from_iterable(ranges[i] for i in legs)]


def _remember(cache, key, res):
    """Store a decided result only: a search that stopped at a node limit
    must run again for a caller with a higher limit or none."""
    if res.status is not DonaldsonStatus.INCONCLUSIVE:
        cache[key] = res


# ---------------------------------------------------------------------------
# the Donaldson cache file: one JSON line per entry, sorted by key

def _cache_path(directory):
    """The cache file of a cache directory."""
    return os.path.join(directory, "donaldson-cache.jsonl")


def _cache_line(key, res) -> str:
    """The line of the cache file, without its newline, that holds the
    entry key: res."""
    witness = res.witness and list(map(list, res.witness))
    return json.dumps({"center": key[0], "legs": list(map(list, key[1])),
                       "status": res.status.value, "witness": witness or None,
                       "nodes": res.nodes}, sort_keys=True)


def _cache_entry(line):
    """The entry (key, result) of one line of a cache file, checked.  A
    line the package could not have written raises ValueError, KeyError,
    TypeError, ArithmeticError or RecursionError (a nesting too deep to
    decode).  A witness belongs to exactly the embeddable entries and must
    embed its key's graph; a not_embeddable key must be a graph the
    search runs on (_searchable)."""
    obj = json.loads(line)
    key = (_int(obj["center"]), _int_rows(obj["legs"]))
    rows = obj["witness"]
    witness = None if rows is None else _int_rows(rows)
    res = EmbeddingResult(DonaldsonStatus(obj["status"]), witness or None,
                          _int(obj["nodes"]))
    if (res.status is DonaldsonStatus.EMBEDDABLE) != bool(witness):
        raise ValueError("a witness belongs to exactly the embeddable entries")
    if witness and not verify_embedding(StarGraph(*key), witness):
        raise ValueError("the witness does not embed the graph of its key")
    if res.status is DonaldsonStatus.NOT_EMBEDDABLE and \
            not _searchable(StarGraph(*key)):
        raise ValueError("the key is not a graph the search runs on")
    return key, res


def _searchable(g) -> bool:
    """Whether _class_facts could search g: no leg is empty, g is negative
    definite, |det| is a square and the signature is 0.  O(rank)."""
    det, _, legs_negative = _eliminate_leaves(g)
    return all(g.legs) and legs_negative and det > 0 and \
        math.isqrt(det) ** 2 == det and graph_signature(g) == 0


def _int(value):
    """value, when it is a JSON integer (not a bool); else ValueError."""
    if type(value) is not int:
        raise ValueError("not an integer: %.80r" % (value,))
    return value


def _int_rows(value):
    """A JSON list of integer lists as a tuple of tuples; else ValueError.
    The types of a row's entries are checked as one set, in C."""
    if not isinstance(value, list) or not all(
            isinstance(row, list) and {int}.issuperset(map(type, row))
            for row in value):
        raise ValueError("not a list of integer lists: %.80r" % (value,))
    return tuple(map(tuple, value))


def _load_cache(path) -> dict:
    """The decided entries of the cache file at path; {} when there is
    none.  OSError when it cannot be read, and ValueError, naming the file
    and the line, at the first line _cache_entry refuses."""
    cache = {}
    if os.path.exists(path):
        with open(path, "rb") as fh:   # json.loads decodes, inside the check
            for n, line in enumerate(fh, 1):
                try:
                    _remember(cache, *_cache_entry(line))
                except (ValueError, KeyError, TypeError, ArithmeticError,
                        RecursionError) as exc:
                    raise ValueError("bad cache file %s line %d: %s"
                                     % (path, n, exc)) from None
    return cache


def _save_cache(path, cache):
    """Write every entry, sorted, to a temporary file and rename it over
    the cache file at path, so an interrupted save leaves the old file
    whole."""
    with open(path + ".tmp", "w") as fh:
        fh.writelines(_cache_line(*e) + "\n" for e in sorted(cache.items()))
    os.replace(path + ".tmp", path)


# ---------------------------------------------------------------------------
# desk-scale enumeration

def knot_classes(max_strands: int, max_abs_param: int):
    """Canonical representatives (sorted multisets, mirror-deduplicated) of
    all normalized pretzel-knot mutation classes within the bounds, ordered
    by strand count n and then lexicographically.

    Only candidates that can be knots are built.  A pretzel knot has at most
    one even parameter (classify_type), so the n-strand candidates are the
    all-odd multisets when n is odd (Type 1) and, for every n, each all-odd
    multiset of n - 1 strands with one even value merged into its sorted
    place (Types 2 and 3).  A candidate is kept when it is normalized (no
    opposite-sign unitaries, no (±1, ∓2) pair) and is not larger than its
    sorted mirror.  One strand count's keys are held at a time.
    """
    if max_strands < 3 or max_abs_param < 2:
        raise ValueError("bounds too small: need max_strands >= 3, "
                         "max_abs_param >= 2")
    values = range(-max_abs_param, max_abs_param + 1)
    odds = [v for v in values if v % 2]
    evens = [v for v in values if v and v % 2 == 0]

    def odd_bases(n):
        # the values ascend, so each combination is already a sorted tuple
        for base in itertools.combinations_with_replacement(odds, n):
            if not (1 in base and -1 in base):
                yield base

    def candidates(n):
        if n % 2:
            yield from odd_bases(n)
        for base in odd_bases(n - 1):
            for e in evens:
                if (e == -2 and 1 in base) or (e == 2 and -1 in base):
                    continue
                i = bisect.bisect(base, e)
                yield base[:i] + (e,) + base[i:]

    for n in range(3, max_strands + 1):
        keys = [ms for ms in candidates(n)
                if ms <= tuple(-x for x in reversed(ms))]
        keys.sort()
        yield from keys


@dataclass(frozen=True)
class ClassRecord:
    class_key: tuple[int, ...]
    kind: Kind
    subcase: Subcase
    fiberable: bool
    det: int
    det_square: bool
    sigma: int
    donaldson: str            # embeddable / not_embeddable / inconclusive / skipped
    family: str               # tag or ""
    exceptional: bool
    status: Status
    nodes: int


def class_record(ms, node_limit: int | None = None,
                 cache: dict | None = None) -> ClassRecord:
    """The report row of the mutation class of ms.  ms is normalized and
    classified first, once: fiberedness at class level (class_fiberable)
    and the rest (_class_facts) both read that one sorted, normalized key
    and its kind."""
    key = tuple(sorted(normalize(ms)))
    kind = classify_type(key)
    fiberable, subcase = _class_fiberable(key, kind)
    rep, family, _, exceptional, status, _ = _class_facts(
        key, kind, node_limit, cache)
    don = rep.donaldson
    searched = don is not None   # a NOT_EMBEDDABLE result is falsy
    return ClassRecord(
        class_key=ms, kind=kind, subcase=subcase, fiberable=fiberable,
        det=rep.det_value, det_square=rep.det_is_square, sigma=rep.signature,
        donaldson=don.status.value if searched else "skipped",
        family=family.tag if family else "", exceptional=exceptional,
        status=status, nodes=don.nodes if searched else 0)


def enumerate_classes(max_strands: int, max_abs_param: int,
                      node_limit: int | None = None,
                      cache: dict | None = None):
    """Stream one ClassRecord per mutation class, in canonical key order.
    No two classes of one enumeration share a negative definite graph, so
    only a cache passed in (one kept across runs) can save a search."""
    for ms in sorted(knot_classes(max_strands, max_abs_param)):
        yield class_record(ms, node_limit=node_limit, cache=cache)
