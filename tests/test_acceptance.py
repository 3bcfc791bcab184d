"""
Acceptance suite: every criterion as one test, each printing a PASS line.

The two enumeration-driven criteria share one bounded enumeration run
(session fixture) so the expensive Donaldson certificates are computed once.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import math
import random
import subprocess
import sys
import time

import pytest

import pretzel.lattice

from pretzel import (DonaldsonStatus, FiberStatus, SearchConfig,
                     SingularMod2Error, Status, Subcase, analyze,
                     bareiss_determinant, determinant, enumerate_classes,
                     find_embedding, graph_signature, incidence_matrix,
                     is_detectably_ribbon, is_exceptional, is_fibered,
                     match_family, mirror, mutation_class,
                     negative_definite_graph, signature, verify_embedding,
                     wu_vertices)
from pretzel.cli import CSV_HEADER, _csv_row
from pretzel.plumbing import StarGraph

from conftest import random_knot_params
from embedding_oracle import exhaustive_embedding
from family_scan_oracle import (is_detectably_ribbon_by_scan,
                                is_exceptional_by_scan, match_family_by_scan)
from goeritz_oracle import _goeritz_matrix, goeritz_signature
from gram_oracle import dense_verify_embedding
from test_lattice import (KNOWN_1075_ROWS, fresh_blocks_by_brute_force,
                          matches_up_to_canonical_symmetry,
                          random_gram_matrix, rank5_corpus_graphs)


def _ok(n, msg):
    print("ACCEPTANCE %d: PASS %s" % (n, msg))


# ---------------------------------------------------------------------------
# shared enumeration at the widest required bounds

# A node cap far above the largest search at 8x7 (153 nodes): a lost
# pruning rule then shows up as INCONCLUSIVE records, which
# test_search_work_on_8x7_certificates rejects, instead of a run that never
# ends.
FIXTURE_NODE_LIMIT = 2000


@pytest.fixture(scope="module")
def big_enumeration():
    cache = {}
    t0 = time.monotonic()
    records = list(enumerate_classes(8, 7, node_limit=FIXTURE_NODE_LIMIT,
                                     cache=cache))
    elapsed = time.monotonic() - t0
    return records, cache, elapsed


def has_unitary(ms):
    return 1 in ms or -1 in ms


# ---------------------------------------------------------------------------

def test_criterion_1_1075_pipeline():
    t0 = time.monotonic()
    v = analyze((1, 1, 1, 1, -3, -3, -3))
    elapsed = time.monotonic() - t0
    assert v.kind.value == "type1"
    assert v.fibered.status is FiberStatus.FIBERED
    assert v.obstructions.signature == 0
    assert v.obstructions.det_value == 81 == 9 ** 2
    assert v.obstructions.det_is_square
    don = v.obstructions.donaldson
    assert don.status is DonaldsonStatus.EMBEDDABLE
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    assert verify_embedding(g, don.witness)
    assert matches_up_to_canonical_symmetry(don.witness, KNOWN_1075_ROWS)
    assert v.family.tag == "F1"
    assert v.status is Status.RIBBON_KNOWN
    assert elapsed < 1.0
    _ok(1, "10_75 pipeline verdict complete in %.3fs" % elapsed)


def test_criterion_2_type1_uniqueness():
    t0 = time.monotonic()
    for m in range(1, 7):
        params = (1,) * (m + 1) + (-3,) * m
        res = find_embedding(negative_definite_graph(params))
        if m == 3:
            assert res.status is DonaldsonStatus.EMBEDDABLE, m
        else:
            # a NOT_EMBEDDABLE answer is only produced on full exhaustion
            assert res.status is DonaldsonStatus.NOT_EMBEDDABLE, m
            assert res.nodes > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok(2, "Type 1 family embeds exactly at m=3 (m=1..6, %.1fs)" % elapsed)


def test_criterion_3_fiberedness_vectors():
    expected = {
        (5, -5, 7, -7, 4): FiberStatus.FIBERED,
        (7, 5, -5, -7, 4): FiberStatus.NOT_FIBERED,
        (5, 7, -5, -7, 2): FiberStatus.NOT_FIBERED,
        (3, -7, 5, -5, 8): FiberStatus.FIBERED,
        (3, 5, -7, -5, 8): FiberStatus.NOT_FIBERED,
        (-3, 3, -3, 2): FiberStatus.FIBERED,
        (-3, 3, -3, 4): FiberStatus.NOT_FIBERED,
    }
    for p, want in expected.items():
        assert is_fibered(p).status is want, p
    # (7,-5,-7,5,4) is KNOWN-TENSION: claimed fibered by the source, but its
    # auxiliary link matches no model form under the declared comparison
    # moves; excluded from pass/fail (see test_fibered for the pin).
    _ok(3, "7 fiberedness vectors (KNOWN-TENSION vector excluded)")


def test_criterion_4_non_slice_propositions(big_enumeration):
    records, _, elapsed = big_enumeration
    assert analyze((1, 5, -3, -4)).status is Status.NOT_SLICE

    t2a = [r for r in records
           if r.fiberable and r.subcase is Subcase.T2A
           and has_unitary(r.class_key)]
    assert len(t2a) >= 3
    for r in t2a:
        assert r.status is Status.NOT_SLICE, r.class_key

    t3b = [r for r in records
           if r.fiberable and r.subcase is Subcase.T3B
           and has_unitary(r.class_key)]
    for r in t3b:
        assert r.status is Status.NOT_SLICE, r.class_key

    for r in records:
        if r.fiberable and has_unitary(r.class_key):
            assert r.subcase not in (Subcase.T2B, Subcase.T3C), r.class_key

    # Type 1 uniqueness at class level: among fibered Type 1 classes only
    # 10_75 survives the obstructions
    type1_alive = [r.class_key for r in records
                   if r.fiberable and r.subcase is Subcase.T1
                   and r.status is not Status.NOT_SLICE]
    assert type1_alive == [(-3, -3, -3, 1, 1, 1, 1)]

    # family instances are ribbon, so every obstruction must vanish on them
    for r in records:
        if r.family:
            assert r.det_square and r.sigma == 0, r.class_key
            assert r.donaldson == "embeddable", r.class_key

    assert elapsed < 600.0
    _ok(4, "non-slice propositions on %d classes: %d Type-2A and %d Type-3B "
           "fibered unitary classes all NotSlice, no 2B/3C (%.0fs)"
        % (len(records), len(t2a), len(t3b), elapsed))


def test_search_work_on_8x7_certificates(big_enumeration):
    # the enumeration caches one search per distinct graph; its node counts
    # pin the candidate order, and every certificate must survive with the
    # Wu prune switched off
    records, cache, _ = big_enumeration
    assert not [r.class_key for r in records
                if r.status is Status.INCONCLUSIVE]
    results = list(cache.values())
    assert len(results) == 385
    assert sum(r.nodes for r in results) == 7293
    assert max(r.nodes for r in results) == 153
    certificates = [key for key, r in cache.items()
                    if r.status is DonaldsonStatus.NOT_EMBEDDABLE]
    assert len(certificates) == 39
    ranks = set()
    for center, legs in certificates:
        g = StarGraph(center, legs)
        ranks.add(g.rank)
        res = find_embedding(g, SearchConfig(wu_pruning=False))
        assert res.status is DonaldsonStatus.NOT_EMBEDDABLE, (center, legs)
    assert (min(ranks), max(ranks)) == (9, 26)
    # the node counts do not pin which witness each search finds
    witnesses = sorted((key, r.witness) for key, r in cache.items()
                       if r.status is DonaldsonStatus.EMBEDDABLE)
    assert len(witnesses) == 346
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == \
        "cf0c642bffc4ffef08d2f426527fba4ea5bdbbd7d8e66b00e351bee96b2cbf38"


def record_enumerations(monkeypatch):
    """Patch the search to record every candidate enumeration of a row
    (from used column 0) as ((k, the used columns' entries as (row, entry)
    per column, the pairing each placed row needs, the norm), the vectors
    it yields).  The record enumerates a copy of the state, ahead of the
    search's own enumeration."""
    fill = pretzel.lattice._fill_used
    records = []

    def recording(vec, gap, support, prev_in_group, start, remaining):
        if start == 0:
            state = (len(vec), tuple(tuple((t, e) for t, e, _ in col)
                                     for col in support),
                     tuple(gap), remaining)
            records.append((state, [tuple(v) for v in fill(
                list(vec), list(gap), support, prev_in_group, 0,
                remaining)]))
        return fill(vec, gap, support, prev_in_group, start, remaining)
    monkeypatch.setattr(pretzel.lattice, "_fill_used", recording)
    return records


def vectors_of_norm_at_most(n, width):
    if width == 0:
        yield ()
        return
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        for rest in vectors_of_norm_at_most(n - a * a, width - 1):
            yield (a,) + rest


def is_candidate(x, k, columns, need, n):
    """Whether x is a candidate for a row of norm n meeting the placed rows
    in `columns`: its norm, its pairings, the fresh-block rule (the entries
    past the used columns are non-negative and non-increasing) and the
    column groups (used columns with equal entries in every placed row,
    whose entries may not increase)."""
    u = len(columns)
    pairing = [0] * len(need)
    for c, col in enumerate(columns):
        for t, e in col:
            pairing[t] += e * x[c]
    last = {}
    for c, col in enumerate(columns):
        if col in last and x[last[col]] < x[c]:
            return False
        last[col] = c
    return (len(x) == k and sum(a * a for a in x) == n and
            pairing == list(need) and
            all(a >= b >= 0 for a, b in zip(x[u:], x[u + 1:] + (0,))))


def candidates_by_brute_force(k, columns, need, n):
    """Every candidate, sorted: all integer vectors of norm at most n on
    the used columns, each completed by every fresh block of the norm
    left."""
    u = len(columns)
    found = []
    for used in vectors_of_norm_at_most(n, u):
        left = n - sum(a * a for a in used)
        for block in fresh_blocks_by_brute_force(left, k - u):
            if is_candidate(used + block, k, columns, need, n):
                found.append(used + block)
    return sorted(found)


def test_candidates_match_brute_force_on_real_states(big_enumeration,
                                                     monkeypatch):
    # Every pruning rule is pruning only: the candidates of a row are
    # exactly the vectors the fresh-block rule and the column groups allow,
    # in lexicographic order.  The states are those that searches meet on
    # the 8x7 graphs, on a graph where the value skip divides by an entry
    # of 2, and on Gram matrices of random integer matrices, whose rows of
    # norm up to 12 make the value skip jump; each Wu prune on and off.
    _, cache, _ = big_enumeration
    searched = [StarGraph(center, legs) for center, legs in cache]
    searched.append(StarGraph(-5, ((-6,), (-3,))))
    rng = random.Random(1)
    searched += [random_gram_matrix(rng) for _ in range(100)]
    records = record_enumerations(monkeypatch)
    for g in searched:
        for wu in (True, False):
            find_embedding(g, SearchConfig(wu_pruning=wu))
    states = dict(records)
    small = 0
    for state, got in states.items():
        assert got == sorted(set(got)), state
        assert all(is_candidate(x, *state) for x in got), state
        k, columns, need, n = state
        if len(columns) <= 6 and n <= 12:
            assert got == candidates_by_brute_force(*state), state
            small += 1
    assert (len(states), small) == (8574, 1194)


def test_8x7_report_bytes(big_enumeration):
    # the report `pretzelc enumerate --max-strands 8 --max-param 7` writes;
    # the fixture's node cap is far above every search, so the bytes are
    # those of an uncapped run
    records, _, _ = big_enumeration
    text = "\n".join([CSV_HEADER] + [_csv_row(r) for r in records]) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0ddf92ddd9c3ca1044d4999f3fd284dbfb3a0d76a2fc28eab1c6e67ca5450bc4"


def test_8x7_determinants_match_goeritz(big_enumeration):
    # the Goeritz matrix of the standard diagram shares nothing with the
    # plumbing graph that gives each record's det
    records, _, _ = big_enumeration
    assert len(records) == 15414
    assert [r.class_key for r in records if abs(bareiss_determinant(
        _goeritz_matrix(r.class_key))) != r.det] == []


def test_8x7_signatures_match_goeritz(big_enumeration):
    # the Gordon-Litherland signature of the Goeritz matrix, against the
    # plumbing graph's signature in every record
    records, _, _ = big_enumeration
    assert len(records) == 15414
    assert [r.class_key for r in records
            if goeritz_signature(r.class_key) != r.sigma] == []


# Bases a family member is built on: F1, F2, F3 with t = 0 and 3, F4 with
# k = 2 and 5, and the exceptional triple with a = 1, 97 and 121.
PLANTED_BASES = [(1, 1, 1, 1, -3, -3, -3), (6,), (-4,), (1, 3, 1, -4),
                 (1, 3, 4, -7), (2, -3), (5, -6), (1, -3, -2),
                 (97, -99, -4802), (121, -123, -7442)]


def family_verdicts(params):
    """(match_family, is_exceptional, is_detectably_ribbon) of params by
    the matchers, then by the scan oracle."""
    c = mutation_class(params)
    return ((match_family(c), is_exceptional(c), is_detectably_ribbon(params)),
            (match_family_by_scan(c), is_exceptional_by_scan(c),
             is_detectably_ribbon_by_scan(params)))


def test_family_matchers_match_scan_oracle(big_enumeration):
    # the matchers read the pair-free core of a multiset; the oracle tries
    # every base and triple the multiset contains.  match_family is
    # compared on every field of every match
    records, _, _ = big_enumeration
    assert len(records) == 15414
    rng = random.Random(2727)
    values = [v for v in range(-12, 13) if v]
    lists = [r.class_key for r in records] + [
        tuple(rng.choice(values) for _ in range(rng.randint(1, 9)))
        for _ in range(1000)]
    for base in PLANTED_BASES:
        for _ in range(10):
            # the pair values include 1 and evens, which no family takes
            qs = [rng.choice((1, 2, 3, 5, 7, 9, 11, 97))
                  for _ in range(rng.randint(0, 3))]
            p = list(base) + [x for q in qs for x in (q, -q)]
            rng.shuffle(p)
            lists.append(tuple(p))
    # an empty core, 10_75 with a pair, the F2 base alone and an F4 pair
    # q <= k: no family
    edges = [(3, -3, 5, -5), (1, 1, 1, 1, -3, -3, -3, 3, -3), (4,),
             (3, -4, 3, -3)]
    verdicts = {q: family_verdicts(q)
                for p in lists + edges for q in (p, mirror(p))}
    assert [q for q, (got, want) in verdicts.items() if got != want] == []
    found = [got for got, _ in verdicts.values()]
    assert {f.tag for (_, fams), _, _ in found for f in fams} == \
        {"F1", "F2", "F3", "F4"}
    assert sum(exceptional for _, exceptional, _ in found) > 0
    assert [verdicts[q][0][0] for p in edges for q in (p, mirror(p))] == \
        [(None, ())] * 8
    # the class pipeline finds each record's family and exceptional flag on
    # its own split of the class
    assert [r.class_key for r in records if (r.family, r.exceptional) !=
            record_fields(verdicts[r.class_key][1])] == []


def record_fields(verdict):
    """The family tag and exceptional flag of a class record, from the
    family verdicts of its key."""
    (family, _), exceptional, _ = verdict
    return (family.tag if family else ""), exceptional


def independent_wu_set(g):
    """The dense Wu set of a star graph, asserted to hold no edge and to be
    the one the leg walk finds (wu_vertices of the graph itself)."""
    q = incidence_matrix(g)
    try:
        wu = wu_vertices(q)
    except SingularMod2Error:
        with pytest.raises(SingularMod2Error):
            wu_vertices(g)
        raise
    assert wu_vertices(g) == wu, g
    assert not [(a, b) for a in wu for b in wu if a < b and q[a][b]], g
    return wu, q


def test_wu_set_of_a_star_graph_is_independent(big_enumeration):
    # The Wu prune of find_embedding rests on this: each Wu vertex has an
    # even number of Wu neighbours, and a forest whose degrees are all even
    # has no edges.  Under sigma = 0 the Wu norms then sum to the rank.
    records, _, _ = big_enumeration
    assert len(records) == 15414
    for r in records:
        g = negative_definite_graph(r.class_key)
        wu, q = independent_wu_set(g)
        if r.sigma == 0:
            assert sum(-q[v][v] for v in wu) == g.rank, r.class_key
    rng = random.Random(2718)
    checked = 0
    for _ in range(2000):
        legs = tuple(tuple(rng.randint(-6, 6) for _ in range(
            rng.randint(1, 5))) for _ in range(rng.randint(1, 5)))
        try:
            independent_wu_set(StarGraph(rng.randint(-6, 6), legs))
        except SingularMod2Error:  # even det: no Wu class
            continue
        checked += 1
    assert checked > 500


def searched_graph(key, witness):
    """The graph a cached witness was found on.  The cache key sorts the
    legs; the witness rows keep the build order, one leg per run of rows
    whose consecutive rows pair to -1 (an edge, Q = 1)."""
    center, legs = key
    dot = lambda i, j: sum(a * b for a, b in zip(witness[i], witness[j]))
    runs, start = [], 1
    for v in range(2, len(witness) + 1):
        if v == len(witness) or dot(v - 1, v) != -1:
            runs.append(tuple(-dot(i, i) for i in range(start, v)))
            start = v
    assert sorted(runs) == list(legs), key
    return StarGraph(center, tuple(runs))


def test_sparse_verifier_matches_dense_oracle_on_8x7_witnesses(
        big_enumeration):
    _, cache, _ = big_enumeration
    rng = random.Random(77)
    checked = 0
    for key, res in sorted(cache.items()):
        if res.status is not DonaldsonStatus.EMBEDDABLE:
            continue
        g = searched_graph(key, res.witness)
        assert verify_embedding(g, res.witness)
        assert dense_verify_embedding(g, res.witness)
        i, c = rng.randrange(g.rank), rng.randrange(g.rank)
        for step in (-1, 1):
            bad = [list(r) for r in res.witness]
            bad[i][c] += step
            assert not verify_embedding(g, bad)
            assert not dense_verify_embedding(g, bad)
        checked += 1
    assert checked == 346


# Composite (non-prime) classes may be whitelisted here per the enumeration
# design; the run at these bounds needed none.
COMPOSITE_WHITELIST: set = set()


def test_criterion_5_main_classification_regression(big_enumeration):
    # the 8x7 records hold every 7x7 class and more
    records, _, elapsed = big_enumeration
    violations = []
    for r in records:
        if not r.fiberable or r.exceptional:
            continue
        if not (r.det_square and r.sigma == 0 and r.donaldson == "embeddable"):
            continue
        if r.family == "" and r.class_key not in COMPOSITE_WHITELIST:
            violations.append(r.class_key)
    assert violations == []
    assert elapsed < 1800.0
    _ok(5, "fibered-ribbon regression over %d classes, zero violations "
           "(%.0fs)" % (len(records), elapsed))


def random_family_instance(rng, max_rank=12):
    """A random F2/F3/F4 multiset whose reduced graph has rank <= max_rank."""
    while True:
        tag = rng.choice(("F2", "F3", "F4"))
        if tag == "F2":
            r = rng.randint(1, 3)
            qs = [rng.choice((3, 5, 7)) for _ in range(r)]
            k = rng.choice((2, 4, 6, -2, -4, -6))
            ms = [q for q in qs] + [-q for q in qs] + [k]
        elif tag == "F3":
            t = rng.randint(0, 4)
            r = rng.randint(0, 2)
            qs = [rng.choice((3, 5, 7)) for _ in range(r)]
            ms = [1, 3, t + 1, -4 - t] + qs + [-q for q in qs]
        else:
            k = rng.randint(2, 5)
            r = rng.randint(0, 2)
            qs = [rng.choice([q for q in (3, 5, 7) if q > k])
                  for _ in range(r)]
            ms = [k, -k - 1] + qs + [-q for q in qs]
        if rng.random() < 0.5:
            ms = [-x for x in ms]
        p = tuple(sorted(ms))
        if negative_definite_graph(p).rank <= max_rank:
            return p


def test_criterion_6_family_soundness():
    rng = random.Random(190286)
    t0 = time.monotonic()
    for i in range(200):
        p = random_family_instance(rng)
        assert signature(p) == 0, p
        d = determinant(p)
        import math
        assert math.isqrt(d) ** 2 == d, p
        res = find_embedding(negative_definite_graph(p))
        assert res.status is DonaldsonStatus.EMBEDDABLE, p
    _ok(6, "200 random F2/F3/F4 instances: sigma=0, square det, embeddable "
           "(%.0fs)" % (time.monotonic() - t0))


def test_criterion_7_oracle_equivalence():
    graphs = rank5_corpus_graphs()
    assert graphs
    for p, g in graphs:
        default = find_embedding(g)
        oracle = exhaustive_embedding(g)
        assert bool(default) == bool(oracle), p
        if graph_signature(g) == 0:
            on = find_embedding(g, SearchConfig(wu_pruning=True))
            off = find_embedding(g, SearchConfig(wu_pruning=False))
            assert bool(on) == bool(off), p
    _ok(7, "default == exhaustive on %d rank<=5 corpus graphs; Wu pruning "
           "consistent at sigma=0" % len(graphs))


def test_criterion_8_signature_cross_check():
    rng = random.Random(55221)
    seen = 0
    while seen < 50:
        p = random_knot_params(rng, max_strands=6, max_abs=7, min_strands=2)
        assert signature(p) == goeritz_signature(p), p
        assert signature(mirror(p)) == -signature(p), p
        seen += 1
    _ok(8, "plumbing signature == Goeritz/Gordon-Litherland oracle on 50 "
           "random knots, with mirror antisymmetry")


def test_criterion_9_enumeration_determinism(tmp_path):
    outputs = []
    for jobs in (1, 4, 8):
        out = tmp_path / ("report_j%d.csv" % jobs)
        r = subprocess.run(
            [sys.executable, "-m", "pretzel.cli", "enumerate",
             "--max-strands", "5", "--max-param", "4",
             "--jobs", str(jobs), "--out", str(out)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _ok(9, "enumeration reports byte-identical across --jobs 1/4/8")
