import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzel import (DonaldsonStatus, FiberStatus, Kind, Status, Subcase,
                     analyze, class_fiberable, detectably_ribbon_reduce,
                     enumerate_classes, is_detectably_ribbon, is_exceptional,
                     knot_classes, match_family, mirror, mutation_class,
                     normalize)
import pretzel.classify
import pretzel.fibered
import pretzel.plumbing
from pretzel.classify import class_record

from class_scan_oracle import knot_classes_by_scan
from conftest import random_knot_params
from fiber_scan_oracle import class_fiberable_by_scan


# ---------------------------------------------------------------------------
# family matching

def fam(ms):
    primary, _ = match_family(mutation_class(ms))
    return primary


def test_family_f1():
    f = fam((1, 1, 1, 1, -3, -3, -3))
    assert f.tag == "F1"
    assert fam((-1, -1, -1, -1, 3, 3, 3)).tag == "F1"


def test_family_f2():
    f = fam((5, -5, 7, -7, 4))
    assert (f.tag, f.pairs, f.k) == ("F2", (5, 7), 4)
    # same class regardless of order or mirror
    assert fam((7, -5, -7, 5, 4)).tag == "F2"
    assert fam((-5, 5, -7, 7, -4)).tag == "F2"
    assert fam((3, -3, 2)).tag == "F2"
    assert fam((5, -5, 5, -5, 6)).tag == "F2"
    # r >= 1: the bare base (4,) is no F2 member (though ribbon-move base)
    assert fam((4,)) is None


def test_family_f3():
    f = fam((1, 1, 3, -4))
    assert (f.tag, f.t, f.pairs) == ("F3", 0, ())
    f = fam((1, 3, 1, -4))
    assert (f.tag, f.t, f.pairs) == ("F3", 0, ())
    f = fam((1, 2, 3, -5))
    assert (f.tag, f.t) == ("F3", 1)
    f = fam((1, 3, 4, -7, 5, -5))
    assert (f.tag, f.t, f.pairs) == ("F3", 3, (5,))


def test_family_f4():
    f = fam((2, -3, 3, -3))
    assert (f.tag, f.k, f.pairs) == ("F4", 2, (3,))
    f = fam((3, -4, 5, -5))
    assert (f.tag, f.k, f.pairs) == ("F4", 3, (5,))
    # the k < q_i constraint is strict: P(-3,3,-3,4) is ribbon but its k
    # ties the pair value, so it is not in the fibered-ribbon family
    assert fam((-3, 3, -3, 4)) is None
    assert fam((3, -4, 3, -3)) is None


def test_family_no_match():
    assert fam((3, 5, -3, -5, 7)) is None   # odd entry 7 unpaired, no even
    assert fam((1, 5, -3, -4)) is None
    assert fam((3, 3, 3)) is None


def test_family_all_matches_listed():
    _, all_fams = match_family(mutation_class((2, -3, 3, -3)))
    assert [f.tag for f in all_fams] == ["F4"]


# ---------------------------------------------------------------------------
# exceptional family

def test_exceptional_triples():
    # a = 1: triple (1, -3, -2); knot kind requires the corrected -a-2 entry
    assert is_exceptional(mutation_class((1, -3, -2)))
    assert is_exceptional(mutation_class((1, -3, -2, 3, -3)))
    assert is_exceptional(mutation_class((-1, 3, 2)))  # mirror
    assert is_exceptional(mutation_class((97, -99, -4802)))
    # not normalized: the rest {1, -1} still counts as a pair
    assert is_exceptional(mutation_class((1, -1, 1, -3, -2)))
    assert not is_exceptional(mutation_class((5, -5, 7, -7, 4)))
    assert not is_exceptional(mutation_class((3, -5, -2)))   # a = 3 not 1 mod 120
    assert not is_exceptional(mutation_class((1, -3, -4)))   # wrong square half


# ---------------------------------------------------------------------------
# the adjacent-pair ribbon move

def test_reduce_examples():
    assert detectably_ribbon_reduce((3, -3, 5, -5, 7)) == (7,)
    assert detectably_ribbon_reduce((3, 5, -3, -5, 7)) == (3, 5, -3, -5, 7)
    assert detectably_ribbon_reduce((-5, 5, -3, 3, 7)) == (7,)


def test_reduce_is_cyclic():
    assert detectably_ribbon_reduce((5, 3, -3, 7, -5)) == (7,)


def test_detectably_ribbon_flag():
    assert is_detectably_ribbon((3, -3, 5, -5, 4))      # base (4)
    assert is_detectably_ribbon((2, -3, 3, -3))         # base (k,-k-1) mirror
    assert is_detectably_ribbon((1, 1, 3, -4))          # base (1,t+1,3,-4-t)
    assert is_detectably_ribbon((1, 3, 1, -4))          # same base, t = 0
    assert is_detectably_ribbon((4,))                   # base (k), no pairs
    assert is_detectably_ribbon((1, 1, 1, 1, -3, -3, -3))
    assert not is_detectably_ribbon((3, 5, -3, -5, 7))


# ---------------------------------------------------------------------------
# analyze

def test_analyze_1075():
    v = analyze((1, 1, 1, 1, -3, -3, -3))
    assert v.status is Status.RIBBON_KNOWN
    assert v.fibered.status is FiberStatus.FIBERED
    assert v.obstructions.det_value == 81
    assert v.obstructions.det_is_square
    assert v.obstructions.signature == 0
    assert v.obstructions.donaldson.status is DonaldsonStatus.EMBEDDABLE
    assert v.family.tag == "F1"


def test_analyze_not_slice_3b():
    v = analyze((1, 5, -3, -4))
    assert v.status is Status.NOT_SLICE
    assert v.reason == "determinant"
    assert v.fibered.status is FiberStatus.FIBERED


def test_analyze_obstructions_vanish_mutant():
    # the wrong-order mutant of a ribbon knot: every cover-derived
    # obstruction vanishes, but no sliceness claim is made
    v = analyze((3, 5, -3, -5, 7))
    assert v.status is Status.OBSTRUCTIONS_VANISH
    assert v.obstructions.all_pass
    assert v.family is None
    assert not v.detectably_ribbon


def test_analyze_ribbon_known_f3():
    v = analyze((1, 2, 3, -5))
    assert v.status is Status.RIBBON_KNOWN
    assert v.family.tag == "F3" and v.family.t == 1


def test_analyze_link_not_applicable():
    v = analyze((2, 2, 3))
    assert v.status is Status.NOT_APPLICABLE


def test_analyze_exceptional():
    v = analyze((97, -99, -4802))
    assert v.exceptional
    # huge determinant: it should have been obstructed or exceptional,
    # never RIBBON_KNOWN
    assert v.status in (Status.EXCEPTIONAL, Status.NOT_SLICE)


# The 16 classes of the 5x15 bound that are class-fiberable (T2B) and pass
# every obstruction computed here but match no family.
UNMATCHED_5X15 = [
    (-8, -5, 3), (-8, -5, -3, 3, 3), (-8, -5, -5, 3, 5),
    (-8, -7, -5, 3, 7), (-9, -8, -5, 3, 9), (-11, -8, -5, 3, 11),
    (-13, -8, -5, 3, 13), (-15, -8, -5, 3, 15),
    (-12, -5, 3), (-12, -5, -3, 3, 3), (-12, -5, -5, 3, 5),
    (-12, -7, -5, 3, 7), (-12, -9, -5, 3, 9), (-12, -11, -5, 3, 11),
    (-13, -12, -5, 3, 13), (-15, -12, -5, 3, 15),
]


def test_analyze_honest_on_resolved_cousin_of_exceptional_family():
    """Two patterns pass every obstruction and match no family: (3,-5,-8)
    and (3,-5,-12), each alone or with one pair {q,-q}.

    P(3,-5,-8) has the (a,-a-2,-(a+1)^2/2) shape at a=3, outside the
    unresolved residues 1, 97 mod 120; (3,-5,-12) matches no family as
    coded.  Every cover-derived obstruction vanishes (square det, sigma 0,
    the lattice embeds); deciding them needs tools outside this package,
    so the honest verdict is ObstructionsVanish, with the class fiberable.
    A new obstruction or family changes these pins on purpose.
    """
    v = analyze((3, -5, -8))
    assert not v.exceptional
    assert v.obstructions.det_value == 1
    assert v.obstructions.all_pass
    assert v.family is None
    assert v.fibered.status is FiberStatus.FIBERED
    assert v.status is Status.OBSTRUCTIONS_VANISH
    for key in UNMATCHED_5X15:
        v = analyze(key)
        assert v.status is Status.OBSTRUCTIONS_VANISH, key
        assert v.family is None and not v.exceptional, key
        assert class_fiberable(key) == (True, Subcase.T2B), key


def test_analyze_inconclusive_with_node_limit():
    v = analyze((3, 5, -3, -5, 7), node_limit=2)
    assert v.status is Status.INCONCLUSIVE


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_analyze_status_mirror_invariant(seed):
    p = random_knot_params(random.Random(seed), max_strands=5, max_abs=5)
    assert analyze(p).status is analyze(mirror(p)).status


def test_analyze_status_mutation_invariant_sample():
    for p, q in [((5, -5, 7, -7, 4), (7, 5, -5, -7, 4)),
                 ((3, -3, 5, -5, 7), (3, 5, -3, -5, 7))]:
        assert analyze(p).status is analyze(q).status


# ---------------------------------------------------------------------------
# enumeration

def test_knot_classes_small():
    classes = set(knot_classes(3, 3))
    assert (-3, 1, 1) in classes or (-1, -1, 3) in classes
    assert any(sorted(map(abs, ms)) == [2, 3, 3] for ms in classes)
    # all representatives are normalized, mirror-canonical knots
    for ms in classes:
        assert normalize(ms) == ms
        assert ms == mutation_class(ms).mirror_normalized


def test_knot_classes_match_scan_oracle():
    # the parity generator gives the scan's keys in the scan's order
    for n in range(3, 7):
        for m in range(2, 8):
            assert list(knot_classes(n, m)) == \
                list(knot_classes_by_scan(n, m)), (n, m)


@pytest.mark.parametrize("bound, count, digest", [
    ((8, 7), 15414, "9b8af576d4dd8981"),
    ((5, 15), 39654, "6c443572aa7146ac"),
    ((6, 11), 29414, "ff354219773e7179"),
])
def test_knot_classes_pinned(bound, count, digest):
    # count and sha256 of the key sequence, as the combination scan gave them
    keys = list(knot_classes(*bound))
    assert len(keys) == count
    assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("bound", [(2, 5), (3, 1)])
def test_knot_classes_bounds_too_small(bound):
    with pytest.raises(ValueError, match="bounds too small"):
        list(knot_classes(*bound))


def test_class_count_monotone():
    a = len(list(knot_classes(3, 3)))
    b = len(list(knot_classes(4, 3)))
    c = len(list(knot_classes(4, 4)))
    assert a < b < c


def test_class_fiberable_matches_scan_exhaustively():
    for ms in knot_classes(5, 4):
        screen = class_fiberable(ms)[0]
        scan = class_fiberable_by_scan(ms)[0]
        assert screen == scan, ms


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_class_fiberable_matches_scan_random(seed):
    rng = random.Random(seed)
    p = normalize(random_knot_params(rng, max_strands=6, max_abs=7))
    ms = mutation_class(p).mirror_normalized
    screen, sub = class_fiberable(ms)
    scan, sub2 = class_fiberable_by_scan(ms)
    assert screen == scan
    if screen:
        assert sub == sub2


def test_enumerate_small_records():
    recs = list(enumerate_classes(3, 3))
    assert recs == sorted(recs, key=lambda r: r.class_key)
    by_key = {r.class_key: r for r in recs}
    trefoilish = by_key[(-3, 1, 1)]
    assert trefoilish.kind is Kind.TYPE1
    assert trefoilish.fiberable
    assert trefoilish.det == 5 and not trefoilish.det_square
    assert trefoilish.status is Status.NOT_SLICE
    f2 = by_key[(-3, -2, 3)]  # mirror-canonical key of {3, -3, 2}
    assert f2.family == "F2"
    assert f2.status is Status.RIBBON_KNOWN


def record_from_verdict(v, key):
    """The fields class_record shares with analyze, read off a Verdict."""
    rep = v.obstructions
    don = rep.donaldson
    return (key, v.kind, rep.det_value, rep.det_is_square, rep.signature,
            don.status.value if don is not None else "skipped",
            don.nodes if don is not None else 0,
            v.family.tag if v.family else "", v.exceptional, v.status)


def record_fields(r):
    return (r.class_key, r.kind, r.det, r.det_square, r.sigma, r.donaldson,
            r.nodes, r.family, r.exceptional, r.status)


def test_class_record_matches_analyze():
    # one class pipeline behind both: every 6x6 class, then raw parameter
    # lists (unsorted, not normalized) as class_record accepts them too
    keys = list(knot_classes(6, 6))
    assert len(keys) == 1111
    rng = random.Random(6161)
    raw = [(1, -1, 1, -3, -3), (1, -1, 3, -3, 2)] + [
        random_knot_params(rng, max_strands=7, max_abs=6)
        for _ in range(200)]
    statuses = set()
    for key in keys + raw:
        rec = class_record(key)
        assert record_fields(rec) == record_from_verdict(analyze(key), key)
        assert (rec.fiberable, rec.subcase) == class_fiberable(key)
        statuses.add(rec.status)
    assert Status.NOT_SLICE in statuses and Status.RIBBON_KNOWN in statuses
    # fiberedness and the obstructions describe the same normalized list:
    # P(1,-1,1,-3,-3) is the fibered P(1,-3,-3), and the mixed-sign
    # unitaries of P(1,-1,3,-3,2) cancel before the sign count
    for p in raw:
        fiberable = class_fiberable_by_scan(normalize(p))[0]
        assert class_record(p).fiberable == fiberable, p
    assert class_record((1, -1, 1, -3, -3)).fiberable is True


def test_class_record_computes_each_fact_once(monkeypatch):
    # per class: one normalization, no second validation in plumbing, and
    # two leaf passes, over the star graph (|det| and the sign of e(Y))
    # and over the reduced graph (the definiteness guard)
    calls = dict.fromkeys(("normalize", "_require_knot", "_eliminate_leaves"),
                          0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for module in (pretzel.classify, pretzel.fibered):
        monkeypatch.setattr(module, "normalize",
                            counted("normalize", module.normalize))
    for name in ("_require_knot", "_eliminate_leaves"):
        monkeypatch.setattr(pretzel.plumbing, name,
                            counted(name, getattr(pretzel.plumbing, name)))
    keys = list(knot_classes(6, 6))
    assert len(keys) == 1111
    for key in keys:
        before = dict(calls)
        class_record(key)
        assert {n: calls[n] - before[n] for n in calls} == {
            "normalize": 1, "_require_knot": 0, "_eliminate_leaves": 2}, key


def counting(monkeypatch, name, modules):
    """A dict whose name entry counts the calls of name made through the
    globals of each of modules."""
    calls = {name: 0}
    for module in modules:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn):
            calls[name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_analyze_normalizes_once(monkeypatch):
    # the ordered fiberedness verdict reads the list analyze normalized
    calls = counting(monkeypatch, "normalize",
                     (pretzel.classify, pretzel.fibered))
    rng = random.Random(1313)
    raw = [random_knot_params(rng, max_strands=7, max_abs=6)
           for _ in range(200)]
    keys = list(knot_classes(6, 6))
    assert len(keys) == 1111
    for p in keys + raw:
        before = calls["normalize"]
        analyze(p)
        assert calls["normalize"] - before == 1, p


def test_analyze_classifies_twice(monkeypatch):
    # once for the raw list (a link stops there) and once for the
    # normalized one, whose kind the fiberedness verdict reads
    calls = counting(monkeypatch, "classify_type",
                     (pretzel.classify, pretzel.fibered, pretzel.plumbing))
    rng = random.Random(1414)
    raw = [random_knot_params(rng, max_strands=7, max_abs=6)
           for _ in range(200)]
    keys = list(knot_classes(6, 6))
    assert len(keys) == 1111
    for p in keys + raw:
        before = calls["classify_type"]
        analyze(p)
        assert calls["classify_type"] - before == 2, p


def test_class_record_classifies_once(monkeypatch):
    # the kind of the key is found once and read by fiberedness, the
    # obstructions and the exceptional test alike
    calls = counting(monkeypatch, "classify_type",
                     (pretzel.classify, pretzel.fibered, pretzel.plumbing))
    keys = list(knot_classes(6, 6))
    assert len(keys) == 1111
    for key in keys:
        before = calls["classify_type"]
        class_record(key)
        assert calls["classify_type"] - before == 1, key


def test_enumeration_needs_no_ordered_verdict(monkeypatch):
    # class_record decides fiberedness at class level; the ordered verdicts
    # of analyze are never computed during an enumeration
    def refuse(*args, **kwargs):
        raise AssertionError("called during an enumeration")
    for name in ("analyze", "_decide", "is_detectably_ribbon"):
        monkeypatch.setattr(pretzel.classify, name, refuse)
    recs = list(enumerate_classes(5, 5))
    assert len(recs) == len(list(knot_classes(5, 5)))


def test_family_instances_pass_all_obstructions():
    # deterministic sample of the criterion-6 property
    rng = random.Random(4242)
    from test_acceptance import random_family_instance
    for _ in range(25):
        ms = random_family_instance(rng, max_rank=10)
        rec = class_record(tuple(sorted(ms)), cache={})
        assert rec.sigma == 0, ms
        assert rec.det_square, ms
        assert rec.donaldson == "embeddable", ms
