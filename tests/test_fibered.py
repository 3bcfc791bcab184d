import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzel import (FiberStatus, FiberVerdict, Kind, NotAKnotError,
                     Subcase, analyze, aux_link, class_fiberable,
                     classify_type, fiber_subcase, is_fibered, knot_classes,
                     mirror, normalize)
from pretzel.fibered import (even_last_orientations, is_alternating_model,
                             matches_arbitrary_tail_model,
                             matches_extra_minus_two_model)

from conftest import random_knot_params
from fiber_scan_oracle import (alternating_model_by_scan,
                               arbitrary_tail_model_by_scan,
                               distinct_orderings,
                               even_last_orientations_by_scan,
                               extra_minus_two_model_by_scan)


def fib(params):
    return is_fibered(params).status


# ---------------------------------------------------------------------------
# auxiliary link construction

def test_aux_link_type2_examples():
    # sign record of the odd non-unitary parameters plus the even parameter
    assert aux_link((3, -7, 5, -5, 8), Kind.TYPE2) == (-2, 2, -2, 2, 8)
    assert aux_link((5, -5, 7, -7, 4), Kind.TYPE2) == (-2, 2, -2, 2, 4)
    assert aux_link((3, 5, -7, -5, 8), Kind.TYPE2) == (-2, -2, 2, 2, 8)


def test_aux_link_type3_uniform_signs():
    # every non-unitary parameter contributes -2 * sign, the even one too
    assert aux_link((1, 5, -3, -4), Kind.TYPE3) == (-2, 2, 2)
    assert aux_link((-3, 3, -3, 2), Kind.TYPE3) == (2, -2, 2, -2)


def test_aux_link_requires_even_last():
    with pytest.raises(ValueError):
        aux_link((8, 3, -7, 5, -5), Kind.TYPE2)
    with pytest.raises(NotAKnotError):
        aux_link((1, 1, 1), Kind.TYPE1)


def test_even_last_orientations():
    # both reading directions when reversal also lands the even entry last
    assert even_last_orientations((3, -7, 5, -5, 8)) == \
        [(3, -7, 5, -5, 8), (-5, 5, -7, 3, 8)]
    # several even entries (a link): the last entry if even, else the first
    assert even_last_orientations((2, 3, 4, 5)) == \
        [(3, 4, 5, 2), (5, 4, 3, 2)]
    assert even_last_orientations((1, 3, -5)) == []


def test_even_last_orientations_equal_their_scan():
    """The rotation read off an index equals the oracle's rotation by rotation
    scan on all 335,922 lists of length 1-7 over {±1, ±3, 2, 4}: knots and
    links, with no, one or several even entries, unitaries dropped."""
    lists = [p for n in range(1, 8)
             for p in itertools.product((1, -1, 3, -3, 2, 4), repeat=n)]
    assert len(lists) == 335922
    assert [p for p in lists if even_last_orientations(p) !=
            even_last_orientations_by_scan(p)] == []


# ---------------------------------------------------------------------------
# model form comparison

def test_alternating_model():
    assert is_alternating_model((2, -2, 2, -2))
    assert is_alternating_model((-2, 2))
    assert not is_alternating_model((2, -2, 2))     # odd length
    assert not is_alternating_model((2, -2, -2, 2))
    assert not is_alternating_model((2, -2, 2, -4))


def test_arbitrary_tail_model():
    assert matches_arbitrary_tail_model((2, -2, 8))
    assert matches_arbitrary_tail_model((-2, 2, -2, 2, 4))
    assert matches_arbitrary_tail_model((2, 2, -2))  # tail slot may be +-2
    assert not matches_arbitrary_tail_model((2, -2, 2, 8))  # even length
    assert not matches_arbitrary_tail_model((-2, 2, 2, -2, 4))


def test_extra_minus_two_model():
    assert matches_extra_minus_two_model((2, -2, -2))
    assert matches_extra_minus_two_model((-2, 2, -2, 2, 2))  # negated form
    # negation makes the lone odd-one-out sign irrelevant
    assert matches_extra_minus_two_model((2, -2, 2))
    assert not matches_extra_minus_two_model((2, 2, 2))
    assert not matches_extra_minus_two_model((2, -2, 2, -2))
    assert not matches_extra_minus_two_model((2, 2, -2, -2, 2))


def _near_model_words(rng, count):
    """Seeded random words of length 9-25.  Four in five are an alternating
    cycle with up to three entries negated or replaced by 4, then rotated,
    reversed or negated, so that every model occurs; the rest are uniform
    over {2, -2, 4}."""
    words = []
    for _ in range(count):
        n = rng.randint(9, 25)
        if rng.random() < 0.2:
            words.append(tuple(rng.choice((2, -2, 4)) for _ in range(n)))
            continue
        w = [2 * (-1) ** i for i in range(n)]
        for i in rng.sample(range(n), rng.randint(0, 3)):
            w[i] = rng.choice((-w[i], 4))
        r, sign = rng.randrange(n), rng.choice((1, -1))
        w = w[r:] + w[:r]
        words.append(tuple(sign * x for x in rng.choice((w, w[::-1]))))
    return words


def test_models_equal_their_scans():
    """Each model function equals its oracle, which tries every rotation,
    reversal and negation of the word, on all 9,841 words of length 0-8
    over {2, -2, 4}.  These words are enough.  4 stands for every entry
    other than ±2: one such entry can only be the model's tail in both
    versions, whatever its value, and two or more such entries fail every
    model in both versions.  Length 8 is enough for the 8-strand
    acceptance bound: the auxiliary link of a knot of at most 8 strands
    has at most 8 entries.  1,500 seeded random words of length 9-25
    check longer words as well."""
    words = [w for n in range(9)
             for w in itertools.product((2, -2, 4), repeat=n)]
    assert len(words) == 9841
    long_words = _near_model_words(random.Random(3031), 1500)
    pairs = ((is_alternating_model, alternating_model_by_scan),
             (matches_arbitrary_tail_model, arbitrary_tail_model_by_scan),
             (matches_extra_minus_two_model, extra_minus_two_model_by_scan))
    for model, scan in pairs:
        assert any(map(scan, long_words)), scan
        assert [w for w in words + long_words if model(w) != scan(w)] == [], \
            model


# ---------------------------------------------------------------------------
# the decision on named vectors

def test_type1_examples():
    assert fib((1, 1, 1, 1, -3, -3, -3)) is FiberStatus.FIBERED
    assert fiber_subcase((1, 1, 1, 1, -3, -3, -3)) is Subcase.T1
    assert fib((-1, -1, -1, -1, 3, 3, 3)) is FiberStatus.FIBERED
    assert fib((1, 1, 1)) is FiberStatus.FIBERED        # torus knot
    assert fib((-3, -3, -3)) is FiberStatus.NOT_FIBERED  # no unitary entry
    assert fib((1, 1, 5, -3, -3)) is FiberStatus.NOT_FIBERED


@pytest.mark.parametrize("params, subcase", [
    ((1,), Subcase.T1), ((3,), Subcase.T1), ((-3,), Subcase.T1),
    ((5,), Subcase.T1), ((2,), Subcase.T2B), ((4,), Subcase.T2B),
    ((1, -1, 3), Subcase.T1)])
def test_one_strand_is_the_unknot_and_fibered(params, subcase):
    # P(p) closes one twist region by the pretzel arcs: every crossing is
    # nugatory, so it is the unknot (det 1, sigma 0), which is fibered
    assert is_fibered(params) == FiberVerdict(FiberStatus.FIBERED, subcase)
    assert class_fiberable(params) == (True, subcase)
    v = analyze(params)
    assert v.fibered == FiberVerdict(FiberStatus.FIBERED, subcase)
    assert (v.obstructions.det_value, v.obstructions.signature) == (1, 0)


def test_headline_mutant_quartet():
    assert fib((5, -5, 7, -7, 4)) is FiberStatus.FIBERED
    assert fib((7, 5, -5, -7, 4)) is FiberStatus.NOT_FIBERED
    assert fib((5, 7, -5, -7, 2)) is FiberStatus.NOT_FIBERED


def test_known_tension_vector():
    """KNOWN-TENSION: P(7,-5,-7,5,4) is asserted fibered by its source, but
    its auxiliary link (-2,2,2,-2,4) matches no model form up to rotation,
    reversal and global negation.  Pinned as NOT_FIBERED so that any change
    of the comparison convention is noticed; excluded from acceptance."""
    assert aux_link((-5, -7, 5, 4), Kind.TYPE2) == (2, 2, -2, 4)
    assert fib((7, -5, -7, 5, 4)) is FiberStatus.NOT_FIBERED


def test_type2b_order_sensitivity():
    assert fib((3, -7, 5, -5, 8)) is FiberStatus.FIBERED
    assert fiber_subcase((3, -7, 5, -5, 8)) is Subcase.T2B
    assert fib((3, 5, -7, -5, 8)) is FiberStatus.NOT_FIBERED


def test_type2a():
    # normalized 2A example with unitary entries: even parameter must be +-2
    assert fiber_subcase((1, 1, 1, 3, -3, -3, 2)) is Subcase.T2A
    assert fib((1, 1, 1, 3, -3, -3, 2)) is FiberStatus.FIBERED
    assert fib((1, 1, 1, 3, -3, -3, 4)) is FiberStatus.NOT_FIBERED
    assert fib((1, 1, 1, 1, 3, -3, 2)) is FiberStatus.NOT_FIBERED  # diff 4


def test_type2a_unnormalized_presentation():
    # P(1,5,7,-5,-2) is Type 2A in its raw presentation; the unitary and the
    # -2 flype together, so the normalized form (5,7,-5,2) is Type 3A.
    assert classify_type((1, 5, 7, -5, -2)) is Kind.TYPE2
    assert normalize((1, 5, 7, -5, -2)) == (5, 7, -5, 2)
    assert fib((1, 5, 7, -5, -2)) is FiberStatus.FIBERED
    assert fiber_subcase((1, 5, 7, -5, -2)) is Subcase.T3A


def test_type2c_reduces():
    # balanced odd counts, even parameter +-2, alternating auxiliary link
    v = is_fibered((1, -3, 2))
    assert v.status is FiberStatus.REDUCES_TO_TYPE3
    assert v.subcase is Subcase.T2C
    v = is_fibered((1, -5, 3, -7, 2))
    assert v.status is FiberStatus.REDUCES_TO_TYPE3


def test_two_minus_four_clause_gated():
    """P(1,-3,5,-7,-4) has auxiliary link (2,-2,2,-4), literally the
    (2,-4)-tailed model, but honoring it would contradict the theorem that
    no Type 2B fibered pretzel knot has unitary parameters; without
    unitaries no 2B knot matches it, so the model is not coded at all."""
    assert aux_link((1, -3, 5, -7, -4), Kind.TYPE2) == (2, -2, 2, -4)
    assert fiber_subcase((1, -3, 5, -7, -4)) is Subcase.T2B
    assert fib((1, -3, 5, -7, -4)) is FiberStatus.NOT_FIBERED


def test_type3_examples():
    assert fib((-3, 3, -3, 2)) is FiberStatus.FIBERED
    assert fiber_subcase((-3, 3, -3, 2)) is Subcase.T3C
    assert fib((-3, 3, -3, 4)) is FiberStatus.NOT_FIBERED  # min |p| tied
    assert fib((1, 5, -3, -4)) is FiberStatus.FIBERED
    assert fiber_subcase((1, 5, -3, -4)) is Subcase.T3B
    assert fib((1, -3, -7, 4, -5, 5)) is FiberStatus.FIBERED
    assert fiber_subcase((1, -3, -7, 4, -5, 5)) is Subcase.T3B
    assert fib((1, 2, 3, -5)) is FiberStatus.FIBERED
    assert fiber_subcase((1, 2, 3, -5)) is Subcase.T3A
    assert fib((3, 5, 7, 2)) is FiberStatus.NOT_FIBERED   # 3A with diff 4


def test_every_ordering_pinned_6x6():
    """The verdict of every ordering of every 6x6 class, 9,074 in all,
    pinned by digest: a change to the decision table or to the model
    comparison that moves any single ordering is noticed here."""
    rows = []
    for ms in knot_classes(6, 6):
        for o in distinct_orderings(ms):
            v = is_fibered(o)
            rows.append((o, v.status.value, v.subcase.value))
    assert len(rows) == 9074
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "629cf4e0230dbdf4a2dbc972aeb4ddd69e9212fbf2ca303d53615bcff86a766a"


def test_links_get_not_a_knot():
    assert fib((2, 2, 3)) is FiberStatus.NOT_A_KNOT
    with pytest.raises(NotAKnotError):
        fiber_subcase((2, 2, 3))


# ---------------------------------------------------------------------------
# invariances

@given(st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_mirror_invariance(seed):
    p = random_knot_params(random.Random(seed))
    assert is_fibered(p) == is_fibered(mirror(p))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_rotation_and_reversal_invariance(seed):
    rng = random.Random(seed)
    p = random_knot_params(rng)
    q = normalize(p)
    base = is_fibered(q)
    units = tuple(x for x in q if abs(x) == 1)
    rest = tuple(x for x in q if abs(x) != 1)
    if rest:
        r = rng.randrange(len(rest))
        rotated = units + rest[r:] + rest[:r]
        assert is_fibered(rotated) == base
        assert is_fibered(units + tuple(reversed(rest))) == base


def _all_small_knots(max_n, max_abs):
    values = [v for v in range(-max_abs, max_abs + 1) if v != 0]
    for n in range(3, max_n + 1):
        for p in itertools.product(values, repeat=n):
            if classify_type(p).is_knot():
                yield p


def test_no_fibered_2b_or_3c_with_unitaries_small_exhaustive():
    """Enumeration check of the two structural propositions: no Type 2B and
    no Type 3C fibered pretzel knot has a unitary parameter."""
    checked = 0
    for p in _all_small_knots(4, 4):
        q = normalize(p)
        if not any(abs(x) == 1 for x in q):
            continue
        v = is_fibered(q)
        if v.status is FiberStatus.FIBERED:
            assert v.subcase not in (Subcase.T2B, Subcase.T3C), q
            checked += 1
    assert checked > 0


def test_fibered_3b_with_unitaries_has_unique_one():
    # fibered Type 3B with unitary entries forces a single unitary parameter
    for p in _all_small_knots(4, 5):
        q = normalize(p)
        v = is_fibered(q)
        if v.status is FiberStatus.FIBERED and v.subcase is Subcase.T3B:
            units = [x for x in q if abs(x) == 1]
            assert len(units) <= 1, q
