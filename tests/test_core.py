import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzel import (Kind, ZeroParameterError, as_params, classify_type,
                     mirror, mutation_class, normalize, parse_params)

nonzero = st.integers(-9, 9).filter(lambda x: x != 0)
param_lists = st.lists(nonzero, min_size=1, max_size=8).map(tuple)


def test_zero_parameter_rejected():
    with pytest.raises(ZeroParameterError):
        as_params((0, 3, 5))
    with pytest.raises(ValueError):
        as_params(())


def test_parse_plain_and_whitespace():
    assert parse_params("1,1,1,1,-3,-3,-3") == (1, 1, 1, 1, -3, -3, -3)
    assert parse_params(" 1 , 5 , 7 , -5 , -2 ") == (1, 5, 7, -5, -2)


def test_parse_bracket_shorthand():
    assert parse_params("[1^4],-3,-3,-3") == (1, 1, 1, 1, -3, -3, -3)
    assert parse_params("[-1^2],2,3,-5") == (-1, -1, 2, 3, -5)


def test_parse_rejects_garbage():
    for bad in ("", "1,,3", "1,x", "[1^0],3", "0,3,5"):
        with pytest.raises(ValueError):
            parse_params(bad)


def test_classify_examples():
    assert classify_type((1, 1, 1, 1, -3, -3, -3)) is Kind.TYPE1
    assert classify_type((1, 5, 7, -5, -2)) is Kind.TYPE2
    assert classify_type((3, 5, 7, 2)) is Kind.TYPE3
    assert classify_type((2, 2, 3)) is Kind.LINK
    assert classify_type((1, -1)) is Kind.LINK


def test_normalize_examples():
    assert normalize((1, -1, 5, -5, 2)) == (5, -5, 2)
    assert normalize((1, -2, 7)) == (2, 7)
    assert normalize((-1, 2, 7)) == (-2, 7)
    assert normalize((1, 1, 3, -4)) == (1, 1, 3, -4)


def test_normalize_positions_are_preserved():
    # the rewritten 2-twist region stays where it was
    assert normalize((7, 1, -2, 9)) == (7, 2, 9)


def test_normalize_sorts_the_twos_of_a_link():
    # either rewrite order may flip either 2; the sorted form is the same link
    assert normalize((1, -1, -1, 2, 2)) == (-2, 2)
    assert normalize((2, 3, -2)) == (-2, 3, 2)


def test_mirror_examples():
    assert mirror((1, 1, 3, -4)) == (-1, -1, -3, 4)
    assert mirror((5, -5, 7, -7, 4)) == (-5, 5, -7, 7, -4)


@given(param_lists)
def test_mirror_is_involution(p):
    assert mirror(mirror(p)) == p


@given(param_lists)
def test_mirror_preserves_kind(p):
    assert classify_type(mirror(p)) is classify_type(p)


@given(param_lists)
def test_normalize_idempotent(p):
    try:
        q = normalize(p)
    except ValueError:
        return  # all-unitary unlink, no normal form
    assert normalize(q) == q


def _normalize_rule_b_first(params):
    """Alternative normalization order: exhaust the (±1, ∓2) rewrite before
    unitary-pair deletion, then put every -2 before every 2 among the
    positions that hold ±2."""
    p = list(params)
    changed = True
    while changed:
        changed = False
        for unit, two in ((1, -2), (-1, 2)):
            while unit in p and two in p:
                p.remove(unit)
                p[p.index(two)] = -two
                changed = True
        if 1 in p and -1 in p:
            p.remove(1)
            p.remove(-1)
            changed = True
    slots = [i for i, x in enumerate(p) if x in (2, -2)]
    negatives = sum(1 for i in slots if p[i] == -2)
    for k, i in enumerate(slots):
        p[i] = -2 if k < negatives else 2
    return tuple(p)


@given(param_lists)
@settings(max_examples=300)
def test_normalize_confluent(p):
    try:
        a = normalize(p)
    except ValueError:
        return
    b = _normalize_rule_b_first(p)
    assert a == b


@given(param_lists)
def test_normalize_preserves_knot_vs_link(p):
    try:
        q = normalize(p)
    except ValueError:
        assert classify_type(p) is Kind.LINK
        return
    assert classify_type(q).is_knot() == classify_type(p).is_knot()


def test_mutation_class_examples():
    assert mutation_class((3, -3, 5, -5, 7)) == mutation_class((3, 5, -3, -5, 7))
    assert mutation_class((7, -5, -7, 5, 4)) == mutation_class((5, -5, 7, -7, 4))
    a = mutation_class((1, 1, 3, -4))
    b = mutation_class((-1, -1, -3, 4))
    assert a.mirror_normalized == b.mirror_normalized
    assert a.multiset != b.multiset


@given(param_lists)
def test_mutation_class_permutation_invariant(p):
    assert mutation_class(tuple(sorted(p))) == mutation_class(p)


@given(param_lists)
def test_mutation_class_mirror_invariant_key(p):
    assert (mutation_class(p).mirror_normalized
            == mutation_class(mirror(p)).mirror_normalized)
