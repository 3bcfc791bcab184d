import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzel import (NotAKnotError, PlumbingError, analyze,
                     bareiss_determinant, determinant, euler_number,
                     incidence_matrix, is_negative_definite, mirror,
                     negative_definite_graph, normalize, star_graph, to_dot)
from pretzel import plumbing
from pretzel.plumbing import (MAX_GRAPH_RANK, StarGraph, _eliminate_leaves,
                              _graph_and_determinant,
                              _require_negative_definite)

from conftest import random_knot_params


def cofactor_determinant(m):
    """Test oracle: naive cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_determinant(minor)
    return total


def closed_form_determinant(params):
    """Second oracle: |det| = |e(Y)| * |product of non-unitary parameters|."""
    p = normalize(params)
    legs = [x for x in p if abs(x) != 1]
    prod = 1
    for x in legs:
        prod *= x
    return abs(euler_number(p) * prod)


# ---------------------------------------------------------------------------
# star graphs and Euler numbers

def test_star_graph_examples():
    g = star_graph((1, 1, 1, 1, -3, -3, -3))
    assert (g.center_weight, g.legs) == (-4, ((-3,), (-3,), (-3,)))
    g = star_graph((-1, -1, 2, 3, -5))
    assert (g.center_weight, g.legs) == (2, ((2,), (3,), (-5,)))
    g = star_graph((3, -3, 2))
    assert (g.center_weight, g.legs) == (0, ((3,), (-3,), (2,)))


def test_star_graph_rejects_links():
    with pytest.raises(NotAKnotError):
        star_graph((2, 2, 3))


def test_euler_number_examples():
    assert euler_number((1, 1, 1, 1, -3, -3, -3)) == -3
    assert euler_number((-1, -1, 2, 3, -5)) == Fraction(41, 30)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_euler_antisymmetry(seed):
    p = random_knot_params(random.Random(seed))
    e = euler_number(p)
    assert euler_number(mirror(p)) == -e
    assert e != 0  # |H_1| = |e| * |prod p_i| is odd for a knot


def test_knot_only_ops_reject_links():
    for op in (euler_number, determinant, negative_definite_graph):
        with pytest.raises(NotAKnotError):
            op((2, 2, 3))


def test_negative_definite_graph_validates_once(monkeypatch):
    # the mirror branch (e(Y) = 41/30 > 0) validates the list once, and bad
    # input still raises from that one check
    calls = []
    require = plumbing._require_knot
    monkeypatch.setattr(plumbing, "_require_knot",
                        lambda params: calls.append(params) or require(params))
    g = negative_definite_graph((-1, -1, 2, 3, -5))
    assert len(calls) == 1 and g.mirrored
    with pytest.raises(NotAKnotError):
        negative_definite_graph((2, 2, 3))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# negative definite reduction

def test_reduction_examples():
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    assert (g.center_weight, g.legs, g.mirrored) == \
        (-4, ((-3,), (-3,), (-3,)), False)

    # e(Y) = 41/30 > 0 triggers the mirror branch; the +5 leg of the mirror
    # becomes a chain of four -2 vertices and the center drops to -3
    g = negative_definite_graph((-1, -1, 2, 3, -5))
    assert g.mirrored
    assert g.center_weight == -3
    assert g.legs == ((-2,), (-3,), (-2, -2, -2, -2))

    g = negative_definite_graph((1, 1, 3, -4))
    assert (g.center_weight, g.legs, g.mirrored) == \
        (-3, ((-2, -2), (-4,)), False)


def test_reduction_always_negative_definite():
    for seed in range(60):
        p = random_knot_params(random.Random(seed))
        g = negative_definite_graph(p)
        assert is_negative_definite(incidence_matrix(g)), p
        assert all(w <= -2 for leg in g.legs for w in leg), p


def test_reduction_vertex_count():
    for seed in range(40):
        p = normalize(random_knot_params(random.Random(seed + 1000)))
        g = negative_definite_graph(p)
        q = p if not g.mirrored else mirror(p)
        legs = [x for x in q if abs(x) != 1]
        expected = 1 + sum(w - 1 if w >= 2 else 1 for w in legs)
        assert g.rank == expected


# ---------------------------------------------------------------------------
# incidence matrices and determinants

def test_incidence_matrix_star():
    g = StarGraph(-4, ((-3,), (-3,), (-3,)))
    assert incidence_matrix(g) == [
        [-4, 1, 1, 1],
        [1, -3, 0, 0],
        [1, 0, -3, 0],
        [1, 0, 0, -3],
    ]


def test_incidence_matrix_trivials():
    assert incidence_matrix(StarGraph(-2, ())) == [[-2]]
    assert incidence_matrix(StarGraph(-3, ((-2, -2),))) == [
        [-3, 1, 0], [1, -2, 1], [0, 1, -2]]


def test_determinant_examples():
    assert determinant((1, 1, 1, 1, -3, -3, -3)) == 81
    assert determinant((1, 1, 3, -4)) == 25       # odd perfect square
    assert determinant((1, 5, -3, -4)) == 37
    assert determinant((-1, -1, 2, 3, -5)) == 41
    # on the star graph, so a parameter too large for a -2 chain is fine
    assert determinant((10 ** 20 + 1, 3, 5)) == 8 * 10 ** 20 + 23


def test_graph_and_determinant_from_one_star_pass(rng):
    # the construction behind negative_definite_graph reads |det| and the
    # sign of e(Y) off one leaf pass; check both against the public routes
    for _ in range(500):
        ms = tuple(sorted(normalize(random_knot_params(rng, max_abs=9))))
        g, det = _graph_and_determinant(ms)
        assert det == determinant(ms), ms
        assert g.mirrored == (euler_number(ms) > 0), ms
        assert is_negative_definite(incidence_matrix(g)), ms


def test_determinant_against_cofactor_oracle():
    for p in [(1, 1, 1, 1, -3, -3, -3), (1, 1, 3, -4), (3, -3, 2),
              (5, -5, 2), (3, 5, 7, 2), (1, 2, 3, -5)]:
        m = incidence_matrix(star_graph(p))
        assert determinant(p) == abs(cofactor_determinant(m))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_determinant_oracles_agree(seed):
    p = random_knot_params(random.Random(seed))
    d = determinant(p)
    assert d == closed_form_determinant(p)
    assert d % 2 == 1  # pretzel knots have odd determinant
    assert d == determinant(mirror(p))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_reduction_preserves_determinant(seed):
    # blow-ups and blow-downs preserve |H_1|
    p = random_knot_params(random.Random(seed))
    g = negative_definite_graph(p)
    assert abs(bareiss_determinant(incidence_matrix(g))) == determinant(p)


def test_bareiss_on_singular_and_permuted():
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 2, 1], [3, 0, 0], [0, 1, 1]]) == -3


# ---------------------------------------------------------------------------
# negative definiteness test

def test_is_negative_definite_examples():
    assert is_negative_definite([[-4, 1, 1, 1], [1, -3, 0, 0],
                                 [1, 0, -3, 0], [1, 0, 0, -3]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[-2, 1], [1, 2]])
    assert not is_negative_definite([[2, 0], [0, 2]])
    assert not is_negative_definite([[-1, 2], [2, -1]])  # det < 0


def test_leaf_to_centre_pass_agrees_with_dense_oracles():
    rng = random.Random(6060)
    indefinite = 0
    for _ in range(1000):
        p = random_knot_params(rng, max_abs=12)
        nd = negative_definite_graph(p)
        # raising the center weight by 1..3 makes some graphs indefinite
        for d in range(4):
            g = StarGraph(nd.center_weight + d, nd.legs)
            m = incidence_matrix(g)
            det, _, legs_negative = _eliminate_leaves(g)
            definite = legs_negative and det > 0
            assert definite == is_negative_definite(m), g
            assert det == (-1) ** g.rank * bareiss_determinant(m), g
            indefinite += not definite
        s = star_graph(p)
        assert determinant(p) == abs(bareiss_determinant(incidence_matrix(s)))
        assert euler_number(p) == s.center_weight - sum(
            Fraction(1, w) for (w,) in s.legs), p
    assert indefinite > 0


def test_definiteness_guard_raises_on_indefinite_graph():
    g = StarGraph(-1, ((-2,), (-2,)))
    assert not is_negative_definite(incidence_matrix(g))
    with pytest.raises(PlumbingError):
        _require_negative_definite(g)
    ok = StarGraph(-2, ((-2,), (-2,)))
    assert _require_negative_definite(ok) is ok


def test_dot_export():
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    dot = to_dot(g, (0,))
    assert dot.startswith("graph") and dot.rstrip().endswith("}")
    assert 'label="-4"' in dot and "doublecircle" in dot
    assert dot.count('wu="true"') == 1
    assert dot.count(" -- ") == 3


@pytest.mark.parametrize("params", [(2**61 + 1, 3, 5), (3, 3, 3997)])
@pytest.mark.parametrize("build", [negative_definite_graph, analyze])
def test_rank_bound_refuses_in_the_library(build, params):
    # a leg q >= 2 is a chain of q - 1 vertices: 2**61 of them, or rank
    # 4,001 for P(3, 3, 3997); the bound is checked before the chain is
    # allocated
    with pytest.raises(ValueError, match="exceeds 4000"):
        build(params)


def test_rank_bound_takes_what_fits():
    # rank 4,000 exactly, and a huge weight that stays one vertex after
    # the mirror to e(Y) < 0
    assert negative_definite_graph((3, 3, 3996)).rank == MAX_GRAPH_RANK
    assert negative_definite_graph((2**63 - 1, -3, -5)).rank == 8
