import gc
import hashlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pretzel.lattice
from pretzel import (DonaldsonStatus, SearchConfig, SingularMod2Error,
                     bareiss_determinant, find_embedding, graph_signature,
                     incidence_matrix, mirror, negative_definite_graph,
                     project_embedding, signature, verify_embedding,
                     wu_class, wu_vertices)
from pretzel.oracle import exhaustive_embedding
from pretzel.plumbing import StarGraph

from conftest import CORPUS, random_knot_params
from goeritz_oracle import goeritz_signature
from gram_oracle import dense_verify_embedding, quadratic_form

# the standard published embedding of the 10_75 plumbing lattice:
# center e1+e2+e3+e4, legs -e1-e2+e4, -e1+e3-e4, -e1+e2-e3
KNOWN_1075_ROWS = ((1, 1, 1, 1), (-1, -1, 0, 1), (-1, 0, 1, -1),
                   (-1, 1, -1, 0))


def brute_force_wu(q):
    """Oracle: try all 2^rank subsets."""
    k = len(q)
    out = []
    for bits in itertools.product((0, 1), repeat=k):
        if all(quadratic_form(q, bits, e) % 2 == q[i][i] % 2
               for i, e in enumerate(
                   ([1 if j == i else 0 for j in range(k)]
                    for i in range(k)))):
            out.append(bits)
    return out


def unit_vectors(k):
    return [[1 if j == i else 0 for j in range(k)] for i in range(k)]


# ---------------------------------------------------------------------------
# Wu classes

def test_wu_class_center_for_1075():
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    assert wu_vertices(g) == (0,)


def test_wu_class_all_even_weights():
    g = StarGraph(-2, ((-2, -2), (-4,)))
    assert wu_class(g) == (0, 0, 0, 0)


def test_wu_class_against_brute_force():
    for p in [(1, 1, 3, -4), (1, 5, -3, -4), (3, -3, 2), (3, 5, 7, 2),
              (1, 1, 2), (3, 3, 3)]:
        q = incidence_matrix(negative_definite_graph(p))
        if len(q) > 10:
            continue
        w = wu_class(q)
        sols = []
        k = len(q)
        units = unit_vectors(k)
        for bits in itertools.product((0, 1), repeat=k):
            if all(quadratic_form(q, bits, units[i]) % 2 == q[i][i] % 2
                   for i in range(k)):
                sols.append(bits)
        assert sols == [w], p


def test_wu_singular_mod2_rejected():
    # even determinant (a link form): the congruence has no unique solution
    with pytest.raises(SingularMod2Error):
        wu_class([[-4, 2], [2, -2]])


def test_graph_signature_walk_agrees_with_dense_wu_class():
    rng = random.Random(7070)
    singular = 0
    for _ in range(1000):
        g = negative_definite_graph(random_knot_params(rng, max_abs=12))
        for d in range(4):
            h = StarGraph(g.center_weight + d, g.legs)
            q = incidence_matrix(h)
            try:
                want = -len(q) - quadratic_form(q, wu_class(q))
            except SingularMod2Error:
                singular += 1
                with pytest.raises(SingularMod2Error):
                    graph_signature(h)
                continue
            assert graph_signature(h) == want, h
    assert singular > 0


def test_search_on_a_star_graph_takes_the_walks_wu_set(monkeypatch):
    # the dense elimination serves matrix inputs only
    graphs = [g for _, g in rank5_corpus_graphs()]
    graphs += [negative_definite_graph(p) for p in ((1, 1, 1, 1, -3, -3, -3),
                                                    (5, -5, 7, -7, 4),
                                                    (3, -7, 5, -5, 8))]
    want = [find_embedding(g) for g in graphs]
    assert any(graph_signature(g) == 0 for g in graphs)

    def refuse(*args):
        raise AssertionError("dense Wu class computed for a star graph")
    monkeypatch.setattr(pretzel.lattice, "wu_class", refuse)
    assert [find_embedding(g) for g in graphs] == want


# ---------------------------------------------------------------------------
# signatures

def test_signature_examples():
    assert signature((1, 1, 1, 1, -3, -3, -3)) == 0
    assert signature((1, 1, 2)) == 0        # figure eight, amphichiral
    assert signature((3, 2)) == -4          # (2,5) torus knot
    assert signature((2, 7)) == -8          # (2,9) torus knot
    assert signature((3, 5, 7, 2)) == -14
    assert signature((1, 1, 3, -4)) == 0
    assert signature((3, 3, 3)) == 2


def test_signature_table_anchors():
    # classical identifications pin the global sign convention:
    # P(-2,3,3) = T(3,4), P(-2,3,5) = T(3,5), and P(-2,3,7) has det 1
    from pretzel import determinant
    assert (determinant((-2, 3, 3)), signature((-2, 3, 3))) == (3, -6)
    assert (determinant((-2, 3, 5)), signature((-2, 3, 5))) == (1, -8)
    assert (determinant((-2, 3, 7)), signature((-2, 3, 7))) == (1, -8)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_signature_mirror_antisymmetry(seed):
    p = random_knot_params(random.Random(seed))
    assert signature(mirror(p)) == -signature(p)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_signature_matches_goeritz_oracle(seed):
    p = random_knot_params(random.Random(seed), min_strands=2)
    assert signature(p) == goeritz_signature(p)


# ---------------------------------------------------------------------------
# embedding search

def matches_up_to_canonical_symmetry(witness, target):
    """Equality up to signed column permutations and reordering of the
    equal-weight leg rows (row 0 is the center in both)."""
    k = len(target)
    cols = range(k)
    for perm in itertools.permutations(cols):
        for signs in itertools.product((1, -1), repeat=k):
            mapped = [tuple(signs[j] * row[perm[j]] for j in cols)
                      for row in witness]
            if mapped[0] != target[0]:
                continue
            if sorted(mapped[1:]) == sorted(target[1:]):
                return True
    return False


def test_1075_embedding_matches_known_rows():
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    res = find_embedding(g)
    assert res.status is DonaldsonStatus.EMBEDDABLE
    assert verify_embedding(g, res.witness)
    assert matches_up_to_canonical_symmetry(res.witness, KNOWN_1075_ROWS)


def test_embedding_examples():
    assert not find_embedding(negative_definite_graph((1, 1, -3)))
    assert find_embedding(negative_definite_graph((1, 1, 3, -4)))
    big = (1,) * 6 + (-3,) * 5
    assert not find_embedding(negative_definite_graph(big))


def test_witness_soundness_on_random_knots():
    rng = random.Random(7)
    found = 0
    for _ in range(200):
        p = random_knot_params(rng, max_strands=5, max_abs=5)
        g = negative_definite_graph(p)
        if g.rank > 9:
            continue
        res = find_embedding(g)
        if res.status is DonaldsonStatus.EMBEDDABLE:
            assert verify_embedding(g, res.witness)
            found += 1
    assert found > 10


# Graphs of rank 27-45 at the 5x15 bound, above the 8x7 ranks (at most 26):
# every certificate there and, at each rank, the embeddable graph with the
# most nodes.  Each row is the class the graph was first built from, the
# [status, nodes] of its search and its key, copied from
# bench/reference/search-5x15.json.  The key sorts the legs while the leg
# order decides the search order, so the graph is built from the class.
HIGH_RANK_5X15 = [
    ((-15, -12, 15), "embeddable", 28,
     "-2;-15;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -9, -3, 7, 11), "not_embeddable", 25,
     "-3;-11;-7;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -9, -3, 11, 13), "not_embeddable", 25,
     "-3;-13;-11;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, 5, 7, 15), "not_embeddable", 26,
     "-3;-15;-13;-2,-2,-2,-2;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -11, -1, 3, 15), "not_embeddable", 25,
     "-3;-15;-3;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -7, -5, 3, 15), "not_embeddable", 25,
     "-3;-15;-3;-2,-2,-2,-2;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -11, -1, 5, 15), "not_embeddable", 25,
     "-3;-15;-5;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -11, -1, 3, 3), "not_embeddable", 25,
     "-3;-3;-3;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -3, 3, 7), "not_embeddable", 26,
     "-3;-7;-3;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-11, -9, -7, 5, 7), "not_embeddable", 25,
     "-3;-7;-5;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -7, -7, 5, 7), "not_embeddable", 25,
     "-3;-7;-5;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-9, -9, -9, 5, 9), "not_embeddable", 25,
     "-3;-9;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -9, -3, 7, 9), "not_embeddable", 25,
     "-3;-9;-7;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -12, -1, -1, 15), "not_embeddable", 125,
     "-4;-15;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, 7), "not_embeddable", 27,
     "-2;-7;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -4, 11, 13), "embeddable", 40,
     "-3;-13;-11;-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -14, 15), "embeddable", 30,
     "-2;-15;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-11, -9, -9, 5, 11), "not_embeddable", 27,
     "-3;-11;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -11, -3, 7, 11), "not_embeddable", 27,
     "-3;-11;-7;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -7, 9, 9, 11), "not_embeddable", 27,
     "-3;-13;-7;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -5, 5, 7), "not_embeddable", 28,
     "-3;-7;-5;-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-11, -9, -9, 5, 9), "not_embeddable", 27,
     "-3;-9;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -9, -7, 5, 9), "not_embeddable", 27,
     "-3;-9;-5;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -10, -7, 9, 11), "not_embeddable", 27,
     "-3;-11;-9;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -2, 13, 15), "embeddable", 44,
     "-3;-15;-13;-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-11, -11, -9, 11, 11), "embeddable", 31,
     "-3;-11;-11;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-11, -11, -9, 5, 11), "not_embeddable", 29,
     "-3;-11;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -7, 5, 11), "not_embeddable", 29,
     "-3;-11;-5;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -9, -9, 5, 13), "not_embeddable", 29,
     "-3;-13;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -3, 7, 13), "not_embeddable", 29,
     "-3;-13;-7;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -15, -1, 3, 5), "not_embeddable", 29,
     "-3;-5;-3;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -3, 3, 7), "not_embeddable", 30,
     "-3;-7;-3;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -7, 7, 7), "not_embeddable", 30,
     "-3;-7;-7;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -4, 13, 15), "embeddable", 46,
     "-3;-15;-13;-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-11, -11, -11, 11, 11), "embeddable", 33,
     "-3;-11;-11;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -9, 5, 13), "not_embeddable", 31,
     "-3;-13;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -13, -7, 5, 13), "not_embeddable", 31,
     "-3;-13;-5;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -9, -9, 5, 15), "not_embeddable", 31,
     "-3;-15;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -15, -3, 7, 15), "not_embeddable", 31,
     "-3;-15;-7;-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -5, 5, 7), "not_embeddable", 32,
     "-3;-7;-5;-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -9, 7, 9), "not_embeddable", 31,
     "-3;-9;-7;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -6, 13, 15), "embeddable", 48,
     "-3;-15;-13;-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -11, 11, 11), "embeddable", 35,
     "-3;-11;-11;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -11, -11, 7, 11), "not_embeddable", 33,
     "-3;-11;-7;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -11, -9, 5, 15), "not_embeddable", 33,
     "-3;-15;-5;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -7, 5, 15), "not_embeddable", 33,
     "-3;-15;-5;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -7, 7, 7), "not_embeddable", 34,
     "-3;-7;-7;-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -15, -5, 7, 9), "not_embeddable", 33,
     "-3;-9;-7;-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -12, -9, 11, 13), "not_embeddable", 32,
     "-3;-13;-11;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -8, 13, 15), "embeddable", 50,
     "-3;-15;-13;-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -11, -11, 11, 11), "embeddable", 37,
     "-3;-11;-11;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -13, -11, 7, 13), "not_embeddable", 35,
     "-3;-13;-7;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -9, 7, 9), "not_embeddable", 35,
     "-3;-9;-7;-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -10, 13, 15), "embeddable", 52,
     "-3;-15;-13;-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -11, 7, 11), "not_embeddable", 37,
     "-3;-11;-7;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -11, 11, 13), "embeddable", 39,
     "-3;-13;-11;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -11, 7, 15), "not_embeddable", 37,
     "-3;-15;-7;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-13, -13, -13, 9, 9), "not_embeddable", 37,
     "-3;-9;-9;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -12, 13, 15), "embeddable", 54,
     "-3;-15;-13;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -13, 13, 13), "embeddable", 41,
     "-3;-13;-13;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -13, -13, 7, 13), "not_embeddable", 39,
     "-3;-13;-7;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -14, -13, 13, 15), "embeddable", 55,
     "-3;-15;-13;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -15, -13, 13, 15), "embeddable", 43,
     "-3;-15;-13;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -15, -13, 7, 15), "not_embeddable", 41,
     "-3;-15;-7;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -15, -14, 15, 15), "embeddable", 46,
     "-3;-15;-15;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
    ((-15, -15, -15, 15, 15), "embeddable", 45,
     "-3;-15;-15;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2;-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2"),
]


def test_search_work_on_high_rank_5x15_graphs():
    ranks, witnesses = set(), []
    for ms, status, nodes, key in HIGH_RANK_5X15:
        g = negative_definite_graph(ms)
        legs = ";".join(",".join(map(str, leg)) for leg in sorted(g.legs))
        assert "%d;%s" % (g.center_weight, legs) == key
        ranks.add(g.rank)
        res = find_embedding(g)
        assert (res.status.value, res.nodes) == (status, nodes), key
        if res:
            witnesses.append((key, res.witness))
    assert (min(ranks), max(ranks)) == (27, 45)
    assert (len(HIGH_RANK_5X15), len(witnesses)) == (66, 19)
    # the node counts do not pin which witness each search finds
    assert hashlib.sha256(repr(sorted(witnesses)).encode()).hexdigest() == \
        "474ca496862c4267d3398d87c55da10961c25d7447ca29d5de5301765420ddbc"


def test_node_limit_inconclusive():
    g = negative_definite_graph((1,) * 6 + (-3,) * 5)
    res = find_embedding(g, SearchConfig(node_limit=2))
    assert res.status is DonaldsonStatus.INCONCLUSIVE
    assert res.nodes == 2


def fresh_blocks_by_brute_force(n, width):
    """Every non-increasing sequence of positive integers with squares
    summing to n and at most width entries, zero-padded to width, in
    lexicographic order."""
    values = range(math.isqrt(n), 0, -1)
    return sorted(
        seq + (0,) * (width - length)
        for length in range(width + 1)
        for seq in itertools.combinations_with_replacement(values, length)
        if sum(a * a for a in seq) == n)


def test_fresh_block_matches_brute_force():
    cases = 0
    for k in range(9):
        for col in range(k + 1):
            for n in range(40):
                vec = [7] * col + [0] * (k - col)
                got = [tuple(v) for v in
                       pretzel.lattice._fill_fresh(vec, n, n, col)]
                want = fresh_blocks_by_brute_force(n, k - col)
                assert [v[col:] for v in got] == want, (k, col, n)
                assert all(v[:col] == (7,) * col for v in got)
                assert vec == [7] * col + [0] * (k - col)
                cases += 1
    assert cases == 1800


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_depth_does_not_grow_with_rank():
    # one loop places the rows, so a rank-303 search needs no deep stack
    g = negative_definite_graph((301, -301, 2))
    assert g.rank == 303
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)
    try:
        res = find_embedding(g)
    finally:
        sys.setrecursionlimit(limit)
    assert (res.status, res.nodes) == (DonaldsonStatus.EMBEDDABLE, 303)
    assert verify_embedding(g, res.witness)


def test_search_leaves_no_reference_cycles():
    searches = [
        (negative_definite_graph((1, 1, 1, 1, -3, -3, -3)), None,
         DonaldsonStatus.EMBEDDABLE),
        (negative_definite_graph((1, 1, -3)), None,
         DonaldsonStatus.NOT_EMBEDDABLE),
        (negative_definite_graph((1,) * 6 + (-3,) * 5), 2,
         DonaldsonStatus.INCONCLUSIVE),
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for g, limit, status in searches:
            res = find_embedding(g, SearchConfig(node_limit=limit))
            assert res.status is status
            assert gc.collect() == 0, status
    finally:
        if enabled:
            gc.enable()


def test_malformed_matrix_rejected():
    # a matrix that is not square and symmetric is refused before any work
    for call in (lambda: find_embedding([[-2, 1], [0, -2]]),
                 lambda: find_embedding([[-2, 1], [1]]),
                 lambda: wu_class([[-3, 1], [0, -3]]),
                 lambda: verify_embedding([[-1, 0], [1, -1]],
                                          ((1, 0), (0, 1)))):
        with pytest.raises(ValueError, match="square symmetric"):
            call()


def test_verify_embedding_trivials():
    diag = [[-1, 0], [0, -1]]
    assert verify_embedding(diag, ((1, 0), (0, 1)))
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    bad = [list(r) for r in KNOWN_1075_ROWS]
    bad[2][0] = -bad[2][0]
    assert verify_embedding(g, KNOWN_1075_ROWS)
    assert not verify_embedding(g, tuple(tuple(r) for r in bad))
    # zip must not truncate a short row into a match
    assert not verify_embedding([[-1, 0], [0, -2]], ((1,), (0, 1, 1)))


def test_verify_embedding_matches_dense_oracle_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(300):
        k = rng.randint(1, 6)
        m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        q = [[-sum(a * b for a, b in zip(r1, r2)) for r2 in m] for r1 in m]
        assert verify_embedding(q, m) and dense_verify_embedding(q, m)
        shape = rng.choice(("entry", "non-square", "ragged", "too-short"))
        bad = [list(r) for r in m]
        if shape == "entry":
            bad[rng.randrange(k)][rng.randrange(k)] += rng.choice((-1, 1))
        elif shape == "non-square":
            width = rng.choice([w for w in range(k + 3) if w != k])
            bad = [r[:width] + [0] * (width - k) for r in bad]
        elif shape == "ragged":
            bad[rng.randrange(k)].append(0)
        else:
            bad.pop()
        # a moved entry changes a diagonal entry of -M M^T by an odd amount
        # and the other shapes are wrong, so every case must fail
        assert not verify_embedding(q, bad)
        assert not dense_verify_embedding(q, bad)


# ---------------------------------------------------------------------------
# oracle equivalence (standalone exhaustive oracle) and Wu-pruning consistency

def rank5_corpus_graphs():
    out = []
    for p in CORPUS:
        g = negative_definite_graph(p)
        if g.rank <= 5:
            out.append((p, g))
    return out


def test_exhaustive_matches_default_on_small_corpus():
    graphs = rank5_corpus_graphs()
    assert len(graphs) >= 6
    for p, g in graphs:
        a = find_embedding(g)
        b = exhaustive_embedding(g)
        assert bool(a) == bool(b), p
        if a.witness:
            assert verify_embedding(g, a.witness)
            assert verify_embedding(g, b.witness)


def test_wu_pruning_consistency_where_sigma_zero():
    for p, g in rank5_corpus_graphs():
        if graph_signature(g) != 0:
            continue
        on = find_embedding(g, SearchConfig(wu_pruning=True))
        off = find_embedding(g, SearchConfig(wu_pruning=False))
        assert bool(on) == bool(off), p


def test_wu_pruning_consistency_random():
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        p = random_knot_params(rng, max_strands=5, max_abs=5)
        g = negative_definite_graph(p)
        if g.rank > 8 or graph_signature(g) != 0:
            continue
        on = find_embedding(g, SearchConfig(wu_pruning=True))
        off = find_embedding(g, SearchConfig(wu_pruning=False))
        assert bool(on) == bool(off), p
        checked += 1
    assert checked > 10


def test_wu_completion_on_adjacent_wu_vertices():
    # star graphs have pairwise non-adjacent Wu vertices (see
    # test_wu_set_of_a_star_graph_is_independent); triangles with sigma = 0
    # have adjacent ones, so the Wu prune stays off and the search runs
    # unpruned
    checked = embeddable = 0
    for a, b, c in itertools.product(range(-5, 0), repeat=3):
        q = [[a, 1, 1], [1, b, 1], [1, 1, c]]
        minors = [[[-x for x in r[:m]] for r in q[:m]] for m in (1, 2, 3)]
        if not all(bareiss_determinant(mi) > 0 for mi in minors):
            continue
        if bareiss_determinant(q) % 2 == 0:  # no Wu class
            continue
        w = wu_class(q)
        if sum(w) < 2 or quadratic_form(q, w) != -3:
            continue
        res = find_embedding(q)
        assert res.status is find_embedding(
            q, SearchConfig(wu_pruning=False)).status, q
        assert bool(res) == bool(exhaustive_embedding(q)), q
        checked += 1
        embeddable += bool(res)
    assert (checked, embeddable) == (12, 3)
    assert find_embedding([[-5, 1, 1], [1, -2, 1], [1, 1, -2]])


# Wu sets with an edge whose norms still sum to the rank (found by a seeded
# scan of random negative definite matrices).  The block rule would place
# the Wu rows orthogonal whatever Q says, so these take the unpruned search.
ADJACENT_WU_NORMS_SUM_TO_RANK = [
    [[-2, 1, -1, 1, -1], [1, -2, 1, 0, 0], [-1, 1, -1, 1, 0],
     [1, 0, 1, -4, -1], [-1, 0, 0, -1, -3]],
    [[-2, 1, 0, 1, 0], [1, -2, 1, -1, 1], [0, 1, -3, 0, 1],
     [1, -1, 0, -1, 1], [0, 1, 1, 1, -4]],
    [[-4, -1, 0, 1, -1], [-1, -4, 0, 0, 0], [0, 0, -2, -1, 1],
     [1, 0, -1, -1, 1], [-1, 0, 1, 1, -2]],
]


def test_wu_prune_needs_an_independent_wu_set():
    for q in ADJACENT_WU_NORMS_SUM_TO_RANK:
        wu = wu_vertices(q)
        assert sum(-q[v][v] for v in wu) == len(q)
        assert any(q[a][b] for a in wu for b in wu if a < b)
        res = find_embedding(q)
        assert res.status is find_embedding(
            q, SearchConfig(wu_pruning=False)).status, q
        assert bool(res) == bool(exhaustive_embedding(q)), q


def test_exhaustive_matches_default_random_stress():
    # broad randomized guard for the symmetry-breaking completeness
    rng = random.Random(123321)
    checked = 0
    while checked < 60:
        p = random_knot_params(rng, max_strands=5, max_abs=5)
        g = negative_definite_graph(p)
        if g.rank > 6:
            continue
        fast = find_embedding(g)
        oracle = exhaustive_embedding(g)
        assert bool(fast) == bool(oracle), p
        if oracle.witness:
            assert verify_embedding(g, oracle.witness), p
        checked += 1


# ---------------------------------------------------------------------------
# projections

def test_project_identity():
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    res = find_embedding(g)
    proj = project_embedding(res.witness, range(4))
    assert proj.rows == res.witness
    assert [list(r) for r in proj.matrix] == incidence_matrix(g)
    assert proj.vertices == (0, 1, 2, 3)


def test_project_1075_first_column():
    proj = project_embedding(KNOWN_1075_ROWS, [0])
    assert proj.vertices == (0, 1, 2, 3)
    assert proj.rows == ((1,), (-1,), (-1,), (-1,))
    assert proj.matrix == (
        (-1, 1, 1, 1),
        (1, -1, -1, -1),
        (1, -1, -1, -1),
        (1, -1, -1, -1),
    )


def test_project_drops_zero_rows():
    proj = project_embedding(KNOWN_1075_ROWS, [3])
    # v3 = -e1+e2-e3 has no e4 component
    assert proj.vertices == (0, 1, 2)
    assert proj.rows == ((1,), (1,), (-1,))
    with pytest.raises(ValueError):
        project_embedding(KNOWN_1075_ROWS, [])


def test_no_knot_graph_embeds_after_deleting_a_column():
    # a graph with nonzero determinant cannot embed in smaller rank, so a
    # projection of a witness never reproduces the full graph pairing
    g = negative_definite_graph((1, 1, 1, 1, -3, -3, -3))
    res = find_embedding(g)
    q = incidence_matrix(g)
    for drop in range(4):
        cols = [c for c in range(4) if c != drop]
        proj = project_embedding(res.witness, cols)
        assert [list(r) for r in proj.matrix] != q
