"""
Plumbing graphs for branched double covers of pretzel knots.

The double cover of S^3 branched over P([1^{±d}], p_{d+1}, ..., p_n) is the
Seifert fibered space bounding the plumbed 4-manifold of a star-shaped graph:
a central vertex of weight ∓d joined to one vertex of weight p_i for every
non-unitary parameter.  Its intersection form is the incidence matrix of the
graph (diagonal = weights, off-diagonal = 1 per edge).

The cover bounds a negative definite plumbing exactly when the Euler number

    e(Y) = ∓d - sum(1/p_i)

is negative; when it is positive we pass to the mirror knot first.  The
negative definite form is reached by trading every leg of positive weight
q >= 2 for a chain of (q-1) vertices of weight -2 and lowering the central
weight by 1 per substitution (a sequence of blow-ups and blow-downs; see
Neumann-Raymond for the normal form).  The text of the construction only
mentions q > 2, but a +2 leg must be converted as well: the chain-length
formula is consistent at q = 2 and the final graph needs all leg weights
at most -2.

Leaf-to-centre pivots.  A star graph is a tree, so symmetric elimination
from the leaves towards the centre (Neumann's plumbing calculus, Trans.
AMS 1981) never fills in.  Along a leg (a_1, ..., a_m), read from the
centre out, the pivots are the continued fractions

    p_m = a_m,   p_j = a_j - 1/p_{j+1},

and the centre pivot is c - sum over the legs of 1/p_1.  Hence:

* the graph is negative definite iff every pivot is < 0 (Sylvester);
* |det Q| = |product of the pivots|;
* the centre pivot equals e(Y) of the (possibly mirrored) parameters: a
  single-vertex leg p contributes -1/p as in e(Y), and a chain of q-1
  vertices of weight -2 has p_1 = -q/(q-1), contributing 1 - 1/q, which
  with the centre's drop of 1 is the -1/q of a +q parameter.

The pivots are carried as continuants, integer determinants of the leg
tails (_eliminate_leaves), one O(rank) pass of integer arithmetic.  A
class needs two such passes: the pass over the star graph gives the knot
determinant |det| and the sign of e(Y) (which decides the mirror), and the
pass over the reduced graph checks that it is negative definite
(_require_negative_definite).  The dense routines (bareiss_determinant,
is_negative_definite) stay for matrix inputs and as test oracles for this
pass.

The construction is the one place that knows the graph's shape: the
reduction rule, the mirror decision and the rank bound MAX_GRAPH_RANK,
checked as the legs are built so that a leg past the bound is never
allocated.  _leg_ranges numbers the vertices (centre 0, then each leg from
the centre out) for lattice's Wu set and search order.  _entries is the
one reader of the edges: the sparse form of Q, one dict {vertex: entry}
per vertex, which the DOT text and lattice's search and checks read.  No
production path builds a dense matrix from a star graph; incidence_matrix
is a public helper and a test oracle only.

All arithmetic is exact (big integers and fractions); nothing here touches
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import NotAKnotError, _cancel_unitaries, as_params, \
    classify_type, nonunitary, unitary_count_and_sign

# Graphs above this rank are refused while they are built.  Building and
# printing one is O(rank); an embedding witness is a dense rank x rank
# matrix, 16 million entries at 4,000.
MAX_GRAPH_RANK = 4000


class PlumbingError(RuntimeError):
    """The construction reached a state the theory rules out (corrupt
    input or an implementation bug); never raised for genuine knots."""


@dataclass(frozen=True)
class StarGraph:
    """Star-shaped weighted graph with chain legs.

    legs[i] is the chain of weights of leg i, first entry adjacent to the
    center, consecutive entries adjacent.  `mirrored` records whether the
    input parameters were replaced by their mirror to reach e(Y) < 0.
    """
    center_weight: int
    legs: tuple[tuple[int, ...], ...]
    mirrored: bool = False

    @property
    def rank(self) -> int:
        return 1 + sum(len(leg) for leg in self.legs)


def _require_knot(params):
    """Validate a knot parameter list for the plumbing recipe.

    Only opposite-sign unitary pairs are removed (the star graph needs all
    unitaries on one side to form the central weight); a (±1, ∓2) pair is
    left alone, matching the construction on the presented diagram.  The
    recipe is presentation-robust anyway: the Euler number, the determinant
    and the reduced negative definite graph agree with those of the fully
    normalized list, since both present the same Seifert fibered cover.
    """
    p = list(as_params(params))
    if not classify_type(p).is_knot():
        raise NotAKnotError("operation defined for pretzel knots only")
    return tuple(_cancel_unitaries(p))


def star_graph(params) -> StarGraph:
    """The star plumbing graph of a pretzel knot: center ∓d for d unitaries
    of sign ±, one single-vertex leg per non-unitary parameter."""
    return _star(_require_knot(params))


def _star(p) -> StarGraph:
    """star_graph of an already validated parameter list."""
    d, sign = unitary_count_and_sign(p)
    return StarGraph(-sign * d, tuple((w,) for w in nonunitary(p)))


def euler_number(params) -> Fraction:
    """Exact Euler number e(Y) = ∓d - sum over non-unitary 1/p_i, the
    centre pivot of the star graph."""
    det, prod, _ = _eliminate_leaves(star_graph(params))
    return Fraction(-det, prod)


def negative_definite_graph(params) -> StarGraph:
    """The canonical negative definite plumbing graph of the knot (mirroring
    first when e(Y) > 0).  The result is verified negative definite.
    Raises ValueError when its rank exceeds MAX_GRAPH_RANK."""
    return _graph_and_determinant(_require_knot(params))[0]


def _graph_and_determinant(p) -> tuple[StarGraph, int]:
    """(negative_definite_graph, determinant) of an already validated list
    p with no opposite-sign unitary pair: one leaf pass over the star graph
    for |det| and the sign of e(Y) = -det/P, one over the result for the
    guard.  A leg past MAX_GRAPH_RANK is never allocated."""
    star = _star(p)
    det, prod, _ = _eliminate_leaves(star)
    flip = -1 if det * prod < 0 else 1   # e(Y) > 0: mirror
    center, legs, rank = flip * star.center_weight, [], 1
    for (w,) in star.legs:
        w, n = flip * w, 1
        if w >= 2:
            w, n, center = -2, w - 1, center - 1
        rank += n
        # past the bound only the rank is counted, no leg is built
        if rank <= MAX_GRAPH_RANK:
            legs.append((w,) * n)
    if rank > MAX_GRAPH_RANK:
        raise ValueError("graph rank %d exceeds %d, the largest negative "
                         "definite graph this package builds"
                         % (rank, MAX_GRAPH_RANK))
    g = StarGraph(center, tuple(legs), flip < 0)
    return _require_negative_definite(g), abs(det)


def _require_negative_definite(g: StarGraph) -> StarGraph:
    """g itself, after checking that every leaf-to-centre pivot is negative;
    the guard against a construction bug.  It also rejects e(Y) = 0, whose
    centre pivot is 0 (impossible for a knot: |H_1| = |e(Y) * P| is odd)."""
    det, _, legs_negative = _eliminate_leaves(g)
    if not (legs_negative and det > 0):
        raise PlumbingError("reduction failed to produce a negative definite "
                            "graph: %r" % (g,))
    return g


def _eliminate_leaves(g: StarGraph) -> tuple[int, int, bool]:
    """One pass from the leaves to the centre: (det(-Q), the product P of
    the legs' determinants in -Q, whether every leg pivot of Q is
    negative).  The centre pivot of Q is -det(-Q) / P, so Q is negative
    definite iff the legs are and det(-Q) > 0.

    For -Q the pivot at leg vertex j is D_j / D_{j+1}, where D_j is the
    determinant of the leg tail from j outward (D_{m+1} = 1, D_{m+2} = 0,
    D_j = -a_j D_{j+1} - D_{j+2}).  Expanding det(-Q) along the centre
    gives -c * P - sum over legs of D2 * (the other legs' D1), with D1,
    D2 the tails from the first and second leg vertex.  Both formulas are
    polynomial identities, so det(-Q) is right even when some pivot is
    zero or positive.
    """
    prod, cross, negative = 1, 0, True
    for leg in g.legs:
        d1, d2 = 1, 0
        for a in reversed(leg):
            d1, d2 = -a * d1 - d2, d1
            negative = negative and d1 > 0
        prod, cross = prod * d1, cross * d1 + d2 * prod
    return -g.center_weight * prod - cross, prod, negative


def incidence_matrix(g: StarGraph) -> list[list[int]]:
    """Symmetric incidence matrix: diagonal weights, 1 per edge.

    Vertex order: center first, then each leg in order, chains listed from
    the center outward.  A public helper and test oracle; the package
    reads the graph through _entries.
    """
    return [[row.get(u, 0) for u in range(g.rank)] for row in _entries(g)]


def _entries(g: StarGraph) -> list[dict[int, int]]:
    """The sparse form of the graph's Q: one dict per vertex, in
    incidence-matrix order, holding {vertex: entry} for its diagonal
    weight and a 1 for each edge.  The one reader of the edges."""
    rows = [{0: g.center_weight}]
    for leg, vs in zip(g.legs, _leg_ranges(g)):
        for prev, v, w in zip((0, *vs), vs, leg):
            rows.append({v: w, prev: 1})
            rows[prev][v] = 1
    return rows


def _leg_ranges(g: StarGraph) -> list[range]:
    """The vertices of each leg in incidence-matrix order, from the centre
    out; the centre is vertex 0 and each leg follows the one before."""
    ranges, start = [], 1
    for leg in g.legs:
        ranges.append(range(start, start + len(leg)))
        start += len(leg)
    return ranges


def bareiss_determinant(matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free Bareiss
    elimination with row pivoting."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        if a[c][c] == 0:
            for r in range(c + 1, n):
                if a[r][c] != 0:
                    a[c], a[r] = a[r], a[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
            a[r][c] = 0
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def determinant(params) -> int:
    """Knot determinant |det Q| of the star graph's incidence matrix, in
    exact integer arithmetic: |c * prod p_i - sum_i prod_{j != i} p_j| for
    center c and single-vertex legs p_i.  Always odd for a knot."""
    det, _, _ = _eliminate_leaves(star_graph(params))
    return abs(det)


def is_negative_definite(matrix) -> bool:
    """Leading-principal-minor test: minors must alternate in sign starting
    negative.  Exact; a zero minor fails.

    Bareiss pivots are the leading principal minors, so one swap-free
    elimination yields the whole sequence.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    prev = 1
    for c in range(n):
        minor = a[c][c]  # leading principal minor of size c+1
        if minor == 0 or (minor > 0) != (c % 2 == 1):
            return False
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[r][j] * minor - a[r][c] * a[c][j]) // prev
            a[r][c] = 0
        prev = minor
    return True


def to_dot(g: StarGraph, wu_vertices=()) -> str:
    """DOT rendering of a star graph.  The center is marked and the Wu-set
    vertices carry a highlight attribute."""
    wu = set(wu_vertices)
    rows = _entries(g)
    lines = ["graph pretzel {"]
    for i, row in enumerate(rows):
        attrs = ['label="%d"' % row[i]]
        if i == 0:
            attrs.append("shape=doublecircle")
            attrs.append('center="true"')
        if i in wu:
            attrs.append('color="red"')
            attrs.append('style="filled"')
            attrs.append('fillcolor="lightpink"')
            attrs.append('wu="true"')
        lines.append("  v%d [%s];" % (i, ", ".join(attrs)))
    # each vertex but the centre has one neighbour before it
    lines.extend("  v%d -- v%d;" % (u, v)
                 for v, row in enumerate(rows) for u in row if u < v)
    lines.append("}")
    return "\n".join(lines)
