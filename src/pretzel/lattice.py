"""
Wu classes, knot signatures, and the Donaldson lattice-embedding obstruction.

For a knot K whose branched double cover bounds the negative definite
plumbing X of a graph with intersection form Q of rank k, sliceness of K
forces a lattice embedding of (Z^k, Q) into the standard negative diagonal
lattice (Z^k, -Id): an integer matrix M, one row per vertex, with
-M M^T = Q.  Donaldson's diagonalization theorem supplies the obstruction;
`find_embedding` decides existence by a complete backtracking search whose
negative answers are exhaustion certificates.

The Wu class w is the unique 0/1 vertex vector with Q(w, x) = Q(x, x) mod 2
for all x; it exists and is unique whenever det Q is odd, i.e. for knots.
Saveliev's formula (Sav00, Theorem 5) computes the knot signature from it:

    sigma(K) = sign(Q) - Q(w, w),

evaluated on the negative definite graph, where sign(Q) = -rank; the result
is negated if the graph was built from the mirror.

One walk over a star graph's legs finds its Wu class instead of
eliminating the dense matrix, and it serves the signature, the Wu set of
the search and the highlight of `pretzelc graph` (wu_vertices of a
StarGraph).  Read from the outer end, the congruence at each leg vertex,
a_j w_j + w_{j-1} + w_{j+1} = a_j (mod 2), fixes the bit nearer the centre,
so each leg is settled by trying both values of its outer bit; each trial
forces a centre bit, and the centre's own congruence picks the one
consistent choice (it is unique iff det Q is odd).  The Wu set of a star
graph has no edges (see the Wu prune below), so Q(w,w) is the sum of the
weights of the Wu vertices.  wu_class keeps the dense GF(2) elimination,
for matrix inputs, and is the test oracle for the walk.

Search pruning.  The basis symmetry of the diagonal lattice (signed column
permutations) is broken in two layers:

* first-use gauge: a row may only introduce fresh columns as the next
  unused indices, in one contiguous block with positive entries;
* column-orbit canonicalization: columns whose entries agree in every
  placed row are interchangeable, so within each such group a candidate's
  entries must be non-increasing (by column index).  Groups refine as rows
  are placed.  Given any embedding, sorting each row within the groups of
  its moment, in placement order, produces exactly one canonical image:
  the permutations used act trivially on all earlier rows, so completeness
  is preserved.  The fresh-block rule is the special case for the
  untouched-column group.

Candidates for a row of norm n are enumerated in lexicographic order over
the used columns (values ascending).  Rows are sparse (a row of norm n has
at most n nonzeros), so the enumeration walks the zeros of a candidate
forward in a loop and opens a recursion frame only at a nonzero entry.
The walk first finds how far zeros can go: to the first column where a 0
fails a test (below, or the column-group order), else to the fresh
columns.  Then the negative values run at each column of that range on the
way out, the fresh block follows if the walk reached it, and the positive
values run on the way back, which is ascending order at every column.  A
candidate is yielded only where the walk reaches the
fresh columns with every gap_t = need_t - (partial pairing so far) at 0
and the fresh block takes exactly the norm left.  The fresh block is built
by value: its largest entry a ascending, the number of copies of a
ascending, then a block of entries below a.  That is lexicographic order
again, and it opens one frame per distinct entry (at most sqrt(n)), not
one per entry.

Cauchy-Schwarz cuts the search: after column c, each placed row t must
still be reachable, gap_t^2 <= remaining * S_t(c+1), with remaining the
norm left and S_t(c+1) the squared norm of row t past c; a branch that
fails it can yield no candidate.  So the cut is pruning only: it changes
how much work the search does, never which candidates it yields or in what
order.  It is evaluated for the rows with a nonzero in the column being
filled, for every value there (0 included; a failure at 0 ends the zero
walk).  A row with entry 0 at c keeps its gap; its test waits for its next
nonzero column or the gap test at the fresh block, which costs less than
testing it at every column.  A value a that fails the test for row t
(entry e at c, S = S_t(c+1), g = gap_t, R the norm left before c) shows
where the values that pass it lie: (g - a e)^2 <= (R - a^2) S reads
A a^2 - 2 B a + g^2 - R S <= 0 with A = e^2 + S and B = e g, an interval
around B / A whose discriminant is D = S (R A - g^2) (over 4).  With
D < 0, or a above B / A, no larger value passes and the values at c stop;
below it the next value tried is max(a + 1, (B - isqrt D) // A), which is
at most the interval's least integer.  Every value tried is still tested,
so a loose bound costs time, never a candidate.  The interval is solved
only while a value is left after a, so the rows of norm 2 and 3, which try
one value of each sign at a column, pay nothing for it.  A value that takes the whole
norm left goes on only when every gap is 0, since the rest of the row is
then zeros.  The positive answers are checked entrywise (verify_embedding
sums -M M^T over each column's nonzeros), and |det Q| is asserted to be a
square, taken from the leaf-to-centre pass for star graphs.

When sigma = 0 and no two Wu vertices are adjacent, an extra Wu prune
applies.  The embedded Wu class is characteristic in the diagonal lattice
(the sublattice has odd index), so all its k coordinates are odd, and its
norm -Q(w,w) = k, the sum of the Wu norms, leaves each column exactly one
nonzero entry, ±1, among the Wu rows: their supports partition all k
columns.  Placed first, each Wu row is written down as the block of ones
on the next fresh columns, and the remaining rows decompose along the
blocks.  Wu first matters: the Wu rows are then single candidates, so the
counting arguments about the Wu set become immediate dead ends instead of
late contradictions behind a large branching factor.

The Wu set of a star graph is always independent.  The congruence at a Wu
vertex v, a_v + (number of Wu neighbours of v) = a_v (mod 2), gives every
vertex of the subgraph the Wu set spans an even degree, and a forest whose
degrees are all even has no edges (a tree with an edge has a leaf).  A
matrix input whose Wu vertices are adjacent gets the unpruned search, which
is still complete.

Search order: the Wu vertices of the prune, then for a star graph the
centre and the legs by decreasing length (ties by leg index), each walked
outward from the centre; a matrix input takes its other vertices in index
order.

Invariant: one loop places the rows, on a stack holding one candidate
generator per placed row and one for the next row.  Taking a candidate
from the top generator places a row; an exhausted generator is popped
together with the row placed before it; an empty stack is the exhaustion
certificate, and the node limit returns INCONCLUSIVE on the spot.  Each
placed row keeps its nonzero entries as (column, entry), read off the live
candidate vector before its generator resumes; the witness rows are
written out from them once the search has succeeded.  The pruning state
follows the stack.  Placing a row appends (row, entry, the row's squared
norm past the column) to the support of each of its columns, opening its
fresh columns, and extends each column's group key to (key, row, entry);
taking it back pops those entries in reverse order and drops the columns
it opened.  Rows are taken back in stack order, so a generator resumes on
the state it started from.  A row's generator reads the used columns off
the support, and computes its gaps and, in one pass over the keys, the
previous column of each column's group; the module-level generators
_fill_used/_fill_fresh run on that state.
Agreement with the exhaustive oracle of tests/embedding_oracle.py is tested
on small and random graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, compress

from .plumbing import (StarGraph, _eliminate_leaves, _leg_ranges,
                       bareiss_determinant, incidence_matrix,
                       negative_definite_graph)


class SingularMod2Error(ArithmeticError):
    """Incidence matrix is singular mod 2 (even determinant): the input was
    a link and should have been rejected upstream."""


# ---------------------------------------------------------------------------
# Wu class and signature

def wu_class(g_or_matrix) -> tuple[int, ...]:
    """The unique 0/1 solution of Q(w, x) = Q(x, x) mod 2, by elimination
    over GF(2).  Raises SingularMod2Error when det Q is even."""
    q = _matrix_of(g_or_matrix)
    k = len(q)
    # rows as bitmasks, bit k holds the right-hand side (diagonal parity)
    rows = [sum((q[i][j] & 1) << j for j in range(k)) | (q[i][i] & 1) << k
            for i in range(k)]
    pivots = {}
    for row in rows:
        for col in range(k):
            if not (row >> col) & 1:
                continue
            if col in pivots:
                row ^= pivots[col]
            else:
                pivots[col] = row
                break
        else:
            if (row >> k) & 1:
                raise SingularMod2Error("characteristic congruence unsolvable")
    if len(pivots) < k:
        raise SingularMod2Error("incidence matrix singular mod 2")
    w = [0] * k
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        val = (row >> k) & 1
        for j in range(col + 1, k):
            if (row >> j) & 1:
                val ^= w[j]
        w[col] = val
    return tuple(w)


def wu_vertices(g_or_matrix) -> tuple[int, ...]:
    """Indices of the Wu-set vertices in incidence-matrix order, ascending:
    by the leg walk for a star graph, by wu_class for a matrix."""
    if not isinstance(g_or_matrix, StarGraph):
        w = wu_class(g_or_matrix)
        return tuple(i for i, b in enumerate(w) if b)
    w, legs = _wu_walk(g_or_matrix)   # bit v of w is the Wu bit of vertex v
    for vs, t in zip(_leg_ranges(g_or_matrix), legs):
        w |= t[3] << vs.start
    return tuple(v for v in range(g_or_matrix.rank) if w >> v & 1)


def _leg_trial(leg, outer):
    """Wu bits of a leg from its outer bit `outer`, each leg congruence
    fixing the bit nearer the centre: (the centre bit they force, the
    first bit, the sum of the leg's Wu weights, the bits with bit j for
    the j-th vertex from the centre)."""
    cur, nxt, share, bits = outer, 0, 0, 0
    for a in reversed(leg):
        share += a * cur
        bits = 2 * bits + cur
        cur, nxt = (a * (1 + cur) + nxt) & 1, cur
    return cur, nxt, share, bits


def _wu_walk(g: StarGraph):
    """The Wu class of a star graph by the leg walk: (the centre bit, the
    trial of _leg_trial that each leg takes).  Raises SingularMod2Error
    when det Q is even."""
    c = g.center_weight
    trials = [(_leg_trial(leg, 0), _leg_trial(leg, 1)) for leg in g.legs]
    found = []
    for w0 in (0, 1):
        fits = [[t for t in pair if t[0] == w0] for pair in trials]
        if not all(fits):
            continue
        free = [i for i, f in enumerate(fits) if len(f) == 2]
        if len(free) > 1:
            # two legs whose outer bits only enter the centre congruence
            raise SingularMod2Error("incidence matrix singular mod 2")
        picks = [f[0] for f in fits]
        for legs in [picks] + [picks[:i] + [fits[i][1]] + picks[i + 1:]
                               for i in free]:
            # the centre congruence: c w0 + (first bit of each leg) = c
            if (c * (w0 + 1) + sum(t[1] for t in legs)) % 2 == 0:
                found.append((w0, legs))
    if len(found) != 1:
        raise SingularMod2Error("incidence matrix singular mod 2")
    return found[0]


def graph_signature(g: StarGraph) -> int:
    """sign(Q) - Q(w,w) for a negative definite graph (no mirror fixup),
    with the Wu class w found by the leg walk.  Raises SingularMod2Error
    when det Q is even."""
    w0, legs = _wu_walk(g)
    return -g.rank - g.center_weight * w0 - sum(t[2] for t in legs)


def signature(params) -> int:
    """Knot signature via Saveliev's formula on the negative definite graph,
    negated when the graph came from the mirror."""
    g = negative_definite_graph(params)
    s = graph_signature(g)
    return -s if g.mirrored else s


# ---------------------------------------------------------------------------
# embedding search

class DonaldsonStatus(Enum):
    EMBEDDABLE = "embeddable"
    NOT_EMBEDDABLE = "not_embeddable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EmbeddingResult:
    status: DonaldsonStatus
    witness: tuple[tuple[int, ...], ...] | None
    nodes: int

    def __bool__(self):
        return self.status is DonaldsonStatus.EMBEDDABLE


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for find_embedding.

    wu_pruning turns on the sigma = 0 Wu prune.  node_limit caps the number
    of row placements before giving up (INCONCLUSIVE).
    """
    wu_pruning: bool = True
    node_limit: int | None = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")


def _matrix_of(g_or_matrix):
    if isinstance(g_or_matrix, StarGraph):
        return incidence_matrix(g_or_matrix)
    q = [list(r) for r in g_or_matrix]
    if any(len(r) != len(q) for r in q) or q != [list(c) for c in zip(*q)]:
        raise ValueError("Q must be a square symmetric matrix")
    return q


def _fill_fresh(vec, remaining, cap, col):
    """The fresh block from column col: positive, non-increasing entries
    at most cap taking exactly the norm left, by value (module
    docstring)."""
    if remaining == 0:
        yield vec
        return
    for a in range(1, min(cap, math.isqrt(remaining)) + 1):
        end, left = col, remaining
        while left >= a * a and end < len(vec):
            vec[end] = a
            end, left = end + 1, left - a * a
            yield from _fill_fresh(vec, left, a - 1, end)
        vec[col:end] = [0] * (end - col)


def _fill_used(vec, gap, support, prev_in_group, start, remaining):
    """Candidates from used column start on, in ascending order.  The zero
    walk from start (zeros move no gap) finds the column it stops at, if
    any; the values run over the columns up to it: the negatives on the way
    out, the fresh block if the walk reaches it, the positives on the way
    back."""
    u = len(support)
    top = math.isqrt(remaining)
    end = start
    while end < u:
        p = prev_in_group[end]
        if p >= 0 and vec[p] < 0:
            break
        for t, _, sfx in support[end]:
            if gap[t] * gap[t] > remaining * sfx:
                break
        else:
            end += 1
            continue
        break
    cols = range(start, end + 1 if end < u else u)
    lo, cap = -top, -1   # the negative values on the way out
    for c in chain(cols, (u,), reversed(cols)):
        if c == u:   # the turn: the fresh block, then the positive values
            if end == u and not any(gap):
                yield from _fill_fresh(vec, remaining, remaining, u)
            lo, cap = 1, top
            continue
        a, hi = lo, cap
        p = prev_in_group[c]
        if p >= 0 and vec[p] < hi:
            hi = vec[p]
        col = support[c]
        while a <= hi:
            rem = remaining - a * a
            for t, e, sfx in col:
                g = gap[t] - a * e
                if g * g > rem * sfx:
                    break
            else:
                vec[c] = a
                for t, e, _ in col:
                    gap[t] -= a * e
                if rem or not any(gap):
                    yield from _fill_used(vec, gap, support, prev_in_group,
                                          c + 1, rem)
                for t, e, _ in col:
                    gap[t] += a * e
                vec[c] = 0
                a += 1
                continue
            if a == hi:
                break
            # row t rules a out: stop above its interval of values, else
            # jump to no further than the interval's least integer (module
            # docstring, with aa = A and b = B)
            g = gap[t]
            aa, b = e * e + sfx, e * g
            disc = sfx * (remaining * aa - g * g)
            if disc < 0 or a * aa > b:
                break
            a = max(a + 1, (b - math.isqrt(disc)) // aa)


def find_embedding(g_or_matrix, config: SearchConfig | None = None) -> EmbeddingResult:
    """Complete search for a lattice embedding -M M^T = Q.

    One loop places the rows in the search order, keeping the nonzero
    entries of each placed row and a node count (module docstring).
    Returns EMBEDDABLE with the first witness in the canonical enumeration
    order (deterministic), NOT_EMBEDDABLE only after exhausting the search
    space, or INCONCLUSIVE when node_limit was hit.  Every positive answer
    is checked with verify_embedding, and |det Q| is asserted to be a
    perfect square (the index identity for a finite-index sublattice of a
    unimodular lattice).
    """
    cfg = config or SearchConfig()
    q = _matrix_of(g_or_matrix)
    k = len(q)
    norms = [-q[i][i] for i in range(k)]
    if any(n <= 0 for n in norms):
        raise ValueError("graph is not negative definite")

    try:
        wu = wu_vertices(g_or_matrix)
    except SingularMod2Error:
        wu = ()
    # the Wu prune needs an independent Wu set and sigma = 0, which on it
    # reads Q(w,w) = -(the sum of the Wu norms) = -k
    if not (cfg.wu_pruning and sum(norms[v] for v in wu) == k and
            not any(q[a][b] for a, b in combinations(wu, 2))):
        wu = ()

    # the search order (module docstring)
    if isinstance(g_or_matrix, StarGraph):
        legs = sorted(_leg_ranges(g_or_matrix), key=len, reverse=True)
        rest = [0, *chain.from_iterable(legs)]
    else:
        rest = range(k)
    order = [*wu, *(v for v in rest if v not in wu)]
    # the one record kept per placed row: its nonzeros as (column, entry)
    nonzeros: list[tuple[tuple[int, int], ...]] = []
    # The pruning state of the placed rows, kept with undo (module
    # docstring): support[c] holds the nonzero entries of used column c as
    # (row, entry, the row's squared norm past c), and key[c] the column's
    # entries as nested (key, row, entry) triples.
    support: list[list[tuple[int, int, int]]] = []
    key: list[tuple] = []
    # one int object per column, shared by every row's prev_in_group
    columns = list(range(k))

    def candidates(s):
        """The candidates for row s, each yielded as the live vector."""
        n = norms[order[s]]
        # the used columns are a prefix, each nonzero (fresh-block rule)
        u = len(support)
        if s < len(wu):
            # independent Wu rows are disjoint blocks of ones
            yield [0] * u + [1] * n + [0] * (k - u - n)
            return
        qv = q[order[s]]
        # need - partial pairing with each placed row, before column 0
        gap = [-qv[order[t]] for t in range(s)]
        # Columns with the same entries in every placed row are
        # interchangeable; a candidate's entries must be non-increasing
        # along each such group.
        last_seen: dict = {}
        prev_in_group = []
        for c, kc in zip(columns, key):
            prev_in_group.append(last_seen.get(kc, -1))
            last_seen[kc] = c
        yield from _fill_used([0] * k, gap, support, prev_in_group, 0, n)

    # one candidate generator per placed row and one for the next row (the
    # one pushed for row k is never started)
    stack = [candidates(0)]
    nodes = 0
    while len(nonzeros) < k:
        vec = next(stack[-1], None)
        if vec is None:
            # the top row has no candidate left: take back the row before
            stack.pop()
            if not stack:
                return EmbeddingResult(DonaldsonStatus.NOT_EMBEDDABLE, None,
                                       nodes)
            for c, _ in reversed(nonzeros.pop()):
                support[c].pop()
                key[c] = key[c][0]
                if not support[c]:   # a fresh column of that row
                    support.pop()
                    key.pop()
            continue
        nodes += 1
        if cfg.node_limit is not None and nodes >= cfg.node_limit:
            return EmbeddingResult(DonaldsonStatus.INCONCLUSIVE, None, nodes)
        t = len(nonzeros)
        nonzeros.append(tuple(compress(enumerate(vec), vec)))
        tail = norms[order[t]]
        for c, e in nonzeros[t]:
            if c == len(support):
                support.append([])
                key.append(())
            tail -= e * e
            support[c].append((t, e, tail))
            key[c] = (key[c], t, e)
        stack.append(candidates(t + 1))
    # each suspended generator holds a vector of length k: free them before
    # the witness is built and verified
    stack.clear()

    # undo the search reordering: row i of the witness is vertex i
    witness = [[0] * k for _ in range(k)]
    for v, nz in zip(order, nonzeros):
        for c, e in nz:
            witness[v][c] = e
    witness = tuple(map(tuple, witness))
    if not verify_embedding(q, witness):
        raise AssertionError("search produced an invalid embedding")
    if isinstance(g_or_matrix, StarGraph):
        det = abs(_eliminate_leaves(g_or_matrix)[0])
    else:
        det = abs(bareiss_determinant(q))
    if math.isqrt(det) ** 2 != det:
        raise AssertionError("embedding found but |det Q| = %d is not a "
                             "perfect square" % det)
    return EmbeddingResult(DonaldsonStatus.EMBEDDABLE, witness, nodes)


def verify_embedding(g_or_matrix, witness) -> bool:
    """True iff the witness is k rows of length k and -M M^T equals Q
    entrywise.  -M M^T is summed column by column over the nonzero
    entries, in O(k^2 + sum over columns of nnz^2)."""
    q = _matrix_of(g_or_matrix)
    k = len(q)
    if len(witness) != k or any(len(row) != k for row in witness):
        return False
    gram = [[0] * k for _ in range(k)]
    for col in zip(*witness):
        nonzero = [(i, e) for i, e in enumerate(col) if e]
        for i, a in nonzero:
            row = gram[i]
            for j, b in nonzero:
                row[j] -= a * b
    return gram == q


@dataclass(frozen=True)
class ProjectedLattice:
    """Result of restricting an embedding to a subset of basis columns:
    the vertices with nonzero restricted rows, their rows, and the pairing
    matrix -M M^T they span.  Not in general a subgraph of the original."""
    matrix: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    vertices: tuple[int, ...]


def project_embedding(witness, basis_subset) -> ProjectedLattice:
    """Restrict embedding rows to the chosen basis columns (0-based) and
    rebuild the pairings among the vertices that survive."""
    cols = sorted(set(basis_subset))
    if not cols:
        raise ValueError("basis subset must be nonempty")
    restricted = []
    vertices = []
    for i, row in enumerate(witness):
        r = tuple(row[c] for c in cols)
        if any(r):
            restricted.append(r)
            vertices.append(i)
    matrix = tuple(
        tuple(-sum(a * b for a, b in zip(r1, r2)) for r2 in restricted)
        for r1 in restricted)
    return ProjectedLattice(matrix, tuple(restricted), tuple(vertices))
