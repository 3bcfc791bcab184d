"""Exhaustive lattice-embedding oracle, sharing no code with find_embedding."""

import math

from pretzel.lattice import DonaldsonStatus, EmbeddingResult
from pretzel.plumbing import StarGraph, incidence_matrix


def _shell(n, k):
    """All vectors of Z^k with sum of squares n."""
    if k == 0:
        return [()] if n == 0 else []
    r = math.isqrt(n)
    return [(a,) + v for a in range(-r, r + 1)
            for v in _shell(n - a * a, k - 1)]


def exhaustive_embedding(g_or_matrix) -> EmbeddingResult:
    """Decide whether -M M^T = Q has an integer solution M.

    Rows are placed in incidence order, each drawn from a table of all
    vectors of Z^k of its norm and kept only if its inner products with the
    earlier rows match Q.  One symmetry argument only: a signed column
    permutation makes the first row of any embedding sorted and >= 0.
    """
    q = incidence_matrix(g_or_matrix) \
        if isinstance(g_or_matrix, StarGraph) else g_or_matrix
    k = len(q)
    if any(q[i][i] >= 0 for i in range(k)):
        raise ValueError("graph is not negative definite")
    shells = {n: _shell(n, k) for n in {-q[i][i] for i in range(k)}}
    first = [v for v in shells[-q[0][0]]
             if list(v) == sorted(map(abs, v), reverse=True)]
    rows, nodes = [], 0

    def place(s):  # True: embedded, False: exhausted
        nonlocal nodes
        if s == k:
            return True
        for v in first if s == 0 else shells[-q[s][s]]:
            if any(sum(a * b for a, b in zip(v, rows[t])) != -q[s][t]
                   for t in range(s)):
                continue
            nodes += 1
            rows.append(v)
            if place(s + 1):
                return True
            rows.pop()
        return False

    found = place(0)
    status = (DonaldsonStatus.EMBEDDABLE if found else
              DonaldsonStatus.NOT_EMBEDDABLE)
    return EmbeddingResult(status, tuple(rows) if found else None, nodes)
