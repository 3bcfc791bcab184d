"""
Test-only dense lattice arithmetic: the reference for
lattice.verify_embedding (the entrywise Gram check, one full dot product of
witness rows per entry of Q) and the quadratic form Q(v, w).
"""

from pretzel import StarGraph, incidence_matrix


def dense_verify_embedding(g_or_matrix, witness):
    """True iff the witness has k rows of length k and -M M^T equals Q
    entrywise."""
    if isinstance(g_or_matrix, StarGraph):
        q = incidence_matrix(g_or_matrix)
    else:
        q = [list(r) for r in g_or_matrix]
    k = len(q)
    if len(witness) != k or any(len(row) != k for row in witness):
        return False
    for i in range(k):
        for j in range(k):
            dot = sum(a * b for a, b in zip(witness[i], witness[j]))
            if -dot != q[i][j]:
                return False
    return True


def quadratic_form(q, v, w=None) -> int:
    """Q(v, w) for integer coordinate vectors."""
    if w is None:
        w = v
    return sum(q[i][j] * v[i] * w[j]
               for i in range(len(q)) for j in range(len(q)) if v[i] and w[j])
