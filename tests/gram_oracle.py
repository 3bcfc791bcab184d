"""
Test-only reference for lattice.verify_embedding: the dense entrywise Gram
check, one full dot product of witness rows per entry of Q.
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
