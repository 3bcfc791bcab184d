"""
Test-only reference for fibered.class_fiberable: decide class-level
fiberedness by running is_fibered on every ordering of the multiset, one
per cyclic-rotation-and-reversal class.
"""

import itertools

from pretzel import FiberStatus, is_fibered


def distinct_orderings(ms):
    """Orderings of a multiset, one per cyclic-rotation-and-reversal class."""
    seen = set()
    out = []
    for perm in set(itertools.permutations(ms)):
        n = len(perm)
        variants = []
        for seq in (perm, tuple(reversed(perm))):
            variants.extend(seq[r:] + seq[:r] for r in range(n))
        key = min(variants)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return sorted(out)


def class_fiberable_by_scan(ms):
    """Reference implementation of class_fiberable: try every ordering."""
    best = None
    for ordering in distinct_orderings(ms):
        v = is_fibered(ordering)
        if v.status is FiberStatus.FIBERED:
            return True, v.subcase
        if best is None:
            best = v.subcase
    return False, best
