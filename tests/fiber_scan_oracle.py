"""
Test-only references for the fibered module.

class_fiberable_by_scan decides class-level fiberedness by running
is_fibered on every ordering of the multiset, one per
cyclic-rotation-and-reversal class.  The *_model_by_scan functions decide
the three model links by trying every rotation, reversal and negation of
the word against the literal model.  even_last_orientations_by_scan
rotates each reading direction one step at a time until the last entry is
even.
"""

import itertools

from pretzel import FiberStatus, is_fibered
from pretzel.core import nonunitary


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


def _variants(word):
    n = len(word)
    for seq in (word, tuple(reversed(word))):
        for s in (1, -1):
            for r in range(n):
                yield tuple(s * x for x in seq[r:] + seq[:r])


def _matches_model(word, tail=None) -> bool:
    """Some comparison variant of word reads 2,-2,2,-2,... and ends in tail
    (in any last entry when tail is None)."""
    n = len(word)
    head = ((2, -2) * n)[:n - 1]
    return any(v[:-1] == head and (tail is None or v[-1] == tail)
               for v in _variants(word))


def alternating_model_by_scan(word) -> bool:
    """word = ±P(2,-2,...,2,-2): some variant reads 2,-2,...,2,-2."""
    return len(word) >= 2 and len(word) % 2 == 0 and \
        _matches_model(word, -2)


def arbitrary_tail_model_by_scan(word) -> bool:
    """word = ±P(2,-2,...,2,-2,n): some variant reads 2,-2,...,2,-2,n."""
    return len(word) >= 3 and len(word) % 2 == 1 and _matches_model(word)


def extra_minus_two_model_by_scan(word) -> bool:
    """word = ±P(2,-2,...,2,-2,-2): some variant reads 2,-2,...,2,-2,-2."""
    return len(word) >= 3 and len(word) % 2 == 1 and \
        _matches_model(word, -2)


def even_last_orientations_by_scan(params):
    """Reference implementation of even_last_orientations: try every
    rotation of each reading direction, the unrotated one first."""
    q = nonunitary(params)
    out = []
    for seq in (q, tuple(reversed(q))):
        for r in range(len(seq)):
            rot = seq[r:] + seq[:r]
            if rot[-1] % 2 == 0:
                out.append(rot)
                break
    return list(dict.fromkeys(out))
