"""
Test-only reference for classify.knot_classes: scan every sorted
combination of nonzero values within the bound and keep the normalized,
mirror-canonical knots, one classify_type call per combination.
"""

import itertools

from pretzel import classify_type


def _normalized_multiset(ms) -> bool:
    s = set(ms)
    if 1 in s and -1 in s:
        return False
    if (1 in s and -2 in s) or (-1 in s and 2 in s):
        return False
    return True


def knot_classes_by_scan(max_strands: int, max_abs_param: int):
    """Reference implementation of knot_classes: filter every combination."""
    if max_strands < 3 or max_abs_param < 2:
        raise ValueError("bounds too small: need max_strands >= 3, "
                         "max_abs_param >= 2")
    values = [v for v in range(-max_abs_param, max_abs_param + 1) if v != 0]
    for n in range(3, max_strands + 1):
        # the values ascend, so each combination is already a sorted tuple
        for ms in itertools.combinations_with_replacement(values, n):
            if not _normalized_multiset(ms):
                continue
            if not classify_type(ms).is_knot():
                continue
            if ms > tuple(-x for x in reversed(ms)):
                continue
            yield ms
