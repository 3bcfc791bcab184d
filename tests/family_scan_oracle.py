"""
Test-only references for the family matchers of the classify module.

They scan: match_family_by_scan tries every F1..F4 base the multiset
contains and tests whether the rest splits into pairs {q, -q};
is_exceptional_by_scan tries every triple (a, -a-2, -(a+1)^2/2) the
multiset contains; is_detectably_ribbon_by_scan asks whether the reduced
list is one of the bases.  None of them reads the pair-free core.
detectably_ribbon_reduce_by_scan cancels one pair at a time, rescanning
from the first entry after each, where the production move makes one
stack pass and trims the ends.
"""

from pretzel import Kind, RibbonFamily, as_params, classify_type, mirror

_F1 = [-3, -3, -3, 1, 1, 1, 1]


def _take(ms, base):
    """ms less the multiset base, or None when ms does not contain base."""
    rest = list(ms)
    try:
        for b in base:
            rest.remove(b)
    except ValueError:
        return None
    return rest


def _pairs(values):
    """The sorted q > 0 of a split of values into pairs {q, -q}, or None."""
    pos = sorted(x for x in values if x > 0)
    if 2 * len(pos) == len(values) and \
            pos == sorted(-x for x in values if x < 0):
        return tuple(pos)
    return None


def _bases(ms):
    """(tag, k, t, rest) for each F1..F4 base contained in the multiset ms,
    rest being ms less the base.  The F1 base is 10_75 itself and takes no
    pairs, so it is only found with an empty rest."""
    if sorted(ms) == _F1:
        yield "F1", None, None, []
    for x in set(ms):
        if x % 2 == 0:
            yield "F2", x, None, _take(ms, (x,))
        if x > 1 and -x - 1 in ms:
            yield "F4", x, None, _take(ms, (x, -x - 1))
    # F3 base {1, 3, t+1, -4-t}: with x = t+1 >= 1 the last entry is -3-x
    rest13 = _take(ms, (1, 3))
    for x in set(rest13 or ()):
        if x >= 1 and -3 - x in rest13:
            yield "F3", None, x - 1, _take(rest13, (x, -3 - x))


def match_family_by_scan(c):
    """Reference implementation of match_family: every base, then pairs."""
    found = []
    for mirrored, ms in ((False, c.multiset), (True, mirror(c.multiset))):
        for tag, k, t, rest in _bases(ms):
            pairs = _pairs(rest)
            if pairs is None or any(q < 3 or q % 2 == 0 for q in pairs) \
                    or (tag == "F2" and not pairs) \
                    or (tag == "F4" and any(q <= k for q in pairs)):
                continue
            found.append(RibbonFamily(tag, pairs, k, t, mirrored))
    found.sort(key=lambda f: (f.tag, f.mirrored, f.pairs))
    return (found[0] if found else None), tuple(found)


def _exceptional_triple(multiset) -> bool:
    """is_exceptional of a Type 2 multiset."""
    for ms in (multiset, mirror(multiset)):
        for a in {x for x in ms if x > 0 and x % 120 in (1, 97)}:
            rest = _take(ms, (a, -a - 2, -((a + 1) ** 2) // 2))
            if rest is not None and _pairs(rest) is not None:
                return True
    return False


def is_exceptional_by_scan(c) -> bool:
    """Reference implementation of is_exceptional: every triple."""
    return classify_type(c.multiset) is Kind.TYPE2 and \
        _exceptional_triple(c.multiset)


def detectably_ribbon_reduce_by_scan(params):
    """Reference implementation of detectably_ribbon_reduce: cancel the
    first cyclically adjacent pair (q, -q) with |q| >= 2, then scan again
    from the start, until no pair is left."""
    p = list(as_params(params))
    while len(p) >= 2:
        for i in range(len(p)):
            j = (i + 1) % len(p)
            if abs(p[i]) >= 2 and p[i] == -p[j]:
                for idx in sorted((i, j), reverse=True):
                    del p[idx]
                break
        else:
            break
    return tuple(p)


def is_detectably_ribbon_by_scan(params) -> bool:
    """Reference implementation of is_detectably_ribbon: the reduced list,
    or its mirror, is a base with nothing left over."""
    p = detectably_ribbon_reduce_by_scan(params)
    return any(not rest for ms in (p, tuple(-x for x in p))
               for _, _, _, rest in _bases(ms))
