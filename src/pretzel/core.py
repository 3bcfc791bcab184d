"""
Pretzel parameter lists.

A pretzel link P(p_1, ..., p_n) is encoded by an ordered tuple of nonzero
integers, each the signed crossing count of one pair of strands.  This module
owns the bookkeeping on those tuples: validation, the knot/link parity test,
the standard diagram simplifications for unitary (= ±1) parameters, mirrors,
and a canonical key for mutation classes (reorderings of the parameters).

Everything here is a pure function on immutable tuples and safe to call
concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class ZeroParameterError(ValueError):
    """A parameter is zero: the link is a connected sum of 2-bridge links
    and is handled by the known classifications, not by this package."""


class NotAKnotError(ValueError):
    """The parameter list describes a link with more than one component."""


class Kind(Enum):
    TYPE1 = "type1"   # n odd, every parameter odd
    TYPE2 = "type2"   # n odd, exactly one even parameter
    TYPE3 = "type3"   # n even, exactly one even parameter
    LINK = "link"     # anything else: two or three components

    def is_knot(self):
        return self is not Kind.LINK


def as_params(params) -> tuple[int, ...]:
    """Validate and freeze a parameter sequence."""
    p = tuple(map(int, params))
    if len(p) == 0:
        raise ValueError("parameter list must have at least one entry")
    if 0 in p:
        raise ZeroParameterError(
            "zero parameter: connected sum; see 2-bridge classifications")
    return p


_BRACKET = re.compile(r"\[\s*(-?\d+)\s*\^\s*(-?\d+)\s*\]")
# A parameter string expands to at most this many parameters; a longer one
# is refused before anything is allocated.
_MAX_PARAMS = 4000


def parse_params(text: str) -> tuple[int, ...]:
    """Parse a comma-separated parameter string.

    Whitespace is tolerated and the bracketed shorthand ``[b^k]`` expands to
    k copies of b, so "[1^4],-3,-3,-3" means (1,1,1,1,-3,-3,-3).  A string
    that expands to more than 4,000 parameters is refused.
    """
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ValueError("empty entry in parameter string %r" % text)
        m = _BRACKET.fullmatch(tok)
        if m:
            base, count = int(m.group(1)), int(m.group(2))
            if count < 1:
                raise ValueError("repeat count must be positive in %r" % tok)
        else:
            try:
                base, count = int(tok), 1
            except ValueError:
                raise ValueError("bad parameter %r" % tok) from None
        if len(out) + count > _MAX_PARAMS:
            raise ValueError("parameter string expands to more than %d "
                             "parameters" % _MAX_PARAMS)
        out.extend([base] * count)
    return as_params(out)


def classify_type(params) -> Kind:
    """Knot/link trichotomy from the parities of the parameters.

    The diagram closes to a knot exactly when n and every p_i are odd
    (Type 1), or exactly one p_i is even (Type 2 for n odd, Type 3 for n
    even).  Any other parity pattern gives a link.
    """
    p = as_params(params)
    evens = sum(1 for x in p if x % 2 == 0)
    if evens == 0:
        return Kind.TYPE1 if len(p) % 2 == 1 else Kind.LINK
    if evens == 1:
        return Kind.TYPE2 if len(p) % 2 == 1 else Kind.TYPE3
    return Kind.LINK


def mirror(params) -> tuple[int, ...]:
    """Mirror image: negate every parameter."""
    return tuple(-x for x in as_params(params))


def normalize(params) -> tuple[int, ...]:
    """Simplify unitary parameters by the standard diagram moves.

    First (a) delete one +1 together with one -1, min(#1, #-1) times.
    Then (b), while some p_i = ±1 coexists with some p_j = ∓2, delete p_i
    and replace p_j by ±2 (the sign of the deleted unitary; a flype absorbs
    the unitary into the 2-twist region).  Rule (a) never applies again:
    after it every unitary has one sign, and rule (b) deletes a unitary of
    that sign and creates none.  The result has no opposite-sign unitary
    pair and no (±1, ∓2) coexistence; knot/link status is unchanged.
    Deletions are leftmost-first and the order of the surviving entries is
    preserved.

    Which ±2 entry a rule (b) step flips depends on the rewrite order, so
    last the ±2 entries are sorted among their own positions (every -2
    before every 2).  That is an isotopy: -2 is 2 plus a -1 integer tangle,
    which flypes to any other position.  A knot has at most one even
    parameter, so this step only ever moves entries of links.

    With that step the result does not depend on the rewrite order (checked
    by test on random inputs).
    """
    p = list(as_params(params))
    for _ in range(min(p.count(1), p.count(-1))):
        p.remove(1)
        p.remove(-1)
    for unit, two in ((1, -2), (-1, 2)):
        while unit in p and two in p:
            p.remove(unit)
            p[p.index(two)] = -two
    if not p:
        raise ValueError("parameters cancel completely (unlink); "
                         "no normalized form exists")
    twos = [i for i, x in enumerate(p) if abs(x) == 2]
    for i, x in zip(twos, sorted(p[i] for i in twos)):
        p[i] = x
    return tuple(p)


@dataclass(frozen=True)
class MutationClass:
    """Canonical key for the mutation class of a parameter list.

    Mutants are reorderings of the parameters and share their branched
    double covers, so every obstruction computed from the cover is constant
    on `multiset`.  `mirror_normalized` additionally quotients by the mirror:
    it is the lexicographically smaller of the sorted multiset and the sorted
    negated multiset.
    """
    multiset: tuple[int, ...]
    mirror_normalized: tuple[int, ...]


def mutation_class(params) -> MutationClass:
    p = as_params(params)
    ms = tuple(sorted(p))
    neg = tuple(sorted(-x for x in p))
    return MutationClass(multiset=ms, mirror_normalized=min(ms, neg))


# Small helpers shared by the other modules.

def unitary_count_and_sign(params) -> tuple[int, int]:
    """Return (d, sign) for the unitary entries of a normalized list.

    Normalization guarantees all unitaries share one sign; sign is 0 when
    there are none.
    """
    units = [x for x in params if abs(x) == 1]
    if not units:
        return 0, 0
    if len(set(units)) > 1:
        raise ValueError("mixed-sign unitaries: list is not normalized")
    return len(units), units[0]


def nonunitary(params) -> tuple[int, ...]:
    """The non-unitary parameters, in order."""
    return tuple(x for x in params if abs(x) != 1)
