import os
import pathlib
import random

import pytest

from pretzel import Kind, classify_type

# pyproject's pythonpath puts src/ on this process's path; the CLI tests run
# `python -m pretzel.cli` in subprocesses, which need it too
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def random_knot_params(rng, max_strands=6, max_abs=7, min_strands=2):
    """A random normalized-or-not knot parameter tuple."""
    while True:
        n = rng.randint(min_strands, max_strands)
        p = tuple(rng.choice([v for v in range(-max_abs, max_abs + 1)
                              if v != 0]) for _ in range(n))
        if classify_type(p) is not Kind.LINK:
            return p


@pytest.fixture
def rng():
    return random.Random(20240817)


# Named parameter lists reused across the suite.  Everything of rank <= 5
# here doubles as the corpus for the oracle-equivalence checks.
CORPUS = [
    (1, 1, 1, 1, -3, -3, -3),
    (1, 1, -3),
    (1, 1, 1, -3, -3),
    (1, 1, 3, -4),
    (1, 2, 3, -5),
    (1, 5, -3, -4),
    (3, -3, 2),
    (2, -3, 3, -3),
    (-3, 3, -3, 4),
    (3, 2),
    (1, 1, 2),
    (5, -5, 2),
    (2, 7),
    (3, 5, 7, 2),
    (5, -5, 7, -7, 4),
    (3, -7, 5, -5, 8),
    (-1, -1, 2, 3, -5),
    (1,),
    (5,),
    (3, 3, 3),
]
