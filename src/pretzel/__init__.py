"""
pretzel: type, fiberedness and slice obstructions for pretzel knots.

The library decides, for a pretzel parameter list, the knot/link type, its
fiberedness through Gabai's classification of fibered pretzel links, and the
standard sliceness obstructions derived from the branched double cover:
perfect-square determinant, vanishing signature (Saveliev's plumbing
formula), and the Donaldson lattice-embedding obstruction, decided by a
complete combinatorial search.  A classifier matches surviving candidates
against the known fibered-ribbon families and a bounded enumerator
reproduces the classification at desk scale.
"""

from .core import (Kind, MutationClass, NotAKnotError, ZeroParameterError,
                   as_params, classify_type, mirror, mutation_class,
                   normalize, parse_params)
from .fibered import (FiberStatus, FiberVerdict, Subcase, aux_link,
                      class_fiberable, even_last_orientations, fiber_subcase,
                      is_fibered)
from .plumbing import (PlumbingError, StarGraph, bareiss_determinant,
                       determinant, euler_number, incidence_matrix,
                       is_negative_definite, negative_definite_graph,
                       star_graph, to_dot)
from .lattice import (DonaldsonStatus, EmbeddingResult, ProjectedLattice,
                      SearchConfig, SingularMod2Error, find_embedding,
                      graph_signature, project_embedding, signature,
                      verify_embedding, wu_class, wu_vertices)
from .classify import (ClassRecord, ObstructionReport, RibbonFamily, Status,
                       Verdict, analyze, class_record,
                       detectably_ribbon_reduce, enumerate_classes,
                       is_detectably_ribbon, is_exceptional, knot_classes,
                       match_family)

__version__ = "0.1.0"

__all__ = [
    "Kind", "MutationClass", "NotAKnotError", "ZeroParameterError",
    "as_params", "classify_type", "mirror", "mutation_class", "normalize",
    "parse_params",
    "FiberStatus", "FiberVerdict", "Subcase", "aux_link",
    "even_last_orientations", "fiber_subcase", "is_fibered",
    "PlumbingError", "StarGraph", "bareiss_determinant", "determinant",
    "euler_number", "incidence_matrix", "is_negative_definite",
    "negative_definite_graph", "star_graph", "to_dot",
    "DonaldsonStatus", "EmbeddingResult", "ProjectedLattice", "SearchConfig",
    "SingularMod2Error", "find_embedding", "graph_signature",
    "project_embedding", "signature", "verify_embedding", "wu_class",
    "wu_vertices",
    "ClassRecord", "ObstructionReport", "RibbonFamily", "Status", "Verdict",
    "analyze", "class_fiberable", "class_record", "detectably_ribbon_reduce",
    "enumerate_classes", "is_detectably_ribbon", "is_exceptional",
    "knot_classes", "match_family",
]
