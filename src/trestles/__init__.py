"""k-trestles in squares of graphs.

A k-trestle is a 2-connected spanning subgraph of maximum degree at
most k.  This package decides and constructs k-trestles in graph
squares: an arc-assignment characterisation for trees, decided by one
leaf-to-root pass, a matching-driven constructive route for
S(K_{1,4})-free graphs, forbidden-subtree obstruction witnesses, and
brute-force oracles for cross-validation.
"""

from .graphs import (
    Digraph,
    Disconnected,
    DomainError,
    FormatError,
    Graph,
    InternalInvariantError,
    Tree,
    Undetermined,
    square,
)
from .general_trestle import build_general_trestle, path_square_cycle
from .matching_flow import (
    ArcAssignment,
    HallViolator,
    Matching,
    feasible_assignment,
    minimal_hall_violator,
    theorem1_matching,
)
from .obstruction import (
    FFamilyMember,
    ObstructionWitness,
    check_obstruction,
    derive_base_patterns,
    f_family,
)
from .oracle import SearchBudgetExhausted
from .patterns import SpiderEmbedding, centre_witness, centres, is_caterpillar, is_spider_free
from .path_cover import LinearForest, PathCover, gallai_milgram_cover, linear_forest_for
from .tree_trestle import build_tree_trestle, decide_tree_trestle
from .verify import TrestleCertificate, VerificationReport, verify_trestle

__all__ = [
    "ArcAssignment",
    "Digraph",
    "Disconnected",
    "DomainError",
    "FFamilyMember",
    "FormatError",
    "Graph",
    "HallViolator",
    "InternalInvariantError",
    "LinearForest",
    "Matching",
    "ObstructionWitness",
    "PathCover",
    "SearchBudgetExhausted",
    "SpiderEmbedding",
    "TrestleCertificate",
    "Tree",
    "Undetermined",
    "VerificationReport",
    "build_general_trestle",
    "build_tree_trestle",
    "centre_witness",
    "centres",
    "check_obstruction",
    "decide_tree_trestle",
    "derive_base_patterns",
    "f_family",
    "feasible_assignment",
    "gallai_milgram_cover",
    "is_caterpillar",
    "is_spider_free",
    "linear_forest_for",
    "minimal_hall_violator",
    "path_square_cycle",
    "square",
    "theorem1_matching",
    "verify_trestle",
]
