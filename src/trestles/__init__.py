"""k-trestles in squares of graphs.

A k-trestle is a 2-connected spanning subgraph of maximum degree at
most k.  This package decides and constructs k-trestles in graph
squares: an arc-assignment characterisation for trees, decided by one
leaf-to-root pass, a matching-driven constructive route for
S(K_{1,4})-free graphs, forbidden-subtree obstruction witnesses, and
brute-force oracles for cross-validation.

Importing the package loads none of its modules.  Each public name
below is imported from its home module on first access (PEP 562), so
``from trestles import square`` loads ``trestles.graphs`` only.  The
``trestles`` command imports ``trestles.cli``, which loads
``trestles.graphs`` alone, and each subcommand then loads the modules
it runs, each imported inside the function that calls it: ``square``
none, ``build`` on a tree ``tree_trestle`` and its three dependencies,
``build`` on another host ``general_trestle`` and ``path_cover`` too,
but ``oracle`` only for a 2-connected host, and ``obstruction`` its
own module with ``patterns`` and ``matching_flow``, but no ``oracle``;
the ``trestles.cli`` docstring lists every command.
"""

# each public name and its home module
_HOME = {
    "ArcAssignment": "matching_flow",
    "Disconnected": "graphs",
    "DomainError": "graphs",
    "FFamilyMember": "obstruction",
    "FormatError": "graphs",
    "Graph": "graphs",
    "HallViolator": "matching_flow",
    "InternalInvariantError": "graphs",
    "Matching": "matching_flow",
    "ObstructionWitness": "obstruction",
    "SearchBudgetExhausted": "graphs",
    "SpiderEmbedding": "patterns",
    "TrestleCertificate": "verify",
    "Tree": "graphs",
    "Undetermined": "graphs",
    "VerificationReport": "verify",
    "build_general_trestle": "general_trestle",
    "build_tree_trestle": "tree_trestle",
    "centre_witness": "patterns",
    "centres": "patterns",
    "check_obstruction": "obstruction",
    "decide_tree_trestle": "tree_trestle",
    "derive_base_patterns": "obstruction",
    "f_family": "obstruction",
    "feasible_assignment": "matching_flow",
    "gallai_milgram_cover": "path_cover",
    "is_caterpillar": "patterns",
    "is_spider_free": "patterns",
    "linear_forest_for": "path_cover",
    "minimal_hall_violator": "matching_flow",
    "path_square_cycle": "general_trestle",
    "square": "graphs",
    "theorem1_matching": "matching_flow",
    "verify_trestle": "verify",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    # later lookups find it without this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
