"""Computational path-algebra toolkit for directed graphs with ω-bundles.

Core objects: finite directed graphs whose edges come in multiplicity
bundles (possibly countably infinite), the hereditary/saturated closure
machinery, vertex classifiers, largest-ideal reports, the hedgehog
construction, and a small exact-arithmetic term engine.

The term engine (``terms``), the hedgehog construction (``hedgehog``) and
the largest-ideal report (``ideals``) are loaded on first use of one of
their names, so that a fresh ``lpa`` imports only what its subcommand
runs.  ``classify`` stays eager: loading the submodule ``classify`` lazily
would rebind the package attribute ``classify`` from the function to the
module.
"""

from .classify import (
    Classification,
    classify,
    csp_class,
    csp_classes,
    properly_infinite,
)
from .closures import (
    BreakingSet,
    DensityResult,
    HereditarySet,
    breaking_capable,
    breaking_vertices,
    density_check,
    hs_closure,
    saturate_once,
)
from .errors import (
    ExpressionError,
    GraphSyntaxError,
    GraphValidationError,
    InvariantViolation,
    LpaError,
)
from .graph import (
    OMEGA,
    Condensation,
    EdgeBundle,
    Graph,
    condense,
    graph_digest,
    parse_graph,
    to_dot,
    to_text,
)

# the modules loaded on first use, and their public names
_LAZY = {
    **dict.fromkeys(("hedgehog", "HedgehogGraph", "build_hedgehog"), "hedgehog"),
    **dict.fromkeys(
        (
            "ideals",
            "CycleClass",
            "GradedIdealDescriptor",
            "LargestIdealsReport",
            "descriptor_leq",
            "ideal_descriptor",
            "largest_ideals_report",
            "pi_decomposition",
        ),
        "ideals",
    ),
    **dict.fromkeys(
        (
            "terms",
            "AlgebraElement",
            "Monomial",
            "format_element",
            "graded_components",
            "parse_element",
            "v_H_element",
        ),
        "terms",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing the submodule binds it here under its own name
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "OMEGA",
    "AlgebraElement",
    "BreakingSet",
    "Classification",
    "Condensation",
    "CycleClass",
    "DensityResult",
    "EdgeBundle",
    "ExpressionError",
    "GradedIdealDescriptor",
    "Graph",
    "GraphSyntaxError",
    "GraphValidationError",
    "HedgehogGraph",
    "HereditarySet",
    "InvariantViolation",
    "LargestIdealsReport",
    "LpaError",
    "Monomial",
    "breaking_capable",
    "breaking_vertices",
    "build_hedgehog",
    "classify",
    "condense",
    "csp_class",
    "csp_classes",
    "density_check",
    "descriptor_leq",
    "format_element",
    "graded_components",
    "graph_digest",
    "hs_closure",
    "ideal_descriptor",
    "largest_ideals_report",
    "parse_element",
    "parse_graph",
    "pi_decomposition",
    "properly_infinite",
    "saturate_once",
    "to_dot",
    "to_text",
    "v_H_element",
]
