"""R degrees, R indices and classical degree-based topological indices
of simple connected graphs, with exact-integer arithmetic throughout the
R-index pipeline and a closed-form verifier for the four named families.

The verifier, the families submodule, is imported on first use of it or
of a name it exports here, so that a program that only computes indices
does not load it or the fractions module."""

from .degrees import RDegreeTable, mult_degree, r_degree, r_degree_table, sum_degree
from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListSyntaxError,
    Graph6Error,
    GraphError,
    InvalidCharacterError,
    LoopEdgeError,
    OrderBelowValidityError,
    OrderTooLargeError,
    OrderTooSmallError,
    TrailingDataError,
    TruncatedDataError,
    VertexOutOfRangeError,
)
from .graph import (
    Family,
    Graph,
    build_graph,
    generate_family,
    generate_random_connected,
    is_connected,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .indices import (
    IndexReport,
    abc_index,
    chi_index,
    classical_extras,
    full_report,
    ga_index,
    h_index,
    r1_index,
    r2_index,
    r3_index,
)

__version__ = "0.1.0"

_FAMILIES_NAMES = (
    "ClosedFormVariant", "DiscrepancyReport", "DiscrepancyRow", "RIndex",
    "Source", "closed_form", "report_summary", "report_to_csv",
    "verify_family",
)
# A star import still brings the families names, and so loads families.
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += ["families", *_FAMILIES_NAMES]


def __getattr__(name):
    # PEP 562. import_module, not `from . import families`: that looks the
    # name up on this package first and would land back here.
    if name == "families" or name in _FAMILIES_NAMES:
        from importlib import import_module
        families = import_module(".families", __name__)
        return families if name == "families" else getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
