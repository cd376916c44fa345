"""R degrees, R indices and classical degree-based topological indices
of simple connected graphs, with exact-integer arithmetic throughout the
R-index pipeline and a closed-form verifier for the four named families."""

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
from .families import (
    ClosedFormVariant,
    DiscrepancyReport,
    DiscrepancyRow,
    RIndex,
    Source,
    closed_form,
    report_summary,
    report_to_csv,
    verify_family,
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
