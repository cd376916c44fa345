"""Exception hierarchy shared across the toolkit."""


class GraphError(Exception):
    """Base class for all graph construction and validation errors."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same edge appears more than once in the input."""


class VertexOutOfRangeError(GraphError):
    """A vertex id falls outside 0..n-1."""


class OrderTooSmallError(GraphError):
    """Requested graph order is below the family minimum."""


class OrderTooLargeError(GraphError):
    """A declared graph order exceeds the largest one accepted."""


class DisconnectedGraphError(GraphError):
    """An index was requested for a graph that is not connected."""

    def __init__(self, unreachable_vertex, root=0):
        self.unreachable_vertex = unreachable_vertex
        super().__init__(
            f"graph is not connected: vertex {unreachable_vertex} "
            f"is unreachable from vertex {root}"
        )


class EdgeListSyntaxError(GraphError):
    """Malformed line in an edge-list file."""


class Graph6Error(GraphError):
    """Base class for graph6 decoding errors."""


class InvalidCharacterError(Graph6Error):
    """A graph6 character falls outside the printable range '?'..'~'."""


class TruncatedDataError(Graph6Error):
    """A graph6 line ends before all adjacency bits are present."""


class TrailingDataError(Graph6Error):
    """A graph6 line carries data after its adjacency bits: more bytes,
    or padding bits that are not zero."""


class OrderBelowValidityError(GraphError):
    """A closed form was evaluated below its claimed validity range."""
