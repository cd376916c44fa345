"""Simple undirected graph representation, family generators and parsers.

Vertices are dense 0-based integer ids. Graphs are immutable after
construction and simple (no loops, no duplicate edges): edge input is
validated, and the graph6 decoder and the family generator build
neighbour lists that cannot break this.
Connectivity is *not* required at construction time; index computations
check it themselves.
"""

import random
import re
from enum import Enum
from operator import itemgetter

from .errors import (
    DuplicateEdgeError,
    EdgeListSyntaxError,
    Graph6Error,
    InvalidCharacterError,
    LoopEdgeError,
    OrderTooLargeError,
    OrderTooSmallError,
    TrailingDataError,
    TruncatedDataError,
    VertexOutOfRangeError,
)


class Family(Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    STAR = "star"


# Minimum order for which each family can be constructed. The closed-form
# propositions assume n >= 3; that stricter bound is enforced by the
# verifier, not here.
FAMILY_MIN_ORDER = {
    Family.PATH: 2,
    Family.CYCLE: 3,
    Family.COMPLETE: 3,
    Family.STAR: 2,
}


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The graph is stored once, as a sorted neighbour tuple per vertex; the
    edge tuple is derived from those tuples on first use and cached.

    Graph(n, edges) validates its input. The private
    Graph._from_sorted_adjacency(n, adjacency) validates nothing: its
    caller guarantees that every neighbour list is sorted, in 0..n-1,
    free of loops and repeats, and that u lists v iff v lists u. Only
    builders whose construction cannot break that contract use it (the
    graph6 decoder and the family generator).
    """

    __slots__ = ("_n", "_m", "_adjacency", "_degrees", "_edges")

    def __init__(self, n, edges):
        """Build a graph from a vertex count and an iterable of edge pairs.

        Raises LoopEdgeError, DuplicateEdgeError or VertexOutOfRangeError
        on malformed input; duplicates are never silently merged. With
        several faults, the first in input order decides the error.
        """
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edges = list(edges)
        # A vertex gets a list at its first edge; isolated ones share the
        # empty tuple, so a large declared order costs a pointer per
        # vertex. A list here is never empty.
        adjacency = [()] * n
        try:
            for u, v in edges:
                a = adjacency[u]
                if not a:
                    a = adjacency[u] = []
                a.append(v)
                a = adjacency[v]
                if not a:
                    a = adjacency[v] = []
                a.append(u)
        except IndexError:
            _raise_first_fault(n, edges)
            raise
        adjacency = tuple([tuple(sorted(a)) for a in adjacency])
        # A loop or a repeated edge repeats a neighbour within one list; a
        # negative id indexes from the end, so it shows only as a value.
        if (sum(map(len, map(set, adjacency))) != 2 * len(edges)
                or min(map(itemgetter(0), filter(None, adjacency)),
                       default=0) < 0):
            _raise_first_fault(n, edges)
        self._n = n
        self._m = len(edges)
        self._adjacency = adjacency
        self._degrees = tuple(map(len, adjacency))
        self._edges = None

    @classmethod
    def _from_sorted_adjacency(cls, n, adjacency):
        """Graph from n trusted neighbour lists; see the class docstring."""
        g = cls.__new__(cls)
        g._n = n
        g._adjacency = adjacency = tuple(map(tuple, adjacency))
        g._degrees = degrees = tuple(map(len, adjacency))
        g._m = sum(degrees) // 2
        g._edges = None
        return g

    @property
    def n(self):
        """Number of vertices."""
        return self._n

    @property
    def m(self):
        """Number of edges."""
        return self._m

    @property
    def adjacency(self):
        """Sorted neighbour tuple of every vertex, indexed by vertex id."""
        return self._adjacency

    @property
    def degrees(self):
        """Degree of every vertex, indexed by vertex id."""
        return self._degrees

    def edges(self):
        """Edges as (u, v) with u < v, sorted lexicographically."""
        if self._edges is None:
            self._edges = tuple((u, v)
                                for u, nbrs in enumerate(self._adjacency)
                                for v in nbrs if v > u)
        return self._edges

    def neighbors(self, v):
        """Open neighborhood of v as a sorted tuple."""
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v):
        """Number of edges incident to v."""
        self._check_vertex(v)
        return self._degrees[v]

    def _check_vertex(self, v):
        if not (0 <= v < self._n):
            raise VertexOutOfRangeError(f"vertex {v} not in 0..{self._n - 1}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adjacency == other._adjacency

    def __hash__(self):
        return hash((self._n, self._adjacency))

    def __repr__(self):
        return f"Graph(n={self._n}, m={self.m})"


def _raise_first_fault(n, edges):
    """Raise the error of the first faulty edge, scanning in input order."""
    seen = set()
    for u, v in edges:
        for w in (u, v):
            if not (0 <= w < n):
                raise VertexOutOfRangeError(f"vertex {w} not in 0..{n - 1}")
        if u == v:
            raise LoopEdgeError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} appears more than once")
        seen.add(key)


def build_graph(n, edges):
    """Validated Graph from a vertex count and edge pairs."""
    return Graph(n, edges)


def is_connected(g):
    """True iff every vertex is reachable from vertex 0 (true for n <= 1)."""
    return first_unreachable_vertex(g) is None


def first_unreachable_vertex(g):
    """Smallest vertex id not reachable from vertex 0, or None if connected."""
    if g.n <= 1:
        return None
    adjacency = g.adjacency
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    for v in range(g.n):
        if not seen[v]:
            return v
    return None


def generate_family(family, n):
    """One of the four named families: path, cycle, complete or star."""
    family = Family(family)
    minimum = FAMILY_MIN_ORDER[family]
    if n < minimum:
        raise OrderTooSmallError(
            f"{family.value} graph requires n >= {minimum}, got {n}"
        )
    inner = [(i - 1, i + 1) for i in range(1, n - 1)]
    if family is Family.PATH:
        adjacency = [(1,)] + inner + [(n - 2,)]
    elif family is Family.CYCLE:
        adjacency = [(1, n - 1)] + inner + [(0, n - 2)]
    elif family is Family.COMPLETE:
        adjacency = [tuple(range(i)) + tuple(range(i + 1, n))
                     for i in range(n)]
    else:  # star: vertex 0 is the center
        adjacency = [tuple(range(1, n))] + [(0,)] * (n - 1)
    return Graph._from_sorted_adjacency(n, adjacency)


def generate_random_connected(n, edge_probability, seed):
    """Random connected graph: random spanning tree, then each remaining
    pair added independently with the given probability. Deterministic for
    a fixed seed."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    rng = random.Random(seed)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((u, v) if u < v else (v, u))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < edge_probability:
                edges.add((u, v))
    return Graph(n, sorted(edges))


# Largest order an edge-list header may declare: a Graph holds one pointer
# per vertex, so an unbounded header could exhaust memory from one line.
MAX_ORDER = 10_000_000


def parse_edge_list(text):
    """Parse the edge-list format.

    One edge per line as two whitespace-separated nonnegative integers;
    blank lines and '#' comments ignored. An optional first data line
    "n <count>" declares the order (allowing isolated trailing vertices);
    an order above MAX_ORDER raises OrderTooLargeError.
    Without a header, vertex ids are compacted to a dense 0-based range.
    """
    return _parse_edge_list(text)[0]


def parse_edge_list_with_mapping(text):
    """As parse_edge_list, also returning {original id: internal id}."""
    g, mapping = _parse_edge_list(text)
    return g, ({i: i for i in range(g.n)} if mapping is None else mapping)


def _parse_edge_list(text):
    """The graph and its id mapping, which is None under a header."""
    declared_n = None
    raw_edges = []
    first_data_line = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if first_data_line and tokens[0] == "n":
            if len(tokens) != 2:
                raise EdgeListSyntaxError(
                    f"line {lineno}: header must be 'n <count>'"
                )
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise EdgeListSyntaxError(
                    f"line {lineno}: non-integer order {tokens[1]!r}"
                ) from None
            if declared_n < 0:
                raise EdgeListSyntaxError(
                    f"line {lineno}: negative order {declared_n}"
                )
            if declared_n > MAX_ORDER:
                raise OrderTooLargeError(
                    f"line {lineno}: order {declared_n} exceeds {MAX_ORDER}"
                )
            first_data_line = False
            continue
        first_data_line = False
        if len(tokens) != 2:
            raise EdgeListSyntaxError(
                f"line {lineno}: expected two vertex ids, got {stripped!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListSyntaxError(
                f"line {lineno}: non-integer token in {stripped!r}"
            ) from None
        if u < 0 or v < 0:
            raise EdgeListSyntaxError(
                f"line {lineno}: negative vertex id in {stripped!r}"
            )
        raw_edges.append((u, v))

    if declared_n is not None:
        return Graph(declared_n, raw_edges), None

    ids = sorted({u for e in raw_edges for u in e})
    mapping = {orig: i for i, orig in enumerate(ids)}
    edges = [(mapping[u], mapping[v]) for u, v in raw_edges]
    return Graph(len(ids), edges), mapping


def write_edge_list(g):
    """Render a graph in the edge-list format with an explicit order header."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"
_G6_INVALID = re.compile(r"[^?-~]")
# Offsets (0 = most significant) of the set bits in each 6-bit group value.
_G6_SET_BITS = [tuple(j for j in range(6) if x >> 5 - j & 1)
                for x in range(64)]
# The graph6 byte of each 6-bit group value.
_G6_CHARS = bytes(range(63, 127)) + bytes(192)


def parse_graph6(line):
    """Decode one graph from its graph6 string (short form, n < 63, plus
    the standard long forms up to the printable limit).

    The order must be written in the shortest form that holds it, and the
    string must end with the last adjacency byte its order needs, whose
    padding bits must be zero. The adjacency bytes are walked directly:
    besides the graph, decoding holds two byte copies of the line.
    """
    line = line.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise TruncatedDataError("empty graph6 line")
    bad = _G6_INVALID.search(line)
    if bad:
        ch = bad.group()
        raise InvalidCharacterError(
            f"character {ascii(ch)} outside graph6 range '?'..'~'"
        )
    data = line.encode("ascii")

    if data[0] < 126:
        start, pos = 0, 1
    elif len(data) >= 4 and data[1] < 126:
        start, pos = 1, 4
    elif len(data) >= 8:
        start, pos = 2, 8
    else:
        raise TruncatedDataError("incomplete graph6 order prefix")
    n = 0
    for b in data[start:pos]:
        n = n << 6 | b - 63
    # The 4-byte form starts at 63 and the 8-byte form above 258047.
    if n < (0, 63, 258048)[start]:
        raise Graph6Error(f"order {n} is not written in its shortest form")

    nbits = n * (n - 1) // 2
    needed = (nbits + 5) // 6
    got = len(data) - pos
    if got < needed:
        raise TruncatedDataError(
            f"need {needed} adjacency bytes for n={n}, got {got}"
        )
    if got > needed:
        raise TrailingDataError(
            f"{got - needed} bytes after the adjacency data for n={n}"
        )
    # With n <= 1 there is no adjacency byte, and the mask is 0.
    if (data[-1] - 63) & (1 << 6 * needed - nbits) - 1:
        raise TrailingDataError(
            f"nonzero padding bits after the {nbits} adjacency bits"
        )
    # Bit k is the pair (u, v), u < v, with k = v(v-1)/2 + u; `first` is
    # the bit of (0, v). Columns v ascend, and rows u ascend within a
    # column, so each vertex w first receives its lower neighbours in
    # column w, in ascending order, then its upper ones, ascending: every
    # list comes out sorted, in range and free of loops and repeats.
    adjacency = [[] for _ in range(n)]
    v = 1
    first = 0
    for i, b in enumerate(data[pos:]):
        for j in _G6_SET_BITS[b - 63]:
            k = 6 * i + j
            while k >= first + v:
                first += v
                v += 1
            u = k - first
            adjacency[u].append(v)
            adjacency[v].append(u)
    return Graph._from_sorted_adjacency(n, adjacency)


def _graph6_order(n):
    """graph6 order prefix: one byte for n < 63, else '~' and 18 bits, or
    '~~' and 36 bits, in 6-bit groups, most significant first. The 18-bit
    form ends at 258047, where its first group would become 63 ('~')."""
    if n < 63:
        return chr(63 + n)
    width, prefix = (18, "~") if n <= 258047 else (36, "~~")
    return prefix + "".join(chr(63 + (n >> s & 63))
                            for s in range(width - 6, -1, -6))


def write_graph6(g):
    """Encode a graph as a graph6 string."""
    n = g.n
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges():
        k = v * (v - 1) // 2 + u
        groups[k // 6] |= 32 >> k % 6
    return _graph6_order(n) + groups.translate(_G6_CHARS).decode("ascii")
