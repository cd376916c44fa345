"""Simple undirected graph representation, family generators and parsers.

Vertices are dense 0-based integer ids. A graph is stored once, as sorted
neighbour tuples; its edge tuple is derived from them on each call.
Graphs are immutable after construction and simple (no loops, no
duplicate edges): edge input is validated, and the graph6 decoder and the
family generator build neighbour lists that cannot break this. Edge-list
text, or an open file of it, is read block by block into one adjacency
build, header or none, and every neighbour entry naming a vertex is that
vertex's one shared int; a faulty edge is named in the file's own ids. A
block of canonical "id id" lines is checked by one compiled pattern and
split into ids in one call; any other block goes through the per-line
tokenizer, which alone makes the syntax errors. Connectivity is *not*
required at construction time; index computations check it themselves.
"""

import re
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from enum import Enum
from itertools import chain, islice

from .errors import (
    DisconnectedGraphError,
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

    The graph is stored once, as a sorted neighbour tuple per vertex;
    edges() derives the edge tuple from those tuples on each call.

    Graph(n, edges) validates its input. The private
    Graph._from_sorted_adjacency(n, adjacency) validates nothing: its
    caller guarantees that every neighbour list is sorted, in 0..n-1,
    free of loops and repeats, and that u lists v iff v lists u. Only
    builders whose construction cannot break that contract use it (the
    graph6 decoder, the family generator, and parse_edge_list on lists
    that _sorted_adjacency built and checked, with or without a header).
    Both Graph(n, edges) and parse_edge_list build through
    _sorted_adjacency, which alone finds and raises a graph fault.

    A header-less edge list whose ids are not 0..n-1 also keeps its
    sorted ids, so that output can name vertex v by its id in the file
    (see _vertex_names); every other graph keeps None. Equality and
    hashing read only the order and the neighbour tuples.
    """

    __slots__ = ("_n", "_m", "_adjacency", "_degrees", "_names")

    def __init__(self, n, edges):
        """Build a graph from a vertex count and an iterable of edge pairs.

        Raises LoopEdgeError, DuplicateEdgeError or VertexOutOfRangeError
        on malformed input; duplicates are never silently merged. With
        several faults, the first in input order decides the error.
        """
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edges = pairs = list(edges)
        # A negative id indexes from the end, and an entry names the int
        # that first named its vertex, so the build alone may miss one: a
        # last pair out of range makes the build scan for the fault.
        if min(map(min, edges), default=0) < 0:
            pairs = edges + [(n, n)]
        adjacency = _sorted_adjacency(n, pairs, lambda: edges, range(n))
        self._n = n
        self._m = len(edges)
        self._adjacency = tuple(adjacency)
        self._degrees = tuple(map(len, adjacency))
        self._names = None

    @classmethod
    def _from_sorted_adjacency(cls, n, adjacency, names=None):
        """Graph from n trusted neighbour lists, and the input ids of its
        vertices or None; see the class docstring."""
        g = cls.__new__(cls)
        g._n = n
        g._names = names
        g._adjacency = adjacency = tuple(map(tuple, adjacency))
        g._degrees = degrees = tuple(map(len, adjacency))
        g._m = sum(degrees) // 2
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
        """Edges as (u, v) with u < v, sorted lexicographically; a new
        tuple, derived from the neighbour tuples, on each call."""
        return tuple((u, v) for u, nbrs in enumerate(self._adjacency)
                     for v in nbrs if v > u)

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


def _sorted_adjacency(n, pairs, again, names):
    """A list of the sorted neighbour tuples of vertices 0..n-1 from (u, v)
    id pairs. The caller makes the graph's one outer tuple from the list.

    This is the one place that finds a graph fault: an id of n or more
    (or below -n), or a neighbour listed twice in one list, as a repeated
    edge lists it, and as a loop lists its vertex in its own list. The
    keys u * n + v, u < v, of the repeats are taken from the lists, which
    are then dropped, and the first fault in input order is raised from
    one scan of again(), a new iterable of the same pairs, that names
    vertex w by names[w], its id in the input. The rest of the scan is
    read too, so that a syntax error later in the input wins.

    Every entry that names w is the one int object that first named w: a
    vertex's list starts with that int, each pair appends the head of the
    other end's list, and the head is dropped before sorting. A vertex gets
    a list at its first edge; isolated ones share the empty tuple, so a
    large order costs a pointer per vertex. Each list is sorted in place and
    replaced by its tuple in turn, so the lists and the tuples never all
    exist at once. A negative id indexes from the end: callers that can
    pass one must make the build fail.
    """
    adjacency = [()] * n
    faulty = False
    try:
        for u, v in pairs:
            a = adjacency[u]
            if not a:
                a = adjacency[u] = [u]
            b = adjacency[v]
            if not b:
                b = adjacency[v] = [v]
            a.append(b[0])
            b.append(a[0])
    except IndexError:
        faulty = True
    repeated = set()
    for w, a in enumerate(adjacency):
        if a:
            del a[0]
            a.sort()
            if len(set(a)) < len(a):
                repeated.update(w * n + x if w < x else x * n + w
                                for x, y in zip(a, a[1:]) if x == y)
            adjacency[w] = tuple(a)
    if faulty or repeated:
        del adjacency
        rescan = iter(again())
        fault = _first_fault(n, rescan, repeated, names)
        deque(rescan, maxlen=0)
        raise fault
    return adjacency


def _first_fault(n, edges, repeated, names):
    """The error of the first faulty edge, scanning in input order; the
    caller knows that there is one. Of the edges, only those whose key
    u * n + v, u < v, is in the set `repeated` are remembered. A loop or
    repeat names each vertex w as names[w], its id in the input."""
    seen = set()
    for u, v in edges:
        for w in (u, v):
            if not (0 <= w < n):
                return VertexOutOfRangeError(f"vertex {w} not in 0..{n - 1}")
        if u == v:
            return LoopEdgeError(f"self-loop at vertex {names[u]}")
        if u > v:
            u, v = v, u
        key = u * n + v
        if key in repeated:
            if key in seen:
                return DuplicateEdgeError(
                    f"edge {(names[u], names[v])} appears more than once")
            seen.add(key)


def build_graph(n, edges):
    """Validated Graph from a vertex count and edge pairs."""
    return Graph(n, edges)


def _vertex_names(g):
    """The id in the input of each vertex of g, indexed by vertex id."""
    return g._names or range(g.n)


def _require_connected(g):
    """Raise DisconnectedGraphError if a vertex of g is unreachable from
    vertex 0, naming both vertices by their ids in the input."""
    bad = first_unreachable_vertex(g)
    if bad is not None:
        names = _vertex_names(g)
        raise DisconnectedGraphError(names[bad], names[0])


def is_connected(g):
    """True iff every vertex is reachable from vertex 0 (true for n <= 1)."""
    return first_unreachable_vertex(g) is None


def first_unreachable_vertex(g):
    """Smallest vertex id not reachable from vertex 0, or None if connected.

    The walk stops once every vertex is seen, so on K_n it reads one
    neighbour tuple, not n; it marks a vertex seen in one byte."""
    n = g.n
    if n <= 1:
        return None
    adjacency = g.adjacency
    seen = bytearray(n)
    seen[0] = 1
    unseen = n - 1
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                unseen -= 1
                stack.append(w)
        if not unseen:
            return None
    return seen.index(0)


def generate_family(family, n):
    """One of the four named families: path, cycle, complete or star."""
    family = Family(family)
    minimum = FAMILY_MIN_ORDER[family]
    if n < minimum:
        raise OrderTooSmallError(
            f"{family.value} graph requires n >= {minimum}, got {n}"
        )
    # Every neighbour entry is taken from one tuple of ids, so the graph
    # holds one int object per vertex, not one per entry.
    ids = tuple(range(n))
    if family is Family.COMPLETE:
        adjacency = [ids[:i] + ids[i + 1:] for i in range(n)]
    elif family is Family.STAR:  # vertex 0 is the center
        adjacency = [ids[1:]] + [ids[:1]] * (n - 1)
    else:
        inner = list(zip(ids, ids[2:]))  # (i - 1, i + 1) for 0 < i < n - 1
        if family is Family.PATH:
            adjacency = [ids[1:2]] + inner + [ids[n - 2:n - 1]]
        else:
            adjacency = [(ids[1], ids[-1])] + inner + [(ids[0], ids[-2])]
    return Graph._from_sorted_adjacency(n, adjacency)


def generate_random_connected(n, edge_probability, seed):
    """Random connected graph: random spanning tree, then each remaining
    pair added independently with the given probability. Deterministic for
    a fixed seed."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    import random  # not loaded at import: no command draws graphs
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
# An integer in ASCII digits with an optional minus sign. Edge-list ids
# and orders are plain digits; a token that fits this and is not plain
# digits is refused for its sign alone, and the message says so.
_SIGNED = re.compile(r"-?[0-9]+")
# One or more canonical edge lines: two plain ASCII digit ids, neither
# zero-padded, one space apart, each line ending in '\n'.
_CANONICAL = re.compile(r"(?:(?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)\n)+")
# Edge-list text is read in blocks of this many characters plus the rest
# of the line they end in. Matching a block of canonical lines briefly
# takes about 28 bytes a character, the pattern's state per line, and its
# ids as strs and ints about 17: 64 Ki blocks added 1.6 MB to the parse
# peak of a 2.4 MB edge list, and 16 Ki blocks 0.4 MB over 4 Ki ones.
_CHUNK = 1 << 14


def parse_edge_list(source):
    """Parse the edge-list format from a str or an open text file.

    One edge per line as two whitespace-separated vertex ids; blank lines
    and '#' comments ignored. An optional first data line "n <count>"
    declares the order (allowing isolated trailing vertices); an order
    above MAX_ORDER raises OrderTooLargeError. Ids and the order are
    plain ASCII decimal digits, without leading zeros: no sign,
    underscore or other digit; an id longer than int() reads is a
    syntax error. Without a header, vertex ids are compacted to a dense
    0-based range in ascending order; a fault, a disconnected-graph error
    and each `rdegrees` row still name the file's ids.

    The input is read in blocks of about 16 Ki characters, each cut just
    after a line break, so a file's text is never held whole. A block of
    canonical "id id" lines, each ending in '\\n', is split into ids in
    one call; any other block is read line by line, so errors and their
    line numbers are those of the line loop on the text a file's read()
    returns. Both forms take the one adjacency build. With a header, the
    edges stream into it, and on a graph fault it reads the input again
    from where the parse began (the position tell() gave), so that a
    syntax error anywhere wins over the first faulty edge; a file whose
    position cannot be told, such as a pipe, is read whole first. Without
    a header, the ids are held once in a flat list, which the build and
    the fault scan each map through the compacted order.
    """
    start = 0
    if not isinstance(source, str):
        try:
            start = source.tell()
        except OSError:
            source = source.read()
    items = _edge_list_items(source)
    n = next(items)
    if n is None:
        ids = list(chain.from_iterable(items))
        names = sorted(set(ids))
        n = len(names)
        index = dict(zip(names, range(n)))
        again = lambda: zip(*[map(index.__getitem__, ids)] * 2)
        items = again()
    else:
        names, again = range(n), lambda: _edge_pairs(source, start)
    adjacency = _sorted_adjacency(n, items, again, names)
    # Ids already 0..n-1 name themselves, and keep no list.
    return Graph._from_sorted_adjacency(
        n, adjacency, names if n and names[-1] != n - 1 else None)


def _edge_pairs(source, start):
    """The edge pairs of a str, or of a text file read again from the
    position start, where the parse began."""
    if not isinstance(source, str):
        source.seek(start)
    return islice(_edge_list_items(source), 1, None)


def _text_blocks(source):
    """The text of a str or an open text file, in blocks of _CHUNK
    characters plus the rest of the line they end in, so that every cut
    falls just after a line break; a last block may end without one.
    """
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + _CHUNK - 1) + 1 or len(source)
            yield source[start:end]
            start = end
    else:
        yield from iter(lambda: source.read(_CHUNK) + source.readline(), "")


def _edge_list_items(source):
    """Yield the order an "n <count>" header declares, or None without a
    header, then a (u, v) pair of ints for each edge line of a str or an
    open text file; raise EdgeListSyntaxError at the first malformed line.

    Each block of _text_blocks is one piece. Every cut falls just after
    a line break and never inside a '\\r\\n', so lines are numbered
    exactly as str.splitlines numbers them. A piece that starts after
    the first data line and that _canonical_ids reads as canonical
    "id id" lines yields its pairs from one split of the piece; any
    other piece, the first data line's among them, is split into lines
    and checked line by line, which makes every error message. An id
    longer than int() reads is a syntax error; any other ValueError,
    such as a file's UnicodeDecodeError, passes through.
    """
    header = True
    lineno = 0
    for piece in _text_blocks(source):
        ids = None if header else _canonical_ids(piece)
        if ids is not None:
            it = iter(ids)
            yield from zip(it, it)
            lineno += len(ids) // 2
            continue
        for lineno, line in enumerate(piece.splitlines(), lineno + 1):
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            tokens = stripped.split()
            if header:
                header = False
                if tokens[0] == "n":
                    yield _declared_order(lineno, tokens)
                    continue
                yield None
            if len(tokens) != 2:
                raise EdgeListSyntaxError(
                    f"line {lineno}: expected two vertex ids, "
                    f"got {stripped!r}")
            u, v = tokens
            digits = u + v
            if not (digits.isascii() and digits.isdigit()):
                fault = ("negative vertex id"
                         if all(map(_SIGNED.fullmatch, tokens))
                         else "non-integer token")
                raise EdgeListSyntaxError(
                    f"line {lineno}: {fault} in {stripped!r}")
            if u[0] == "0" != u or v[0] == "0" != v:
                raise EdgeListSyntaxError(
                    f"line {lineno}: zero-padded vertex id in {stripped!r}")
            try:
                pair = int(u), int(v)
            except ValueError:
                # Of plain digits, int() refuses only more than it reads.
                raise EdgeListSyntaxError(
                    f"line {lineno}: vertex id longer than "
                    f"{sys.get_int_max_str_digits()} digits "
                    f"in {stripped!r}") from None
            yield pair
    if header:
        yield None


def _canonical_ids(piece):
    """The ids of a piece of text, in order, if _CANONICAL matches it
    whole; else None. A piece with an id longer than int() reads gives
    None, as the line loop names its line.
    """
    if not _CANONICAL.fullmatch(piece):
        return None
    try:
        return list(map(int, piece.split()))
    except ValueError:
        return None


def _declared_order(lineno, tokens):
    """The order an "n <count>" header line declares."""
    if len(tokens) != 2:
        raise EdgeListSyntaxError(
            f"line {lineno}: header must be 'n <count>'"
        )
    order = tokens[1]
    if not (order.isascii() and order.isdigit()):
        if _SIGNED.fullmatch(order):
            raise EdgeListSyntaxError(f"line {lineno}: negative order {order}")
        raise EdgeListSyntaxError(
            f"line {lineno}: non-integer order {order!r}"
        )
    if order[0] == "0" != order:
        raise EdgeListSyntaxError(
            f"line {lineno}: zero-padded order {order!r}"
        )
    if len(order) > len(str(MAX_ORDER)) or int(order) > MAX_ORDER:
        raise OrderTooLargeError(
            f"line {lineno}: order {order} exceeds {MAX_ORDER}"
        )
    return int(order)


def _edge_list_lines(g):
    """The lines of g in the edge-list format, each with its line break:
    the order header, then one line per edge, read from the adjacency."""
    yield f"n {g.n}\n"
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs[bisect_right(nbrs, u):]:
            yield f"{u} {v}\n"


def write_edge_list(g):
    """Render a graph in the edge-list format with an explicit order header."""
    return "".join(_edge_list_lines(g))


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
    line = line.strip().removeprefix(_G6_HEADER)
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
    # Bit k of the pair (u, v), u < v, is v(v-1)/2 + u: walk each vertex's
    # lower neighbours, a prefix of its sorted tuple.
    for v, nbrs in enumerate(g.adjacency):
        first = v * (v - 1) // 2
        for u in nbrs[:bisect_left(nbrs, v)]:
            k = first + u
            groups[k // 6] |= 32 >> k % 6
    return _graph6_order(n) + groups.translate(_G6_CHARS).decode("ascii")
