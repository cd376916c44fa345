"""Graph construction, validation, family generators and the two parsers."""

import contextlib
import io
import os
import random
import sys
import tempfile
import threading
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindices import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListSyntaxError,
    Family,
    Graph,
    Graph6Error,
    GraphError,
    InvalidCharacterError,
    LoopEdgeError,
    OrderTooLargeError,
    OrderTooSmallError,
    TrailingDataError,
    TruncatedDataError,
    VertexOutOfRangeError,
    build_graph,
    generate_family,
    generate_random_connected,
    is_connected,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from rindices import graph
from rindices.graph import _CHUNK, FAMILY_MIN_ORDER, _graph6_order


def assert_matches_validated_build(g):
    """g, built without validation, equals the validated Graph of its own
    edges and holds strictly ascending neighbour tuples. A repeated, looped
    or out-of-range neighbour makes Graph() raise; a one-sided one makes
    the two graphs differ."""
    validated = Graph(g.n, g.edges())
    assert g == validated
    assert (g.m, g.degrees, hash(g)) == \
        (validated.m, validated.degrees, hash(validated))
    for nbrs in g.adjacency:
        assert type(nbrs) is tuple
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3 and g.m == 3
        assert g.edges() == ((0, 1), (0, 2), (1, 2))
        assert repr(g) == "Graph(n=3, m=3)"
        assert g != (3, g.edges())

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.m == 1

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_graph(3, [(0, 0)])

    def test_duplicate_rejected_even_reversed(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(2, [(0, 2)])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError,
                           match="^vertex count must be nonnegative, got -1$"):
            Graph(-1, [])

    def test_adjacency_symmetry(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
            assert g.degrees[u] == g.degree(u)
            assert g.adjacency[u] == tuple(sorted(g.neighbors(u)))

    def test_degree_out_of_range(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(VertexOutOfRangeError):
            g.degree(5)


def reference_scan_error(n, edges):
    """(type, message) of the first faulty edge in input order, or None."""
    seen = set()
    for u, v in edges:
        for w in (u, v):
            if not 0 <= w < n:
                return VertexOutOfRangeError, f"vertex {w} not in 0..{n - 1}"
        if u == v:
            return LoopEdgeError, f"self-loop at vertex {u}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return DuplicateEdgeError, f"edge {key} appears more than once"
        seen.add(key)
    return None


# Piece sizes the edge-list tests parse at: the shipped one, and sizes so
# small that a multi-line input spans several pieces, most lines start a
# piece, and every canonical piece after the one that holds the first
# data line takes the bulk path.
CHUNKS = (_CHUNK, 1, 5)


def outcome(parse, text):
    """parse(text), or the type and message of the GraphError it raises."""
    try:
        return parse(text)
    except GraphError as exc:
        return type(exc), str(exc)


@contextlib.contextmanager
def pipe_stream(text):
    """An open text stream that reads text from a pipe, so that it cannot
    seek or tell its position. A thread writes the text, as a pipe buffers
    only a few pages."""
    read_fd, write_fd = os.pipe()

    def write():
        with open(write_fd, "w", encoding="utf-8", newline="") as out:
            out.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with open(read_fd, encoding="utf-8", newline="") as stream:
        assert not stream.seekable()
        yield stream
    writer.join(timeout=60)
    assert not writer.is_alive()


def parse_chunked(text):
    """parse_edge_list(text), after checking that every piece size in
    CHUNKS returns the same graph or raises the same error and message,
    from the str, from an open text file that reads back the text, and
    from a pipe, which is read whole first as it cannot tell its
    position."""
    outcomes = []
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as f:
        f.write(text)
        for size in CHUNKS:
            with mock.patch.object(graph, "_CHUNK", size):
                outcomes.append(outcome(parse_edge_list, text))
                f.seek(0)
                outcomes.append(outcome(parse_edge_list, f))
                with pipe_stream(text) as stream:
                    outcomes.append(outcome(parse_edge_list, stream))
    assert outcomes == outcomes[:1] * len(outcomes)
    return parse_edge_list(text)


class TestGraphCore:
    @given(st.integers(min_value=1, max_value=30), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_edge_order_and_orientation_ignored(self, n, seed):
        g = generate_random_connected(n, 0.3, seed)
        rng = random.Random(seed)
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in g.edges()]
        rng.shuffle(edges)
        h = build_graph(n, iter(edges))
        assert h == build_graph(n, sorted(g.edges()))
        assert hash(h) == hash(g)
        assert list(h.edges()) == sorted(h.edges())
        assert h.m == len(h.edges()) == len(edges)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 1), (0, 5)],   # duplicate, then out of range
        [(0, 1), (3, 3), (1, 0)],           # loop, then duplicate
        [(0, 1), (1, 0), (2, 2)],           # duplicate, then loop
        [(0, 1), (-1, 2), (2, 2)],          # negative id, then loop
        [(0, 4), (4, 1), (1, 9)],           # out of range, both sides
        [(0, 1), (1, 0), (-1, 2)],          # duplicate, then negative id
        # -1 names vertex 3, whose list then holds 2 twice: a repeat that
        # no edge makes.
        [(3, 2), (-1, 2)],
    ])
    def test_first_fault_decides_error(self, edges):
        kind, message = reference_scan_error(4, edges)
        with pytest.raises(kind) as info:
            build_graph(4, iter(edges))
        assert type(info.value) is kind
        assert str(info.value) == message

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 1)],           # duplicate
        [(0, 1), (3, 3)],                   # loop
        [(0, 1), (-1, 2)],                  # negative id within -n
        [(0, 1), (-50, 2)],                 # negative id below -n
        [(5, 1), (1, 40)],                  # out of range
    ])
    def test_first_fault_with_isolated_vertices(self, edges):
        # 40 vertices and at most 6 edge ends: most vertices are isolated
        # and share the empty tuple.
        kind, message = reference_scan_error(40, edges)
        with pytest.raises(kind) as info:
            build_graph(40, iter(edges))
        assert str(info.value) == message

    def test_isolated_vertices_have_empty_neighbour_tuples(self):
        g = build_graph(40, [(7, 3), (3, 39)])
        expected = [()] * 40
        expected[3], expected[7], expected[39] = (7, 39), (3,), (3,)
        assert g.adjacency == tuple(expected)
        assert g.degrees == tuple(map(len, expected))


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(generate_family(Family.PATH, 4))

    def test_two_components(self):
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(build_graph(1, []))

    def test_empty_graph(self):
        assert is_connected(build_graph(0, []))

    def test_complete_graph_reads_one_neighbour_tuple(self):
        class CountingAdjacency:
            def __init__(self, rows):
                self.rows = rows
                self.reads = 0

            def __getitem__(self, v):
                self.reads += 1
                return self.rows[v]

        k50 = generate_family(Family.COMPLETE, 50)
        adjacency = CountingAdjacency(k50.adjacency)
        stand_in = SimpleNamespace(n=50, adjacency=adjacency)
        assert graph.first_unreachable_vertex(stand_in) is None
        assert adjacency.reads == 1

    @pytest.mark.parametrize("n, edges, expected", [
        (5, [(0, 2), (2, 3), (3, 4)], 1),
        (7, [(0, 1), (1, 2), (4, 5), (5, 6), (2, 6)], 3),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4)], 5),
        (2, [], 1),
        (6, [(0, 5), (4, 5), (3, 4)], 1),
    ])
    def test_smallest_unreachable_vertex(self, n, edges, expected):
        assert graph.first_unreachable_vertex(build_graph(n, edges)) == \
            expected

    def test_check_memory_per_vertex(self):
        n = 100_000
        path = generate_family(Family.PATH, n)
        tracemalloc.start()
        try:
            assert graph.first_unreachable_vertex(path) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n


class TestFamilies:
    def test_c3_equals_k3(self):
        assert generate_family(Family.CYCLE, 3) == \
            generate_family(Family.COMPLETE, 3)

    def test_complete_5_has_10_edges(self):
        assert generate_family(Family.COMPLETE, 5).m == 10

    @pytest.mark.parametrize("family,expected_m", [
        (Family.PATH, lambda n: n - 1),
        (Family.CYCLE, lambda n: n),
        (Family.COMPLETE, lambda n: n * (n - 1) // 2),
        (Family.STAR, lambda n: n - 1),
    ])
    def test_edge_counts(self, family, expected_m):
        for n in range(3, 12):
            assert generate_family(family, n).m == expected_m(n)

    def test_star_degrees(self):
        g = generate_family(Family.STAR, 5)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            generate_family(Family.CYCLE, 2)
        with pytest.raises(OrderTooSmallError):
            generate_family(Family.PATH, 1)

    def test_family_accepts_string(self):
        assert generate_family("path", 3).m == 2

    @pytest.mark.parametrize("family", list(Family))
    def test_matches_validated_build(self, family):
        for n in range(FAMILY_MIN_ORDER[family], 61):
            assert_matches_validated_build(generate_family(family, n))

    def test_complete_shares_one_int_per_vertex(self):
        # Ids past 256 are not cached by the interpreter; every neighbour
        # entry must still be one of the graph's 300 id objects.
        g = generate_family(Family.COMPLETE, 300)
        assert len({id(v) for nbrs in g.adjacency for v in nbrs}) == 300


class TestRandomConnected:
    def test_single_vertex(self):
        g = generate_random_connected(1, 0.5, seed=1)
        assert g.n == 1 and g.m == 0

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 1, got 0$"):
            generate_random_connected(0, 0.5, seed=1)

    def test_p_one_gives_complete(self):
        g = generate_random_connected(10, 1.0, seed=7)
        assert g.m == 45

    def test_spanning_tree_only(self):
        g = generate_random_connected(10, 0.0, seed=7)
        assert g.m == 9
        assert is_connected(g)

    def test_always_connected(self):
        for seed in range(50):
            assert is_connected(generate_random_connected(12, 0.1, seed))

    def test_deterministic_for_seed(self):
        a = generate_random_connected(15, 0.3, seed=42)
        b = generate_random_connected(15, 0.3, seed=42)
        assert a == b


class TestEdgeListParser:
    def test_simple_path(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_comment_and_blank_skipped(self):
        g = parse_edge_list("# comment\n\n0 1\n")
        assert g == build_graph(2, [(0, 1)])

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            parse_edge_list("0 0\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("0 x\n")

    # int() reads each of these; ids and the order are plain ASCII digits.
    @pytest.mark.parametrize("text", [
        "1_0 2\n", "+1 2\n", "\uff11 \uff12\n",
        "n +3\n0 1\n1 2\n", "n 0_3\n0 1\n1 2\n",
    ])
    def test_non_canonical_integer_rejected(self, text):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        ("0 x\n", "line 1: non-integer token in '0 x'"),
        ("-1 x\n", "line 1: non-integer token in '-1 x'"),
        ("0 -1\n", "line 1: negative vertex id in '0 -1'"),
        ("n x\n0 1\n", "line 1: non-integer order 'x'"),
        ("n -3\n0 1\n", "line 1: negative order -3"),
        ("n 3 4\n0 1\n", "line 1: header must be 'n <count>'"),
    ])
    def test_edge_list_syntax_messages(self, text, message):
        with pytest.raises(EdgeListSyntaxError, match=f"^{message}$"):
            parse_chunked(text)

    def test_header_allows_isolated_vertices(self):
        g = parse_chunked("n 4\n0 1\n")
        assert g.n == 4 and g.m == 1

    def test_sparse_ids_compacted(self):
        assert parse_edge_list("10 20\n20 30\n") == \
            build_graph(3, [(0, 1), (1, 2)])

    def test_sparse_ids_kept_as_names(self):
        # The file's ids name the vertices in output, but neither equality
        # nor the hash reads them. Ids that are already 0..n-1 keep none.
        g = parse_edge_list("10 20\n20 30\n")
        dense = parse_edge_list("0 1\n1 2\n")
        assert g == dense and hash(g) == hash(dense)
        assert graph._vertex_names(g) == [10, 20, 30]
        for h in (dense, parse_edge_list("n 3\n0 1\n1 2\n"),
                  generate_family(Family.PATH, 3)):
            assert h._names is None and graph._vertex_names(h) == range(3)

    def test_headerless_disconnected_names_file_ids(self):
        with pytest.raises(DisconnectedGraphError) as info:
            graph._require_connected(parse_edge_list("10 20\n30 40\n"))
        assert str(info.value) == ("graph is not connected: vertex 30 is "
                                   "unreachable from vertex 10")
        assert info.value.unreachable_vertex == 30

    # Without a header the ids are compacted, but a fault names the ids
    # the file holds, so that its line can be found.
    @pytest.mark.parametrize("text, kind, message", [
        ("4 7\n7 4\n", DuplicateEdgeError,
         "edge (4, 7) appears more than once"),
        ("10 20\n20 20\n", LoopEdgeError, "self-loop at vertex 20"),
    ], ids=["repeat", "loop"])
    def test_headerless_fault_names_file_ids(self, text, kind, message):
        with pytest.raises(kind) as info:
            parse_chunked(text)
        assert type(info.value) is kind
        assert str(info.value) == message

    def test_one_based_input_normalized(self):
        g = parse_edge_list("1 2\n2 3\n")
        assert g.n == 3

    def test_write_round_trip(self):
        g = generate_family(Family.CYCLE, 6)
        assert parse_edge_list(write_edge_list(g)) == g

    def test_huge_header_rejected_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLargeError):
                parse_edge_list("n 1000000000000\n0 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_large_header_costs_a_pointer_per_vertex(self):
        # Vertices without edges hold no list of their own; one list per
        # declared vertex would peak near 80 bytes a vertex.
        n = 200_000
        tracemalloc.start()
        try:
            g = parse_edge_list(f"n {n}\n0 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.n, g.m, g.adjacency[1], g.adjacency[n - 1]) == \
            (n, 1, (0,), ())
        assert peak < 32 * n

    # A lone 0 is canonical; a zero-padded id is one more spelling of a
    # vertex, and a zero-padded order one more spelling of the order.
    @pytest.mark.parametrize("text, message", [
        ("1 2\n01 3\n", "line 2: zero-padded vertex id in '01 3'"),
        ("0 1\n1 00\n", "line 2: zero-padded vertex id in '1 00'"),
        ("n 003\n0 1\n", "line 1: zero-padded order '003'"),
        ("0 1\n", None),
        ("n 0\n", None),
    ])
    def test_zero_padded_integer_rejected(self, text, message):
        if message is None:
            assert parse_chunked(text).n == (2 if text == "0 1\n" else 0)
            return
        with pytest.raises(EdgeListSyntaxError, match=f"^{message}$"):
            parse_chunked(text)

    def test_ingest_memory_per_edge(self):
        # Held lines, a list of edges or an int per neighbour entry would
        # each cost more than the headed bound. A list without a header,
        # its ids written as 3w + 1, holds each id once: a list of pairs
        # or of mapped ids on top would cost more than its bound. Each
        # faulting copy, whose last line repeats an edge, is scanned again
        # after the fault and must stay under its bound too.
        n, m = 20_000, 40_000
        rng = random.Random(20)
        edges = set()
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        pairs = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in sorted(edges)]
        rng.shuffle(pairs)
        used = sorted({w for e in edges for w in e})
        rank = dict(zip(used, range(len(used))))
        headed = f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        bare = "".join(f"{3 * u + 1} {3 * v + 1}\n" for u, v in pairs)
        u, v = pairs[0]
        cases = [(headed, 128), (headed + f"{u} {v}\n", 128),
                 (bare, 224), (bare + f"{3 * u + 1} {3 * v + 1}\n", 224)]
        outcomes = []
        for source, bound in cases:
            tracemalloc.start()
            try:
                outcomes.append(outcome(parse_edge_list, source))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * m, (bound * m, peak)
        u, v = sorted(pairs[0])
        assert outcomes == [
            build_graph(n, sorted(edges)),
            (DuplicateEdgeError, f"edge {(u, v)} appears more than once"),
            build_graph(len(used), [(rank[u], rank[v]) for u, v in edges]),
            (DuplicateEdgeError,
             f"edge {(3 * u + 1, 3 * v + 1)} appears more than once"),
        ]
        # Every entry naming a vertex is that vertex's one int object.
        for g in outcomes[::2]:
            named = {id(w) for nbrs in g.adjacency for w in nbrs}
            assert len(named) == sum(1 for d in g.degrees if d)

    @pytest.mark.parametrize("text, reads", [
        ("n 3\n0 1\n1 2\n", 1), ("n 3\n0 1\n1 2\n2 1\n", 2),
        ("n 3\n0 1\n1 2\n0 3\n", 2), ("0 1\n1 2\n2 1\n", 1),
    ], ids=["clean", "repeated-edge", "out-of-range", "header-less-repeat"])
    def test_a_fault_costs_one_reread(self, text, reads):
        # The build reads the input once, and on a graph fault once more
        # to name the first faulty edge. Without a header the ids are
        # held, and the fault scan walks them instead of the text.
        edge_list_items = graph._edge_list_items
        calls = []

        def counted(source):
            calls.append(source)
            return edge_list_items(source)

        with mock.patch.object(graph, "_edge_list_items", counted):
            outcome(parse_edge_list, text)
        assert len(calls) == reads

    @pytest.mark.parametrize("rest, fault", [
        ("n 3\n0 1\n1 2\n1 2\n",
         (DuplicateEdgeError, "edge (1, 2) appears more than once")),
        ("n 3\n0 1\n1 2\n", None),
    ], ids=["repeated-edge", "clean"])
    @pytest.mark.parametrize("kind", ["string-io", "file", "file-next"])
    def test_fault_rescan_starts_where_the_parse_began(self, rest, fault,
                                                       kind):
        # The source has been read past a first line, "0 x", that the
        # parse is not given: a fault's second read starts where the
        # first began, not at the start of the text. A file that next()
        # is reading cannot tell its position, so it is read whole first.
        text = "0 x\n" + rest
        with tempfile.TemporaryFile("w+", encoding="utf-8") as file:
            f = io.StringIO() if kind == "string-io" else file
            f.write(text)
            f.seek(0)
            next(f) if kind == "file-next" else f.readline()
            got = outcome(parse_edge_list, f)
        assert got == (fault or parse_edge_list(rest))

    @pytest.mark.parametrize("filler", [0, 10_000],
                             ids=["first-block", "later-block"])
    def test_undecodable_byte_in_file(self, filler):
        # Only int() past its digit limit is read as a syntax error; a
        # file's UnicodeDecodeError, also a ValueError, passes through.
        data = b"n 3\n0 1\n" + b"# comment\n" * filler + b"\xff 2\n"
        with tempfile.TemporaryFile() as f:
            f.write(data)
            f.seek(0)
            with io.TextIOWrapper(f, encoding="utf-8") as text, \
                    pytest.raises(UnicodeDecodeError):
                parse_edge_list(text)

    def test_later_syntax_error_wins_over_graph_fault(self):
        with pytest.raises(EdgeListSyntaxError,
                           match="^line 3: non-integer token in '0 x'$"):
            parse_chunked("n 3\n0 5\n0 x\n")

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 1), (0, 5)],   # duplicate, then out of range
        [(0, 1), (2, 2), (1, 3)],           # loop
        [(3, 1), (0, 2), (1, 3)],           # repeat, opposite orientation
    ])
    def test_first_fault_decides_error(self, edges):
        kind, message = reference_scan_error(4, edges)
        text = "n 4\n" + "".join(f"{u} {v}\n" for u, v in edges)
        with pytest.raises(kind) as info:
            parse_chunked(text)
        assert type(info.value) is kind
        assert str(info.value) == message

    @pytest.mark.parametrize("shift", range(-3, 4))
    def test_line_numbers_across_chunk_boundary(self, shift):
        # Comment lines fill the text up to the first chunk boundary,
        # where '\r\n', '\x0c' and '\u2028' line breaks meet it: a cut
        # inside a '\r\n' would count one line too many.
        head = "n 3\n0 1\n"
        filler = "# " + "x" * 77 + "\n"
        body = head + filler * ((_CHUNK - len(head)) // len(filler) - 1)
        body += "#\u2028#\x0c"
        body += "#" * (_CHUNK - len(body) + shift) + "\r\n"
        text = body + "1 2\x0c#\u2028\r\n\n2 x\n0 2\n"
        lineno = text.splitlines().index("2 x") + 1
        with pytest.raises(EdgeListSyntaxError,
                           match=f"^line {lineno}: non-integer token"):
            parse_edge_list(text)

    # int() refuses a digit string longer than sys.get_int_max_str_digits()
    # with a ValueError.
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit")
    @pytest.mark.parametrize("text, kind, message", [
        ("1 " + "9" * 5000, EdgeListSyntaxError, "line 1: vertex id longer "
         "than {limit} digits in '1 " + "9" * 5000 + "'"),
        ("n 3\n0 " + "9" * 5000, EdgeListSyntaxError, "line 2: vertex id "
         "longer than {limit} digits in '0 " + "9" * 5000 + "'"),
        ("n " + "9" * 5000, OrderTooLargeError,
         "line 1: order " + "9" * 5000 + " exceeds 10000000"),
        # A canonical piece: the bulk path's int() fails, not the loop's.
        ("n 3\n0 1\n0 " + "9" * 5000 + "\n1 2\n", EdgeListSyntaxError,
         "line 3: vertex id longer than {limit} digits in '0 "
         + "9" * 5000 + "'"),
    ], ids=["id", "id-after-header", "order", "id-in-canonical-line"])
    def test_id_or_order_beyond_int_digit_limit(self, text, kind, message):
        limit = sys.get_int_max_str_digits()
        if not 0 < limit < 5000:
            pytest.skip("int() reads 5,000 digits here")
        with pytest.raises(kind) as info:
            parse_chunked(text)
        assert type(info.value) is kind
        assert str(info.value) == message.format(limit=limit)


class TestGraph6:
    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_k2(self):
        # 'A' encodes n=2; '_' = 95-63 = 0b100000, first bit is edge (0,1).
        g = parse_graph6("A_")
        assert g == build_graph(2, [(0, 1)])

    def test_hand_decoded_star(self):
        # 'D' gives n=5; '?{' unpacks to bits 0000001111(00): the last four
        # upper-triangle positions, i.e. vertex 4 adjacent to all others.
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.edges() == ((0, 4), (1, 4), (2, 4), (3, 4))

    def test_write_k2(self):
        assert write_graph6(build_graph(2, [(0, 1)])) == "A_"

    def test_write_single_vertex(self):
        assert write_graph6(build_graph(1, [])) == "@"

    def test_header_line_ignored(self):
        assert parse_graph6(">>graph6<<A_").m == 1

    def test_invalid_character(self):
        with pytest.raises(InvalidCharacterError):
            parse_graph6("A!")

    def test_invalid_character_message_is_ascii(self):
        # A replaced undecodable byte is named by its escape, so the
        # message prints on any stdout.
        with pytest.raises(InvalidCharacterError) as info:
            parse_graph6("\ufffdA")
        assert str(info.value) == \
            "character '\\ufffd' outside graph6 range '?'..'~'"
        assert str(info.value).isascii()

    def test_truncated(self):
        with pytest.raises(TruncatedDataError):
            parse_graph6("D?")

    @pytest.mark.parametrize("text", ["~", "~?", "~~", "~~?", "~??",
                                      "~~?????"])
    def test_incomplete_order_prefix(self, text):
        # A long-form order prefix cut short, before any adjacency byte.
        with pytest.raises(TruncatedDataError,
                           match="^incomplete graph6 order prefix$"):
            parse_graph6(text)

    @pytest.mark.parametrize("text", ["Ch???", "A_?", "A`", "Ah", "D?|"])
    def test_trailing_data_rejected(self, text):
        # Bytes after the adjacency data, or set padding bits.
        with pytest.raises(TrailingDataError):
            parse_graph6(text)

    def test_long_form_writer(self):
        for n in (63, 100):
            g = generate_random_connected(n, 0.2, seed=n)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            encoded = write_graph6(g)
            assert encoded == \
                nx.to_graph6_bytes(h, header=False).decode().strip()
            assert parse_graph6(encoded) == g

    @pytest.mark.parametrize("n,prefix", [
        (62, "}"), (63, "~??~"), (258047, "~}~~"), (258048, "~~???~??"),
    ], ids=["62", "63", "258047", "258048"])
    def test_order_prefix(self, n, prefix):
        assert _graph6_order(n) == prefix

    @pytest.mark.parametrize("text,n", [
        ("~???", 0), ("~??}" + "?" * 316, 62), ("~~??????", 0),
        ("~~???}~~", 258047),
    ], ids=["4-byte-0", "4-byte-62", "8-byte-0", "8-byte-258047"])
    def test_non_minimal_order_prefix_rejected(self, text, n):
        # The order is checked before the length, so a line too short
        # for its order is rejected for the prefix, naming the order.
        with pytest.raises(Graph6Error, match=f"order {n} "):
            parse_graph6(text)

    def test_decoder_memory_linear_in_line(self):
        line = write_graph6(generate_family(Family.PATH, 2000))
        tracemalloc.start()
        try:
            g = parse_graph6(line)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 1999
        assert peak < 4 * len(line)

    def test_long_form_parse(self):
        g6 = nx.to_graph6_bytes(nx.path_graph(70), header=False).decode().strip()
        g = parse_graph6(g6)
        assert g.n == 70 and g.m == 69

    @pytest.mark.parametrize("family", list(Family))
    def test_family_round_trip(self, family):
        for n in range(3, 20):
            g = generate_family(family, n)
            assert parse_graph6(write_graph6(g)) == g

    def test_matches_networkx_encoding(self):
        for seed in range(20):
            g = generate_random_connected(11, 0.35, seed)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert write_graph6(g) == expected

    @given(st.integers(min_value=1, max_value=40), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, seed):
        g = generate_random_connected(n, 0.3, seed)
        assert parse_graph6(write_graph6(g)) == g


G6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def graph6_like(draw):
    """Strings of graph6 bytes. Half are arbitrary; the other half hold an
    order prefix and exactly the adjacency bytes it needs, drawn at random
    so that padding bits are often set, plus up to three trailing bytes."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=G6_CHARS, max_size=40))
    n = draw(st.one_of(st.integers(0, 20), st.integers(63, 66)))
    if n < 63:
        prefix = chr(63 + n)
    else:
        prefix = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    needed = (n * (n - 1) // 2 + 5) // 6
    body = draw(st.text(alphabet=G6_CHARS, min_size=needed, max_size=needed))
    return prefix + body + draw(st.text(alphabet=G6_CHARS, max_size=3))


@given(graph6_like())
@settings(max_examples=300, deadline=None)
def test_graph6_decoder_agrees_with_networkx(text):
    """parse_graph6 returns the graph networkx decodes, or raises a
    GraphError; it never accepts what networkx rejects."""
    try:
        expected = nx.from_graph6_bytes(text.encode("ascii"))
    except Exception:
        expected = None
    try:
        g = parse_graph6(text)
    except GraphError:
        return
    assert expected is not None
    assert g.n == expected.number_of_nodes()
    assert set(g.edges()) == {(min(e), max(e)) for e in expected.edges()}
    assert_matches_validated_build(g)


@st.composite
def header_edge_lists(draw):
    """(n, pairs, headed) of an edge list: distinct edges in either
    orientation, and at times one loop, repeat or out-of-range id. A
    header-less list writes each id w as 3w + 1."""
    n = draw(st.integers(2, 25))
    # v skips u, so no pair is a loop.
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
        .map(lambda e: (e[0], e[1] + (e[1] >= e[0]))),
        max_size=40, unique_by=frozenset))
    if draw(st.booleans()):
        w = draw(st.integers(0, n))
        faults = [(w, w), (w, n)] + [pair[::-1] for pair in pairs[:1]]
        pairs.insert(draw(st.integers(0, len(pairs))),
                     draw(st.sampled_from(faults)))
    return n, pairs, draw(st.booleans())


@given(header_edge_lists(), st.sampled_from(["\n", "\r\n", "\r", "\x0b"]),
       st.sampled_from(CHUNKS))
# About half the lists are header-less; each form gets about 300.
@settings(max_examples=600, deadline=None)
def test_edge_list_parse_matches_build_graph(case, newline, size):
    """parse_edge_list on a header edge list returns build_graph of the
    same pairs, or raises the same error of the first faulty edge; on a
    header-less list, build_graph of the pairs with compacted ids, or the
    error of the first faulty edge in the ids the text holds; at every
    piece size in CHUNKS."""
    n, pairs, headed = case
    if headed:
        text = newline.join([f"n {n}"] + [f"{u} {v}" for u, v in pairs])
        fault = reference_scan_error(n, pairs)
    else:
        written = [(3 * u + 1, 3 * v + 1) for u, v in pairs]
        text = newline.join(f"{u} {v}" for u, v in written)
        # No written id reaches 3n + 2, so none is out of range.
        fault = reference_scan_error(3 * n + 2, written)
        index = {w: i for i, w in enumerate(sorted({w for e in pairs
                                                     for w in e}))}
        n = len(index)
        pairs = [(index[u], index[v]) for u, v in pairs]
    with mock.patch.object(graph, "_CHUNK", size):
        got = outcome(parse_edge_list, text)
    assert got == (fault or build_graph(n, pairs))


# Faults a piece must not pass the bulk check with, each as a template of
# one line of a canonical list; the next line starts after a '\n'.
LINE_FAULTS = {
    "one-token": "{u}",
    "three-tokens": "{u} {v} {v}",
    "leading-space-one-token": " {u}",
    "trailing-space-one-token": "{u} ",
    "leading-space": " {u} {v}",
    "trailing-space": "{u} {v} ",
    "double-space": "{u}  {v}",
    "tab": "{u}\t{v}",
    "crlf": "{u} {v}\r",
    "cr": "{u} {v}\r{v} {u}",
    "form-feed": "{u} {v}\x0c{v} {u}",
    "zero-padded-first": "0{u} {v}",
    "zero-padded-second": "{u} 0{v}",
    "plus": "+{u} {v}",
    "minus": "{u} -{v}",
    "underscore": "{u}_0 {v}",
    "fullwidth-digit": "\uff11 {v}",
    "past-digit-limit": "{u} " + "9" * 5000,
}


@st.composite
def faulty_edge_lists(draw, fault):
    """Canonical "u v" lines, at times after a header, with one line
    replaced by LINE_FAULTS[fault] or, for "unterminated-id", one more id
    after the final '\n'; canonical throughout for fault None."""
    ids = st.one_of(st.integers(0, 2), st.integers(0, 10 ** 6))
    lines = [f"{u} {v}" for u, v in draw(st.lists(st.tuples(ids, ids),
                                                  min_size=1, max_size=12))]
    if fault in LINE_FAULTS:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = LINE_FAULTS[fault].format(u=draw(ids), v=draw(ids))
    if draw(st.booleans()):
        lines.insert(0, f"n {draw(ids)}")
    text = "\n".join(lines) + "\n"
    if fault == "unterminated-id":
        text += str(draw(ids))
    return text


@pytest.mark.parametrize("fault", [None, "unterminated-id", *LINE_FAULTS])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_bulk_pieces_match_line_loop(fault, data):
    """At every piece size in CHUNKS, _edge_list_items yields the items,
    or raises the error and message, that the line loop alone gives, and
    a canonical list of two or more lines takes the bulk path."""
    text = data.draw(faulty_edge_lists(fault))
    canonical_ids = graph._canonical_ids
    taken = []

    def counted(piece):
        ids = canonical_ids(piece)
        taken.append(ids is not None)
        return ids

    def items(text):
        return list(graph._edge_list_items(text))

    for size in CHUNKS:
        with mock.patch.object(graph, "_CHUNK", size):
            with mock.patch.object(graph, "_canonical_ids", counted):
                got = outcome(items, text)
            with mock.patch.object(graph, "_canonical_ids",
                                   lambda piece: None):
                want = outcome(items, text)
        assert got == want
    if fault is None and text.count("\n") > 1:
        assert any(taken)
