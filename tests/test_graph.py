"""Graph construction, validation, family generators and the two parsers."""

import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindices import (
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
from rindices.graph import (
    FAMILY_MIN_ORDER,
    _graph6_order,
    parse_edge_list_with_mapping,
)


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


class TestRandomConnected:
    def test_single_vertex(self):
        g = generate_random_connected(1, 0.5, seed=1)
        assert g.n == 1 and g.m == 0

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

    def test_header_allows_isolated_vertices(self):
        g = parse_edge_list("n 4\n0 1\n")
        assert g.n == 4 and g.m == 1

    def test_sparse_ids_compacted(self):
        g, mapping = parse_edge_list_with_mapping("10 20\n20 30\n")
        assert g.n == 3 and g.m == 2
        assert mapping == {10: 0, 20: 1, 30: 2}

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
