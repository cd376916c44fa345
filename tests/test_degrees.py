"""Sum, multiplication and R degree computations."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from rindices import (
    Family,
    VertexOutOfRangeError,
    build_graph,
    generate_family,
    generate_random_connected,
    mult_degree,
    parse_edge_list,
    r_degree,
    r_degree_table,
    sum_degree,
)
from rindices.graph import FAMILY_MIN_ORDER
from util import relabel


class TestSumDegree:
    def test_cycle(self):
        g = generate_family(Family.CYCLE, 5)
        assert all(sum_degree(g, v) == 4 for v in range(5))

    def test_complete(self):
        g = generate_family(Family.COMPLETE, 4)
        assert all(sum_degree(g, v) == 9 for v in range(4))

    def test_path_endpoint(self):
        g = generate_family(Family.PATH, 4)
        assert sum_degree(g, 0) == 2
        assert sum_degree(g, 3) == 2

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            sum_degree(build_graph(2, [(0, 1)]), 2)


class TestMultDegree:
    def test_complete(self):
        g = generate_family(Family.COMPLETE, 4)
        assert all(mult_degree(g, v) == 27 for v in range(4))

    def test_star_center_is_one(self):
        g = generate_family(Family.STAR, 5)
        assert mult_degree(g, 0) == 1

    def test_exceeds_64_bit_range(self):
        # K_18: every vertex has product 17^17, past any machine word.
        g = generate_family(Family.COMPLETE, 18)
        assert mult_degree(g, 0) == 827240261886336764177

    def test_isolated_vertex_empty_product(self):
        g = build_graph(1, [])
        assert mult_degree(g, 0) == 1
        assert sum_degree(g, 0) == 0
        assert r_degree(g, 0) == 1


class TestRDegree:
    def test_cycle_all_eight(self):
        for n in (3, 5, 7):
            g = generate_family(Family.CYCLE, n)
            assert all(r_degree(g, v) == 8 for v in range(n))

    def test_star_pendant(self):
        for n in (4, 5, 9):
            g = generate_family(Family.STAR, n)
            assert r_degree(g, 1) == 2 * n - 2

    def test_p3_middle(self):
        g = generate_family(Family.PATH, 3)
        assert r_degree(g, 1) == 3


class TestRDegreeTable:
    def test_p5(self):
        table = r_degree_table(generate_family(Family.PATH, 5))
        assert table.r_degrees == (4, 5, 8, 5, 4)

    def test_k2(self):
        table = r_degree_table(build_graph(2, [(0, 1)]))
        assert table.sum_degrees == (1, 1)
        assert table.mult_degrees == (1, 1)
        assert table.r_degrees == (2, 2)

    def test_length_matches_order(self):
        g = generate_random_connected(17, 0.3, seed=3)
        assert len(r_degree_table(g)) == 17

    def test_table_agrees_with_single_vertex_calls(self):
        g = generate_random_connected(20, 0.25, seed=5)
        table = r_degree_table(g)
        for v in range(g.n):
            assert table.sum_degrees[v] == sum_degree(g, v)
            assert table.mult_degrees[v] == mult_degree(g, v)
            assert table.r_degrees[v] == r_degree(g, v)


class TestInvariants:
    @given(st.integers(min_value=2, max_value=30), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_r_is_sum_plus_product(self, n, seed):
        g = generate_random_connected(n, 0.3, seed)
        table = r_degree_table(g)
        for v in range(g.n):
            assert table.r_degrees[v] == \
                table.sum_degrees[v] + table.mult_degrees[v]

    @pytest.mark.parametrize("n", range(3, 10))
    def test_regular_collapse_cycle(self, n):
        table = r_degree_table(generate_family(Family.CYCLE, n))
        assert set(table.r_degrees) == {2 ** 2 + 2 ** 2}

    @pytest.mark.parametrize("n", range(3, 12))
    def test_regular_collapse_complete(self, n):
        k = n - 1
        table = r_degree_table(generate_family(Family.COMPLETE, n))
        assert set(table.sum_degrees) == {k * k}
        assert set(table.mult_degrees) == {k ** k}
        assert set(table.r_degrees) == {k * k + k ** k}

    @pytest.mark.parametrize("family", [Family.CYCLE, Family.COMPLETE])
    @pytest.mark.parametrize("n", [3, 4, 9, 40])
    def test_regular_table_gathers_no_neighbour_degree(self, family, n,
                                                       monkeypatch):
        # A k-regular table holds S = k^2 for each vertex, so its sum and
        # product columns read no neighbour degree either.
        g = generate_family(family, n)
        expected = [(sum_degree(g, v), mult_degree(g, v)) for v in range(n)]

        def gather(_):
            raise AssertionError("neighbour degrees gathered")

        monkeypatch.setattr("rindices.degrees._table_sums_and_mults", gather)
        table = r_degree_table(g)
        assert list(zip(table.sum_degrees, table.mult_degrees)) == expected

    @given(st.integers(min_value=2, max_value=25), st.integers())
    @settings(max_examples=50, deadline=None)
    def test_relabeling_permutes_table(self, n, seed):
        g = generate_random_connected(n, 0.35, seed)
        perm = list(range(n))
        random.Random(seed ^ 0x5A5A).shuffle(perm)
        h = relabel(g, perm)
        tg = r_degree_table(g)
        th = r_degree_table(h)
        for v in range(n):
            assert th.r_degrees[perm[v]] == tg.r_degrees[v]

    @given(st.integers(min_value=2, max_value=30), st.integers())
    @settings(max_examples=50, deadline=None)
    def test_sum_degree_totals_degree_squares(self, n, seed):
        g = generate_random_connected(n, 0.3, seed)
        table = r_degree_table(g)
        assert sum(table.sum_degrees) == \
            sum(g.degree(v) ** 2 for v in range(n))


def assert_table_matches_naive(g):
    """Every entry of g's table equals the naive value and the
    single-vertex functions."""
    table = r_degree_table(g)
    assert len(table) == g.n
    for v in range(g.n):
        d = [len(g.neighbors(u)) for u in g.neighbors(v)]
        assert table.sum_degrees[v] == sum_degree(g, v) == sum(d)
        assert table.mult_degrees[v] == mult_degree(g, v) == math.prod(d)
        assert table.r_degrees[v] == r_degree(g, v) == \
            oracle.naive_r_value(g, v)


# How a member's hub set is drawn from the one before it. The table reuses
# a (sum, product) while consecutive neighbour-degree lists are equal, so
# these make twin runs and the lists that just end them.
_STEPS = ("twin", "other_last", "drop_last", "add_hub", "isolated", "fresh")


@st.composite
def twin_class_graphs(draw):
    """Edge-list text with an n header: hubs 0..h-1, joined at random,
    then members 0..k-1 after them, each adjacent to a set of hubs. Runs
    of members with one set are twin classes (equal neighbour lists);
    between them a member's set may differ from the one before only in
    its last hub, lack its last hub, gain one, or be empty, so that runs
    of isolated vertices sit under the header."""
    hubs = draw(st.integers(min_value=1, max_value=5))
    edges = [(u, v) for u in range(hubs) for v in range(u + 1, hubs)
             if draw(st.booleans())]
    hub_set = st.lists(st.integers(0, hubs - 1), unique=True).map(sorted)
    members = draw(st.integers(min_value=1, max_value=24))
    previous = draw(hub_set)
    for member in range(hubs, hubs + members):
        step = draw(st.sampled_from(_STEPS))
        current = list(previous)
        if step == "other_last" and current:
            current[-1] = draw(st.integers(current[-2] + 1 if len(current) > 1
                                           else 0, hubs - 1))
        elif step == "drop_last":
            current = current[:-1]
        elif step == "add_hub":
            current = sorted(set(current) | {draw(st.integers(0, hubs - 1))})
        elif step == "isolated":
            current = []
        elif step == "fresh":
            current = draw(hub_set)
        edges += [(hub, member) for hub in current]
        previous = current
    # Isolated vertices may also trail the members.
    n = hubs + members + draw(st.integers(min_value=0, max_value=3))
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


class TestRunReuse:
    @given(twin_class_graphs())
    @settings(max_examples=200, deadline=None)
    def test_twin_classes_and_run_breakers(self, text):
        assert_table_matches_naive(parse_edge_list(text))

    @pytest.mark.parametrize("text,lists", [
        # Vertices 0 and 1 share hub 2; their last neighbours 3 and 4
        # have degrees 1 and 2.
        ("n 6\n0 2\n1 2\n0 3\n1 4\n4 5\n", ([2, 1], [2, 2])),
        # Vertex 1's list is vertex 0's without its last entry.
        ("n 4\n0 2\n0 3\n1 2\n", ([2, 1], [2])),
        # ... and vertex 1's is vertex 0's with one more entry.
        ("n 4\n0 2\n1 2\n1 3\n", ([2], [2, 1])),
        # Runs of isolated vertices before, between and after edges.
        ("n 9\n2 3\n5 6\n", ([], [])),
    ])
    def test_run_breakers(self, text, lists):
        g = parse_edge_list(text)
        assert [[g.degrees[u] for u in g.neighbors(v)]
                for v in (0, 1)] == list(lists)
        assert_table_matches_naive(g)

    @pytest.mark.parametrize("family", list(Family))
    def test_families(self, family):
        for n in range(FAMILY_MIN_ORDER[family], 40):
            assert_table_matches_naive(generate_family(family, n))
