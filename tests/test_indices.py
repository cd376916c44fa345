"""R indices and classical degree-based indices."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from rindices import (
    DisconnectedGraphError,
    Family,
    IndexReport,
    OrderTooSmallError,
    Source,
    abc_index,
    build_graph,
    chi_index,
    classical_extras,
    full_report,
    ga_index,
    generate_family,
    generate_random_connected,
    h_index,
    parse_edge_list,
    r1_index,
    r2_index,
    r3_index,
    r_degree_table,
)
from rindices.families import variants_for
from rindices.indices import _LANE, _LANE_BITS, _edge_terms
from util import relabel

REL_TOL = 1e-9


class TestRIndices:
    def test_r1_cycle5(self):
        assert r1_index(generate_family(Family.CYCLE, 5)) == 320

    def test_r1_k3(self):
        assert r1_index(generate_family(Family.COMPLETE, 3)) == 192

    def test_r1_s3(self):
        # The direct value 3^2 + 4^2 + 4^2, not the published n^2 claim.
        assert r1_index(generate_family(Family.STAR, 3)) == 41

    def test_r2_cycle4(self):
        assert r2_index(generate_family(Family.CYCLE, 4)) == 256

    def test_r2_s3(self):
        assert r2_index(generate_family(Family.STAR, 3)) == 24

    def test_r2_p5(self):
        assert r2_index(generate_family(Family.PATH, 5)) == 120

    def test_r3_c3(self):
        assert r3_index(generate_family(Family.CYCLE, 3)) == 48

    def test_r3_s4(self):
        assert r3_index(generate_family(Family.STAR, 4)) == 30

    def test_r3_p5(self):
        assert r3_index(generate_family(Family.PATH, 5)) == 44

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        for fn in (r1_index, r2_index, r3_index, abc_index, ga_index,
                   h_index, chi_index, classical_extras, full_report):
            with pytest.raises(DisconnectedGraphError):
                fn(g)

    def test_too_small_rejected(self):
        g = build_graph(1, [])
        with pytest.raises(OrderTooSmallError):
            r1_index(g)


class TestClassicalIndices:
    def test_abc_cycle6(self):
        assert abc_index(generate_family(Family.CYCLE, 6)) == \
            pytest.approx(6 / math.sqrt(2), rel=REL_TOL)

    def test_abc_k4(self):
        assert abc_index(generate_family(Family.COMPLETE, 4)) == \
            pytest.approx(4.0, rel=REL_TOL)

    def test_abc_p4(self):
        expected = 2 * math.sqrt(0.5) + math.sqrt(2 / 4)
        assert abc_index(generate_family(Family.PATH, 4)) == \
            pytest.approx(expected, rel=REL_TOL)

    def test_ga_cycle_is_n(self):
        for n in (3, 7, 20):
            assert ga_index(generate_family(Family.CYCLE, n)) == \
                pytest.approx(float(n), rel=REL_TOL)

    def test_ga_k5(self):
        assert ga_index(generate_family(Family.COMPLETE, 5)) == \
            pytest.approx(10.0, rel=REL_TOL)

    def test_ga_p4(self):
        expected = 2 * (2 * math.sqrt(2) / 3) + 1
        assert ga_index(generate_family(Family.PATH, 4)) == \
            pytest.approx(expected, rel=REL_TOL)

    def test_h_cycle5(self):
        assert h_index(generate_family(Family.CYCLE, 5)) == \
            pytest.approx(2.5, rel=REL_TOL)

    def test_h_k4(self):
        assert h_index(generate_family(Family.COMPLETE, 4)) == \
            pytest.approx(2.0, rel=REL_TOL)

    def test_h_p3(self):
        assert h_index(generate_family(Family.PATH, 3)) == \
            pytest.approx(4 / 3, rel=REL_TOL)

    def test_chi_c4(self):
        assert chi_index(generate_family(Family.CYCLE, 4)) == \
            pytest.approx(2.0, rel=REL_TOL)

    def test_chi_k3(self):
        assert chi_index(generate_family(Family.COMPLETE, 3)) == \
            pytest.approx(1.5, rel=REL_TOL)

    def test_chi_p4(self):
        expected = 2 / math.sqrt(3) + 0.5
        assert chi_index(generate_family(Family.PATH, 4)) == \
            pytest.approx(expected, rel=REL_TOL)

    def test_extras_c5(self):
        z1, z2, randic = classical_extras(generate_family(Family.CYCLE, 5))
        assert (z1, z2, randic) == pytest.approx((20, 20, 2.5), rel=REL_TOL)

    def test_extras_k4(self):
        z1, z2, randic = classical_extras(generate_family(Family.COMPLETE, 4))
        assert (z1, z2, randic) == pytest.approx((36, 54, 2.0), rel=REL_TOL)

    def test_extras_s4(self):
        z1, z2, randic = classical_extras(generate_family(Family.STAR, 4))
        assert (z1, z2) == pytest.approx((12, 9), rel=REL_TOL)
        assert randic == pytest.approx(math.sqrt(3), rel=REL_TOL)


class TestFullReport:
    def test_c3(self):
        report = full_report(generate_family(Family.CYCLE, 3))
        assert (report.r1, report.r2, report.r3) == (192, 192, 48)

    def test_k2(self):
        report = full_report(build_graph(2, [(0, 1)]))
        assert (report.r1, report.r2, report.r3) == (8, 4, 4)

    def test_s5(self):
        report = full_report(generate_family(Family.STAR, 5))
        assert report.r2 == 160
        assert report.r3 == 52

    def test_k1000_matches_statement_forms(self):
        n = 1000
        report = full_report(generate_family(Family.COMPLETE, n))
        for variant in variants_for(Family.COMPLETE):
            assert variant.source is Source.PAPER_STATEMENT
            assert getattr(report, variant.index.value) == \
                variant.evaluate(n)

    def test_matches_individual_functions(self):
        g = generate_random_connected(20, 0.3, seed=11)
        report = full_report(g)
        assert report.r1 == r1_index(g)
        assert report.r2 == r2_index(g)
        assert report.r3 == r3_index(g)
        assert report.abc == abc_index(g)
        assert report.ga == ga_index(g)
        assert report.h == h_index(g)
        assert report.chi == chi_index(g)
        assert (report.zagreb1, report.zagreb2, report.randic) == \
            classical_extras(g)

    @pytest.mark.parametrize("g", [
        generate_family(Family.COMPLETE, 30),
        generate_family(Family.CYCLE, 30),
        build_graph(10, list(nx.petersen_graph().edges())),
    ], ids=["complete-30", "cycle-30", "petersen"])
    def test_regular_graph_walks_no_edge(self, g):
        # One lookup of the degree pair (k, k) stands for all m edges.
        _edge_terms.cache_clear()
        full_report(g)
        info = _edge_terms.cache_info()
        assert (info.hits, info.misses) == (0, 1)

    def test_term_past_128_fraction_bits_raises(self):
        # A Randic term near 2**-80 has bits down to 2**-132; it is not
        # rounded into the fixed-point sum.
        with pytest.raises(ArithmeticError, match="128 fraction bits"):
            _edge_terms(3 << 78, 1 << 80)

    def test_zagreb_lanes_at_degree_2_to_40(self):
        # The two integer lanes are plain du + dv and du * dv, not
        # scaled; the five real lanes are the real terms times 2**128.
        k = 1 << 40
        s, p = 2 * k, k * k
        real = [math.sqrt((s - 2) / p), 2 * math.sqrt(p) / s, 2 / s,
                1 / math.sqrt(s), 1 / math.sqrt(p)]
        assert lanes(_edge_terms(k, k)) == \
            [int(math.ldexp(t, 128)) for t in real] + [1 << 41, 1 << 80]

    @pytest.mark.parametrize("k", [3, 1 << 20])
    def test_lanes_hold_2_to_47_edges_without_carry(self, k):
        m = 2 ** 47 - 1
        assert lanes(m * _edge_terms(k, k)) == \
            [m * lane for lane in lanes(_edge_terms(k, k))]


def lanes(packed):
    """The seven lanes of a packed int, lowest first; the top one has no
    mask."""
    shifts = range(0, 6 * _LANE_BITS, _LANE_BITS)
    return ([packed >> shift & _LANE for shift in shifts]
            + [packed >> shifts.stop])



def complete_bipartite(p, q):
    """K_{p,q}: side 0..p-1 joined to side p..p+q-1."""
    return build_graph(p + q, [(u, v) for u in range(p)
                               for v in range(p, p + q)])


def wheel(n):
    """W_n: hub 0 joined to the rim cycle 1..n-1."""
    rim = range(1, n)
    return build_graph(n, [(0, v) for v in rim]
                       + [(v, v + 1) for v in range(1, n - 1)] + [(1, n - 1)])


class TestClosedFormsPastThePaper:
    """Two families derived by the paper's vertex-class method."""

    def assert_indices(self, g, r1, r2, r3):
        report = full_report(g)
        assert (report.r1, report.r2, report.r3) == (r1, r2, r3)
        assert (r1_index(g), r2_index(g), r3_index(g)) == (r1, r2, r3)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_complete_bipartite(self, p):
        for q in range(1, 13):
            g = complete_bipartite(p, q)
            a = p ** q + p * q  # r of a vertex in the side of size p
            b = q ** p + p * q
            assert r_degree_table(g).r_degrees == (a,) * p + (b,) * q
            self.assert_indices(g, p * a * a + q * b * b, p * q * a * b,
                                p * q * (a + b))

    def test_wheel(self):
        for n in range(5, 60):
            g = wheel(n)
            hub = 3 ** (n - 1) + 3 * (n - 1)
            rim = 10 * n - 4
            assert r_degree_table(g).r_degrees == (hub,) + (rim,) * (n - 1)
            self.assert_indices(g, hub * hub + (n - 1) * rim * rim,
                                (n - 1) * (hub * rim + rim * rim),
                                (n - 1) * (hub + 3 * rim))


# k-regular graphs past the paper's cycles and complete graphs.
REGULAR_GRAPHS = {
    "petersen": nx.petersen_graph,
    "dodecahedral": nx.dodecahedral_graph,
    "hypercube-q4": lambda: nx.hypercube_graph(4),
    "circulant-c12-1-3": lambda: nx.circulant_graph(12, [1, 3]),
    "k5-5": lambda: nx.complete_bipartite_graph(5, 5),
    "random-3-16": lambda: nx.random_regular_graph(3, 16, seed=1),
    "random-4-25": lambda: nx.random_regular_graph(4, 25, seed=2),
    "random-7-30": lambda: nx.random_regular_graph(7, 30, seed=3),
}


def from_networkx(h, seed):
    """The Graph of a networkx graph, its vertices numbered by a seeded
    permutation, so that vertices with equal neighbour-degree lists are
    seldom consecutive."""
    perm = list(range(len(h)))
    random.Random(seed).shuffle(perm)
    index = dict(zip(h, perm))
    return build_graph(len(h), [(index[u], index[v]) for u, v in h.edges()])


def edge_term_fsums(g):
    """(abc, ga, h, chi, randic) of g, each the correctly rounded sum of
    its per-edge terms."""
    terms = []
    for u, v in g.edges():
        s = g.degree(u) + g.degree(v)
        prod = g.degree(u) * g.degree(v)
        terms.append((math.sqrt((s - 2) / prod), 2.0 * math.sqrt(prod) / s,
                      2.0 / s, 1.0 / math.sqrt(s), 1.0 / math.sqrt(prod)))
    return tuple(map(math.fsum, zip(*terms)))


def assert_r_values_match_oracle(g):
    """The R-degree table, the R selectors and full_report agree with the
    oracle on g: R1-R3 and the Zagreb indices exactly, and the real
    indices bit for bit with the fsum of their per-edge terms."""
    assert r_degree_table(g).r_degrees == \
        tuple(oracle.naive_r_value(g, v) for v in range(g.n))
    expected = oracle.naive_r1(g), oracle.naive_r2(g), oracle.naive_r3(g)
    assert (r1_index(g), r2_index(g), r3_index(g)) == expected
    report = full_report(g)
    assert (report.r1, report.r2, report.r3) == expected
    assert (report.abc, report.ga, report.h, report.chi,
            report.randic) == edge_term_fsums(g)
    assert (report.zagreb1, report.zagreb2) == \
        (oracle.naive_zagreb1(g), oracle.naive_zagreb2(g))


class TestRegularGraphs:
    """Regular graphs, and the same graphs less one edge, whose two ends
    then have a degree of their own."""

    @pytest.mark.parametrize("name", sorted(REGULAR_GRAPHS))
    def test_agrees_with_oracle(self, name):
        g = from_networkx(REGULAR_GRAPHS[name](), seed=len(name))
        assert len(set(g.degrees)) == 1
        assert_r_values_match_oracle(g)
        edges = g.edges()
        assert_r_values_match_oracle(build_graph(g.n, edges[1:]))

    @pytest.mark.parametrize("text", ["n 3\n", "n 1\n"])
    def test_no_edges(self, text):
        # 0-regular: an empty sum and an empty product, r = 0 + 1.
        g = parse_edge_list(text)
        assert r_degree_table(g).r_degrees == (1,) * g.n == \
            tuple(oracle.naive_r_value(g, v) for v in range(g.n))


class TestIndexReport:
    FIELDS = ["n", "m", "r1", "r2", "r3", "abc", "ga", "h", "chi",
              "zagreb1", "zagreb2", "randic"]

    def test_fields_by_position_and_keyword(self):
        values = list(range(100, 112))
        report = IndexReport(*values)
        assert [getattr(report, name) for name in self.FIELDS] == values
        assert IndexReport(**dict(zip(self.FIELDS, values))) == report
        for wrong in (values[:-1], values + [0]):
            with pytest.raises(TypeError):
                IndexReport(*wrong)

    def test_equal_and_hash_by_value(self):
        a = full_report(generate_family(Family.CYCLE, 6))
        b = full_report(build_graph(6, [(5, 0)] + [(i, i + 1)
                                                   for i in range(5)]))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != full_report(generate_family(Family.PATH, 6))

    def test_read_only(self):
        report = full_report(generate_family(Family.CYCLE, 4))
        for name in ("r1", "extra"):
            with pytest.raises(AttributeError):
                setattr(report, name, 0)
        assert report.r1 == 256

    def test_repr(self):
        assert repr(full_report(generate_family(Family.PATH, 4))) == (
            "IndexReport(n=4, m=3, r1=82, r2=65, r3=28, "
            "abc=2.121320343559643, ga=2.885618083164127, "
            "h=1.8333333333333333, chi=1.6547005383792517, "
            "zagreb1=10, zagreb2=8, randic=1.914213562373095)")


class TestProperties:
    @given(st.integers(min_value=2, max_value=30), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_handshake_identity(self, n, seed):
        g = generate_random_connected(n, 0.3, seed)
        r = r_degree_table(g).r_degrees
        assert r3_index(g) == sum(g.degree(v) * r[v] for v in range(n))

    @given(st.integers(min_value=2, max_value=25), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_ga_bound(self, n, seed):
        g = generate_random_connected(n, 0.3, seed)
        ga = ga_index(g)
        assert 0 < ga <= g.m + 1e-12
        regular_edges = all(g.degree(u) == g.degree(v) for u, v in g.edges())
        if regular_edges:
            assert ga == pytest.approx(float(g.m), rel=REL_TOL)
        else:
            assert ga < g.m

    @pytest.mark.parametrize("n", range(3, 15))
    def test_vertex_transitive_collapse(self, n):
        # Every vertex of C_n and K_n has one degree and one R degree, from
        # which full_report takes every index without the edge walk; the
        # oracle sums them vertex by vertex and edge by edge.
        for family in (Family.CYCLE, Family.COMPLETE):
            assert_r_values_match_oracle(generate_family(family, n))

    @given(st.integers(min_value=2, max_value=25), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_isomorphism_invariance(self, n, seed):
        g = generate_random_connected(n, 0.35, seed)
        perm = list(range(n))
        random.Random(seed ^ 0x1234).shuffle(perm)
        h = relabel(g, perm)
        assert full_report(g) == full_report(h)

    @given(st.integers(min_value=2, max_value=35), st.integers())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_naive_oracle(self, n, seed):
        g = generate_random_connected(n, 0.3, seed)
        report = full_report(g)
        assert report.r1 == oracle.naive_r1(g)
        assert report.r2 == oracle.naive_r2(g)
        assert report.r3 == oracle.naive_r3(g)
        assert (report.abc, report.ga, report.h, report.chi,
                report.randic) == (oracle.naive_abc(g), oracle.naive_ga(g),
                                   oracle.naive_h(g), oracle.naive_chi(g),
                                   oracle.naive_randic(g))
        assert report.zagreb1 == oracle.naive_zagreb1(g)
        assert report.zagreb2 == oracle.naive_zagreb2(g)

    @given(st.integers(min_value=2, max_value=35), st.integers(),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_r_selectors_equal_oracle(self, n, seed, p):
        g = generate_random_connected(n, p, seed)
        assert (r1_index(g), r2_index(g), r3_index(g)) == \
            (oracle.naive_r1(g), oracle.naive_r2(g), oracle.naive_r3(g))

    @given(st.integers(min_value=2, max_value=35), st.integers(),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_real_indices_equal_fsum_of_edge_terms(self, n, seed, p):
        """Each real index equals, exactly, the correctly rounded sum of its
        per-edge terms, with the per-degree-pair term cache cold or warm."""
        g = generate_random_connected(n, p, seed)
        expected = edge_term_fsums(g)
        _edge_terms.cache_clear()
        cold = full_report(g)
        warm = full_report(g)
        for report in (cold, warm):
            assert (report.abc, report.ga, report.h, report.chi,
                    report.randic) == expected
        assert _edge_terms.cache_info().maxsize is not None
