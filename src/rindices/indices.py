"""R indices and classical degree-based indices, computed in one pass.

R1-R3 and the Zagreb indices are exact integers; the other indices are
floats. Every index requires a connected graph with at least two
vertices; the definitions do not extend to disconnected input and
summing over components would be an invention, so that is a hard error.

full_report computes every index in one fused edge pass and returns an
IndexReport, a named tuple; the classical per-index functions select one
field of it. r1_index, r2_index, r3_index and the closed-form verifier
read only R1-R3, so they run _r_indices, which skips the float terms and
Zagreb2. R2's sum is thus written twice, on purpose: a full_report made
of the R pass and a separate classical pass ran `batch` 7.5% slower.
Both read only the R degrees r(v) of the degree table, which takes one
neighbour-degree product per run of vertices with equal neighbour
degrees, and none on a regular graph (see degrees). The exact R indices
are grouped by vertex, so each costs n big-integer products, plus m big
additions for R2, instead of one big product per edge:

  R1 = sum_v r(v)^2            R3 = sum_v deg(v) r(v)
  R2 = sum_u r(u) * sum_{w in N(u), w > u} r(w)
  Zagreb1 = sum_v deg(v)^2
  Zagreb2 = sum_u deg(u) * sum_{w in N(u), w > u} deg(w)

so Zagreb2 needs no sum degrees. When every vertex has one R degree r,
as on K_n and C_n, the R pass skips the edge walk: R1 = n r^2,
R2 = m r^2 and R3 = 2m r. full_report skips it on a k-regular graph,
with the same forms and Zagreb1 = n k^2, Zagreb2 = m k^2; every edge
there has the real terms of the degree pair (k, k), and it adds them m
times over without reading the adjacency, which gives the bits of the
edge walk. R1, R3 and Zagreb1 are summed at C level, as
sum(map(mul, ...)); the R2 upper sums stay Python loops, which ran
faster on K_n than a map or a list comprehension. The five
real-valued edge terms depend only on the degree pair of the edge, so
each pair's terms are evaluated once and kept in a bounded per-process
cache (the edge-partition view of degree-based indices). Float
addition is not associative, so the terms are still summed edge by edge
in sorted order: a graph then gives the same bits however its edges
were listed on input.
"""

import functools
import math
from bisect import bisect_right
from collections import namedtuple
from operator import mul

from .degrees import r_degree_table
from .errors import OrderTooSmallError
from .graph import _require_connected


class IndexReport(namedtuple(
        "IndexReport",
        "n m r1 r2 r3 abc ga h chi zagreb1 zagreb2 randic")):
    """All indices of one graph, as a named tuple. r1/r2/r3 and
    zagreb1/zagreb2 are exact ints, the rest floats."""

    __slots__ = ()


def _require_valid(g):
    if g.n < 2:
        raise OrderTooSmallError(f"indices require n >= 2, got n={g.n}")
    _require_connected(g)


def _regular_r_indices(n, m, r):
    """(R1, R2, R3) of a graph of n vertices and m edges whose every
    vertex has R degree r."""
    return n * r * r, m * r * r, 2 * m * r


def _r_indices(g):
    """(R1, R2, R3) of g, with no classical index computed."""
    _require_valid(g)
    r = r_degree_table(g).r_degrees
    n = len(r)
    if r.count(r[0]) == n:
        return _regular_r_indices(n, g.m, r[0])
    r2 = 0
    for u, nbrs in enumerate(g.adjacency):
        r_upper = 0
        for v in nbrs[bisect_right(nbrs, u):]:
            r_upper += r[v]
        r2 += r[u] * r_upper
    return sum(map(mul, r, r)), r2, sum(map(mul, g.degrees, r))


def r1_index(g):
    """Sum of squared R degrees over all vertices."""
    return _r_indices(g)[0]


def r2_index(g):
    """Sum over edges of the product of endpoint R degrees."""
    return _r_indices(g)[1]


def r3_index(g):
    """Sum over edges of the sum of endpoint R degrees."""
    return _r_indices(g)[2]


def abc_index(g):
    """Atom-bond connectivity index."""
    return full_report(g).abc


def ga_index(g):
    """Geometric-arithmetic index."""
    return full_report(g).ga


def h_index(g):
    """Harmonic index."""
    return full_report(g).h


def chi_index(g):
    """Sum-connectivity index."""
    return full_report(g).chi


def classical_extras(g):
    """First Zagreb, second Zagreb and Randic indices, in that order."""
    report = full_report(g)
    return report.zagreb1, report.zagreb2, report.randic


# 64 * 64 ordered degree pairs cover every short-form graph6 graph, in
# about 1.4 MB.
@functools.lru_cache(maxsize=4096)
def _edge_terms(du, dv):
    """ABC, GA, harmonic, sum-connectivity and Randic terms of an edge
    whose ends have degrees du and dv."""
    s = du + dv
    p = du * dv
    return (math.sqrt((s - 2) / p), 2.0 * math.sqrt(p) / s, 2.0 / s,
            1.0 / math.sqrt(s), 1.0 / math.sqrt(p))


def _regular_report(n, m, k, r):
    """The IndexReport of a connected k-regular graph of n vertices and m
    edges, whose every vertex has R degree r, without its edges: every
    edge has the terms of the degree pair (k, k). They are added m times
    over, so that the sums have the bits of the edge walk; not with sum(),
    which compensates float sums from Python 3.12 on."""
    t_abc, t_ga, t_h, t_chi, t_randic = _edge_terms(k, k)
    abc = ga = h = chi = randic = 0.0
    for _ in range(m):
        abc += t_abc
        ga += t_ga
        h += t_h
        chi += t_chi
        randic += t_randic
    r1, r2, r3 = _regular_r_indices(n, m, r)
    return IndexReport(n=n, m=m, r1=r1, r2=r2, r3=r3,
                       abc=abc, ga=ga, h=h, chi=chi,
                       zagreb1=n * k * k, zagreb2=m * k * k, randic=randic)


def full_report(g):
    """All indices of one graph, with R degrees computed once and shared."""
    _require_valid(g)
    deg = g.degrees
    r = r_degree_table(g).r_degrees
    if deg.count(deg[0]) == g.n:
        return _regular_report(g.n, g.m, deg[0], r[0])
    r2 = 0
    zagreb2 = 0
    abc = 0.0
    ga = 0.0
    h = 0.0
    chi = 0.0
    randic = 0.0
    # Each edge uv with u < v is visited once, from u, in sorted-edge order,
    # which keeps the float sums bit-identical to a walk over g.edges().
    for u, nbrs in enumerate(g.adjacency):
        du = deg[u]
        r_upper = d_upper = 0
        for v in nbrs[bisect_right(nbrs, u):]:
            r_upper += r[v]
            dv = deg[v]
            d_upper += dv
            t_abc, t_ga, t_h, t_chi, t_randic = _edge_terms(du, dv)
            abc += t_abc
            ga += t_ga
            h += t_h
            chi += t_chi
            randic += t_randic
        r2 += r[u] * r_upper
        zagreb2 += du * d_upper
    return IndexReport(
        n=g.n, m=g.m,
        r1=sum(map(mul, r, r)),
        r2=r2,
        r3=sum(map(mul, deg, r)),
        abc=abc, ga=ga, h=h, chi=chi,
        zagreb1=sum(map(mul, deg, deg)),
        zagreb2=zagreb2,
        randic=randic,
    )
