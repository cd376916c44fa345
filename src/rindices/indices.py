"""R indices and classical degree-based indices, computed in one pass.

R1-R3 and the Zagreb indices are exact integers; the other indices are
floats. Every index requires a connected graph with at least two
vertices; the definitions do not extend to disconnected input and
summing over components would be an invention, so that is a hard error.

full_report computes every index in one pass and returns an
IndexReport, a named tuple; every other index function, and the
closed-form verifier, selects fields of it. It reads only the R degrees
r(v) of the degree table, which takes one neighbour-degree product per
run of vertices with equal neighbour degrees, and none on a regular
graph (see degrees). The exact indices are grouped by vertex, so each
costs n big-integer products, plus m big additions for R2, instead of
one big product per edge:

  R1 = sum_v r(v)^2            R3 = sum_v deg(v) r(v)
  R2 = sum_u r(u) * sum_{w in N(u), w > u} r(w)
  Zagreb1 = sum_v deg(v)^2
  Zagreb2 = sum_u deg(u) * sum_{w in N(u), w > u} deg(w)

so Zagreb2 needs no sum degrees. R1, R3 and Zagreb1 are summed at C
level, as sum(map(mul, ...)); the R2 upper sums stay Python loops, which
ran faster on K_n than a map or a list comprehension.

The five real-valued edge terms depend only on the degree pair of the
edge (the edge-partition view of degree-based indices), so each pair's
terms are evaluated once and kept in a bounded per-process cache. They
are kept as exact fixed-point ints, the five packed in one int, and
summed as ints, which is exact and associative; each sum is rounded to a
float once, at the end. Every real index is thus math.fsum of its edge
terms: correctly rounded, and the same whatever the edge order, the
vertex labels or the Python version. On a k-regular graph every edge
has the terms of (k, k), so full_report reads no adjacency there:
R1 = n r^2, R2 = m r^2, R3 = 2m r, Zagreb1 = n k^2, Zagreb2 = m k^2, and
the real sums are m times the packed terms.
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


def r1_index(g):
    """Sum of squared R degrees over all vertices."""
    return full_report(g).r1


def r2_index(g):
    """Sum over edges of the product of endpoint R degrees."""
    return full_report(g).r2


def r3_index(g):
    """Sum over edges of the sum of endpoint R degrees."""
    return full_report(g).r3


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


# A real edge term is at most 1, and 0 or at least 1 / (largest degree),
# so with degrees below 2**75 its last bit is worth at least 2**-128: the
# term times 2**128 is an exact int, at most 2**128. A lane of 176 bits
# holds the sum of 2**47 edges without a carry into the next.
_FRACTION_BITS = 128
_LANE_BITS = 176
_LANE = (1 << _LANE_BITS) - 1
_SHIFTS = range(0, 5 * _LANE_BITS, _LANE_BITS)
_ULP = 2.0 ** -_FRACTION_BITS


# 64 * 64 ordered degree pairs cover every short-form graph6 graph, in
# about 1.1 MB.
@functools.lru_cache(maxsize=4096)
def _edge_terms(du, dv):
    """ABC, GA, harmonic, sum-connectivity and Randic terms of an edge
    whose ends have degrees du and dv, each times 2**128, as one int of
    five lanes, ABC in the lowest; see _LANE_BITS."""
    s = du + dv
    p = du * dv
    packed = 0
    for term in (1.0 / math.sqrt(p), 1.0 / math.sqrt(s), 2.0 / s,
                 2.0 * math.sqrt(p) / s, math.sqrt((s - 2) / p)):
        scaled = math.ldexp(term, _FRACTION_BITS)
        if not scaled.is_integer():
            raise ArithmeticError(
                f"an edge term of degrees ({du}, {dv}) needs more than "
                f"{_FRACTION_BITS} fraction bits")
        packed = packed << _LANE_BITS | int(scaled)
    return packed


def full_report(g):
    """All indices of one graph, with R degrees computed once and shared."""
    _require_valid(g)
    n, m, deg = g.n, g.m, g.degrees
    r = r_degree_table(g).r_degrees
    if deg.count(deg[0]) == n:
        # Every vertex has degree k and R degree r[0]; every edge has
        # the terms of (k, k).
        k, rk = deg[0], r[0]
        terms = m * _edge_terms(k, k)
        r1, r2, r3 = n * rk * rk, m * rk * rk, 2 * m * rk
        zagreb1, zagreb2 = n * k * k, m * k * k
    else:
        r2 = zagreb2 = terms = 0
        # Each edge uv with u < v is visited once, from u.
        for u, nbrs in enumerate(g.adjacency):
            du = deg[u]
            r_upper = d_upper = 0
            for v in nbrs[bisect_right(nbrs, u):]:
                r_upper += r[v]
                dv = deg[v]
                d_upper += dv
                terms += _edge_terms(du, dv)
            r2 += r[u] * r_upper
            zagreb2 += du * d_upper
        r1, r3 = sum(map(mul, r, r)), sum(map(mul, deg, r))
        zagreb1 = sum(map(mul, deg, deg))
    # A lane is an exact sum. Times _ULP, a power of two, it is rounded
    # once, as the int converts to a float.
    abc, ga, h, chi, randic = [(terms >> shift & _LANE) * _ULP
                               for shift in _SHIFTS]
    return IndexReport(n=n, m=m, r1=r1, r2=r2, r3=r3,
                       abc=abc, ga=ga, h=h, chi=chi,
                       zagreb1=zagreb1, zagreb2=zagreb2, randic=randic)
