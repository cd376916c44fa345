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
graph (see degrees). The R indices are grouped by vertex, so each costs
n big-integer products, plus m big additions for R2, instead of one big
product per edge:

  R1 = sum_v r(v)^2            R3 = sum_v deg(v) r(v)
  R2 = sum_u r(u) * sum_{w in N(u), w > u} r(w)

R1 and R3 are summed at C level, as sum(map(mul, ...)); the R2 upper
sums stay Python loops, which ran faster on K_n than a map or a list
comprehension.

The seven classical indices are edge sums of a function of the degree
pair (du, dv) of the edge (the edge-partition view of degree-based
indices): Zagreb1 of du + dv, Zagreb2 of du * dv, and ABC, GA,
harmonic, sum-connectivity and Randic of a real term. So each pair's
seven terms are evaluated once, kept in a bounded per-process cache as
lanes of one exact int, the real terms in fixed point, and the walk adds
one int per edge. The sum is exact and associative; each real lane is
rounded to a float once, at the end. Every real index is thus math.fsum
of its double-precision edge terms: the correctly rounded sum of those
terms, whatever the edge order, the vertex labels or the Python version.
A term itself is rounded as it is computed (K_2's chi reads
0.7071067811865475, one ulp below 2**-0.5). On a k-regular graph every
edge has the terms of (k, k), so full_report reads no adjacency there:
R1 = n r^2, R2 = m r^2, R3 = 2m r, and the seven classical sums are m
times the packed terms.
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
# holds the sum of 2**47 edges without a carry into the next. Above the
# five real lanes are two plain ints: Zagreb1's lane sums du + dv, at
# most 2m * (largest degree) <= 2m**2, so it holds 2**47 edges too, and
# Zagreb2's sum of du * dv, at most m * (largest degree)**2, takes the
# top lane, which has no bound.
_FRACTION_BITS = 128
_LANE_BITS = 176
_LANE = (1 << _LANE_BITS) - 1
_SHIFTS = range(0, 5 * _LANE_BITS, _LANE_BITS)
_ULP = 2.0 ** -_FRACTION_BITS


# 64 * 64 ordered degree pairs cover every short-form graph6 graph, in
# about 1.3 MB.
@functools.lru_cache(maxsize=4096)
def _edge_terms(du, dv):
    """ABC, GA, harmonic, sum-connectivity, Randic, Zagreb1 and Zagreb2
    terms of an edge whose ends have degrees du and dv, as one int of
    seven lanes, ABC in the lowest and Zagreb2 in the top. The five real
    terms are times 2**128; see _LANE_BITS."""
    s = du + dv
    p = du * dv
    packed = p << _LANE_BITS | s
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
    else:
        r2 = terms = 0
        # Each edge uv with u < v is visited once, from u.
        for u, nbrs in enumerate(g.adjacency):
            du = deg[u]
            r_upper = 0
            for v in nbrs[bisect_right(nbrs, u):]:
                r_upper += r[v]
                terms += _edge_terms(du, deg[v])
            r2 += r[u] * r_upper
        r1, r3 = sum(map(mul, r, r)), sum(map(mul, deg, r))
    # A lane is an exact sum. Times _ULP, a power of two, a real lane is
    # rounded once, as the int converts to a float. The two Zagreb lanes
    # are read as ints, Zagreb2 with no mask.
    abc, ga, h, chi, randic = [(terms >> shift & _LANE) * _ULP
                               for shift in _SHIFTS]
    zagreb2, zagreb1 = divmod(terms >> _SHIFTS.stop, 1 << _LANE_BITS)
    return IndexReport(n=n, m=m, r1=r1, r2=r2, r3=r3,
                       abc=abc, ga=ga, h=h, chi=chi,
                       zagreb1=zagreb1, zagreb2=zagreb2, randic=randic)
