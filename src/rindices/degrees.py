"""Sum, multiplication and R degrees of vertices.

All three quantities are exact Python integers. The multiplication degree
of a vertex in K_n is (n-1)^(n-1), which passes 2^64 already at n = 17,
so nothing here may ever be narrowed to a machine word. One generator,
_sums_and_mults, holds the per-vertex formula; the table and the
single-vertex functions all read it. The table computes the R degrees at
once, and its sum and product columns are cached properties, derived on
first read.

The paper derives its closed forms by vertex class: vertices whose
neighbours have the same degrees have the same r. The table uses this
twice. In a k-regular graph every vertex has S = k^2 and M = k^k, so
the table of K_n or C_n is r = k^2 + k^k repeated, with sums k^2: one
count over the degree tuple finds it, and neither it nor its sum and
product columns read a neighbour degree. Otherwise each
vertex's neighbour degrees are gathered into a list, and a list equal
to the previous vertex's reuses that vertex's (sum, product): a path's
interior, a wheel's rim and each side of K_{p,q} cost one product each
when their vertices are numbered consecutively.
"""

import math
from functools import cached_property
from itertools import starmap
from operator import add, sub


class RDegreeTable:
    """Per-vertex sum degree, multiplication degree and R degree of one
    graph, three tuples in vertex order; its length is the number of
    vertices.

    r_degrees is computed when r_degree_table makes the table, and is all
    that the index report reads. sum_degrees and mult_degrees are cached
    properties: the sums are derived from the graph on first access,
    unless r_degree_table set them (k^2 each on a k-regular graph), and
    the products as r_degrees minus the sums, which is exact.
    """

    def __init__(self, g, r_degrees):
        self.r_degrees = r_degrees
        self._graph = g

    @cached_property
    def sum_degrees(self):
        """Sum degree of every vertex."""
        return tuple(s for s, _ in _table_sums_and_mults(self._graph))

    @cached_property
    def mult_degrees(self):
        """Multiplication degree of every vertex, as R degree minus sum
        degree."""
        return tuple(map(sub, self.r_degrees, self.sum_degrees))

    def __len__(self):
        return len(self.r_degrees)


def _sums_and_mults(degree, adjacency):
    """(sum, product) of the neighbour degrees of each neighbour tuple in
    adjacency, in order, where degree(u) is u's degree; (0, 1) for an
    empty one. A tuple whose degree list equals the one before reuses its
    pair, found with one list compare."""
    previous = pair = None
    for neighbors in adjacency:
        d = list(map(degree, neighbors))
        if d != previous:
            previous = d
            pair = sum(d), math.prod(d)
        yield pair


def _table_sums_and_mults(g):
    """_sums_and_mults over every vertex of g. The degrees are read
    through a list: list.__getitem__ is a fast method under map, while a
    tuple's is a slot wrapper."""
    return _sums_and_mults(list(g.degrees).__getitem__, g.adjacency)


def _sum_and_mult(g, v):
    """(sum, product) of the degrees of v's neighbours, in O(deg v)."""
    return next(_sums_and_mults(g.degrees.__getitem__, [g.neighbors(v)]))


def sum_degree(g, v):
    """Sum of the degrees of v's neighbors (0 for an isolated vertex)."""
    return _sum_and_mult(g, v)[0]


def mult_degree(g, v):
    """Product of the degrees of v's neighbors (empty product is 1)."""
    return _sum_and_mult(g, v)[1]


def r_degree(g, v):
    """R degree of v: multiplication degree plus sum degree."""
    return sum(_sum_and_mult(g, v))


def r_degree_table(g):
    """The degree table of g, with the R degree of every vertex, in id
    order, computed now; see RDegreeTable. A k-regular g takes no
    neighbour degree: each of its vertices has S = k^2 and
    r = k^2 + k^k."""
    degrees = g.degrees
    n = len(degrees)
    if n and degrees.count(degrees[0]) == n:
        k = degrees[0]
        table = RDegreeTable(g, (k * k + k ** k,) * n)
        table.sum_degrees = (k * k,) * n
        return table
    return RDegreeTable(g, tuple(starmap(add, _table_sums_and_mults(g))))
