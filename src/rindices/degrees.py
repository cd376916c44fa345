"""Sum, multiplication and R degrees of vertices.

All three quantities are exact Python integers. The multiplication degree
of a vertex in K_n is (n-1)^(n-1), which passes 2^64 already at n = 17,
so nothing here may ever be narrowed to a machine word. One generator,
_sums_and_mults, holds the per-vertex formula; the table and the
single-vertex functions all read it.
"""

import math
from operator import sub


class RDegreeTable:
    """Per-vertex sum degree, multiplication degree and R degree of one
    graph, three tuples in vertex order; its length is the number of
    vertices.

    r_degrees is computed when r_degree_table makes the table, and is all
    that the index report reads. sum_degrees is derived from the graph on
    first access, and mult_degrees as r_degrees minus sum_degrees, which
    is exact; each is then kept.
    """

    __slots__ = ("r_degrees", "_graph", "_sums", "_mults")

    def __init__(self, g, r_degrees):
        self.r_degrees = r_degrees
        self._graph = g
        self._sums = self._mults = None

    @property
    def sum_degrees(self):
        """Sum degree of every vertex, derived on first access."""
        if self._sums is None:
            g = self._graph
            self._sums = tuple(s for s, _ in _sums_and_mults(g.degrees,
                                                             g.adjacency))
        return self._sums

    @property
    def mult_degrees(self):
        """Multiplication degree of every vertex, derived on first
        access as R degree minus sum degree."""
        if self._mults is None:
            self._mults = tuple(map(sub, self.r_degrees, self.sum_degrees))
        return self._mults

    def __len__(self):
        return len(self.r_degrees)


def _sums_and_mults(degrees, adjacency):
    """(sum, product) of the neighbour degrees of each neighbour tuple in
    adjacency, in order; (0, 1) for an empty one."""
    for neighbors in adjacency:
        d = [degrees[u] for u in neighbors]
        yield sum(d), math.prod(d)


def _sum_and_mult(g, v):
    """(sum, product) of the degrees of v's neighbours."""
    return next(_sums_and_mults(g.degrees, [g.neighbors(v)]))


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
    order, computed now; see RDegreeTable."""
    return RDegreeTable(g, tuple(s + p for s, p in
                                 _sums_and_mults(g.degrees, g.adjacency)))
