"""Sum, multiplication and R degrees of vertices.

All three quantities are exact Python integers. The multiplication degree
of a vertex in K_n is (n-1)^(n-1), which passes 2^64 already at n = 17,
so nothing here may ever be narrowed to a machine word.
"""

import math


class RDegreeTable:
    """Per-vertex sum degree, multiplication degree and R degree, three
    tuples in vertex order; its length is the number of vertices."""

    __slots__ = ("sum_degrees", "mult_degrees", "r_degrees")

    def __init__(self, sum_degrees, mult_degrees, r_degrees):
        self.sum_degrees = sum_degrees
        self.mult_degrees = mult_degrees
        self.r_degrees = r_degrees

    def __len__(self):
        return len(self.r_degrees)


def sum_degree(g, v):
    """Sum of the degrees of v's neighbors (0 for an isolated vertex)."""
    return sum(g.degrees[u] for u in g.neighbors(v))


def mult_degree(g, v):
    """Product of the degrees of v's neighbors (empty product is 1)."""
    return math.prod(g.degrees[u] for u in g.neighbors(v))


def r_degree(g, v):
    """R degree of v: multiplication degree plus sum degree."""
    return mult_degree(g, v) + sum_degree(g, v)


def r_degree_table(g):
    """All three degree quantities for every vertex, in id order."""
    degs = g.degrees
    sums = []
    mults = []
    for neighbors in g.adjacency:
        d = [degs[u] for u in neighbors]
        sums.append(sum(d))
        mults.append(math.prod(d))
    return RDegreeTable(
        sum_degrees=tuple(sums),
        mult_degrees=tuple(mults),
        r_degrees=tuple(p + s for s, p in zip(sums, mults)),
    )
