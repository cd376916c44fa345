"""Independent naive reference implementations for cross-checking.

Deliberately written against the raw adjacency structure with no shared
degree table and no reuse of the package's index code: each quantity is
recomputed from scratch at every use site. Each real term is built from
division and math.sqrt only, which IEEE 754 rounds correctly (x ** -0.5
would go through the C library's pow), and each real sum is a math.fsum,
so every platform gives the same bits.
"""

import math


def naive_r_value(g, v):
    s = 0
    p = 1
    for u in g.neighbors(v):
        s += len(g.neighbors(u))
        p *= len(g.neighbors(u))
    return p + s


def naive_r1(g):
    return sum(naive_r_value(g, v) ** 2 for v in range(g.n))


def naive_r2(g):
    total = 0
    for u, v in g.edges():
        total += naive_r_value(g, u) * naive_r_value(g, v)
    return total


def naive_r3(g):
    total = 0
    for u, v in g.edges():
        total += naive_r_value(g, u) + naive_r_value(g, v)
    return total


def naive_abc(g):
    terms = []
    for u, v in g.edges():
        du = len(g.neighbors(u))
        dv = len(g.neighbors(v))
        terms.append(math.sqrt((du + dv - 2) / (du * dv)))
    return math.fsum(terms)


def naive_ga(g):
    terms = []
    for u, v in g.edges():
        du = len(g.neighbors(u))
        dv = len(g.neighbors(v))
        terms.append(2 * math.sqrt(du * dv) / (du + dv))
    return math.fsum(terms)


def naive_h(g):
    terms = []
    for u, v in g.edges():
        terms.append(2 / (len(g.neighbors(u)) + len(g.neighbors(v))))
    return math.fsum(terms)


def naive_chi(g):
    terms = []
    for u, v in g.edges():
        s = len(g.neighbors(u)) + len(g.neighbors(v))
        terms.append(1 / math.sqrt(s))
    return math.fsum(terms)


def naive_randic(g):
    terms = []
    for u, v in g.edges():
        p = len(g.neighbors(u)) * len(g.neighbors(v))
        terms.append(1 / math.sqrt(p))
    return math.fsum(terms)


def naive_zagreb1(g):
    # Each edge adds deg(u) + deg(v), so deg(v) is counted deg(v) times.
    total = 0
    for u, v in g.edges():
        total += len(g.neighbors(u)) + len(g.neighbors(v))
    return total


def naive_zagreb2(g):
    total = 0
    for u, v in g.edges():
        total += len(g.neighbors(u)) * len(g.neighbors(v))
    return total
