"""Deterministic inputs for the benchmark.

Every generator takes the seed as an argument and draws only from its own
``random.Random``, so one seed always gives byte-identical inputs. Nothing
here imports the package under test: the inputs, and the expected outcome
of each corpus line, must not depend on the code being measured.
"""

import random

# Sizes are chosen so that a 20 s run holds five or more iterations of
# every workload, and all runs of the benchmark fit its time budget.
CORPUS_LINES = 5_000
CORPUS_EDGE_PROBABILITY = 0.3
# Share of corpus lines that are malformed graph6 (bad byte or truncated)
# and share that decode to a disconnected graph.
CORPUS_MALFORMED = 0.01
CORPUS_DISCONNECTED = 0.01
# Bytes below the graph6 range 63..126 that survive line splitting and
# whitespace stripping.
_BAD_BYTES = "!\"$%&'()*+,-./0123456789:;<="

DENSE_ORDER = 400
DENSE_EDGE_PROBABILITY = 0.5
SPARSE_ORDER = 100_000
SPARSE_SIZE = 200_000


def _tree_edges(rng, vertices):
    """Random spanning tree on the given vertex ids, as a set of (u, v), u < v."""
    order = list(vertices)
    rng.shuffle(order)
    draw = rng.random
    edges = set()
    for i in range(1, len(order)):
        u, v = order[i], order[int(draw() * i)]
        edges.add((u, v) if u < v else (v, u))
    return edges


def random_connected(rng, vertices, p):
    """Spanning tree plus each other pair with probability p; O(n^2) pairs."""
    vertices = list(vertices)
    edges = _tree_edges(rng, vertices)
    draw = rng.random
    edges.update((u, v) if u < v else (v, u)
                 for i, u in enumerate(vertices)
                 for v in vertices[i + 1:] if draw() < p)
    return sorted(edges)


def sparse_connected(rng, n, m):
    """Connected graph with n vertices and m edges in O(m): a spanning tree
    plus uniformly random extra pairs, rejecting loops and repeats."""
    edges = _tree_edges(rng, range(n))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def complete_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph6(n, edges):
    """Short-form graph6 string (n < 63), written from the format spec."""
    if not 0 <= n < 63:
        raise ValueError(f"short-form graph6 needs n < 63, got {n}")
    groups = (n * (n - 1) // 2 + 5) // 6
    width = 6 * groups
    # Bit k of the upper triangle, column by column, is pair (u, v) with
    # u < v and k = v(v-1)/2 + u; the first bit is the most significant.
    x = 0
    for u, v in edges:
        x |= 1 << (width - 1 - (v * (v - 1) // 2 + u))
    return chr(63 + n) + "".join(
        chr(63 + ((x >> (width - 6 * (j + 1))) & 63)) for j in range(groups))


def edge_list_text(n, edges, rng):
    """Edge-list file with an order header; line order and the orientation of
    each edge are shuffled so the parser sees unsorted input."""
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}"
             for u, v in edges]
    rng.shuffle(lines)
    return f"n {n}\n" + "\n".join(lines) + "\n"


def corpus(seed, count=CORPUS_LINES):
    """graph6 corpus: line i holds a graph of order i % 30 + 2.

    Returns (text, expected) where expected[i] is (kind, n, edges) with kind
    one of "ok", "parse_error", "disconnected"; n and edges are None for a
    malformed line.
    """
    rng = random.Random(f"corpus:{seed}")
    lines = []
    expected = []
    for i in range(count):
        n = i % 30 + 2
        roll = rng.random()
        if roll < CORPUS_MALFORMED:
            text = graph6(n, random_connected(rng, range(n),
                                              CORPUS_EDGE_PROBABILITY))
            if rng.random() < 0.5:
                pos = rng.randrange(len(text))
                text = text[:pos] + rng.choice(_BAD_BYTES) + text[pos + 1:]
            else:
                text = text[:rng.randrange(1, len(text))]
            lines.append(text)
            expected.append(("parse_error", None, None))
        elif roll < CORPUS_MALFORMED + CORPUS_DISCONNECTED:
            vertices = list(range(n))
            rng.shuffle(vertices)
            cut = rng.randrange(1, n)
            edges = sorted(
                random_connected(rng, vertices[:cut], CORPUS_EDGE_PROBABILITY)
                + random_connected(rng, vertices[cut:],
                                   CORPUS_EDGE_PROBABILITY))
            lines.append(graph6(n, edges))
            expected.append(("disconnected", n, edges))
        else:
            edges = random_connected(rng, range(n), CORPUS_EDGE_PROBABILITY)
            lines.append(graph6(n, edges))
            expected.append(("ok", n, edges))
    return "\n".join(lines) + "\n", expected


def dense_inputs(seed):
    """Edge lists of K_600 and of a connected G(600, 0.5).

    Returns [(name, text, n, edges)]; edges is None for K_600, whose values
    the checker takes from closed forms.
    """
    rng = random.Random(f"dense:{seed}")
    n = DENSE_ORDER
    gnp = random_connected(rng, range(n), DENSE_EDGE_PROBABILITY)
    return [
        ("complete", edge_list_text(n, complete_edges(n), rng), n, None),
        ("gnp", edge_list_text(n, gnp, rng), n, gnp),
    ]


def sparse_input(seed):
    """Edge list of a connected uniform random graph, n = 1e5, m = 2e5."""
    rng = random.Random(f"sparse:{seed}")
    edges = sparse_connected(rng, SPARSE_ORDER, SPARSE_SIZE)
    return edge_list_text(SPARSE_ORDER, edges, rng), SPARSE_ORDER, edges
