"""Tests of the benchmark itself: generators, checkers and span arithmetic.

Run from the repository root: python3 perfbench/selftest.py
They do not import the package under test.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import reference as ref  # noqa: E402
from spans import Span, Tracer, off_cpu_s, self_times, summarize  # noqa: E402


def _fmt(name, value):
    return str(value) if name in ("r1", "r2", "r3") else f"{value:.9g}"


def render_compute(want):
    """stdout of `rindices compute` as the seed commit prints it."""
    lines = [f"n={want['n']} m={want['m']}"]
    lines += [f"{name}={_fmt(name, want[name])}" for name in ref.INDEX_NAMES]
    return "\n".join(lines) + "\n"


def render_batch(expectations):
    """CSV of `rindices batch` as the seed commit prints it."""
    lines = ["name,n,m," + ",".join(ref.INDEX_NAMES) + ",status"]
    blanks = "," * len(ref.INDEX_NAMES)
    for i, (kind, n, m, want) in enumerate(expectations, start=1):
        if kind == "parse_error":
            lines.append(f"line{i},,{blanks},ParseError(bad)")
        elif kind == "disconnected":
            lines.append(f"line{i},{n},{m}{blanks},Disconnected")
        else:
            values = ",".join(_fmt(k, want[k]) for k in ref.INDEX_NAMES)
            lines.append(f"line{i},{n},{m},{values},Ok")
    return "\n".join(lines) + "\n"


def render_verify(orders, truth):
    """CSV of `rindices verify all`: paper claims that are wrong are
    written as the true value plus one."""
    lines = ["family,index,n,source,claimed,computed,verdict"]
    for (family, source), names in ref.VERIFY_ROWS.items():
        for n in orders:
            for idx in names:
                value = truth[family, n][int(idx[1]) - 1]
                wrong = idx in ref.VERIFY_MISMATCH.get((family, source), ())
                claimed = value + 1 if wrong else value
                verdict = "Mismatch" if wrong else "Match"
                lines.append(f"{family},{idx},{n},{source},{claimed},"
                             f"{value},{verdict}")
    return "\n".join(lines) + "\n"


def _corrupt_r2(csv_text, row):
    lines = csv_text.splitlines()
    fields = lines[row].split(",")
    fields[4] = str(int(fields[4]) + 1)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


class Generators(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        self.assertEqual(gen.corpus(5, 400), gen.corpus(5, 400))
        self.assertEqual(gen.dense_inputs(5), gen.dense_inputs(5))
        self.assertEqual(gen.sparse_input(5)[0], gen.sparse_input(5)[0])

    def test_other_seed_gives_other_bytes(self):
        self.assertNotEqual(gen.corpus(5, 400)[0], gen.corpus(6, 400)[0])
        for a, b in zip(gen.dense_inputs(5), gen.dense_inputs(6)):
            self.assertNotEqual(a[1], b[1])
        self.assertNotEqual(gen.sparse_input(5)[0], gen.sparse_input(6)[0])

    def test_corpus_holds_every_kind_of_line(self):
        text, expected = gen.corpus(5, 2000)
        lines = text.splitlines()
        self.assertEqual(len(lines), 2000)
        kinds = [kind for kind, _, _ in expected]
        for kind in ("ok", "parse_error", "disconnected"):
            self.assertIn(kind, kinds)
        for line, (kind, n, edges) in zip(lines, expected):
            if kind != "parse_error":
                self.assertEqual(line, gen.graph6(n, edges))

    def test_graph6_matches_the_format_spec_example(self):
        # formats.txt: n = 5 with edges 0-2, 0-4, 1-3, 3-4 is "DQc".
        self.assertEqual(gen.graph6(5, [(0, 2), (0, 4), (1, 3), (3, 4)]),
                         "DQc")

    def test_sparse_graph_is_connected_with_exact_size(self):
        import random
        edges = gen.sparse_connected(random.Random(1), 500, 1000)
        self.assertEqual(len(edges), len(set(edges)))
        self.assertEqual(len(edges), 1000)
        adj = {v: [] for v in range(500)}
        for u, v in edges:
            self.assertLess(u, v)
            adj[u].append(v)
            adj[v].append(u)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        self.assertEqual(len(seen), 500)


class Checkers(unittest.TestCase):
    def test_complete_closed_forms_agree_with_direct_sums(self):
        for n in (3, 5, 9):
            direct = ref.indices(n, gen.complete_edges(n))
            closed = ref.complete_indices(n)
            for name in ref.INDEX_NAMES:
                self.assertTrue(ref.value_ok(name, repr(closed[name]),
                                             direct[name]), (n, name))

    def test_compute_flags_corrupted_r2_and_wrong_exit_code(self):
        want = ref.complete_indices(12)
        good = render_compute(want)
        self.assertEqual(ref.check_compute("k", good, 0, want), [])
        bad = good.replace(f"r2={want['r2']}", f"r2={want['r2'] + 1}")
        self.assertEqual(len(ref.check_compute("k", bad, 0, want)), 1)
        self.assertEqual(len(ref.check_compute("k", good, 3, want)), 1)

    def test_batch_flags_one_corrupted_r2_and_wrong_exit_code(self):
        _, expected = gen.corpus(7, 300)
        want = ref.batch_expectations(expected)
        good = render_batch(want)
        self.assertEqual(ref.check_batch("b", good, 0, want), [])
        row = next(i for i, w in enumerate(want, start=1) if w[0] == "ok")
        failures = ref.check_batch("b", _corrupt_r2(good, row), 0, want)
        self.assertEqual(len(failures), 1)
        self.assertIn(f"row {row} ", failures[0])
        self.assertEqual(len(ref.check_batch("b", good, 1, want)), len(want))

    def test_batch_flags_a_wrong_status(self):
        _, expected = gen.corpus(7, 300)
        want = ref.batch_expectations(expected)
        row = next(i for i, w in enumerate(want, start=1)
                   if w[0] == "disconnected")
        lines = render_batch(want).splitlines()
        lines[row] = lines[row].replace("Disconnected", "Ok")
        failures = ref.check_batch("b", "\n".join(lines), 0, want)
        self.assertEqual(len(failures), 1)

    def test_accepts_exact_zagreb_and_last_digit_changes(self):
        want = ref.indices(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                               (0, 3)])
        text = render_compute(want)
        text = text.replace(f"zagreb2={want['zagreb2']:.9g}",
                            f"zagreb2={want['zagreb2']}")
        text = text.replace(f"abc={want['abc']:.9g}",
                            f"abc={want['abc'] * (1 + 2e-9):.9g}")
        self.assertEqual(ref.check_compute("g", text, 0, want), [])

    def test_verify_flags_corrupted_value_and_wrong_exit_code(self):
        orders = range(3, 9)
        truth = ref.verify_truth(orders)
        good = render_verify(orders, truth)
        self.assertEqual(ref.check_verify("v", good, 0, orders, truth), [])
        lines = good.splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.startswith("cycle,r2,5,"))
        f = lines[i].split(",")
        f[5] = str(int(f[5]) + 1)
        lines[i] = ",".join(f)
        self.assertEqual(len(ref.check_verify("v", "\n".join(lines), 0,
                                              orders, truth)), 1)
        # A corrected form that no longer matches is a failure too.
        j = next(i for i, line in enumerate(lines)
                 if line.startswith("path,r1,7,corrected,"))
        f = lines[j].split(",")
        f[4], f[6] = "1", "Mismatch"
        lines[j] = ",".join(f)
        self.assertEqual(len(ref.check_verify("v", "\n".join(lines), 0,
                                              orders, truth)), 2)
        expected_rows = 19 * len(orders)
        self.assertEqual(len(ref.check_verify("v", good, 1, orders, truth)),
                         expected_rows)


def _span(name, start, end, parent, cpu=0.0, thread=1):
    return Span(name, start, end, cpu, parent, None, thread)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            _span("cli.main", 0.0, 10.0, None),
            _span("indices.full_report", 1.0, 4.0, 0),
            _span("degrees.r_degree_table", 2.0, 3.0, 1),
            _span("indices.full_report", 5.0, 9.0, 0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(summarize(spans), {
            "cli.main": (1, 3.0), "indices.full_report": (2, 6.0),
            "degrees.r_degree_table": (1, 1.0)})

    def test_overlapping_children_are_not_counted_twice(self):
        spans = [_span("a", 0.0, 10.0, None), _span("b", 1.0, 5.0, 0),
                 _span("b", 3.0, 7.0, 0), _span("b", 4.0, 6.0, 0)]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_off_cpu_counts_top_level_worker_spans_only(self):
        spans = [_span("main", 0.0, 9.0, None, cpu=1.0, thread=1),
                 _span("row", 1.0, 3.0, None, cpu=1.5, thread=2),
                 _span("inner", 1.0, 2.0, 1, cpu=0.2, thread=2),
                 _span("row", 2.0, 5.0, None, cpu=2.0, thread=3)]
        self.assertAlmostEqual(off_cpu_s(spans, main_thread=1), 1.5)

    def test_tracer_wraps_every_binding_and_restores(self):
        def leaf(x):
            return x + 1

        def outer(x):
            return ns["leaf"](x) * 2

        table = {"k": leaf}
        ns = {"leaf": leaf, "outer": outer, "table": table}
        tracer = Tracer()
        self.assertEqual(tracer.wrap([ns], leaf, "m.leaf"), 2)
        tracer.wrap([ns], outer, "m.outer", ident_of=lambda args: args[0])
        self.assertEqual(ns["outer"](3), 8)
        self.assertEqual(table["k"](1), 2)
        tracer.restore()
        self.assertIs(ns["leaf"], leaf)
        self.assertIs(table["k"], leaf)
        names = [(s.name, s.parent, s.ident) for s in tracer.spans]
        self.assertEqual(names, [("m.outer", None, 3), ("m.leaf", 0, 3),
                                 ("m.leaf", None, None)])


if __name__ == "__main__":
    unittest.main()
