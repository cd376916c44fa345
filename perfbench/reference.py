"""Expected outputs, computed without the package under test, and the
checkers that compare the CLI's output with them.

The checks accept any output that is right, not only the bytes the
current code prints: integers are compared as integers, and real values
within the 9 significant digits the CLI prints, so exact-integer Zagreb
columns or correctly rounded sums (math.fsum) still pass.
"""

import csv
import io
import math
from fractions import Fraction

# Column order of `rindices batch` and the names `rindices compute` prints.
INDEX_NAMES = ("r1", "r2", "r3", "abc", "ga", "h", "chi",
               "zagreb1", "zagreb2", "randic")
_EXACT = ("r1", "r2", "r3")
_INTEGRAL = ("zagreb1", "zagreb2")
# The CLI prints reals with 9 significant digits; 1e-8 leaves room for the
# rounding of the print and of an order-dependent float sum.
REL_TOL = 1e-8
MAX_PROBLEMS = 5


def r_degrees(n, edges):
    """Degree list and R degree list of a graph given by its edge list."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    r = []
    for a in adj:
        p = 1
        for w in a:
            p *= deg[w]
        r.append(p + sum(deg[w] for w in a))
    return deg, r, adj


def r_indices(n, edges):
    """(R1, R2, R3). R2 and R3 are taken per vertex, a different route
    from the per-edge sums the package uses:
    R2 = 1/2 sum_u r(u) sum_{w in N(u)} r(w) and R3 = sum_v deg(v) r(v)."""
    deg, r, adj = r_degrees(n, edges)
    r1 = sum(x * x for x in r)
    r2 = sum(r[u] * sum(r[w] for w in adj[u]) for u in range(n)) // 2
    r3 = sum(d * x for d, x in zip(deg, r))
    return r1, r2, r3


def indices(n, edges):
    """All ten indices of a connected graph; reals summed with math.fsum."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    pairs = [(deg[u], deg[v]) for u, v in edges]
    r1, r2, r3 = r_indices(n, edges)
    return {
        "n": n, "m": len(edges), "r1": r1, "r2": r2, "r3": r3,
        "abc": math.fsum(math.sqrt((a + b - 2) / (a * b)) for a, b in pairs),
        "ga": math.fsum(2 * math.sqrt(a * b) / (a + b) for a, b in pairs),
        "h": math.fsum(2 / (a + b) for a, b in pairs),
        "chi": math.fsum((a + b) ** -0.5 for a, b in pairs),
        "zagreb1": sum(d * d for d in deg),
        "zagreb2": sum(a * b for a, b in pairs),
        "randic": math.fsum((a * b) ** -0.5 for a, b in pairs),
    }


def complete_indices(n):
    """Closed forms for K_n: every degree is d = n-1 and
    r = (n-1)^(n-1) + (n-1)^2, so R1 = n r^2, R2 = C(n,2) r^2, R3 = n(n-1) r."""
    d = n - 1
    m = n * d // 2
    r = d ** d + d * d
    return {
        "n": n, "m": m, "r1": n * r * r, "r2": m * r * r, "r3": n * d * r,
        "abc": m * math.sqrt((2 * d - 2) / (d * d)), "ga": float(m),
        "h": m / d, "chi": m / math.sqrt(2 * d),
        "zagreb1": n * d * d, "zagreb2": m * d * d, "randic": m / d,
    }


def _close(got, want):
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + 1e-12


def value_ok(name, text, want):
    """True iff the printed value of index `name` equals `want`."""
    try:
        if name in _EXACT:
            return int(text) == want
        if name in _INTEGRAL:
            try:
                return int(text) == want
            except ValueError:
                pass
        return _close(float(text), want)
    except ValueError:
        return False


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failures):
        """Record `attempted` operations, `failures` a list of messages."""
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        room = MAX_PROBLEMS - len(self.problems)
        self.problems.extend(failures[:max(room, 0)])


def check_compute(label, stdout, exit_code, want):
    """Failure messages (at most one) for a `compute` of one graph."""
    if exit_code != 0:
        return [f"{label}: exit code {exit_code}, expected 0"]
    got = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
    wrong = [name for name in ("n", "m") if got.get(name) != str(want[name])]
    wrong += [name for name in INDEX_NAMES
              if name not in got or not value_ok(name, got[name], want[name])]
    return [f"{label}: wrong {', '.join(wrong)}"] if wrong else []


def batch_expectations(expected):
    """Per corpus line: (kind, n, m, reference indices or None)."""
    out = []
    for kind, n, edges in expected:
        if kind == "parse_error":
            out.append((kind, None, None, None))
        elif kind == "disconnected":
            out.append((kind, n, len(edges), None))
        else:
            out.append((kind, n, len(edges), indices(n, edges)))
    return out


def check_batch(label, csv_text, exit_code, expectations):
    """Failure messages, one per wrong or missing row, for a `batch` run
    over a corpus with no blank lines (row i is named line{i+1})."""
    if exit_code != 0:
        return [f"{label}: exit code {exit_code}, expected 0"] * len(expectations)
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = ["name", "n", "m", *INDEX_NAMES, "status"]
    if not rows or rows[0] != header:
        return [f"{label}: bad header"] * len(expectations)
    rows = rows[1:]
    failures = []
    if len(rows) != len(expectations):
        failures.append(f"{label}: {len(rows)} rows for "
                        f"{len(expectations)} lines")
    for i, (kind, n, m, want) in enumerate(expectations):
        row = rows[i] if i < len(rows) else None
        if row is None or len(row) != len(header) or row[0] != f"line{i + 1}":
            failures.append(f"{label}: row {i + 1} missing or malformed")
            continue
        status, values = row[-1], row[3:-1]
        if kind == "parse_error":
            ok = status.startswith("ParseError(") and not any(values)
        elif kind == "disconnected":
            ok = (status == "Disconnected" and row[1:3] == [str(n), str(m)]
                  and not any(values))
        else:
            ok = (status == "Ok" and row[1:3] == [str(n), str(m)]
                  and all(value_ok(name, text, want[name])
                          for name, text in zip(INDEX_NAMES, values)))
        if not ok:
            failures.append(f"{label}: row {i + 1} ({kind}) wrong: "
                            f"{','.join(row)[:120]}")
    return failures[:len(expectations)]


# `verify all` rows per order n, by (family, source), and which of those
# rows are expected to be Mismatch: the paper's path statement and proof
# are wrong for every index, and its star R1 statement counts only the
# centre. Every corrected row must Match.
VERIFY_ROWS = {
    ("complete", "statement"): ("r1", "r2", "r3"),
    ("cycle", "statement"): ("r1", "r2", "r3"),
    ("path", "statement"): ("r1", "r2", "r3"),
    ("path", "proof"): ("r1", "r2", "r3"),
    ("path", "corrected"): ("r1", "r2", "r3"),
    ("star", "statement"): ("r1", "r2", "r3"),
    ("star", "corrected"): ("r1",),
}
VERIFY_MISMATCH = {("path", "statement"): {"r1", "r2", "r3"},
                   ("path", "proof"): {"r1", "r2", "r3"},
                   ("star", "statement"): {"r1"}}


def family_edges(family, n):
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if family == "star":
        return [(0, i) for i in range(1, n)]
    raise ValueError(family)


def verify_truth(orders):
    """{(family, n): (R1, R2, R3)} for the four families."""
    truth = {}
    for n in orders:
        c = complete_indices(n)
        truth["complete", n] = (c["r1"], c["r2"], c["r3"])
        for family in ("path", "cycle", "star"):
            truth[family, n] = r_indices(n, family_edges(family, n))
    return truth


def check_verify(label, csv_text, exit_code, orders, truth):
    """Failure messages, one per wrong or missing row, for `verify all`."""
    expected = {(f, idx, n, s) for n in orders
                for (f, s), names in VERIFY_ROWS.items() for idx in names}
    if exit_code != 0:
        return [f"{label}: exit code {exit_code}, expected 0"] * len(expected)
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = ["family", "index", "n", "source", "claimed", "computed",
              "verdict"]
    if not rows or rows[0] != header:
        return [f"{label}: bad header"] * len(expected)
    failures = []
    seen = set()
    position = {"r1": 0, "r2": 1, "r3": 2}
    for row in rows[1:]:
        try:
            family, idx, n, source, claimed, computed, verdict = row
            key = (family, idx, int(n), source)
            want = truth[family, int(n)][position[idx]]
            match = Fraction(claimed) == want
        except (ValueError, KeyError, ZeroDivisionError):
            failures.append(f"{label}: malformed row {','.join(row)}")
            continue
        bad_verdict = verdict != ("Match" if match else "Mismatch")
        expect_mismatch = idx in VERIFY_MISMATCH.get((family, source), ())
        if (key not in expected or key in seen or computed != str(want)
                or bad_verdict or match == expect_mismatch):
            failures.append(f"{label}: wrong row {','.join(row)[:120]}")
        seen.add(key)
    failures += [f"{label}: missing row {key}" for key in expected - seen]
    return failures[:len(expected)]
