"""Command-line front end.

Subcommands: compute, rdegrees, generate, verify, batch. The commands
raise, and main is the only place that maps errors to exit codes: parse
failures, files that cannot be opened and a batch worker process that
dies exit with code 2, disconnected inputs with code 3, each with an
'error:' line on stderr; a stdout whose reader has gone away ends the
run quietly with code 141. argparse checks option values before any
input is read. Input is read as UTF-8 after an optional byte-order mark;
bytes that are not UTF-8 are replaced, so they fail to parse. Batch mode
streams the corpus in chunks of BATCH_CHUNK lines and writes one CSV row
per input line, with failures isolated per line. The chunks are indexed
in this process with --jobs 1, else in a pool of up to --jobs worker
processes, capped at the CPU count; they are written in input order, so
the CSV is the same bytes for every --jobs value.

compute, rdegrees and generate each build one whole graph, and run with
the cyclic garbage collector paused. Its passes over the graph's many
tuples would find nothing to free: a graph, its degree table and its
report are built up from ints and floats, and none of their objects
refers back to one that holds it, so they form no reference cycle and
reference counting frees them all (the tests check that the cyclic
garbage these commands leave does not grow with the input). The
collector's state is restored on every exit. batch and verify keep it
running, as pausing it there gained nothing measurable.
"""

import argparse
import contextlib
import csv
import gc
import io
import os
import sys
from collections import deque
from itertools import islice

from .degrees import r_degree_table
from .errors import DisconnectedGraphError, GraphError
from .graph import (
    _G6_HEADER,
    Family,
    _edge_list_lines,
    _require_connected,
    _vertex_names,
    generate_family,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .indices import IndexReport, full_report

EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
# 128 + SIGPIPE, what a shell reports for a writer whose reader went away.
EXIT_BROKEN_PIPE = 141


INDEX_NAMES = list(IndexReport._fields[2:])

BATCH_CSV_HEADER = ["name", "n", "m"] + INDEX_NAMES + ["status"]

# Lines per batch task. On a 5,000-line corpus of small graphs, 125 to
# 1,000 lines timed alike at --jobs 2; 250 keeps the last task short.
BATCH_CHUNK = 250


def _fmt_value(value):
    """Integers exactly, reals to 9 significant digits."""
    return str(value) if isinstance(value, int) else f"{value:.9g}"


def _infer_format(path, flag):
    if flag:
        return flag
    return "graph6" if path.endswith(".g6") else "edgelist"


def _graph6_lines(f):
    """(line number, stripped line) for each graph6 line of an open text
    file, skipping blank lines and a lone '>>graph6<<' header. Lines are
    numbered as str.splitlines splits the whole text."""
    lines = (part for line in f for part in line.splitlines())
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and line != _G6_HEADER:
            yield lineno, line


def _open_out(path):
    """The file at path opened for writing without newline translation,
    or stdout if path is empty."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _load_graph(path, format_flag):
    """The one graph in the file at path. A graph6 file must hold exactly
    one graph line; a second is an error, as batch is the command that
    reads a corpus."""
    with open(path, encoding="utf-8-sig", errors="replace") as f:
        if _infer_format(path, format_flag) != "graph6":
            return parse_edge_list(f)
        lines = _graph6_lines(f)
        for _, line in lines:
            g = parse_graph6(line)
            second = next(lines, None)
            if second is not None:
                raise GraphError(f"line {second[0]}: a second graph in "
                                 f"{path}; compute and rdegrees read one "
                                 f"graph, batch reads a corpus")
            return g
    raise GraphError(f"no graph6 line found in {path}")


def _parse_n_range(text):
    """argparse type of --n-range: 'a..b' as range(a, b + 1)."""
    try:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be 'a..b', got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_indices(text):
    """argparse type of --indices: a comma-separated subset of
    INDEX_NAMES; an empty value selects every index."""
    selected = text.split(",") if text else INDEX_NAMES
    for name in selected:
        if name not in INDEX_NAMES:
            raise argparse.ArgumentTypeError(f"unknown index {name!r}")
    return selected


def _parse_jobs(text):
    """argparse type of --jobs: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive integer, got {text!r}")
    return jobs


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector disabled, then give
    it back the state it had, whatever way the block exits."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def cmd_compute(args):
    report = full_report(_load_graph(args.path, args.format))
    print(f"n={report.n} m={report.m}")
    for name in args.indices:
        print(f"{name}={_fmt_value(getattr(report, name))}")
    return 0


@_collector_paused()
def cmd_rdegrees(args):
    g = _load_graph(args.path, args.format)
    _require_connected(g)
    table = r_degree_table(g)
    print("vertex deg sum_deg mult_deg r")
    rows = zip(_vertex_names(g), g.degrees, table.sum_degrees,
               table.mult_degrees, table.r_degrees)
    for v, d, s, p, r in rows:
        print(f"{v} {d} {s} {p} {r}")
    return 0


@_collector_paused()
def cmd_generate(args):
    g = generate_family(args.family, args.n)
    lines = [write_graph6(g) + "\n"] if args.format == "graph6" \
        else _edge_list_lines(g)
    with _open_out(args.out) as out:
        out.writelines(lines)
    return 0


def cmd_verify(args):
    # Only this command uses families, and with it fractions.
    from . import families as fam
    selected = list(Family) if args.family == "all" else [args.family]
    all_rows = []
    for family in selected:
        report = fam.verify_family(family, args.n_range)
        all_rows.extend(report.rows)
    combined = fam.DiscrepancyReport(rows=tuple(all_rows))
    with _open_out(args.out) as out:
        out.write(fam.report_to_csv(combined))
    print(fam.report_summary(combined), file=sys.stderr)
    return 0 if combined.corrected_all_match() else 1


def _batch_row(item):
    """CSV row of one (line number, graph6 line) item."""
    lineno, line = item
    n = m = ""
    try:
        g = parse_graph6(line)
        n, m = str(g.n), str(g.m)
        report = full_report(g)
    except DisconnectedGraphError:
        status = "Disconnected"
    except GraphError as exc:
        status = f"ParseError({exc})"
    else:
        return [f"line{lineno}", n, m, *map(_fmt_value, report[2:]), "Ok"]
    return [f"line{lineno}", n, m] + [""] * len(INDEX_NAMES) + [status]


def _batch_chunk(items):
    """CSV text of the rows of a list of (line number, graph6 line) items."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(map(_batch_row, items))
    return text.getvalue()


def _map_ordered(fn, items, workers):
    """fn over items, as map(fn, items) with `workers` processes. One
    worker maps in this process; more run each call in a process pool,
    yield the results in input order and keep at most 2 * workers calls
    in flight, so memory stays flat however slowly the results are
    consumed. A worker that dies raises ChildProcessError rather than
    leaving the run waiting."""
    if workers == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
    except BrokenExecutor:
        raise ChildProcessError("a batch worker process died before "
                                "returning its rows") from None


def cmd_batch(args):
    workers = min(args.jobs, os.cpu_count() or 1)
    with open(args.path, encoding="utf-8-sig", errors="replace") as f:
        # Opening --out truncates it before a line of the input is read.
        if args.out and os.path.exists(args.out) \
                and os.path.samefile(args.path, args.out):
            raise OSError(f"--out {args.out} is the input file")
        items = _graph6_lines(f)
        chunks = iter(lambda: list(islice(items, BATCH_CHUNK)), [])
        with _open_out(args.out) as out:
            csv.writer(out, lineterminator="\n").writerow(BATCH_CSV_HEADER)
            out.writelines(_map_ordered(_batch_chunk, chunks, workers))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rindices",
        description="R degrees, R indices and classical degree-based "
                    "topological indices of simple connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute indices of one graph")
    p.add_argument("path")
    p.add_argument("--format", choices=["edgelist", "graph6"])
    p.add_argument("--indices", type=_parse_indices, default=INDEX_NAMES,
                   help="comma-separated subset of " + ",".join(INDEX_NAMES))
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("rdegrees", help="dump per-vertex R degree table")
    p.add_argument("path")
    p.add_argument("--format", choices=["edgelist", "graph6"])
    p.set_defaults(func=cmd_rdegrees)

    p = sub.add_parser("generate", help="write a named family graph")
    p.add_argument("family", choices=[f.value for f in Family])
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["edgelist", "graph6"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check closed forms against "
                                      "direct computation")
    p.add_argument("family", choices=[f.value for f in Family] + ["all"])
    p.add_argument("--n-range", type=_parse_n_range, default="3..30")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="index a graph6 corpus to CSV")
    p.add_argument("path")
    p.add_argument("--out")
    p.add_argument("--jobs", type=_parse_jobs, default=1,
                   help="worker processes, at most the CPU count; the "
                        "output is the same for every value")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. Point stdout at
        # devnull so the flush at interpreter exit cannot fail again, and
        # stop quietly (the Python docs' "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (GraphError, OSError) as exc:
        # Bad input, a file that cannot be opened, read or written, an
        # --out that is the input, or a lost batch worker (an OSError).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
