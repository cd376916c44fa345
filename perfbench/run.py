"""Benchmark of the rindices command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 40 --trace 0
    python3 perfbench/selftest.py            # the benchmark's own tests

Workloads (see BENCHMARK.json for why each exists): batch, compute,
verify. Inputs are generated from --seed by perfbench/gen.py and every
output is checked against perfbench/reference.py, which does not use the
package.

--trace 0 is a closed loop with one client: it runs the workload's CLI
commands as child processes (`python -m rindices.cli ...`), one at a time,
again and again for --seconds, and prints the end-to-end metrics as medians
over those iterations. GC stays at the interpreter default.

--trace 1 runs the same commands in this process, alternately without and
with spans around the package's public functions (perfbench/spans.py), and
prints the per-layer metrics. Spans of the last traced pass are written to
.perfbench-out/spans-<workload>.jsonl.gz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import contextlib
import csv
import gc
import gzip
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gen
import reference as ref
from spans import Tracer, off_cpu_s, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

VERIFY_ORDERS = range(3, 121)
SETUP_PROBES = 5
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 60
SETUP_CODE = "import rindices.cli as c; c.build_parser()"


@dataclass
class Command:
    """One CLI invocation and the check of its output."""

    label: str
    args: list          # arguments after `rindices`
    out: Path | None    # file the command writes; None means stdout
    jobs: int           # threads the command uses
    ops: int            # operations checked per invocation
    check: object       # (label, text, exit code) -> list of failures


@dataclass
class Workload:
    name: str
    commands: list
    graphs: int         # graphs indexed by the jobs-1 commands together


def batch_workload(seed, work):
    text, expected = gen.corpus(seed)
    path = work / "corpus.g6"
    path.write_text(text, encoding="utf-8")
    want = ref.batch_expectations(expected)

    def check(label, csv_text, code):
        return ref.check_batch(label, csv_text, code, want)

    commands = [
        Command(f"batch-j{jobs}", ["batch", str(path), "--out",
                                   str(work / f"batch{jobs}.csv"),
                                   "--jobs", str(jobs)],
                work / f"batch{jobs}.csv", jobs, len(want), check)
        for jobs in (1, 2)
    ]
    return Workload("batch", commands, len(want))


def _compute_command(label, path, want):
    def check(label, stdout, code):
        return ref.check_compute(label, stdout, code, want)
    return Command(label, ["compute", str(path)], None, 1, 1, check)


def compute_workload(seed, work):
    """`compute` on the dense graphs (bigint-bound) and on the sparse one
    (graph-bound); the traced run keeps them apart by command label."""
    commands = []
    for name, text, n, edges in gen.dense_inputs(seed):
        path = work / f"{name}.el"
        path.write_text(text, encoding="utf-8")
        want = ref.complete_indices(n) if edges is None else ref.indices(n, edges)
        commands.append(_compute_command(name, path, want))
    text, n, edges = gen.sparse_input(seed)
    path = work / "sparse.el"
    path.write_text(text, encoding="utf-8")
    commands.append(_compute_command("sparse", path, ref.indices(n, edges)))
    return Workload("compute", commands, len(commands))


def verify_workload(seed, work):
    # `verify` has no input but the order range; the seed does not change it.
    orders = VERIFY_ORDERS
    truth = ref.verify_truth(orders)
    out = work / "verify.csv"
    ops = sum(len(names) for names in ref.VERIFY_ROWS.values()) * len(orders)

    def check(label, csv_text, code):
        return ref.check_verify(label, csv_text, code, orders, truth)

    command = Command("verify", ["verify", "all", "--n-range",
                                 f"{orders.start}..{orders.stop - 1}",
                                 "--out", str(out)], out, 1, ops, check)
    families = {family for family, _ in ref.VERIFY_ROWS}
    return Workload("verify", [command], len(families) * len(orders))


WORKLOADS = {"batch": batch_workload, "compute": compute_workload,
             "verify": verify_workload}


# --- timed runs: child processes -------------------------------------------

class Launcher:
    """Client of perfbench/launch.py, which spawns and reaps the children."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv, stdout_path):
        """Run argv to completion; return (wall s, exit code, max RSS MB)."""
        self._proc.stdin.write(json.dumps(
            [argv, str(stdout_path), CHILD_TIMEOUT_S]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            sys.exit("error: the launcher process died")
        return tuple(json.loads(line))

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def run_timed(launcher, workload, seconds, work, tally):
    spawn = launcher.run
    python = sys.executable
    stdout = work / "stdout.txt"
    probe = [python, "-c", SETUP_CODE]
    # The first probe also compiles the package's bytecode cache.
    _, code, _ = spawn(probe, stdout)
    if code != 0:
        sys.exit(f"error: the package does not import (exit code {code})")
    # More probes follow one per iteration, so that set-up time is sampled
    # over the whole run rather than in its first second.
    setup = [spawn(probe, stdout)[0] for _ in range(SETUP_PROBES)]

    iterations = []
    rss = 0.0
    start = time.perf_counter()
    while True:
        setup.append(spawn(probe, stdout)[0])
        walls = []
        for cmd in workload.commands:
            output = cmd.out or stdout
            output.unlink(missing_ok=True)
            wall, code, peak = spawn([python, "-m", "rindices.cli", *cmd.args],
                                     stdout)
            walls.append(wall)
            rss = max(rss, peak)
            text = output.read_text(encoding="utf-8") if output.exists() else ""
            tally.add(cmd.ops, cmd.check(cmd.label, text, code))
        iterations.append(walls)
        if _done(start, len(iterations), seconds):
            break

    def wall_of(jobs, walls):
        picked = [w for c, w in zip(workload.commands, walls) if c.jobs == jobs]
        return sum(picked) if picked else None

    j1 = [wall_of(1, walls) for walls in iterations]
    j2 = [wall_of(2, walls) or wall_of(1, walls) for walls in iterations]
    return {
        "setup_s": setup,
        "wall_s": j1,
        "graphs_per_s": [workload.graphs / w for w in j1],
        "graphs_per_s_j2": [workload.graphs / w for w in j2],
        "peak_rss_mb": [rss],
    }


def _done(start, count, seconds):
    """Stop when one more iteration of average length would overrun, after
    at least MIN_ITERATIONS; stop at twice the time in any case, so that a
    run of a much slower program still ends."""
    elapsed = time.perf_counter() - start
    return (elapsed >= 2 * seconds
            or count >= MIN_ITERATIONS and elapsed * (count + 1) / count > seconds)


# --- traced runs: in-process ------------------------------------------------

MODULES = ("graph", "degrees", "indices", "families", "cli")
# (module, function) pairs traced at every name they are bound under.
TARGETS = [
    ("graph", "parse_graph6"), ("graph", "parse_edge_list"),
    ("graph", "first_unreachable_vertex"), ("degrees", "r_degree_table"),
    ("indices", "full_report"), ("indices", "r1_index"),
    ("indices", "r2_index"), ("indices", "r3_index"),
    ("families", "verify_family"), ("cli", "_batch_row"),
]
IDENT_OF = {
    "cli._batch_row": lambda args: args[0][0],
    "families.verify_family": lambda args: getattr(args[0], "value", args[0]),
}
LAYER_NOTE = ("cli.main.self_s is the residual of the cli layer: reading, "
              "argparse, formatting and writing. Calls through references "
              "bound at import time are not wrapped and count as their "
              "caller's self time.")


def load_package():
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"rindices.{name}")
            for name in MODULES}


def install(tracer, mods):
    """Wrap every target; return the names that could not be found."""
    import rindices
    namespaces = [vars(rindices)] + [vars(m) for m in mods.values()]
    missing = []
    for module, attr in TARGETS:
        fn = getattr(mods[module], attr, None)
        name = f"{module}.{attr}"
        if fn is None:
            missing.append(name)
            continue
        tracer.wrap(namespaces, fn, name, IDENT_OF.get(name),
                    keep_result=(name == "degrees.r_degree_table"))
    tracer.wrap_method(mods["graph"].Graph, "__init__", "graph.Graph")
    return missing


def run_inprocess(main, cmd, tracer=None):
    """Run one command through cli.main; return (exit code, output text)."""
    if cmd.out:
        cmd.out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = main(cmd.args)
            else:
                code = tracer.call("cli.main", main, (cmd.args,), {},
                                   ident=cmd.label)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    if code != 0:
        print(f"{cmd.label}: {err.getvalue()[-500:]}", file=sys.stderr)
    if cmd.out is None:
        text = out.getvalue()
    else:
        text = cmd.out.read_text(encoding="utf-8") if cmd.out.exists() else ""
    return code, text


def run_pass(main, commands, tally, tracer=None):
    """Run commands once; return (wall seconds, outputs by label)."""
    outputs = {}
    start = time.perf_counter()
    for cmd in commands:
        outputs[cmd.label] = run_inprocess(main, cmd, tracer)
    wall = time.perf_counter() - start
    for cmd in commands:
        code, text = outputs[cmd.label]
        tally.add(cmd.ops, cmd.check(cmd.label, text, code))
    return wall, {label: text for label, (_, text) in outputs.items()}


def _gc_collections():
    return sum(s["collections"] for s in gc.get_stats())


def _has_ancestor(spans, i, name):
    i = spans[i].parent
    while i is not None:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def layer_metrics(workload, tracer, outputs, untraced_s, traced_s, gc_count):
    spans = tracer.spans
    totals = summarize(spans)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    layer = dict.fromkeys(MODULES, 0.0)
    for name, (_, secs) in totals.items():
        layer[name.split(".")[0]] += secs
    busy = sum(layer.values()) or 1.0

    tables = tracer.results.get("degrees.r_degree_table", [])
    bits = [x.bit_length() for t in tables for x in getattr(t, "r_degrees", t)]

    statuses = {"Ok": 0, "ParseError": 0, "Disconnected": 0}
    verify_rows = 0
    orders = set()
    for cmd in workload.commands:
        rows = list(csv.reader(io.StringIO(outputs.get(cmd.label, ""))))[1:]
        if cmd.args[0] == "batch":
            for row in rows:
                status = row[-1].split("(", 1)[0]
                if status in statuses:
                    statuses[status] += 1
        elif cmd.args[0] == "verify":
            verify_rows += len(rows)
            orders |= {(row[0], row[2]) for row in rows}
    builds = sum(1 for i, s in enumerate(spans) if s.name == "graph.Graph"
                 and _has_ancestor(spans, i, "families.verify_family"))

    metrics = {
        "graph.parse_graph6.calls": calls("graph.parse_graph6"),
        "graph.parse_graph6.self_s": self_s("graph.parse_graph6"),
        "graph.parse_edge_list.self_s": self_s("graph.parse_edge_list"),
        "graph.Graph.calls": calls("graph.Graph"),
        "graph.Graph.self_s": self_s("graph.Graph"),
        "graph.first_unreachable_vertex.self_s":
            self_s("graph.first_unreachable_vertex"),
        "degrees.r_degree_table.calls": calls("degrees.r_degree_table"),
        "degrees.r_degree_table.self_s": self_s("degrees.r_degree_table"),
        "degrees.r_bits_max": max(bits, default=0),
        "degrees.r_bytes": sum((b + 7) // 8 for b in bits),
        "indices.full_report.self_s": self_s("indices.full_report"),
    }
    for index in ("r1", "r2", "r3"):
        metrics[f"indices.{index}_index.calls"] = calls(f"indices.{index}_index")
        metrics[f"indices.{index}_index.self_s"] = self_s(f"indices.{index}_index")
    metrics.update({
        "families.verify_family.self_s": self_s("families.verify_family"),
        "families.rows": verify_rows,
        "families.builds_per_order": builds / len(orders) if orders else 0,
        "cli.main.self_s": layer["cli"],
        "cli.rows_ok": statuses["Ok"],
        "cli.rows_parse_error": statuses["ParseError"],
        "cli.rows_disconnected": statuses["Disconnected"],
        "cli.out_bytes": sum(len(t.encode()) for t in outputs.values()),
        "process.gc_collections": gc_count,
        "trace.overhead_frac": traced_s / untraced_s - 1,
    })
    for module in MODULES:
        metrics[f"{module}.share"] = layer[module] / busy
    return metrics


def _untraced_pass(main, commands, tally):
    """Wall seconds and GC collections of one pass without spans."""
    gc0 = _gc_collections()
    wall, _ = run_pass(main, commands, tally)
    return wall, _gc_collections() - gc0


def run_traced(workload, seconds, tally):
    mods = load_package()
    main = mods["cli"].main
    j1 = [c for c in workload.commands if c.jobs == 1]
    j2 = [c for c in workload.commands if c.jobs == 2]
    run_pass(main, j1, tally)  # warm-up: first-call costs favour neither pass
    reps = []
    start = time.perf_counter()
    while True:
        # Alternate which pass goes first, so warm-up favours neither.
        first_untraced = len(reps) % 2 == 0
        if first_untraced:
            untraced_s, gc_count = _untraced_pass(main, j1, tally)
        tracer = Tracer()
        missing = install(tracer, mods)
        try:
            traced_s, outputs = run_pass(main, j1, tally, tracer)
        finally:
            tracer.restore()
        if not first_untraced:
            untraced_s, gc_count = _untraced_pass(main, j1, tally)
        metrics = layer_metrics(workload, tracer, outputs, untraced_s,
                                traced_s, gc_count)
        pool = Tracer()
        install(pool, mods)
        try:
            run_pass(main, j2, tally, pool)
        finally:
            pool.restore()
        metrics["cli.pool.gil_wait_s"] = off_cpu_s(pool.spans,
                                                   threading.main_thread().ident)
        reps.append(metrics)
        if _done(start, len(reps), seconds):
            break
    dump_spans(workload.name, {"jobs1": tracer.spans, "jobs2": pool.spans})
    if missing:
        print(f"not found, counted in the caller: {', '.join(missing)}")
    print(LAYER_NOTE)
    return {name: [r[name] for r in reps] for name in reps[0]}


def dump_spans(workload, passes):
    """Write the spans of the last traced passes, one JSON object a line;
    `id` and `parent` index the spans of the same pass."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.jsonl.gz"
    count = 0
    with gzip.open(path, "wt", encoding="utf-8") as f:
        for label, spans in passes.items():
            for i, (s, own) in enumerate(zip(spans, self_times(spans))):
                f.write(json.dumps({"pass": label, "id": i, **s._asdict(),
                                    "self": own}) + "\n")
            count += len(spans)
    print(f"spans: {path.relative_to(ROOT)} ({count} spans)")


# --- entry point ------------------------------------------------------------

def report(samples, section):
    """Print and return the median of each metric's samples, with the unit
    BENCHMARK.json declares for it in `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(samples) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(samples) ^ set(units))}")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        median = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        print(f"{name} = {median:.6g} {unit} (median of {len(values)}; "
              f"q1 {q[0]:.6g}, q3 {q[2]:.6g})")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rindices" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'rindices'} not found; run from a checkout "
                 "of the repository")

    conditions = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "gc": {"enabled": gc.isenabled(), "threshold": gc.get_threshold()},
        "loadavg_before": loadavg(),
    }
    tally = ref.Tally()
    OUT_DIR.mkdir(exist_ok=True)
    # Started before any input exists, so that it stays small.
    launcher = None if args.trace else Launcher()
    try:
        with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
            workload = WORKLOADS[args.workload](args.seed, Path(tmp))
            if args.trace:
                samples = run_traced(workload, args.seconds, tally)
            else:
                samples = run_timed(launcher, workload, args.seconds,
                                    Path(tmp), tally)
    finally:
        if launcher:
            launcher.close()
    metrics = report(samples, "per_layer" if args.trace else "end_to_end")
    conditions["loadavg_after"] = loadavg()
    print("conditions " + json.dumps(conditions))
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"fail_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
