"""End-to-end CLI behavior, including exit codes and batch determinism.

Commands run through cli.main in this process. A test starts a child
process only where the process itself is under test, and says why.
"""

import concurrent.futures
import contextlib
import gc
import io
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import pytest

from rindices import cli, families
from rindices import (
    Family,
    generate_family,
    generate_random_connected,
    parse_edge_list,
    parse_graph6,
    full_report,
    write_edge_list,
    write_graph6,
)
from rindices.graph import _CHUNK

CLI = [sys.executable, "-m", "rindices.cli"]


def run_cli(*args, **kwargs):
    """The exit code, stdout and stderr of rindices with args, as a
    CompletedProcess. cli.main runs in this process, and an argparse exit
    gives its code; a call with input=, timeout= or env= runs a child."""
    if kwargs:
        return subprocess.run(CLI + list(args), capture_output=True,
                              text=True, **kwargs)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(),
                                       stderr.getvalue())


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("0 1\n1 2\n")
    return str(path)


class TestCompute:
    def test_p3_all_indices(self, p3_file):
        result = run_cli("compute", p3_file)
        assert result.returncode == 0
        assert "r1=41" in result.stdout
        assert "r2=24" in result.stdout
        assert "r3=14" in result.stdout

    def test_index_selection(self, p3_file):
        result = run_cli("compute", p3_file, "--indices", "r1,ga")
        assert result.returncode == 0
        assert "r1=41" in result.stdout
        assert "ga=" in result.stdout
        assert "abc=" not in result.stdout

    def test_disconnected_exit_3(self, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n2 3\n")
        # A child: the code must leave the process through sys.exit(main()).
        result = run_cli("compute", str(path), timeout=60)
        assert result.returncode == 3
        assert "vertex 2" in result.stderr

    def test_bad_index_rejected_before_input(self, tmp_path):
        # The option value is checked before the graph is read, so a
        # disconnected input does not turn the usage error into exit 3.
        path = tmp_path / "two.edges"
        path.write_text("0 1\n2 3\n")
        result = run_cli("compute", str(path), "--indices", "foo")
        assert result.returncode == 2
        assert "unknown index 'foo'" in result.stderr
        assert result.stdout == ""

    def test_empty_indices_selects_all(self, p3_file):
        result = run_cli("compute", p3_file, "--indices", "")
        assert result.returncode == 0
        names = [line.split("=")[0] for line in result.stdout.splitlines()]
        assert names == ["n", "r1", "r2", "r3", "abc", "ga", "h", "chi",
                         "zagreb1", "zagreb2", "randic"]

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 zero\n")
        # A child: the code must leave the process through sys.exit(main()).
        result = run_cli("compute", str(path), timeout=60)
        assert result.returncode == 2

    def test_headerless_fault_names_file_ids(self, tmp_path):
        # The ids are compacted for the build, but the error names the
        # ids of the file.
        path = tmp_path / "repeat.edges"
        path.write_text("4 7\n7 4\n")
        result = run_cli("compute", str(path))
        assert (result.returncode, result.stdout, result.stderr) == \
            (2, "", "error: edge (4, 7) appears more than once\n")

    def test_headerless_disconnected_names_file_ids(self, tmp_path):
        # Neither rank, 2 or 0, is an id of the file.
        path = tmp_path / "two.edges"
        path.write_text("10 20\n30 40\n")
        for command in ("compute", "rdegrees"):
            result = run_cli(command, str(path))
            assert (result.returncode, result.stdout, result.stderr) == (
                3, "", "error: graph is not connected: vertex 30 is "
                       "unreachable from vertex 10\n")

    def test_order_too_large_exit_2(self, tmp_path):
        path = tmp_path / "huge.edges"
        path.write_text("n 1000000000000\n0 1\n")
        for command in ("compute", "rdegrees"):
            result = run_cli(command, str(path))
            assert result.returncode == 2
            assert "exceeds" in result.stderr

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit")
    @pytest.mark.parametrize("text", [
        "1 " + "9" * 5000, "n 3\n0 " + "9" * 5000, "n " + "9" * 5000,
    ], ids=["id", "id-after-header", "order"])
    def test_beyond_int_digit_limit_exit_2(self, tmp_path, text):
        # Past int()'s default 4,300-digit limit a ValueError crashed the
        # run with a traceback.
        if not 0 < sys.get_int_max_str_digits() < 5000:
            pytest.skip("int() reads 5,000 digits here")
        path = tmp_path / "long.edges"
        path.write_text(text)
        result = run_cli("compute", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: line ")
        assert result.stderr.count("\n") == 1

    def test_zagreb_printed_exactly(self, tmp_path):
        # Both Zagreb values of this star pass 10^9, where 9 significant
        # digits would no longer hold them.
        path = tmp_path / "star.edges"
        run_cli("generate", "star", "40000", "--out", str(path))
        result = run_cli("compute", str(path), "--indices",
                         "zagreb1,zagreb2")
        assert result.returncode == 0
        assert result.stdout.split() == [
            "n=40000", "m=39999", "zagreb1=1599960000", "zagreb2=1599920001"]

    def test_undecodable_bytes_exit_2(self, tmp_path):
        g6 = tmp_path / "bad.g6"
        g6.write_bytes(b"\xffA_\n")
        edges = tmp_path / "bad.edges"
        edges.write_bytes(b"0 1\n\xff 2\n")
        for command in ("compute", "rdegrees"):
            for path in (g6, edges):
                result = run_cli(command, str(path))
                assert result.returncode == 2
                assert result.stderr.startswith("error:")

    def test_bom_and_line_ends_give_same_output(self, tmp_path):
        # Several pieces long, so that most of it takes the bulk path. A
        # byte-order mark starts the file only; the graph6 copy is read
        # by the other parser.
        g = generate_random_connected(400, 0.1, seed=5)
        text = write_edge_list(g)
        assert len(text) > 3 * _CHUNK
        bom = "\ufeff"
        files = {"lf.edges": text, "crlf.edges": text.replace("\n", "\r\n"),
                 "bom.edges": bom + text,
                 "bom-crlf.edges": bom + text.replace("\n", "\r\n"),
                 "bom.g6": bom + write_graph6(g) + "\n"}
        # Each edge-list copy whose last line repeats its first edge is
        # read again after the fault, past the byte-order mark once more.
        first_edge = text.split("\n")[1]
        for name in [name for name in files if name.endswith(".edges")]:
            newline = "\r\n" if "crlf" in name else "\n"
            files["repeat-" + name] = files[name] + first_edge + newline
        results = {}
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content.encode("utf-8"))
            result = run_cli("compute", str(path))
            results.setdefault(name.startswith("repeat-"), set()).add(
                (result.returncode, result.stdout, result.stderr))
        assert [len(outcomes) for outcomes in results.values()] == [1, 1]
        code, stdout, stderr = results[False].pop()
        assert (code, stderr) == (0, "")
        assert stdout.startswith(f"n=400 m={g.m}\n")
        u, v = sorted(map(int, first_edge.split()))
        assert results[True].pop() == (
            2, "", f"error: edge ({u}, {v}) appears more than once\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_input_read_whole_before_the_fault(self, tmp_path):
        # A FIFO cannot tell its position for the fault's second read, so
        # it is read whole first; the error is the regular file's.
        text = write_edge_list(generate_family(Family.CYCLE, 6000))
        text += text.split("\n")[1] + "\n"
        assert len(text) > 3 * _CHUNK
        path = tmp_path / "repeat.edges"
        path.write_text(text)
        fifo = tmp_path / "fifo.edges"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,),
                                  daemon=True)
        writer.start()
        try:
            # A child, with a timeout: a FIFO never opened would hang here.
            from_fifo = run_cli("compute", str(fifo), timeout=60)
        finally:
            # Unblocks the writer if the command never opened the FIFO.
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=60)
        assert not writer.is_alive()
        from_file = run_cli("compute", str(path))
        assert (from_fifo.returncode, from_fifo.stdout, from_fifo.stderr) \
            == (from_file.returncode, from_file.stdout, from_file.stderr) \
            == (2, "", "error: edge (0, 1) appears more than once\n")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="no /dev/stdin")
    @pytest.mark.parametrize("text, code, first_line, stderr", [
        ("n 4\n0 1\n1 2\n2 3\n", 0, "n=4 m=3", ""),
        ("n 3\n0 1\n1 2\n2 1\n", 2, "",
         "error: edge (1, 2) appears more than once\n"),
    ], ids=["clean", "repeated-edge"])
    def test_stdin_pipe_reads_as_the_file(self, tmp_path, text, code,
                                          first_line, stderr):
        # A pipe cannot tell its position, so it is read whole first; the
        # output is the regular file's.
        path = tmp_path / "graph.edges"
        path.write_text(text)
        # A child: /dev/stdin must be the process's own stdin, a pipe.
        from_pipe = run_cli("compute", "/dev/stdin", input=text, timeout=60)
        from_file = run_cli("compute", str(path))
        assert (from_pipe.returncode, from_pipe.stdout, from_pipe.stderr) \
            == (from_file.returncode, from_file.stdout, from_file.stderr)
        assert (from_file.returncode, from_file.stdout.split("\n")[0],
                from_file.stderr) == (code, first_line, stderr)

    def test_peak_memory_near_the_parse_peak(self, tmp_path, capsys):
        # The command holds neither the file's text nor a second copy of
        # the graph or of its degree table beyond what parsing needs.
        n, m = 10_000, 60_000
        rng = random.Random(13)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < m:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        lines = [f"{u} {v}" for u, v in edges]
        rng.shuffle(lines)
        text = f"n {n}\n" + "\n".join(lines) + "\n"
        path = tmp_path / "sparse.edges"
        path.write_text(text)
        peaks = []
        for run in (lambda: parse_edge_list(text),
                    lambda: cli.main(["compute", str(path)])):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr().out.startswith(f"n={n} m={m}\n")
        assert peaks[1] < 1.15 * peaks[0], peaks

    def test_bom_after_the_start_is_an_error(self, tmp_path):
        path = tmp_path / "late-bom.edges"
        path.write_bytes("0 1\n\ufeff1 2\n".encode("utf-8"))
        result = run_cli("compute", str(path))
        assert result.returncode == 2
        assert result.stderr == \
            "error: line 2: non-integer token in '\\ufeff1 2'\n"

    def test_second_graph6_line_exit_2(self, tmp_path):
        # Only the first graph was indexed, and the run exited 0.
        path = tmp_path / "two.g6"
        path.write_text("Bw\n\nCx\n")
        for command in ("compute", "rdegrees"):
            result = run_cli(command, str(path))
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == (
                f"error: line 3: a second graph in {path}; compute and "
                f"rdegrees read one graph, batch reads a corpus\n")

    def test_format_flag_overrides_extension(self, tmp_path):
        # --format wins over the file name, and a graph6 file that holds
        # only blank and header lines is an error.
        path = tmp_path / "p3.g6"
        path.write_text("0 1\n1 2\n")
        result = run_cli("compute", str(path), "--format", "edgelist",
                         "--indices", "r1")
        assert (result.returncode, result.stdout) == (0, "n=3 m=2\nr1=41\n")
        blank = tmp_path / "blank.edges"
        blank.write_text("\n>>graph6<<\n")
        result = run_cli("rdegrees", str(blank), "--format", "graph6")
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"error: no graph6 line found in {blank}\n")

    def test_graph6_inferred_from_extension(self, tmp_path):
        path = tmp_path / "c6.g6"
        path.write_text(write_graph6(generate_family(Family.CYCLE, 6)) + "\n")
        result = run_cli("compute", str(path))
        assert result.returncode == 0
        assert "r1=384" in result.stdout


class TestRDegrees:
    def test_p5_column(self, tmp_path):
        path = tmp_path / "p5.edges"
        path.write_text("0 1\n1 2\n2 3\n3 4\n")
        result = run_cli("rdegrees", str(path))
        rows = result.stdout.strip().split("\n")[1:]
        assert [r.split()[-1] for r in rows] == ["4", "5", "8", "5", "4"]

    def test_k4_rows(self, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text(write_graph6(generate_family(Family.COMPLETE, 4)))
        result = run_cli("rdegrees", str(path))
        rows = result.stdout.strip().split("\n")[1:]
        assert all(r.split()[1:] == ["3", "9", "27", "36"] for r in rows)

    def test_star_rows(self, tmp_path):
        path = tmp_path / "s4.edges"
        path.write_text("0 1\n0 2\n0 3\n")
        result = run_cli("rdegrees", str(path))
        rows = [r.split() for r in result.stdout.strip().split("\n")[1:]]
        assert rows[0][2:] == ["3", "1", "4"]
        assert all(r[4] == "6" for r in rows[1:])

    def test_headerless_rows_name_file_ids(self, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("10 20\n20 30\n")
        result = run_cli("rdegrees", str(path))
        assert (result.returncode, result.stdout) == (
            0, "vertex deg sum_deg mult_deg r\n"
               "10 1 2 2 4\n20 2 2 1 3\n30 1 2 2 4\n")

    def test_closed_stdout_pipe_exits_141_quietly(self, tmp_path):
        # A reader that stops after one line, as `| head -1` does. The
        # 20,000 rows overflow the pipe buffer, so the writer is still
        # writing when the pipe closes.
        path = tmp_path / "p20000.edges"
        path.write_text(write_edge_list(generate_family(Family.PATH, 20000)))
        # A child: the exit code and the devnull swap act on the process.
        proc = subprocess.Popen(CLI + ["rdegrees", str(path)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline() == "vertex deg sum_deg mult_deg r\n"
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 141
        assert stderr == ""

    def test_disconnected_exit_3(self, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n2 3\n")
        result = run_cli("rdegrees", str(path))
        assert result.returncode == 3
        assert result.stderr.startswith("error: graph is not connected")
        assert result.stdout == ""


class TestGenerate:
    def test_cycle_edge_list(self):
        result = run_cli("generate", "cycle", "5")
        assert result.returncode == 0
        g = parse_edge_list(result.stdout)
        assert g == generate_family(Family.CYCLE, 5)

    def test_complete_graph6_round_trip(self, tmp_path):
        out = tmp_path / "k4.g6"
        result = run_cli("generate", "complete", "4", "--format", "graph6",
                         "--out", str(out))
        assert result.returncode == 0
        g = parse_graph6(out.read_text().strip())
        assert g.m == 6

    def test_star_2(self):
        result = run_cli("generate", "star", "2")
        assert parse_edge_list(result.stdout).m == 1

    def test_bad_order_exit_2(self):
        assert run_cli("generate", "cycle", "2").returncode == 2

    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_round_trip_matches_in_memory(self, family, tmp_path):
        for n in (3, 7, 30, 70):
            for fmt in ("edgelist", "graph6"):
                out = tmp_path / f"{family}{n}.{fmt}"
                run_cli("generate", family, str(n), "--format", fmt,
                        "--out", str(out))
                text = out.read_text()
                g = parse_graph6(text.strip()) if fmt == "graph6" \
                    else parse_edge_list(text)
                expected = generate_family(family, n)
                assert g == expected
                assert full_report(g) == full_report(expected)

    @pytest.mark.parametrize("fmt", ["edgelist", "graph6"])
    def test_writer_peaks_under_2_mb_above_the_graph(self, fmt, tmp_path):
        # Neither writer holds the edge pairs or a list of the lines of
        # K_600, whose 179,700 edges would take over 10 MB either way.
        def peak(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        g, (graph_bytes, _) = peak(
            lambda: generate_family(Family.COMPLETE, 600))
        out = tmp_path / f"k600.{fmt}"
        code, (_, command_peak) = peak(lambda: cli.main(
            ["generate", "complete", "600", "--format", fmt,
             "--out", str(out)]))
        assert code == 0
        assert command_peak < graph_bytes + 2_000_000
        assert out.read_text() == (write_graph6(g) + "\n" if fmt == "graph6"
                                   else write_edge_list(g))


@pytest.fixture
def collector_seen(monkeypatch):
    """gc.isenabled() as each command's main callee found it: full_report
    for compute and batch, r_degree_table for rdegrees, generate_family
    for generate and verify_family for verify."""
    seen = []

    def spy(fn):
        def wrapper(*args):
            seen.append(gc.isenabled())
            return fn(*args)
        return wrapper

    for module, name in ((cli, "full_report"), (cli, "r_degree_table"),
                         (cli, "generate_family"),
                         (families, "verify_family")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    return seen


@contextlib.contextmanager
def collector_state(enabled):
    """The block runs with the cyclic collector enabled or not, and the
    collector is enabled after it."""
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestCollectorPaused:
    """compute, rdegrees and generate run with the cyclic collector
    paused; batch and verify keep it running."""

    @pytest.mark.parametrize("argv, running", [
        (["compute", "{edges}"], False),
        (["rdegrees", "{edges}"], False),
        (["generate", "cycle", "5"], False),
        (["batch", "{corpus}"], True),
        (["verify", "cycle", "--n-range", "3..4"], True),
    ])
    def test_paused_only_in_single_graph_commands(self, argv, running,
                                                  collector_seen, tmp_path):
        edges = tmp_path / "p3.el"
        edges.write_text("0 1\n1 2\n")
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("Bw\nA_\n")
        argv = [a.format(edges=edges, corpus=corpus) for a in argv]
        with collector_state(True):
            assert run_cli(*argv).returncode == 0
            assert set(collector_seen) == {running}
            assert gc.isenabled()

    @pytest.mark.parametrize("command", ["compute", "rdegrees"])
    @pytest.mark.parametrize("text, code", [
        ("0 1\n1 2\n", 0), ("0 x\n", 2), ("0 1\n2 3\n", 3)])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_on_every_exit(self, command, text, code,
                                          enabled, tmp_path):
        path = tmp_path / "g.el"
        path.write_text(text)
        with collector_state(enabled):
            assert run_cli(command, str(path)).returncode == code
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("command", ["compute", "rdegrees", "generate"])
    def test_no_cyclic_garbage_grows_with_the_input(self, command,
                                                    tmp_path):
        # What makes the pause safe: the cyclic garbage a command leaves,
        # which only the collector could free, does not depend on n.
        def garbage(n):
            path = tmp_path / f"p{n}.el"
            path.write_text(write_edge_list(generate_family(Family.PATH, n)))
            argv = ["generate", "path", str(n), "--out", str(path)] \
                if command == "generate" else [command, str(path)]
            gc.collect()
            with collector_state(False):
                assert run_cli(*argv).returncode == 0
            return gc.collect()

        assert garbage(1000) == garbage(10000)


class TestVerify:
    def test_cycle_all_match(self, tmp_path):
        out = tmp_path / "cycle.csv"
        result = run_cli("verify", "cycle", "--n-range", "3..100",
                         "--out", str(out))
        assert result.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 294
        assert all(line.endswith("Match") for line in lines[1:])

    def test_star_mismatches_do_not_fail(self, tmp_path):
        out = tmp_path / "star.csv"
        result = run_cli("verify", "star", "--n-range", "3..10",
                         "--out", str(out))
        assert result.returncode == 0
        content = out.read_text()
        assert "Mismatch" in content

    def test_all_families(self, tmp_path):
        out = tmp_path / "all.csv"
        result = run_cli("verify", "all", "--n-range", "3..10",
                         "--out", str(out))
        assert result.returncode == 0
        content = out.read_text()
        for family in ("path", "cycle", "complete", "star"):
            assert f"{family}," in content

    def test_malformed_range_exit_2(self):
        # No claim is stated below n = 3, so 1..2 would check nothing.
        for text in ("3-10", "9..2", "1..2"):
            result = run_cli("verify", "cycle", "--n-range", text)
            assert result.returncode == 2
            assert repr(text) in result.stderr

    def test_range_reaching_3_gives_its_rows(self):
        result = run_cli("verify", "path", "--n-range", "2..3")
        assert result.returncode == 0
        rows = result.stdout.splitlines()[1:]
        assert len(rows) == 9
        assert {row.split(",")[2] for row in rows} == {"3"}


class TestBatch:
    def test_cycle_corpus(self, tmp_path):
        src = tmp_path / "cycles.g6"
        src.write_text("".join(
            write_graph6(generate_family(Family.CYCLE, n)) + "\n"
            for n in (3, 4, 5)))
        out = tmp_path / "out.csv"
        result = run_cli("batch", str(src), "--out", str(out))
        assert result.returncode == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        r1_col = header.index("r1")
        assert [line.split(",")[r1_col] for line in lines[1:]] == \
            ["192", "256", "320"]

    def test_corrupt_line_isolated(self, tmp_path):
        src = tmp_path / "mixed.g6"
        src.write_text("A_\nA!\nBw\n")
        out = tmp_path / "out.csv"
        result = run_cli("batch", str(src), "--out", str(out))
        assert result.returncode == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert len(lines) == 3
        assert lines[0].endswith("Ok")
        assert "ParseError" in lines[1]
        assert lines[2].endswith("Ok")

    def test_k2_row(self, tmp_path):
        src = tmp_path / "k2.g6"
        src.write_text("A_\n")
        out = tmp_path / "out.csv"
        run_cli("batch", str(src), "--out", str(out))
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[3:6] == ["8", "4", "4"]

    def test_disconnected_row(self, tmp_path):
        src = tmp_path / "dis.g6"
        src.write_text("B?\n")  # two isolated vertices... n=3 empty graph
        out = tmp_path / "out.csv"
        run_cli("batch", str(src), "--out", str(out))
        row = out.read_text().strip().split("\n")[1]
        assert row.endswith("Disconnected")

    def test_parallel_determinism(self, tmp_path):
        src = tmp_path / "corpus.g6"
        src.write_text("".join(
            write_graph6(generate_random_connected(n % 25 + 2, 0.3, n)) + "\n"
            for n in range(200)))
        out1 = tmp_path / "j1.csv"
        out8 = tmp_path / "j8.csv"
        run_cli("batch", str(src), "--out", str(out1), "--jobs", "1")
        run_cli("batch", str(src), "--out", str(out8), "--jobs", "8")
        assert out1.read_bytes() == out8.read_bytes()

    def test_missing_input_exit_2(self, tmp_path):
        assert run_cli("batch", str(tmp_path / "nope.g6")).returncode == 2

    def test_line_splitting(self, tmp_path):
        # Form feed splits a line, \r\n is one break, and a header line
        # is skipped only when nothing follows it.
        src = tmp_path / "split.g6"
        src.write_bytes(b"A_\x0cA_\r\nBw\n\n>>graph6<<\n>>graph6<<A_\n")
        result = run_cli("batch", str(src))
        assert result.returncode == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert [(r[0], r[-1]) for r in rows] == [
            ("line1", "Ok"), ("line2", "Ok"), ("line3", "Ok"),
            ("line6", "Ok")]

    def test_leading_bom_skipped(self, tmp_path):
        # A byte-order mark starts the file only: one on a later line is
        # a byte of that line.
        src = tmp_path / "bom.g6"
        src.write_bytes("\ufeffBw\n\ufeffBw\n".encode("utf-8"))
        result = run_cli("batch", str(src))
        assert result.returncode == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert [(r[0], r[-1]) for r in rows] == [
            ("line1", "Ok"),
            ("line2", "ParseError(character '\\ufeff' outside graph6 "
                      "range '?'..'~')")]

    def test_undecodable_line_isolated(self, tmp_path):
        src = tmp_path / "bytes.g6"
        src.write_bytes(b"A_\n\xff\nBw\n")
        out = tmp_path / "out.csv"
        result = run_cli("batch", str(src), "--out", str(out))
        assert result.returncode == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["line1", "line2", "line3"]
        assert rows[0].endswith("Ok") and rows[2].endswith("Ok")
        assert rows[1].endswith(")") and "ParseError(" in rows[1]

    def test_ascii_stdout(self, tmp_path):
        # Every row is ASCII, so a stdout that encodes only ASCII takes
        # the ParseError row of a replaced byte.
        src = tmp_path / "bytes.g6"
        src.write_bytes(b"A_\n\xff\nBw\n")
        # A child: PYTHONIOENCODING sets stdout's encoding at start-up.
        result = run_cli("batch", str(src),
                         env=dict(os.environ, PYTHONIOENCODING="ascii"))
        assert result.returncode == 0, result.stderr
        rows = result.stdout.splitlines()[1:]
        assert len(rows) == 3
        assert "ParseError(" in rows[1]

    def test_out_is_input_refused(self, tmp_path):
        src = tmp_path / "corpus.g6"
        src.write_text("A_\nBw\n")
        result = run_cli("batch", str(src), "--out", str(src))
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert src.read_text() == "A_\nBw\n"


def write_mixed_corpus(path, lines):
    """A graph6 corpus of at least `lines` lines holding Ok rows, a
    ParseError, a disconnected graph, an undecodable byte and a line that a
    form feed splits in two."""
    special = [b"A!\n", b"B?\n", b"\xff\n", b"A_\x0cBw\n"]
    body = [(write_graph6(generate_random_connected(i % 25 + 2, 0.3, i))
             + "\n").encode() for i in range(lines - len(special))]
    for k, line in enumerate(special):
        body.insert((k + 1) * len(body) // (len(special) + 1), line)
    path.write_bytes(b"".join(body))


class TestBatchPool:
    # More than three chunks and an uneven last one.
    LINES = 3 * cli.BATCH_CHUNK + cli.BATCH_CHUNK // 2 + 1

    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "mixed.g6"
        write_mixed_corpus(path, self.LINES)
        return path

    def test_jobs_2_same_bytes_as_jobs_1(self, corpus, tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}.csv"
            # A child: the bytes of the process's stdout are compared.
            result = run_cli("batch", str(corpus), "--out", str(out),
                             "--jobs", jobs, timeout=120)
            assert result.returncode == 0, result.stderr
            outs[jobs] = out.read_bytes()
            stdout = subprocess.run(
                CLI + ["batch", str(corpus), "--jobs", jobs],
                capture_output=True, timeout=120)
            assert stdout.returncode == 0
            assert stdout.stdout == outs[jobs]
        assert outs["1"] == outs["2"]
        rows = outs["2"].decode("ascii").splitlines()
        assert len(rows) == 1 + self.LINES + 1  # the form feed adds a row
        assert rows.count(rows[0]) == 1
        statuses = {row.rsplit(",", 1)[1].split("(")[0] for row in rows[1:]}
        assert statuses == {"Ok", "ParseError", "Disconnected"}

    def test_spawn_start_method_same_bytes(self, corpus, tmp_path):
        # A child: the start method can be set once per process.
        code = ("import multiprocessing, sys\n"
                "from rindices import cli\n"
                "multiprocessing.set_start_method('spawn')\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        outs = []
        for args, jobs in (([sys.executable, "-c", code], "2"), (CLI, "1")):
            out = tmp_path / f"{len(outs)}.csv"
            result = subprocess.run(
                args + ["batch", str(corpus), "--out", str(out),
                        "--jobs", jobs],
                capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_closed_stdout_pipe_exits_141_quietly(self, tmp_path):
        # Several chunks of rows overflow the pipe buffer, so the pool is
        # still busy when the reader goes away.
        path = tmp_path / "big.g6"
        write_mixed_corpus(path, 8 * cli.BATCH_CHUNK)
        # A child: the exit code and the devnull swap act on the process.
        proc = subprocess.Popen(CLI + ["batch", str(path), "--jobs", "2"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline().startswith("name,n,m,")
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 141
        assert stderr == ""

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a pool")
    def test_dead_worker_fails_instead_of_hanging(self, corpus):
        # The worker that takes line 600 exits at once, as one killed by
        # the system would; its chunk never comes back. A child: its
        # workers fork from a process whose row function is patched.
        code = ("import multiprocessing, os, sys\n"
                "from rindices import cli\n"
                "multiprocessing.set_start_method('fork')\n"
                "row = cli._batch_row\n"
                "cli._batch_row = lambda item: os._exit(9) "
                "if item[0] == 600 else row(item)\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        result = subprocess.run(
            [sys.executable, "-c", code, "batch", str(corpus), "--jobs", "2"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        assert result.stderr == ("error: a batch worker process died "
                                 "before returning its rows\n")

    def test_import_loads_no_pool_module(self):
        # A child: a fresh interpreter, as this module imports
        # concurrent.futures.
        code = ("import sys, rindices.cli\n"
                "loaded = {'concurrent.futures', 'multiprocessing'}\n"
                "sys.exit(' '.join(sorted(loaded & set(sys.modules)))"
                " or None)\n")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_1_usage_error(self, jobs, tmp_path):
        out = tmp_path / "out.csv"
        result = run_cli("batch", str(tmp_path / "missing.g6"),
                         "--out", str(out), "--jobs", jobs)
        assert result.returncode == 2
        assert result.stderr.startswith("usage:")
        assert "--jobs" in result.stderr
        assert not out.exists()

    def test_workers_capped_at_cpu_count(self, corpus, tmp_path,
                                         monkeypatch):
        # A stand-in pool that runs each task in this process when its
        # result is read: no process is started, and the number of tasks
        # submitted but not yet read is the number in flight.
        pools = []

        class Future:
            def __init__(self, pool, fn, args):
                self.pool, self.fn, self.args = pool, fn, args

            def result(self):
                self.pool.in_flight -= 1
                return self.fn(*self.args)

        class FakePool:
            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.in_flight = self.max_in_flight = 0
                pools.append(self)

            def submit(self, fn, *args):
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
                return Future(self, fn, args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        out = tmp_path / "capped.csv"
        assert cli.main(["batch", str(corpus), "--out", str(out),
                         "--jobs", "100000"]) == 0
        assert [p.max_workers for p in pools] == [2]
        assert pools[0].max_in_flight == 4
        expected = tmp_path / "expected.csv"
        assert cli.main(["batch", str(corpus), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert len(pools) == 1


def test_unwritable_out_exit_2(tmp_path):
    src = tmp_path / "k2.g6"
    src.write_text("A_\n")
    out = str(tmp_path / "missing" / "out.csv")
    for args in (["batch", str(src)], ["verify", "cycle"],
                 ["generate", "cycle", "5"]):
        result = run_cli(*args, "--out", out)
        assert result.returncode == 2, args
        assert result.stderr.startswith("error:"), args


class TestColdStart:
    # Modules that compute and batch never run. dataclasses brings inspect;
    # families brings fractions and decimal.
    UNUSED = ["concurrent.futures", "dataclasses", "decimal", "fractions",
              "inspect", "random", "rindices.families"]

    def test_commands_load_only_what_they_run(self, tmp_path):
        # A child: a fresh interpreter, which has loaded nothing yet.
        edges = tmp_path / "tiny.el"
        edges.write_text("0 1\n1 2\n")
        corpus = tmp_path / "tiny.g6"
        corpus.write_text("Bw\nA_\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        # -S: without site, which loads random and more on some hosts.
        # Whatever argparse and csv load on this Python is not held against
        # the package.
        code = ("import sys\n"
                "import argparse, csv\n"
                "exempt = set(sys.modules)\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from rindices import cli\n"
                "cli.build_parser()\n"
                "codes = [cli.main(['compute', sys.argv[2]]),\n"
                "         cli.main(['batch', sys.argv[3]])]\n"
                f"loaded = sorted(set({self.UNUSED!r}) & set(sys.modules)"
                " - exempt)\n"
                "codes.append(cli.main(['verify', 'all', '--n-range', "
                "'3..5']))\n"
                "print('cold', loaded, codes,"
                " 'rindices.families' in sys.modules)\n")
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, src, str(edges), str(corpus)],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "r1=41\n" in result.stdout
        assert "\nline1,3,3,192,192,48," in result.stdout
        assert "cycle,r1,5,statement,320,320,Match\n" in result.stdout
        assert result.stdout.splitlines()[-1] == "cold [] [0, 0, 0] True"
