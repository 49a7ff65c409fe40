import re

import numpy as np
import pytest

from coremaint import (Graph, load_edge_list, peel, read_core_file,
                       save_edge_list, write_core_file)
from coremaint.cli import main


@pytest.fixture
def small_graph(tmp_path):
    rng = np.random.default_rng(5)
    mask = np.triu(rng.random((60, 60)) < 0.12, 1)
    g = Graph.from_edges(np.argwhere(mask), num_vertices=60,
                         dense_labels=True)
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    return g, path


def test_insert_writes_cores_and_log(small_graph, tmp_path, capsys):
    g, path = small_graph
    out = tmp_path / "cores.txt"
    logf = tmp_path / "rounds.txt"
    rc = main(["insert", "--graph", str(path), "--batch-size", "30",
               "--seed", "3", "--threads", "2",
               "--out-cores", str(out), "--log", str(logf)])
    assert rc == 0
    assert "rounds=" in capsys.readouterr().out
    assert out.exists()
    text = logf.read_text()
    assert text.startswith("round 1 levels ")
    assert "applied" in text


def test_insert_then_verify_round_trip(small_graph, tmp_path):
    g, path = small_graph
    batch = tmp_path / "batch.txt"
    rng = np.random.default_rng(8)
    lines = []
    while len(lines) < 20:
        u, v = int(rng.integers(60)), int(rng.integers(60))
        if u != v and not g.has_edge(u, v):
            lines.append(f"{u} {v}")
    batch.write_text("\n".join(dict.fromkeys(lines)) + "\n")
    cores_out = tmp_path / "cores.txt"
    graph_out = tmp_path / "g_after.txt"
    rc = main(["insert", "--graph", str(path), "--batch", str(batch),
               "--out-cores", str(cores_out)])
    assert rc == 0
    # rebuild the post-insertion graph and verify the cores file against it
    g2 = load_edge_list(path)
    for line in batch.read_text().splitlines():
        u, v = map(int, line.split())
        g2.add_edge(u, v)
    save_edge_list(g2, graph_out)
    assert main(["verify", "--graph", str(graph_out),
                 "--cores", str(cores_out)]) == 0


def test_verify_detects_mismatch(small_graph, tmp_path, capsys):
    g, path = small_graph
    cores = peel(g)
    cores.values[7] += 1
    bad = tmp_path / "bad.txt"
    write_core_file(bad, g, cores)
    rc = main(["verify", "--graph", str(path), "--cores", str(bad)])
    assert rc == 3
    assert "mismatch at vertex 7" in capsys.readouterr().out


@pytest.mark.parametrize("rows, rc, out", [
    ("40 1\n30 9\n10 7\n20 2\n", 3,
     "mismatch at vertex 10: expected 2, file has 7"),
    ("40 1\n30 9\n20 2\n", 3,
     "mismatch at vertex 10: expected 2, file has nothing"),
    ("10 2\n20 2\n30 2\n40 1\n70 3\n7 2\n", 3,
     "mismatch at vertex 7: not in graph, file has 2"),
    ("40 1\n10 2\n30 2\n20 2\n", 0, "verified 4 vertices"),
], ids=["wrong", "no-row", "not-in-graph", "clean"])
def test_verify_names_the_smallest_mismatch(rows, rc, out, tmp_path,
                                            capsys):
    graph, cores = tmp_path / "g.txt", tmp_path / "cores.txt"
    save_edge_list(Graph.from_edges([(30, 10), (10, 20), (20, 30),
                                     (20, 40)]), graph)
    cores.write_text(rows)
    assert main(["verify", "--graph", str(graph),
                 "--cores", str(cores)]) == rc
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize("data, line", [
    (b"0 5\n1 1\n0 1\n", 3),  # vertex 0 twice: the later line won
    (b"0 1\n1\n", 2),
    (b"# cores\n0 1 2\n", 2),
    (b"0 1\n\n1 x\n", 3),
    (b"0 -1\n", 1),
    (b"-4 1\n", 1),
    (b"0 1\n1 \xff\n", 2),
    (b"0 1\n1 %d\n" % 10**23, 2),
    (b"# c\r\n0 5\r\n\r\n 1 1\r0 1\n", 5),  # CRLF, lone CR, comment
], ids=["repeated", "short", "long", "not-integer", "negative-core",
        "negative-label", "not-utf8", "core-beyond-int64",
        "repeated-after-other-lines"])
def test_bad_core_file_names_the_line(data, line, small_graph, tmp_path,
                                      capsys):
    _, path = small_graph
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    with pytest.raises(ValueError, match=f"line {line}:"):
        read_core_file(bad)
    rc = main(["verify", "--graph", str(path), "--cores", str(bad)])
    assert rc == 1
    assert f"line {line}:" in capsys.readouterr().err


def check_baseline_matches_engine(mode, small_graph, tmp_path, capsys):
    # the baseline runs one round per applied edge; its result line and
    # change log report those rounds like the engine's
    g, path = small_graph
    a, b, logf = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "log.txt"
    args = [mode, "--graph", str(path), "--batch-size", "25", "--seed", "4"]
    assert main(args + ["--out-cores", str(a)]) == 0
    capsys.readouterr()
    assert main(args + ["--baseline", "--out-cores", str(b),
                        "--log", str(logf)]) == 0
    line = capsys.readouterr().out
    assert a.read_text() == b.read_text()
    applied = int(re.match(rf"{mode}: (\d+) edges applied", line).group(1))
    fields = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", line)}
    before = peel(g).as_label_dict(g)
    moves = sum(abs(c - before[v]) for v, c in read_core_file(b).tolist())
    assert applied > 0 and moves > 0
    assert fields["rounds"] == applied
    assert fields["changed"] == moves
    blocks = logf.read_text().split("round ")[1:]
    assert len(blocks) == applied
    verb = "raised" if mode == "insert" else "lowered"
    named = 0
    for block in blocks:
        last = block.splitlines()[-1].split()
        assert last[0] == verb
        named += len(last) - 1
    assert named == moves


def test_delete_baseline_matches_engine(small_graph, tmp_path, capsys):
    check_baseline_matches_engine("delete", small_graph, tmp_path, capsys)


def test_insert_baseline_matches_engine(small_graph, tmp_path, capsys):
    check_baseline_matches_engine("insert", small_graph, tmp_path, capsys)


@pytest.mark.parametrize("baseline", [False, True])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_bad_thread_count_is_rejected_before_any_work(baseline, threads,
                                                      tmp_path, capsys):
    # rejected before the (absent) graph file is even opened
    out = tmp_path / "cores.txt"
    rc = main(["delete", "--graph", str(tmp_path / "absent.txt"),
               "--batch-size", "5", "--threads", threads,
               "--out-cores", str(out)] + ["--baseline"] * baseline)
    captured = capsys.readouterr()
    assert rc == 1
    assert f"workers must be >= 1, got {threads}" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("mode", ["insert", "delete"])
def test_baseline_reports_its_one_thread(mode, capsys):
    rc = main([mode, "--gen", "ba", "--n", "200", "--deg", "3",
               "--batch-size", "5", "--baseline", "--threads", "4"])
    assert rc == 0
    assert capsys.readouterr().out.rstrip().endswith("threads=1")


def test_gen_writes_edge_list(tmp_path):
    out = tmp_path / "gen.txt"
    rc = main(["gen", "--gen", "ba", "--n", "50", "--deg", "3",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    g = load_edge_list(out)
    assert g.vertex_count == 50
    assert (peel(g).values == 3).all()


def test_missing_input_is_runtime_error(tmp_path, capsys):
    rc = main(["insert", "--graph", str(tmp_path / "nope.txt"),
               "--batch-size", "5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flags_exit_usage():
    for argv in (["insert", "--frobnicate"], ["bench", "--gen", "er"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_unknown_backend_rejected(small_graph, capsys):
    _, path = small_graph
    rc = main(["insert", "--graph", str(path), "--batch-size", "5",
               "--backend", "fortran"])
    assert rc == 1
    assert "unknown kernel backend" in capsys.readouterr().err
