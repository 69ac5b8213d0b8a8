import hashlib
import json
import os
import subprocess
import sys

import pytest

from bbraag.cli import main
from bbraag.enumeration import PREDICATES
from bbraag.formats import format_graph6
from bbraag.patterns import complete_graph

from oracles import decode_graph6_independent

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

GEM_EDGES = "a b\nb c\nc d\na z\nb z\nc z\nd z\n"
HBAR_EDGES = "a b\na c\na d\nb c\nb d\nc d\nu a\nu d\nw b\nw c\n"


@pytest.fixture
def gem_file(tmp_path):
    p = tmp_path / "gem.txt"
    p.write_text(GEM_EDGES)
    return str(p)


@pytest.fixture
def hbar_file(tmp_path):
    p = tmp_path / "hbar.txt"
    p.write_text(HBAR_EDGES)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_classify_gem_golden(capsys, gem_file):
    code, out, err = run(capsys, "classify", "--input", gem_file, "--format", "json")
    assert code == 0
    assert out == golden("classify_gem.json")
    assert json.loads(out)["schema_version"] == 1
    code, out, err = run(capsys, "classify", "--input", gem_file)
    assert code == 0
    assert out == golden("classify_gem.txt")


@pytest.mark.parametrize("graph6", ["Dh{", "DhC", "Cl"], ids=["gem", "P5", "C4"])
def test_classify_runs_chordality_once(capsys, monkeypatch, graph6):
    import bbraag.invariants
    import bbraag.recognition

    calls = []
    real = bbraag.recognition.is_chordal

    def counting(g):
        calls.append(g)
        return real(g)

    for module in (bbraag.recognition, bbraag.invariants):
        monkeypatch.setattr(module, "is_chordal", counting)
    for fmt in ("json", "text"):
        code, _, _ = run(capsys, "classify", "--graph6", graph6, "--format", fmt)
        assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "command, graphs", [("classify", 1), ("homology", 1), ("report", 2), ("structure", 2)]
)
def test_each_graph_encoded_once(capsys, monkeypatch, command, graphs):
    # the gem is a cone, so report and structure also print its structure graph
    import bbraag.cli
    import bbraag.formats
    import bbraag.invariants

    encoded = []
    real = bbraag.formats.format_graph6

    def counting(g):
        encoded.append((g.labels, tuple(g.edges())))
        return real(g)

    for module in (bbraag.formats, bbraag.cli, bbraag.invariants):
        monkeypatch.setattr(module, "format_graph6", counting)
    for fmt in ("json", "text"):
        code, _, _ = run(capsys, command, "--graph6", "Dh{", "--format", fmt)
        assert code == 0
        assert len(encoded) == len(set(encoded)) == graphs, (fmt, encoded)
        encoded.clear()


def test_report_k3_golden(capsys):
    code, out, _ = run(capsys, "report", "--graph6", "Bw", "--format", "json")
    assert code == 0
    assert out == golden("report_k3.json")


def test_homology_hbar_golden(capsys, hbar_file):
    code, out, _ = run(capsys, "homology", "--input", hbar_file, "--format", "json")
    assert code == 0
    assert out == golden("homology_hbar.json")
    payload = json.loads(out)
    assert payload["acyclic"]["Z"] is True
    assert payload["simply_connected"] == "YES"
    code, out, _ = run(capsys, "homology", "--input", hbar_file)
    assert code == 0
    assert out == golden("homology_hbar.txt")


def test_scan_golden(capsys):
    code, out, _ = run(
        capsys, "scan", "chordal_implies_acyclic", "--max-v", "5", "--format", "json"
    )
    assert code == 0
    assert out == golden("scan_chordal_v5.json")


SCAN_TEXT_PASSING = """\
predicate    chordal_implies_acyclic
ring         Z
max vertices 5
examined     31
applicable   24
passed       24
failed       0
skipped      7
"""

SCAN_TEXT_FAILING = """\
predicate    picky
ring         Z
max vertices 5
examined     31
applicable   23
passed       13
failed       10
skipped      8
failing graphs (graph6):
  @
  BW
  Bw
  CF
  CN
  C~
  DFw
  DLs
  DL{
  DN{
"""


def test_scan_text_pinned(capsys, monkeypatch):
    code, out, _ = run(capsys, "scan", "chordal_implies_acyclic", "--max-v", "5")
    assert (code, out) == (0, SCAN_TEXT_PASSING)

    def picky(a, ring):
        g = a.graph
        return g.edge_count % 4 != 1, sum(m.bit_count() ** 2 for m in g.adj) % 3 != 0

    monkeypatch.setitem(PREDICATES, "picky", picky)
    code, out, _ = run(capsys, "scan", "picky", "--max-v", "5")
    assert (code, out) == (5, SCAN_TEXT_FAILING)


def classify_digest(capsys, graph6s):
    """sha256 of the concatenated `classify --format json` outputs, in order."""
    h = hashlib.sha256()
    for g6 in graph6s:
        code, out, _ = run(capsys, "classify", "--graph6", g6, "--format", "json")
        assert code == 0
        h.update(out.encode())
    return h.hexdigest()


def connected_graph6s(max_v):
    from bbraag.enumeration import connected_graphs

    return [format_graph6(g) for n in range(1, max_v + 1) for g in connected_graphs(n)]


# Digests of every verdict, certificate and witness that classify printed
# when the GEM/HBAR search still decided membership.
CLASSIFY_V7_SHA256 = "0327af6231f43bb3a3e4ed0b58fd19a64ebf038635897fcf71ec24ef3bd6fa6f"
CLASSIFY_V8_SHA256 = "afb0cd75227bf4f6b935d6e75a613e04b84f06805ba65b19074e8afad6b49aa6"
# empty, 2K1, 2K2, P3 + K1, gem + K1, C4 + K3
CLASSIFY_DISCONNECTED = ("?", "A?", "C`", "Cg", "EhBo", "Fl?GW")
CLASSIFY_DISCONNECTED_SHA256 = "93edfb47f8544979b95156cbcc6e88a78e115f0418860b3afefc7773d67636af"


def test_classify_pinned_v7(capsys):
    graph6s = connected_graph6s(7)
    assert len(graph6s) == 996
    assert classify_digest(capsys, graph6s) == CLASSIFY_V7_SHA256
    assert classify_digest(capsys, CLASSIFY_DISCONNECTED) == CLASSIFY_DISCONNECTED_SHA256


@pytest.mark.slow
def test_classify_pinned_v8(capsys):
    graph6s = connected_graph6s(8)
    assert len(graph6s) == 12113
    assert classify_digest(capsys, graph6s) == CLASSIFY_V8_SHA256


# sha256 of every (exit code, stdout, stderr) of classify, report, homology
# and structure, per output format, over the connected graphs with v <= 6 and
# CLASSIFY_DISCONNECTED; taken before the results shared one JSON encoder.
ALL_COMMANDS_SHA256 = {
    ("classify", "text"): "4616fd5e02b66b2bdd48a1170e3fa28d7861560d5f1f2320f8f502838289ee56",
    ("classify", "json"): "255e79e46c41c2df8a89f2da9265ef936326976e47cc8854d33c3b6fbcbd7dbe",
    ("report", "text"): "74f4916b997870464090a71dedcd3fa243bf86e19931c860a305b2d2ea3c79ca",
    ("report", "json"): "696da7a67f43e633bf06ba9b8b578e73625329a7e4e72af39e23db382c9d7840",
    ("homology", "text"): "58d719f3430ccd4ed9c7c3b0248941a0524248695ee9dbbe16ce8e8be5690940",
    ("homology", "json"): "28e34ad687ed0027962dd434d7a98c25064da8362b4752e3e600836c004b7e3c",
    ("structure", "text"): "44151b9f0addaf713749c6a4bbc50e8a147d289c58fe81cd3eee68707fdb26d8",
    ("structure", "json"): "151349a64cbd85e3bb03bf04809ef719e63a8cdc889bc1af74b428a6d9dce4aa",
}


def command_digest(capsys, command, fmt, graph6s):
    h = hashlib.sha256()
    for g6 in graph6s:
        result = run(capsys, command, "--graph6", g6, "--format", fmt)
        h.update(json.dumps(result).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("command, fmt", sorted(ALL_COMMANDS_SHA256))
def test_all_commands_pinned_v6(capsys, command, fmt):
    graph6s = connected_graph6s(6) + list(CLASSIFY_DISCONNECTED)
    assert len(graph6s) == 149
    assert command_digest(capsys, command, fmt, graph6s) == ALL_COMMANDS_SHA256[command, fmt]


# sha256 of the stdout of `scan acyclic_dim_bound --max-v 9 --ring Z --format json
# --workers 1`, from the generator that keyed every deletion rival.
SCAN_V9_SHA256 = "218fa24eaf1b582e0659d84f1aaf102e45035f3ae8d408366c65373748046194"


@pytest.mark.slow
def test_scan_v9_pinned(capsys):
    code, out, _ = run(
        capsys, "scan", "acyclic_dim_bound", "--max-v", "9", "--ring", "Z",
        "--format", "json", "--workers", "1",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_V9_SHA256


def test_structure_gem_golden(capsys, gem_file):
    code, out, _ = run(capsys, "structure", "--input", gem_file)
    assert code == 0
    assert out == golden("structure_gem.txt")


def test_output_deterministic(capsys, gem_file):
    _, first, _ = run(capsys, "report", "--input", gem_file, "--format", "json")
    _, second, _ = run(capsys, "report", "--input", gem_file, "--format", "json")
    assert first == second


def test_output_to_file(tmp_path, capsys, gem_file):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "classify", "--input", gem_file, "--format", "json",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text() == golden("classify_gem.json")


def test_inline_graph6(capsys):
    code, out, _ = run(capsys, "classify", "--graph6", "C~")
    assert code == 0
    assert "4 vertices" in out


def test_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a a\n")
    code, out, err = run(capsys, "classify", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "parse error" in err


def test_non_ascii_graph6_exit_2(capsys):
    for argv, position in ((("classify", "--graph6", "Aé"), 1), (("homology", "--graph6", "é"), 0)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"bbraag: parse error: byte {position}: non-ASCII character 'é' in graph6 input\n"


def test_non_utf8_input_exit_2(capsys, tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"a b\n\xff c\n")
    code, out, err = run(capsys, "classify", "--input", str(p))
    assert (code, out) == (2, "")
    assert err == "bbraag: parse error: byte 4: input is not UTF-8: invalid start byte\n"


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--input", "/nonexistent/graph.txt")
    assert code == 2
    assert "i/o error" in err


def test_domain_error_exit_3(capsys, hbar_file):
    code, _, err = run(capsys, "structure", "--input", hbar_file)
    assert code == 3
    assert "domain error" in err


def test_capacity_error_exit_4(capsys):
    code, _, err = run(capsys, "scan", "turan_nonneg", "--max-v", "12")
    assert code == 4
    assert "capacity" in err


@pytest.mark.parametrize("command", ["report", "homology"])
def test_clique_budget_exit_4(capsys, command):
    code, out, err = run(capsys, command, "--graph6", format_graph6(complete_graph(24)))
    assert code == 4 and out == ""
    assert "capacity error: more than" in err


def run_subprocess(*argv, timeout):
    import bbraag

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bbraag.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "bbraag", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_report_long_path_exits_cleanly(tmp_path):
    # A path's structure derivation nests a split per cut vertex; P_800 is
    # inside the clique budget, so the report answers or exits 4, never with
    # a traceback.
    p = tmp_path / "p800.txt"
    p.write_text("".join(f"{i} {i + 1}\n" for i in range(799)))
    proc = run_subprocess("report", "--input", str(p), timeout=300)
    assert proc.returncode in (0, 4), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 4:
        assert "capacity error: structure derivation may not nest more than" in proc.stderr


def test_report_p5000_exits_4(tmp_path):
    # P_5000 splits 4,998 times; the derivation stops at 400 nested splits.
    # The timeout only guards against a hang: it times nothing.
    p = tmp_path / "p5000.txt"
    p.write_text("".join(f"{i} {i + 1}\n" for i in range(4999)))
    proc = run_subprocess("report", "--input", str(p), timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert "more than 400 splits" in proc.stderr
    assert proc.stdout == ""


def test_report_k1_2000_exits_0(tmp_path):
    # Writing the star's 333 kB of graph6 is linear in its size.  The timeout
    # only guards against a hang: it times nothing.
    p = tmp_path / "k1_2000.txt"
    p.write_text("".join(f"0 {i}\n" for i in range(1, 2001)))
    proc = run_subprocess("report", "--input", str(p), "--format", "json", timeout=60)
    assert proc.returncode == 0, proc.stderr
    n, edges = decode_graph6_independent(json.loads(proc.stdout)["report"]["graph6"])
    assert n == 2001
    assert edges == {frozenset((0, i)) for i in range(1, 2001)}


def test_classify_k2000_graph6_exits_4(tmp_path):
    # The graph6 of K_2000 is read in time linear in its size, then the
    # recognition bound refuses it.  The timeout only guards against a hang.
    p = tmp_path / "k2000.g6"
    p.write_text(format_graph6(complete_graph(2000)) + "\n")
    proc = run_subprocess("classify", "--input", str(p), timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert "recognition is bounded to" in proc.stderr
    assert proc.stdout == ""


# sha256 of `report --format json` on graphs whose graph6 spans many 6-bit
# groups and the 4-byte size header: the star K_{1,300} and the path P_300.
REPORT_SHA256 = {
    "K1_300": "648d44195b100c2532f850f07faaca38ce8cb79befaff28fb518ac79c8e649b8",
    "P300": "134f2cfba5d02e373361fedb781e50525c4b8c0451f0c37f91c2f83d8b32756a",
}


def test_report_pinned_k1_300_and_p300(capsys, tmp_path):
    inputs = {
        "K1_300": "".join(f"0 {i}\n" for i in range(1, 301)),
        "P300": "".join(f"{i} {i + 1}\n" for i in range(299)),
    }
    for name, text in inputs.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        code, out, err = run(capsys, "report", "--input", str(p), "--format", "json")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[name], name


def test_scan_failures_exit_5(capsys, monkeypatch):
    monkeypatch.setitem(PREDICATES, "always_fails", lambda g, ring: (True, False))
    code, out, _ = run(capsys, "scan", "always_fails", "--max-v", "3")
    assert code == 5
    assert "failing graphs" in out
    code, _, _ = run(capsys, "scan", "turan_nonneg", "--max-v", "3")
    assert code == 0


def test_usage_errors_exit_1(capsys, gem_file):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # no input source
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--input", gem_file, "--graph6", "C~"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_ring_is_domain_error(capsys):
    code, _, err = run(capsys, "homology", "--graph6", "Bw", "--ring", "Fp:6")
    assert code == 3
    code, _, err = run(capsys, "homology", "--graph6", "Bw", "--ring", "Fp:x" + "7" * 5000)
    assert code == 3
    assert len(err) < 200
    # more digits than the primality bound: a capacity error, not a parse failure
    code, _, err = run(capsys, "homology", "--graph6", "Bw", "--ring", "Fp:" + "7" * 5000)
    assert code == 4
    assert len(err) < 200


def test_max_degree_validation(capsys):
    code, _, err = run(capsys, "report", "--graph6", "Bw", "--max-degree", "1")
    assert code == 3


def test_max_degree_bound_exit_4(capsys, monkeypatch):
    import bbraag.invariants
    from bbraag.invariants import HILBERT_DEGREE_LIMIT

    def no_homology(*args):
        raise AssertionError("homology computed before the degree bound was checked")

    over = str(HILBERT_DEGREE_LIMIT + 1)
    with monkeypatch.context() as m:
        m.setattr(bbraag.invariants, "reduced_homology", no_homology)
        code, out, err = run(capsys, "report", "--graph6", "Bw", "--max-degree", over)
    assert code == 4 and out == ""
    assert "capacity error: degree bound" in err
    limit = str(HILBERT_DEGREE_LIMIT)
    code, out, _ = run(
        capsys, "report", "--graph6", "Bw", "--max-degree", limit, "--format", "json"
    )
    assert code == 0
    hilbert = json.loads(out)["report"]["hilbert"]
    assert hilbert["passed"] and hilbert["degree_bound"] == HILBERT_DEGREE_LIMIT


def test_homology_face_limit_exit_4(capsys):
    from bbraag.formats import format_graph6
    from bbraag.homology import HOMOLOGY_FACE_LIMIT
    from bbraag.patterns import cycle_graph

    g6 = format_graph6(cycle_graph(HOMOLOGY_FACE_LIMIT + 1))
    code, out, err = run(capsys, "homology", "--graph6", g6)
    assert code == 4 and out == ""
    assert "capacity error: core has more than" in err


def test_homology_empty_graph(capsys):
    code, out, _ = run(capsys, "homology", "--graph6", "?")
    assert code == 0
    assert "0 vertices" in out
    assert "[Z] empty complex   acyclic: False" in out
    # the empty complex has nonzero reduced homology in degree -1
    code, out, _ = run(capsys, "homology", "--graph6", "?", "--format", "json")
    assert code == 0
    assert json.loads(out)["acyclic"] == {"Z": False, "Q": False}


def test_ring_tags_normalized_and_deduplicated(capsys):
    argv = ("--graph6", "Bw", "--ring", " Q", "--ring", "Fp:0002", "--ring", "Fp:2")
    code, out, _ = run(capsys, "homology", *argv)
    assert code == 0
    assert [line.split("]")[0] for line in out.splitlines() if line.startswith("[")] == [
        "[Q", "[Fp:2",
    ]
    code, out, _ = run(capsys, "homology", *argv, "--format", "json")
    payload = json.loads(out)
    assert payload["acyclic"] == {"Q": True, "Fp:2": True}
    assert [h["ring"] for h in payload["homology"]] == ["Q", "Fp:2"]
    code, out, _ = run(capsys, "report", *argv, "--format", "json")
    assert code == 0
    assert [r["ring"] for r in json.loads(out)["report"]["rings"]] == ["Q", "Fp:2"]
    code, out, _ = run(capsys, "report", *argv)
    assert [line.split("]")[0] for line in out.splitlines() if line.startswith("[")] == [
        "[Q", "[Fp:2",
    ]


def test_structure_single_vertex(capsys):
    code, out, _ = run(capsys, "structure", "--graph6", "@")
    assert code == 0
    assert "0 vertices" in out and "(none)" in out


@pytest.mark.parametrize("command", ["classify", "structure"])
def test_recognition_vertex_limit_exit_4(capsys, monkeypatch, command):
    import bbraag.cli
    from bbraag.formats import format_graph6
    from bbraag.graphs import Graph
    from bbraag.patterns import complete_graph, path_graph
    from bbraag.recognition import RECOGNITION_VERTEX_LIMIT

    # K_n, a member, and the slowest non-member measured: K_{n-2} with two
    # simplicial vertices on disjoint edges of its last four vertices, whose
    # hbar the pattern search reaches last
    n = RECOGNITION_VERTEX_LIMIT
    k = complete_graph(n - 2)
    x, y, z, t = k.labels[-4:]
    late_hbar = Graph(list(k.labels) + ["u", "w"], k.edges() + [("u", x), ("u", y), ("w", z), ("w", t)])
    code, _, _ = run(capsys, command, "--graph6", format_graph6(complete_graph(n)))
    assert code == 0
    code, out, err = run(capsys, command, "--graph6", format_graph6(late_hbar))
    assert code == (0 if command == "classify" else 3) and "HBAR" in out + err

    def no_recognition(g):
        raise AssertionError("a recognizer ran before the vertex limit was checked")

    monkeypatch.setattr(bbraag.cli, "Analysis", no_recognition)
    monkeypatch.setattr(bbraag.cli, "bb_structure_graph", no_recognition)
    g6 = format_graph6(path_graph(RECOGNITION_VERTEX_LIMIT + 1))
    code, out, err = run(capsys, command, "--graph6", g6)
    assert code == 4 and out == ""
    assert "capacity error: recognition is bounded to" in err


def test_scan_bad_ring_exit_3(capsys, monkeypatch):
    import bbraag.enumeration

    def no_generation(n):
        raise AssertionError("graphs generated before the ring was checked")

    monkeypatch.setattr(bbraag.enumeration, "_canonical_reps", no_generation)
    monkeypatch.setattr(bbraag.enumeration, "_children", no_generation)
    for predicate in ("acyclic_dim_bound", "turan_nonneg"):
        for ring in ("Fp:4", "R", "Fp:1_3"):
            code, _, err = run(
                capsys, "scan", predicate, "--max-v", "8", "--ring", ring, "--workers", "2"
            )
            assert code == 3, (predicate, ring)


def test_scan_capacity_above_bound_exit_4(capsys, monkeypatch):
    import bbraag.enumeration

    def no_generation(n):
        raise AssertionError("graphs generated before the capacity was checked")

    monkeypatch.setattr(bbraag.enumeration, "_canonical_reps", no_generation)
    monkeypatch.setattr(bbraag.enumeration, "_children", no_generation)
    code, _, err = run(capsys, "scan", "turan_nonneg", "--max-v", "10")
    assert code == 4
    assert "capacity" in err


def test_scan_has_no_capacity_option(capsys):
    # The vertex bound is CAPACITY; no option can lower or raise it.
    with pytest.raises(SystemExit) as exc:
        main(["scan", "turan_nonneg", "--max-v", "3", "--capacity", "5"])
    assert exc.value.code == 1
    assert "--capacity" in capsys.readouterr().err


def test_report_gem_golden(capsys, gem_file):
    code, out, _ = run(capsys, "report", "--input", gem_file, "--format", "json")
    assert code == 0
    assert out == golden("report_gem.json")
    payload = json.loads(out)["report"]
    assert payload["omega_identity"] == {
        "applicable": True, "lhs": 12, "passed": True, "reason": "", "rhs": 12,
    }
    assert payload["structure"]["derivation"] == {"op": "cone_strip", "apex": "z"}
    code, out, _ = run(capsys, "report", "--input", gem_file)
    assert code == 0
    assert out == golden("report_gem.txt")


def test_ring_above_primality_bound_exit_4(capsys):
    code, _, err = run(
        capsys, "homology", "--graph6", "Bw", "--ring", "Fp:3317044064679887385962123"
    )
    assert code == 4
    assert "capacity" in err


def test_scan_workers_zero_exit_3(capsys):
    code, _, err = run(capsys, "scan", "turan_nonneg", "--max-v", "3", "--workers", "0")
    assert code == 3
    assert "workers" in err


def test_homology_collapses_once(capsys, monkeypatch, gem_file):
    import bbraag.invariants as inv

    calls = []
    real = inv.collapse_to_point

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(inv, "collapse_to_point", counting)
    code, _, _ = run(capsys, "homology", "--input", gem_file, "--ring", "Z", "--ring", "Q")
    assert code == 0
    assert len(calls) == 1
