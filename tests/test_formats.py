import random
from dataclasses import dataclass
from typing import Optional

import pytest

from bbraag import _g6
from bbraag.enumeration import _canonical_reps
from bbraag.errors import GraphParseError, ValidationError
from bbraag.formats import (
    Result,
    format_edge_list,
    format_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    to_json,
)
from bbraag.graphs import Graph
from bbraag.patterns import complete_graph, cycle_graph, path_graph

from oracles import (
    decode_graph6_independent,
    reference_adj_from_key,
    reference_decode,
    reference_encode,
    reference_key_from_adj,
)


def test_edge_list_p3():
    g = parse_graph("a b\nb c", "edgelist")
    assert g.labels == ("a", "b", "c")
    assert g.edges() == [("a", "b"), ("b", "c")]


def test_edge_list_comments_and_isolated():
    g = parse_edge_list("# header\na b  # trailing\nx\n\nb c")
    assert set(g.labels) == {"a", "b", "c", "x"}
    assert g.degree("x") == 0


def test_edge_list_self_loop_rejected():
    with pytest.raises(ValidationError) as err:
        parse_edge_list("a b\nc c")
    assert str(err.value) == "line 2: self-loop at 'c'"
    assert err.value.line == 2


def test_edge_list_duplicate_rejected():
    for text, message in (
        ("a b\nb a", "line 2: duplicate edge b a"),
        ("a b\nc d\na b", "line 3: duplicate edge a b"),
    ):
        with pytest.raises(ValidationError) as err:
            parse_edge_list(text)
        assert str(err.value) == message


def test_edge_list_too_many_tokens():
    with pytest.raises(GraphParseError) as err:
        parse_edge_list("x\na b c")
    assert str(err.value) == "line 2: expected 1 or 2 labels per line, got 3"
    assert err.value.line == 2


def test_parse_serialize_identity():
    text = "a b\nb c\nc d\nz\n"
    assert format_edge_list(parse_edge_list(text)) == text


def test_graph6_k4():
    g = parse_graph("C~", "graph6")
    assert g.n == 4 and g.edge_count == 6


def test_graph6_round_trip():
    for g in (path_graph(4), cycle_graph(5), complete_graph(6), Graph(["0"]), Graph([])):
        s = format_graph6(g)
        h = parse_graph6(s)
        assert h.n == g.n
        assert {frozenset((g.index(a), g.index(b))) for a, b in g.edges()} == {
            frozenset((int(a), int(b))) for a, b in h.edges()
        }


def test_graph6_against_independent_decoder():
    for g in (path_graph(7), cycle_graph(8), complete_graph(5), Graph(["0", "1"])):
        s = format_graph6(g)
        n, edges = decode_graph6_independent(s)
        assert n == g.n
        assert edges == {frozenset((g.index(a), g.index(b))) for a, b in g.edges()}


# Every graph6 parse error, with its message and byte position.  A bad size
# byte is reported at the end of the size field, not at the byte itself.
GRAPH6_ERRORS = [
    ("", "byte 0: empty graph6 input"),
    (">>graph6<<", "byte 0: empty graph6 input"),
    ("C~ x", "byte 0: graph6 input must be a single token"),
    ("!", "byte 0: invalid graph6 byte 33"),
    ("~?@!", "byte 4: invalid graph6 byte 33"),
    ("~", "byte 1: truncated graph6 size"),
    ("~?", "byte 2: truncated graph6 size"),
    ("~~??", "byte 4: truncated graph6 size"),
    ("C", "byte 1: graph6 body for 4 vertices needs 1 bytes, got 0"),
    ("C~~", "byte 1: graph6 body for 4 vertices needs 1 bytes, got 2"),
    ("C~!", "byte 1: graph6 body for 4 vertices needs 1 bytes, got 2"),
    ("~?A?" + "~" * 10, "byte 4: graph6 body for 128 vertices needs 1355 bytes, got 10"),
    ("C!", "byte 1: invalid graph6 byte 33"),
    ("D?!", "byte 2: invalid graph6 byte 33"),
    ("A\x7f", "byte 1: invalid graph6 byte 127"),
]
GRAPH6_PADDING_ERRORS = [
    ("A@", "byte 1: nonzero graph6 padding bits"),  # K2 is 'A_'
    ("D~~", "byte 2: nonzero graph6 padding bits"),
]


def assert_graph6_errors(errors):
    for text, message in errors:
        with pytest.raises(GraphParseError) as err:
            parse_graph6(text)
        assert str(err.value) == message, text
        assert err.value.position == int(message.split()[1].rstrip(":")), text


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<C~").n == 4
    assert_graph6_errors(GRAPH6_ERRORS)


def test_graph6_nonzero_padding_rejected():
    assert_graph6_errors(GRAPH6_PADDING_ERRORS)


def test_graph6_rejects_non_ascii():
    for text, position in (("Aé", 1), ("é", 0), (">>graph6<<C~é", 2)):
        with pytest.raises(GraphParseError) as err:
            parse_graph6(text)
        assert str(err.value) == f"byte {position}: non-ASCII character 'é' in graph6 input"


def test_graph6_decode_errors_match_reference():
    texts = [text for text, _ in GRAPH6_ERRORS + GRAPH6_PADDING_ERRORS]
    for data in [text.encode("ascii") for text in texts] + [b"A\xc3"]:
        with pytest.raises(GraphParseError) as want:
            reference_decode(data)
        with pytest.raises(GraphParseError) as got:
            _g6.decode(data)
        assert (str(got.value), got.value.position) == (str(want.value), want.value.position)


def assert_codec_matches_reference(n, adj):
    key = reference_key_from_adj(n, adj)
    data = reference_encode(n, key)
    assert _g6.key_from_adj(n, adj) == key
    assert _g6.adj_from_key(n, key) == reference_adj_from_key(n, key) == list(adj)
    assert _g6.encode(n, key) == data
    assert _g6.decode(data) == reference_decode(data)
    edges = {frozenset((i, j)) for j in range(n) for i in range(j) if adj[j] >> i & 1}
    assert decode_graph6_independent(data.decode()) == (n, edges)


def test_codec_matches_reference_on_connected_classes():
    for n in range(1, 9):
        for key in _canonical_reps(n):
            assert_codec_matches_reference(*reference_decode(key))


def test_codec_matches_reference_on_random_graphs():
    # 16 and 17 cross a block of key_from_adj; 62, 63 and 64 cross from the
    # 1-byte to the 4-byte size header.
    rng = random.Random(18)
    for n in (0, 1, 2, 3, 7, 15, 16, 17, 33, 62, 63, 64, 100, 157, 300):
        for density in (0.1, 0.5, 0.9):
            adj = [0] * n
            for j in range(n):
                for i in range(j):
                    if rng.random() < density:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            assert_codec_matches_reference(n, adj)


def test_auto_format():
    assert parse_graph("C~").n == 4
    assert parse_graph("a b\nb c").n == 3
    # a single token that is not graph6 is an edge-list vertex
    assert parse_graph("é").labels == ("é",)
    assert parse_graph(" Aé\n").labels == ("Aé",)
    # single label line is ambiguous; explicit format resolves it
    assert parse_graph("x", "edgelist").labels == ("x",)


def test_unknown_format():
    with pytest.raises(GraphParseError):
        parse_graph("a b", "dot")


# every line boundary str.splitlines knows, "\r\n" included
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def test_chunked_lines_match_splitlines(monkeypatch):
    import bbraag.formats

    rng = random.Random(29)
    texts = ["", "\n", "\r\n", "a", "a\n\n", "\r\r\n\n"]
    texts += ["".join(rng.choice(LINE_BREAKS + ("a", "b c", " ")) for _ in range(rng.randint(0, 40))) for _ in range(2000)]
    for chunk in (1, 2, 3, 7):
        monkeypatch.setattr(bbraag.formats, "_CHUNK_CHARS", chunk)
        for text in texts:
            assert list(bbraag.formats._lines(text)) == text.splitlines(), (chunk, text)


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_parse_error_line_after_each_line_break(monkeypatch, chunk):
    import bbraag.formats

    monkeypatch.setattr(bbraag.formats, "_CHUNK_CHARS", chunk)
    for sep in LINE_BREAKS:
        text = sep.join(["a b", "", "# c c", "b c", "c c", "d"])
        with pytest.raises(ValidationError) as err:
            parse_edge_list(text)
        assert str(err.value) == "line 5: self-loop at 'c'", repr(sep)
        assert err.value.line == 5


@dataclass(frozen=True)
class _Leaf(Result):
    name: str
    pair: tuple[int, tuple[str, ...]]


@dataclass(frozen=True)
class _Tree(Result):
    ok: bool
    rank: Optional[int]
    leaves: tuple[_Leaf, ...]
    by_name: dict
    tagged: object = None


class _Tagged:
    def to_json(self):
        return {"kind": "tagged"}


def test_result_json_is_its_fields():
    leaf = _Leaf("a", (2, ("x", "y")))
    tree = _Tree(True, None, (leaf,), {"k": leaf, "n": 3}, _Tagged())
    leaf_json = {"name": "a", "pair": [2, ["x", "y"]]}
    assert tree.to_json() == {
        "ok": True,
        "rank": None,
        "leaves": [leaf_json],
        "by_name": {"k": leaf_json, "n": 3},
        "tagged": {"kind": "tagged"},
    }
    assert list(tree.to_json()) == ["ok", "rank", "leaves", "by_name", "tagged"]
    assert to_json([(1, leaf), None, "s"]) == [[1, leaf_json], None, "s"]
