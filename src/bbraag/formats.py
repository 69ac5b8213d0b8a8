"""Textual graph formats: whitespace edge lists and graph6.

Edge-list grammar: one edge per line as two whitespace-separated labels, a
line with a single label declares an isolated vertex, ``#`` starts a comment.
Vertex order is first appearance, so parse -> serialize is the identity on
canonical inputs.  Both formats are read straight into adjacency masks (a
duplicate edge is a mask bit already set), in time linear in the text size;
an edge list is split into lines one chunk at a time, not all at once.

Results serialize through one encoder, :func:`to_json`: a :class:`Result`
dataclass is the dict of its fields, each encoded in turn.
"""

from __future__ import annotations

from . import _g6
from .errors import GraphParseError, ValidationError
from .graphs import Graph

FORMATS = ("edgelist", "graph6", "auto")
# Characters of an edge list that _lines passes before it cuts a chunk after the next "\n".
_CHUNK_CHARS = 1 << 16


def _lines(text: str):
    """The lines of ``text.splitlines()``, split a chunk at a time.

    A line always ends after a newline, so a cut just after one splits no
    line and no CR LF pair.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield from text[start:cut].splitlines()
        start = cut


def parse_edge_list(text: str) -> Graph:
    index: dict[str, int] = {}
    adj: list[int] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        parts = raw.split("#", 1)[0].split()
        if len(parts) > 2:
            raise GraphParseError(
                f"expected 1 or 2 labels per line, got {len(parts)}", line=lineno
            )
        for v in parts:
            if v not in index:
                index[v] = len(adj)
                adj.append(0)
        if len(parts) == 2:
            a, b = parts
            if a == b:
                raise ValidationError(f"self-loop at {a!r}", line=lineno)
            i, j = index[a], index[b]
            if adj[i] >> j & 1:
                raise ValidationError(f"duplicate edge {a} {b}", line=lineno)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph.from_masks(index, adj)


def format_edge_list(g: Graph) -> str:
    lines = [f"{a} {b}" for a, b in g.edges()]
    lines.extend(v for v in g.labels if g.degree(v) == 0)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; vertices are labeled "0".."n-1"."""
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise GraphParseError("empty graph6 input", position=0)
    if len(s.split(maxsplit=1)) > 1:
        raise GraphParseError("graph6 input must be a single token", position=0)
    if not s.isascii():
        i = next(i for i, ch in enumerate(s) if not ch.isascii())
        raise GraphParseError(f"non-ASCII character {s[i]!r} in graph6 input", position=i)
    n, adj = _g6.decode(s.encode("ascii"))
    return Graph.from_masks((str(i) for i in range(n)), adj)


def format_graph6(g: Graph) -> str:
    """graph6 of ``g`` under its own vertex order (not the canonical form)."""
    return _g6.encode(g.n, _g6.key_from_adj(g.n, g.adj)).decode("ascii")


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse ``text`` in the declared format.

    ``auto`` treats a single non-empty token as graph6 and anything else as an
    edge list; pass an explicit format for one-vertex edge lists.
    """
    if fmt not in FORMATS:
        raise GraphParseError(f"unknown format {fmt!r} (expected one of {FORMATS})")
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "auto" and len(text.split(maxsplit=1)) == 1:
        try:
            return parse_graph6(text)
        except GraphParseError:
            pass
    return parse_edge_list(text)


def graph_json(g: Graph, graph6: str) -> dict:
    """The ``vertices``, ``edges`` and ``graph6`` of ``g``; the caller encodes ``graph6``."""
    return {"vertices": list(g.labels), "edges": [list(e) for e in g.edges()], "graph6": graph6}


# -- JSON of results ---------------------------------------------------------------

_SCALARS = frozenset((str, int, bool, type(None)))


def to_json(x):
    """``x`` as plain JSON data: a tuple or list becomes a list, a dict maps its
    values, a result gives its own ``to_json()``, and a scalar stays as it is."""
    t = type(x)
    if t in _SCALARS:
        return x
    if t is tuple or t is list:
        return [v if type(v) in _SCALARS else to_json(v) for v in x]
    if t is dict:
        return {k: v if type(v) in _SCALARS else to_json(v) for k, v in x.items()}
    return x.to_json()


class Result:
    """Base of the frozen result dataclasses: the JSON of a result is its fields."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = value if type(value) in _SCALARS else to_json(value)
        return out
