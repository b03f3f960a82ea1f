"""Plain text instance files.

Graphs travel in a DIMACS-like format. A header line ``p ifvs n m`` opens
the file, ``c ...`` lines carry free-form comments, and each of the m edge
lines ``e u v`` names one edge occurrence with 1-based endpoints. Repeating
an edge line raises the multiplicity and ``e v v`` is a loop. Disjoint
instances use the ``p disifvs n m`` header and add ``W v`` and ``R v``
membership lines plus a single ``k INT`` budget line.

Vertices are 1-based on disk and 0-based in memory; the shift happens here
and nowhere else.
"""
from __future__ import annotations

import json

from .instance import DisInstance
from .multigraph import MultiGraph


class ParseError(ValueError):
    def __init__(self, msg: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(msg if line_no is None else f"line {line_no}: {msg}")


def _parse_common(text: str, kind: str):
    """The graph of a file's header and edge lines, and its other lines as
    (line number, tokens). Each line is split once; edge lines, the bulk of
    a file, are tested first, then comments (first token starting with c)."""
    n = m = None
    edges: list[tuple[int, int]] = []
    extras: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if not tok:
            continue
        head = tok[0]
        if head == "e":
            if n is None:
                raise ParseError("header must come first", line_no)
            if len(tok) != 3:
                raise ParseError("expected 'e u v'", line_no)
            try:
                u, v = int(tok[1]) - 1, int(tok[2]) - 1
            except ValueError:
                raise ParseError("edge endpoints must be integers", line_no)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"endpoint out of range 1..{n}", line_no)
            edges.append((u, v))
        elif head[0] == "c":
            continue
        elif head == "p":
            if n is not None:
                raise ParseError("duplicate header", line_no)
            if len(tok) != 4 or tok[1] != kind:
                raise ParseError(f"expected 'p {kind} n m'", line_no)
            try:
                n, m = int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError("header counts must be integers", line_no)
            if n < 0 or m < 0:
                raise ParseError("header counts must be nonnegative", line_no)
        elif n is None:
            raise ParseError("header must come first", line_no)
        else:
            extras.append((line_no, tok))
    if n is None:
        raise ParseError("missing header")
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, file has {len(edges)}")
    return MultiGraph.from_edges(n, edges), extras


def parse_graph(text: str) -> MultiGraph:
    g, extras = _parse_common(text, "ifvs")
    if extras:
        line_no, tok = extras[0]
        raise ParseError(f"unexpected line type {tok[0]!r}", line_no)
    return g


def parse_dis_instance(text: str) -> DisInstance:
    g, extras = _parse_common(text, "disifvs")
    w: set[int] = set()
    r: set[int] = set()
    k = None
    n = len(g)
    for line_no, tok in extras:
        if tok[0] in ("W", "R"):
            if len(tok) != 2:
                raise ParseError(f"expected '{tok[0]} v'", line_no)
            try:
                v = int(tok[1])
            except ValueError:
                raise ParseError("vertex must be an integer", line_no)
            if not (1 <= v <= n):
                raise ParseError(f"vertex out of range 1..{n}", line_no)
            (w if tok[0] == "W" else r).add(v - 1)
        elif tok[0] == "k":
            if k is not None:
                raise ParseError("duplicate budget line", line_no)
            if len(tok) != 2:
                raise ParseError("expected 'k INT'", line_no)
            try:
                k = int(tok[1])
            except ValueError:
                raise ParseError("budget must be an integer", line_no)
            if k < 0:
                raise ParseError("budget must be nonnegative", line_no)
        else:
            raise ParseError(f"unexpected line type {tok[0]!r}", line_no)
    if k is None:
        raise ParseError("missing budget line")
    try:
        return DisInstance(g, w, r, k)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _edge_lines(g: MultiGraph, rename: dict[int, int]) -> list[str]:
    # rename keeps the id order and edge_items is sorted with u <= v, so the
    # lines come out sorted by their endpoints
    lines = []
    for u, v, mult in g.edge_items():
        lines.extend([f"e {rename[u]} {rename[v]}"] * mult)
    return lines


def _renaming(g: MultiGraph) -> dict[int, int]:
    return {v: i for i, v in enumerate(sorted(g.vertices), start=1)}


def emit_graph(g: MultiGraph, comments: list[str] | None = None) -> str:
    """Serialize with vertices renamed to 1..n in sorted id order."""
    rename = _renaming(g)
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"p ifvs {len(rename)} {g.num_edges}")
    lines.extend(_edge_lines(g, rename))
    return "\n".join(lines) + "\n"


def emit_dis(inst: DisInstance, comments: list[str] | None = None) -> str:
    g = inst.graph
    rename = _renaming(g)
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"p disifvs {len(rename)} {g.num_edges}")
    lines.extend(_edge_lines(g, rename))
    lines.extend(f"W {rename[v]}" for v in sorted(inst.w))
    lines.extend(f"R {rename[v]}" for v in sorted(inst.r))
    lines.append(f"k {inst.k}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, n: int) -> set[int]:
    """Vertex set from either whitespace-separated ints or solver JSON.

    Accepts the exact JSON the solve command prints, so solutions can be
    piped straight back into verify. 1-based on disk, like everything else.
    """
    stripped = text.strip()
    raw: list
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        raw = data.get("solution")
        if not isinstance(raw, list) or any(type(v) is not int for v in raw):
            raise ParseError("JSON object has no 'solution' list of integers")
    else:
        raw = stripped.split()
    out = set()
    for item in raw:
        try:
            v = int(item)
        except ValueError:
            raise ParseError(f"bad vertex {item!r}")
        if not (1 <= v <= n):
            raise ParseError(f"vertex {v} out of range 1..{n}")
        out.add(v - 1)
    return out


def graph_comment_value(text: str, key: str) -> str | None:
    """Value of the first comment line of the form 'c <key> <value...>'."""
    for raw in text.splitlines():
        tok = raw.strip().split(maxsplit=2)  # on any whitespace, as the parser splits
        if len(tok) == 3 and tok[0] == "c" and tok[1] == key:
            return tok[2]
    return None
