import pytest

from ifvs.formats import (
    ParseError,
    emit_dis,
    emit_graph,
    graph_comment_value,
    parse_dis_instance,
    parse_graph,
    parse_solution,
)
from ifvs.branching import solve_disjoint
from ifvs.generators import base_case_instance, random_dis_instance, random_multigraph
from ifvs.instance import DisInstance
from ifvs.multigraph import MultiGraph
from ifvs.pipeline import solve_ifvs


def test_parse_minimal_graph():
    g = parse_graph("p ifvs 3 2\ne 1 2\ne 2 3\n")
    assert g.vertices == {0, 1, 2}
    assert g.multiplicity(0, 1) == 1 and g.multiplicity(1, 2) == 1


def test_comments_and_blank_lines_are_ignored():
    text = "c a note\n\np ifvs 2 2\nc inline\ne 1 2\n\ne 1 2\n"
    g = parse_graph(text)
    assert g.multiplicity(0, 1) == 2


def test_loop_line():
    g = parse_graph("p ifvs 1 1\ne 1 1\n")
    assert g.multiplicity(0, 0) == 1
    assert g.deg(0) == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2\n", "header must come first"),
        ("p ifvs 2 1\np ifvs 2 1\ne 1 2\n", "duplicate header"),
        ("p wrong 2 1\ne 1 2\n", "expected 'p ifvs n m'"),
        ("p ifvs two 1\ne 1 2\n", "integers"),
        ("p ifvs -1 0\n", "nonnegative"),
        ("p ifvs 2 1\ne 1\n", "expected 'e u v'"),
        ("p ifvs 2 1\ne 1 x\n", "integers"),
        ("p ifvs 2 1\ne 0 2\n", "out of range"),
        ("p ifvs 2 1\ne 1 3\n", "out of range"),
        ("p ifvs 2 2\ne 1 2\n", "promises 2 edges"),
        ("p ifvs 2 1\ne 1 2\nW 1\n", "unexpected line type"),
        ("", "missing header"),
    ],
)
def test_graph_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("c x\np ifvs 2 1\ne 9 1\n")


def test_parse_dis_instance_roundtrip_fields():
    text = "p disifvs 4 3\ne 1 2\ne 2 3\ne 3 4\nW 1\nR 4\nk 2\n"
    inst = parse_dis_instance(text)
    assert inst.w == {0} and inst.r == {3} and inst.k == 2
    assert inst.graph.vertices == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p disifvs 2 1\ne 1 2\nW 1\n", "missing budget"),
        ("p disifvs 2 1\ne 1 2\nk 1\nk 2\n", "duplicate budget"),
        ("p disifvs 2 1\ne 1 2\nk x\n", "budget must be an integer"),
        ("p disifvs 2 1\ne 1 2\nk -1\n", "nonnegative"),
        ("p disifvs 2 1\ne 1 2\nW 5\nk 1\n", "out of range"),
        ("p disifvs 2 1\ne 1 2\nW\nk 1\n", "expected 'W v'"),
        ("p disifvs 2 1\ne 1 2\nQ 1\nk 1\n", "unexpected line type"),
    ],
)
def test_dis_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_dis_instance(text)


def test_structurally_invalid_dis_instance_is_a_parse_error():
    # W induces a triangle, which the instance type refuses
    text = (
        "p disifvs 3 3\ne 1 2\ne 2 3\ne 1 3\n"
        "W 1\nW 2\nW 3\nk 1\n"
    )
    with pytest.raises(ParseError, match="W-not-forest"):
        parse_dis_instance(text)



def test_layout_does_not_change_what_parses():
    # CRLF endings, indented comments, blank lines between edges and the
    # W/R/k lines ahead of the edges all give the plain text's instance
    plain = "p disifvs 4 4\ne 1 2\ne 2 3\ne 2 3\ne 3 4\nW 2\nR 4\nk 1\n"
    laid_out = (
        "  c a note\r\n\tc another\r\np disifvs 4 4\r\n"
        "W 2\r\nR 4\r\nk 1\r\n\r\n"
        "e 1 2\r\n   \r\ne 2 3\r\n\r\n  c between\r\ne 2 3\r\n\t e 3 4 \r\n"
    )
    want, got = parse_dis_instance(plain), parse_dis_instance(laid_out)
    assert got.graph.edge_items() == want.graph.edge_items() == [(0, 1, 1), (1, 2, 2), (2, 3, 1)]
    assert (got.w, got.r, got.k) == (want.w, want.r, want.k) == ({1}, {3}, 1)


def test_emit_graph_renames_to_contiguous_ids():
    g = MultiGraph((5, 9))
    g.add_edge(5, 9, mult=2)
    text = emit_graph(g, comments=["made by hand"])
    assert text.splitlines() == [
        "c made by hand",
        "p ifvs 2 2",
        "e 1 2",
        "e 1 2",
    ]
    back = parse_graph(text)
    assert back.multiplicity(0, 1) == 2


def _edge_pairs(text: str) -> list[tuple[int, int]]:
    return [(int(tok[1]), int(tok[2])) for tok in map(str.split, text.splitlines())
            if tok[0] == "e"]


def test_emitted_edge_lines_come_sorted_by_their_endpoints():
    # ids with gaps, added out of order, loops and parallel edges: the
    # renaming keeps the id order, so edge_items' order is the lines' order
    g = MultiGraph((30, 4, 17, 9, 100))
    for u, v, mult in ((100, 4, 1), (17, 17, 1), (30, 9, 2), (30, 4, 1), (4, 4, 2),
                       (100, 9, 3), (17, 9, 1)):
        g.add_edge(u, v, mult)
    graphs = [g]
    for seed in range(25):
        h = random_multigraph(14, 30, seed=seed)
        for v in range(seed % 3, 14, 3):
            h.remove_vertex(v)
        graphs.append(h)
    for h in graphs:
        inst = DisInstance(h, set(), set(), 0, validate=False)
        for text in (emit_graph(h), emit_dis(inst)):
            pairs = _edge_pairs(text)
            assert pairs == sorted(pairs) and all(a <= b for a, b in pairs)
            assert len(pairs) == h.num_edges
    assert _edge_pairs(emit_graph(g)) == [
        (1, 1), (1, 1), (1, 4), (1, 5), (2, 3), (2, 4), (2, 4), (2, 5), (2, 5), (2, 5), (3, 3),
    ]


def test_graph_roundtrip_random():
    for seed in range(25):
        g = random_multigraph(9, 15, seed=seed)
        back = parse_graph(emit_graph(g))
        assert back.edge_items() == g.edge_items()
        assert back.vertices == g.vertices


def test_dis_roundtrip_random():
    for seed in range(25):
        inst = random_dis_instance(seed)
        back = parse_dis_instance(emit_dis(inst))
        assert back.w == inst.w and back.r == inst.r and back.k == inst.k
        assert back.graph.edge_items() == inst.graph.edge_items()


def test_roundtrip_keeps_the_answers():
    # a parsed file solves exactly as the instance it was written from
    insts = [random_dis_instance(seed) for seed in range(100)]
    insts += [base_case_instance(seed) for seed in range(60)]
    for n, inst in enumerate(insts):
        back = parse_dis_instance(emit_dis(inst))
        assert back.graph.edge_items() == inst.graph.edge_items(), n
        assert (back.w, back.r, back.k) == (inst.w, inst.r, inst.k), n
        want, got = solve_disjoint(inst, trace=False), solve_disjoint(back, trace=False)
        assert (got.solution, got.stats) == (want.solution, want.stats), n
    for seed in range(30):
        g = random_multigraph(12, 20, seed=seed)
        back = parse_graph(emit_graph(g))
        assert back.edge_items() == g.edge_items(), seed
        want, got = solve_ifvs(g, 6, minimize=True), solve_ifvs(back, 6, minimize=True)
        assert (got.status, got.solution, got.stats) == (want.status, want.solution, want.stats), seed


def test_dis_roundtrip_renames_gaps():
    g = MultiGraph((2, 7, 11))
    g.add_edge(2, 7)
    g.add_edge(7, 11)
    inst = DisInstance(g, {2}, {11}, 1)
    back = parse_dis_instance(emit_dis(inst))
    assert back.w == {0} and back.r == {2}


def test_parse_solution_plain_ints():
    assert parse_solution("1 3\n", 4) == {0, 2}
    assert parse_solution("", 4) == set()


def test_parse_solution_json():
    text = '{"status": "yes", "solution": [2, 4], "size": 2}'
    assert parse_solution(text, 5) == {1, 3}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0 1", "out of range"),
        ("5", "out of range"),
        ("x", "bad vertex"),
        ('{"status": "yes"}', "no 'solution'"),
        ("{not json", "bad JSON"),
        ('{"solution": [1.7]}', "no 'solution' list of integers"),
        ('{"solution": [true]}', "no 'solution' list of integers"),
        ('{"solution": ["1"]}', "no 'solution' list of integers"),
        ('{"solution": {"1": 2}}', "no 'solution' list of integers"),
        ('{"solution": "12"}', "no 'solution' list of integers"),
        ('{"solution": 5}', "no 'solution' list of integers"),
    ],
)
def test_parse_solution_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_solution(text, 4)


def test_graph_comment_value():
    text = "c k 4\nc witness 1 2 3\np ifvs 1 0\n"
    assert graph_comment_value(text, "k") == "4"
    assert graph_comment_value(text, "witness") == "1 2 3"
    assert graph_comment_value(text, "absent") is None
    # any whitespace separates the tokens, as in the parser
    assert graph_comment_value("c\tk\t5\n", "k") == "5"
