import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifvs.branching import CASE_A, PivotChoice
from ifvs.cli import main
from ifvs.formats import (
    emit_dis,
    emit_graph,
    graph_comment_value,
    parse_dis_instance,
    parse_graph,
    parse_solution,
)
from ifvs.generators import GADGETS, base_case_instance, gadget_tent_branch, random_multigraph
from ifvs.instance import InternalSolverError, check_solution

from helpers import complete, cycle


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.gr"
    p.write_text(emit_graph(cycle(5)))
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.gr"
    p.write_text(emit_graph(complete(4)))
    return str(p)


def test_solve_yes_text_output(c5_file, capsys):
    rc = main(["solve", "--input", c5_file, "--k", "1", "--minimize"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: yes" in out
    assert "size: 1" in out
    witness = out.splitlines()[-1].split(":")[1].split()
    assert len(witness) == 1 and 1 <= int(witness[0]) <= 5


def test_solve_no_exit_code(k4_file, capsys):
    rc = main(["solve", "--input", k4_file, "--k", "4"])
    assert rc == 1
    assert "status: no" in capsys.readouterr().out


def test_solve_json_key_order(c5_file, capsys):
    rc = main(["solve", "--input", c5_file, "--k", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["status", "solution", "size", "stats"]
    assert list(payload["stats"]) == [
        "fvs_size", "guesses_tried", "branch_nodes", "max_mu",
    ]
    assert payload["status"] == "yes"
    assert len(payload["solution"]) == 1
    assert payload["size"] == 1


def test_solve_json_no_has_null_solution(k4_file, capsys):
    rc = main(["solve", "--input", k4_file, "--k", "3", "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["solution"] is None and payload["size"] is None


def test_solve_graph_without_budget_is_input_error(c5_file, capsys):
    rc = main(["solve", "--input", c5_file])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    rc = main(["solve", "--input", str(tmp_path / "nope.gr"), "--k", "1"])
    assert rc == 2


def test_malformed_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.gr"
    p.write_text("p ifvs 2 5\ne 1 2\n")
    assert main(["solve", "--input", str(p), "--k", "1"]) == 2


def test_internal_failure_maps_to_exit_three(c5_file, monkeypatch, capsys):
    def boom(*a, **kw):
        raise InternalSolverError("forced for the test")

    monkeypatch.setattr("ifvs.cli.solve_ifvs", boom)
    rc = main(["solve", "--input", c5_file, "--k", "1"])
    assert rc == 3
    assert "internal error" in capsys.readouterr().err


def test_unexpected_exception_maps_to_exit_three(c5_file, monkeypatch, capsys):
    def boom(*a, **kw):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("ifvs.cli.solve_ifvs", boom)
    rc = main(["solve", "--input", c5_file, "--k", "1"])
    assert rc == 3
    assert "internal error: RecursionError" in capsys.readouterr().err


def test_taking_a_vertex_of_w_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    # no valid run takes a W-vertex; a pivot picked from W stands in for a
    # bug that would, and take must refuse it rather than corrupt W
    inst, _site = gadget_tent_branch()
    p = tmp_path / "tent.dis"
    p.write_text(emit_dis(inst))
    monkeypatch.setattr(
        "ifvs.branching.select_pivot", lambda cur: PivotChoice(min(cur.w), CASE_A)
    )
    assert main(["solve", "--input", str(p)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_solve_dis_file_and_budget_override(tmp_path, capsys):
    inst, _site = gadget_tent_branch()
    p = tmp_path / "tent.dis"
    p.write_text(emit_dis(inst))
    assert main(["solve", "--input", str(p)]) == 0
    capsys.readouterr()
    assert main(["solve", "--input", str(p), "--k", "0"]) == 1
    assert main(["solve", "--input", str(p), "--k", "-1"]) == 2
    capsys.readouterr()
    # branch_nodes counts every engine node, as it does on graph input
    assert main(["solve", "--input", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["branch_nodes"] == 3


def test_solve_and_oracle_read_a_tab_separated_dis_header(tmp_path, capsys):
    # the parser splits on any whitespace, so the file-type sniff must too
    p = tmp_path / "tab.dis"
    p.write_text("p\tdisifvs 3 3\ne 1 2\ne 2 3\ne 1 3\nW 1\nk 1\n")
    for cmd in ("solve", "oracle"):
        assert main([cmd, "--input", str(p), "--json"]) == 0, cmd
        assert json.loads(capsys.readouterr().out)["size"] == 1, cmd


def test_solve_trace_file_is_json_lines(c5_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = main([
        "solve", "--input", c5_file, "--k", "1",
        "--minimize", "--trace", str(trace),
    ])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines
    recs = [json.loads(line) for line in lines]
    for rec in recs:
        assert set(rec) == {
            "guess", "path", "kind", "mu", "pivot", "case", "answer", "reductions",
        }
    assert any(rec["path"] == "" for rec in recs)


def test_solve_accepts_external_fvs_file(tmp_path, capsys):
    g = cycle(6)
    gp = tmp_path / "c6.gr"
    gp.write_text(emit_graph(g))
    fp = tmp_path / "fvs.txt"
    fp.write_text("1 4\n")
    rc = main(["solve", "--input", str(gp), "--k", "1",
               "--fvs", str(fp), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["stats"]["fvs_size"] == 2


@pytest.mark.parametrize("fvs", ["exists", "missing"])
def test_solve_rejects_an_fvs_file_on_dis_input(tmp_path, fvs, capsys):
    p = tmp_path / "base.dis"
    p.write_text(emit_dis(base_case_instance(3)))
    fp = tmp_path / "fvs.txt"
    if fvs == "exists":
        fp.write_text("1\n")
    rc = main(["solve", "--input", str(p), "--fvs", str(fp)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: --fvs applies to graph input only" in captured.err


def test_oracle_graph_and_dis(c5_file, tmp_path, capsys):
    assert main(["oracle", "--input", c5_file, "--k", "1"]) == 0
    assert "status: yes" in capsys.readouterr().out
    assert main(["oracle", "--input", c5_file, "--k", "0"]) == 1
    capsys.readouterr()

    inst, _site = gadget_tent_branch()
    p = tmp_path / "tent.dis"
    p.write_text(emit_dis(inst))
    rc = main(["oracle", "--input", str(p), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 2


def test_oracle_honours_the_budget_override_on_dis_files(tmp_path, capsys):
    p = tmp_path / "base.dis"
    assert main(["gen", "--kind", "base-case", "--seed", "3", "--out", str(p)]) == 0
    # the file's own budget fits a solution of size 2, which k = 0 does not
    for k in range(4):
        solve_rc = main(["solve", "--input", str(p), "--k", str(k)])
        assert main(["oracle", "--input", str(p), "--k", str(k)]) == solve_rc, k
    assert main(["oracle", "--input", str(p), "--k", "0"]) == 1
    assert main(["oracle", "--input", str(p)]) == 0
    assert "size: 2" in capsys.readouterr().out.splitlines()[-2]


def test_negative_budget_is_input_error_in_oracle_and_verify(c5_file, tmp_path, capsys):
    inst, _site = gadget_tent_branch()
    dis = tmp_path / "tent.dis"
    dis.write_text(emit_dis(inst))
    sol = tmp_path / "sol.txt"
    sol.write_text("1\n")
    for argv in (
        ["oracle", "--input", c5_file, "--k", "-1"],
        ["oracle", "--input", str(dis), "--k", "-1"],
        ["verify", "--input", c5_file, "--solution", str(sol), "--k", "-1"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget must be nonnegative" in captured.err


def test_oracle_minimize_respects_budget_filter(k4_file, capsys):
    assert main(["oracle", "--input", k4_file, "--minimize"]) == 1


def test_verify_valid_and_invalid(c5_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1\n")
    assert main(["verify", "--input", c5_file, "--solution", str(sol),
                 "--k", "1"]) == 0
    assert "valid" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("")
    assert main(["verify", "--input", c5_file, "--solution", str(bad),
                 "--k", "1"]) == 1
    assert "invalid" in capsys.readouterr().out


def test_gen_random_roundtrips(tmp_path, capsys):
    out = tmp_path / "r.gr"
    assert main(["gen", "--kind", "random", "--n", "9", "--m", "14",
                 "--seed", "3", "--out", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert len(g.vertices) == 9


def test_gen_planted_embeds_budget_and_witness(tmp_path, capsys):
    out = tmp_path / "p.gr"
    assert main(["gen", "--kind", "planted", "--n", "15", "--k", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    text = out.read_text()
    g = parse_graph(text)
    k = int(graph_comment_value(text, "k"))
    witness = parse_solution(graph_comment_value(text, "witness"), len(g.vertices))
    assert k == 3
    assert check_solution(g, witness, k)


def test_gen_planted_without_budget_is_input_error(capsys):
    assert main(["gen", "--kind", "planted", "--n", "15", "--seed", "1"]) == 2


def test_gen_subdivided_and_base_case(tmp_path, capsys):
    sub = tmp_path / "s.gr"
    assert main(["gen", "--kind", "subdivided", "--n", "6", "--m", "9",
                 "--seed", "2", "--out", str(sub)]) == 0
    parse_graph(sub.read_text())
    base = tmp_path / "b.dis"
    assert main(["gen", "--kind", "base-case", "--seed", "4",
                 "--out", str(base)]) == 0
    parse_dis_instance(base.read_text())


@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_gen_gadgets_roundtrip(tmp_path, scenario, capsys):
    out = tmp_path / f"g{scenario}.dis"
    assert main(["gen", "--kind", "gadget", "--n", str(scenario),
                 "--out", str(out)]) == 0
    text = out.read_text()
    parse_dis_instance(text)
    assert graph_comment_value(text, "site") is not None


def test_gen_unknown_gadget_scenario(capsys):
    assert main(["gen", "--kind", "gadget", "--n", "99"]) == 2


@pytest.mark.parametrize("kind", ["random", "subdivided"])
@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_gen_negative_size_is_input_error(tmp_path, kind, flag, capsys):
    out = tmp_path / "neg.gr"
    assert main(["gen", "--kind", kind, flag, "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "nonnegative" in capsys.readouterr().err


def test_gen_writes_to_stdout_without_out(capsys):
    assert main(["gen", "--kind", "random", "--n", "5", "--m", "4",
                 "--seed", "0"]) == 0
    parse_graph(capsys.readouterr().out)


def test_bench_writes_expected_csv(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    for seed in (0, 1):
        main(["gen", "--kind", "planted", "--n", "12", "--k", "2",
              "--seed", str(seed), "--out", str(suite / f"p{seed}.gr")])
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    # plain newlines, so line filters such as grep ',yes$' see every row
    assert b"\r" not in out.read_bytes()
    assert main(["bench", "--suite", str(suite)]) == 0
    assert "\r" not in capsys.readouterr().out
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "instance", "n", "m", "k", "fvs_size", "mu0",
        "branch_nodes", "leaves", "fib_bound", "time_ms", "status",
    ]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[-1] in ("yes", "no")
        assert float(row[-2]) >= 0.0
        if row[5] != "" and row[7] != "":
            assert int(row[7]) <= int(row[8])


def test_bench_budget_fallback_flag(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "c5.gr").write_text(emit_graph(cycle(5)))
    assert main(["bench", "--suite", str(suite)]) == 2
    capsys.readouterr()
    assert main(["bench", "--suite", str(suite), "--k", "1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1][3] == "1" and rows[1][-1] == "yes"


def test_bench_reads_a_tab_separated_budget_comment(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "c5.gr").write_text("c\tk 1\n" + emit_graph(cycle(5)))
    assert main(["bench", "--suite", str(suite)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1][3] == "1" and rows[1][-1] == "yes"


@pytest.mark.parametrize("content, detail", [
    (b"hello\n", "line 1: header must come first"),
    (b"c k abc\np ifvs 3 0\n", "'abc'"),
    (b"c k -1\np ifvs 3 0\n", "budget must be nonnegative"),
    (b"\xff\xfe\n", "can't decode"),
    (emit_dis(base_case_instance(3)).encode(), "expected 'p ifvs n m'"),
], ids=["not-a-graph", "k-not-an-integer", "k-negative", "not-utf8", "dis-file"])
def test_bench_input_errors_name_the_file(tmp_path, capsys, content, detail):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.gr").write_text(emit_graph(cycle(5), ["k 1"]))
    (suite / "b.gr").write_bytes(content)
    assert main(["bench", "--suite", str(suite)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: b.gr: ") and detail in err


@pytest.mark.parametrize("old", [None, b"old,bytes\n"], ids=["new-out", "existing-out"])
def test_failed_bench_leaves_no_partial_csv(tmp_path, capsys, old):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.gr").write_text(emit_graph(cycle(5), ["k 1"]))
    (suite / "b.gr").write_text(emit_graph(cycle(5)))  # no 'c k' comment
    out = tmp_path / "bench.csv"
    if old is not None:
        out.write_bytes(old)
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 2
    assert "b.gr" in capsys.readouterr().err
    # no temporary file is left beside --out either
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == (["suite"] if old is None else ["bench.csv", "suite"])
    if old is not None:
        assert out.read_bytes() == old


def test_bench_empty_suite_is_input_error(tmp_path, capsys):
    suite = tmp_path / "empty"
    suite.mkdir()
    assert main(["bench", "--suite", str(suite)]) == 2


# -- malformed input fuzzing -------------------------------------------------
#
# Every header count in the corpus and in the replacement tokens stays at
# 12 or below, so the oracle and the solver answer in milliseconds.

_FUZZ_BASE_SEEDS = [
    s for s in range(200)
    if len((g := base_case_instance(s, max_pairs=4).graph).vertices) <= 12
    and g.num_edges <= 12
]
_FUZZ_TOKENS = ["-1", "-12", "x", "2.5", "1e3", "p", "W", "R", "k", "e", "0", "1", "12"]
_FUZZ_LINES = [
    "e 1 2", "e 1 1", "e 0 1", "W 1", "R 2", "k 1", "k -1", "c note",
    "p ifvs 3 1", "p disifvs 2 0", "e", "W", "k", "x y z", "{",
]
_FUZZ_SOLUTIONS = [
    "1 2\n", "\n", "3\n",
    '{"status": "yes", "solution": [1], "size": 1, "stats": {}}\n',
]


@st.composite
def _fuzz_text(draw, base: str) -> str:
    lines = base.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["token", "delete", "duplicate", "insert", "shuffle"]))
        if op == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_FUZZ_LINES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "token":
            tok = lines[i].split() or [""]
            tok[draw(st.integers(0, len(tok) - 1))] = draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = " ".join(tok)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines = draw(st.permutations(lines))
    return "\n".join(lines) + "\n"


@st.composite
def _fuzz_case(draw) -> tuple[str, str]:
    kind = draw(st.sampled_from(["graph", "base-case", "gadget"]))
    if kind == "graph":
        g = random_multigraph(draw(st.integers(0, 10)), draw(st.integers(0, 12)),
                              draw(st.integers(0, 999)))
        base = emit_graph(g)
    elif kind == "base-case":
        base = emit_dis(base_case_instance(draw(st.sampled_from(_FUZZ_BASE_SEEDS)), max_pairs=4))
    else:
        base = emit_dis(GADGETS[draw(st.sampled_from([1, 2, 3]))]()[0])
    solution = draw(st.sampled_from(_FUZZ_SOLUTIONS))
    if draw(st.booleans()):
        solution = draw(_fuzz_text(solution))
    return draw(_fuzz_text(base)), solution


@settings(max_examples=200, deadline=None)
@given(_fuzz_case())
def test_malformed_files_exit_zero_one_or_two_without_a_traceback(case):
    text, solution = case
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "input.txt"
        sol = Path(tmp) / "solution.txt"
        inp.write_text(text)
        sol.write_text(solution)
        codes = {}
        for argv in (
            ["solve", "--input", str(inp), "--k", "2"],
            ["oracle", "--input", str(inp), "--k", "2"],
            ["verify", "--input", str(inp), "--solution", str(sol), "--k", "2"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = codes[argv[0]] = main(argv)
            assert rc in (0, 1, 2), (argv[0], rc, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv[0]
            if rc == 2:
                assert err.getvalue().startswith("error:"), (argv[0], err.getvalue())
        # both read the same file at the same budget, so they answer alike
        assert codes["solve"] == codes["oracle"]
