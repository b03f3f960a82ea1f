"""Tests of the benchmark itself, not of the solver.

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import manifest as mf  # noqa: E402

mf.import_solver()

import run  # noqa: E402
from spans import Tracer, installed_wrappers  # noqa: E402

MANIFEST = mf.load_manifest()


def _smallest_per_workload() -> list[dict]:
    """The cheapest op of each workload, so every layer is exercised fast."""
    return [
        min(mf.op_list(MANIFEST, w, 0), key=lambda e: (len(e["text"]), e["id"]))
        for w in mf.BUILDERS
    ]


SMALL = _smallest_per_workload()


def test_manifest_regenerates_byte_identical():
    assert mf.dump(mf.build_manifest()) == mf.MANIFEST_PATH.read_text()


def test_op_list_is_a_function_of_the_seed():
    for w in mf.BUILDERS:
        a, b = mf.op_list(MANIFEST, w, 3), mf.op_list(MANIFEST, w, 3)
        assert [e["id"] for e in a] == [e["id"] for e in b]
        dev = {e["id"] for e in MANIFEST["workloads"][w]["dev"]}
        held = mf.op_list(MANIFEST, w, MANIFEST["holdout_seed"])
        assert held and not {e["id"] for e in held} & dev


def test_no_wrapper_left_installed_after_a_traced_run():
    assert installed_wrappers() == []
    run.traced_pass(SMALL)
    assert installed_wrappers() == []
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert installed_wrappers()
            1 / 0
    assert installed_wrappers() == []


def test_per_layer_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer, results, failed, untraced_s = run.traced_pass(SMALL)
        assert failed == 0
        m = run.per_layer(tracer, results, untraced_s)
        counts.append({k: m[k] for k, unit in run.per_layer_metrics() if unit != "ms"})
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["trace.ops"] == len(SMALL)
    for layer in ("pipeline.guesses_tried", "branching.nodes", "reductions.fixpoint_calls",
                  "instance.measure_calls", "multigraph.copy_calls",
                  "basecase.solve_base_calls", "basecase.pairs"):
        assert c[layer] > 0, layer
    assert c["reductions.fixpoint_calls"] == c["branching.nodes"]


def test_per_layer_metrics_match_benchmark_json_and_layers_json():
    tracer, results, failed, untraced_s = run.traced_pass(SMALL[:1])
    names = [name for name, _ in run.per_layer_metrics()]
    assert sorted(run.per_layer(tracer, results, untraced_s)) == sorted(names)
    layers = json.loads((Path(run.HERE) / "layers.json").read_text())
    assert list(run.layer_names()) == list(layers["layer_time"])
    listed = [m for entry in layers["layers"] for m in entry["metrics"]]
    listed += [m for ms in layers["layer_time"].values() for m in ms]
    assert set(listed) <= set(names)


def test_self_times_sum_to_no_more_than_op_wall():
    for entry in SMALL:
        tracer = Tracer()
        with tracer:
            tracer.op(run.solve_op, entry, tracer.span)
        (wall,) = tracer.op_walls
        inner = sum(s for name, s in tracer.self_s.items() if name != "op")
        assert 0 < inner <= wall
        assert all(s >= 0 for s in tracer.self_s.values())
        assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)


@pytest.mark.parametrize("field, wrong", [("status", "flip"), ("size", +1)])
def test_wrong_expectation_counts_as_failed(field, wrong):
    entry = next(e for e in SMALL if e["mode"] == "minimize")
    bad = copy.deepcopy(entry)
    if field == "status":
        bad["expect"]["status"] = "no" if entry["expect"]["status"] == "yes" else "yes"
    else:
        bad["expect"]["size"] += wrong
    result = run.run_timed([entry, bad], seconds=1e-9)
    assert result["attempted"] == 2 and result["failed"] == 1
    result = run.run_timed([bad], seconds=1e-9)
    assert result["attempted"] == 1 and result["failed"] == 1
    metrics, lines = run.end_to_end(result, setup_s=(1.0, 1.0))
    assert any(line.startswith("failed_frac") and "1.0000" in line for line in lines)
    assert metrics["solved_per_s"]["value"] == 0.0


def test_op_times_are_scaled_by_the_probes_around_them():
    assert run.scale(0.001 * run.PROBE_REF_MS, 0.001 * run.PROBE_REF_MS) == pytest.approx(1.0)
    assert run.scale(0.002 * run.PROBE_REF_MS, 0.002 * run.PROBE_REF_MS) == pytest.approx(0.5)
    run_ = {"raw_ms": [10.0, 30.0, 40.0], "scaled_ms": [5.0, 15.0, 20.0],
            "attempted": 3, "failed": 0}
    metrics, lines = run.end_to_end(run_, setup_s=(0.5, 1.0))
    assert metrics["solve_ms.p50"]["value"] == 15.0
    assert metrics["solved_per_s"]["value"] == pytest.approx(3 / 0.040)
    assert metrics["setup_s"]["value"] == 0.5
    assert any("raw 30.0000" in line for line in lines)


def test_tail_is_the_nearest_rank_p90():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 10)
    assert run.tail([float(i) for i in range(1, 201)]) == (180.0, 20)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 0)
