"""Tests of the bookkeeping in run.py.

    python3 -m pytest perfbench
"""

import json

import pytest

import run


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_self_time_subtracts_children_of_the_same_run():
    spans = [
        {"run": "a", "id": 1, "parent": 0, "start": 0.0, "end": 10.0},
        {"run": "a", "id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"run": "a", "id": 3, "parent": 2, "start": 2.0, "end": 3.0},
        {"run": "b", "id": 2, "parent": 0, "start": 0.0, "end": 5.0},
    ]
    run.self_times(spans)
    assert [s["self"] for s in spans] == [7.0, 2.0, 1.0, 5.0]


def test_report_counters_sum_both_colors():
    text = "\n".join([
        "command: find-copy", "red: absent", "red_nodes: 10", "red_prune_root-gap: 1",
        "red_prune_cardinality-window: 40", "blue: found", "blue_embedding:", "  {} -> {}",
    ])
    rec = run.Record("x", 0.0, 0.0, text, [], [])
    c = run.report_counters([rec])
    assert c["search.nodes"] == 10 and c["search.window_rejects"] == 40
    assert c["search.root_gap_rejects"] == 1 and c["search.accept_ratio"] == 0.2
    assert c["search.found"] == 1 and c["search.absent"] == 1


def test_tracer_refuses_a_missing_wrap_point(monkeypatch):
    import traced

    monkeypatch.setattr(traced, "WRAP_POINTS", [("json", "no_such_call", "x.y", None)])
    with pytest.raises(AttributeError):
        traced.Tracer("r").install()
