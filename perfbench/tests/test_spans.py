"""Self-time arithmetic on nested and forked spans."""

import pytest

import spans


def span(span_id, parent, name, start, end, pid=1):
    return {"id": span_id, "parent": parent, "name": name, "pid": pid, "tid": 1,
            "start": start, "end": end}


def test_nested_self_time_subtracts_children():
    tree = [
        span("a", None, "executor.map_snapshots", 0.0, 10.0),
        span("b", "a", "stages.scan", 1.0, 4.0),
        span("c", "b", "datasets.scan", 2.0, 3.5),
        span("d", "a", "stages.match", 5.0, 6.0),
    ]
    own = spans.self_times(tree)
    assert own["a"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["b"] == pytest.approx(3.0 - 1.5)
    assert own["c"] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_are_clipped():
    tree = [
        span("a", None, "serve.ingest_once", 0.0, 4.0),
        span("b", "a", "footprint_index.fold", 1.0, 3.0),
        span("c", "a", "footprint_index.fold", 2.0, 5.0),
    ]
    assert spans.self_times(tree)["a"] == pytest.approx(1.0)


def test_forked_children_are_linked_but_not_subtracted():
    tree = [
        span("p:1", None, "executor.map_snapshots", 0.0, 10.0, pid=1),
        span("w:1", "p:1", "executor.run_shard", 1.0, 8.0, pid=2),
        span("w:2", "w:1", "stages.scan", 2.0, 5.0, pid=2),
        span("v:1", "p:1", "executor.run_shard", 1.5, 9.0, pid=3),
    ]
    own = spans.self_times(tree)
    assert own["p:1"] == pytest.approx(10.0)
    assert own["w:1"] == pytest.approx(7.0 - 3.0)
    totals = spans.layer_totals(tree)
    assert totals["executor"]["calls"] == 3
    assert totals["executor"]["self_s"] == pytest.approx(10.0 + 4.0 + 7.5)
    assert totals["stages.scan"]["self_s"] == pytest.approx(3.0)
    # Coverage of the parent's wall counts only the parent's own spans.
    assert spans.coverage(tree, 1, (0.0, 10.0)) == pytest.approx(10.0)
    assert spans.coverage(tree, 2, (0.0, 10.0)) == pytest.approx(7.0)


def test_coverage_leaves_gaps_unattributed():
    tree = [
        span("a", None, "header_fingerprint.header_rules", 0.0, 1.0),
        span("b", None, "executor.map_snapshots", 1.5, 9.0),
        span("c", "b", "stages.scan", 2.0, 3.0),
    ]
    assert spans.coverage(tree, 1, (0.0, 10.0)) == pytest.approx(8.5)


def test_tracer_records_parents_and_counters():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: 2, "datasets.scan", after=lambda args, result: {"rows": result})
    outer = tracer.wrap(lambda: inner() + 1, "stages.scan")
    assert outer() == 3
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["datasets.scan"]["parent"] == by_name["stages.scan"]["id"]
    assert by_name["stages.scan"]["parent"] is None
    assert tracer.counters["rows"] == 2


def test_chrome_trace_events():
    tree = [span("a", None, "stages.scan", 1.0, 1.5)]
    event = spans.chrome_trace(tree, origin=1.0)["traceEvents"][0]
    assert event["ph"] == "X" and event["cat"] == "stages"
    assert event["ts"] == 0.0 and event["dur"] == pytest.approx(5e5)
    assert event["args"] == {"id": "a", "parent": None}
