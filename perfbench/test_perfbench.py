"""Tests of the benchmark itself: seeded inputs, repeatable accuracy metrics,
and tracing that leaves no wrapper behind.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness

harness.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_PY = Path(__file__).resolve().parent / "run.py"


def _first_period(wl):
    return dataclasses.replace(wl, ops=wl.ops[:wl.period])


def test_command_line_offers_every_workload():
    import run
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name):
    a = [op.inputs for op in workloads.build(name, 3).ops]
    b = [op.inputs for op in workloads.build(name, 3).ops]
    c = [op.inputs for op in workloads.build(name, 4).ops]
    assert a == b
    assert a != c
    assert len(a) % workloads.build(name, 3).period == 0


def test_anchors_do_not_depend_on_the_seed():
    coh3 = {op.inputs for op in workloads.build("coherence", 3).ops}
    coh4 = {op.inputs for op in workloads.build("coherence", 4).ops}
    assert {op.inputs for op in workloads.coherence_anchors()} <= coh3 & coh4
    cor3 = {op.inputs for op in workloads.build("correlation", 3).ops}
    cor4 = {op.inputs for op in workloads.build("correlation", 4).ops}
    assert {op.inputs for op in workloads.correlation_anchors()} <= cor3 & cor4


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_accuracy_metrics_repeat_exactly(name):
    wl = _first_period(workloads.build(name, 5))
    runs = []
    for _ in range(2):
        outcome = harness.timed_run(wl, 0.0)
        assert len(outcome.slowdowns) == outcome.attempted
        metrics, info = harness.end_to_end(outcome, [1.0])
        runs.append((info["fail_frac"], metrics["anchor_err_max"], metrics["bound_mean"]))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0.0


def test_timings_are_taken_at_reference_speed():
    outcome = harness.Outcome(latencies=[0.2, 0.3, 0.4], slowdowns=[2.0, 1.5, 1.0],
                              bounds=[0.5])
    assert outcome.scaled == pytest.approx([0.1, 0.2, 0.4])
    metrics, info = harness.end_to_end(outcome, [1.0])
    assert metrics["latency_p50_ms"][0] == pytest.approx(200.0)
    assert metrics["ops_per_s"][0] == pytest.approx(3 / 0.7)
    assert info["wall"]["latency_p50_ms"] == pytest.approx(300.0)
    assert harness.slowdown() > 0


def test_tail_latency_leaves_ten_beyond():
    lat = [float(i) for i in range(100)]
    value, pct = harness.tail_latency(lat)
    assert sum(x > value for x in lat) == harness.TAIL_BEYOND
    assert pct == 90.0
    assert harness.tail_latency([1.0, 2.0]) == (2.0, 100.0)


def test_tracer_records_spans_and_removes_its_wrappers(tmp_path):
    wl = _first_period(workloads.build("certify", 1))
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "resourcekit.affinity._frac_power_raw" in tracing.installed_wrappers()
        assert "resourcekit.verify.channel_apply" in tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    plain, traced = harness.paired_pass(wl, tracer)
    assert tracing.installed_wrappers() == []
    assert plain.failed == traced.failed == 0
    assert plain.bounds == traced.bounds
    summary = tracer.summary()
    assert summary["bench.op"]["calls"] == len(wl.ops)
    assert summary["states._frac_power_raw"]["calls"] > 0
    for entry in summary.values():
        assert 0 <= entry["self_ns"] <= entry["total_ns"] or entry["total_ns"] == 0
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(tracer.spans)
    assert all(r["parent"] < r["id"] for r in rows)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0, 100, -1, 0, False, None],
                    ["inner", 10, 40, 0, 0, False, None],
                    ["inner", 50, 70, 0, 0, False, None]]
    summary = tracer.summary()
    assert summary["outer"]["self_ns"] == 50
    assert summary["inner"]["total_ns"] == 50


def test_missing_library_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for src in RUN_PY.parent.glob("*.py"):
        (bench / src.name).write_text(src.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
