"""Smoke test of the benchmark's own code on the smallest rung.

    python3 -m pytest -q perfbench/test_smoke.py

Kept out of the tier-1 suite (pytest's testpaths is tests/); it takes a
few seconds and times nothing.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

import pytest

import budget
import run
import tracer

sys.path.insert(0, run.SRC)
SMALLEST = "obstruction.s3"


@pytest.fixture()
def duality_run(tmp_path):
    r = run.Run("duality", 7, str(tmp_path), run.child_env(1))
    r.rungs = [g for g in r.rungs if g.id == SMALLEST]
    return r


def test_every_rung_has_an_expected_outcome(tmp_path):
    for workload in run.ladder.WORKLOADS:
        wd = tmp_path / workload
        wd.mkdir()
        r = run.Run(workload, 3, str(wd), run.child_env(1))
        assert {g.id for g in r.rungs} <= set(r.expected)


def test_subprocess_and_inproc_pass_on_the_smallest_rung(duality_run, tmp_path):
    sub = duality_run.subprocess_pass(0)
    inproc, summary = duality_run.inproc_pass(0, str(tmp_path / "spans.json.gz"))
    assert [o["status"] for o in sub + inproc] == ["ok", "ok"]
    assert sub[0]["maxrss_mb"] > 0
    assert summary["cli.calls"] >= 2 and summary["cli.parse_s"] > 0
    with gzip.open(tmp_path / "spans.json.gz", "rt") as fh:
        trace = json.load(fh)
    assert trace["rungs"] == [SMALLEST]
    assert len(trace["spans"]) == sum(summary[f"{layer}.calls"] for layer in tracer.LAYERS)


def test_judge_flags_wrong_and_changed_output(duality_run):
    rung = duality_run.rungs[0]
    assert duality_run.subprocess_pass(0)[0]["status"] == "ok"
    stdout, written = duality_run.first_output[rung.id]
    assert duality_run.judge(rung, 0, stdout, written) == "ok"
    assert duality_run.judge(rung, 0, stdout + " ", written) == "nondeterministic"
    assert duality_run.judge(rung, 1, stdout, written) == "wrong_output"
    assert duality_run.judge(rung, 0, "{}", written) == "wrong_output"


def test_budget_runner_classifies_memory_and_time(tmp_path):
    env = run.child_env(1)
    big = budget.run_child([sys.executable, "-c", "import numpy; numpy.ones(2**32)"],
                           str(tmp_path), env, 30.0)
    assert big.returncode == 1 and budget.classify_child(big) == "exceeds_budget"
    slow = budget.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                            str(tmp_path), env, 0.5)
    assert slow.returncode is None and budget.classify_child(slow) == "timeout"
    crash = budget.run_child([sys.executable, "-c", "raise ValueError('x')"],
                             str(tmp_path), env, 30.0)
    assert budget.classify_child(crash) == "crash"


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    emitted = {k: u for k, (_, u) in run.per_layer_metrics({}, 0.0).items()}
    assert emitted == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.ladder.WORKLOADS)


def test_self_time_and_outermost():
    # a(0..10) contains b(1..4) which contains a(2..3); c(5..6) is a second child of a
    spans = [["a", "x", 0.0, 10.0, -1, None, 0, None],
             ["b", "y", 1.0, 4.0, 0, None, 0, None],
             ["a", "x", 2.0, 3.0, 1, None, 0, None],
             ["c", "y", 5.0, 6.0, 0, None, 0, None]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert [s[tracer.START] for s in tracer.outermost(spans, {"a"})] == [0.0]
    assert [s[tracer.START] for s in tracer.outermost(spans, {"b", "c"})] == [1.0, 5.0]


def test_array_size_looks_into_bundles_and_subspaces():
    import numpy as np
    from fellbundles import GradedBundle, cyclic
    from fellbundles.matrices import MatrixSubspace
    small = MatrixSubspace(2, np.eye(2, dtype=complex)[None])
    big = MatrixSubspace(2, np.ones((3, 2, 2), dtype=complex))
    tr = tracer.Tracer()
    assert tr.largest_array(GradedBundle(cyclic(2), (small, big))) == big.basis.nbytes
    assert tr.largest_array([small, np.zeros(5)], {"x": big}) == big.basis.nbytes
    assert tr.largest_array(cyclic(3), 7, "s") == 0


def test_timing_percentile_needs_ten_samples_beyond():
    assert run.timing([1.0] * 10)["percentile"] is None
    st = run.timing([float(i) for i in range(40)])
    assert st["n"] == 40 and st["percentile"] == 75
    assert sum(x > st["percentile_value"] for x in range(40)) >= 10
