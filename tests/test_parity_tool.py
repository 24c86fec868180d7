"""tools/parity.py: a rung whose outputs differ only in float values is
summarised in one line rather than a text diff, and each tree's peak RSS on a
workload is named with the rung that reached it."""

import importlib.util
import json
import math
import sys
from pathlib import Path

from fellbundles import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
SRC = TOOL.parent.parent / "src"
_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def record(code, report, written=None):
    return {"code": code, "stdout": json.dumps(report, sort_keys=True, indent=2) + "\n",
            "written": written}


def test_float_drift_finds_the_largest_change_and_its_path():
    a = {"pass": True, "iso": {"res": [1e-16, 2.0]}, "twist_residual": 3e-16}
    b = {"pass": True, "iso": {"res": [2e-16, 2.0]}, "twist_residual": 1.4e-15}
    drift, path = parity.float_drift(json.dumps(a), json.dumps(b))
    assert math.isclose(drift, 1.1e-15, rel_tol=1e-9) and path == "$.twist_residual"


def test_float_drift_is_none_for_any_other_difference():
    base = {"pass": True, "dims": [1, 2], "res": 0.5}
    for other in [{"pass": False, "dims": [1, 2], "res": 0.5},  # a bool
                  {"pass": True, "dims": [1, 3], "res": 0.5},  # an int
                  {"pass": True, "dims": [1, 2, 3], "res": 0.5},  # a length
                  {"pass": True, "dims": [1, 2], "res": "0.5"},  # a type
                  {"pass": True, "dims": [1, 2], "r": 0.5}]:  # a key
        assert parity.float_drift(json.dumps(base), json.dumps(other)) is None
    assert parity.float_drift("not json", "{}") is None
    assert parity.float_drift(None, "{}") is None


def test_float_drift_reads_nan_against_a_number_as_infinite():
    drift, path = parity.float_drift('{"a": NaN, "b": 1.0}', '{"a": 0.0, "b": 2.0}')
    assert drift == math.inf and path == "$.a"
    assert parity.float_drift('{"a": NaN, "b": 1.0}', '{"a": NaN, "b": 1.5}') == (0.5, "$.b")


def test_describe_prints_one_line_for_a_floats_only_change():
    a = record(0, {"pass": True, "twist": [[0.5, 1e-16]]})
    b = record(0, {"pass": True, "twist": [[0.5, -2e-16]]})
    assert parity.describe(a, b) == ["  stdout: floats only, largest |Δ| = 3e-16 at $.twist[0][1]"]


def test_describe_keeps_the_text_diff_otherwise():
    a, b = record(0, {"pass": True}), record(1, {"pass": False})
    lines = parity.describe(a, b)
    assert lines[:2] == ["  code: 0 -> 1", "  stdout:"]
    assert '-  "pass": true' in [line.strip() for line in lines]


def test_peak_line_names_the_rung_that_raised_the_high_water_mark():
    records = [{"maxrss_mb": 50.0}, {"maxrss_mb": 118.84}, {"maxrss_mb": 118.84}]
    assert (parity.peak_line("frontier", "base", ["verify.a", "report.b", "verify.c"], records)
            == "frontier: base peak RSS 118.8 MB at report.b")


def test_the_child_records_max_rss_after_each_rung(tmp_path, monkeypatch, pauli_bundle):
    spec = tmp_path / "pauli.json"
    spec.write_text(json.dumps(cli.bundle_to_spec(pauli_bundle, {"kind": "cyclic", "n": 2})))
    monkeypatch.chdir(tmp_path)  # run_rungs changes into its work directory
    monkeypatch.setattr(sys, "path", list(sys.path))  # and puts src on sys.path
    records = parity.run_rungs(str(SRC), str(tmp_path),
                               [(["gsimple", "pauli.json"], None), (["report", "pauli.json"], None)])
    assert [r["code"] for r in records] == [0, 0]
    rss = [r["maxrss_mb"] for r in records]
    assert 0 < rss[0] <= rss[1]


def test_tree_results_starts_one_child_per_rung(tmp_path, monkeypatch):
    # each child's ru_maxrss is then the peak of its one rung
    class Rung:
        def __init__(self, rung_id, argv, writes=None):
            self.id, self.argv, self.writes = rung_id, argv, writes

    rungs = [Rung("pullback", ["pullback", "d.json", "-o", "p.json"], "p.json"),
             Rung("verify", ["verify", "p.json"])]
    payloads = []

    def fake_run(cmd, input, **kwargs):  # noqa: A002 - subprocess.run's name
        job = json.loads(input)
        payloads.append(job)
        return parity.subprocess.CompletedProcess(cmd, 0, json.dumps(
            [{"code": 0, "stdout": "", "written": None, "maxrss_mb": 10.0 * len(payloads)}]), "")

    monkeypatch.setattr(parity.subprocess, "run", fake_run)
    (tmp_path / "d.json").write_text("{}")
    records = parity.tree_results(str(SRC), str(tmp_path), rungs)
    assert [job["rungs"] for job in payloads] == [[[r.argv, r.writes]] for r in rungs]
    assert payloads[0]["workdir"] == payloads[1]["workdir"]  # the second reads the first's file
    assert [r["maxrss_mb"] for r in records] == [10.0, 20.0]
