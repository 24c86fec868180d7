"""Benchmark of the fellbundles CLI: four ladders under a per-rung budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  A closed loop: one client runs one `fellbundles` command
(a rung) at a time, each in a fresh child capped at 3 GiB of address space
and 30 s of wall time.  Inputs are built from --seed at set-up.

--trace 0 repeats rounds of two passes over the rungs until S seconds have
been measured: one pass runs each rung as a `fellbundles` subprocess, the
other runs them through cli.run_command inside one capped child that imports
once.  It reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced in-process pass and reports the per-layer metrics.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it give the machine, every rung outcome and
each timing's sample count.  A full record goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time

import budget
import child
import ladder
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CLI_MAIN = "from fellbundles.cli import main; main()"
SETUP_SAMPLES = 7
MEASURE_DEADLINE_S = 140.0  # no rung starts later than this; every run ends well within 180 s
RUNG_DEADLINE_S = 150.0
CLOSE_ATOL = 1e-8


class Run:
    """State of one benchmark run: inputs, expectations and every rung outcome."""

    def __init__(self, workload: str, seed: int, workdir: str, env: dict):
        self.started = time.monotonic()
        self.workload, self.workdir, self.env = workload, workdir, env
        self.rungs = ladder.build(workload, workdir, seed)
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)["rungs"]
        self.first_output: dict[str, tuple] = {}
        self.outcomes: list[dict] = []
        self.setup_errors: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def rung_timeout(self) -> float:
        return min(budget.TIME_BUDGET_S, RUNG_DEADLINE_S - self.elapsed())

    # outcome of one completed command

    def judge(self, rung: ladder.Rung, rc: int, stdout: str, written: str | None) -> str:
        first = self.first_output.setdefault(rung.id, (stdout, written))
        exp = self.expected[rung.id]
        if rc != exp["exit"] or not fields_match(stdout, exp):
            return "wrong_output"
        if first != (stdout, written):
            return "nondeterministic"
        return "ok"

    def record(self, mode: str, npass: int, rung: ladder.Rung, status: str,
               seconds: float, maxrss_mb: float | None = None, detail: str = "") -> dict:
        out = {"mode": mode, "pass": npass, "id": rung.id, "status": status,
               "seconds": seconds, "charged_s": seconds if status == "ok" else budget.TIME_BUDGET_S,
               "maxrss_mb": maxrss_mb, "detail": detail[-400:]}
        self.outcomes.append(out)
        return out

    def _clear_written(self, rung: ladder.Rung) -> None:
        if rung.writes:
            path = os.path.join(self.workdir, rung.writes)
            if os.path.exists(path):
                os.remove(path)

    # the three kinds of child

    def setup_probe(self) -> float | None:
        pairs = sorted({f"{kind}:{path}" for r in self.rungs for kind, path in r.inputs})
        res = budget.run_child([sys.executable, os.path.join(HERE, "child.py"), "parse", *pairs],
                               self.workdir, self.env, self.rung_timeout())
        if res.returncode != 0:
            self.setup_errors.append(budget.classify_child(res) or res.stderr[-400:])
            return None
        return res.seconds

    def subprocess_pass(self, npass: int) -> list[dict]:
        out = []
        for rung in self.rungs:
            self._clear_written(rung)
            timeout = self.rung_timeout()
            if timeout <= 0:
                out.append(self.record("subprocess", npass, rung, "timeout", 0.0))
                continue
            res = budget.run_child([sys.executable, "-c", CLI_MAIN, *rung.argv],
                                   self.workdir, self.env, timeout)
            status = budget.classify_child(res)
            if status is None:
                written = child.file_digest(
                    os.path.join(self.workdir, rung.writes) if rung.writes else None)
                status = self.judge(rung, res.returncode,
                                    res.stdout.decode("utf-8", "replace"), written)
            out.append(self.record("subprocess", npass, rung, status, res.seconds,
                                   res.maxrss_mb, res.stderr if status != "ok" else ""))
        return out

    def inproc_pass(self, npass: int, trace_file: str | None = None):
        """One pass through cli.run_command; returns the outcomes and the trace summary.

        A child killed over its time budget takes its spans with it, so the
        summary then covers only the rungs after the last kill.
        """
        argv = [sys.executable, os.path.join(HERE, "child.py"), "serve"]
        if trace_file:
            argv.append(trace_file)
        mode = "traced" if trace_file else "inproc"
        out, summary, worker = [], {}, None
        try:
            for rung in self.rungs:
                self._clear_written(rung)
                timeout = self.rung_timeout()
                if timeout <= 0:
                    out.append(self.record(mode, npass, rung, "timeout", 0.0))
                    continue
                if worker is None:
                    try:
                        worker = budget.InprocChild(argv, self.workdir, self.env)
                    except (TimeoutError, EOFError):
                        out.append(self.record(mode, npass, rung, "crash", 0.0,
                                               detail="in-process child did not start"))
                        continue
                    check_import(worker.ready["fellbundles"])
                try:
                    worker.send({"id": rung.id, "argv": list(rung.argv), "writes": rung.writes})
                    msg = worker.next_line(timeout)
                except (TimeoutError, EOFError, BrokenPipeError) as exc:
                    worker.kill()
                    worker = None
                    status = "timeout" if isinstance(exc, TimeoutError) else "crash"
                    out.append(self.record(mode, npass, rung, status, timeout))
                    continue
                status = msg["failure"] or self.judge(rung, msg["rc"], msg["stdout"],
                                                      msg["written"])
                out.append(self.record(mode, npass, rung, status, msg["seconds"],
                                       detail=msg["detail"]))
            if worker is not None and trace_file:
                summary = worker.finish(60.0)["summary"]
                worker = None
        finally:
            if worker is not None:
                worker.close()
        return out, summary


def check_import(path: str) -> None:
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: fellbundles imported from {path}, not from {SRC}")


def resolve(report, path: str):
    for key in path.split("/"):
        report = report[int(key)] if isinstance(report, list) else report[key]
    return report


def fields_match(stdout: str, exp: dict) -> bool:
    """The committed, seed-independent fields of a report: exact, or close for numbers."""
    import numpy as np
    try:
        report = json.loads(stdout)
        if any(resolve(report, p) != v for p, v in exp.get("equal", {}).items()):
            return False
        return all(np.allclose(resolve(report, p), v, rtol=0.0, atol=CLOSE_ATOL)
                   for p, v in exp.get("close", {}).items())
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def timing(samples) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    stats = {"median": statistics.median(xs) if xs else None, "n": n,
             "percentile": None, "percentile_value": None}
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        stats["percentile"] = p
        stats["percentile_value"] = xs[max(math.ceil(p * n / 100) - 1, 0)]
    return stats


def machine(threads: int, seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ram_kb = 0
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                ram_kb = int(line.split()[1])
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "nproc": os.cpu_count(), "ram_gib": round(ram_kb / 2**20, 2),
            "memory_budget_gib": budget.MEMORY_BUDGET_BYTES / 2**30,
            "time_budget_s": budget.TIME_BUDGET_S, "seed": seed,
            "platform": platform.platform()}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def pass_total(outcomes, key: str = "charged_s") -> float:
    return sum(o[key] for o in outcomes)


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = [s for s in (run.setup_probe() for _ in range(SETUP_SAMPLES)) if s is not None]
    walls, inprocs, peaks = [], [], []
    start, npass = time.monotonic(), 0
    while npass == 0 or (run.elapsed() < MEASURE_DEADLINE_S and (
            npass < ladder.MIN_ROUNDS[run.workload] or time.monotonic() - start < seconds)):
        sub = run.subprocess_pass(npass)
        walls.append(pass_total(sub))
        peaks.append(max(o["maxrss_mb"] or 0.0 for o in sub))
        inprocs.append(pass_total(run.inproc_pass(npass)[0]))
        npass += 1
    stats = {"setup_s": timing(setup), "wall_s": timing(walls),
             "inproc_wall_s": timing(inprocs), "peak_rss_mb": timing(peaks)}
    values = {name: st["median"] for name, st in stats.items()}
    values["ok_frac"] = sum(o["status"] == "ok" for o in run.outcomes) / len(run.outcomes)
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, stats


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "inproc_wall_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "s": "s", "max_array_mb": "MB",
                   "element_ops": "count", "parse_s": "s", "ideal_candidates": "count"}


def per_layer_metrics(summary: dict, overhead_frac: float) -> dict:
    """Every per-layer metric as name -> (value, unit); layers that did not run read 0."""
    summary = {**tracer.summarize([]), **summary}
    found = summary.pop("duality.ideals_found")
    metrics = {key: (val, PER_LAYER_UNITS[key.rsplit(".", 1)[1]]) for key, val in summary.items()}
    cands = summary["duality.ideal_candidates"]
    metrics["duality.ideal_hit_ratio"] = (found / cands if cands else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics


def measure_traced(run: Run, trace_file: str) -> tuple[dict, dict]:
    plain, _ = run.inproc_pass(0)
    traced, summary = run.inproc_pass(1, trace_file)
    base, with_trace = pass_total(plain, "seconds"), pass_total(traced, "seconds")
    stats = {"untraced_inproc_s": base, "traced_inproc_s": with_trace}
    return per_layer_metrics(summary, (with_trace - base) / base), stats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=ladder.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fellbundles", "__init__.py")):
        print(f"perfbench: {SRC}/fellbundles is missing; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fellbundles
    check_import(fellbundles.__file__)

    threads = min(2, os.cpu_count() or 1)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        run = Run(args.workload, args.seed, workdir, child_env(threads))
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, stats = measure_traced(run, os.path.join(out_dir, f"{tag}.spans.json.gz"))
        else:
            metrics, stats = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in run.outcomes if o["status"] != "ok"]
    bad = {"wrong_output", "nondeterministic", "crash"}
    correct = not run.setup_errors and not any(o["status"] in bad for o in failed)
    result = {"correct": correct, "attempted": len(run.outcomes), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "machine": machine(threads, args.seed),
              "stats": stats, "setup_errors": run.setup_errors,
              "outcomes": run.outcomes, "result": result}
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for o in run.outcomes:
        print(f"rung {o['mode']:10s} {o['pass']} {o['id']:28s} {o['status']:16s} "
              f"{o['seconds']:8.3f}s" + (f" {o['maxrss_mb']:7.0f}MB" if o["maxrss_mb"] else ""))
    for name, st in stats.items():
        print(f"timing {name} {json.dumps(st, sort_keys=True)}")
    for err in run.setup_errors:
        print(f"setup error: {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
