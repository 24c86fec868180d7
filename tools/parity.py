#!/usr/bin/env python3
"""Compare the CLI behaviour of two source trees on the benchmark ladder.

    python3 tools/parity.py BASE_SRC NEW_SRC [--workload W]... [--seed N]

BASE_SRC and NEW_SRC are directories holding a `fellbundles` package, e.g.
the `src/` of a clean export of the parent commit and `src/` of the working
tree. The inputs of each workload are built once by `perfbench.ladder.build`,
importing `fellbundles` from BASE_SRC. Each tree then runs every rung in
order through `cli.run_command`, each rung in its own child process whose
address space is capped at 3 GiB, the benchmark's budget, in the tree's own
copy of the inputs (so a rung reads what an earlier rung wrote). A rung that
raises (over the cap, say) records the exception's name in place of an exit
code.

Every rung whose exit code, stdout or written file (`pullback -o`) differs
between the trees is printed with a short diff. When the two texts parse to
the same JSON apart from float values, the diff is one line instead:
`floats only, largest |Δ| = x at <path>`. Each child records its max RSS
(`ru_maxrss`), which is then its one rung's peak, and for each workload one
line per tree gives the largest of these and its rung:
`frontier: new peak RSS 78.1 MB at report.m2.symmetric4`. The exit code is 1
if any rung differs, else 0. Uses the standard library and numpy only.

This compares command outputs only. To run the tier-1 tests against another
tree, run pytest from inside that tree: `pyproject.toml` sets
`pythonpath = ["src"]`, which pytest puts ahead of `PYTHONPATH`, so
`PYTHONPATH=BASE_SRC python3 -m pytest` run here tests this checkout's `src`.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bimodule", "report", "duality", "frontier")
FIELDS = ("code", "stdout", "written")
CAP_BYTES = 3 * 2**30


def run_rungs(src: str, workdir: str, rungs: list) -> list[dict]:
    """Run each (argv, writes) rung in workdir with the `fellbundles` under src."""
    sys.path.insert(0, src)
    from fellbundles import cli

    os.chdir(workdir)
    out = []
    for argv, writes in rungs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run_command(argv)
        except Exception as exc:  # noqa: BLE001 - the outcome is the exception's name
            code = f"raised {type(exc).__name__}"
        written = None
        if writes and os.path.exists(writes):
            with open(writes, encoding="utf-8") as fh:
                written = fh.read()
        out.append({"code": code, "stdout": buf.getvalue(), "written": written,
                    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return out


def tree_results(src: str, inputs: str, rungs) -> list[dict]:
    """The rung records of one tree, each from its own capped child, all working
    in one copy of inputs."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = []
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(inputs, work, dirs_exist_ok=True)
        for r in rungs:
            payload = json.dumps({"src": src, "workdir": work,
                                  "rungs": [[list(r.argv), r.writes]]})
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                                  input=payload, capture_output=True, text=True,
                                  preexec_fn=limit, env=env, check=False)
            if proc.returncode:
                raise SystemExit(f"{src}: the child failed on {r.id}\n{proc.stderr}")
            out += json.loads(proc.stdout)
    return out


def float_drift(a: str | None, b: str | None) -> tuple[float, str] | None:
    """(largest |Δ|, its path) when a and b parse to the same JSON apart from
    float values, else None."""
    try:
        x, y = json.loads(a), json.loads(b)
    except (TypeError, ValueError):
        return None
    worst = [0.0, "$"]

    def same(x, y, path: str) -> bool:
        if isinstance(x, float) and isinstance(y, float):
            if x == y or x != x and y != y:  # equal, or both NaN
                return True
            drift = abs(x - y)
            if not drift <= worst[0]:  # larger, or NaN against a number
                worst[:] = [drift if drift == drift else math.inf, path]
            return True
        if type(x) is not type(y):
            return False
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(same(x[k], y[k], f"{path}.{k}") for k in x)
        if isinstance(x, list):
            return len(x) == len(y) and all(same(u, v, f"{path}[{i}]")
                                            for i, (u, v) in enumerate(zip(x, y)))
        return x == y

    return (worst[0], worst[1]) if same(x, y, "$") else None


def describe(a: dict, b: dict) -> list[str]:
    """Lines naming what differs between two rung records."""
    lines = []
    if a["code"] != b["code"]:
        lines.append(f"  code: {a['code']} -> {b['code']}")
    for field in FIELDS[1:]:
        if a[field] == b[field]:
            continue
        drift = float_drift(a[field], b[field])
        if drift:
            lines.append(f"  {field}: floats only, largest |Δ| = {drift[0]:.3g} at {drift[1]}")
        else:
            diff = difflib.unified_diff((a[field] or "").splitlines(),
                                        (b[field] or "").splitlines(), "base", "new", lineterm="")
            lines.append(f"  {field}:")
            lines.extend(f"    {line}" for line in list(diff)[:12])
    return lines


def peak_line(workload: str, tree: str, ids: list[str], records: list[dict]) -> str:
    """The largest peak RSS of one tree's rungs on a workload, and the first rung
    that reached it."""
    peak = max(r["maxrss_mb"] for r in records)
    rung = next(i for i, r in zip(ids, records) if r["maxrss_mb"] == peak)
    return f"{workload}: {tree} peak RSS {peak:.1f} MB at {rung}"


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--child"]:
        job = json.load(sys.stdin)
        json.dump(run_rungs(job["src"], job["workdir"], job["rungs"]), sys.stdout)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="source directory holding the reference fellbundles")
    p.add_argument("new", help="source directory holding the fellbundles to compare")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="a workload to compare (repeatable; default all four)")
    p.add_argument("--seed", type=int, default=101, help="ladder seed (default 101)")
    args = p.parse_args(argv)
    base, new = os.path.abspath(args.base), os.path.abspath(args.new)
    sys.path[:0] = [base, ROOT]
    from perfbench import ladder

    differing = total = 0
    for workload in args.workload or WORKLOADS:
        with tempfile.TemporaryDirectory() as inputs:
            rungs = ladder.build(workload, inputs, args.seed)
            before, after = (tree_results(src, inputs, rungs) for src in (base, new))
        for rung, a, b in zip(rungs, before, after):
            total += 1
            if any(a[f] != b[f] for f in FIELDS):
                differing += 1
                print(f"{workload}/{rung.id}: differs")
                print("\n".join(describe(a, b)))
        for tree, records in (("base", before), ("new", after)):
            print(peak_line(workload, tree, [r.id for r in rungs], records))
    print(f"seed {args.seed}: {differing} of {total} rungs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
