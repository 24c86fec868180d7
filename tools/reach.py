#!/usr/bin/env python3
"""Count the library lines that run under no command.

    python3 tools/reach.py [SRC] [--seed N]

SRC is a directory holding a `fellbundles` package (default: `src/` of this
checkout). The tool imports that package and, while `cli.run_command` runs,
records every Python function called, through `sys.setprofile`. It first runs
every rung of the benchmark ladder (`perfbench.ladder`) at the seed, each
workload in its own temporary directory, with the address space capped at
3 GiB, the benchmark's budget; then the tier-1 tests of this checkout, in
process, so that they import the same package.

A body is a top-level function or a method of a top-level class, counted
from its first decorator to its last line. Nested functions, lambdas and
comprehensions count with the body they sit in, and `cli.main`, which only
calls `run_command`, is left out. A body is reached when a call into it or
into anything nested in it is recorded. Each unreached body is printed with
its lines, then their total against the lines of `SRC/fellbundles/*.py`.
The exit code is pytest's. Uses the standard library, numpy and pytest.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import glob
import io
import os
import resource
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAP_BYTES = 3 * 2**30


def bodies(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level function and method of a
    top-level class; the first line is that of the first decorator."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for top in ast.parse(source).body:
        inside = top.body if isinstance(top, ast.ClassDef) else [top]
        for f in inside:
            if isinstance(f, functions):
                name = f"{top.name}.{f.name}" if f is not top else f.name
                first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                out.append((name, first, f.end_lineno))
    return out


def record(seed: int) -> tuple[set, int]:
    """The (file, first line) of every code object called inside `cli.run_command`
    over the ladder and tier-1, and pytest's exit code."""
    import pytest
    from fellbundles import cli
    from perfbench import ladder

    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    real = cli.run_command

    @functools.wraps(real)
    def recorded(argv):
        sys.setprofile(profile)
        try:
            return real(argv)
        finally:
            sys.setprofile(None)

    cli.run_command = recorded
    here, limits = os.getcwd(), resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, limits[1]))
    for workload in ladder.WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            rungs = ladder.build(workload, work, seed)
            os.chdir(work)
            for rung in rungs:
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        recorded(list(rung.argv))
                except Exception as exc:  # noqa: BLE001 - over the cap, say; its calls still count
                    print(f"{workload}/{rung.id} raised {type(exc).__name__}", file=sys.stderr)
            os.chdir(here)
    resource.setrlimit(resource.RLIMIT_AS, limits)
    os.chdir(ROOT)
    code = pytest.main([os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider"])
    os.chdir(here)
    return seen, int(code)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", nargs="?", default=os.path.join(ROOT, "src"),
                   help="source directory holding the fellbundles to measure (default src/)")
    p.add_argument("--seed", type=int, default=1, help="ladder seed (default 1)")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path[:0] = [src, ROOT]
    seen, code = record(args.seed)

    lines = unreached = 0
    print(f"bodies in {src}/fellbundles that run under no command:")
    for path in sorted(glob.glob(os.path.join(src, "fellbundles", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines += len(source.splitlines())
        called = [line for file, line in seen if file == path]
        module = os.path.basename(path)
        for name, first, last in bodies(source):
            if (module, name) == ("cli.py", "main"):
                continue
            if not any(first <= line <= last for line in called):
                unreached += last - first + 1
                print(f"  {module}:{first}-{last} {name} ({last - first + 1} lines)")
    print(f"seed {args.seed}: {unreached} of {lines} lines unreached (tier-1 exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
