"""Child processes of the benchmark; they run under the budget runner's limits.

    child.py parse KIND:FILE ...     import fellbundles and parse each input
                                     with the CLI parser of its kind
    child.py serve [TRACE_FILE]      run fellbundles commands in process

`serve` imports once, prints {"ready": ...}, then reads one job per stdin
line, {"id", "argv", "writes"}, runs it through cli.run_command with stdout
and stderr captured, and prints one result line.  With TRACE_FILE it first
wraps every public function of the package, and when stdin closes it writes
the spans there and prints {"summary": ...} with the per-layer totals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback


def parse(pairs) -> None:
    from fellbundles import cli
    parsers = {"spec": cli.parse_spec, "action": cli.parse_action_spec,
               "gset": cli.parse_gset_spec}
    for pair in pairs:
        kind, path = pair.split(":", 1)
        parsers[kind](path)


def file_digest(path: str | None) -> str | None:
    if not path or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def serve(trace_file: str | None) -> None:
    import fellbundles
    tr = None
    if trace_file:
        import tracer
        tr = tracer.Tracer()
        tr.install(fellbundles)
    out = sys.stdout

    def reply(obj) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    reply({"ready": True, "fellbundles": os.path.abspath(fellbundles.__file__)})
    for line in sys.stdin:
        job = json.loads(line)
        if tr is not None:
            tr.rung = job["id"]
        captured, errors = io.StringIO(), io.StringIO()
        rc, failure, detail = None, None, ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
                rc = fellbundles.cli.run_command(job["argv"])
        except MemoryError:
            failure, detail = "exceeds_budget", traceback.format_exc(limit=-3)
        except Exception:  # a crash of the command under test, reported as such
            failure, detail = "crash", traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
        reply({"id": job["id"], "seconds": seconds, "rc": rc, "failure": failure,
               "detail": detail, "stdout": captured.getvalue(),
               "written": file_digest(job.get("writes"))})
    if tr is not None:
        tr.write(trace_file)
        reply({"summary": tracer.summarize(tr.spans), "spans": len(tr.spans)})


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "parse":
        parse(rest)
    elif mode == "serve":
        serve(rest[0] if rest else None)
    else:
        sys.exit(f"unknown mode {mode!r}")
