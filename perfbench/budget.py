"""Budget runner: one child per command under an address-space and a wall-time budget.

The limits are set on the child only: RLIMIT_AS between fork and exec, and a
deadline after which the parent kills the child through a pidfd, so a
recycled pid can never be hit.  The child is reaped with os.wait4, which
also gives its own peak RSS.

Outcomes, from worst to best:
  timeout          the child outlived its wall-time budget and was killed
  exceeds_budget   an allocation failed against the address-space budget
  crash            any other uncaught exception or a fatal signal
  wrong_output     the exit code or a committed expected field differs
  nondeterministic stdout or a written file differs from the first pass
  ok
A rung that overruns the memory budget dies today with an uncaught
numpy `_ArrayMemoryError` and exit code 1, the code a failed mathematical
check also uses, so it is told apart by the exception named on stderr.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import subprocess
import time
from dataclasses import dataclass

MEMORY_BUDGET_BYTES = 3 << 30
TIME_BUDGET_S = 30.0

def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BUDGET_BYTES, MEMORY_BUDGET_BYTES))


def is_memory_error(stderr: str) -> bool:
    """True when the uncaught exception on stderr is a MemoryError (or numpy's subclass)."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    if not lines or "Traceback" not in stderr:
        return False
    exc = lines[-1].split(":", 1)[0]
    return exc.endswith("MemoryError")


@dataclass
class ChildResult:
    seconds: float
    returncode: int | None  # None when the budget runner killed the child
    maxrss_mb: float
    stdout: bytes
    stderr: str


def run_child(argv, cwd: str, env: dict, timeout_s: float) -> ChildResult:
    """Run argv to completion or until timeout_s, capturing output through files."""
    out_path = os.path.join(cwd, ".child.stdout")
    err_path = os.path.join(cwd, ".child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_limit_address_space)
        pidfd = os.pidfd_open(proc.pid)
        ready = []
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout_s, 0.0))
        finally:
            if not ready:  # over the time budget, or the benchmark itself was stopped
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(seconds, proc.returncode if ready else None,
                       usage.ru_maxrss / 1024.0, stdout, stderr)


def classify_child(res: ChildResult) -> str | None:
    """Resource and crash outcomes of a child; None when it exited on its own terms."""
    if res.returncode is None:
        return "timeout"
    if is_memory_error(res.stderr):
        return "exceeds_budget"
    if res.returncode < 0 or "Traceback (most recent call last)" in res.stderr:
        return "crash"
    return None


class InprocChild:
    """One capped child that imports fellbundles once and runs rungs in process.

    The child prints one JSON line when ready and one per job sent to it;
    each line is awaited with a deadline, and the caller kills a child that
    misses it.
    """

    def __init__(self, argv, cwd: str, env: dict, ready_timeout_s: float = 60.0):
        self.proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     preexec_fn=_limit_address_space)
        self._buf = b""
        try:
            self.ready = self.next_line(ready_timeout_s)
        except (TimeoutError, EOFError):
            self.kill()
            raise

    def send(self, obj) -> None:
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def next_line(self, timeout_s: float):
        """The next JSON line; TimeoutError after the deadline, EOFError if the child died."""
        deadline = time.monotonic() + max(timeout_s, 0.0)
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def finish(self, timeout_s: float):
        """Close the child's input and return its last line (the trace summary)."""
        self.proc.stdin.close()
        try:
            return self.next_line(timeout_s)
        finally:
            self.close()

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def close(self) -> None:
        """Close the child's input and wait until it has ended."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
