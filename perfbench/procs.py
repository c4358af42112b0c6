"""Running the program under test: isolated fresh processes and one server.

Every program process the benchmark starts goes through
:func:`run_command` or :class:`Server`, which time it from outside, read
its peak resident memory from the kernel (``wait4``) and always reap it.
Program processes get a private, empty ``HOME`` and ``XDG_CACHE_HOME``
and no ``REPRO_CACHE_DIR``, so no ambient cache store can leak in.
"""

from __future__ import annotations

import hashlib
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Directory (inside the checkout) for each run's private state; removed
#: when the run ends and ignored by git.
RUN_ROOT = ".perfbench-run"

#: Never walked by :func:`checkout_digest`: bytecode caches, the run's
#: own state and build output placed in the checkout (`.bench_build`).
_SKIP_DIRS = {".git", "__pycache__", RUN_ROOT, ".bench_build", ".pytest_cache"}


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def program_env(root: Path, private: Path) -> dict[str, str]:
    """The environment of every program process: ``src`` on the path,
    private empty home and cache directories, no store variable."""
    home = private / "home"
    home.mkdir(parents=True, exist_ok=True)
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "XDG_CACHE_HOME": str(home / ".cache"),
        "PYTHONPATH": str(root / "src"),
        "PYTHONIOENCODING": "utf-8",
        "PYTHONDONTWRITEBYTECODE": "1",
        "LC_ALL": "C.UTF-8",
    }


def compile_bytecode(root: Path) -> float:
    """Force-compile ``src`` (every run pays the same); returns seconds."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-f", str(root / "src")],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    if result.returncode != 0:
        raise BenchError(f"bytecode compile failed: {result.stderr.decode()[-500:]}")
    return time.perf_counter() - start


@dataclass(frozen=True)
class Finished:
    """One reaped program process."""

    wall_s: float
    returncode: int
    stdout: bytes
    maxrss_mb: float
    cpu_s: float


def _reap(proc: subprocess.Popen, deadline: float) -> tuple[int, float, float]:
    """``wait4`` the process (killing it past ``deadline``): (rc, maxrss MB,
    user + system CPU seconds)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (
                proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime
            )
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"process {proc.args!r} timed out and was killed")
        time.sleep(0.005)


def run_command(
    argv: list[str], env: dict[str, str], cwd: Path, log: Path, timeout: float = 120
) -> Finished:
    """Run one program process to completion, timed spawn to reap."""
    with open(log, "ab") as errors:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=errors
        )
        # A hung process never closes stdout; the timer ends the wait.
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        returncode, maxrss, cpu = _reap(proc, time.monotonic() + timeout)
        wall = time.perf_counter() - start
    return Finished(wall, returncode, stdout, maxrss, cpu)


_ANNOUNCE = re.compile(rb"serving corridor analytics on (http://[\d.]+:\d+)")


class Server:
    """One ``serve --port 0`` process (plain, or under the traced twin)."""

    def __init__(self, argv: list[str], env: dict[str, str], cwd: Path, log: Path):
        self._errors = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self._errors
        )
        self.url = ""
        self.maxrss_mb = 0.0

    def wait_ready(self, timeout: float = 90) -> str:
        """Block until the server announces its URL; returns it."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        match = _ANNOUNCE.search(line)
        if match is None:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.url = match.group(1).decode()
        return self.url

    def cpu_seconds(self) -> float:
        """User + system CPU seconds the running server has used so far."""
        stat = (Path("/proc") / str(self.proc.pid) / "stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 60) -> float:
        """SIGINT (the server drains and exits), then reap; returns peak RSS MB."""
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
            try:
                returncode, self.maxrss_mb, _ = _reap(self.proc, time.monotonic() + timeout)
            finally:
                self.proc.stdout.close()
                self._errors.close()
            if returncode != 0:
                raise BenchError(f"server exited with code {returncode}")
        return self.maxrss_mb


def checkout_digest(root: Path) -> str:
    """A digest of every file in the checkout outside bytecode and run state."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            path = Path(dirpath) / name
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            if path.is_symlink():
                digest.update(os.readlink(path).encode())
            else:
                digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()
