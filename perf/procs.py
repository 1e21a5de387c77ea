"""Process plumbing: spawning the system under test, reaping it, memory.

Every child is started through :class:`Children`, which kills and waits for
anything still running when the benchmark leaves its ``with`` block, so no
process outlives a run.

The system under test and the no-detector replay it is compared with run on
one CPU, and the benchmark's own load generator on the others
(:func:`cpu_split`).  The host's speed drifts per CPU, so a replay on the same CPU as the
measured run carries the same drift, and the ratio of the two cancels it.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from . import SRC


def child_env() -> Dict[str, str]:
    """The environment of every subprocess: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def cpu_split() -> Tuple[Set[int], Set[int]]:
    """``(system-under-test CPUs, load-generator CPUs)``.

    The system under test gets the last CPU this process may use, the load
    generator the rest (or the same one, when there is only one).
    """
    allowed = os.sched_getaffinity(0)
    sut = {max(allowed)}
    return sut, (allowed - sut) or sut


@contextmanager
def pinned(cpus: Set[int]) -> Iterator[None]:
    """Run the calling thread, and any child it spawns meanwhile, on ``cpus``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Children:
    """Tracks spawned processes; reaps (and if needed kills) them on exit."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("env", child_env())
        kwargs.setdefault("stdin", subprocess.DEVNULL)
        proc = subprocess.Popen(list(argv), **kwargs)
        self._procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                kill_tree(proc.pid)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._procs.clear()

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def wait_rusage(proc: subprocess.Popen, timeout: float) -> Tuple[int, int]:
    """Wait for ``proc``; returns ``(exit code, peak RSS in KiB)``.

    Uses ``os.wait4`` so the child's own ``ru_maxrss`` is read; a child
    still running after ``timeout`` seconds is killed (exit code < 0).
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            code = os.waitstatus_to_exitcode(status)
            proc.returncode = code
            return code, usage.ru_maxrss
        if time.monotonic() > deadline:
            kill_tree(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        time.sleep(0.002)


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it, from ``/proc``."""
    parents: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        ppid = int(stat.rpartition(")")[2].split()[1])
        parents.setdefault(ppid, []).append(int(entry.name))
    tree = [pid]
    for current in tree:
        tree.extend(parents.get(current, ()))
    return tree


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one live process, in KiB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def tree_peak_rss_mib(pid: int) -> float:
    """Sum of ``VmHWM`` over a process tree, in MiB."""
    return sum(vm_hwm_kib(p) for p in descendants(pid)) / 1024.0


def kill_tree(pid: int) -> None:
    for child in reversed(descendants(pid)):
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass


def connect_unix(path: str, deadline: float) -> socket.socket:
    """Connect to a Unix socket, retrying until the server has bound it."""
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
            if time.monotonic() > deadline:
                raise TimeoutError(f"no server on {path}") from None
            time.sleep(0.002)


def run_timed(argv: Sequence[str], timeout: float = 60.0) -> Tuple[float, int]:
    """Run one command to completion; ``(wall s, exit code)``."""
    with Children() as children:
        start = time.perf_counter()
        proc = children.spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        code, _rss = wait_rusage(proc, timeout)
        return time.perf_counter() - start, code


def relative_socket_path(path: Path) -> str:
    """A short path to ``path`` from the current directory.

    Unix socket paths are capped at 107 bytes and a checkout may live
    deep in the file system; relative paths sidestep the cap.
    """
    return os.path.relpath(path)
