"""Spawning and driving the processes under test.

Everything here runs in the single load-generator process.  Pipes are
non-blocking and multiplexed with one ``selectors`` loop;
every chunk read or written is stamped with ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, so stamps compare across processes).  Child
exit is collected with ``os.wait4``.

Peak RSS is read from ``VmHWM`` in ``/proc/<pid>/status`` (the high-water
mark of the process's own address space) up to its exit, not from the
``ru_maxrss`` that ``wait4`` returns: the child is spawned with vfork,
and exec folds the generator's own, larger high-water mark into it.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Ceiling on any single wait for the program under test.
STEP_TIMEOUT = 60.0
_CHUNK = 1 << 16


class BenchError(RuntimeError):
    """The program under test did not behave well enough to measure."""


class Timed:
    """Bytes received on one stream, with the time each chunk arrived."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.ends: list[int] = []
        self.times: list[float] = []
        self.lines = 0
        self.eof = False

    def add(self, chunk: bytes) -> None:
        if not chunk:
            self.eof = True
            return
        self.data += chunk
        self.ends.append(len(self.data))
        self.times.append(time.perf_counter())
        self.lines += chunk.count(b"\n")

    def first_line(self) -> bytes:
        return bytes(self.data[: self.data.index(b"\n") + 1])


@dataclass
class Exit:
    status: int
    time: float
    peak_rss_mb: float


@dataclass
class Sent:
    """Byte offsets (cumulative) and times of completed writes."""

    #: When the first byte was offered.
    start: float = 0.0
    ends: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    def times_at(self, offsets: np.ndarray) -> np.ndarray:
        """When the byte at each offset had been handed to the kernel."""
        idx = np.searchsorted(np.asarray(self.ends), offsets, side="right")
        return np.asarray(self.times)[idx]


def child_env(root: Path, **extra: str) -> dict[str, str]:
    """The environment for a process under test: the source tree on the
    path, no inherited ``REPRO_*`` knobs (defaults only)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra)
    return env


def _nonblock(fd: int) -> None:
    os.set_blocking(fd, False)


def _read_fd(fd: int, sink: Timed) -> None:
    try:
        chunk = os.read(fd, _CHUNK)
    except BlockingIOError:
        return
    sink.add(chunk)


class Spawned:
    """One process under test with its stdout stamped as it arrives."""

    def __init__(
        self, argv: list[str], *, env: dict[str, str], cwd: Path,
        log: Path, stdin: bool = True,
    ) -> None:
        self.argv = argv
        self.log = log
        with open(log, "ab") as err:
            self.t_spawn = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stderr=err,
            )
        assert self.proc.stdout is not None
        self.out_fd = self.proc.stdout.fileno()
        _nonblock(self.out_fd)
        self.in_fd: int | None = None
        if stdin:
            assert self.proc.stdin is not None
            self.in_fd = self.proc.stdin.fileno()
            _nonblock(self.in_fd)
        self.out = Timed()
        self.exit: Exit | None = None
        self._peak_kb = 0
        #: Host-speed samples and (traced) span files the launcher writes.
        self.samples: Path | None = None
        self.spans: Path | None = None

    def _sample_rss(self) -> None:
        """Fold the child's current ``VmHWM`` into its peak."""
        try:
            with open(f"/proc/{self.proc.pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        self._peak_kb = max(self._peak_kb, int(line.split()[1]))
                        return
        except OSError:
            pass  # already gone

    # ----------------------------------------------------------- reading
    def read_until(
        self, lines: int, timeout: float = STEP_TIMEOUT,
        idle: float | None = None,
    ) -> None:
        """Read stdout until ``lines`` lines have arrived (or EOF).

        With ``idle``, give up quietly once no output has arrived for
        that long: missing records are then counted, not waited for.
        """
        deadline = time.perf_counter() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.out_fd, selectors.EVENT_READ)
            while self.out.lines < lines and not self.out.eof:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise BenchError(
                        f"timed out waiting for output line {lines} "
                        f"(see {self.log})"
                    )
                if sel.select(min(left, idle) if idle else left):
                    _read_fd(self.out_fd, self.out)
                elif idle:
                    break
        self._sample_rss()

    def read_to_eof(self, timeout: float = STEP_TIMEOUT) -> None:
        self.read_until(1 << 62, timeout)

    # ----------------------------------------------------------- writing
    def write_all(self, payload: bytes, timeout: float = STEP_TIMEOUT) -> Sent:
        """Write ``payload`` as fast as the pipe accepts it, reading
        stdout meanwhile so the program never blocks on its output."""
        assert self.in_fd is not None
        sent = Sent(start=time.perf_counter())
        view = memoryview(payload)
        offset = 0
        deadline = time.perf_counter() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.out_fd, selectors.EVENT_READ)
            sel.register(self.in_fd, selectors.EVENT_WRITE)
            while offset < len(payload):
                if time.perf_counter() > deadline:
                    raise BenchError(f"timed out writing input (see {self.log})")
                for key, _ in sel.select(1.0):
                    if key.fd == self.out_fd:
                        _read_fd(self.out_fd, self.out)
                        if self.out.eof:
                            raise BenchError(
                                f"output closed mid-input (see {self.log})"
                            )
                        continue
                    try:
                        n = os.write(self.in_fd, view[offset:])
                    except BlockingIOError:
                        continue
                    offset += n
                    sent.ends.append(offset)
                    sent.times.append(time.perf_counter())
        return sent

    def close_stdin(self) -> float:
        assert self.proc.stdin is not None
        self._sample_rss()
        self.proc.stdin.close()
        return time.perf_counter()

    # -------------------------------------------------------------- exit
    def wait(self, timeout: float = STEP_TIMEOUT) -> Exit:
        """Reap the process (``os.wait4``), killing it past ``timeout``."""
        if self.exit is not None:
            return self.exit
        deadline = time.perf_counter() + timeout
        pid = self.proc.pid
        while True:
            self._sample_rss()
            done, status, _ = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() > deadline:
                self.kill()
                raise BenchError(f"process did not exit (see {self.log})")
            time.sleep(0.0005)
        t = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.exit = Exit(self.proc.returncode, t, self._peak_kb / 1024.0)
        if self.exit.status != 0:
            raise BenchError(
                f"exit status {self.exit.status} (see {self.log})"
            )
        return self.exit

    def kill(self) -> None:
        """Hard-stop and reap (error paths only)."""
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
            self.proc.wait()


def reap_all(children: list[Spawned]) -> None:
    """Stop whatever is still running (error paths only)."""
    for child in children:
        child.kill()
