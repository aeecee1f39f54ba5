"""Host-speed sampling, so timings do not follow the host's speed.

The benchmark runs on vCPUs shared with other tenants.  A vCPU is not
descheduled when a neighbour is busy; it runs slower, by up to 1.7x,
and switches between fast and slow every few seconds.  CPU time
therefore varies as much as wall time.

Every process under test starts a :class:`Sampler` before its first
heavy import.  A side thread times :func:`kernel` (a fixed piece of
JSON, dict and heap work that uses no code of the program) every
``PERIOD_S`` seconds, on the same pinned vCPU as the program, and the
samples are written at exit.  :func:`factor` turns the samples taken
during a timed interval into the host's slowness then, relative to
``KERNEL_REF_S``; the benchmark divides each duration by it (and
multiplies each rate by it).  The kernel's own cost to the program
(about 2% of one vCPU) is the same on every commit.
"""

from __future__ import annotations

import bisect
import heapq
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Sequence

#: Seconds between kernel samples.
PERIOD_S = 0.02
#: Kernel time at the reference host speed: about the median of the
#: samples taken inside busy processes under test on a 2-vCPU Xeon VM,
#: so adjusted figures read close to raw ones there.  It only sets the
#: scale.
KERNEL_REF_S = 0.0006
#: Fewest samples a window is judged on; narrower windows are widened
#: to the nearest samples in time.
MIN_SAMPLES = 5

_LINES = [
    json.dumps(
        {"op": "job", "tenant": f"t{i % 7}", "id": i, "arrival": i * 0.37,
         "deadline": i * 0.37 + 5.5, "length": 1.0 + (i * 7919 % 900) / 100},
        separators=(",", ":"),
    )
    for i in range(48)
]


def kernel() -> int:
    """The fixed reference work: parse, accumulate, heap, encode."""
    heap: list[tuple[float, int]] = []
    load: dict[str, float] = {}
    out = 0
    for line in _LINES:
        op = json.loads(line)
        heapq.heappush(heap, (op["deadline"], op["id"]))
        load[op["tenant"]] = load.get(op["tenant"], 0.0) + op["length"]
        if len(heap) > 8:
            deadline, job = heapq.heappop(heap)
            out += len(json.dumps({"kind": "start", "id": job, "t": deadline}))
    return out + len(load)


class Sampler:
    """Times :func:`kernel` every ``PERIOD_S`` in a daemon thread."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: ``(start, seconds)`` per kernel call, ``time.perf_counter``.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            kernel()
            self.samples.append((t0, clock() - t0))

    def close(self) -> None:
        """Stop sampling and write the samples to ``path``."""
        self._stop.set()
        self._thread.join()
        with open(self.path, "w") as fh:
            json.dump(self.samples, fh)


def load(*paths: Path) -> list[tuple[float, float]]:
    """The samples of one or more processes, in time order."""
    out: list[tuple[float, float]] = []
    for path in paths:
        out += [(t, d) for t, d in json.loads(path.read_text())]
    return sorted(out)


def factor(samples: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Host slowness over ``[start, end]``: median kernel time of the
    samples taken then, over ``KERNEL_REF_S`` (above 1 is slower)."""
    if not samples:
        raise ValueError("no host-speed samples")
    lo = bisect.bisect_left(samples, (start,))
    hi = bisect.bisect_right(samples, (end, float("inf")))
    while hi - lo < min(MIN_SAMPLES, len(samples)):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
    return statistics.median(d for _, d in samples[lo:hi]) / KERNEL_REF_S
