"""The columnar mini-core: parallel lists, arrival cohorts, one loop."""

from __future__ import annotations

import heapq

from repro.core.errors import SimulationError

_PARITY_CORE = "columnar"
_PARITY_PEER = "parity_pkg.object_core"
_PARITY_FIELDS = {
    "start_col": "start-time",
    "state": "lifecycle",
    "_free_at": "busy-until",
    "_pending": "pending-index",
}

_ARRIVAL = 0
_COMPLETION = 1

_PENDING = 0
_RUNNING = 1
_DONE = 2


class ColumnarMiniCore:
    """Same FIFO single-machine semantics as ``ObjectMiniCore``, stored
    column-wise; same-timestamp arrivals take a vectorised cohort path,
    except in an armed run, where the one loop takes every event
    scalar-wise."""

    def __init__(self) -> None:
        self._now = 0.0
        self._free_at = 0.0
        self._events: list = []
        self._pending: list = []
        self.ids_col: list = []
        self.arrival_col: list = []
        self.length_col: list = []
        self.state: list = []
        self.start_col: list = []

    def run(self, jobs, armed: bool = False) -> dict:
        """``jobs`` is ``[(job_id, arrival, length), ...]``; returns the
        final ``{job_id: start_time}`` schedule.  ``armed=True`` gathers
        no cohorts."""
        for job_id, arrival, length in jobs:
            row = len(self.ids_col)
            self.ids_col.append(job_id)
            self.arrival_col.append(arrival)
            self.length_col.append(length)
            self.state.append(_PENDING)
            self.start_col.append(None)
            heapq.heappush(self._events, (arrival, _ARRIVAL, row))
        events = self._events
        while events:
            t, kind, idx = heapq.heappop(events)
            if t < self._now:
                raise SimulationError("event time moved backwards")
            self._now = t
            if kind == _ARRIVAL:
                rows = [idx]
                while (
                    not armed
                    and events
                    and events[0][0] == t
                    and events[0][1] == _ARRIVAL
                ):
                    rows.append(heapq.heappop(events)[2])
                if len(rows) == 1:
                    self._handle_arrival(idx)
                else:
                    self._cohort_arrival(rows)
            else:
                self._handle_completion(idx)
        return self._schedule()

    def _handle_arrival(self, idx: int) -> None:
        self.state[idx] = _PENDING
        self._pending.append(idx)
        self._start_job()

    def _cohort_arrival(self, rows) -> None:
        for r in rows:
            self.state[r] = _PENDING
        self._pending.extend(rows)
        self._start_job()

    def _handle_completion(self, idx: int) -> None:
        self.state[idx] = _DONE
        self._free_at = self._now
        self._start_job()

    def _start_job(self) -> None:
        while self._pending and self._free_at <= self._now:
            idx = self._pending.pop(0)
            self.state[idx] = _RUNNING  # parity: columnar-only
            self.start_col[idx] = self._now
            when = self._now + self.length_col[idx]
            self._free_at = when
            heapq.heappush(self._events, (when, _COMPLETION, idx))

    def _schedule(self) -> dict:
        return {
            self.ids_col[i]: self.start_col[i]
            for i in range(len(self.ids_col))
            if self.start_col[i] is not None
        }
