"""Seeded input generation for every benchmark workload.

One :class:`Narrator` per stream, one ``numpy.random.default_rng`` per
narrator: job arrivals are Poisson with mean gap
``beta = E[p] / target_util`` (exponential inter-arrivals), lengths are
uniform over ``LENGTH_RANGE`` and laxity is uniform over
``[0, LAXITY_SCALE * length]``.  The same seed always gives the same
bytes.  The program under test only ever receives the generated JSONL
lines (or, for ``batch_engine``, the generated instance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

LENGTH_RANGE = (1.0, 10.0)
LAXITY_SCALE = 2.0
#: Expected number of concurrently live jobs per tenant.
TARGET_UTIL = 4.0

#: ``stdio_burst``: two interleaved tenants, jobs per tenant per stream.
BURST_TENANTS = ("a", "b")
BURST_JOBS_PER_TENANT = 2000

#: ``durable_restore``: four long-lived tenants, one per paper
#: scheduler, and jobs per tenant.
DURABLE_TENANTS = (("d0", "batch+"), ("d1", "batch"), ("d2", "cdb"), ("d3", "profit"))
DURABLE_JOBS_PER_TENANT = 1000

#: ``batch_engine``: jobs in the seeded Poisson instance for CDB/Profit.
ENGINE_JOBS = 8000


def encode_op(op: dict[str, Any]) -> bytes:
    """One op as a JSONL line."""
    return (json.dumps(op, separators=(",", ":")) + "\n").encode()


class Narrator:
    """Poisson job arrivals from one seeded ``default_rng``."""

    def __init__(self, seed: int, *, target_util: float = TARGET_UTIL) -> None:
        self.rng = np.random.default_rng(seed)
        expected_length = sum(LENGTH_RANGE) / 2.0
        self.beta = expected_length / target_util

    def jobs(self, n: int) -> list[tuple[int, float, float, float]]:
        """``n`` jobs as ``(id, arrival, deadline, length)``, arrival-sorted."""
        gaps = self.rng.exponential(self.beta, n)
        arrival = np.round(np.cumsum(gaps), 3)
        length = np.round(self.rng.uniform(*LENGTH_RANGE, n), 3)
        laxity = self.rng.uniform(0.0, LAXITY_SCALE, n) * length
        deadline = np.round(arrival + laxity, 3)
        return [
            (i, float(arrival[i]), float(deadline[i]), float(length[i]))
            for i in range(n)
        ]

    def job_ops(self, tenant: str, n: int) -> list[dict[str, Any]]:
        """``n`` ``job`` ops for one tenant."""
        return [
            {"op": "job", "tenant": tenant, "id": i, "arrival": a,
             "deadline": d, "length": p}
            for i, a, d, p in self.jobs(n)
        ]

    def interleave(
        self, tenants: tuple[str, ...], n: int
    ) -> list[dict[str, Any]]:
        """``n`` jobs per tenant, merged into one stream by arrival time."""
        streams = [self.job_ops(t, n) for t in tenants]
        merged = [op for stream in streams for op in stream]
        # Stable: per-tenant order (non-decreasing arrivals) survives.
        merged.sort(key=lambda op: op["arrival"])
        return merged


@dataclass
class Stream:
    """A generated op stream, written as fast as the pipe takes it."""

    ops: list[dict[str, Any]]

    def payload(self) -> bytes:
        return b"".join(encode_op(op) for op in self.ops)


def burst_stream(seed: int) -> Stream:
    """``stdio_burst``: two tenants, jobs only, no ``close`` (input ends
    at EOF, the documented ``--stdio < jobs.jsonl`` use)."""
    narrator = Narrator(seed)
    return Stream(narrator.interleave(BURST_TENANTS, BURST_JOBS_PER_TENANT))


def durable_stream(seed: int) -> Stream:
    """``durable_restore``: four long-lived tenants, opened on the four
    paper schedulers and closed explicitly."""
    narrator = Narrator(seed)
    names = tuple(name for name, _ in DURABLE_TENANTS)
    ops: list[dict[str, Any]] = [
        {"op": "open", "tenant": name, "scheduler": sched}
        for name, sched in DURABLE_TENANTS
    ]
    ops += narrator.interleave(names, DURABLE_JOBS_PER_TENANT)
    ops += [{"op": "close", "tenant": name} for name in names]
    return Stream(ops)


def engine_instance_jobs(seed: int) -> list[tuple[int, float, float, float]]:
    """``batch_engine``: the seeded Poisson instance for CDB and Profit."""
    return Narrator(seed).jobs(ENGINE_JOBS)
