"""In-process reference outputs and the per-op output check.

The reference feeds the generated ops to fresh in-process
:class:`repro.serve.session.TenantSession` objects exactly as the
daemon's tenant worker does (implicit open with the default scheduler
on a first ``job``, explicit ``open`` otherwise), plus the drain's
implicit ``close`` for every tenant still open where input ends at EOF.
Every op's records are encoded with the protocol's own encoder, so the
daemon's output must match byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.serve.protocol import DEFAULT_SCHEDULER, encode_record
from repro.serve.session import TenantSession


@dataclass
class Expected:
    """Per-op expected records, in the order the ops were written."""

    #: ``(tenant, records)`` per op; implicit drain closes come last.
    ops: list[tuple[str, list[bytes]]]
    #: Number of ops that were written (the rest are implicit closes).
    written: int
    #: Engine events the sessions processed (implicit closes included).
    events: int
    #: The op kind of each entry in ``ops``.
    kinds: list[str] = field(default_factory=list)
    sessions: dict[str, TenantSession] = field(repr=False, default_factory=dict)

    @property
    def records(self) -> int:
        return sum(len(r) for _, r in self.ops)


def build(ops: list[dict[str, Any]], *, drain_at_eof: bool) -> Expected:
    """Run ``ops`` through reference sessions (untimed set-up)."""
    sessions: dict[str, TenantSession] = {}
    out: list[tuple[str, list[bytes]]] = []
    for op in ops:
        tenant = op["tenant"]
        records: list[dict[str, Any]] = []
        session = sessions.get(tenant)
        if op["op"] == "open":
            session = sessions[tenant] = TenantSession(
                tenant, scheduler=op.get("scheduler", DEFAULT_SCHEDULER)
            )
            records = session.hello()
        else:
            if session is None:
                session = sessions[tenant] = TenantSession(tenant)
                records.extend(session.hello())
            records.extend(session.apply(dict(op)))
        out.append((tenant, [encode_record(r) for r in records]))
    written = len(out)
    if drain_at_eof:
        for tenant, session in sessions.items():
            if not session.closed:
                close = {"op": "close", "tenant": tenant, "reason": "drain"}
                out.append((tenant, [encode_record(r) for r in session.apply(close)]))
    events = sum(
        s.result.events_processed for s in sessions.values() if s.result
    )
    kinds = [op["op"] for op in ops] + ["close"] * (len(out) - written)
    return Expected(out, written, events, kinds, sessions)


def split_lines(
    data: bytes, chunk_ends: list[int], chunk_times: list[float]
) -> tuple[list[bytes], np.ndarray]:
    """Complete output lines (newline kept) and the time each arrived."""
    lines = data.split(b"\n")
    lines.pop()  # text after the last newline (empty for a clean stream)
    ends = np.cumsum([len(line) + 1 for line in lines]) - 1
    idx = np.searchsorted(np.asarray(chunk_ends), ends, side="right")
    times = np.asarray(chunk_times)[idx] if len(lines) else np.zeros(0)
    return [line + b"\n" for line in lines], times


@dataclass
class Check:
    """The outcome of comparing a daemon's output with the reference."""

    attempted: int = 0
    failed: int = 0
    #: No record differed from its reference and none was unexpected.
    correct: bool = True
    #: Expected records received intact.
    matched: int = 0
    #: Receipt time of the last intact expected record (nan when none).
    last_time: float = float("nan")
    #: Per op: receipt time of its last record (nan: no record expected,
    #: or the op failed).
    op_done: np.ndarray = field(default_factory=lambda: np.zeros(0))
    notes: list[str] = field(default_factory=list)


def check(
    expected: Expected, lines: list[bytes], times: np.ndarray
) -> Check:
    """Match output lines to ops, FIFO per tenant.

    An op fails when any of its expected records is missing or differs.
    A received record that differs, or that no op expects, clears
    ``correct``: the daemon emitted wrong output, not merely less.
    """
    by_tenant: dict[str, list[int]] = {}
    untenanted: list[int] = []
    for i, line in enumerate(lines):
        try:
            tenant = json.loads(line).get("tenant")
        except (ValueError, AttributeError):
            tenant = None  # not a JSON object: reported as unexpected below
        if tenant is None:
            untenanted.append(i)
        else:
            by_tenant.setdefault(tenant, []).append(i)
    result = Check(attempted=len(expected.ops))
    result.op_done = np.full(len(expected.ops), np.nan)
    if not untenanted or not lines[untenanted[0]].startswith(
        b'{"kind":"serve.ready"'
    ):
        result.correct = False
        result.notes.append("no serve.ready record first")
    extra_untenanted = untenanted[1:]
    for i in extra_untenanted:
        if not lines[i].startswith((b'{"kind":"serve.stats"', b'{"kind":"serve.bye"')):
            result.correct = False
            result.notes.append(f"unexpected record {lines[i][:120]!r}")
    cursor = {tenant: 0 for tenant in by_tenant}
    last = -1.0
    for k, (tenant, records) in enumerate(expected.ops):
        got = by_tenant.get(tenant, [])
        pos = cursor.get(tenant, 0)
        ok = True
        for j, want in enumerate(records):
            if pos + j >= len(got):
                ok = False
                break
            line = lines[got[pos + j]]
            if line != want:
                ok = False
                result.correct = False
                if len(result.notes) < 5:
                    result.notes.append(
                        f"{tenant} op {k}: got {line[:120]!r} want {want[:120]!r}"
                    )
                break
        cursor[tenant] = pos + len(records)
        if not ok:
            result.failed += 1
            continue
        result.matched += len(records)
        if records:
            t = float(times[got[pos + len(records) - 1]])
            result.op_done[k] = t
            last = max(last, t)
    for tenant, got in by_tenant.items():
        if cursor.get(tenant, 0) < len(got):
            result.correct = False
            result.notes.append(
                f"{tenant}: {len(got) - cursor[tenant]} unexpected record(s)"
            )
    if last >= 0:
        result.last_time = last
    return result
