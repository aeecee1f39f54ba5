"""Per-layer metrics from the traced launcher's span files.

Self time of a span is its duration minus the time its direct child
spans cover.  ``daemon.self_s`` is the daemon's wall time minus the
synchronous root spans on the event-loop thread (awaited ``drain``
calls and worker-thread spans are excluded: they overlap other work).
Intake and output waits join the generator's per-op times with the
daemon's ``TenantSession.apply`` spans: outputs are FIFO per tenant, so
the k-th ``apply`` of a tenant is that tenant's k-th stream op.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from engine_worker import CASE_NAMES

#: Scheduler names as they appear in metric names.
SCHEDULERS = {"batch+": "batch_plus", "batch": "batch", "cdb": "cdb", "profit": "profit"}

#: Every per-layer metric: name -> (unit, better).
METRICS: dict[str, tuple[str, str]] = {
    "daemon.self_s": ("s", "lower"),
    "daemon.writes_per_record": ("ratio", "lower"),
    "daemon.drain_wait_s": ("s", "lower"),
    "daemon.intake_wait_ms_p50": ("ms", "lower"),
    "daemon.intake_wait_ms_p99": ("ms", "lower"),
    "daemon.output_wait_ms_p50": ("ms", "lower"),
    "daemon.output_wait_ms_p99": ("ms", "lower"),
    "protocol.parse_op_us": ("us", "lower"),
    "protocol.encode_record_us": ("us", "lower"),
    "protocol.encodes_per_op": ("ratio", "lower"),
    "session.apply_us": ("us", "lower"),
    "session.apply_self_us": ("us", "lower"),
    "engine.feed_us": ("us", "lower"),
    **{f"engine.advance_us.{s}": ("us", "lower") for s in SCHEDULERS.values()},
    "recorder.records_per_job": ("ratio", "lower"),
    "live.observe_us": ("us", "lower"),
    "live.observe_per_record": ("ratio", "lower"),
    "checkpoint.saves": ("count", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.bytes_written": ("bytes", "lower"),
    "checkpoint.restore_all_s": ("s", "lower"),
    "checkpoint.ops_replayed": ("count", "lower"),
    "gc.pause_ms_total": ("ms", "lower"),
    "gc.pause_ms_max": ("ms", "lower"),
    **{f"{core}.{case}.events_per_s": ("1/s", "higher")
       for core in ("columnar", "object") for case in CASE_NAMES},
    **{f"recorder.armed_ratio.{case}": ("ratio", "higher")
       for case in ("e1_k2_batch", "e5_cdb_alpha2")},
    "trace.overhead_pct": ("%", "lower"),
}


@dataclass
class TracedRun:
    """One traced daemon plus what the generator saw of it."""

    spans: Path
    #: Per op in expected order: tenant, kind, due time (perf_counter),
    #: receipt time of its last record (nan when none).
    tenants: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    due: np.ndarray = field(default_factory=lambda: np.zeros(0))
    done: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def analyse(runs: list[TracedRun], restores: list[Path]) -> dict[str, float]:
    """Per-layer metrics: per-call means and pooled percentiles over the
    serving daemons in ``runs``, per-run totals averaged over runs;
    restore figures are averaged over the ``restores`` daemons."""
    dur: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, list[float]] = defaultdict(list)
    advance: dict[str, list[float]] = defaultdict(list)
    intake: list[float] = []
    output: list[float] = []
    gc_pauses: list[float] = []
    wall_self = 0.0
    writes = 0
    close_records = close_jobs = 0
    save_bytes = 0
    batch: dict[str, float] = {}
    restore_s: list[float] = []
    replayed: list[int] = []
    for path in restores:
        for name, start, end, _parent, _main, attr in json.loads(
            path.read_text()
        )["spans"]:
            if name == "checkpoint.restore_all":
                restore_s.append(end - start)
                replayed.append(attr)
    for run in runs:
        data = json.loads(run.spans.read_text())
        spans = data["spans"]
        gc_pauses += data["gc"]
        batch.update(data["batch"])
        child_cover = np.zeros(len(spans))
        for name, start, end, parent, _main, _attr in spans:
            if parent >= 0:
                child_cover[parent] += end - start
        root_main = 0.0
        applies: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for i, (name, start, end, parent, main, attr) in enumerate(spans):
            d = end - start
            dur[name].append(d)
            self_time[name].append(d - child_cover[i])
            if main and parent < 0 and name != "writer.drain":
                root_main += d
            if name == "writer.write":
                writes += 1
            elif name == "engine.advance":
                advance[SCHEDULERS.get(attr, attr)].append(d)
            elif name == "session.apply" and main:
                applies[attr[0]].append((start, end))
                if len(attr) == 4:
                    close_records += attr[2]
                    close_jobs += attr[3]
            elif name == "checkpoint.save":
                save_bytes += attr
        if not data["batch"]:  # the batch launcher runs no daemon
            start, end = data["wall"]
            wall_self += (end - start) - root_main
        if len(run.tenants):
            seen: dict[str, int] = defaultdict(int)
            for tenant, kind, due, done in zip(
                run.tenants, run.kinds, run.due, run.done
            ):
                if kind == "open":
                    continue
                k = seen[tenant]
                seen[tenant] += 1
                if k >= len(applies[tenant]):
                    continue
                a_start, a_end = applies[tenant][k]
                intake.append((a_start - due) * 1e3)
                if not np.isnan(done):
                    output.append((done - a_end) * 1e3)
    encodes = len(dur["protocol.encode_record"])
    parses = len(dur["protocol.parse_op"])
    saves = dur["checkpoint.save"]
    n = max(len(runs), 1)
    out = {
        "daemon.self_s": wall_self / n,
        "daemon.writes_per_record": writes / encodes if encodes else 0.0,
        "daemon.drain_wait_s": sum(dur["writer.drain"]) / n,
        "daemon.intake_wait_ms_p50": _pct(intake, 50),
        "daemon.intake_wait_ms_p99": _pct(intake, 99),
        "daemon.output_wait_ms_p50": _pct(output, 50),
        "daemon.output_wait_ms_p99": _pct(output, 99),
        "protocol.parse_op_us": _mean(dur["protocol.parse_op"]) * 1e6,
        "protocol.encode_record_us": _mean(dur["protocol.encode_record"]) * 1e6,
        "protocol.encodes_per_op": encodes / parses if parses else 0.0,
        "session.apply_us": _mean(dur["session.apply"]) * 1e6,
        "session.apply_self_us": _mean(self_time["session.apply"]) * 1e6,
        "engine.feed_us": _mean(dur["engine.feed"]) * 1e6,
        **{f"engine.advance_us.{s}": _mean(advance[s]) * 1e6
           for s in SCHEDULERS.values()},
        "recorder.records_per_job": close_records / close_jobs if close_jobs else 0.0,
        "live.observe_us": _mean(dur["live.observe"]) * 1e6,
        "live.observe_per_record": len(dur["live.observe"]) / encodes if encodes else 0.0,
        "checkpoint.saves": len(saves) / n,
        "checkpoint.save_ms": _mean(saves) * 1e3,
        "checkpoint.bytes_written": save_bytes / n,
        "checkpoint.restore_all_s": _mean(restore_s),
        "checkpoint.ops_replayed": _mean(replayed),
        "gc.pause_ms_total": sum(gc_pauses) * 1e3 / n,
        "gc.pause_ms_max": max(gc_pauses, default=0.0) * 1e3,
    }
    for name in METRICS:
        if name.startswith(("columnar.", "object.", "recorder.armed_ratio.")):
            out[name] = batch.get(name, 0.0)
    return out


def daemon_span_count(runs: list[TracedRun]) -> int:
    """Spans from daemon-side layers (must be zero for ``batch_engine``)."""
    total = 0
    for run in runs:
        for span in json.loads(run.spans.read_text())["spans"]:
            if not span[0].startswith("engine."):
                total += 1
    return total
