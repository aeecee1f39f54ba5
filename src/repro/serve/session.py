"""Per-tenant streaming sessions: one scheduler engine per tenant.

A :class:`TenantSession` wraps one object-core
:class:`~repro.core.engine.Simulator` opened with
:meth:`~repro.core.engine.Simulator.start_stream`.  The daemon feeds it
validated protocol ops one at a time; :meth:`TenantSession.apply`
advances the engine and returns the *new* output records (starts,
decisions, completions) that op produced, in engine order.

One record path
---------------
The session's :class:`SessionRecorder` is the engine's recorder and
the only path a record takes.  Each ``engine.start`` /
``engine.completion`` instant and each scheduler ``decision`` becomes a
protocol dict in the current op's output list, and feeds the tenant's
live :class:`~repro.obs.live.TenantTelemetry` in the same call.  Only a
session built with ``trace=True`` (the daemon's ``--trace-dir``) also
forwards every call to a :class:`~repro.obs.recorder.TraceRecorder`;
untraced, the session keeps no per-record state at all.

Replayable by construction
--------------------------
The session keeps an **input-op log** (every successfully applied op)
and an **emitted-output counter** (every output record it has produced).
That pair is the whole checkpoint: because the engine is deterministic,
replaying the logged ops through a fresh session regenerates the exact
same output records — so a restored session simply *suppresses* the
first ``emitted`` regenerated records (they were already delivered
before the crash) and emits the rest bit-identically.  No engine state
is ever pickled; see :mod:`repro.serve.checkpoint`.

Failure containment
-------------------
Op *validation* errors (bad job fields, arrival in the past, duplicate
ids) are raised before the engine mutates anything — the session stays
live and the daemon answers with a ``serve.error`` record.  An error
escaping mid-dispatch (e.g. a scheduler violating the FJS contract)
poisons the session: it is marked failed and rejects further ops, while
its op log still restores cleanly to the last successful op.  The
records that op produced before it failed have already reached the
telemetry (and any trace), but never the wire.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..core.engine import SimulationResult, Simulator
from ..core.errors import SimulationError
from ..core.job import Instance
from ..obs.live import TenantTelemetry
from ..obs.recorder import Recorder, TraceRecorder
from ..obs.records import ObsRecord
from ..schedulers.registry import make_scheduler
from .protocol import DEFAULT_SCHEDULER, ProtocolError, job_from_op

__all__ = ["SessionRecorder", "TenantSession"]

#: Ops :meth:`TenantSession.apply` accepts (the stream-mutating subset).
_STREAM_OPS = frozenset({"job", "advance", "close"})

#: Engine instants that go on the wire, and their protocol ``kind``.
_WIRE_KINDS = {"engine.start": "start", "engine.completion": "complete"}


class SessionRecorder(Recorder):
    """The engine's recorder for one session (see module docstring).

    ``out`` is the current op's protocol record list (the session swaps
    in a fresh one per op); ``telemetry`` and ``trace`` are optional
    consumers fed in the same call.
    """

    enabled = True

    def __init__(
        self,
        tenant: str,
        telemetry: TenantTelemetry | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.tenant = tenant
        self.telemetry = telemetry
        self.trace = trace
        self.out: list[dict[str, Any]] = []
        if trace is not None:
            # Spans and metrics only matter to the trace file: bind them
            # straight to it.  Untraced, the inherited no-ops stay.
            for method in ("span", "counter_add", "gauge_set",
                           "histogram_observe"):
                setattr(self, method, getattr(trace, method))

    @property
    def records(self) -> list[ObsRecord]:
        """The trace's stored records (empty when untraced)."""
        return self.trace.records if self.trace is not None else []

    @property
    def records_dropped(self) -> int:
        """Records the trace dropped at its ``max_records`` cap."""
        if self.trace is None:
            return 0
        return int(self.trace.metrics.counters.get("obs.records_dropped", 0))

    def instant(self, name: str, **attrs: Any) -> None:
        kind = _WIRE_KINDS.get(name)
        if kind is not None:
            self.out.append(
                {"kind": kind, "tenant": self.tenant,
                 "job": attrs["job"], "t": attrs["t"]}
            )
        if self.telemetry is not None:
            self.telemetry._handle_instant(name, attrs)
        if self.trace is not None:
            self.trace.instant(name, **attrs)

    def decision(
        self, rule: str, *, job: int, t: float, scheduler: str, **attrs: Any
    ) -> None:
        self.out.append(
            {"kind": "decision", "tenant": self.tenant, "rule": rule,
             **attrs, "job": job, "t": t, "scheduler": scheduler}
        )
        if self.telemetry is not None:
            self.telemetry._handle_decision(rule)
        if self.trace is not None:
            self.trace.decision(rule, job=job, t=t, scheduler=scheduler, **attrs)


class TenantSession:
    """One tenant's live scheduling stream.

    Parameters
    ----------
    tenant:
        The tenant name (already validated by the protocol layer).
    scheduler:
        Registry name of the scheduler to run (default ``batch+``).
    params:
        Keyword arguments for the scheduler factory.
    suppress:
        Number of regenerated output records to swallow before emitting
        (checkpoint restore only — they were delivered pre-crash).
    telemetry:
        Live :class:`~repro.obs.live.TenantTelemetry` the recorder feeds
        as the engine emits (``None``, the default, costs nothing — the
        daemon arms it when ``REPRO_TELEMETRY`` is on).
    trace:
        Also keep a :class:`~repro.obs.recorder.TraceRecorder` for
        :meth:`write_trace` (the daemon sets it when it has a
        ``trace_dir``).
    """

    def __init__(
        self,
        tenant: str,
        *,
        scheduler: str = DEFAULT_SCHEDULER,
        params: dict[str, Any] | None = None,
        suppress: int = 0,
        telemetry: TenantTelemetry | None = None,
        trace: bool = False,
    ) -> None:
        self.tenant = tenant
        self.scheduler_name = scheduler
        self.params: dict[str, Any] = dict(params or {})
        try:
            sched = make_scheduler(scheduler, **self.params)
        except KeyError as exc:
            raise ProtocolError(str(exc), tenant=tenant) from None
        except TypeError as exc:
            raise ProtocolError(
                f"bad scheduler params for {scheduler!r}: {exc}", tenant=tenant
            ) from None
        self.clairvoyant = bool(
            getattr(type(sched), "requires_clairvoyance", False)
        )
        self.recorder = SessionRecorder(
            tenant,
            telemetry,
            TraceRecorder(tag={"tenant": tenant}) if trace else None,
        )
        self.sim = Simulator(
            sched,
            instance=Instance([], name=f"serve/{tenant}"),
            clairvoyant=self.clairvoyant,
            core="object",
            recorder=self.recorder,
        )
        self.sim.start_stream()
        #: Successfully applied stream ops, in order — the replay log.
        self.input_log: list[dict[str, Any]] = []
        #: Output records generated so far (delivered + restore-suppressed).
        self.emitted = 0
        self._suppress = int(suppress)
        self.closed = False
        self.failed: str | None = None
        self.result: SimulationResult | None = None
        #: Leading ops of :attr:`input_log` in the checkpoint file this
        #: session wrote.  0 (new or restored session, or a failed
        #: append) makes the next save rewrite the whole file.
        self.saved_ops = 0

    # ------------------------------------------------------------------- api
    @property
    def clock(self) -> float:
        """The tenant's logical (simulation) time."""
        return self.sim.now

    @property
    def ops_since_checkpoint(self) -> int:
        """Logged ops not yet in the checkpoint file (daemon's cadence)."""
        return len(self.input_log) - self.saved_ops

    def hello(self) -> list[dict[str, Any]]:
        """The session's opening output records (``serve.open``).

        Called exactly once, right after construction — kept out of
        ``__init__`` so restore suppression covers it like any other
        output record.
        """
        record: dict[str, Any] = {
            "kind": "serve.open",
            "tenant": self.tenant,
            "scheduler": self.scheduler_name,
            "clairvoyant": self.clairvoyant,
        }
        if self.params:
            record["params"] = dict(self.params)
        return self._deliver([record])

    def apply(self, op: dict[str, Any]) -> list[dict[str, Any]]:
        """Apply one validated stream op; return its new output records.

        Raises :class:`ProtocolError` or :class:`SimulationError` on a
        rejected op (session still live), re-raises and poisons the
        session on a mid-dispatch engine failure.
        """
        if self.failed is not None:
            raise SimulationError(
                f"tenant {self.tenant!r} stream failed earlier: {self.failed}"
            )
        if self.closed:
            raise ProtocolError(
                f"tenant {self.tenant!r} is already closed", tenant=self.tenant
            )
        kind = op.get("op")
        if kind not in _STREAM_OPS:
            raise ProtocolError(
                f"op {kind!r} is not a stream op", tenant=self.tenant
            )
        outs: list[dict[str, Any]] = []
        self.recorder.out = outs  # the engine appends this op's records
        if kind == "job":
            job = job_from_op(op)  # validation only; no engine mutation yet
            self.sim.feed([job])  # rejects past arrivals / duplicate ids
            # Exclusive advance: dispatch everything strictly before this
            # arrival, keeping the whole time-`a` cohort queued until the
            # stream moves past `a` — the batch engine's same-time order
            # (arrivals before deadlines) is preserved for jobs fed one
            # protocol line at a time.
            self._dispatch(job.arrival, inclusive=False)
        elif kind == "advance":
            self._dispatch(float(op["t"]), inclusive=True)
        else:  # close
            result = self._finish_dispatch()
            self.closed = True
            self.result = result
            outs.append(
                {
                    "kind": "serve.closed",
                    "tenant": self.tenant,
                    "span": result.span,
                    "jobs": len(result.instance.jobs),
                    "events": result.events_processed,
                }
            )
        self.input_log.append(dict(op))
        return self._deliver(outs)

    def write_trace(self, directory: "str | Path") -> str:
        """Write the session's structured trace as versioned JSONL.

        The trace of a *closed* session reconciles under
        ``repro obs explain --strict`` exactly like a batch run's.
        Raises ``ValueError`` on a session built without ``trace=True``.
        """
        trace = self.recorder.trace
        if trace is None:
            raise ValueError(f"tenant {self.tenant!r} was opened untraced")
        path = Path(directory) / f"{self.tenant}.trace.jsonl"
        return trace.write_jsonl(
            path,
            command="serve",
            tenant=self.tenant,
            scheduler=self.scheduler_name,
        )

    # ------------------------------------------------------------ checkpoint
    def checkpoint_state(
        self,
    ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """The session as ``(meta, rows)`` for the versioned JSONL sink.

        ``meta`` carries the session configuration plus the
        emitted-output counter; ``rows`` are the logged input ops.  The
        pair is sufficient to rebuild the session by deterministic
        replay (see :meth:`restore`).
        """
        meta: dict[str, Any] = {
            "tenant": self.tenant,
            "scheduler": self.scheduler_name,
            "emitted": self.emitted,
            "closed": self.closed,
            "clock": self.clock,
            "ops": len(self.input_log),
        }
        if self.params:
            meta["params"] = dict(self.params)
        return meta, self._op_rows(0)

    def checkpoint_append(self) -> list[dict[str, Any]]:
        """The rows an appending save adds to the checkpoint file.

        The ops logged after the first :attr:`saved_ops`, then one
        ``commit`` row carrying the state that :meth:`checkpoint_state`'s
        meta header would carry now.  A reader takes the last commit row
        as the checkpoint; see :func:`repro.serve.checkpoint.load_checkpoint`.
        """
        rows = self._op_rows(self.saved_ops)
        rows.append(
            {
                "kind": "commit",
                "ops": len(self.input_log),
                "emitted": self.emitted,
                "clock": self.clock,
                "closed": self.closed,
            }
        )
        return rows

    @classmethod
    def restore(
        cls,
        meta: dict[str, Any],
        ops: list[dict[str, Any]],
        *,
        telemetry: TenantTelemetry | None = None,
        trace: bool = False,
    ) -> "TenantSession":
        """Rebuild a session by replaying its checkpointed op log.

        The first ``meta["emitted"]`` regenerated output records are
        suppressed (already delivered before the crash); everything the
        restored session emits afterwards is bit-identical to what the
        uninterrupted session would have emitted.  ``telemetry`` and
        ``trace`` are fed by the replay itself, exactly as by the
        uninterrupted session.
        """
        emitted = int(meta.get("emitted", 0))
        session = cls(
            str(meta["tenant"]),
            scheduler=str(meta.get("scheduler", DEFAULT_SCHEDULER)),
            params=dict(meta.get("params") or {}),
            suppress=emitted,
            telemetry=telemetry,
            trace=trace,
        )
        session.hello()
        for op in ops:
            session.apply(dict(op))
        if session._suppress:
            raise ValueError(
                f"checkpoint inconsistent for tenant {meta['tenant']!r}: "
                f"{session._suppress} delivered output(s) were never "
                "regenerated by replay"
            )
        return session

    # -------------------------------------------------------------- internal
    def _op_rows(self, start: int) -> list[dict[str, Any]]:
        return [{"kind": "op", "data": dict(op)} for op in self.input_log[start:]]

    def _dispatch(self, until: float, *, inclusive: bool) -> None:
        """Advance the engine, poisoning the session on dispatch failure."""
        if until < self.sim.now:
            # Rejected before the engine touches anything: session live.
            raise SimulationError(
                f"advance({until:g}) is in the past "
                f"(tenant clock is at {self.sim.now:g})"
            )
        try:
            self.sim.advance(until, inclusive=inclusive)
        except Exception as exc:
            # Escaped mid-dispatch: engine state may be partial — poison.
            self.failed = f"{type(exc).__name__}: {exc}"
            raise

    def _finish_dispatch(self) -> SimulationResult:
        try:
            return self.sim.finish_stream()
        except Exception as exc:
            self.failed = f"{type(exc).__name__}: {exc}"
            raise

    def _deliver(self, outs: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Count generated outputs; swallow restore-suppressed ones."""
        self.emitted += len(outs)
        if self._suppress:
            consumed = min(self._suppress, len(outs))
            self._suppress -= consumed
            outs = outs[consumed:]
        return outs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "failed" if self.failed else "closed" if self.closed else "open"
        return (
            f"TenantSession({self.tenant!r}, {self.scheduler_name!r}, "
            f"{state}, t={self.clock:g}, ops={len(self.input_log)})"
        )
