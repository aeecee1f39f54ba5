"""Discrete-event simulator for online FJS.

The simulator runs an *online scheduler* against either a static
:class:`~repro.core.job.Instance` or an *adaptive adversary* (which may
inject jobs and commit processing lengths during the run, as the paper's
lower-bound constructions in §3.1 and §4.1 require).

Information models
------------------
* **Clairvoyant** — the scheduler sees ``p(J)`` from the moment ``J``
  arrives (``JobView.length`` is always available).
* **Non-clairvoyant** — ``p(J)`` is hidden until the job completes;
  accessing it earlier raises :class:`ClairvoyanceError`.  This is
  enforced structurally: the scheduler only ever handles
  :class:`JobView` objects, never raw jobs.

Scheduler protocol
------------------
A scheduler implements any subset of the hooks

``on_arrival(ctx, job)`` · ``on_deadline(ctx, job)`` ·
``on_completion(ctx, job)`` · ``on_timer(ctx, tag)``

and acts through the :class:`SchedulerContext`: ``ctx.start(job_id)``
starts a pending job *now*; ``ctx.set_timer(t, tag)`` requests a wake-up.
The engine guarantees ``on_deadline`` fires exactly when an unstarted
job's starting deadline is reached — if the scheduler returns without
starting it, the run aborts with :class:`DeadlineMissedError`, because an
FJS scheduler must start every job within its window.

Adversary protocol
------------------
An adversary (see ``repro.adversaries.base``) supplies initial jobs,
observes starts/completions, may release more jobs (with arrivals at or
after the current time), request wake-ups, and commit the length of any
job it created with ``length=None``.  Lengths are committed at an
``ASSIGN`` event whose time the adversary chooses when the job starts
(the §3.1 construction assigns lengths one time unit after start).

Strict mode (the clairvoyance oracle)
-------------------------------------
The non-clairvoyant contract is enforced structurally only when the run
itself is non-clairvoyant.  A scheduler that *declares*
``requires_clairvoyance = False`` but is executed with
``clairvoyant=True`` (e.g. in a mixed comparison grid) could silently
read lengths it claims not to need.  Under ``strict=True`` — or
``REPRO_STRICT=1`` in the environment — the engine attaches a
:class:`ClairvoyanceGuard` that records every pre-completion
``JobView.length`` read by such a scheduler and raises
:class:`ClairvoyanceError` on the spot.  This is the runtime oracle that
cross-validates the static RL001 rule in :mod:`repro.lint`: both must
agree on any scheduler, and the lint test suite checks them against each
other on shared fixtures.

Engine cores
------------
The simulator has two interchangeable cores selected by
``Simulator(..., core=...)`` (or ``REPRO_ENGINE_CORE``):

* ``"columnar"`` (default) — the struct-of-arrays hot path in
  :mod:`repro.core.columnar`: per-job state lives in a
  :class:`~repro.core.columnar.JobTable` of NumPy columns, events carry
  integer row indexes, and same-time event cohorts are dispatched as
  array operations.  ``Job``/:class:`JobView` objects are materialised
  lazily at the API boundary.
* ``"object"`` — the reference implementation below: one ``_JobState``
  per job, scalar dispatch.  It defines the semantics; the columnar core
  must reproduce its traces, schedules and observability output
  bit-for-bit (enforced by ``tests/test_engine_equivalence.py``).  A
  batch :meth:`Simulator.run` on it takes the streaming lifecycle in one
  go — begin (admit, ``setup``, ``engine.run_begin``), dispatch to the
  end, dispatch totals, finish — through the same single event loop,
  ``Simulator._dispatch``, that :meth:`Simulator.advance` drives.

Each core has exactly one event loop.  Both cores begin, admit, drain
and end a run through the module-level helpers below (``_begin_run``,
``_admission``, ``_emit_release``, ``_dispatch_run``, ``_emit_run_end``),
so the obs records those steps emit cannot drift between the cores.

Both cores serve the same :class:`SchedulerContext`, so schedulers are
core-agnostic; batch-family schedulers additionally use
``ctx.pending_ids()``/``ctx.start_batch()`` which the columnar core
vectorises.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from heapq import heappop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .columnar import JobBatch

from .errors import (
    ClairvoyanceError,
    DeadlineMissedError,
    SchedulingViolationError,
    SimulationError,
)
from .events import EventKind, EventQueue
from .job import Instance, Job
from .schedule import Schedule
from .trace import Trace, TraceKind

# Submodule imports (not the ``repro.obs`` package facade) so the
# engine <-> obs import cycle stays one-directional at module level:
# ``repro.obs.explain`` imports ``repro.core.audit``, never the engine.
from ..obs.recorder import Recorder
from ..obs.runtime import get_recorder as _get_ambient_recorder

__all__ = [
    "ClairvoyanceGuard",
    "EngineCore",
    "JobView",
    "SchedulerContext",
    "AdversaryResponse",
    "Adversary",
    "SimulationResult",
    "Simulator",
    "simulate",
    "strict_mode_enabled",
]

#: Hard cap on processed events, guarding against runaway scheduler/adversary
#: interactions (e.g. a timer loop that never advances time).
MAX_EVENTS_DEFAULT = 10_000_000

# Integer event-kind constants, hoisted for the hot dispatch loop (an
# IntEnum attribute access per event is measurable at 10^5+ events/run).
_COMPLETION = int(EventKind.COMPLETION)
_ASSIGN = int(EventKind.ASSIGN)
_ARRIVAL = int(EventKind.ARRIVAL)
_DEADLINE = int(EventKind.DEADLINE)
_TIMER = int(EventKind.TIMER)
_ADVERSARY = int(EventKind.ADVERSARY)

# -- core-parity declaration (RL013) ------------------------------------
# This module is the *object* core of the dual-core engine; the columnar
# core must mirror every state transition below up to the field map.  A
# deliberately one-sided write carries a ``# parity: object-only``
# annotation on its line.
_PARITY_CORE = "object"
_PARITY_PEER = "repro.core.columnar"
#: Physical field -> shared logical token compared against the peer core.
_PARITY_FIELDS = {
    "arrived": "lifecycle",
    "completed": "lifecycle",
    "length_visible": "visibility",
    "length": "length",
    "start": "start-time",
    "_pending": "pending-index",
    "_running": "running-index",
}

#: Per-kind dispatch counters (indexed by the raw event kind int) for the
#: observability layer; only touched when a recorder is armed.
_OBS_EVENT_COUNTERS = (
    "engine.events.completion",  # 0
    "engine.events.assign",      # 1
    "engine.events.arrival",     # 2
    "engine.events.deadline",    # 3
    "engine.events.timer",       # 4
    "engine.events.adversary",   # 5
)


# -- run-lifecycle and obs helpers shared by both cores ------------------
def _emit_release(
    obs: Recorder,
    now: float,
    job: int,
    arrival: float,
    deadline: float,
    length: float | None,
) -> None:
    """``engine.release`` for one admitted job (``length`` when known)."""
    if length is not None:
        obs.instant(
            "engine.release",
            t=now,
            job=job,
            arrival=arrival,
            deadline=deadline,
            length=length,
        )
    else:
        obs.instant(
            "engine.release", t=now, job=job, arrival=arrival, deadline=deadline
        )


def _begin_run(core: EngineCore, initial_jobs: int, *, streaming: bool) -> None:
    """Call the scheduler's ``setup``, then emit ``engine.run_begin``.

    A stream's record also carries ``streaming=True``.
    """
    setup = getattr(core._scheduler, "setup", None)
    if callable(setup):
        setup(core._ctx)
    obs = core._obs
    if obs is not None:
        attrs: dict[str, Any] = {
            "scheduler": type(core._scheduler).__name__,
            "clairvoyant": core._clairvoyant,
            "adversarial": core._adversary is not None,
            "initial_jobs": initial_jobs,
        }
        if streaming:
            attrs["streaming"] = True
        obs.instant("engine.run_begin", **attrs)


@contextmanager
def _admission(obs: Recorder | None, n: int) -> Iterator[None]:
    """The ``engine.admit_batch`` span around a bulk admission of ``n``
    jobs, then the ``engine.jobs_admitted`` count (nothing disarmed)."""
    if obs is None:
        yield
        return
    with obs.span("engine.admit_batch", n=n):
        yield
    obs.counter_add("engine.jobs_admitted", float(n))


def _dispatch_run(core: EngineCore, dispatch: Callable[[], object]) -> None:
    """A batch run's whole dispatch.  Armed, it runs inside an
    ``engine.dispatch`` span and the totals are emitted even if it raises."""
    obs = core._obs
    if obs is None:
        dispatch()
        return
    try:
        with obs.span("engine.dispatch"):
            dispatch()
    finally:
        _emit_dispatch_totals(core)


def _emit_dispatch_totals(core: EngineCore) -> None:
    """Whole-run dispatch counters and the heap high-water mark."""
    obs = core._obs
    if obs is None:
        return
    obs.counter_add("engine.events_processed", core._events_processed)
    obs.counter_add("engine.heap.pushes", core._queue._seq)
    obs.gauge_set("engine.heap.peak", float(core._heap_peak))


def _emit_run_end(
    obs: Recorder, now: float, schedule: Schedule, events: int
) -> None:
    """Span, job count and length histogram, then ``engine.run_end``."""
    jobs = schedule.instance.jobs
    span = schedule.span
    obs.gauge_set("engine.span", span)
    obs.counter_add("engine.jobs", float(len(jobs)))
    for job in jobs:
        assert job.length is not None
        obs.histogram_observe("engine.job_length", job.length)
    obs.instant("engine.run_end", t=now, span=span, jobs=len(jobs), events=events)


def _budget_error(max_events: int) -> SimulationError:
    return SimulationError(
        f"event budget exceeded ({max_events}); "
        "likely a scheduler/adversary live-lock"
    )


def strict_mode_enabled() -> bool:
    """Whether ``REPRO_STRICT`` requests the clairvoyance oracle."""
    return os.environ.get("REPRO_STRICT", "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
    )


class ClairvoyanceGuard:
    """Runtime oracle for the non-clairvoyant information model.

    Attached to every job state when a :class:`Simulator` runs in strict
    mode with a scheduler declaring ``requires_clairvoyance = False``.
    Any ``JobView.length`` read before the job completes is recorded in
    :attr:`accesses` as ``(job_id, time)`` and then rejected with
    :class:`ClairvoyanceError` — the dynamic twin of the static RL001
    rule in :mod:`repro.lint`.
    """

    __slots__ = ("accesses", "scheduler_name", "_sim")

    def __init__(self, sim: Any, scheduler_name: str) -> None:
        self.accesses: list[tuple[int, float]] = []
        self.scheduler_name = scheduler_name
        #: The active engine core (``Simulator`` or ``ColumnarCore``) —
        #: only ``_now`` and ``_obs`` are read off it.
        self._sim = sim

    def record(self, job_id: int) -> None:
        self.accesses.append((job_id, self._sim._now))
        obs = self._sim._obs
        if obs is not None:
            obs.instant(
                "engine.clairvoyance_guard",
                t=self._sim._now,
                job=job_id,
                scheduler=self.scheduler_name,
            )
            obs.counter_add("engine.clairvoyance_guard.reads")
        raise ClairvoyanceError(
            f"strict mode: scheduler {self.scheduler_name!r} declares "
            f"requires_clairvoyance=False but read job {job_id}'s length "
            f"at t={self._sim._now:g}, before the job completed "
            "(REPRO_STRICT clairvoyance oracle)"
        )


class JobView:
    """The scheduler-facing view of a job.

    Exposes arrival, starting deadline and laxity unconditionally; the
    processing length only when the information model permits (always in
    clairvoyant mode, after completion otherwise).
    """

    __slots__ = ("_job", "_state")

    def __init__(self, job: Job, state: "_JobState") -> None:
        self._job = job
        self._state = state

    @property
    def id(self) -> int:
        return self._job.id

    @property
    def arrival(self) -> float:
        return self._job.arrival

    @property
    def deadline(self) -> float:
        """The starting deadline ``d(J)`` (latest permissible start)."""
        return self._job.deadline

    @property
    def laxity(self) -> float:
        return self._job.deadline - self._job.arrival

    @property
    def size(self) -> float:
        """Resource demand (DBP extension); always visible."""
        return self._job.size

    @property
    def length(self) -> float:
        """``p(J)``; raises :class:`ClairvoyanceError` when still hidden.

        In strict mode (``REPRO_STRICT=1``) a read by a scheduler that
        declared ``requires_clairvoyance = False`` is additionally
        recorded and rejected even when the run is clairvoyant — see
        :class:`ClairvoyanceGuard`.
        """
        st = self._state
        if not st.length_visible:
            raise ClairvoyanceError(
                f"job {self._job.id}: processing length is hidden in the "
                "non-clairvoyant setting until the job completes"
            )
        guard = st.guard
        if guard is not None and not st.completed:
            guard.record(self._job.id)
        assert st.length is not None
        return st.length

    @property
    def length_if_known(self) -> float | None:
        """``p(J)`` when visible, else ``None`` (no exception)."""
        return self._state.length if self._state.length_visible else None

    @property
    def started(self) -> bool:
        return self._state.start is not None

    @property
    def start_time(self) -> float | None:
        return self._state.start

    @property
    def completed(self) -> bool:
        return self._state.completed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self._state.length if self._state.length_visible else "?"
        return (
            f"JobView(id={self.id}, a={self.arrival:g}, d={self.deadline:g}, "
            f"p={p})"
        )


class _JobState:
    """Engine-internal per-job bookkeeping.

    A plain ``__slots__`` class (not a dataclass): one is allocated per
    job and the §3.1 adversarial macro runs create tens of thousands,
    so construction cost and attribute access are on the hot path.  The
    scheduler-facing :class:`JobView` is allocated once here and reused
    for every hook call on the job.
    """

    __slots__ = (
        "job",
        "length",
        "length_visible",
        "arrived",
        "start",
        "completion",
        "completed",
        "view",
        "guard",
    )

    def __init__(self, job: Job, guard: ClairvoyanceGuard | None = None) -> None:
        self.job = job
        self.length: float | None = None  # committed processing length
        self.length_visible = False  # may the scheduler read it?
        self.arrived = False
        self.start: float | None = None
        self.completion: float | None = None
        self.completed = False
        self.guard = guard  # strict-mode clairvoyance oracle (or None)
        self.view = JobView(job, self)


@dataclass(frozen=True)
class AdversaryResponse:
    """What an adversary hook may request from the engine.

    Attributes
    ----------
    release:
        New jobs to inject.  Each job's arrival must be at or after the
        current simulation time.
    wakeup:
        An absolute time at which ``on_wakeup`` should be invoked, or
        ``None``.
    release_batch:
        A columnar :class:`~repro.core.columnar.JobBatch` of new jobs —
        the vector-friendly sibling of ``release``.  The columnar core
        admits the arrays directly; the object core materialises
        equivalent :class:`Job` objects via ``JobBatch.jobs()``.  When
        both fields are set, ``release`` is admitted first.
    """

    release: tuple[Job, ...] = ()
    wakeup: float | None = None
    release_batch: "JobBatch | None" = None


@runtime_checkable
class Adversary(Protocol):
    """Structural protocol for adaptive adversaries (see adversaries.base)."""

    def initial_jobs(self) -> Iterable[Job]: ...

    def on_start(self, job: Job, t: float) -> AdversaryResponse | None: ...

    def on_completion(self, job: Job, t: float) -> AdversaryResponse | None: ...

    def on_wakeup(self, t: float) -> AdversaryResponse | None: ...

    def length_decision_time(self, job: Job, start: float) -> float: ...

    def assign_length(self, job: Job, t: float) -> float: ...


class EngineCore(Protocol):
    """What a core must provide to back a :class:`SchedulerContext` and
    to share the run-lifecycle helpers above.

    Implemented by :class:`Simulator` (the object core) and
    :class:`~repro.core.columnar.ColumnarCore`.
    """

    _now: float
    _clairvoyant: bool
    _queue: EventQueue
    _scheduler: Any
    _adversary: Any
    _ctx: SchedulerContext
    _obs: Recorder | None
    _events_processed: int
    _heap_peak: int

    def _start_job(self, job_id: int) -> None: ...

    def _start_batch(self, job_ids: Sequence[int]) -> None: ...

    def _pending_views(self) -> list[JobView]: ...

    def _running_views(self) -> list[JobView]: ...

    def _pending_ids(self) -> list[int]: ...

    def _is_started(self, job_id: int) -> bool: ...

    def _is_completed(self, job_id: int) -> bool: ...


class SchedulerContext:
    """The scheduler's handle on the running simulation.

    The context is a thin façade over the active engine core; the same
    API is served by the object core (scalar) and the columnar core
    (vectorised), so schedulers never observe which one is running.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: EngineCore) -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._sim._now

    @property
    def clairvoyant(self) -> bool:
        """Whether processing lengths are visible at arrival."""
        return self._sim._clairvoyant

    def start(self, job_id: int) -> None:
        """Start a pending job at the current time.

        Raises :class:`SchedulingViolationError` on any illegal start
        (unknown/unarrived/already-started job, or past the deadline).
        """
        self._sim._start_job(job_id)

    def start_batch(self, job_ids: Sequence[int]) -> None:
        """Start many pending jobs at the current time, in order.

        Semantically identical to ``for jid in job_ids: ctx.start(jid)``
        (same validation, same error on the first illegal start, same
        trace records) — but the columnar core executes the cohort as
        array operations, which is what makes the batch-family
        schedulers' deadline handler O(cohort) instead of O(cohort)
        Python calls.
        """
        self._sim._start_batch(job_ids)

    def set_timer(self, time: float, tag: Any = None) -> None:
        """Request an ``on_timer(ctx, tag)`` callback at absolute ``time``."""
        sim = self._sim
        if time < sim._now:
            raise SchedulingViolationError(
                f"timer at {time} is in the past (now={sim._now})"
            )
        sim._queue.push(time, EventKind.TIMER, tag)

    def pending(self) -> list[JobView]:
        """Arrived-but-unstarted jobs, sorted by (deadline, arrival, id).

        Backed by an incrementally maintained index, so schedulers may
        call this on every event without an O(all jobs) scan.
        """
        return self._sim._pending_views()

    def pending_ids(self) -> list[int]:
        """Ids of pending jobs, sorted by (deadline, arrival, id).

        Exactly ``[v.id for v in ctx.pending()]`` but without
        materialising the views — pair with :meth:`start_batch` for the
        vectorised cohort-start path.
        """
        return self._sim._pending_ids()

    def is_started(self, job_id: int) -> bool:
        return self._sim._is_started(job_id)

    def is_completed(self, job_id: int) -> bool:
        return self._sim._is_completed(job_id)

    def running(self) -> list[JobView]:
        """Started-but-uncompleted jobs, sorted by (start, id).

        Backed by the same incremental index as :meth:`pending`.
        """
        return self._sim._running_views()


class SimulationResult:
    """Outcome of a completed simulation.

    Attributes
    ----------
    schedule:
        The validated schedule over the *resolved* instance (all
        adversary-controlled lengths committed).
    instance:
        The resolved instance actually executed.
    span:
        The schedule's span (``schedule.span``).
    events_processed:
        Number of events dispatched — a proxy for simulation work.
    scheduler:
        The scheduler object (exposes algorithm-specific statistics such
        as flag jobs).

    The columnar core constructs results *lazily*: ``span`` and
    ``events_processed`` are available immediately, while the
    ``Job``/``Instance``/``Schedule`` objects are materialised from the
    job table on first access of ``schedule``/``instance`` (benchmark
    loops that only read ``span`` never pay for them).  The object core
    constructs them eagerly; either way the attribute API is identical.
    """

    __slots__ = (
        "events_processed",
        "scheduler",
        "trace",
        "recorder",
        "_schedule",
        "_instance",
        "_span",
        "_materialize",
    )

    def __init__(
        self,
        *,
        schedule: Schedule | None = None,
        instance: Instance | None = None,
        events_processed: int,
        scheduler: Any,
        trace: Trace | None = None,
        recorder: Any | None = None,
        materialize: "Callable[[], tuple[Schedule, Instance]] | None" = None,
        span: float | None = None,
    ) -> None:
        if schedule is None and materialize is None:
            raise SimulationError(
                "SimulationResult needs either an eager schedule or a "
                "materialize callback"
            )
        self.events_processed = events_processed
        self.scheduler = scheduler
        self.trace = trace
        #: The armed structured recorder (``None`` when observability was
        #: off) — exposes ``records``/``metrics`` and the JSONL sink.
        self.recorder = recorder
        self._schedule = schedule
        self._instance = instance
        self._span = span
        self._materialize = materialize

    def _ensure(self) -> Schedule:
        schedule = self._schedule
        if schedule is None:
            assert self._materialize is not None
            schedule, self._instance = self._materialize()
            self._schedule = schedule
            self._materialize = None
        return schedule

    @property
    def schedule(self) -> Schedule:
        return self._ensure()

    @property
    def instance(self) -> Instance:
        self._ensure()
        assert self._instance is not None
        return self._instance

    @property
    def span(self) -> float:
        if self._span is not None:
            return self._span
        return self._ensure().span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(scheduler={type(self.scheduler).__name__}, "
            f"span={self.span:g}, events={self.events_processed})"
        )


class Simulator:
    """Runs one online scheduler against one instance or adversary.

    Parameters
    ----------
    scheduler:
        An object implementing (a subset of) the scheduler hooks.  Its
        ``setup(ctx)`` method, if present, is invoked before any event.
    instance:
        A static instance; mutually exclusive with ``adversary``.
    adversary:
        An adaptive adversary; mutually exclusive with ``instance``.
    clairvoyant:
        The information model.  Adversary-controlled lengths require
        ``clairvoyant=False`` (a clairvoyant scheduler must know lengths
        at arrival).
    max_events:
        Safety cap on dispatched events.
    trace:
        When true, record a :class:`~repro.core.trace.Trace` of every
        event and scheduler action (exposed on the result).
    strict:
        Enable the clairvoyance oracle (see module docstring).  ``None``
        (the default) defers to the ``REPRO_STRICT`` environment
        variable, so test runs can switch the whole suite on at once.
    recorder:
        A :class:`repro.obs.Recorder` for structured tracing, metrics,
        and decision provenance.  ``None`` (the default) uses the
        process's ambient recorder, which ``REPRO_TRACE=1`` arms — so
        observability needs no code changes at call sites.  A disabled
        recorder (``NullRecorder`` included) is mapped to ``None``
        before the event loop starts: the hot path then carries exactly
        one ``is not None`` test per event, which is what keeps the
        golden trace bit-identical and the macro-bench overhead ≤2 %.
    core:
        ``"columnar"`` (struct-of-arrays hot path, the default) or
        ``"object"`` (the reference scalar core).  ``None`` defers to
        the ``REPRO_ENGINE_CORE`` environment variable, then to
        ``"columnar"``.  Both cores are observably identical (traces,
        schedules, obs records); see the module docstring.
    """

    def __init__(
        self,
        scheduler: Any,
        *,
        instance: Instance | None = None,
        adversary: Adversary | None = None,
        clairvoyant: bool = False,
        max_events: int = MAX_EVENTS_DEFAULT,
        trace: bool = False,
        strict: bool | None = None,
        recorder: Recorder | None = None,
        core: str | None = None,
    ) -> None:
        if (instance is None) == (adversary is None):
            raise SimulationError(
                "provide exactly one of instance= or adversary="
            )
        if core is None:
            core = (
                os.environ.get("REPRO_ENGINE_CORE", "").strip().lower()
                or "columnar"
            )
        if core not in ("columnar", "object"):
            raise SimulationError(
                f"unknown engine core {core!r} "
                "(expected 'columnar' or 'object')"
            )
        self._core = core
        self._scheduler = scheduler
        self._instance = instance
        self._adversary = adversary
        self._clairvoyant = clairvoyant
        self._max_events = max_events
        if strict is None:
            strict = strict_mode_enabled()

        # Observability: resolve the recorder (explicit > ambient), then
        # collapse "disabled" to None so the hot loop tests one local.
        if recorder is None:
            recorder = _get_ambient_recorder()
        self._obs: Recorder | None = recorder if recorder.enabled else None
        if self._obs is not None and hasattr(scheduler, "obs"):
            # Arm the scheduler's decision-provenance channel.
            scheduler.obs = self._obs

        self._guard: ClairvoyanceGuard | None = None
        if strict and not getattr(
            type(scheduler), "requires_clairvoyance", False
        ):
            self._guard = ClairvoyanceGuard(self, type(scheduler).__name__)

        self._trace: Trace | None = Trace() if trace else None
        self._queue = EventQueue()
        self._states: dict[int, _JobState] = {}
        #: Incremental indexes behind ``ctx.pending()`` / ``ctx.running()``.
        self._pending: dict[int, _JobState] = {}
        self._running: dict[int, _JobState] = {}
        self._now = 0.0
        self._events_processed = 0
        self._heap_peak = 0
        self._ctx = SchedulerContext(self)
        self._started = False
        self._streaming = False
        #: Object-core event handlers, indexed by the raw event kind int.
        self._handlers: tuple[Callable[[Any], None], ...] = (
            self._handle_completion,  # 0 COMPLETION
            self._handle_assign,      # 1 ASSIGN
            self._handle_arrival,     # 2 ARRIVAL
            self._handle_deadline,    # 3 DEADLINE
            self._handle_timer,       # 4 TIMER
            self._handle_adversary,   # 5 ADVERSARY
        )

        # Scheduler hooks are resolved once instead of via getattr per
        # event (the previous `_call_hook` showed up in profiles at
        # ~7% of an adversarial macro run).
        self._hook_arrival = self._resolve_hook("on_arrival")
        self._hook_deadline = self._resolve_hook("on_deadline")
        self._hook_completion = self._resolve_hook("on_completion")
        self._hook_timer = self._resolve_hook("on_timer")

    def _resolve_hook(self, name: str) -> Any:
        hook = getattr(self._scheduler, name, None)
        if hook is None or not callable(hook):
            return None
        # Inherited no-op defaults (OnlineScheduler marks them with
        # ``_repro_noop_hook``) resolve to None so neither core pays a
        # Python call per event for a hook that does nothing — and so the
        # columnar core knows a cohort has no per-job callback to honour.
        if getattr(hook, "_repro_noop_hook", False):
            return None
        return hook

    @property
    def strict_guard(self) -> ClairvoyanceGuard | None:
        """The clairvoyance oracle, when strict mode armed one.

        Its ``accesses`` list survives an aborted run, so tests can
        inspect exactly which pre-completion reads occurred.
        """
        return self._guard

    # ------------------------------------------------------------------ run
    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return the result."""
        if self._started:
            raise SimulationError("a Simulator instance can only run once")
        self._started = True
        if self._core == "columnar":
            from .parity import parity_mode_enabled

            if parity_mode_enabled():
                from .parity import run_lockstep

                return run_lockstep(self)
            from .columnar import ColumnarCore

            return ColumnarCore(self).run()
        self._begin(streaming=False)
        _dispatch_run(self, self._dispatch)
        return self._finish()

    def _begin(self, *, streaming: bool) -> None:
        """Admit the initial jobs, call ``setup``, emit ``engine.run_begin``."""
        if self._instance is not None:
            initial = list(self._instance.jobs)
        else:
            assert self._adversary is not None
            initial = list(self._adversary.initial_jobs())
        self._admit_batch(initial)
        _begin_run(self, len(initial), streaming=streaming)

    def _dispatch(
        self, until: float | None = None, inclusive: bool = True
    ) -> int:
        """The object core's event loop: dispatch queued events up to
        ``until`` (``None``: until the queue is empty); returns the count.

        Batch :meth:`run` calls it once, streaming :meth:`advance` once
        per call.  Locals are hoisted and events popped as raw tuples: at
        >10^5 events per adversarial run, attribute lookups and Event
        construction dominate otherwise (see repro/perf/bench.py for the
        tracked numbers).  When a recorder is armed (``obs is not
        None``), the loop also keeps per-kind dispatch counters and the
        heap high-water mark; disarmed, the extra cost is two local
        ``is not None`` tests per event (ratcheted by ``python -m repro
        obs overhead``).
        """
        obs = self._obs
        heap = self._queue._heap
        max_events = self._max_events
        handlers = self._handlers
        processed = first = self._events_processed
        heap_peak = self._heap_peak
        try:
            while heap and (
                until is None
                or (heap[0][0] <= until if inclusive else heap[0][0] < until)
            ):
                if obs is not None and len(heap) > heap_peak:
                    heap_peak = len(heap)
                time, kind, _seq, payload = heappop(heap)
                processed += 1
                if processed > max_events:
                    raise _budget_error(max_events)
                if time < self._now:
                    raise SimulationError(
                        f"time went backwards: {time} < {self._now}"
                    )
                self._now = time
                if obs is not None:
                    obs.counter_add(_OBS_EVENT_COUNTERS[kind])
                handlers[kind](payload)
        finally:
            self._events_processed = processed
            self._heap_peak = heap_peak
        return processed - first

    # -------------------------------------------------------- streaming feed
    @property
    def now(self) -> float:
        """The logical clock (simulation time) — read-only.

        Streaming callers (``repro serve``) use it to report per-tenant
        progress and to stamp checkpoints; batch callers never need it.
        """
        return self._now

    def start_stream(self) -> None:
        """Begin an incremental (streaming) session on the object core.

        This is the entry point behind ``repro serve``: instead of one
        :meth:`run` that drains every queued event, the caller
        interleaves :meth:`feed` (admit newly arrived jobs),
        :meth:`advance` (process queued events up to a logical time) and
        finally :meth:`finish_stream` (drain and build the result).  A
        batch :meth:`run` on the object core is this same lifecycle
        taken in one go — the same begin step, the same event loop
        (``_dispatch``), the same totals and finish — so a time-ordered
        job stream produces the same schedule, trace and decision
        records as running the equivalent static instance in one shot.

        Streaming requires the scalar object core (construct with
        ``Simulator(..., core="object")``); the columnar core's cohort
        gathering assumes the full event horizon is known up front.
        Adversaries are not supported: a streaming session's jobs come
        from the outside world, not from an in-process construction.
        """
        if self._started:
            raise SimulationError("a Simulator instance can only run once")
        if self._core != "object":
            raise SimulationError(
                "streaming sessions require the object core "
                "(construct with Simulator(..., core='object'))"
            )
        if self._adversary is not None:
            raise SimulationError(
                "streaming sessions do not support adversaries"
            )
        self._started = True
        self._streaming = True
        self._begin(streaming=True)

    def feed(self, jobs: "Iterable[Job]") -> int:
        """Admit newly arrived jobs mid-stream; returns how many.

        Each job's arrival must be at or after the current logical clock
        (:class:`SimulationError` otherwise) — the stream is online, so
        the past cannot grow new jobs.  Admission only queues the
        arrival event; it is dispatched by a later :meth:`advance` whose
        horizon covers it, which is what preserves the batch engine's
        same-time cohort order for jobs fed one line at a time.
        """
        if not self._streaming:
            raise SimulationError(
                "feed() requires an active start_stream() session"
            )
        batch = list(jobs)
        if len(batch) == 1:
            self._admit_job(batch[0])
        elif batch:
            self._admit_batch(batch)
        return len(batch)

    def advance(self, until: float | None = None, *, inclusive: bool = True) -> int:
        """Dispatch queued events up to ``until``; returns the count.

        ``None`` drains the queue completely; any other ``until`` must
        be finite (:class:`SimulationError` otherwise, before any state
        changes).  With ``inclusive=False`` only events *strictly
        before* ``until`` dispatch — the mode the serve session uses
        when a job at arrival ``a`` comes in, so the whole time-``a``
        cohort (arrivals before deadlines, exactly as the batch engine
        orders them) stays queued until the stream moves past ``a``.
        Either way the logical clock ends at ``max(now, until)``, so a
        later :meth:`feed` of a job arriving before ``until`` is
        rejected: per-tenant streams must be time-monotone, exactly like
        the online model.
        """
        if not self._streaming:
            raise SimulationError(
                "advance() requires an active start_stream() session"
            )
        if until is not None:
            if not math.isfinite(until):
                raise SimulationError(
                    f"advance({until}) needs a finite time "
                    "(None drains every queued event)"
                )
            if until < self._now:
                raise SimulationError(
                    f"advance({until}) is in the past (now={self._now})"
                )
        dispatched = self._dispatch(until, inclusive)
        if until is not None and until > self._now:
            self._now = until
        return dispatched

    def finish_stream(self) -> SimulationResult:
        """Drain every remaining event and build the result.

        Remaining deadline events force their starts on the way out (the
        FJS contract: every admitted job must start within its window),
        so after this returns every fed job has started and completed.
        """
        if not self._streaming:
            raise SimulationError(
                "finish_stream() requires an active start_stream() session"
            )
        self._dispatch()
        self._streaming = False
        _emit_dispatch_totals(self)
        return self._finish()

    # -------------------------------------------------------------- internal
    def _record(
        self, kind: TraceKind, job_id: int | None = None, detail: str = ""
    ) -> None:
        if self._trace is not None:
            self._trace.append(self._now, kind, job_id, detail)

    def _validate_admission(self, job: Job) -> _JobState:
        """Shared admission checks; returns the registered job state."""
        if job.id in self._states:
            raise SimulationError(f"duplicate job id {job.id} admitted")
        if job.arrival < self._now:
            raise SimulationError(
                f"job {job.id} released with arrival {job.arrival} in the "
                f"past (now={self._now})"
            )
        if job.length is None:
            if self._adversary is None:
                raise SimulationError(
                    f"job {job.id} has no length and no adversary to assign one"
                )
            if self._clairvoyant:
                raise SimulationError(
                    "adversary-controlled lengths are incompatible with the "
                    "clairvoyant information model"
                )
        st = _JobState(job, self._guard)
        if job.length is not None:
            st.length = job.length
            st.length_visible = self._clairvoyant
        self._states[job.id] = st
        if self._trace is not None:
            self._trace.append(
                self._now, TraceKind.RELEASE, job.id, f"arrival={job.arrival:g}"
            )
        if self._obs is not None:
            _emit_release(
                self._obs, self._now, job.id, job.arrival, job.deadline,
                st.length,
            )
        return st

    def _admit_job(self, job: Job) -> None:
        """Register a job and schedule its arrival (and deadline) events."""
        self._validate_admission(job)
        self._queue.push(job.arrival, EventKind.ARRIVAL, job.id)
        if self._obs is not None:
            self._obs.counter_add("engine.jobs_admitted")

    def _admit_batch(self, jobs: list[Job]) -> None:
        """Admit many jobs at once, heapifying the arrival events in bulk.

        Equivalent to ``for job in jobs: self._admit_job(job)`` — the
        arrival events carry the same (time, kind, seq) total order —
        but O(n) instead of O(n log n) on the initial admission, which
        for §3.1 adversarial iterations releases thousands of jobs at a
        single instant.
        """
        with _admission(self._obs, len(jobs)):
            for job in jobs:
                self._validate_admission(job)
            self._queue.extend(
                (job.arrival, EventKind.ARRIVAL, job.id) for job in jobs
            )

    def _handle_arrival(self, job_id: int) -> None:
        st = self._states[job_id]
        st.arrived = True
        self._pending[job_id] = st
        if self._trace is not None:
            self._trace.append(self._now, TraceKind.ARRIVAL, job_id, "")
        self._queue.push(st.job.deadline, EventKind.DEADLINE, job_id)
        if self._hook_arrival is not None:
            self._hook_arrival(self._ctx, st.view)

    def _handle_deadline(self, job_id: int) -> None:
        st = self._states[job_id]
        if st.start is not None:
            return  # job already started; the deadline event is moot
        if self._trace is not None:
            self._trace.append(self._now, TraceKind.DEADLINE, job_id, "")
        if self._hook_deadline is not None:
            self._hook_deadline(self._ctx, st.view)
        if st.start is None:
            raise DeadlineMissedError(
                f"scheduler {type(self._scheduler).__name__} failed to start "
                f"job {job_id} by its starting deadline {st.job.deadline}"
            )

    def _handle_completion(self, job_id: int) -> None:
        st = self._states[job_id]
        if st.completed:  # pragma: no cover - defensive
            raise SimulationError(f"job {job_id} completed twice")
        st.completed = True
        st.length_visible = True  # completion reveals the length
        self._running.pop(job_id, None)
        if self._trace is not None:
            self._trace.append(self._now, TraceKind.COMPLETION, job_id, "")
        if self._obs is not None:
            self._obs.instant(
                "engine.completion", t=self._now, job=job_id, length=st.length
            )
        if self._hook_completion is not None:
            self._hook_completion(self._ctx, st.view)
        if self._adversary is not None:
            self._apply_adversary_response(
                self._adversary.on_completion(st.job, self._now)
            )

    def _handle_assign(self, job_id: int) -> None:
        assert self._adversary is not None
        st = self._states[job_id]
        if st.length is not None:  # pragma: no cover - defensive
            raise SimulationError(f"job {job_id} length assigned twice")
        length = self._adversary.assign_length(st.job, self._now)
        if length <= 0:
            raise SimulationError(
                f"adversary assigned non-positive length {length} to job {job_id}"
            )
        assert st.start is not None
        completion = st.start + length
        if completion < self._now:
            raise SimulationError(
                f"adversary assigned length {length} to job {job_id} putting "
                f"its completion {completion} in the past (now={self._now})"
            )
        st.length = length
        st.completion = completion  # parity: object-only
        self._record(TraceKind.ASSIGN, job_id, f"length={length:g}")
        self._queue.push(completion, EventKind.COMPLETION, job_id)

    def _handle_timer(self, tag: Any) -> None:
        self._record(TraceKind.TIMER, None, repr(tag))
        if self._hook_timer is not None:
            self._hook_timer(self._ctx, tag)

    def _handle_adversary(self, _payload: Any) -> None:
        assert self._adversary is not None
        self._record(TraceKind.ADVERSARY_WAKEUP)
        self._apply_adversary_response(self._adversary.on_wakeup(self._now))

    # -- SchedulerContext backend (object core) ----------------------------
    def _pending_views(self) -> list[JobView]:
        views = [st.view for st in self._pending.values()]
        views.sort(key=lambda v: (v.deadline, v.arrival, v.id))
        return views

    def _running_views(self) -> list[JobView]:
        views = [st.view for st in self._running.values()]
        views.sort(key=lambda v: (v.start_time, v.id))
        return views

    def _pending_ids(self) -> list[int]:
        states = sorted(
            self._pending.values(),
            key=lambda s: (s.job.deadline, s.job.arrival, s.job.id),
        )
        return [s.job.id for s in states]

    def _is_started(self, job_id: int) -> bool:
        st = self._states.get(job_id)
        return st is not None and st.start is not None

    def _is_completed(self, job_id: int) -> bool:
        st = self._states.get(job_id)
        return st is not None and st.completed

    def _start_batch(self, job_ids: Sequence[int]) -> None:
        for job_id in job_ids:
            self._start_job(job_id)

    def _start_job(self, job_id: int) -> None:
        st = self._states.get(job_id)
        if st is None:
            raise SchedulingViolationError(f"unknown job id {job_id}")
        if not st.arrived:
            raise SchedulingViolationError(
                f"job {job_id} has not arrived yet (now={self._now})"
            )
        if st.start is not None:
            raise SchedulingViolationError(f"job {job_id} was already started")
        if self._now > st.job.deadline:
            raise SchedulingViolationError(
                f"job {job_id} started at {self._now}, after its starting "
                f"deadline {st.job.deadline}"
            )
        st.start = self._now
        self._pending.pop(job_id, None)
        self._running[job_id] = st
        self._record(TraceKind.START, job_id)
        if self._obs is not None:
            self._obs.instant("engine.start", t=self._now, job=job_id)
        if st.length is not None:
            st.completion = self._now + st.length  # parity: object-only
            self._queue.push(st.completion, EventKind.COMPLETION, job_id)
        else:
            assert self._adversary is not None
            when = self._adversary.length_decision_time(st.job, self._now)
            if when < self._now:
                raise SimulationError(
                    f"length decision time {when} precedes start {self._now}"
                )
            self._queue.push(when, EventKind.ASSIGN, job_id)
        if self._adversary is not None:
            self._apply_adversary_response(
                self._adversary.on_start(st.job, self._now)
            )

    def _apply_adversary_response(self, resp: AdversaryResponse | None) -> None:
        if resp is None:
            return
        release = resp.release
        if len(release) > 1:
            self._admit_batch(list(release))
        else:
            for job in release:
                self._admit_job(job)
        if resp.release_batch is not None:
            self._admit_batch(list(resp.release_batch.jobs()))
        if resp.wakeup is not None:
            if resp.wakeup < self._now:
                raise SimulationError(
                    f"adversary wakeup {resp.wakeup} is in the past "
                    f"(now={self._now})"
                )
            self._queue.push(resp.wakeup, EventKind.ADVERSARY, None)

    def _finish(self) -> SimulationResult:
        jobs: list[Job] = []
        starts: dict[int, float] = {}
        for st in self._states.values():
            if st.start is None:  # pragma: no cover - deadline enforcement
                raise SimulationError(f"job {st.job.id} never started")
            if not st.completed:  # pragma: no cover - queue drained
                raise SimulationError(f"job {st.job.id} never completed")
            assert st.length is not None
            jobs.append(
                st.job if st.job.length is not None else st.job.with_length(st.length)
            )
            starts[st.job.id] = st.start
        name = (
            self._instance.name
            if self._instance is not None
            else f"adversarial/{type(self._adversary).__name__}"
        )
        resolved = Instance(jobs, name=name)
        schedule = Schedule(resolved, starts)
        obs = self._obs
        if obs is not None:
            _emit_run_end(obs, self._now, schedule, self._events_processed)
        return SimulationResult(
            schedule=schedule,
            instance=resolved,
            events_processed=self._events_processed,
            scheduler=self._scheduler,
            trace=self._trace,
            recorder=obs,
        )


def simulate(
    scheduler: Any,
    instance: Instance | None = None,
    *,
    adversary: Adversary | None = None,
    clairvoyant: bool = False,
    max_events: int = MAX_EVENTS_DEFAULT,
    trace: bool = False,
    strict: bool | None = None,
    recorder: Recorder | None = None,
    core: str | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`.

    Examples
    --------
    >>> from repro.core.job import Instance
    >>> from repro.schedulers import BatchPlus
    >>> inst = Instance.from_triples([(0, 2, 1), (0.5, 1, 3)])
    >>> result = simulate(BatchPlus(), inst)
    >>> result.span > 0
    True
    """
    return Simulator(
        scheduler,
        instance=instance,
        adversary=adversary,
        clairvoyant=clairvoyant,
        max_events=max_events,
        trace=trace,
        strict=strict,
        recorder=recorder,
        core=core,
    ).run()
