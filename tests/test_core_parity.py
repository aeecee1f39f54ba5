"""Tests for the ``REPRO_PARITY=1`` lockstep runtime twin (RL013's oracle)
and the :class:`~repro.core.columnar.TableJobView` strict-mode guard.

The lockstep oracle shadow-runs every columnar simulation on the object
core and diffs the outcomes; these tests cover the clean path (several
schedulers, with and without traces), divergence detection (a
monkeypatched columnar drift must raise :class:`CoreParityError`), error
agreement (both cores raising the same type re-raises it, not a parity
error), and the env-var arming.  The guard half exercises the lazy
``TableJobView`` under ``REPRO_STRICT=1``: pre-completion length reads
through the view must raise on both the fast and the recorder-armed
loops, post-completion reads must not.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ClairvoyanceError,
    DeadlineMissedError,
    Instance,
    Simulator,
)
from repro.core.errors import CoreParityError
from repro.core.parity import diff_outcomes, parity_mode_enabled, snapshot
from repro.obs import TraceRecorder
from repro.schedulers import OnlineScheduler, make_scheduler

PARITY_SCHEDULERS = ["batch", "batch+", "lazy", "eager", "epoch-batch"]


def small_instance() -> Instance:
    # Overlapping windows and queueing so the two cores have real work
    # to agree on: (arrival, laxity, length) triples.
    return Instance.from_triples(
        [
            (0.0, 2.0, 1.0),
            (0.0, 2.0, 3.0),
            (0.5, 1.0, 0.5),
            (2.0, 3.0, 2.0),
            (2.0, 0.5, 1.0),
            (5.0, 1.0, 0.25),
        ],
        name="parity-smoke",
    )


class TestParityModeEnabled:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARITY", raising=False)
        assert not parity_mode_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", " OFF "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARITY", value)
        assert not parity_mode_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_enabling_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARITY", value)
        assert parity_mode_enabled()


class TestLockstepCleanRuns:
    @pytest.mark.parametrize("name", PARITY_SCHEDULERS)
    def test_lockstep_matches_plain_columnar(self, name, monkeypatch):
        inst = small_instance()
        monkeypatch.delenv("REPRO_PARITY", raising=False)
        plain = Simulator(
            make_scheduler(name), instance=inst, core="columnar"
        ).run()
        monkeypatch.setenv("REPRO_PARITY", "1")
        locked = Simulator(
            make_scheduler(name), instance=inst, core="columnar"
        ).run()
        assert diff_outcomes(snapshot(plain), snapshot(locked)) == []

    def test_lockstep_with_trace_and_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARITY", "1")
        result = Simulator(
            make_scheduler("batch"),
            instance=small_instance(),
            trace=True,
            strict=True,
            core="columnar",
        ).run()
        assert result.trace is not None and len(result.trace) > 0
        assert result.schedule.span > 0

    def test_object_core_unaffected(self, monkeypatch):
        # The hook lives on the columnar dispatch path only.
        monkeypatch.setenv("REPRO_PARITY", "1")
        result = Simulator(
            make_scheduler("lazy"), instance=small_instance(), core="object"
        ).run()
        assert result.schedule.span > 0

    def test_scheduler_not_shared_with_shadow(self, monkeypatch):
        # The shadow must run a deep copy: the caller's scheduler sees
        # exactly one run's worth of state, not two.
        monkeypatch.setenv("REPRO_PARITY", "1")
        sched = make_scheduler("batch")
        Simulator(sched, instance=small_instance(), core="columnar").run()
        started = sum(
            len(r.batch_job_ids) + len(r.open_started_job_ids)
            for r in sched.iterations
        )
        assert started == len(small_instance())


class TestLockstepDivergence:
    def test_columnar_drift_raises(self, monkeypatch):
        import repro.core.columnar as columnar

        monkeypatch.setenv("REPRO_PARITY", "1")
        orig = columnar.ColumnarCore._start_batch

        def drifting(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            self._table.start[0] = 0.125
            self._table.start_list[0] = 0.125
            return out

        monkeypatch.setattr(columnar.ColumnarCore, "_start_batch", drifting)
        with pytest.raises(CoreParityError) as exc:
            Simulator(
                make_scheduler("batch"),
                instance=small_instance(),
                core="columnar",
            ).run()
        assert "diverged" in str(exc.value)
        assert "job 0" in str(exc.value)

    def test_shared_error_type_reraised(self, monkeypatch):
        class NeverStarts(OnlineScheduler):
            name = "test-never-starts"
            requires_clairvoyance = False

            def on_deadline(self, ctx, job):
                pass  # let the deadline pass: both cores must reject

        monkeypatch.setenv("REPRO_PARITY", "1")
        with pytest.raises(DeadlineMissedError):
            Simulator(
                NeverStarts(), instance=small_instance(), core="columnar"
            ).run()

    def test_one_sided_error_is_parity_error(self, monkeypatch):
        import repro.core.columnar as columnar

        monkeypatch.setenv("REPRO_PARITY", "1")

        def exploding(self, *args, **kwargs):
            from repro.core.errors import SimulationError

            raise SimulationError("columnar-only failure")

        monkeypatch.setattr(columnar.ColumnarCore, "_start_batch", exploding)
        with pytest.raises(CoreParityError) as exc:
            Simulator(
                make_scheduler("batch"),
                instance=small_instance(),
                core="columnar",
            ).run()
        assert "only the columnar core raised" in str(exc.value)


class TestSnapshotDiff:
    def test_clean_runs_have_empty_diff(self):
        inst = small_instance()
        a = Simulator(make_scheduler("batch"), instance=inst, core="object").run()
        b = Simulator(
            make_scheduler("batch"), instance=inst, core="columnar"
        ).run()
        assert diff_outcomes(snapshot(a), snapshot(b)) == []

    def test_diff_reports_each_divergence_kind(self):
        base = {
            "jobs": {0: (1.0, 2.0), 1: (3.0, 1.0)},
            "span": 3.0,
            "events": 10,
            "trace": None,
        }
        other = {
            "jobs": {0: (1.5, 2.0), 2: (0.0, 1.0)},
            "span": 4.0,
            "events": 11,
            "trace": None,
        }
        out = "\n".join(diff_outcomes(base, other))
        assert "job 0" in out
        assert "job 1" in out and "object core only" in out
        assert "job 2" in out and "columnar core only" in out
        assert "span" in out
        assert "events processed" in out

    def test_trace_divergence_detected(self):
        a = {"jobs": {}, "span": 0.0, "events": 0, "trace": [(0.0, "arrival", 1, "")]}
        b = {"jobs": {}, "span": 0.0, "events": 0, "trace": [(0.0, "arrival", 2, "")]}
        assert any("trace[0]" in d for d in diff_outcomes(a, b))


# ---------------------------------------------------------------------------
# TableJobView strict-mode guard (satellite: REPRO_STRICT=1 edge cases)
# ---------------------------------------------------------------------------


class PeekOnArrival(OnlineScheduler):
    """Reads ``job.length`` through the lazy view before completion."""

    name = "test-peek-arrival"
    requires_clairvoyance = False

    def on_arrival(self, ctx, job):
        _ = job.length


class PeekAfterCompletion(OnlineScheduler):
    """Reads ``job.length`` only where it is legal: after completion."""

    name = "test-peek-completion"
    requires_clairvoyance = False

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[int, float]] = []

    def on_arrival(self, ctx, job):
        assert job.length_if_known is None  # hidden, but not a guard trip
        ctx.start(job.id)

    def on_completion(self, ctx, job):
        self.seen.append((job.id, job.length))


class TestTableViewStrictGuard:
    def _run_strict(
        self, scheduler, monkeypatch, *, recorder=None, clairvoyant=False
    ):
        monkeypatch.setenv("REPRO_STRICT", "1")
        return Simulator(
            scheduler,
            instance=small_instance(),
            clairvoyant=clairvoyant,
            recorder=recorder,
            core="columnar",
        ).run()

    def test_precompletion_read_raises_fast_loop(self, monkeypatch):
        # Non-clairvoyant run: the length is simply hidden, so the view's
        # visibility check fires before the guard is even consulted.
        with pytest.raises(ClairvoyanceError):
            self._run_strict(PeekOnArrival(), monkeypatch)

    def test_precompletion_read_raises_armed_loop(self, monkeypatch):
        # Clairvoyant run, non-clairvoyant scheduler: lengths are visible
        # in the table, so only the strict guard stands between the
        # scheduler and the oracle.  A live recorder also keeps the run
        # off the cohort paths — the guard must fire there too,
        # and its trip must land in the recorder.
        rec = TraceRecorder()
        with pytest.raises(ClairvoyanceError):
            self._run_strict(
                PeekOnArrival(), monkeypatch, recorder=rec, clairvoyant=True
            )
        records = [
            r for r in rec.records if r.name == "engine.clairvoyance_guard"
        ]
        assert records, "guard trip must be visible in the armed recorder"

    def test_guard_survives_aborted_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        sim = Simulator(
            PeekOnArrival(),
            instance=small_instance(),
            clairvoyant=True,
            core="columnar",
        )
        with pytest.raises(ClairvoyanceError):
            sim.run()
        assert sim.strict_guard is not None
        assert sim.strict_guard.accesses  # (job_id, time) of the read

    def test_postcompletion_read_allowed(self, monkeypatch):
        sched = PeekAfterCompletion()
        result = self._run_strict(sched, monkeypatch)
        lengths = {job.id: job.length for job in result.instance.jobs}
        assert sched.seen  # every completion surfaced a visible length
        for job_id, length in sched.seen:
            assert length == lengths[job_id]

    def test_length_if_known_never_trips_guard(self, monkeypatch):
        # PeekAfterCompletion calls length_if_known on every arrival; the
        # run completing proves the lazy view treats it as a non-read.
        result = self._run_strict(PeekAfterCompletion(), monkeypatch)
        assert result.schedule.span > 0
