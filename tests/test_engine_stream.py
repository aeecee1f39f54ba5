"""Streaming engine sessions: ``start_stream``/``feed``/``advance``.

The serve daemon's whole determinism story rests on one property: a
time-ordered job stream fed through the incremental API produces the
*same* schedule, decision records and span as running the equivalent
static instance through one :meth:`Simulator.run`.  These tests pin that
parity across the non-clairvoyant registry schedulers, plus the error
contract of the streaming entry points.
"""

from __future__ import annotations

import pytest

from repro.core import Instance
from repro.core.engine import Simulator
from repro.core.errors import SimulationError
from repro.obs import TraceRecorder
from repro.obs.records import KIND_DECISION
from repro.schedulers.registry import make_scheduler
from repro.workloads import WorkloadSpec, generate

#: Non-clairvoyant schedulers whose streaming parity we pin (the serve
#: daemon accepts any registry scheduler; these are the paper's).
STREAM_SCHEDULERS = ["batch", "batch+", "epoch-batch", "eager", "lazy"]


def _batch_run(name: str, inst: Instance):
    rec = TraceRecorder()
    sim = Simulator(
        make_scheduler(name), instance=inst, core="object", recorder=rec
    )
    return sim.run(), rec


def _stream_run(name: str, inst: Instance):
    """Feed jobs one at a time, in arrival order, the serve-session way."""
    rec = TraceRecorder()
    sim = Simulator(
        make_scheduler(name),
        instance=Instance([], name=f"stream/{inst.name}"),
        core="object",
        recorder=rec,
    )
    sim.start_stream()
    for job in sorted(inst.jobs, key=lambda j: (j.arrival, j.id)):
        sim.feed([job])
        # Exclusive advance: the whole time-`a` cohort stays queued until
        # the stream moves strictly past `a` (same-time arrivals land in
        # one cohort, exactly as the batch engine orders them).
        sim.advance(job.arrival, inclusive=False)
    return sim.finish_stream(), rec


def _decisions(rec: TraceRecorder):
    return [
        (r.name, tuple(sorted(r.attrs.items())))
        for r in rec.records
        if r.kind == KIND_DECISION
    ]


def _dispatch_counters(rec: TraceRecorder):
    return {
        name: value
        for name, value in rec.metrics.counters.items()
        if name.startswith("engine.events")
        or name == "engine.heap.pushes"
    }


class TestStreamBatchParity:
    @pytest.mark.parametrize("name", STREAM_SCHEDULERS)
    def test_seeded_workloads_bit_identical(self, name):
        spec = WorkloadSpec(n=30, laxity_scale=2.0, length_high=6.0)
        for seed in range(3):
            inst = generate(spec, seed=seed)
            batch_result, batch_rec = _batch_run(name, inst)
            stream_result, stream_rec = _stream_run(name, inst)
            assert stream_result.span == batch_result.span
            assert (
                stream_result.schedule.starts()
                == batch_result.schedule.starts()
            )
            assert _decisions(stream_rec) == _decisions(batch_rec)
            # One event loop, one set of dispatch metrics.  The peak
            # values differ (batch admits every arrival up front), so
            # only its presence is pinned.
            assert _dispatch_counters(stream_rec) == _dispatch_counters(
                batch_rec
            )
            for rec in (batch_rec, stream_rec):
                assert "engine.heap.peak" in rec.metrics.gauges

    @pytest.mark.parametrize("name", STREAM_SCHEDULERS)
    def test_fixture_instances(self, name, simple_instance, serial_instance):
        for inst in (simple_instance, serial_instance):
            batch_result, _ = _batch_run(name, inst)
            stream_result, _ = _stream_run(name, inst)
            assert stream_result.span == batch_result.span
            assert (
                stream_result.schedule.starts()
                == batch_result.schedule.starts()
            )

    def test_same_time_cohort_preserved(self, batchable_instance):
        """Jobs sharing an arrival must still batch as one cohort."""
        inst = Instance.from_triples(
            [(0, 4, 3), (0, 4, 2), (0, 4, 3), (3, 4, 1)], name="cohort"
        )
        for target in (inst, batchable_instance):
            batch_result, _ = _batch_run("batch+", target)
            stream_result, _ = _stream_run("batch+", target)
            assert (
                stream_result.schedule.starts()
                == batch_result.schedule.starts()
            )

    def test_interleaved_advance_between_feeds(self):
        """Explicit advances between arrivals don't change the schedule."""
        inst = Instance.from_triples(
            [(0, 2, 1), (1, 3, 2), (5, 1, 1)], name="interleave"
        )
        batch_result, _ = _batch_run("batch+", inst)
        sim = Simulator(
            make_scheduler("batch+"),
            instance=Instance([]),
            core="object",
            recorder=TraceRecorder(),
        )
        sim.start_stream()
        jobs = sorted(inst.jobs, key=lambda j: j.arrival)
        sim.feed([jobs[0]])
        sim.advance(0.5)  # inclusive mid-gap advance
        sim.feed([jobs[1]])
        sim.advance(jobs[1].arrival, inclusive=False)
        sim.advance(4.0)
        sim.feed([jobs[2]])
        result = sim.finish_stream()
        assert result.schedule.starts() == batch_result.schedule.starts()
        assert result.span == batch_result.span


class TestStreamApi:
    def _stream_sim(self, **kwargs) -> Simulator:
        sim = Simulator(
            make_scheduler("batch+"), instance=Instance([]), core="object",
            **kwargs,
        )
        sim.start_stream()
        return sim

    def test_now_property_tracks_advance(self):
        sim = self._stream_sim()
        assert sim.now == 0.0
        sim.advance(3.5)
        assert sim.now == 3.5
        sim.advance(3.5)  # idempotent at the same horizon
        assert sim.now == 3.5

    def test_feed_requires_stream(self):
        sim = Simulator(
            make_scheduler("batch+"), instance=Instance([]), core="object"
        )
        with pytest.raises(SimulationError, match="start_stream"):
            sim.feed([])
        with pytest.raises(SimulationError, match="start_stream"):
            sim.advance(1.0)
        with pytest.raises(SimulationError, match="start_stream"):
            sim.finish_stream()

    def test_advance_into_past_rejected(self):
        sim = self._stream_sim()
        sim.advance(5.0)
        with pytest.raises(SimulationError, match="in the past"):
            sim.advance(4.0)

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), -float("inf")])
    def test_advance_non_finite_rejected(self, until):
        sim = self._stream_sim()
        job = Instance.from_triples([(1, 2, 1)]).jobs[0]
        sim.feed([job])
        with pytest.raises(SimulationError, match="finite"):
            sim.advance(until)
        # Nothing was touched: the clock and the queue are where they were.
        assert sim.now == 0.0
        assert sim.advance(None) == 3
        assert set(sim.finish_stream().schedule.starts()) == {job.id}

    def test_feed_past_arrival_rejected(self):
        sim = self._stream_sim()
        sim.advance(10.0)
        job = Instance.from_triples([(5, 2, 1)]).jobs[0]
        with pytest.raises(SimulationError, match="in the past"):
            sim.feed([job])

    def test_feed_duplicate_id_rejected(self):
        sim = self._stream_sim()
        job = Instance.from_triples([(0, 5, 1)]).jobs[0]
        sim.feed([job])
        with pytest.raises(SimulationError, match="duplicate"):
            sim.feed([job])

    def test_columnar_core_rejected(self):
        sim = Simulator(
            make_scheduler("batch+"), instance=Instance([]), core="columnar"
        )
        with pytest.raises(SimulationError, match="object core"):
            sim.start_stream()

    def test_adversary_rejected(self):
        from repro.adversaries import NonClairvoyantLowerBoundAdversary

        sim = Simulator(
            make_scheduler("batch+"),
            adversary=NonClairvoyantLowerBoundAdversary(mu=3.0),
            core="object",
        )
        with pytest.raises(SimulationError, match="adversar"):
            sim.start_stream()

    def test_stream_session_runs_once(self):
        sim = self._stream_sim()
        sim.finish_stream()
        with pytest.raises(SimulationError, match="only run once|start_stream"):
            sim.start_stream()

    def test_run_after_stream_rejected(self):
        sim = self._stream_sim()
        with pytest.raises(SimulationError, match="only run once"):
            sim.run()

    def test_finish_stream_starts_every_fed_job(self):
        sim = self._stream_sim()
        inst = Instance.from_triples([(0, 3, 2), (1, 2, 1)])
        for job in inst.jobs:
            sim.feed([job])
            sim.advance(job.arrival, inclusive=False)
        result = sim.finish_stream()
        assert set(result.schedule.starts()) == {j.id for j in inst.jobs}
        assert result.span > 0
