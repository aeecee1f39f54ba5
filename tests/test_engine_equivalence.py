"""Columnar-vs-object engine equivalence: the cores must be twins.

The object core (`repro.core.engine.Simulator._dispatch`) defines the
semantics; the columnar core (`repro.core.columnar.ColumnarCore`) is the
struct-of-arrays hot path that must reproduce it **bit-for-bit**: every
trace record, every start time, the span, the event count, the audit
verdict, every `repro.obs` record and metric, and — on illegal inputs —
the same exception type and message, raised by the same job.

Every test here runs the same (scheduler, workload) pair through both
cores and diffs the observable output.  Coverage spans all five paper
schedulers (vectorised batch family *and* scalar-path CDB/Profit), the
uninstrumented eager/lazy baselines, static E2-style instances, the §3.1
adversarial E1 construction (the ASSIGN-cohort / inline-completion
shape), strict mode, armed recorders, and the 0-job / 1-job edge cases.
"""

from __future__ import annotations

import pytest

from repro.adversaries import (
    ClairvoyantLowerBoundAdversary,
    NonClairvoyantLowerBoundAdversary,
    batch_tightness_instance,
    geometric_profile,
)
from repro.core import Simulator, simulate
from repro.core.audit import audit
from repro.core.errors import SchedulingViolationError, SimulationError
from repro.core.job import Instance
from repro.obs import TraceRecorder, explain_trace
from repro.schedulers import make_scheduler
from repro.workloads import WorkloadSpec, generate

#: The five instrumented paper schedulers (ISSUE 6 acceptance set).
PAPER = ["batch", "batch+", "cdb", "profit", "epoch-batch"]
#: Schedulers that keep the scalar path (live per-job hooks).
SCALAR_BASELINES = ["eager", "lazy"]
#: Non-clairvoyant subset, eligible for the §3.1 adversary.
NONCLAIRVOYANT = ["batch", "batch+", "epoch-batch"]

CORES = ["object", "columnar"]


def e2_style_instance(n: int = 30, seed: int = 3) -> Instance:
    """Seeded synthetic workload with deadline cohorts (E2 flavour)."""
    return generate(
        WorkloadSpec(n=n, laxity_scale=2.0, length_high=10.0), seed=seed
    )


def run_core(name: str, core: str, instance: Instance, **kwargs):
    sched = make_scheduler(name)
    return simulate(
        sched,
        instance,
        clairvoyant=type(sched).requires_clairvoyance,
        trace=True,
        core=core,
        **kwargs,
    )


def trace_rows(result) -> list[tuple]:
    return [
        (r.time, r.kind.value, r.job_id, r.detail) for r in result.trace
    ]


def assert_results_identical(a, b, *, check_audit: bool = True) -> None:
    """Event-for-event, start-for-start, audit-for-audit equality."""
    assert trace_rows(a) == trace_rows(b)
    assert a.events_processed == b.events_processed
    assert a.span == b.span
    assert a.schedule.starts() == b.schedule.starts()
    assert [
        (j.id, j.arrival, j.deadline, j.length, j.size) for j in a.instance
    ] == [
        (j.id, j.arrival, j.deadline, j.length, j.size) for j in b.instance
    ]
    if check_audit:
        ra = audit(a.instance, a.schedule.starts())
        rb = audit(b.instance, b.schedule.starts())
        assert ra.feasible == rb.feasible
        assert ra.render() == rb.render()


# ---------------------------------------------------------------------------
# Static workloads: all seven schedulers, E2-style + tightness families
# ---------------------------------------------------------------------------


class TestStaticEquivalence:
    @pytest.mark.parametrize("name", PAPER + SCALAR_BASELINES)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_synthetic_workload_bit_identical(self, name, seed):
        inst = e2_style_instance(seed=seed)
        a = run_core(name, "object", inst)
        b = run_core(name, "columnar", inst)
        assert_results_identical(a, b)

    @pytest.mark.parametrize("name", ["batch", "batch+"])
    @pytest.mark.parametrize("m", [1, 8])
    def test_e2_tightness_family_bit_identical(self, name, m):
        fam = batch_tightness_instance(m=m, mu=5.0)
        a = run_core(name, "object", fam.instance)
        b = run_core(name, "columnar", fam.instance)
        assert_results_identical(a, b)
        # the forced ratio (the E2 table entry) is identical too
        assert a.span / fam.optimal_span == b.span / fam.optimal_span


# ---------------------------------------------------------------------------
# Adversarial workloads: the §3.1 E1 construction and the §4.1 Profit one
# ---------------------------------------------------------------------------


class TestAdversarialEquivalence:
    @pytest.mark.parametrize("name", NONCLAIRVOYANT)
    @pytest.mark.parametrize("k", [1, 2])
    def test_e1_paper_adversary_bit_identical(self, name, k):
        """The ASSIGN-cohort + inline same-time-completion shape."""
        results = {}
        for core in CORES:
            adv = NonClairvoyantLowerBoundAdversary(
                5.0, geometric_profile(k, 6)
            )
            results[core] = simulate(
                make_scheduler(name),
                adversary=adv,
                clairvoyant=False,
                trace=True,
                core=core,
            )
        assert_results_identical(
            results["object"], results["columnar"], check_audit=False
        )

    def test_e4_clairvoyant_adversary_bit_identical(self):
        results = {}
        for core in CORES:
            adv = ClairvoyantLowerBoundAdversary(8)
            results[core] = simulate(
                make_scheduler("profit"),
                adversary=adv,
                clairvoyant=True,
                trace=True,
                core=core,
            )
        assert_results_identical(
            results["object"], results["columnar"], check_audit=False
        )


# ---------------------------------------------------------------------------
# Observability: armed recorders, decision records, explain --strict parity
# ---------------------------------------------------------------------------


def record_shape(rec: TraceRecorder) -> list[tuple]:
    """Records minus wall-clock attrs (the only nondeterministic field)."""
    return [
        (
            r.kind,
            r.name,
            {k: v for k, v in r.attrs.items() if k != "wall_s"},
        )
        for r in rec.records
    ]


class TestObsEquivalence:
    @pytest.mark.parametrize("name", PAPER)
    def test_armed_recorder_records_and_metrics_identical(self, name):
        inst = e2_style_instance()
        recs = {}
        for core in CORES:
            rec = TraceRecorder()
            run_core(name, core, inst, recorder=rec)
            recs[core] = rec
        a, b = recs["object"], recs["columnar"]
        assert record_shape(a) == record_shape(b)
        assert a.metrics.counters == b.metrics.counters
        assert a.metrics.gauges == b.metrics.gauges

    @pytest.mark.parametrize("name", PAPER)
    def test_explain_attributes_every_start_on_both_cores(self, name):
        """`repro obs explain --strict` parity: same stories, same rules."""
        inst = e2_style_instance()
        stories = {}
        for core in CORES:
            rec = TraceRecorder()
            run_core(name, core, inst, recorder=rec)
            explanation = explain_trace(rec)
            assert explanation.fully_attributed, (
                f"{name}/{core}: {explanation.unattributed} unattributed"
            )
            assert explanation.audit_feasible is True
            stories[core] = [
                (s.job_id, s.start, s.start_rule)
                for s in explanation.stories
            ]
        assert stories["object"] == stories["columnar"]


# ---------------------------------------------------------------------------
# Strict mode: the ClairvoyanceGuard must behave identically on both cores
# ---------------------------------------------------------------------------


class TestStrictEquivalence:
    @pytest.mark.parametrize("name", NONCLAIRVOYANT)
    def test_strict_static_runs_identical(self, name):
        inst = e2_style_instance()
        a = run_core(name, "object", inst, strict=True)
        b = run_core(name, "columnar", inst, strict=True)
        assert_results_identical(a, b)

    @pytest.mark.parametrize("name", NONCLAIRVOYANT)
    def test_repro_strict_env_runs_identical(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        inst = e2_style_instance()
        a = run_core(name, "object", inst)
        b = run_core(name, "columnar", inst)
        assert_results_identical(a, b)

    def test_strict_adversarial_run_identical(self):
        results = {}
        for core in CORES:
            adv = NonClairvoyantLowerBoundAdversary(
                5.0, geometric_profile(1, 4)
            )
            results[core] = simulate(
                make_scheduler("batch"),
                adversary=adv,
                clairvoyant=False,
                strict=True,
                trace=True,
                core=core,
            )
        assert_results_identical(
            results["object"], results["columnar"], check_audit=False
        )


# ---------------------------------------------------------------------------
# Edge cases: 0 jobs and 1 job (the GridResult-style degenerate instances)
# ---------------------------------------------------------------------------


class TestDegenerateInstances:
    @pytest.mark.parametrize("name", PAPER + SCALAR_BASELINES)
    def test_empty_instance_identical(self, name):
        inst = Instance.from_triples([], name="empty")
        a = run_core(name, "object", inst)
        b = run_core(name, "columnar", inst)
        assert_results_identical(a, b)
        assert b.span == 0.0
        assert b.events_processed == 0
        assert b.schedule.starts() == {}

    @pytest.mark.parametrize("name", PAPER + SCALAR_BASELINES)
    def test_single_job_instance_identical(self, name):
        inst = Instance.from_triples([(0.0, 2.0, 1.5)], name="single")
        a = run_core(name, "object", inst)
        b = run_core(name, "columnar", inst)
        assert_results_identical(a, b)
        assert set(b.schedule.starts()) == {0}

    def test_empty_instance_metrics_identical(self, name="batch"):
        inst = Instance.from_triples([], name="empty")
        recs = {}
        for core in CORES:
            rec = TraceRecorder()
            run_core(name, core, inst, recorder=rec)
            recs[core] = rec
        assert record_shape(recs["object"]) == record_shape(recs["columnar"])
        assert (
            recs["object"].metrics.counters
            == recs["columnar"].metrics.counters
        )


# ---------------------------------------------------------------------------
# Error parity: illegal schedules must fail identically on both cores
# ---------------------------------------------------------------------------


class _StartsUnknownJob:
    """Starts a job id that was never admitted (batch route)."""

    name = "starts-unknown"
    requires_clairvoyance = False

    def on_deadline(self, ctx, job):
        ctx.start_batch([job.id, 10_000])

    def reset(self):
        pass


class _StartsTwice:
    name = "starts-twice"
    requires_clairvoyance = False

    def on_deadline(self, ctx, job):
        ctx.start_batch([job.id, job.id])

    def reset(self):
        pass


class TestErrorParity:
    @pytest.mark.parametrize(
        "scheduler_cls", [_StartsUnknownJob, _StartsTwice]
    )
    def test_violations_raise_identically(self, scheduler_cls):
        inst = Instance.from_triples([(0.0, 1.0, 1.0), (0.0, 1.0, 2.0)])
        errors = {}
        for core in CORES:
            with pytest.raises(SchedulingViolationError) as exc:
                simulate(scheduler_cls(), inst, core=core)
            errors[core] = str(exc.value)
        assert errors["object"] == errors["columnar"]


# ---------------------------------------------------------------------------
# Core selection plumbing
# ---------------------------------------------------------------------------


class TestCoreSelection:
    def test_env_var_selects_object_core(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CORE", "object")
        sim = Simulator(
            make_scheduler("batch"),
            instance=Instance.from_triples([(0.0, 1.0, 1.0)]),
        )
        assert sim._core == "object"

    def test_explicit_core_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CORE", "object")
        sim = Simulator(
            make_scheduler("batch"),
            instance=Instance.from_triples([(0.0, 1.0, 1.0)]),
            core="columnar",
        )
        assert sim._core == "columnar"

    def test_unknown_core_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine core"):
            Simulator(
                make_scheduler("batch"),
                instance=Instance.from_triples([(0.0, 1.0, 1.0)]),
                core="vectorised",
            )

    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_CORE", raising=False)
        sim = Simulator(
            make_scheduler("batch"),
            instance=Instance.from_triples([(0.0, 1.0, 1.0)]),
        )
        assert sim._core == "columnar"
