"""End-to-end benchmark of ``repro serve`` and the batch engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stdio_burst --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One run measures one workload for ``--seconds`` and prints a
human-readable report on stderr and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
traced run, see ``launch.py``) with ``--trace 1``.  ``--all``
runs every workload in turn (one result line each) and rewrites
``BENCHMARK.json`` from :data:`SPEC`.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gen
import hostspeed
from procs import STEP_TIMEOUT, BenchError, Sent, Spawned, child_env, reap_all

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable

SPEC: dict[str, Any] = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "stdio_burst", "why": (
            "one default --stdio daemon, two tenants, input written as fast as "
            "the pipe takes it and ended at EOF: the per-record path "
            "(framing, parse, session, encode, write)")},
        {"name": "durable_restore", "why": (
            "checkpoints every 64 ops rewrite the whole op log and --restore "
            "replays it, for four tenants on the four paper schedulers: the "
            "only workload that runs checkpoint and restore code")},
        {"name": "batch_engine", "why": (
            "in-process simulate on the default core, recorder off: the only "
            "path through core/columnar.py, with no daemon, protocol or "
            "checkpoint code")},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "records_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "restart_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}

#: ``batch_engine`` runs its passes in this many engine processes, one
#: after another, so that set-up and restart are sampled as often.
ENGINE_PROCESSES = 6

STATS_OP = b'{"op":"stats"}\n'


@dataclass
class Tally:
    """Samples and outcomes gathered over one run of one workload."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    #: End of input to the restarted process's ready line.
    restart: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    records_per_s: list[float] = field(default_factory=list)
    events_per_s: list[float] = field(default_factory=list)
    #: Host slowness (``hostspeed.factor``) over each repetition's main
    #: interval; reported on stderr, so raw figures can be recovered.
    slowness: list[float] = field(default_factory=list)
    #: The workload's main timing per repetition, adjusted for host
    #: speed (the tracing overhead base).
    primary: list[float] = field(default_factory=list)
    traced: list[Any] = field(default_factory=list)
    restores_traced: list[Path] = field(default_factory=list)

    def checked(self, chk: Any) -> None:
        self.attempted += chk.attempted
        self.failed += chk.failed
        if not chk.correct:
            self.correct = False
            self.notes += chk.notes

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct &= other.correct
        self.notes += other.notes

    def metrics(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup),
            "records_per_s": statistics.median(self.records_per_s),
            "events_per_s": statistics.median(self.events_per_s),
            "restart_s": statistics.median(self.restart),
            "peak_rss_mb": statistics.median(self.rss),
        }


@dataclass
class Ctx:
    seed: int
    seconds: float
    tmp: Path
    #: The vCPU every process under test is pinned to (the generator
    #: keeps another one when there is one).
    cpu: int
    #: Directory for span files; daemons run under the traced launcher
    #: when set.
    spans: Path | None = None
    children: list[Spawned] = field(default_factory=list)

    def launch(self, args: list[str], log: str, **kw: Any) -> Spawned:
        """Start ``launch.py SAMPLES ARGS`` pinned to :attr:`cpu`."""
        samples = self.tmp / f"samples{len(self.children)}.json"
        argv = [PY, str(HERE / "launch.py"), str(samples), *args]
        child = Spawned(
            argv, cwd=ROOT, log=self.tmp / log, env=child_env(ROOT), **kw
        )
        self.children.append(child)
        os.sched_setaffinity(child.proc.pid, {self.cpu})
        child.samples = samples
        return child

    def serve(self, args: list[str]) -> Spawned:
        """Start ``repro serve ARGS`` (traced when :attr:`spans` is set)."""
        spans = None
        if self.spans is not None:
            spans = self.spans / f"spans{len(self.children)}.json"
            args = ["--spans", str(spans), "serve", *args]
        else:
            args = ["serve", *args]
        child = self.launch(args, "daemon.log")
        child.spans = spans
        return child


def _ready_at(child: Spawned) -> float:
    """When the child's first line (``serve.ready``, or ``ready``) arrived."""
    child.read_until(1)
    if not child.out.lines:
        raise BenchError(f"no ready line (see {child.log})")
    return child.out.times[0]


def _finish(child: Spawned) -> None:
    """End input, read everything, reap."""
    child.close_stdin()
    child.read_to_eof()
    child.wait()


def _check_stream(
    ctx: Ctx, tally: Tally, child: Spawned, expected: Any,
    sent: Sent, due: np.ndarray,
) -> tuple[list[bytes], Any]:
    """Reap a stdio daemon and check its output against the reference."""
    import reference

    ex = child.wait()
    lines, times = reference.split_lines(
        bytes(child.out.data), child.out.ends, child.out.times
    )
    chk = reference.check(expected, lines, times)
    tally.checked(chk)
    tally.rss.append(ex.peak_rss_mb)
    if ctx.spans is not None:
        tally.traced.append(_traced_run(child, expected, due, chk))
    return lines, chk


def _traced_run(child: Spawned, expected: Any, due: np.ndarray, chk: Any) -> Any:
    from layers import TracedRun

    tenants = [t for t, _ in expected.ops]
    return TracedRun(child.spans, tenants, expected.kinds, due, chk.op_done)


def _restart(ctx: Ctx, args: list[str]) -> Spawned:
    """A stdio daemon started with ``--restore`` as soon as the last one
    exited, read up to its ready line."""
    child = ctx.serve(["--stdio", *args, "--restore"])
    _ready_at(child)
    return child


def _setup(child: Spawned) -> float:
    """Spawn to ready, adjusted for host speed (the child has exited)."""
    ready = child.out.times[0]
    own = hostspeed.load(child.samples)
    return (ready - child.t_spawn) / hostspeed.factor(own, child.t_spawn, ready)


def _timed_rep(
    tally: Tally, expected: Any, served: Spawned, restored: Spawned,
    sent: Sent, chk: Any, t_eof: float,
) -> None:
    """Host-speed-adjusted set-up, throughput and restart of one
    serve-then-restore repetition (both daemons have exited)."""
    assert served.exit is not None
    own = hostspeed.load(served.samples)
    both = hostspeed.load(served.samples, restored.samples)
    slow = hostspeed.factor(own, sent.start, chk.last_time)
    tally.slowness.append(slow)
    tally.primary.append((chk.last_time - sent.start) / slow)
    tally.setup.append(_setup(served))
    tally.records_per_s.append(chk.matched / (chk.last_time - sent.start) * slow)
    end = served.exit.time
    tally.events_per_s.append(
        expected.events / (end - sent.start) * hostspeed.factor(own, sent.start, end)
    )
    ready = restored.out.times[0]
    tally.restart.append((ready - t_eof) / hostspeed.factor(both, t_eof, ready))


def _line_ends(ops: list[dict[str, Any]]) -> np.ndarray:
    """Offset of each op's trailing newline in the payload."""
    return np.cumsum([len(gen.encode_op(op)) for op in ops]) - 1


# ---------------------------------------------------------------- workloads
def stdio_burst(ctx: Ctx, tally: Tally, budget: float) -> None:
    import reference

    stream = gen.burst_stream(ctx.seed)
    payload = stream.payload()
    expected = reference.build(stream.ops, drain_at_eof=True)
    ends = _line_ends(stream.ops)
    deadline = time.perf_counter() + budget
    while not tally.primary or time.perf_counter() < deadline:
        child = ctx.serve(["--stdio"])
        _ready_at(child)
        sent = child.write_all(payload)
        t_eof = child.close_stdin()
        child.read_to_eof()
        # The drain's implicit closes are due when input ends.
        due = np.concatenate([
            sent.times_at(ends),
            np.full(len(expected.ops) - expected.written, t_eof),
        ])
        _, chk = _check_stream(ctx, tally, child, expected, sent, due)
        restored = _restart(ctx, [])
        _finish(restored)
        _timed_rep(tally, expected, child, restored, sent, chk, t_eof)


def _record(line: bytes) -> dict[str, Any]:
    """One output line as a dict (empty when it is not a JSON object)."""
    try:
        record = json.loads(line)
    except ValueError:
        return {}
    return record if isinstance(record, dict) else {}


def _stats(lines: list[bytes]) -> dict[str, Any]:
    """Per-tenant clock, op and emitted counts from a ``serve.stats``."""
    for line in reversed(lines):
        if line.startswith(b'{"kind":"serve.stats"'):
            return {
                name: {f: entry.get(f) for f in ("clock", "ops", "emitted")}
                for name, entry in _record(line).get("tenants", {}).items()
            }
    return {}


def durable_restore(ctx: Ctx, tally: Tally, budget: float) -> None:
    import reference

    stream = gen.durable_stream(ctx.seed)
    payload = stream.payload()
    expected = reference.build(stream.ops, drain_at_eof=False)
    ends = _line_ends(stream.ops)
    want = {
        name: {"clock": s.clock, "ops": len(s.input_log), "emitted": s.emitted}
        for name, s in expected.sessions.items()
    }
    deadline = time.perf_counter() + budget
    rep = 0
    while not tally.primary or time.perf_counter() < deadline:
        rep += 1
        ckdir = str(ctx.tmp / f"ckpt{rep}")
        child = ctx.serve(["--stdio", "--checkpoint-dir", ckdir])
        _ready_at(child)
        sent = child.write_all(payload)
        child.read_until(1 + expected.records, idle=10.0)
        got = child.out.lines
        child.write_all(STATS_OP)
        child.read_until(got + 1, idle=10.0)
        t_eof = child.close_stdin()
        child.read_to_eof()
        lines, chk = _check_stream(
            ctx, tally, child, expected, sent, sent.times_at(ends)
        )
        rss = tally.rss.pop()

        restored = _restart(ctx, ["--checkpoint-dir", ckdir])
        if ctx.spans is not None:
            tally.restores_traced.append(restored.spans)
        ready = _record(restored.out.first_line())
        restored.write_all(STATS_OP)
        restored.read_until(2, idle=10.0)
        _finish(restored)
        assert restored.exit is not None
        _timed_rep(tally, expected, child, restored, sent, chk, t_eof)
        tally.rss.append(max(rss, restored.exit.peak_rss_mb))
        after = bytes(restored.out.data).splitlines(keepends=True)
        tally.attempted += 2
        for label, seen in (("served", _stats(lines)), ("restored", _stats(after))):
            if seen != want:
                tally.failed += 1
                tally.correct = False
                tally.notes.append(f"{label} stats {seen} != reference {want}")
        if ready.get("tenants") != sorted(want):
            tally.correct = False
            tally.notes.append(f"restored ready lists {ready.get('tenants')}")
        shutil.rmtree(ckdir, ignore_errors=True)
    for _ in range(2):
        child = ctx.serve(["--stdio", "--checkpoint-dir", str(ctx.tmp / "cold")])
        _ready_at(child)
        _finish(child)
        tally.setup.append(_setup(child))


def batch_engine(ctx: Ctx, tally: Tally, budget: float) -> None:
    from engine_worker import CASE_NAMES, build_cases

    cases = build_cases(ctx.seed)
    reference = {
        name: [[r.events_processed, r.span, len(r.instance.jobs)]]
        for name in CASE_NAMES
        for r in [cases[name](core="object")]
    }
    events = sum(reference[n][0][0] for n in CASE_NAMES)
    jobs = sum(reference[n][0][2] for n in CASE_NAMES)
    seconds = budget / ENGINE_PROCESSES
    # Each process is started as soon as the last one has exited: the
    # restart runs from the last one's summary line to the next ready.
    last: Spawned | None = None
    for _ in range(ENGINE_PROCESSES):
        child = ctx.launch(
            ["--worker", str(ctx.seed), str(seconds)], "engine.log", stdin=False
        )
        _ready_at(child)
        child.read_until(2, timeout=seconds + STEP_TIMEOUT)
        ex = child.wait()
        tally.rss.append(ex.peak_rss_mb)
        tally.setup.append(_setup(child))
        own = hostspeed.load(child.samples)
        if last is not None:
            done, ready = last.out.times[-1], child.out.times[0]
            both = hostspeed.load(last.samples, child.samples)
            tally.restart.append((ready - done) / hostspeed.factor(both, done, ready))
        last = child
        summary = json.loads(bytes(child.out.data).splitlines()[1])
        passes = summary["passes"]
        for name in CASE_NAMES:
            tally.attempted += len(passes)
            if summary["outcomes"][name] != reference[name]:
                tally.failed += len(passes)
                tally.correct = False
                tally.notes.append(
                    f"{name}: {summary['outcomes'][name]} != object core "
                    f"{reference[name]}"
                )
        for t0, t1 in passes:
            slow = hostspeed.factor(own, t0, t1)
            tally.slowness.append(slow)
            tally.primary.append((t1 - t0) / slow)
            tally.events_per_s.append(events / (t1 - t0) * slow)
            tally.records_per_s.append(jobs / (t1 - t0) * slow)


WORKLOADS: dict[str, Callable[[Ctx, Tally, float], None]] = {
    "stdio_burst": stdio_burst,
    "durable_restore": durable_restore,
    "batch_engine": batch_engine,
}


def traced_metrics(ctx: Ctx, name: str) -> tuple[Tally, dict[str, float]]:
    """Half the time untraced, half traced: per-layer metrics, and the
    tracing overhead on the workload's main timing."""
    import layers

    half = ctx.seconds / 2
    plain = Tally()
    WORKLOADS[name](ctx, plain, half)
    ctx.spans = ctx.tmp / "spans"
    ctx.spans.mkdir()
    traced = Tally()
    if name == "batch_engine":
        path = ctx.spans / "batch.json"
        child = ctx.launch(
            ["--spans", str(path), "--batch", str(ctx.seed)], "engine.log",
            stdin=False,
        )
        child.read_to_eof(timeout=120.0)
        child.wait()
        traced.traced.append(layers.TracedRun(path))
        t0, t1 = json.loads(path.read_text())["batch"]["pass"]
        own = hostspeed.load(child.samples)
        traced.primary.append((t1 - t0) / hostspeed.factor(own, t0, t1))
        if layers.daemon_span_count(traced.traced):
            traced.correct = False
            traced.notes.append("batch_engine produced daemon spans")
    else:
        WORKLOADS[name](ctx, traced, half)
    out = layers.analyse(traced.traced, traced.restores_traced)
    base = statistics.median(plain.primary)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced.primary) - base
    ) / base
    plain.merge(traced)
    return plain, out


# --------------------------------------------------------------------- main
def _report(
    name: str, tally: Tally, metrics: dict[str, float], units: dict[str, str]
) -> None:
    err = sys.stderr
    print(f"[{name}] attempted={tally.attempted} failed={tally.failed} "
          f"error_rate={tally.failed / max(tally.attempted, 1):.6f} "
          f"correct={tally.correct}", file=err)
    if tally.slowness:
        print(f"[{name}]   host slowness (median, 1 = reference speed): "
              f"{statistics.median(tally.slowness):.3f}", file=err)
    for note in tally.notes[:10]:
        print(f"[{name}]   note: {note}", file=err)
    for key, value in metrics.items():
        print(f"[{name}]   {key:40s} {value:14.6g} {units[key]}", file=err)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import layers

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # The processes under test share one vCPU, so the host-speed samples
    # taken in them describe the vCPU they run on; the generator keeps
    # the other one when there are two.
    cpus = sorted(os.sched_getaffinity(0))
    ctx = Ctx(seed, seconds, tmp, cpus[-1])
    os.sched_setaffinity(0, {cpus[0]})
    # A collector pause in the generator would delay sends and receipt
    # stamps and read as a slower program.
    gc.disable()
    try:
        if trace:
            tally, metrics = traced_metrics(ctx, name)
            units = {k: u for k, (u, _) in layers.METRICS.items()}
        else:
            tally = Tally()
            WORKLOADS[name](ctx, tally, seconds)
            metrics = tally.metrics()
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    finally:
        gc.enable()
        os.sched_setaffinity(0, cpus)
        reap_all(ctx.children)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it
    _report(name, tally, metrics, units)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_spec() -> None:
    import layers

    spec = dict(SPEC)
    spec["per_layer"] = [
        {"name": k, "unit": u, "better": b} for k, (u, b) in layers.METRICS.items()
    ]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true",
                   help="run every workload and rewrite BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload or --all")
    if not (ROOT / "src" / "repro" / "serve" / "daemon.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # reference.py, layers.py and engine_worker.py import repro from here.
    sys.path.insert(0, str(ROOT / "src"))
    for name in [w["name"] for w in SPEC["workloads"]] if args.all else [args.workload]:
        try:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    if args.all:
        write_spec()
    return 0


if __name__ == "__main__":
    sys.exit(main())
