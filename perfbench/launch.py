"""Launcher for every process under test.

Usage::

    python3 perfbench/launch.py SAMPLES.json serve --stdio ...
    python3 perfbench/launch.py SAMPLES.json --worker SEED SECONDS
    python3 perfbench/launch.py SAMPLES.json --spans SPANS.json serve --stdio ...
    python3 perfbench/launch.py SAMPLES.json --spans SPANS.json --batch SEED

Every form first starts a :class:`hostspeed.Sampler` writing to
``SAMPLES.json``.  ``serve ...`` then runs ``repro.cli.main`` with those
arguments, so the daemon is exactly the one ``python -m repro`` starts;
``--worker`` runs the ``batch_engine`` child (``engine_worker.main``).

With ``--spans``, the launcher is traced: it wraps the functions listed
in :func:`install` before it runs the daemon, and ``--batch`` runs the
``batch_engine`` cases directly through ``simulate`` on both engine
cores, with and without a recorder.

Each span is ``[name, start, end, parent row, on_main_thread, attr]``
(``time.perf_counter`` stamps; parent ``-1`` for a root).  Spans stay in memory and are written
to ``SPANS.json`` at exit, with the wall time of the run and every
garbage-collector pause.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

_now = time.perf_counter
#: Finished spans as flat tuples of atoms, which the collector stops
#: tracking, so tracing adds little to the daemon's own GC pauses.
SPANS: list[tuple[Any, ...]] = []
GC_PAUSES: list[float] = []
_ids = itertools.count()
_local = threading.local()
#: Open span ids per thread; the loop thread's is :data:`_MAIN_STACK`.
_MAIN_STACK: list[int] = []
_local.stack = _MAIN_STACK


def _stack() -> list[int]:
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


def _wrap(
    fn: Callable[..., Any], name: str,
    describe: Callable[[tuple[Any, ...], Any], Any] | None = None,
) -> Callable[..., Any]:
    """A synchronous span around ``fn``; ``describe(args, result)``
    gives the span's attribute."""

    def traced(*args: Any, **kwargs: Any) -> Any:
        stack = _stack()
        idx = next(_ids)
        parent = stack[-1] if stack else -1
        main = stack is _MAIN_STACK
        stack.append(idx)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stack.pop()
            SPANS.append((idx, name, start, _now(), parent, main, None))
            raise
        end = _now()
        stack.pop()
        attr = describe(args, result) if describe is not None else None
        SPANS.append((idx, name, start, end, parent, main, attr))
        return result

    return traced


def _wrap_async(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    """A span around an awaited call.  Other tasks run while it waits,
    so it is never a parent and is left out of self-time accounting."""

    async def traced(*args: Any, **kwargs: Any) -> Any:
        idx = next(_ids)
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            SPANS.append((idx, name, start, _now(), -1, True, None))

    return traced


def _on_gc(phase: str, info: dict[str, Any], _start: list[float] = [0.0]) -> None:
    if phase == "start":
        _start[0] = _now()
    else:
        GC_PAUSES.append(_now() - _start[0])


def _describe_apply(args: tuple[Any, ...], result: Any) -> Any:
    session, op = args[0], args[1]
    if op.get("op") == "close" and session.result is not None:
        return (session.tenant, "close", len(session.recorder.records),
                len(session.result.instance.jobs))
    return (session.tenant, op.get("op"))


def _describe_save(args: tuple[Any, ...], path: Any) -> Any:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0  # replaced or removed already


def _describe_restore(args: tuple[Any, ...], sessions: Any) -> Any:
    return sum(len(s.input_log) for s in sessions.values())


def install() -> None:
    """Wrap every traced entry point (see module docstring)."""
    from repro.core.engine import Simulator
    from repro.obs.live import TenantTelemetry
    from repro.serve import daemon
    from repro.serve.session import TenantSession

    daemon.parse_op = _wrap(daemon.parse_op, "protocol.parse_op")
    daemon.encode_record = _wrap(daemon.encode_record, "protocol.encode_record")
    daemon.save_checkpoint = _wrap(
        daemon.save_checkpoint, "checkpoint.save", _describe_save
    )
    daemon.restore_all = _wrap(
        daemon.restore_all, "checkpoint.restore_all", _describe_restore
    )
    TenantSession.apply = _wrap(  # type: ignore[method-assign]
        TenantSession.apply, "session.apply", _describe_apply
    )
    Simulator.feed = _wrap(Simulator.feed, "engine.feed")  # type: ignore[method-assign]
    Simulator.advance = _wrap(  # type: ignore[method-assign]
        Simulator.advance, "engine.advance",
        lambda args, _: type(args[0]._scheduler).name,
    )
    Simulator.finish_stream = _wrap(  # type: ignore[method-assign]
        Simulator.finish_stream, "engine.finish_stream",
        lambda args, _: type(args[0]._scheduler).name,
    )
    TenantTelemetry.observe = _wrap(  # type: ignore[method-assign]
        TenantTelemetry.observe, "live.observe"
    )
    asyncio.StreamWriter.write = _wrap(  # type: ignore[method-assign]
        asyncio.StreamWriter.write, "writer.write"
    )
    asyncio.StreamWriter.drain = _wrap_async(  # type: ignore[method-assign]
        asyncio.StreamWriter.drain, "writer.drain"
    )
    gc.callbacks.append(_on_gc)


def _events_per_s(run: Callable[..., Any], **kw: Any) -> float:
    t0 = _now()
    result = run(**kw)
    return result.events_processed / (_now() - t0)


def run_batch(seed: int) -> dict[str, Any]:
    """One pass as the ``batch_engine`` child runs it (``[start, end]``),
    then per-case events/s on both cores and armed/disarmed ratios."""
    from repro.obs.recorder import TraceRecorder

    from engine_worker import CASE_NAMES, build_cases, run_pass

    cases = build_cases(seed)
    out: dict[str, Any] = {"pass": run_pass(cases, {n: [] for n in cases})}
    for name in CASE_NAMES:
        for core in ("columnar", "object"):
            out[f"{core}.{name}.events_per_s"] = _events_per_s(
                cases[name], core=core
            )
    for name in ("e1_k2_batch", "e5_cdb_alpha2"):
        armed = _events_per_s(cases[name], recorder=TraceRecorder())
        out[f"recorder.armed_ratio.{name}"] = armed / _events_per_s(cases[name])
    return out


def main(argv: list[str]) -> int:
    import hostspeed

    sampler = hostspeed.Sampler(argv[1])
    try:
        rest = argv[2:]
        if rest[:1] == ["--worker"]:
            import engine_worker

            return engine_worker.main(rest)
        if rest[:1] != ["--spans"]:
            from repro.cli import main as cli_main

            return cli_main(rest)
        return traced(rest[1], rest[2:])
    finally:
        sampler.close()


def traced(out_path: str, rest: list[str]) -> int:
    """Run traced; write the spans to ``out_path`` at exit."""
    install()
    from repro.cli import main as cli_main

    start = _now()
    code = 1
    batch: dict[str, Any] = {}
    try:
        if rest[:1] == ["--batch"]:
            batch = run_batch(int(rest[1]))
            code = 0
        else:
            code = cli_main(rest)
    finally:
        end = _now()
        # Ids are dense, so after sorting a span's id is its row.
        rows = [span[1:] for span in sorted(SPANS)]
        with open(out_path, "w") as fh:
            json.dump(
                {"wall": [start, end], "spans": rows, "gc": GC_PAUSES,
                 "batch": batch},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
