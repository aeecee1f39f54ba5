"""Event-sourced checkpoints for serve sessions.

A checkpoint is **not** pickled engine state.  It is the session's
input-op log plus its emitted-output counter, written through the same
versioned, atomic JSONL sink the observability traces use
(:func:`repro.obs.jsonl.dump_jsonl`): a meta header, then one ``op`` row
per logged input op.  Restoring replays the log through a fresh
deterministic session, suppressing the first ``emitted`` regenerated
output records — so a killed daemon resumes without re-admitting started
jobs and the records it emits after restore are bit-identical to the
ones the uninterrupted daemon would have emitted.

Layout: ``<checkpoint-dir>/<tenant>.ckpt.jsonl``, one file per tenant,
atomically replaced on every save (a crash mid-checkpoint leaves the
previous checkpoint intact, never a torn file).

Verification fans out over the process pool: :func:`verify_checkpoints`
replays every checkpoint in parallel via
:class:`repro.perf.parallel.ParallelRunner` (the replay body is a
top-level picklable function), so a directory of hundreds of tenant
checkpoints validates at full core count.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..obs.jsonl import dump_jsonl, scan_jsonl
from ..obs.live import LiveAggregator
from ..perf.parallel import ParallelRunner, get_default_runner
from .session import TenantSession

__all__ = [
    "CHECKPOINT_SUFFIX",
    "checkpoint_path",
    "list_checkpoints",
    "load_checkpoint",
    "replay_summary",
    "restore_all",
    "restore_session",
    "save_checkpoint",
    "verify_checkpoints",
]

CHECKPOINT_SUFFIX = ".ckpt.jsonl"
_TOOL = "repro.serve"


def checkpoint_path(directory: "str | Path", tenant: str) -> Path:
    """Where ``tenant``'s checkpoint lives under ``directory``."""
    return Path(directory) / f"{tenant}{CHECKPOINT_SUFFIX}"


def save_checkpoint(session: TenantSession, directory: "str | Path") -> str:
    """Atomically write ``session``'s checkpoint; returns the path."""
    meta, rows = session.checkpoint_state()
    path = checkpoint_path(directory, session.tenant)
    path.parent.mkdir(parents=True, exist_ok=True)
    result = dump_jsonl(path, rows, tool=_TOOL, **meta)
    session.ops_since_checkpoint = 0
    return result


def load_checkpoint(
    path: "str | Path",
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a checkpoint file back as ``(meta, ops)``.

    Raises ``ValueError`` on version/tool mismatches or malformed rows
    (the same contract as the trace reader — both ride
    :func:`repro.obs.jsonl.scan_jsonl`).
    """
    meta, rows = scan_jsonl(path)
    if meta.get("tool") != _TOOL:
        raise ValueError(
            f"{path}: not a serve checkpoint (tool={meta.get('tool')!r})"
        )
    ops: list[dict[str, Any]] = []
    for row in rows:
        if row.get("kind") != "op" or not isinstance(row.get("data"), dict):
            raise ValueError(f"{path}: malformed checkpoint row {row!r}")
        ops.append(dict(row["data"]))
    declared = meta.get("ops")
    if isinstance(declared, int) and declared != len(ops):
        raise ValueError(
            f"{path}: truncated checkpoint (meta declares {declared} ops, "
            f"file holds {len(ops)})"
        )
    return meta, ops


def restore_session(
    path: "str | Path",
    *,
    live: LiveAggregator | None = None,
    trace: bool = False,
) -> TenantSession:
    """Rebuild one tenant session from its checkpoint file.

    The replay feeds the tenant's telemetry in ``live`` (when given) and
    rebuilds its trace when ``trace`` is set, so a restored daemon
    reports what the uninterrupted one would have.
    """
    meta, ops = load_checkpoint(path)
    telemetry = live.tenant(str(meta["tenant"])) if live is not None else None
    return TenantSession.restore(meta, ops, telemetry=telemetry, trace=trace)


def list_checkpoints(directory: "str | Path") -> list[Path]:
    """Every checkpoint file under ``directory``, sorted by tenant."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"*{CHECKPOINT_SUFFIX}"))


def restore_all(
    directory: "str | Path",
    *,
    live: LiveAggregator | None = None,
    trace: bool = False,
) -> dict[str, TenantSession]:
    """Restore every checkpointed tenant under ``directory``
    (``live`` and ``trace`` as for :func:`restore_session`)."""
    sessions: dict[str, TenantSession] = {}
    for path in list_checkpoints(directory):
        session = restore_session(path, live=live, trace=trace)
        sessions[session.tenant] = session
    return sessions


def replay_summary(path: str) -> dict[str, Any]:
    """Replay one checkpoint and summarise the rebuilt session.

    Top-level and string-argumented on purpose: this is the body
    :func:`verify_checkpoints` ships to pool workers, so it must stay
    picklable under the spawn start method.
    """
    meta, ops = load_checkpoint(path)
    session = TenantSession.restore(meta, ops)
    summary: dict[str, Any] = {
        "tenant": session.tenant,
        "scheduler": session.scheduler_name,
        "ops": len(session.input_log),
        "emitted": session.emitted,
        "clock": session.clock,
        "closed": session.closed,
    }
    if session.result is not None:
        summary["span"] = session.result.span
        summary["jobs"] = len(session.result.instance.jobs)
    return summary


def verify_checkpoints(
    directory: "str | Path", runner: ParallelRunner | None = None
) -> list[dict[str, Any]]:
    """Replay every checkpoint under ``directory`` (pool fan-out).

    Returns one :func:`replay_summary` dict per checkpoint, in tenant
    order.  Each replay additionally cross-checks the rebuilt clock and
    closed flag against the checkpoint's own meta header, so a stale or
    hand-edited checkpoint fails loudly instead of restoring silently
    wrong.  A raising replay propagates (``ParallelRunner`` does not
    retry task failures serially).
    """
    paths = [str(p) for p in list_checkpoints(directory)]
    if not paths:
        return []
    active = runner if runner is not None else get_default_runner()
    summaries = active.map(replay_summary, paths)
    for path, summary in zip(paths, summaries):
        meta, _ = scan_jsonl(path)
        for key in ("clock", "closed", "emitted"):
            if key in meta and meta[key] != summary[key]:
                raise ValueError(
                    f"{path}: replay diverged from checkpoint meta "
                    f"({key}: meta={meta[key]!r}, replay={summary[key]!r})"
                )
    return summaries
