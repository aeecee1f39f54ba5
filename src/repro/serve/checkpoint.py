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

Layout: ``<checkpoint-dir>/<tenant>.ckpt.jsonl``, one append-only file
per tenant.  A session's first save (also its first after a restore, or
after a failed append) atomically replaces the whole file: the meta
header, then one ``op`` row per logged op.  Every later save appends
only the ops logged since, then one ``commit`` row carrying ``ops``,
``emitted``, ``clock`` and ``closed``, in a single ``write`` that is
``fsync``ed before the save returns — so a save costs O(new ops), not
O(log).  :func:`load_checkpoint` takes the header's state, overridden by
each commit row in turn; whatever follows the last commit is an append
that never finished (a crash mid-save) and is ignored, so a crash at
any point leaves the last committed checkpoint readable.

Verification fans out over the process pool: :func:`verify_checkpoints`
replays every checkpoint in parallel via
:class:`repro.perf.parallel.ParallelRunner` (the replay body is a
top-level picklable function), so a directory of hundreds of tenant
checkpoints validates at full core count.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..obs.jsonl import dump_jsonl, scan_committed_jsonl
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


#: Commit-row fields that override the meta header's state on load.
_COMMIT_STATE = ("ops", "emitted", "clock", "closed")


def save_checkpoint(session: TenantSession, directory: "str | Path") -> str:
    """Durably save ``session``'s checkpoint; returns the path.

    Rewrites the whole file atomically when ``session`` has not saved
    to it yet (``saved_ops == 0``), else appends the new ops and a
    commit row (see the module docstring).  If the append raises, the
    next save rewrites the whole file.
    """
    path = checkpoint_path(directory, session.tenant)
    logged = len(session.input_log)
    if session.saved_ops:
        rows = session.checkpoint_append()
        session.saved_ops = 0  # until this append is durable
        _append(path, rows)
    else:
        meta, rows = session.checkpoint_state()
        dump_jsonl(path, rows, tool=_TOOL, **meta)
    session.saved_ops = logged
    return str(path)


def _append(path: Path, rows: list[dict[str, Any]]) -> None:
    """One ``write`` of ``rows`` at the end of ``path``, then ``fsync``.

    The file must exist (no ``O_CREAT``): an append never produces a
    file without its meta header.
    """
    payload = "".join(json.dumps(row) + "\n" for row in rows).encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(
    path: "str | Path",
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a checkpoint file back as ``(meta, ops)``.

    ``meta`` is the header with the last commit row's state merged in,
    and ``ops`` are the op rows up to that commit; an unfinished append
    after it is ignored.  Raises ``ValueError`` on version/tool
    mismatches, malformed rows before the last commit (the same
    contract as the trace reader, :func:`repro.obs.jsonl.scan_jsonl`),
    or an op count that disagrees with the header or a commit row.
    """
    meta, rows = scan_committed_jsonl(path, "commit")
    if meta.get("tool") != _TOOL:
        raise ValueError(
            f"{path}: not a serve checkpoint (tool={meta.get('tool')!r})"
        )
    ops: list[dict[str, Any]] = []
    for row in rows:
        kind = row.get("kind")
        if kind == "op" and isinstance(row.get("data"), dict):
            ops.append(dict(row["data"]))
        elif kind == "commit" and isinstance(row.get("ops"), int):
            _check_count(path, "commit row", row["ops"], len(ops))
            meta.update((k, row[k]) for k in _COMMIT_STATE if k in row)
        else:
            raise ValueError(f"{path}: malformed checkpoint row {row!r}")
    declared = meta.get("ops")
    if isinstance(declared, int):
        _check_count(path, "meta", declared, len(ops))
    return meta, ops


def _check_count(path: "str | Path", where: str, declared: int, held: int) -> None:
    if declared != held:
        raise ValueError(
            f"{path}: truncated checkpoint ({where} declares {declared} ops, "
            f"file holds {held})"
        )


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
    order.  Each replay additionally cross-checks the rebuilt clock,
    closed flag and emitted count against the checkpoint's committed
    state (the meta header merged with its last commit row), so a stale
    or hand-edited checkpoint fails loudly instead of restoring silently
    wrong.  A raising replay propagates (``ParallelRunner`` does not
    retry task failures serially).
    """
    paths = [str(p) for p in list_checkpoints(directory)]
    if not paths:
        return []
    active = runner if runner is not None else get_default_runner()
    summaries = active.map(replay_summary, paths)
    for path, summary in zip(paths, summaries):
        meta, _ = load_checkpoint(path)
        for key in ("clock", "closed", "emitted"):
            if key in meta and meta[key] != summary[key]:
                raise ValueError(
                    f"{path}: replay diverged from checkpoint meta "
                    f"({key}: meta={meta[key]!r}, replay={summary[key]!r})"
                )
    return summaries
