"""Event-sourced checkpoints: save/restore determinism, pool fan-out."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.jsonl import dump_jsonl, scan_jsonl
from repro.perf.parallel import ParallelRunner
from repro.serve.checkpoint import (
    CHECKPOINT_SUFFIX,
    checkpoint_path,
    list_checkpoints,
    load_checkpoint,
    restore_all,
    restore_session,
    save_checkpoint,
    verify_checkpoints,
)
from repro.serve.session import TenantSession

JOBS = [
    (0, 0.0, 2.0, 1.0),
    (1, 0.5, 1.5, 3.0),
    (2, 4.0, 5.0, 2.0),
    (3, 6.0, 9.0, 1.0),
]


def job_op(tenant, job_id, arrival, deadline, length):
    return {
        "op": "job", "tenant": tenant, "id": job_id, "arrival": arrival,
        "deadline": deadline, "length": length,
    }


def run_session(tenant="t1", upto=len(JOBS), close=False, scheduler="batch+"):
    """A session with the first ``upto`` jobs applied; outputs collected."""
    session = TenantSession(tenant, scheduler=scheduler)
    outs = list(session.hello())
    for jid, a, d, p in JOBS[:upto]:
        outs += session.apply(job_op(tenant, jid, a, d, p))
    if close:
        outs += session.apply({"op": "close", "tenant": tenant})
    return session, outs


LONG_JOBS = [
    (i, 0.7 * i, 0.7 * i + 1.0 + (i % 3), 1.0 + (i % 4)) for i in range(12)
]


def apply_jobs(session, jobs):
    outs = []
    for jid, a, d, p in jobs:
        outs += session.apply(job_op(session.tenant, jid, a, d, p))
    return outs


def committed_state(session):
    return {
        "ops": len(session.input_log),
        "emitted": session.emitted,
        "clock": session.clock,
        "closed": session.closed,
    }


def rows_of(path):
    return [json.loads(line) for line in open(path, encoding="utf-8")]


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        session, _ = run_session(upto=2)
        path = save_checkpoint(session, tmp_path)
        assert path == str(checkpoint_path(tmp_path, "t1"))
        meta, ops = load_checkpoint(path)
        assert meta["tenant"] == "t1"
        assert meta["scheduler"] == "batch+"
        assert meta["emitted"] == session.emitted
        assert meta["clock"] == session.clock
        assert ops == session.input_log

    def test_save_resets_cadence_counter(self, tmp_path):
        session, _ = run_session(upto=2)
        assert session.ops_since_checkpoint == 2
        save_checkpoint(session, tmp_path)
        assert session.ops_since_checkpoint == 0

    def test_restore_matches_original_state(self, tmp_path):
        session, _ = run_session(upto=3)
        path = save_checkpoint(session, tmp_path)
        restored = restore_session(path)
        assert restored.tenant == session.tenant
        assert restored.clock == session.clock
        assert restored.emitted == session.emitted
        assert restored.input_log == session.input_log
        assert not restored.closed

    def test_closed_session_restores_closed(self, tmp_path):
        session, _ = run_session(close=True)
        path = save_checkpoint(session, tmp_path)
        restored = restore_session(path)
        assert restored.closed
        assert restored.result is not None
        assert restored.result.span == session.result.span


class TestKillRestoreDeterminism:
    def test_remaining_outputs_bit_identical(self, tmp_path):
        """The acceptance criterion: restore emits exactly what the
        uninterrupted session would have emitted after the cut point."""
        full_session, full_outs = run_session(close=True)

        for cut in range(1, len(JOBS) + 1):
            crash_session, pre_outs = run_session(upto=cut)
            path = save_checkpoint(crash_session, tmp_path)
            # "Crash": drop the session object entirely; restore from disk.
            restored = restore_session(path)
            post_outs = []
            for jid, a, d, p in JOBS[cut:]:
                post_outs += restored.apply(job_op("t1", jid, a, d, p))
            post_outs += restored.apply({"op": "close", "tenant": "t1"})
            assert pre_outs + post_outs == full_outs, f"cut at {cut}"
            assert restored.result.span == full_session.result.span

    def test_no_duplicate_start_records_after_restore(self, tmp_path):
        _, full_outs = run_session(close=True)
        crash_session, pre_outs = run_session(upto=2)
        path = save_checkpoint(crash_session, tmp_path)
        restored = restore_session(path)
        post_outs = []
        for jid, a, d, p in JOBS[2:]:
            post_outs += restored.apply(job_op("t1", jid, a, d, p))
        post_outs += restored.apply({"op": "close", "tenant": "t1"})
        started = [o["job"] for o in pre_outs + post_outs if o["kind"] == "start"]
        assert sorted(started) == [0, 1, 2, 3]
        assert len(started) == len(set(started))  # no job started twice

    def test_restore_all(self, tmp_path):
        for tenant in ("alpha", "beta", "gamma"):
            session, _ = run_session(tenant=tenant, upto=2)
            save_checkpoint(session, tmp_path)
        sessions = restore_all(tmp_path)
        assert sorted(sessions) == ["alpha", "beta", "gamma"]
        assert all(s.clock > 0 for s in sessions.values())

    def test_list_checkpoints_sorted(self, tmp_path):
        for tenant in ("zeta", "alpha"):
            session, _ = run_session(tenant=tenant, upto=1)
            save_checkpoint(session, tmp_path)
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == [
            f"alpha{CHECKPOINT_SUFFIX}", f"zeta{CHECKPOINT_SUFFIX}"
        ]
        assert list_checkpoints(tmp_path / "missing") == []


class TestVerifyCheckpoints:
    def _populate(self, tmp_path, n=4):
        for i in range(n):
            session, _ = run_session(
                tenant=f"t{i}", upto=2 + (i % 3), close=(i % 2 == 0)
            )
            save_checkpoint(session, tmp_path)

    def test_serial_and_pool_identical(self, tmp_path):
        self._populate(tmp_path)
        serial = verify_checkpoints(tmp_path, runner=ParallelRunner(workers=1))
        pooled = verify_checkpoints(tmp_path, runner=ParallelRunner(workers=2))
        assert serial == pooled
        assert [s["tenant"] for s in serial] == ["t0", "t1", "t2", "t3"]
        assert all("span" in s for s in serial if s["closed"])

    def test_empty_directory(self, tmp_path):
        assert verify_checkpoints(tmp_path) == []

    def test_tampered_meta_detected(self, tmp_path):
        session, _ = run_session(upto=2)
        path = save_checkpoint(session, tmp_path)
        meta, ops = load_checkpoint(path)
        meta["clock"] = meta["clock"] + 7.0  # stale/hand-edited meta
        meta.pop("version", None)
        rows = [{"kind": "op", "data": op} for op in ops]
        dump_jsonl(path, rows, **meta)
        with pytest.raises(ValueError, match="replay diverged"):
            verify_checkpoints(tmp_path, runner=ParallelRunner(workers=1))

    def _appended(self, tmp_path):
        session = TenantSession("t1")
        session.hello()
        apply_jobs(session, LONG_JOBS[:3])
        path = save_checkpoint(session, tmp_path)
        apply_jobs(session, LONG_JOBS[3:6])
        save_checkpoint(session, tmp_path)
        return path

    def test_appended_checkpoint_verifies(self, tmp_path):
        self._appended(tmp_path)
        (summary,) = verify_checkpoints(
            tmp_path, runner=ParallelRunner(workers=1)
        )
        assert summary["ops"] == 6

    @pytest.mark.parametrize("key,delta", [("clock", 7.0), ("emitted", -1)])
    def test_tampered_commit_row_detected(self, tmp_path, key, delta):
        path = self._appended(tmp_path)
        rows = rows_of(path)
        assert rows[-1]["kind"] == "commit"
        rows[-1][key] += delta
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
        with pytest.raises(ValueError, match="replay diverged"):
            verify_checkpoints(tmp_path, runner=ParallelRunner(workers=1))


class TestCorruptCheckpoints:
    def test_wrong_tool_rejected(self, tmp_path):
        path = tmp_path / f"t1{CHECKPOINT_SUFFIX}"
        dump_jsonl(path, [], tool="repro.obs", tenant="t1")
        with pytest.raises(ValueError, match="not a serve checkpoint"):
            load_checkpoint(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / f"t1{CHECKPOINT_SUFFIX}"
        dump_jsonl(
            path, [{"kind": "noise"}], tool="repro.serve", tenant="t1"
        )
        with pytest.raises(ValueError, match="malformed checkpoint row"):
            load_checkpoint(path)

    def test_truncated_ops_detected(self, tmp_path):
        session, _ = run_session(upto=3)
        path = save_checkpoint(session, tmp_path)
        # Drop the last op row without touching the meta header.
        from pathlib import Path

        p = Path(path)
        kept = p.read_text().splitlines()
        p.write_text("\n".join(kept[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(p)

    def test_inflated_emitted_rejected_on_restore(self, tmp_path):
        session, _ = run_session(upto=2)
        path = save_checkpoint(session, tmp_path)
        meta, ops = load_checkpoint(path)
        meta["emitted"] = meta["emitted"] + 50  # claims undelivered records
        meta["ops"] = len(ops)
        meta.pop("version", None)
        rows = [{"kind": "op", "data": op} for op in ops]
        dump_jsonl(path, rows, **meta)
        with pytest.raises(ValueError, match="never\\s+regenerated"):
            restore_session(path)

    def test_checkpoint_file_is_versioned_jsonl(self, tmp_path):
        session, _ = run_session(upto=1)
        path = save_checkpoint(session, tmp_path)
        meta, rows = scan_jsonl(path)
        assert meta["version"] == 1
        assert meta["tool"] == "repro.serve"
        first = json.loads(open(path).readline())
        assert first["kind"] == "meta"


class TestAppendSaves:
    def test_first_save_is_the_whole_file(self, tmp_path):
        session, _ = run_session(upto=3)
        path = save_checkpoint(session, tmp_path)
        meta, rows = session.checkpoint_state()
        expected = dump_jsonl(tmp_path / "expected.jsonl", rows,
                              tool="repro.serve", **meta)
        assert open(path, "rb").read() == open(expected, "rb").read()
        assert session.saved_ops == 3

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_save_writes_only_new_ops(self, tmp_path, k):
        session = TenantSession("t1")
        session.hello()
        apply_jobs(session, LONG_JOBS[:4])
        path = save_checkpoint(session, tmp_path)
        before = open(path, "rb").read()
        apply_jobs(session, LONG_JOBS[4:4 + k])
        assert session.ops_since_checkpoint == k
        assert save_checkpoint(session, tmp_path) == path
        after = open(path, "rb").read()
        assert after.startswith(before)  # nothing rewritten
        grown = [json.loads(line) for line in after[len(before):].splitlines()]
        assert len(grown) == k + 1
        assert grown[:k] == [
            {"kind": "op", "data": op} for op in session.input_log[4:]
        ]
        assert grown[-1] == {"kind": "commit", **committed_state(session)}
        assert session.ops_since_checkpoint == 0
        meta, ops = load_checkpoint(path)
        assert ops == session.input_log
        assert {key: meta[key] for key in committed_state(session)} == (
            committed_state(session)
        )

    def test_closed_session_appends_and_restores_closed(self, tmp_path):
        session = TenantSession("t1")
        session.hello()
        apply_jobs(session, LONG_JOBS[:5])
        save_checkpoint(session, tmp_path)
        session.apply({"op": "close", "tenant": "t1"})
        path = save_checkpoint(session, tmp_path)
        assert rows_of(path)[-1]["closed"] is True
        restored = restore_session(path)
        assert restored.closed
        assert restored.result.span == session.result.span

    def test_append_never_creates_a_headerless_file(self, tmp_path):
        session, _ = run_session(upto=2)
        path = save_checkpoint(session, tmp_path)
        session.apply(job_op("t1", *JOBS[2]))
        os.unlink(path)
        with pytest.raises(FileNotFoundError):
            save_checkpoint(session, tmp_path)
        assert not os.path.exists(path)
        save_checkpoint(session, tmp_path)  # rewrites the whole file
        assert load_checkpoint(path)[1] == session.input_log


class TestCrashMidAppend:
    """A crash inside the last append leaves the previous commit."""

    def _three_saves(self, tmp_path):
        """Save after 4, 7 and 9 ops, then append 3 more ops; returns
        (session, path, file before the last append, state at that
        point, the outputs delivered up to it)."""
        session = TenantSession("t1")
        outs = list(session.hello())
        for upto in (4, 7, 9):
            outs += apply_jobs(session, LONG_JOBS[len(session.input_log):upto])
            path = save_checkpoint(session, tmp_path)
        before = open(path, "rb").read()
        state = committed_state(session)
        apply_jobs(session, LONG_JOBS[9:12])
        save_checkpoint(session, tmp_path)
        return session, path, before, state, outs

    def _cuts(self, before, after):
        """Byte offsets inside the last append, short of the commit
        row's closing brace: the start, inside and at the end of each
        op row, and inside the commit row."""
        cuts = {len(before), len(before) + 1, len(after) - 2}
        pos = len(before)
        for line in after[len(before):].splitlines(keepends=True)[:-1]:
            cuts.update({pos + len(line) // 2, pos + len(line) - 1,
                         pos + len(line)})
            pos += len(line)
        commit_line = after[pos:]
        cuts.add(pos + len(commit_line) // 2)
        return sorted(cuts)

    def test_torn_append_reads_previous_commit(self, tmp_path):
        session, path, before, state, _ = self._three_saves(tmp_path)
        after = open(path, "rb").read()
        cuts = self._cuts(before, after)
        assert len(cuts) >= 8
        for cut in cuts:
            with open(path, "wb") as fh:
                fh.write(after[:cut])
            meta, ops = load_checkpoint(path)
            assert ops == session.input_log[:state["ops"]], f"cut at {cut}"
            assert {key: meta[key] for key in state} == state, f"cut at {cut}"

    def test_restore_after_torn_append_is_bit_identical(self, tmp_path):
        session, path, before, state, delivered = self._three_saves(tmp_path)
        reference = TenantSession("t1")
        full_outs = list(reference.hello())
        full_outs += apply_jobs(reference, LONG_JOBS)
        full_outs += reference.apply({"op": "close", "tenant": "t1"})
        after = open(path, "rb").read()
        for cut in self._cuts(before, after):
            with open(path, "wb") as fh:
                fh.write(after[:cut])
            restored = restore_session(path)
            assert committed_state(restored) == state, f"cut at {cut}"
            post = apply_jobs(restored, LONG_JOBS[state["ops"]:])
            post += restored.apply({"op": "close", "tenant": "t1"})
            assert delivered + post == full_outs, f"cut at {cut}"
            started = [o["job"] for o in delivered + post
                       if o["kind"] == "start"]
            assert len(started) == len(set(started)) == len(LONG_JOBS)
        assert session.input_log == reference.input_log[:-1]

    def test_next_save_after_restore_rewrites_whole_file(self, tmp_path):
        _, path, before, state, _ = self._three_saves(tmp_path)
        after = open(path, "rb").read()
        for cut in self._cuts(before, after):
            with open(path, "wb") as fh:
                fh.write(after[:cut])
            restored = restore_session(path)
            assert restored.saved_ops == 0
            apply_jobs(restored, LONG_JOBS[state["ops"]:state["ops"] + 1])
            save_checkpoint(restored, tmp_path)
            meta, rows = scan_jsonl(path)  # strict: no torn or glued line
            assert [r["kind"] for r in rows] == ["op"] * len(rows)
            assert [r["data"] for r in rows] == restored.input_log
            assert meta["ops"] == len(restored.input_log)
            apply_jobs(restored, LONG_JOBS[state["ops"] + 1:])
            save_checkpoint(restored, tmp_path)  # appends again
            assert rows_of(path)[-1]["kind"] == "commit"
            assert load_checkpoint(path)[1] == restored.input_log

    @pytest.mark.parametrize("bad", ["op", "commit", "noise", "non_object"])
    def test_corrupt_line_before_last_commit_raises(self, tmp_path, bad):
        path = self._three_saves(tmp_path)[1]
        lines = open(path, encoding="utf-8").read().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        first_commit = kinds.index("commit")
        if bad == "op":
            lines[first_commit - 1] = lines[first_commit - 1][:-7]  # torn
        elif bad == "commit":
            row = json.loads(lines[first_commit])
            row["ops"] -= 1
            lines[first_commit] = json.dumps(row)
        elif bad == "noise":
            lines.insert(first_commit, json.dumps({"kind": "noise"}))
        else:
            lines.insert(first_commit, "[1, 2]")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_failed_append_makes_next_save_whole(self, tmp_path, monkeypatch):
        session = TenantSession("t1")
        session.hello()
        apply_jobs(session, LONG_JOBS[:4])
        path = save_checkpoint(session, tmp_path)
        apply_jobs(session, LONG_JOBS[4:6])
        save_checkpoint(session, tmp_path)
        apply_jobs(session, LONG_JOBS[6:8])

        def failing_fsync(fd):
            raise OSError("disk gone")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="disk gone"):
                save_checkpoint(session, tmp_path)
        assert session.saved_ops == 0
        assert session.ops_since_checkpoint == len(session.input_log)
        save_checkpoint(session, tmp_path)
        meta, rows = session.checkpoint_state()
        expected = dump_jsonl(tmp_path / "expected.jsonl", rows,
                              tool="repro.serve", **meta)
        assert open(path, "rb").read() == open(expected, "rb").read()
        apply_jobs(session, LONG_JOBS[8:9])
        save_checkpoint(session, tmp_path)
        assert [r["kind"] for r in rows_of(path)][-2:] == ["op", "commit"]
        assert load_checkpoint(path)[1] == session.input_log

