"""The one recovery path (``repro.core.recovery``), piece by piece.

- ``resolve_in_doubt`` is a pure function, so its decision table is
  checked directly over synthetic durable states — all four outcomes plus
  the edges the durable evidence makes ambiguous;
- ``truncate_tail_record`` is the only write recovery makes to a shard's
  WAL outside ``scan_wal``; it must go through the ``FileSystem`` seam
  (truncate + fsync + directory fsync) and fail typed on a refusing disk;
- ``read_durable_state`` reads once, and only a repairing read reports.
"""

from __future__ import annotations

import os

import pytest

from repro.core.recovery import (
    ABORT,
    COMMIT,
    ROLL_FORWARD,
    TRUNCATE_ABORT,
    DurableState,
    read_durable_state,
    resolve_in_doubt,
    truncate_tail_record,
)
from repro.db.fsio import FaultyFileSystem, FileHandle, OsFileSystem
from repro.db.wal import (
    Checkpoint,
    CheckpointSelection,
    IntentRecord,
    WalRecord,
    WalScanReport,
    WriteAheadLog,
    list_segments,
    scan_wal,
    write_checkpoint,
)
from repro.errors import DurabilityError, RecoveryError, WalError
from repro.faults import FaultPlan, FsyncFailure
from repro.obs.metrics import MetricsRegistry

# -- synthetic durable evidence ---------------------------------------------------

A0, A1, A2 = 0xA0, 0xA1, 0xA2  # shard 0: watermark digest, then later ones
B0, B1 = 0xB0, 0xB1  # shard 1


def _state(checkpoint: tuple[int, int], *records: tuple[int, int]) -> DurableState:
    """A shard whose checkpoint is ``(seq, digest)`` followed by *records*."""
    seq, digest = checkpoint
    anchor = Checkpoint(
        seq=seq,
        digest=digest,
        rows={},
        provider_store={},
        provider_product=1,
        provider_digest=digest,
        next_txn_id=1,
        config={},
        group_modulus=0,
        group_generator=0,
        durability={},
        digest_log=[],
    )
    return DurableState(
        selection=CheckpointSelection(anchor, "", False, ()),
        records=tuple(
            WalRecord(seq=s, digest=d, command_log=b"", offset=4, size=1)
            for s, d in records
        ),
        scan=WalScanReport(),
    )


def _intent(round_id: int = 0, state: str = "pending") -> IntentRecord:
    """A round over shards 0 and 1 journaled at watermarks (3, A0) / (5, B0)."""
    return IntentRecord(
        round_id=round_id,
        num_shards=2,
        txns=(),
        participants=(0, 1),
        pre_seqs={0: 3, 1: 5},
        pre_digests={0: A0, 1: B0},
        state=state,
    )


UNTOUCHED_0 = _state((3, A0))
UNTOUCHED_1 = _state((5, B0))

DECISION_TABLE = [
    pytest.param(
        _state((3, A0), (4, A1)), _state((5, B0), (6, B1)), COMMIT, (0, 1),
        id="applied-everywhere-commits",
    ),
    pytest.param(
        _state((4, A1)), _state((6, B1)), COMMIT, (0, 1),
        id="applied-and-checkpointed-everywhere-commits",
    ),
    pytest.param(UNTOUCHED_0, UNTOUCHED_1, ABORT, (), id="applied-nowhere-aborts"),
    pytest.param(
        _state((3, A0), (4, A1)), UNTOUCHED_1, TRUNCATE_ABORT, (0,),
        id="bare-tail-copy-is-truncated",
    ),
    pytest.param(
        UNTOUCHED_0, _state((4, 0xBF), (5, B0), (6, B1)), TRUNCATE_ABORT, (1,),
        id="bare-tail-behind-older-records-is-truncated",
    ),
    pytest.param(
        _state((4, A1)), UNTOUCHED_1, ROLL_FORWARD, (0,),
        id="already-checkpointed-copy-rolls-forward",
    ),
    pytest.param(
        _state((3, A0), (4, A1), (5, A2)), UNTOUCHED_1, ROLL_FORWARD, (0,),
        id="copy-with-later-records-rolls-forward",
    ),
    pytest.param(
        # The apply moved the tip but wrote back identical values: the
        # digest did not change, so the shard counts as not-applied — both
        # resolutions produce the same state, and abort is the cheap one.
        _state((3, A0), (4, A0)), _state((5, B0), (6, B0)), ABORT, (),
        id="applied-but-digest-unchanged-everywhere-aborts",
    ),
    pytest.param(
        _state((3, A0), (4, A0)), _state((5, B0), (6, B1)), TRUNCATE_ABORT, (1,),
        id="applied-but-digest-unchanged-on-one-shard",
    ),
    pytest.param(
        # A live compensation rewrote the same-sequence checkpoint with the
        # pre-round digest before the crash: moved past, digest restored.
        _state((4, A0)), UNTOUCHED_1, ABORT, (),
        id="compensated-checkpoint-is-not-applied",
    ),
    pytest.param(
        _state((4, A1)), _state((5, B0), (6, B1)), COMMIT, (0, 1),
        id="checkpointed-plus-bare-tail-is-still-a-commit",
    ),
]


class TestResolveInDoubt:
    @pytest.mark.parametrize("shard0, shard1, action, applied", DECISION_TABLE)
    def test_decision_table(self, shard0, shard1, action, applied):
        (decision,) = resolve_in_doubt([_intent()], {0: shard0, 1: shard1})
        assert (decision.action, decision.applied) == (action, applied)
        assert decision.record.round_id == 0 and decision.reason

    def test_resolved_rounds_are_not_decided_again(self):
        intents = [_intent(0, "committed"), _intent(1, "aborted"), _intent(2)]
        decisions = resolve_in_doubt(intents, {0: UNTOUCHED_0, 1: UNTOUCHED_1})
        assert [d.record.round_id for d in decisions] == [2]
        assert resolve_in_doubt(intents[:2], {}) == []

    def test_a_truncation_is_visible_to_later_rounds(self):
        """Two pending rounds at the same watermark see one tail record:
        the first undoes it, so the second must find nothing applied —
        never a second cut at a record that will no longer exist."""
        states = {0: _state((3, A0), (4, A1)), 1: UNTOUCHED_1}
        first, second = resolve_in_doubt([_intent(0), _intent(1)], states)
        assert (first.action, first.applied) == (TRUNCATE_ABORT, (0,))
        assert (second.action, second.applied) == (ABORT, ())
        # pure: the caller's evidence is untouched
        assert len(states[0].records) == 1


# -- the physical undo, through the FileSystem seam -------------------------------


class _RecordingHandle(FileHandle):
    def __init__(self, inner: FileHandle, ops: list):
        self._inner, self._ops = inner, ops

    def truncate(self, size: int) -> None:
        self._ops.append(("truncate", size))
        self._inner.truncate(size)

    def fsync(self) -> None:
        self._ops.append(("fsync",))
        self._inner.fsync()

    def close(self) -> None:
        self._ops.append(("close",))
        self._inner.close()


class _RecordingFileSystem(OsFileSystem):
    def __init__(self):
        self.ops: list = []

    def open(self, path: str, mode: str) -> FileHandle:
        self.ops.append(("open", path, mode))
        return _RecordingHandle(super().open(path, mode), self.ops)

    def fsync_dir(self, directory: str) -> None:
        self.ops.append(("fsync_dir", directory))
        super().fsync_dir(directory)


def _write_wal(directory: str, count: int = 3) -> None:
    wal = WriteAheadLog(directory, registry=MetricsRegistry())
    for seq in range(1, count + 1):
        wal.append(seq, 0x1000 + seq, b"batch-%d" % seq)
    wal.close()


class TestTruncateTailRecord:
    def test_cut_goes_through_the_filesystem_and_is_made_durable(self, tmp_path):
        directory = str(tmp_path)
        _write_wal(directory)
        (segment,) = list_segments(directory)
        before, _ = scan_wal(directory, registry=MetricsRegistry(), repair=False)
        fs = _RecordingFileSystem()
        truncate_tail_record(directory, 3, fs=fs)
        assert fs.ops == [
            ("open", segment, "ab"),
            ("truncate", before[2].offset),
            ("fsync",),
            ("close",),
            ("fsync_dir", directory),
        ]
        after, report = scan_wal(directory, registry=MetricsRegistry(), repair=False)
        assert [r.seq for r in after] == [1, 2]
        # a clean cut at a record boundary, not damage for a scan to repair
        assert report.status == "clean" and report.truncations == 0

    def test_refusing_disk_raises_typed_error(self, tmp_path):
        directory = str(tmp_path)
        _write_wal(directory)
        plan = FaultPlan(FsyncFailure(path_contains=".seg"))
        with pytest.raises(DurabilityError) as excinfo:
            truncate_tail_record(directory, 3, fs=FaultyFileSystem(plan, shard=0))
        assert excinfo.value.op == "truncate"
        assert [event.kind for event in plan.events] == ["fs-fsync-failure"]

    def test_unknown_sequence_raises_recovery_error(self, tmp_path):
        directory = str(tmp_path)
        _write_wal(directory)
        with pytest.raises(RecoveryError, match="seq 9 not found"):
            truncate_tail_record(directory, 9)


# -- reading a directory once ------------------------------------------------------


def _write_checkpoint(directory: str, seq: int) -> None:
    write_checkpoint(
        directory,
        seq=seq,
        digest=0x1000 + seq,
        rows={},
        provider_state=({}, 1, 0x1000 + seq, {}),
        next_txn_id=1,
        config={},
        group_modulus=35,
        group_generator=2,
        durability={},
        digest_log=[],
        registry=MetricsRegistry(),
    )


class TestReadDurableState:
    def test_tip_and_records_past_the_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        _write_checkpoint(directory, 1)
        _write_wal(directory)
        state = read_durable_state(directory, repair=False)
        assert state.checkpoint.seq == 1
        assert [r.seq for r in state.records] == [2, 3]
        assert state.tip == (3, 0x1003)
        _write_checkpoint(directory, 3)
        assert read_durable_state(directory, repair=False).tip == (3, 0x1003)

    def test_gap_between_checkpoint_and_wal_is_refused(self, tmp_path):
        directory = str(tmp_path)
        _write_checkpoint(directory, 0)
        wal = WriteAheadLog(directory, registry=MetricsRegistry())
        wal.append(2, 0x1002, b"orphan")
        wal.close()
        with pytest.raises(WalError, match="resumes at sequence 2"):
            read_durable_state(directory, repair=False)

    def test_only_a_repairing_read_repairs_and_reports(self, tmp_path):
        directory = str(tmp_path)
        _write_checkpoint(directory, 0)
        _write_wal(directory)
        (segment,) = list_segments(directory)
        with open(segment, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) - 3)  # tear the last record
        size = os.path.getsize(segment)
        registry = MetricsRegistry()
        state = read_durable_state(directory, repair=False, registry=registry)
        assert [r.seq for r in state.records] == [1, 2]
        assert state.scan.truncations == 1
        assert os.path.getsize(segment) == size
        assert registry.counter("wal.torn_tail_truncated").value == 0
        state = read_durable_state(directory, repair=True, registry=registry)
        assert [r.seq for r in state.records] == [1, 2]
        assert os.path.getsize(segment) < size
        assert registry.counter("wal.torn_tail_truncated").value == 1
