"""Unit tests for the WAL substrate: records, segments, checkpoints.

The crash-recovery *integration* story lives in
``tests/integration/test_crash_recovery.py``; here each durability layer is
exercised in isolation — framing survives every truncation point, scans
repair instead of raise, checkpoints are atomic and fall back past rot.
"""

from __future__ import annotations

import os

import pytest

from repro.db.wal import (
    SEGMENT_MAGIC,
    WriteAheadLog,
    checkpoint_path,
    decode_records,
    encode_record,
    list_checkpoints,
    list_segments,
    load_latest_checkpoint,
    mirror_path,
    scan_wal,
    segment_records,
    select_checkpoint,
    write_checkpoint,
)
from repro.errors import CheckpointError, WalError
from repro.obs.metrics import MetricsRegistry


def _record_bytes(seq=1, digest=0xDEADBEEF, payload=b"LCL1-fake-batch"):
    return encode_record(seq, digest, payload)


class TestRecordFraming:
    def test_round_trip(self):
        data = b"".join(
            encode_record(seq, 1000 + seq, b"batch-%d" % seq) for seq in (1, 2, 3)
        )
        records, intact, status = decode_records(data)
        assert status == "clean"
        assert intact == len(data)
        assert [r.seq for r in records] == [1, 2, 3]
        assert [r.digest for r in records] == [1001, 1002, 1003]
        assert [r.command_log for r in records] == [b"batch-1", b"batch-2", b"batch-3"]
        assert records[0].offset == 0
        assert records[1].offset == records[0].end_offset

    def test_zero_digest_encodes(self):
        records, _intact, status = decode_records(encode_record(1, 0, b"x"))
        assert status == "clean" and records[0].digest == 0

    def test_big_digest_round_trips(self):
        digest = (1 << 512) - 12345
        records, _intact, _status = decode_records(encode_record(7, digest, b""))
        assert records[0].digest == digest

    def test_every_truncation_is_torn_or_corrupt_never_raises(self):
        data = _record_bytes() + _record_bytes(seq=2)
        for cut in range(len(data)):
            records, intact, status = decode_records(data[:cut])
            assert status in ("torn", "corrupt", "clean")
            if cut < len(_record_bytes()):
                assert records == [] and intact == 0
            # intact always points at a record boundary
            assert intact in (0, len(_record_bytes()))

    def test_bit_flip_is_corrupt(self):
        data = bytearray(_record_bytes())
        data[12] ^= 0x01  # inside the CRC-covered payload
        records, intact, status = decode_records(bytes(data))
        assert status == "corrupt" and records == [] and intact == 0

    def test_absurd_length_field_is_corrupt_not_a_wait(self):
        data = bytearray(_record_bytes())
        data[0] = 0xFF  # length explodes past MAX_RECORD_BYTES
        _records, _intact, status = decode_records(bytes(data))
        assert status == "corrupt"


class TestRecordVersioning:
    def test_scalar_digest_is_a_version_1_record(self):
        records, _intact, status = decode_records(encode_record(1, 77, b"log"))
        assert status == "clean"
        record = records[0]
        assert record.version == 1
        assert record.digest == 77 and record.digest_vector == (77,)

    def test_length_1_vector_stays_version_1(self):
        from repro.core.api import DigestVector

        records, _intact, _status = decode_records(
            encode_record(1, DigestVector.single(77), b"log")
        )
        # bit-identical to the historical scalar encoding
        assert records[0].version == 1 and records[0].digest == 77
        assert encode_record(1, DigestVector.single(77), b"log") == encode_record(
            1, 77, b"log"
        )

    def test_multi_shard_vector_round_trips_as_version_2(self):
        from repro.core.api import DigestVector

        vector = DigestVector(((1 << 512) - 3, 0, 42))
        records, _intact, status = decode_records(
            encode_record(5, vector, b"batch-log")
        )
        assert status == "clean"
        record = records[0]
        assert record.version == 2
        assert record.digest_vector == vector.shards
        # the combined scalar matches the DigestVector fold
        assert record.digest == int(vector)
        assert record.command_log == b"batch-log"

    def test_plain_sequence_encodes_as_vector(self):
        records, _intact, _status = decode_records(encode_record(2, [3, 4], b""))
        assert records[0].version == 2 and records[0].digest_vector == (3, 4)

    def test_unknown_version_is_corrupt_not_guessed_at(self):
        import struct
        import zlib

        payload = struct.pack(">QB", 1, 99) + b"future-format"
        data = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        records, intact, status = decode_records(data)
        assert status == "corrupt" and records == [] and intact == 0

    def test_zero_shard_vector_record_is_corrupt(self):
        import struct
        import zlib

        payload = struct.pack(">QB", 1, 2) + struct.pack(">H", 0)
        data = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        _records, _intact, status = decode_records(data)
        assert status == "corrupt"


class TestWriteAheadLog:
    def test_append_and_scan_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), registry=registry)
        for seq in (1, 2, 3):
            wal.append(seq, 100 + seq, b"batch-%d" % seq)
        wal.close()
        records, report = scan_wal(str(tmp_path), registry=registry)
        assert [r.seq for r in records] == [1, 2, 3]
        assert report.status == "clean" and report.truncations == 0
        assert registry.counter("wal.records").value == 3
        assert registry.counter("wal.fsyncs").value >= 3  # always policy

    def test_rotation_by_size(self, tmp_path):
        wal = WriteAheadLog(
            str(tmp_path), segment_max_bytes=64, registry=MetricsRegistry()
        )
        for seq in range(1, 6):
            wal.append(seq, seq, b"p" * 30)
        wal.close()
        assert len(list_segments(str(tmp_path))) > 1
        records, report = scan_wal(str(tmp_path))
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert report.status == "clean"

    def test_reopen_never_appends_to_old_segment(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), registry=MetricsRegistry())
        wal.append(1, 1, b"one")
        wal.close()
        first = list_segments(str(tmp_path))
        wal = WriteAheadLog(str(tmp_path), registry=MetricsRegistry())
        wal.append(2, 2, b"two")
        wal.close()
        segments = list_segments(str(tmp_path))
        assert len(segments) == 2 and segments[0] == first[0]
        records, _report = scan_wal(str(tmp_path))
        assert [r.seq for r in records] == [1, 2]

    def test_reset_retires_old_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), registry=MetricsRegistry())
        wal.append(1, 1, b"one")
        wal.reset()
        wal.append(2, 2, b"two")
        wal.close()
        assert len(list_segments(str(tmp_path))) == 1
        records, _report = scan_wal(str(tmp_path))
        assert [r.seq for r in records] == [2]

    def test_batch_policy_syncs_every_window(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            str(tmp_path), fsync="batch", sync_every=3, registry=registry
        )
        baseline = registry.counter("wal.fsyncs").value  # segment-open fsync
        for seq in range(1, 7):
            wal.append(seq, seq, b"x")
        assert registry.counter("wal.fsyncs").value == baseline + 2
        wal.close()

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(str(tmp_path), fsync="sometimes")


class TestScanRepair:
    def _write(self, tmp_path, count=3):
        wal = WriteAheadLog(str(tmp_path), registry=MetricsRegistry())
        for seq in range(1, count + 1):
            wal.append(seq, seq, b"batch-%d" % seq)
        wal.close()

    def test_torn_tail_is_truncated_in_place(self, tmp_path):
        self._write(tmp_path)
        registry = MetricsRegistry()
        path = list_segments(str(tmp_path))[0]
        records, _intact, _status = segment_records(path)
        with open(path, "r+b") as handle:
            handle.truncate(records[-1].offset + 5)  # mid-record
        kept, report = scan_wal(str(tmp_path), registry=registry)
        assert [r.seq for r in kept] == [1, 2]
        assert report.status == "torn" and report.truncations == 1
        assert registry.counter("wal.torn_tail_truncated").value == 1
        # repaired in place: a second scan is clean
        again, report2 = scan_wal(str(tmp_path), registry=registry)
        assert [r.seq for r in again] == [1, 2] and report2.status == "clean"

    def test_segments_past_damage_are_dropped(self, tmp_path):
        wal = WriteAheadLog(
            str(tmp_path), segment_max_bytes=64, registry=MetricsRegistry()
        )
        for seq in range(1, 6):
            wal.append(seq, seq, b"p" * 30)
        wal.close()
        segments = list_segments(str(tmp_path))
        assert len(segments) >= 3
        # corrupt the middle segment's payload
        victim = segments[1]
        with open(victim, "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC) + 10)
            byte = handle.read(1)
            handle.seek(len(SEGMENT_MAGIC) + 10)
            handle.write(bytes([byte[0] ^ 0x20]))
        kept, report = scan_wal(str(tmp_path))
        assert report.status == "corrupt"
        assert report.dropped_segments == len(segments) - 2
        assert [r.seq for r in kept] == list(range(1, kept[-1].seq + 1))
        assert set(list_segments(str(tmp_path))) <= set(segments[:2])

    def test_sequence_gap_truncates_even_with_valid_crcs(self, tmp_path):
        self._write(tmp_path, count=2)
        path = list_segments(str(tmp_path))[0]
        with open(path, "ab") as handle:
            handle.write(encode_record(9, 9, b"gap"))  # valid frame, wrong seq
        kept, report = scan_wal(str(tmp_path))
        assert [r.seq for r in kept] == [1, 2]
        assert report.status == "corrupt" and report.truncations == 1

    def test_mangled_magic_discards_the_file(self, tmp_path):
        self._write(tmp_path, count=1)
        path = list_segments(str(tmp_path))[0]
        with open(path, "r+b") as handle:
            handle.write(b"XXXX")
        kept, report = scan_wal(str(tmp_path))
        assert kept == [] and report.status == "corrupt"
        assert list_segments(str(tmp_path)) == []


def _write_ckpt(directory, seq=1, digest=42, rows=None, **overrides):
    kwargs = dict(
        seq=seq,
        digest=digest,
        rows=rows if rows is not None else {("acct", 0): 7},
        provider_state=({("acct", 0): 7}, 123456789, digest, {("acct", 0): (7, 3, 5)}),
        next_txn_id=5,
        config={"cc": "dr"},
        group_modulus=0xC5,
        group_generator=0x04,
        durability={"fsync": "always"},
        digest_log=[
            {
                "sequence": 0,
                "digest": hex(digest),
                "num_txns": 0,
                "entry_hash": "00" * 32,
            }
        ],
    )
    kwargs.update(overrides)
    return write_checkpoint(str(directory), **kwargs)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        path = _write_ckpt(tmp_path, seq=3, digest=99)
        loaded = load_latest_checkpoint(str(tmp_path))
        assert loaded.path == path
        assert loaded.seq == 3 and loaded.digest == 99
        assert loaded.rows == {("acct", 0): 7}
        assert loaded.provider_state == (
            {("acct", 0): 7}, 123456789, 99, {("acct", 0): (7, 3, 5)}
        )
        assert loaded.next_txn_id == 5
        assert loaded.group_modulus == 0xC5 and loaded.group_generator == 0x04
        assert loaded.durability == {"fsync": "always"}

    def test_newest_wins(self, tmp_path):
        _write_ckpt(tmp_path, seq=1, digest=1)
        _write_ckpt(tmp_path, seq=4, digest=4)
        assert load_latest_checkpoint(str(tmp_path)).seq == 4

    def test_bit_rot_falls_back_to_mirror_then_older(self, tmp_path):
        def _rot(path):
            with open(path, "r+b") as handle:
                handle.seek(30)
                byte = handle.read(1)
                handle.seek(30)
                handle.write(bytes([byte[0] ^ 0x01]))

        _write_ckpt(tmp_path, seq=1, digest=1)
        newest = _write_ckpt(tmp_path, seq=2, digest=2)
        # A rotted primary is covered by its byte-identical mirror twin.
        _rot(newest)
        selection = select_checkpoint(str(tmp_path))
        assert selection.checkpoint.seq == 2
        assert selection.used_mirror
        assert selection.loaded_path == mirror_path(newest)
        assert selection.rejected and "checkpoint-0000000000000002.ckpt" in (
            selection.rejected[0]
        )
        # Both copies rotted: fall back to the older checkpoint pair.
        _rot(mirror_path(newest))
        selection = select_checkpoint(str(tmp_path))
        assert selection.checkpoint.seq == 1
        assert not selection.used_mirror
        assert len(selection.rejected) == 2
        assert load_latest_checkpoint(str(tmp_path)).seq == 1

    def test_no_valid_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_latest_checkpoint(str(tmp_path))
        newest = _write_ckpt(tmp_path, seq=1)
        for path in (newest, mirror_path(newest)):
            with open(path, "w") as handle:
                handle.write("not json at all")
        with pytest.raises(CheckpointError):
            load_latest_checkpoint(str(tmp_path))

    def test_inconsistent_provider_digest_rejected(self, tmp_path):
        _write_ckpt(
            tmp_path, digest=5, provider_state=({("acct", 0): 7}, 1, 6, None)
        )
        with pytest.raises(CheckpointError):
            load_latest_checkpoint(str(tmp_path))

    def test_retention_window(self, tmp_path):
        for seq in range(1, 6):
            _write_ckpt(tmp_path, seq=seq, keep=2)
        kept = list_checkpoints(str(tmp_path))
        assert kept == [
            checkpoint_path(str(tmp_path), 5),
            checkpoint_path(str(tmp_path), 4),
        ]

    def test_stale_temps_are_garbage_collected(self, tmp_path):
        stale = os.path.join(str(tmp_path), "checkpoint-0000000000000009.ckpt.tmp")
        with open(stale, "w") as handle:
            handle.write("{}")
        _write_ckpt(tmp_path, seq=1)
        assert not os.path.exists(stale)
        # loaders never consider temp files
        assert load_latest_checkpoint(str(tmp_path)).seq == 1
