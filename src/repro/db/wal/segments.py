"""Append-only WAL segments: rotation, fsync policy, and crash-safe scans.

A durability directory holds numbered segment files (``wal-00000001.seg``,
...), each starting with the 4-byte magic ``LWS1`` followed by framed
records (:mod:`repro.db.wal.records`).  :class:`WriteAheadLog` appends;
:func:`scan_wal` reads everything intact back and *repairs* the tail —
truncating a torn or corrupt suffix in place instead of raising, which is
what lets ``LitmusSession.recover`` absorb a crash mid-write.

All I/O goes through a :class:`~repro.db.fsio.FileSystem`, and the active
segment is an :class:`~repro.db.wal.appendlog.AppendLog`, which owns the
fsyncgate-correct failure semantics (a failed write is re-attempted once,
whole — here in a freshly rotated segment; a failed fsync poisons the log
for good).

fsync policy (the durability/throughput dial):

- ``"always"`` — ``fsync`` after every append; an acknowledged batch is on
  the platter before ``flush()`` returns (the zero-loss setting);
- ``"batch"``  — ``fsync`` every ``sync_every`` appends and on rotation /
  checkpoint / close; bounds loss to the last sync window;
- ``"never"``  — only ``flush()`` to the OS; durability is whatever the
  page cache survives.  Fastest, and the right setting when a checkpoint
  or an outer store already provides durability.

Metrics: ``wal.records``, ``wal.bytes``, ``wal.fsyncs``, ``wal.rotations``
(counters) on every writer; ``wal.torn_tail_truncated`` when a scan had to
repair a tail; ``storage.rescue_rotations`` when a failed write moved the
log to a fresh segment (the disk-failure counters themselves are
:mod:`~repro.db.wal.appendlog`'s).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from ...errors import WalError
from ...obs.metrics import MetricsRegistry, get_metrics
from ..fsio import OS_FILESYSTEM, FileSystem
from .appendlog import AppendLog, repair_tail
from .records import (
    STATUS_CLEAN,
    WalRecord,
    decode_records,
    encode_record,
)

__all__ = [
    "SEGMENT_MAGIC",
    "WalScanReport",
    "WriteAheadLog",
    "list_segments",
    "scan_wal",
    "segment_records",
]

SEGMENT_MAGIC = b"LWS1"  # Litmus WAL Segment v1
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.seg$")

FSYNC_POLICIES = ("always", "batch", "never")

_STATUS_RANK = {STATUS_CLEAN: 0, "torn": 1, "corrupt": 2}


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.seg"


def list_segments(directory: str, fs: FileSystem | None = None) -> list[str]:
    """Absolute paths of every segment file, in index order."""
    fs = fs if fs is not None else OS_FILESYSTEM
    try:
        names = fs.listdir(directory)
    except FileNotFoundError:
        return []
    found = []
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _index, path in sorted(found)]


class WriteAheadLog:
    """Appender over a directory of rotated, CRC-framed segment files."""

    def __init__(
        self,
        directory: str,
        fsync: str = "always",
        segment_max_bytes: int = 1 << 20,
        sync_every: int = 8,
        registry: MetricsRegistry | None = None,
        fs: FileSystem | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise WalError(f"unknown fsync policy {fsync!r} (want {FSYNC_POLICIES})")
        if segment_max_bytes < len(SEGMENT_MAGIC) + 16:
            raise WalError("segment_max_bytes is too small to hold a record")
        if sync_every < 1:
            raise WalError("sync_every must be positive")
        self.directory = directory
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        self.sync_every = sync_every
        self.registry = registry if registry is not None else get_metrics()
        self.fs = fs if fs is not None else OS_FILESYSTEM
        self.fs.makedirs(directory)
        existing = list_segments(directory, self.fs)
        # Never append to a pre-existing segment: its tail may be torn from
        # a previous crash.  A fresh segment keeps old bytes immutable and
        # lets scan_wal repair them independently.
        self._index = (
            int(_SEGMENT_RE.match(os.path.basename(existing[-1])).group(1)) + 1
            if existing
            else 1
        )
        self._log = AppendLog(
            self.fs,
            self.registry,
            fsync=fsync != "never",
            relocate=self._next_segment,
        )
        self._start_segment()

    # -- appending ---------------------------------------------------------------

    def append(self, seq: int, digest: int, command_log: bytes) -> None:
        """Frame and append one verified batch; durable per the policy.

        Raises :class:`~repro.errors.DurabilityError` when the disk could
        not honestly take the record — and never acknowledges via a lying
        fsync (see :mod:`repro.db.wal.appendlog` for the exact failure
        semantics).
        """
        record = encode_record(seq, digest, command_log)
        size = self._log.finished
        full = (
            size + len(record) > self.segment_max_bytes
            and size > len(SEGMENT_MAGIC)
        )
        self._log.write(record, prepare=self.rotate if full else None)
        self.registry.counter("wal.records").inc()
        self.registry.counter("wal.bytes").inc(len(record))
        if self.fsync == "always":
            self._fsync()
        elif self.fsync == "batch":
            self._unsynced += 1
            if self._unsynced >= self.sync_every:
                self.sync()

    def sync(self) -> None:
        """Force everything appended so far onto stable storage."""
        self._fsync()

    def rotate(self) -> None:
        """Seal the active segment and start the next one."""
        self.sync()
        self._log.close()
        self._index += 1
        self._start_segment()
        self.registry.counter("wal.rotations").inc()

    def reset(self) -> None:
        """Start a fresh segment and delete every older one.

        Called right after a checkpoint rename is durable: every record so
        far is covered by the checkpoint, so the old segments are dead
        weight.  Crash-ordering note — the checkpoint *must* be renamed
        (and the rename fsynced) before this runs; a crash in between just
        leaves stale segments whose records recovery skips by sequence
        number.
        """
        current = self.active_segment
        self.rotate()
        for path in list_segments(self.directory, self.fs):
            if path != self.active_segment:
                self.fs.unlink(path)
        if self.fsync != "never":
            self.fs.fsync_dir(self.directory)
        # The pre-reset segment must be gone; guard against name races.
        if self.fs.exists(current):  # pragma: no cover - defensive
            raise WalError(f"failed to retire WAL segment {current}")

    def close(self) -> None:
        if not self.poisoned:
            self.sync()
        self._log.close()

    # -- internals ---------------------------------------------------------------

    @property
    def active_segment(self) -> str:
        return os.path.join(self.directory, _segment_name(self._index))

    @property
    def poisoned(self) -> bool:
        """True once a failed fsync (or failed rescue) killed this log."""
        return self._log.poisoned is not None

    def _start_segment(self) -> None:
        self._log.create(self.active_segment, SEGMENT_MAGIC)
        self._unsynced = 0
        if self._log.fsync:  # create() fsynced the magic
            self.registry.counter("wal.fsyncs").inc()

    def _next_segment(self) -> None:
        """Where a failed append is re-attempted: the next segment index
        (scan_wal repairs the abandoned segment's tail and keeps this one
        because its first record resumes the sequence chain)."""
        self._index += 1
        self._start_segment()
        self.registry.counter("storage.rescue_rotations").inc()
        self.registry.counter("wal.rotations").inc()

    def _fsync(self) -> None:
        # append() comes here, not through sync(): sync() is the explicit
        # barrier (rotate / checkpoint / close / the batch window).
        if self._log.sync():
            self._unsynced = 0
            self.registry.counter("wal.fsyncs").inc()


@dataclass
class WalScanReport:
    """What a recovery scan found (and repaired) in a durability directory."""

    segments: int = 0
    records: int = 0
    status: str = STATUS_CLEAN  # worst status seen: clean | torn | corrupt
    truncations: int = 0  # torn/corrupt tails truncated away
    truncated_bytes: int = 0
    dropped_segments: int = 0  # whole segments discarded past the damage
    resumed_segments: int = 0  # segments kept past damage (chain resumed)
    details: list[str] = field(default_factory=list)


def segment_records(
    path: str, fs: FileSystem | None = None
) -> tuple[list[WalRecord], int, str]:
    """Decode one segment file: ``(records, intact_bytes, status)``.

    A missing or mangled magic marks the whole file corrupt at offset 0.
    """
    fs = fs if fs is not None else OS_FILESYSTEM
    data = fs.read_bytes(path)
    if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        return [], 0, "corrupt"
    return decode_records(data, offset=len(SEGMENT_MAGIC))


def scan_wal(
    directory: str,
    registry: MetricsRegistry | None = None,
    repair: bool = True,
    fs: FileSystem | None = None,
) -> tuple[list[WalRecord], WalScanReport]:
    """Read every intact record back, repairing tail damage in place.

    Walks segments in index order, enforcing that batch sequence numbers
    increase by exactly one across the whole log.  A torn or corrupt
    record ends that segment: with ``repair=True`` (the recovery default)
    the damaged suffix is physically truncated away.  A *later* segment is
    kept only if its first record resumes the sequence chain exactly where
    the damage cut it — the shape a rescue rotation leaves behind (the
    failed record re-written whole in the next segment), where every
    surviving byte is still CRC-checked and seq-contiguous.  Any other
    later segment is unreachable past a broken chain and is deleted.
    Nothing here raises on bad bytes; damage becomes a smaller log plus a
    loud :class:`WalScanReport`, never an exception escaping recovery.
    """
    registry = registry if registry is not None else get_metrics()
    fs = fs if fs is not None else OS_FILESYSTEM
    report = WalScanReport()
    records: list[WalRecord] = []
    segments = list_segments(directory, fs)
    report.segments = len(segments)
    prev_seq: int | None = None
    damaged = False
    repaired_any = False
    for path in segments:
        segment_recs, intact, status = segment_records(path, fs)
        if damaged:
            first = segment_recs[0].seq if segment_recs else None
            if first is None or (prev_seq is not None and first != prev_seq + 1):
                report.dropped_segments += 1
                report.details.append(
                    f"{os.path.basename(path)}: unreachable past the damage"
                )
                if repair:
                    fs.unlink(path)
                    repaired_any = True
                continue
            report.resumed_segments += 1
            report.details.append(
                f"{os.path.basename(path)}: chain resumes at seq {first} "
                "past the damage (rescue rotation)"
            )
            damaged = False
        kept: list[WalRecord] = []
        for record in segment_recs:
            if prev_seq is not None and record.seq != prev_seq + 1:
                # A gap framing cannot see — e.g. bit rot inside a length
                # field that happened to re-frame cleanly.  Trust ends at
                # the last contiguous record.
                status = "corrupt"
                intact = record.offset
                break
            kept.append(record)
            prev_seq = record.seq
        records.extend(kept)
        if status == STATUS_CLEAN:
            continue
        # Damage: truncate this file at the last intact byte.  Whether any
        # later segment survives is decided above, by chain resumption.
        if _STATUS_RANK[status] > _STATUS_RANK[report.status]:
            report.status = status
        size = fs.getsize(path)
        report.truncations += 1
        report.truncated_bytes += size - intact
        report.details.append(
            f"{os.path.basename(path)}: {status} tail truncated at byte "
            f"{intact} (was {size})"
        )
        if repair:
            repair_tail(path, intact, fs)
            repaired_any = True
        registry.counter("wal.torn_tail_truncated").inc()
        damaged = True
    if repair and repaired_any:
        fs.fsync_dir(directory)
    report.records = len(records)
    return records, report
