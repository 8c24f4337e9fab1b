"""Crash-safe durability: on-disk WAL of verified command logs + checkpoints.

The paper's command-logging observation (Section 4: traces "as small as a
few bytes indicating the transaction order and their inputs") made durable.
Before this package, every recovery primitive — the server's rollback
snapshots, the session's ``resync()`` replay, the client's digest log —
lived in process memory and evaporated on exit; the D in "verifiable ACID"
was untested.  This package is the missing persistence spine:

- :mod:`~repro.db.wal.records` — CRC32-framed, length-prefixed records,
  each journaling one *client-verified* batch as ``(sequence, verified
  digest, LCL1 command log)``;
- :mod:`~repro.db.wal.appendlog` — the one appender both logs hold: opens a
  log file, tracks the last byte that finished writing, rescues a failed
  write in a clean place and poisons on a failed fsync;
- :mod:`~repro.db.wal.segments` — append-only segment files with rotation,
  a three-way fsync policy (``always`` / ``batch`` / ``never``), and a
  scan/repair reader that truncates torn or rotted tails instead of
  crashing;
- :mod:`~repro.db.wal.checkpoints` — atomic (temp-file-then-rename)
  checkpoint files carrying the KVStore snapshot, the authenticated
  -dictionary provider state, the client digest and its hash-chained log;
- :mod:`~repro.db.wal.generator_table` — the group generator's fixed-base
  table at the layout's root, which a cold recovery loads and checks
  instead of rebuilding;
- :mod:`~repro.db.wal.config` / :mod:`~repro.db.wal.manager` — the
  :class:`DurabilityConfig` knob-set and the :class:`DurabilityManager` a
  :class:`~repro.core.session.LitmusSession` drives.

The consumer-facing entry points are ``LitmusSession.create(...,
durability=DurabilityConfig(dir))`` — after which ``flush()`` only
acknowledges a batch once its record is durable — and
``LitmusSession.recover(dir, programs)``, which loads the newest valid
checkpoint, replays the WAL past it, and cross-checks the rebuilt
authenticated-dictionary digest against the journaled client digest
(:class:`~repro.errors.ServerDesyncError` on mismatch).
"""

from .checkpoints import (
    Checkpoint,
    CheckpointSelection,
    checkpoint_path,
    list_checkpoints,
    load_latest_checkpoint,
    mirror_path,
    select_checkpoint,
    write_checkpoint,
)
from .config import DurabilityConfig
from .generator_table import GENERATOR_TABLE_NAME, GeneratorTableFile
from .intents import (
    INTENT_JOURNAL_NAME,
    IntentJournal,
    IntentRecord,
    IntentScanReport,
    IntentTxn,
    list_shard_directories,
    shard_directory,
)
from .manager import DurabilityManager
from .records import (
    WalRecord,
    decode_frames,
    decode_records,
    encode_frame,
    encode_record,
)
from .segments import (
    SEGMENT_MAGIC,
    WalScanReport,
    WriteAheadLog,
    list_segments,
    scan_wal,
    segment_records,
)

__all__ = [
    "Checkpoint",
    "CheckpointSelection",
    "DurabilityConfig",
    "DurabilityManager",
    "GENERATOR_TABLE_NAME",
    "GeneratorTableFile",
    "INTENT_JOURNAL_NAME",
    "IntentJournal",
    "IntentRecord",
    "IntentScanReport",
    "IntentTxn",
    "SEGMENT_MAGIC",
    "WalRecord",
    "WalScanReport",
    "WriteAheadLog",
    "checkpoint_path",
    "decode_frames",
    "decode_records",
    "encode_frame",
    "encode_record",
    "list_checkpoints",
    "list_segments",
    "list_shard_directories",
    "load_latest_checkpoint",
    "mirror_path",
    "scan_wal",
    "select_checkpoint",
    "segment_records",
    "shard_directory",
    "write_checkpoint",
]
