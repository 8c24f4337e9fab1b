"""The one recovery path: read a durability directory once, replay, cross-check.

The paper's recovery story is a single idea (Section 4 command logging,
Section 9 durability): replay the logged commands and accept the result
only if the rebuilt digest equals the one the client holds.  Everything
that recovers state — ``LitmusSession.recover``, ``LitmusSession.resync``,
``ShardedSession.recover`` — goes through the three pieces here, so the
sharded and unsharded engines cannot disagree about what an acknowledged
transaction means after a crash:

1. :func:`read_durable_state` — once per directory: the newest checkpoint
   that validates (checksum + internal consistency; rotted candidates
   fall back to the mirror, then to older ones), a WAL scan that
   *repairs* tail damage (a torn or bit-rotted suffix is truncated away,
   never raised), and the sequence-gap check between the two;
2. :func:`replay_and_rebuild` — base rows + the provider's
   ``(store, product, digest, factors)`` anchor taken with them + command
   logs → a fresh :class:`~repro.db.database.Database` replay → the
   exponent product ``S'``: the anchor's rolled forward by the net change
   through its journaled per-row primes (a read-only tail hashes
   nothing, a changed key two primes), or built from scratch when the
   anchor journaled no factors → one generator power, over the fixed-base
   table the caller loaded from ``generator.tbl`` (a hint: a table that
   makes the power miss is dropped and the power evaluated once more over
   one rebuilt from ``g``) → the digest cross-check against the
   client-verified tip, whichever branch ran → a server assembled by
   restoring the replayed rows and the rebuilt state;
3. :func:`resolve_in_doubt` — a pure function from the scanned cross-shard
   intent journal and the participants' durable states to one
   commit / abort / truncate-abort / roll-forward decision per in-doubt
   round, and :func:`truncate_tail_record`, the physical undo.

DESIGN.md §11.1 has the algorithm and the decision table in full.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..crypto.authdict import AuthenticatedDictionary
from ..crypto.rsa_group import RSAGroup
from ..db.commandlog import decode_batch
from ..db.database import Database
from ..db.fsio import OS_FILESYSTEM, FileSystem
from ..db.txn import Transaction
from ..db.wal import (
    INTENT_JOURNAL_NAME,
    Checkpoint,
    CheckpointSelection,
    GeneratorTableFile,
    IntentJournal,
    IntentRecord,
    WalRecord,
    WalScanReport,
    list_segments,
    list_shard_directories,
    scan_wal,
    segment_records,
    select_checkpoint,
    shard_directory,
)
from ..db.wal.intents import STATE_PENDING
from ..errors import (
    AnchorMismatchError,
    CryptoError,
    DurabilityError,
    RecoveryError,
    ServerDesyncError,
    VerificationFailure,
    WalError,
)
from ..obs.metrics import MetricsRegistry
from ..vc.program import Program
from .checkpoint import DigestLog
from .config import LitmusConfig
from .server import LitmusServer

__all__ = [
    "AccumulatorRebuild",
    "DurableState",
    "InDoubtDecision",
    "RecoveryReport",
    "XShardRecoveryReport",
    "as_program_map",
    "read_durable_state",
    "read_sharded_layout",
    "replay_and_rebuild",
    "resolve_in_doubt",
    "truncate_tail_record",
]

# The two ways recovery forms the accumulator.
ROLLED_FORWARD = "rolled-forward"
REBUILT = "rebuilt"

# The four ways an in-doubt cross-shard round resolves.
COMMIT = "commit"
ABORT = "abort"
TRUNCATE_ABORT = "truncate-abort"
ROLL_FORWARD = "roll-forward"


def as_program_map(
    programs: Iterable[Program] | Mapping[str, Program],
) -> Mapping[str, Program]:
    """The ``{name: program}`` registry replay decodes command logs against.

    A mapping is used as it is, so one that derives names as they are
    looked up (:class:`~repro.core.sharding.ApplyCompanions`) keeps doing
    so through replay.
    """
    if isinstance(programs, Mapping):
        return programs
    return {program.name: program for program in programs}


@dataclass(frozen=True)
class RecoveryReport:
    """What one ``LitmusSession.recover`` run found, replayed and repaired.

    - ``checkpoint_seq`` — batch sequence the loaded checkpoint covered;
    - ``replayed_batches`` — WAL records replayed past the checkpoint;
    - ``changed_keys`` — keys whose replayed value differs from the
      checkpoint's, dropped keys included: the net change ``C``;
    - ``accumulator_path`` — ``"rolled-forward"`` (the checkpoint's
      product moved by ``C`` through its journaled primes) or
      ``"rebuilt"`` (from scratch: the checkpoint journaled no primes);
    - ``primes_hashed`` — category primes the accumulator asked for:
      at most two per changed key and three per inserted key when rolled
      forward, three per row when rebuilt;
    - ``last_seq`` — the recovered tip of the durable history;
    - ``digest`` — the journaled client digest the rebuilt state matched;
    - ``truncations`` / ``truncated_bytes`` / ``dropped_segments`` — tail
      damage the scan repaired (torn writes, bit rot) instead of raising;
    - ``duration_seconds`` — wall-clock of the whole recovery;
    - ``checkpoint_path`` — the checkpoint file the recovery actually
      loaded (a ``.ckpt.mirror`` when the primary was rotted and the
      mirror saved the day);
    - ``checkpoint_from_mirror`` — True iff the loaded copy was a mirror;
    - ``checkpoint_rejected`` — ``"filename: reason"`` for every newer
      candidate (primary or mirror) that failed validation and was
      skipped on the way to the loaded one;
    - ``generator_table`` — where the generator's fixed-base table came
      from: ``"cached"`` (already in this process), ``"loaded"`` (from
      ``generator.tbl``) or ``"rebuilt: <reason>"`` — the file was
      missing, failed its ``checksum``, was for another ``group``, broke
      the ``chain`` of squarings, or gave a ``g^S'`` that failed the
      digest ``cross-check``.
    """

    checkpoint_seq: int
    replayed_batches: int
    last_seq: int
    digest: int
    truncations: int
    truncated_bytes: int
    dropped_segments: int
    duration_seconds: float
    checkpoint_path: str = ""
    checkpoint_from_mirror: bool = False
    checkpoint_rejected: tuple[str, ...] = ()
    changed_keys: int = 0
    accumulator_path: str = ""
    primes_hashed: int = 0
    generator_table: str = ""


@dataclass(frozen=True)
class AccumulatorRebuild:
    """How :func:`replay_and_rebuild` formed the accumulator: the
    :class:`RecoveryReport` fields of the same names."""

    path: str  # ROLLED_FORWARD | REBUILT
    changed_keys: int
    primes_hashed: int
    generator_table: str = ""


@dataclass(frozen=True)
class DurableState:
    """One durability directory, read once: the checkpoint recovery anchors
    on (with its fallback trail), the WAL records *past* it (sequence
    contiguous from ``checkpoint.seq + 1``), and what the scan found."""

    selection: CheckpointSelection
    records: tuple[WalRecord, ...]
    scan: WalScanReport

    @property
    def checkpoint(self) -> Checkpoint:
        return self.selection.checkpoint

    @property
    def tip(self) -> tuple[int, int]:
        """``(seq, digest)`` of the last durable batch."""
        last = self.records[-1] if self.records else self.checkpoint
        return last.seq, last.digest

    def group(self, supplied: RSAGroup | None = None) -> RSAGroup:
        """The RSA group the directory was written under: rebuilt from the
        journaled parameters, or *supplied* (which keeps the trapdoor
        speedup) once checked against them."""
        modulus = self.checkpoint.group_modulus
        generator = self.checkpoint.group_generator
        if supplied is None:
            return RSAGroup(modulus, generator)
        if (supplied.modulus, supplied.generator) != (modulus, generator):
            raise WalError(
                "supplied RSA group disagrees with the journaled parameters"
            )
        return supplied

    def digest_log(self) -> DigestLog:
        """The journaled hash-chained digest log, as of the checkpoint."""
        log = DigestLog.from_records(self.checkpoint.digest_log)
        if log.latest_digest != self.checkpoint.digest:
            raise VerificationFailure(
                "journaled digest log does not end at the checkpoint digest"
            )
        return log

    def report(
        self, digest: int, rebuild: AccumulatorRebuild, duration_seconds: float
    ) -> RecoveryReport:
        """The report of a recovery of this state that ended at *digest*
        after forming its accumulator as *rebuild* says."""
        return RecoveryReport(
            checkpoint_seq=self.checkpoint.seq,
            replayed_batches=len(self.records),
            last_seq=self.tip[0],
            digest=digest,
            truncations=self.scan.truncations,
            truncated_bytes=self.scan.truncated_bytes,
            dropped_segments=self.scan.dropped_segments,
            duration_seconds=duration_seconds,
            checkpoint_path=self.selection.loaded_path,
            checkpoint_from_mirror=self.selection.used_mirror,
            checkpoint_rejected=self.selection.rejected,
            changed_keys=rebuild.changed_keys,
            accumulator_path=rebuild.path,
            primes_hashed=rebuild.primes_hashed,
            generator_table=rebuild.generator_table,
        )


def read_durable_state(
    directory: str, *, repair: bool, registry: MetricsRegistry | None = None
) -> DurableState:
    """Load the newest valid checkpoint and the WAL records past it.

    ``repair=True`` physically truncates tail damage and counts it on
    *registry*; ``repair=False`` is a pure read that reports to a
    throwaway registry, because the repairing read that follows owns the
    repair and its reporting.  Raises
    :class:`~repro.errors.CheckpointError` when no checkpoint validates.
    """
    selection = select_checkpoint(directory)
    seq = selection.checkpoint.seq
    records, scan = scan_wal(
        directory, registry=registry if repair else MetricsRegistry(), repair=repair
    )
    replay = tuple(record for record in records if record.seq > seq)
    if replay and replay[0].seq != seq + 1:
        raise WalError(
            f"WAL resumes at sequence {replay[0].seq} but the newest "
            f"valid checkpoint covers up to {seq}; "
            "acknowledged batches in between are unrecoverable"
        )
    return DurableState(selection, replay, scan)


def replay_and_rebuild(
    base_rows: Mapping[tuple, int],
    anchor: tuple[Mapping[tuple, int], int, int, Mapping | None],
    command_logs: Sequence[bytes],
    programs: Mapping[str, Program],
    expected_digest: int,
    *,
    config: LitmusConfig,
    generator_table: GeneratorTableFile | None = None,
    **server_options,
) -> tuple[LitmusServer, list[list[Transaction]], AccumulatorRebuild]:
    """Re-derive a trusted server from *base_rows* plus verified history.

    *anchor* is the provider's ``(store, product, digest, factors)`` state
    taken with *base_rows*; *factors* is None for a checkpoint journaled
    without them.  A store that differs from *base_rows*, or factors whose
    keys differ from the store's, raise
    :class:`~repro.errors.AnchorMismatchError`.  Every command log is
    replayed through a fresh :class:`~repro.db.database.Database`
    (determinism of the CC algorithm makes the log sufficient), and the
    authenticated dictionary of the replayed contents rolls the anchor's
    product forward by the net change when the anchor has factors and is
    built from scratch otherwise (see
    :class:`~repro.crypto.authdict.AuthenticatedDictionary`).  The server
    is assembled from both; *server_options* (``group``, ``invariants``,
    ``tracer``, ...) go to :class:`~repro.core.server.LitmusServer` as
    they are.  Returns the server, the decoded batches and how the
    accumulator was formed.  Raises
    :class:`~repro.errors.ServerDesyncError` when the anchor's product is
    not divisible by the journaled primes the roll-forward divides out,
    or unless the rebuilt digest is *expected_digest*, the one the client
    last verified.  *generator_table* is the layout's table file, already
    loaded: when the digest misses over a table it loaded, that table is
    dropped and the digest formed once more over one rebuilt from ``g``,
    so only a second miss raises.
    """
    store, product, _digest, factors = anchor
    if store != base_rows:
        raise AnchorMismatchError(
            "the checkpoint's authenticated-dictionary rows disagree with "
            "its store rows; refusing to recover from a split anchor"
        )
    if factors is not None and factors.keys() != store.keys():
        raise AnchorMismatchError(
            "the checkpoint's journaled primes cover other keys than its "
            "authenticated-dictionary rows; refusing to recover from a "
            "split anchor"
        )
    database = Database(
        initial=base_rows,
        cc=config.cc,
        processing_batch_size=config.processing_batch_size,
        num_threads=config.num_db_threads,
    )
    batches = [decode_batch(log, programs) for log in command_logs]
    for txns in batches:
        database.run(txns)
    contents = database.snapshot()
    server = LitmusServer(config=config, **server_options)

    def accumulate() -> AuthenticatedDictionary:
        try:
            return AuthenticatedDictionary(
                server.group,
                contents,
                config.prime_bits,
                anchor=(store, product, factors),
            )
        except CryptoError as exc:
            raise ServerDesyncError(
                "the checkpoint's exponent product is not divisible by the "
                "journaled primes of the keys the replay changed; the anchor "
                f"is not the accumulator of its rows ({exc})"
            ) from exc

    dictionary = accumulate()
    # The digest cross-check: the AD digest is a pure function of the
    # contents, so the rebuilt digest matching the client-verified one
    # proves the re-derived state is exactly what the client last
    # acknowledged.  It is always recomputed as g^S'; the anchor's
    # journaled digest is never read, and its journaled primes reach
    # nothing but S'.  A table loaded from disk is a hint like those
    # primes: if g^S' over it misses, it may be the table that is wrong.
    if (
        dictionary.digest != expected_digest
        and generator_table is not None
        and generator_table.reject()
    ):
        dictionary = accumulate()
    if dictionary.digest != expected_digest:
        raise ServerDesyncError(
            "replaying the verified command log does not reproduce the "
            f"client-verified digest (got {dictionary.digest:#x}, expected "
            f"{expected_digest:#x}); the history has diverged from what "
            "the client acknowledged"
        )
    server.db.restore(contents)
    server.provider.restore(dictionary.state())
    return server, batches, AccumulatorRebuild(
        ROLLED_FORWARD if dictionary.rolled_forward else REBUILT,
        dictionary.changed_keys,
        dictionary.primes_hashed,
        "" if generator_table is None else generator_table.source,
    )


def read_sharded_layout(
    directory: str, fs: FileSystem | None = None
) -> tuple[list[str], list[IntentRecord]]:
    """The shard directories of *directory* and its scanned intent journal,
    read and repaired through *fs* (default: the real filesystem).

    The ``shard-NN`` count fixes S and must be the contiguous set
    ``0..S-1`` — a missing or renamed directory is a partial keyspace, and
    is refused *before* the journal scan repairs anything.  Every journaled
    round must have been written by an S-shard deployment.  Both failures
    raise :class:`~repro.errors.RecoveryError` naming the lost shard.
    """
    shard_dirs = list_shard_directories(directory)
    if not shard_dirs:
        raise RecoveryError(
            f"{directory!r} holds no shard-NN subdirectories; was this "
            "directory written by a ShardedSession?"
        )

    def names(first: int, last: int) -> list[str]:
        return [
            os.path.basename(shard_directory(directory, i))
            for i in range(first, last)
        ]

    found = [os.path.basename(path) for path in shard_dirs]
    expected = names(0, len(shard_dirs))
    if found != expected:
        missing = sorted(set(expected) - set(found))
        raise RecoveryError(
            f"shard directories {found} are not the contiguous set "
            f"{expected}; missing or renamed: {', '.join(missing)}; "
            "refusing to recover a partial keyspace"
        )
    intents, _scan = IntentJournal.scan(
        os.path.join(directory, INTENT_JOURNAL_NAME), repair=True, fs=fs
    )
    for record in intents:
        if record.num_shards != len(shard_dirs):
            lost = names(len(shard_dirs), record.num_shards)
            raise RecoveryError(
                f"intent journal round {record.round_id} was written by "
                f"a {record.num_shards}-shard deployment but "
                f"{directory!r} holds {len(shard_dirs)} shard directories"
                + (f"; missing: {', '.join(lost)}" if lost else "")
            )
    return shard_dirs, intents


@dataclass(frozen=True)
class InDoubtDecision:
    """How one in-doubt cross-shard round resolves.

    ``applied`` lists the participants whose durable tip holds the round's
    apply batch: the shards to truncate for ``truncate-abort``, the ones to
    skip for ``roll-forward``.
    """

    record: IntentRecord
    action: str  # COMMIT | ABORT | TRUNCATE_ABORT | ROLL_FORWARD
    applied: tuple[int, ...]
    reason: str


def resolve_in_doubt(
    intents: Sequence[IntentRecord], states: Mapping[int, DurableState]
) -> list[InDoubtDecision]:
    """Decide every pending round of *intents* from the durable evidence.

    *states* maps each participant shard of a pending round to its
    :class:`DurableState`.  Pure: nothing is read or written; rounds are
    decided in journal order, and a truncate-abort decision removes the
    tail record from this function's *view* of the shard, so a later
    pending round is judged against the state the truncation will leave.
    """
    live = {index: list(state.records) for index, state in states.items()}
    decisions = []
    for record in intents:
        if record.state != STATE_PENDING:
            continue
        # The round's apply batch, when it reached a shard's durability
        # barrier, is the record at ``pre_seq + 1`` — still a WAL record or
        # already consolidated into a checkpoint at that sequence.  A live
        # compensation rewrites the same-sequence checkpoint with the
        # *pre-round* digest, so "durably applied" is: the tip moved past
        # the watermark **and** its digest differs from the watermark's.
        # (An apply whose writes change nothing leaves the digest
        # unchanged; classifying it as not-applied is harmless because
        # both resolutions produce identical state.)
        applied = []
        for index in record.participants:
            last = live[index][-1] if live[index] else states[index].checkpoint
            if (
                last.seq > record.pre_seqs[index]
                and last.digest != record.pre_digests[index]
            ):
                applied.append(index)
        if len(applied) == len(record.participants):
            action = COMMIT
            reason = "in-doubt round found durably applied on every participant"
        elif not applied:
            action, reason = ABORT, "in-doubt round applied on no participant"
        elif all(
            # Partial apply.  Undo is preferred (the round was never
            # acknowledged), but only possible while every applied copy is
            # the *last* durable record and no checkpoint has consolidated
            # it — then cutting the segment at its offset is
            # indistinguishable from the crash having happened one write
            # earlier, which per-shard recovery absorbs natively.
            states[index].checkpoint.seq <= record.pre_seqs[index]
            and live[index]
            and live[index][-1].seq == record.pre_seqs[index] + 1
            for index in applied
        ):
            for index in applied:
                live[index].pop()
            action = TRUNCATE_ABORT
            reason = (
                "partial apply undone by truncating the WAL tail of "
                f"shard(s) {applied}"
            )
        else:
            action = ROLL_FORWARD
            reason = "partial apply rolled forward on the missing participants"
        decisions.append(InDoubtDecision(record, action, tuple(applied), reason))
    return decisions


def truncate_tail_record(
    directory: str, seq: int, fs: FileSystem | None = None
) -> None:
    """Physically drop the WAL tail record with sequence *seq*.

    The cut is made durable the way ``scan_wal``'s repair makes its own:
    truncate and fsync the segment, then fsync the directory.  A disk that
    refuses raises :class:`~repro.errors.DurabilityError` — recovery must
    not proceed as if an undo it could not persist had happened.
    """
    fs = fs if fs is not None else OS_FILESYSTEM
    for path in reversed(list_segments(directory, fs)):
        records, _intact, _status = segment_records(path, fs)
        target = next((r for r in records if r.seq == seq), None)
        if target is None:
            continue
        try:
            with fs.open(path, "ab") as handle:
                handle.truncate(target.offset)
                handle.fsync()
            fs.fsync_dir(directory)
        except OSError as exc:
            raise DurabilityError(
                f"cannot undo cross-shard apply: truncating {path} at "
                f"record seq {seq} failed: {exc}",
                op="truncate",
                path=path,
            ) from exc
        return
    raise RecoveryError(
        f"cannot undo cross-shard apply: record seq {seq} not found "
        f"in {directory!r}"
    )


@dataclass(frozen=True)
class XShardRecoveryReport:
    """What ``ShardedSession.recover`` found in the cross-shard intent journal.

    - ``rounds`` — intents scanned (resolved and pending);
    - ``in_doubt`` — rounds with no durable resolution at scan time;
    - ``committed`` — in-doubt rounds found durably applied on every
      participant (forward-completed with a ``commit`` record);
    - ``aborted`` — in-doubt rounds resolved by abort: applied nowhere, or
      undone by truncating the apply record off the applied WAL tails;
    - ``rolled_forward`` — in-doubt rounds whose apply survived somewhere
      beyond physical undo and was re-applied on the missing participants;
    - ``truncated_records`` — per-shard WAL records physically removed by
      abort resolutions.
    """

    rounds: int = 0
    in_doubt: int = 0
    committed: int = 0
    aborted: int = 0
    rolled_forward: int = 0
    truncated_records: int = 0

    @classmethod
    def summarize(
        cls, rounds: int, decisions: Sequence[InDoubtDecision]
    ) -> "XShardRecoveryReport":
        """Count *decisions* (one per in-doubt round) over *rounds* scanned."""
        actions = [decision.action for decision in decisions]
        return cls(
            rounds=rounds,
            in_doubt=len(decisions),
            committed=actions.count(COMMIT),
            aborted=actions.count(ABORT) + actions.count(TRUNCATE_ABORT),
            rolled_forward=actions.count(ROLL_FORWARD),
            truncated_records=sum(
                len(d.applied) for d in decisions if d.action == TRUNCATE_ABORT
            ),
        )
