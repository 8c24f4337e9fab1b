"""The cross-shard intent journal: 2PC durability for the sharded router.

One file per sharded deployment (``xshard-intents.log`` in the *parent*
durability directory, next to the ``shard-NN/`` subdirectories) holding
CRC-framed JSON records — the same length + CRC32 framing the WAL batch
records use (:func:`repro.db.wal.records.encode_frame`), behind a 4-byte
``LXI1`` magic.  Three record types:

- ``intent`` — written *before* any participant shard flushes a
  cross-shard apply round.  Carries everything needed to re-drive or undo
  the round after a crash: the round id, the deployment's shard count, the
  per-transaction apply calls (user, original program name, fully resolved
  apply parameters including the ``__wN`` final values, and the write
  shards), and per-participant watermarks — the last journaled batch
  sequence and verified digest of every involved shard at the moment the
  intent was logged;
- ``commit`` — every participant accepted and durably journaled the apply
  batch;
- ``abort`` — the round was compensated (participants rolled back to
  their watermarks); carries the reason.

An intent with no matching resolution is **in doubt**:
:meth:`repro.core.sharding.ShardedSession.recover` scans this journal
before replaying the shards and resolves the round — roll forward when the
apply survived somewhere it cannot be undone, roll back otherwise — then
appends the missing resolution so a second recovery is a no-op.

Like the WAL, the scan never raises on damaged bytes: a torn or corrupt
tail is truncated away (``repair=True``) and reported, never an exception.
A record the coordinator crashed while writing is simply a round that
never started — no shard can hold its writes, because the durable intent
strictly precedes the fan-out.  That argument needs damage to be a *tail*:
a torn frame left mid-file would take every later intent with it when the
scan truncates.  So the appender (:class:`~repro.db.wal.appendlog.AppendLog`,
shared with the WAL segments) never appends after bytes that did not
finish writing — a failed write is rewound to the last finished byte and
re-attempted once, a second failure or a failed fsync poisons the journal
— and callers only ever see :class:`~repro.errors.DurabilityError`.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from ...errors import DurabilityError, WalError
from ...obs.metrics import MetricsRegistry, get_metrics
from ..fsio import OS_FILESYSTEM, FileSystem
from .appendlog import AppendLog, repair_tail
from .records import STATUS_CLEAN, decode_frames, encode_frame

__all__ = [
    "INTENT_JOURNAL_NAME",
    "IntentJournal",
    "IntentRecord",
    "IntentScanReport",
    "IntentTxn",
    "list_shard_directories",
    "shard_directory",
]

INTENT_JOURNAL_NAME = "xshard-intents.log"
# The one definition of the per-shard directory naming: writers build paths
# with shard_directory(), readers discover them with
# list_shard_directories().
_SHARD_DIR_RE = re.compile(r"^shard-(\d{2,})$")
JOURNAL_MAGIC = b"LXI1"  # Litmus cross(X)-shard Intents v1

STATE_PENDING = "pending"
STATE_COMMITTED = "committed"
STATE_ABORTED = "aborted"


def shard_directory(parent: str, index: int) -> str:
    """Shard *index*'s durability directory under the deployment's *parent*."""
    return os.path.join(parent, f"shard-{index:02d}")


def list_shard_directories(parent: str, fs: FileSystem | None = None) -> list[str]:
    """Every ``shard-NN`` subdirectory of *parent*, in shard-index order.

    An empty list means *parent* is not a sharded deployment — the test
    recovery, the scrubber and the CLI all use to tell the two layouts
    apart.  Contiguity is not checked here; recovery refuses a partial
    keyspace, the scrubber audits whatever survives.
    """
    fs = fs if fs is not None else OS_FILESYSTEM
    found = []
    for name in fs.listdir(parent):
        match = _SHARD_DIR_RE.match(name)
        path = os.path.join(parent, name)
        if match and os.path.isdir(path):
            found.append((int(match.group(1)), path))
    return [path for _index, path in sorted(found)]


@dataclass(frozen=True)
class IntentTxn:
    """One cross-shard transaction's journaled apply call."""

    txn_id: int
    user: str
    program: str  # the *original* program name; @apply is re-derived
    params: dict  # fully resolved apply parameters (incl. __wN values)
    shards: tuple[int, ...]  # the shards this txn's writes land on


@dataclass(frozen=True)
class IntentRecord:
    """One cross-shard round: intent plus (maybe) its resolution."""

    round_id: int
    num_shards: int
    txns: tuple[IntentTxn, ...]
    participants: tuple[int, ...]
    pre_seqs: dict  # shard -> last journaled batch seq at intent time
    pre_digests: dict  # shard -> verified digest at intent time
    state: str = STATE_PENDING
    reason: str = ""


@dataclass
class IntentScanReport:
    """What a journal scan found (and repaired)."""

    records: int = 0
    pending: int = 0
    status: str = STATUS_CLEAN
    truncated_bytes: int = 0
    details: list[str] = field(default_factory=list)


def _encode_intent(record: IntentRecord) -> bytes:
    return json.dumps(
        {
            "type": "intent",
            "round": record.round_id,
            "num_shards": record.num_shards,
            "participants": list(record.participants),
            "txns": [
                {
                    "txn_id": txn.txn_id,
                    "user": txn.user,
                    "program": txn.program,
                    "params": dict(txn.params),
                    "shards": list(txn.shards),
                }
                for txn in record.txns
            ],
            "pre_seqs": {str(k): v for k, v in record.pre_seqs.items()},
            "pre_digests": {
                str(k): hex(v) for k, v in record.pre_digests.items()
            },
        },
        sort_keys=True,
    ).encode("utf-8")


def _encode_resolution(round_id: int, state: str, reason: str) -> bytes:
    return json.dumps(
        {"type": state, "round": round_id, "reason": reason}, sort_keys=True
    ).encode("utf-8")


def _decode_payload(payload: bytes):
    """One journal payload as a dict; None on structural damage."""
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(body, dict) or "type" not in body or "round" not in body:
        return None
    return body


def _intent_from_body(body: dict) -> IntentRecord | None:
    try:
        return IntentRecord(
            round_id=int(body["round"]),
            num_shards=int(body["num_shards"]),
            participants=tuple(int(s) for s in body["participants"]),
            txns=tuple(
                IntentTxn(
                    txn_id=int(t["txn_id"]),
                    user=str(t["user"]),
                    program=str(t["program"]),
                    params={str(k): int(v) for k, v in t["params"].items()},
                    shards=tuple(int(s) for s in t["shards"]),
                )
                for t in body["txns"]
            ),
            pre_seqs={int(k): int(v) for k, v in body["pre_seqs"].items()},
            pre_digests={
                int(k): int(v, 16) for k, v in body["pre_digests"].items()
            },
        )
    except (KeyError, TypeError, ValueError):
        return None


class IntentJournal:
    """Appender + scanner over one deployment's cross-shard intent log."""

    def __init__(
        self,
        path: str,
        *,
        num_shards: int,
        fsync: bool = True,
        registry: MetricsRegistry | None = None,
        fs: FileSystem | None = None,
        records: list[IntentRecord] | None = None,
    ):
        """*records*, when given, are what a repairing :meth:`scan` of
        *path* just returned; the journal trusts them instead of scanning
        the file a second time."""
        if num_shards < 1:
            raise WalError("an intent journal needs a positive shard count")
        self.path = path
        self.num_shards = num_shards
        self.registry = registry if registry is not None else get_metrics()
        self.fs = fs if fs is not None else OS_FILESYSTEM
        # Reopening after a crash: truncate any torn/corrupt tail first so
        # appends never land after damaged bytes, then continue the round
        # id sequence past everything already journaled.
        if records is None:
            records, _report = self.scan(path, repair=True, fs=self.fs)
        self.next_round = max((r.round_id for r in records), default=-1) + 1
        self._pending: set[int] = {
            r.round_id for r in records if r.state == STATE_PENDING
        }
        # A failed write is rescued in place (AppendLog's default): the one
        # file is truncated back to its last finished byte and reopened.
        self._log = AppendLog(self.fs, self.registry, fsync=fsync)
        try:
            if self.fs.exists(path):
                self._log.reopen(path, self.fs.getsize(path))
            else:
                self._log.create(path, JOURNAL_MAGIC)
        except OSError as exc:
            raise DurabilityError(
                f"cannot open intent journal {path}: {exc}", op="write", path=path
            ) from exc

    # -- appending ---------------------------------------------------------------

    def begin_round(self) -> int:
        """Allocate the next round id (monotonic across restarts)."""
        round_id = self.next_round
        self.next_round += 1
        return round_id

    def log_intent(
        self,
        round_id: int,
        txns: tuple[IntentTxn, ...],
        participants: tuple[int, ...],
        pre_seqs: dict,
        pre_digests: dict,
    ) -> IntentRecord:
        """Durably record a round's intent *before* any shard flush."""
        record = IntentRecord(
            round_id=round_id,
            num_shards=self.num_shards,
            txns=txns,
            participants=tuple(sorted(participants)),
            pre_seqs=dict(pre_seqs),
            pre_digests=dict(pre_digests),
        )
        self._append(_encode_intent(record))
        self._pending.add(round_id)
        self.registry.counter("xshard.intents").inc()
        return record

    def log_resolution(self, round_id: int, state: str, reason: str = "") -> None:
        """Mark a round committed or aborted; idempotent per round."""
        if state not in (STATE_COMMITTED, STATE_ABORTED):
            raise WalError(f"unknown intent resolution state {state!r}")
        self._append(
            _encode_resolution(
                round_id,
                "commit" if state == STATE_COMMITTED else "abort",
                reason,
            )
        )
        self._pending.discard(round_id)

    @property
    def pending_rounds(self) -> tuple[int, ...]:
        return tuple(sorted(self._pending))

    def close(self) -> None:
        if self._log.poisoned is None:
            self._log.sync()
        self._log.close()

    def _append(self, payload: bytes) -> None:
        """One frame, durable before this returns — or a typed
        :class:`~repro.errors.DurabilityError` and a poisoned journal: the
        coordinator must abandon the deployment and recover, which
        truncates the untrusted tail and re-resolves any in-doubt round."""
        self._log.write(encode_frame(payload))
        self._log.sync()

    # -- scanning ----------------------------------------------------------------

    @staticmethod
    def scan(
        path: str, repair: bool = True, fs: FileSystem | None = None
    ) -> tuple[list[IntentRecord], IntentScanReport]:
        """Read every intact round back, newest resolution wins.

        Returns the rounds in intent order with their resolved states; a
        torn or corrupt tail ends the scan and (with ``repair=True``) is
        physically truncated away, mirroring :func:`scan_wal`.  A
        resolution whose intent was lost with the damaged tail is ignored.
        """
        fs = fs if fs is not None else OS_FILESYSTEM
        report = IntentScanReport()
        try:
            data = fs.read_bytes(path)
        except FileNotFoundError:
            return [], report
        if data[: len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
            # A foreign or mangled header: nothing is trustworthy, so the
            # intact prefix is empty and the repair discards the file.
            frames, intact, status = [], 0, "corrupt"
        else:
            frames, intact, status = decode_frames(
                data, offset=len(JOURNAL_MAGIC)
            )
        rounds: dict[int, IntentRecord] = {}
        for frame_offset, payload in frames:
            body = _decode_payload(payload)
            if body is None:
                status = "corrupt"
                intact = frame_offset
                break
            round_id = int(body["round"])
            if body["type"] == "intent":
                record = _intent_from_body(body)
                if record is None:
                    status = "corrupt"
                    intact = frame_offset
                    break
                rounds[round_id] = record
            elif body["type"] in ("commit", "abort"):
                existing = rounds.get(round_id)
                if existing is not None:
                    state = (
                        STATE_COMMITTED
                        if body["type"] == "commit"
                        else STATE_ABORTED
                    )
                    rounds[round_id] = IntentRecord(
                        round_id=existing.round_id,
                        num_shards=existing.num_shards,
                        txns=existing.txns,
                        participants=existing.participants,
                        pre_seqs=existing.pre_seqs,
                        pre_digests=existing.pre_digests,
                        state=state,
                        reason=str(body.get("reason", "")),
                    )
            else:
                status = "corrupt"
                intact = frame_offset
                break
        report.status = status
        if status != STATUS_CLEAN:
            report.truncated_bytes = len(data) - intact
            report.details.append(
                f"{os.path.basename(path)}: {status} tail truncated at byte "
                f"{intact} (was {len(data)})"
            )
            if repair:
                repair_tail(path, intact, fs)
                fs.fsync_dir(os.path.dirname(path) or ".")
        records = [rounds[k] for k in sorted(rounds)]
        report.records = len(records)
        report.pending = sum(1 for r in records if r.state == STATE_PENDING)
        return records, report
