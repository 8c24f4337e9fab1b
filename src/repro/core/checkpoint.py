"""Client-side digest checkpointing.

The client's entire trust anchor is one digest, so losing it means
re-agreeing on the database state out of band.  A :class:`DigestLog` is the
minimal durable artifact a client should persist: an append-only,
hash-chained history of verified digests.  Restarting from the last entry
resumes verification exactly where it stopped, and any tampering with the
stored log is detectable from its chained entry hashes (given the genesis
entry or any remembered entry hash).

This also operationalizes the paper's durability discussion (Section 9):
verifiable durability needs storage the client can check — the digest log
is that check for the client's own state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import VerificationFailure

__all__ = ["DigestLog", "LogEntry"]


@dataclass(frozen=True)
class LogEntry:
    """One verified batch: sequence number, digest, and chained entry hash."""

    sequence: int
    digest: int
    num_txns: int
    entry_hash: bytes

    @staticmethod
    def compute_hash(sequence: int, digest: int, num_txns: int, previous: bytes) -> bytes:
        return hashlib.sha256(
            b"litmus-digest-log"
            + sequence.to_bytes(8, "big")
            + digest.to_bytes((digest.bit_length() + 7) // 8 or 1, "big")
            + num_txns.to_bytes(8, "big")
            + previous
        ).digest()


class DigestLog:
    """Append-only hash-chained history of verified digests."""

    _GENESIS = hashlib.sha256(b"litmus-digest-log-genesis").digest()

    def __init__(self, initial_digest: int):
        self._entries: list[LogEntry] = []
        self._append(initial_digest, num_txns=0)

    def _append(self, digest: int, num_txns: int) -> LogEntry:
        sequence = len(self._entries)
        previous = self._entries[-1].entry_hash if self._entries else self._GENESIS
        entry = LogEntry(
            sequence=sequence,
            digest=digest,
            num_txns=num_txns,
            entry_hash=LogEntry.compute_hash(sequence, digest, num_txns, previous),
        )
        self._entries.append(entry)
        return entry

    # -- recording -------------------------------------------------------------

    def record(self, digest: int, num_txns: int) -> LogEntry:
        """Record a freshly verified batch's resulting digest."""
        return self._append(digest, num_txns)

    # -- accessors ---------------------------------------------------------------

    @property
    def latest_digest(self) -> int:
        return self._entries[-1].digest

    @property
    def latest_hash(self) -> bytes:
        return self._entries[-1].entry_hash

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[LogEntry, ...]:
        return tuple(self._entries)

    # -- integrity ----------------------------------------------------------------

    def verify_chain(self) -> None:
        """Recompute every entry hash; raise on any inconsistency."""
        previous = self._GENESIS
        for index, entry in enumerate(self._entries):
            if entry.sequence != index:
                raise VerificationFailure(f"log entry {index} has wrong sequence")
            expected = LogEntry.compute_hash(
                entry.sequence, entry.digest, entry.num_txns, previous
            )
            if expected != entry.entry_hash:
                raise VerificationFailure(f"log entry {index} hash mismatch")
            previous = entry.entry_hash

    # -- persistence -----------------------------------------------------------------

    def to_records(self) -> list[dict]:
        """The log as JSON-ready records: what a checkpoint embeds."""
        return [
            {
                "sequence": e.sequence,
                "digest": hex(e.digest),
                "num_txns": e.num_txns,
                "entry_hash": e.entry_hash.hex(),
            }
            for e in self._entries
        ]

    @classmethod
    def from_records(cls, raw: list) -> "DigestLog":
        """Load and integrity-check a log from its :meth:`to_records` form."""
        if not raw:
            raise VerificationFailure("empty digest log")
        log = cls.__new__(cls)
        log._entries = [
            LogEntry(
                sequence=item["sequence"],
                digest=int(item["digest"], 16),
                num_txns=item["num_txns"],
                entry_hash=bytes.fromhex(item["entry_hash"]),
            )
            for item in raw
        ]
        log.verify_chain()
        return log
