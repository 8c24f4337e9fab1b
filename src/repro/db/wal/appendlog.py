"""One append-only log file: open, write-failure rescue, fsync poisoning.

:class:`AppendLog` is the only code under ``repro.db.wal`` that opens a
log file for appending; :class:`~repro.db.wal.segments.WriteAheadLog` and
:class:`~repro.db.wal.intents.IntentJournal` each *hold* one, so the rule
"never append after bytes that did not finish writing" exists once.  All
I/O goes through a :class:`~repro.db.fsio.FileSystem`, so a seeded
:class:`~repro.db.fsio.FaultyFileSystem` can make the disk misbehave.
The failure semantics are fsyncgate-correct:

- a failed **write** never acknowledged anything, so the frame is
  re-attempted once, whole, in a clean place: the WAL's ``relocate`` hook
  opens the next segment (the torn bytes in the abandoned one are repaired
  by the next scan); by default — the journal's one file — the file is
  truncated back to its last *finished* byte and reopened.  If the rescue
  fails too the log raises :class:`~repro.errors.DurabilityError` — ENOSPC
  is "relocate or fail", never "pretend";
- a failed **fsync** permanently poisons the log: the kernel may have
  dropped the dirty pages and cleared the error, so retrying the fsync
  and trusting its success would acknowledge bytes that are gone.  The
  in-flight call raises :class:`~repro.errors.DurabilityError` (before
  any ticket resolves — see ``LitmusSession._finish_accepted``) and every
  later call re-raises it.  Recovery treats the never-synced tail as
  untrusted: it is torn/corrupt to the scanner and truncated away.

Metrics: ``storage.write_errors``, ``storage.fsync_failures``.
"""

from __future__ import annotations

import os
from typing import Callable

from ...errors import DurabilityError, WalError
from ...obs.metrics import MetricsRegistry
from ..fsio import FileSystem

__all__ = ["AppendLog", "repair_tail"]


def repair_tail(path: str, intact: int, fs: FileSystem) -> None:
    """The scanners' mirror of the write rule: cut *path* back to its first
    *intact* bytes (none: delete it) so nothing is read or appended past
    damage.  The caller fsyncs the directory once its repair pass is done."""
    if intact == 0:
        fs.unlink(path)
    else:
        fs.truncate(path, intact)


class AppendLog:
    """The open handle of one log file plus what its I/O failures mean."""

    def __init__(
        self,
        fs: FileSystem,
        registry: MetricsRegistry,
        *,
        fsync: bool,
        relocate: Callable[[], None] | None = None,
    ):
        self.fs = fs
        self.registry = registry
        self.fsync = fsync  # False: flush to the OS only, never fsync
        # Where a failed write is re-attempted; must leave the log open
        # (via create/reopen) somewhere no unfinished bytes precede.
        self._relocate = relocate if relocate is not None else self._rewind
        self._file = None
        self.path = ""
        self.finished = 0  # file size up to the last frame that finished writing
        self.poisoned: DurabilityError | None = None  # set once, never cleared

    def create(self, path: str, magic: bytes) -> None:
        """Start a new file: exclusive create, *magic*, made durable."""
        self.path = path
        self._file = self.fs.open(path, "xb")
        try:
            self._file.write(magic)
            self._file.flush()
        except OSError:
            self.close()  # the caller gets the error, not a handle to free
            raise
        self.finished = len(magic)
        if self.sync():
            self.fs.fsync_dir(os.path.dirname(path) or ".")

    def reopen(self, path: str, size: int) -> None:
        """Append onto an existing file whose scanned-and-repaired length
        is *size* — never onto bytes a scan has not vouched for."""
        self.path = path
        self._file = self.fs.open(path, "ab")
        self.finished = size

    def write(self, frame: bytes, prepare: Callable[[], None] | None = None) -> None:
        """Append one frame (written and flushed to the OS, not fsynced).

        *prepare* is an owner step the frame must follow (the WAL's size
        rotation); a write failure inside it is rescued like the frame's.
        """
        self._check_poisoned()
        if self._file is None:
            raise WalError(f"log {self.path} is closed")
        try:
            if prepare is not None:
                prepare()
            self._file.write(frame)
            self._file.flush()
        except OSError as cause:
            # EIO / ENOSPC / short write.  Nothing was acknowledged, so one
            # retry of the whole frame, past no unfinished bytes, is honest.
            self.registry.counter("storage.write_errors").inc()
            self.close()
            try:
                self._relocate()
                self._file.write(frame)
                self._file.flush()
            except OSError as exc:
                self._poison(
                    "write",
                    f"append failed ({cause}) and the rescue failed too "
                    f"({exc}); nowhere clean can take the frame",
                    exc,
                )
        self.finished += len(frame)

    def sync(self) -> bool:
        """fsync everything written so far; True when an fsync really ran
        (False for a no-fsync log or one already closed)."""
        self._check_poisoned()
        if self._file is None or not self.fsync:
            return False
        try:
            self._file.fsync()
        except OSError as exc:
            # fsyncgate: a second fsync would "succeed" without the bytes
            # ever reaching the platter, so there is no retry — only poison.
            self.registry.counter("storage.fsync_failures").inc()
            self._poison(
                "fsync",
                f"fsync failed on {self.path}: {exc}; the log is poisoned "
                "and its unsynced tail must not be trusted",
                exc,
            )
        return True

    def close(self) -> None:
        """Drop the handle without trusting it (no fsync, errors ignored);
        an owner sealing a healthy log calls :meth:`sync` first."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - close errors are moot here
                pass
            self._file = None

    def _check_poisoned(self) -> None:
        if self.poisoned is not None:
            raise DurabilityError(
                f"log is poisoned by an earlier durability failure: "
                f"{self.poisoned}",
                op=self.poisoned.op,
                path=self.poisoned.path,
            )

    def _poison(self, op: str, message: str, cause: OSError) -> None:
        """Latch the failure, drop the handle, raise — now and ever after."""
        self.poisoned = DurabilityError(message, op=op, path=self.path)
        self.close()
        raise self.poisoned from cause

    def _rewind(self) -> None:
        """The default clean place: this file, minus the unfinished bytes."""
        self.fs.truncate(self.path, self.finished)
        self.reopen(self.path, self.finished)
