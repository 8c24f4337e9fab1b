"""Disk-fault injectors: the hostile-storage half of the fault plan.

Where :mod:`repro.faults.durability` crashes the *process* at stage
boundaries, these injectors make the *disk* misbehave underneath a live
process.  They act on the ``on_fs`` hook (see
:class:`~repro.faults.plan.FaultInjector.on_fs`), which a
:class:`~repro.db.fsio.FaultyFileSystem` consults before every write,
fsync, and rename the durability stack performs.

Each injector targets by operation, by path substring (``".seg"`` hits
WAL segments, ``".ckpt"`` checkpoints, ``"intents"`` the cross-shard
journal, ``"generator.tbl"`` the generator's table; empty matches
everything), and optionally by shard — the same
targeting model :class:`~repro.faults.CrashPoint` uses.  Firing control
(``times`` / ``probability``) comes from the base class: ``times=1`` is a
one-shot fault, ``times=None`` a sticky one (every matching operation
fails until the injector is removed — the shape of a dying device).

What the durability layer guarantees under each fault is tabulated in
DESIGN.md §17; the short version: writes may be retried once in a clean
place (nothing was acknowledged), failed fsyncs may not be retried at
all (fsyncgate), and silent rot is caught by CRC/checksum at the next
read — never trusted.
"""

from __future__ import annotations

import errno

from .plan import FaultInjector, FaultPlan

__all__ = [
    "CheckpointRot",
    "DiskFull",
    "FsyncFailure",
    "GeneratorTableRot",
    "RenameFailure",
    "RotOnWrite",
    "ShortWrite",
    "WriteError",
]


class _DiskFault(FaultInjector):
    """Shared targeting: operation + path substring + optional shard."""

    op = "write"  # which fs operation the subclass intercepts

    def __init__(
        self,
        *,
        path_contains: str = "",
        shard: int | None = None,
        times: int | None = 1,
        probability: float = 1.0,
    ):
        super().__init__(times=times, probability=probability)
        self.path_contains = path_contains
        self.shard = shard

    def _directive(self, plan: FaultPlan) -> tuple:
        raise NotImplementedError

    def on_fs(
        self, plan: FaultPlan, op: str, path: str, shard: int | None = None
    ) -> tuple | None:
        if op != self.op:
            return None
        if self.shard is not None and shard != self.shard:
            return None
        if self.path_contains and self.path_contains not in path:
            return None
        if not self._take(plan):
            return None
        plan.record(self, "fs", f"{op} {path}")
        return self._directive(plan)


class WriteError(_DiskFault):
    """A write fails with EIO; no bytes reach the file.

    The WAL absorbs this with a rescue rotation — the record was never
    acknowledged, so re-writing it whole into a fresh segment is honest —
    and only raises :class:`~repro.errors.DurabilityError` if the rotation
    itself fails.
    """

    kind = "fs-write-eio"

    def _directive(self, plan: FaultPlan) -> tuple:
        return ("error", errno.EIO)


class DiskFull(_DiskFault):
    """A write fails with ENOSPC — the volume is (momentarily) full."""

    kind = "fs-enospc"

    def _directive(self, plan: FaultPlan) -> tuple:
        return ("error", errno.ENOSPC)


class ShortWrite(_DiskFault):
    """Only a prefix of the bytes lands before the write errors — a torn
    write at the filesystem layer.  ``fraction`` bounds how much survives."""

    kind = "fs-short-write"

    def __init__(self, fraction: float = 0.5, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 < fraction < 1.0:
            raise ValueError("short-write fraction must be in (0, 1)")
        self.fraction = fraction

    def _directive(self, plan: FaultPlan) -> tuple:
        return ("short", self.fraction)


class FsyncFailure(_DiskFault):
    """An fsync fails *and* the unsynced tail is lost (fsyncgate model).

    One-shot by default; pass ``times=None`` for a sticky failure — every
    later fsync on matching files fails too.  Either way the affected
    writer must treat the handle as poisoned: the
    :class:`~repro.db.fsio.FaultyFileSystem` has already dropped the
    bytes the failed fsync disclaimed, so retry-and-pretend would
    acknowledge data that is simply gone.
    """

    kind = "fs-fsync-failure"
    op = "fsync"

    def _directive(self, plan: FaultPlan) -> tuple:
        return ("fsync-fail",)


class RenameFailure(_DiskFault):
    """An atomic-replace rename fails with EIO; the target is untouched.

    Aimed at checkpoint publication: the ``.tmp`` stays, the previous
    checkpoint remains the newest valid one, and recovery replays more
    WAL — degraded, never wrong.
    """

    kind = "fs-rename-failure"
    op = "replace"

    def _directive(self, plan: FaultPlan) -> tuple:
        return ("error", errno.EIO)


class RotOnWrite(_DiskFault):
    """A write 'succeeds' but one bit flips on the way to the platter.

    Models silent media corruption at its origin.  Nothing notices at
    write time — that is the point — so the guarantee under test is that
    the CRC framing (segments, intent journal) or SHA-256 checksum
    (checkpoints) refuses the bytes at the next read, and the scrubber
    repairs or quarantines the file.
    """

    kind = "fs-rot-on-write"

    def _directive(self, plan: FaultPlan) -> tuple:
        return ("rot",)


class CheckpointRot:
    """At-rest bit rot of the newest checkpoint file in a directory.

    Not a :class:`~repro.faults.plan.FaultInjector` — like
    :class:`~repro.faults.durability.BitRotSegment` it is applied to a
    quiesced directory (post-crash, pre-recovery) by the nemesis harness
    or a test.  Flips one byte of the newest checkpoint *primary*;
    recovery must fall back to the mirror (or an older checkpoint), and a
    scrub must repair the primary from the mirror.
    """

    kind = "ckpt-rot"

    def __init__(self, position: int = 97, mask: int = 0x20):
        self.position = position
        self.mask = mask

    def apply(self, directory: str) -> str:
        """Rot the newest checkpoint in *directory*; returns its path."""
        from ..db.fsio import rot_file
        from ..db.wal.checkpoints import list_checkpoints
        from ..errors import WalError

        candidates = list_checkpoints(directory)
        if not candidates:
            raise WalError(f"no checkpoint to rot in {directory!r}")
        rot_file(candidates[0], self.position, self.mask)
        return candidates[0]


class GeneratorTableRot:
    """At-rest bit rot of a layout's ``generator.tbl``.

    Applied to a quiesced directory like :class:`CheckpointRot` — the
    unsharded directory, or a sharded layout's root.  The default
    position lands inside the table's entries.  Recovery must reject the
    file (its checksum), rebuild the table from ``g``, land on the
    acknowledged digest and report ``"rebuilt: checksum"``.
    """

    kind = "table-rot"

    def __init__(self, position: int = 4099, mask: int = 0x04):
        self.position = position
        self.mask = mask

    def apply(self, directory: str) -> str:
        """Rot the generator table in *directory*; returns its path."""
        import os

        from ..db.fsio import rot_file
        from ..db.wal.generator_table import GENERATOR_TABLE_NAME
        from ..errors import WalError

        path = os.path.join(directory, GENERATOR_TABLE_NAME)
        if not os.path.exists(path):
            raise WalError(f"no generator table to rot in {directory!r}")
        rot_file(path, self.position, self.mask)
        return path
