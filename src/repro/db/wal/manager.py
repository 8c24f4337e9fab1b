"""The durability manager: what a session holds when persistence is on.

Owns the :class:`WriteAheadLog` and the checkpoint writer for one
durability directory, and threads the crash-point fault hook
(``FaultPlan.on_durability``) through every stage so the fault-injection
layer can kill the "process" at the exact boundaries that matter:

==========================  ================================================
stage                       meaning
==========================  ================================================
``before-log``              batch verified, nothing durable yet
``after-log``               record durable, acknowledgement not yet sent
``after-checkpoint-temp``   temp checkpoint durable, rename pending
``after-checkpoint``        rename durable, old segments not yet retired
==========================  ================================================

All file I/O flows through a :class:`~repro.db.fsio.FileSystem`; when a
fault plan is attached the manager wraps it in a
:class:`~repro.db.fsio.FaultyFileSystem` tagged with its shard, so the
plan's disk injectors (:mod:`repro.faults.disk`) reach exactly this
engine's writes, fsyncs, and renames.

Also the keeper of the acknowledged-batch invariant: ``log_batch`` runs
*before* ``flush()`` returns its accepted :class:`BatchResult`, so under
``fsync="always"`` an acknowledged batch is always recoverable — and when
the disk refuses (a failed fsync, an unrescuable write) the typed
:class:`~repro.errors.DurabilityError` escapes *before* any ticket
resolves.

When ``DurabilityConfig.scrub_interval > 0`` the manager also runs a
:class:`~repro.db.scrub.BackgroundScrubber` over its directory for the
lifetime of the log (see :mod:`repro.db.scrub`).
"""

from __future__ import annotations

import os

from ...obs.metrics import MetricsRegistry, get_metrics
from ..fsio import OS_FILESYSTEM, FaultyFileSystem, FileSystem
from .checkpoints import list_checkpoints, write_checkpoint
from .config import DurabilityConfig
from .segments import WriteAheadLog, list_segments

__all__ = ["DurabilityManager"]


class DurabilityManager:
    """One session's handle on its durability directory."""

    def __init__(
        self,
        config: DurabilityConfig,
        registry: MetricsRegistry | None = None,
        fault_plan=None,
        shard: int | None = None,
        fs: FileSystem | None = None,
    ):
        self.config = config
        self.registry = registry if registry is not None else get_metrics()
        self.fault_plan = fault_plan
        # Which shard of a sharded session this directory belongs to
        # (None = unsharded); forwarded to every durability fault hook so
        # CrashPoint(shard=...) and the disk injectors can target a single
        # engine.
        self.shard = shard
        base = fs if fs is not None else OS_FILESYSTEM
        self.fs: FileSystem = (
            FaultyFileSystem(fault_plan, base, shard=shard)
            if fault_plan is not None
            else base
        )
        self.fs.makedirs(config.directory)
        self.wal: WriteAheadLog | None = None
        self.scrubber = None
        self.last_seq = 0

    # -- lifecycle ---------------------------------------------------------------

    def has_existing_state(self) -> bool:
        """True when the directory already holds checkpoints or segments."""
        return bool(
            list_checkpoints(self.config.directory, self.fs)
            or list_segments(self.config.directory, self.fs)
        )

    def start(self, last_seq: int = 0) -> None:
        """Open the log for appending, continuing after *last_seq*.

        Stale ``.tmp`` checkpoint/mirror leftovers from an earlier crash
        are garbage-collected here; real checkpoints and segments are
        never touched (recovery owns those).
        """
        for name in self.fs.listdir(self.config.directory):
            if name.endswith((".ckpt.tmp", ".mirror.tmp")):
                self.fs.unlink(os.path.join(self.config.directory, name))
        self.last_seq = last_seq
        self.wal = WriteAheadLog(
            self.config.directory,
            fsync=self.config.fsync,
            segment_max_bytes=self.config.segment_max_bytes,
            sync_every=self.config.sync_every,
            registry=self.registry,
            fs=self.fs,
        )
        if self.config.scrub_interval > 0:
            from ..scrub import BackgroundScrubber

            self.scrubber = BackgroundScrubber(
                self.config.directory,
                self.config.scrub_interval,
                fs=self.fs,
                registry=self.registry,
                skip_fn=lambda: (
                    {self.wal.active_segment} if self.wal is not None else set()
                ),
            )
            self.scrubber.start()

    def close(self) -> None:
        if self.scrubber is not None:
            self.scrubber.stop()
            self.scrubber = None
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    # -- the two durable writes --------------------------------------------------

    def log_batch(self, seq: int, digest: int, command_log: bytes) -> None:
        """Journal one verified batch; returns only once it is as durable
        as the fsync policy promises (the pre-acknowledgement barrier).
        Raises :class:`~repro.errors.DurabilityError` when the disk could
        not honestly take it — before any acknowledgement escapes."""
        self._stage("before-log")
        self.wal.append(seq, digest, command_log)
        self.last_seq = seq
        self._stage("after-log")

    def checkpoint(
        self,
        *,
        seq: int,
        digest: int,
        rows,
        provider_state,
        next_txn_id: int,
        config,
        group_modulus: int,
        group_generator: int,
        digest_log: list,
    ) -> str:
        """Write an atomic checkpoint, then retire the covered segments."""
        path = write_checkpoint(
            self.config.directory,
            seq=seq,
            digest=digest,
            rows=rows,
            provider_state=provider_state,
            next_txn_id=next_txn_id,
            config=config,
            group_modulus=group_modulus,
            group_generator=group_generator,
            durability=self.config.settings(),
            digest_log=digest_log,
            fsync=self.config.fsync != "never",
            on_stage=self._stage,
            keep=self.config.checkpoint_keep,
            fs=self.fs,
            registry=self.registry,
        )
        # Only after the rename is durable may the WAL shrink: a crash
        # before this line leaves both the checkpoint and the old segments,
        # and recovery skips the doubly-covered records by sequence number.
        self.wal.reset()
        self.registry.counter("wal.checkpoints").inc()
        return path

    # -- fault hook --------------------------------------------------------------

    def _stage(self, name: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.on_durability(name, shard=self.shard)
