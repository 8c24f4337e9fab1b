"""Pluggable filesystem layer for the durability stack (``repro.db.fsio``).

Every byte the WAL, checkpoint writer, and cross-shard intent journal put
on (or read off) disk flows through a :class:`FileSystem` — a deliberately
small interface over the dozen syscalls the durability code actually
uses.  Two implementations ship:

- :class:`OsFileSystem` — the real thing; thin pass-throughs to ``os`` and
  the builtin ``open``;
- :class:`FaultyFileSystem` — a seeded hostile disk.  It wraps any base
  filesystem and consults a :class:`~repro.faults.plan.FaultPlan` before
  each operation (``plan.on_fs(op, path, shard)``), so the same
  deterministic fault schedule that kills provers and crashes processes
  can also make the *disk* lie: EIO and ENOSPC on write, short writes,
  one-shot and sticky fsync failures, rename failures, and silent bit rot
  of the written bytes.

The fsync-failure model is deliberately pessimistic (the fsyncgate
lesson): when an injected fsync fails, the bytes appended since the last
*successful* fsync are physically thrown away — exactly what a kernel
that drops dirty pages and clears the error bit does to you.  A caller
that retried the fsync and believed its success would therefore lose
acknowledged data; the logs instead poison the handle and raise
:class:`~repro.errors.DurabilityError` (see
:mod:`repro.db.wal.appendlog`).

Directives an injector's ``on_fs`` hook may return (see
:mod:`repro.faults.disk`):

==================  =========================================================
directive           effect inside :class:`FaultyFileSystem`
==================  =========================================================
``("error", errno)``  the operation raises ``OSError(errno, ...)`` untouched
``("short", frac)``   a write persists only the first ``frac`` of the bytes,
                      then raises ``OSError(EIO)`` — a torn write
``("rot",)``          a write succeeds but one bit of the payload is flipped
                      on the way down — silent media corruption the CRC /
                      checksum layer must catch later
``("fsync-fail",)``   the fsync raises ``OSError(EIO)`` *and* the unsynced
                      tail is dropped (pessimistic page-cache loss)
==================  =========================================================
"""

from __future__ import annotations

import errno
import os
import random

__all__ = [
    "FaultyFileSystem",
    "FileHandle",
    "FileSystem",
    "OsFileSystem",
    "rot_file",
]


class FileHandle:
    """One open file of a :class:`FileSystem`; binary, append-oriented."""

    def write(self, data: bytes) -> int:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def fsync(self) -> None:
        raise NotImplementedError

    def truncate(self, size: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def path(self) -> str:
        raise NotImplementedError

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FileSystem:
    """The syscall surface of the durability stack.

    ``mode`` for :meth:`open` is one of ``"xb"`` (exclusive create — a new
    log file), ``"ab"`` (append — onto a scanned-and-repaired log file),
    ``"wb"`` (create or truncate — checkpoint temps).  Reads go through :meth:`read_bytes`;
    the durability code never holds a read handle open.
    """

    def open(self, path: str, mode: str) -> FileHandle:
        raise NotImplementedError

    def read_bytes(self, path: str) -> bytes:
        raise NotImplementedError

    def listdir(self, directory: str) -> list[str]:
        raise NotImplementedError

    def makedirs(self, path: str) -> None:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def getsize(self, path: str) -> int:
        raise NotImplementedError

    def unlink(self, path: str) -> None:
        raise NotImplementedError

    def replace(self, src: str, dst: str) -> None:
        raise NotImplementedError

    def truncate(self, path: str, size: int) -> None:
        raise NotImplementedError

    def fsync_dir(self, directory: str) -> None:
        raise NotImplementedError


class _OsFileHandle(FileHandle):
    def __init__(self, path: str, mode: str):
        self._path = path
        self._raw = open(path, mode)

    def write(self, data: bytes) -> int:
        return self._raw.write(data)

    def flush(self) -> None:
        self._raw.flush()

    def fsync(self) -> None:
        self._raw.flush()
        os.fsync(self._raw.fileno())

    def truncate(self, size: int) -> None:
        self._raw.truncate(size)

    def close(self) -> None:
        if not self._raw.closed:
            self._raw.close()

    @property
    def path(self) -> str:
        return self._path


class OsFileSystem(FileSystem):
    """The real filesystem: direct pass-throughs, no policy."""

    _MODES = ("xb", "ab", "wb")

    def open(self, path: str, mode: str) -> FileHandle:
        if mode not in self._MODES:
            raise ValueError(f"unsupported fsio mode {mode!r} (want {self._MODES})")
        return _OsFileHandle(path, mode)

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def listdir(self, directory: str) -> list[str]:
        return os.listdir(directory)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def getsize(self, path: str) -> int:
        return os.path.getsize(path)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def truncate(self, path: str, size: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(size)

    def fsync_dir(self, directory: str) -> None:
        """Make a rename/create/unlink in *directory* durable (POSIX)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # platforms without directory fds
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


# The process-default backend; module-level so every component that takes
# ``fs=None`` shares one stateless instance.
OS_FILESYSTEM = OsFileSystem()


def rot_file(path: str, position: int, mask: int = 0x20) -> None:
    """Physically flip one byte of *path* in place — at-rest bit rot.

    Used by the disk-fault injectors and the scrub tests; *position* is
    taken modulo the file size so callers can pass any seeded integer.
    ``mask`` must be non-zero (a zero mask would be a no-op "rot").
    """
    if not mask & 0xFF:
        raise ValueError("rot mask must flip at least one bit")
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        offset = position % size
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (mask & 0xFF)]))


class _FaultyFileHandle(FileHandle):
    """A handle whose writes and fsyncs can be made to lie on schedule."""

    def __init__(self, fs: "FaultyFileSystem", inner: FileHandle, size: int):
        self._fs = fs
        self._inner = inner
        self._size = size
        # Bytes known-durable: everything up to the last successful fsync.
        # An injected fsync failure truncates back to this watermark —
        # the pessimistic model of a kernel dropping dirty pages.
        self._synced = size

    def write(self, data: bytes) -> int:
        directive = self._fs._consult("write", self._inner.path)
        if directive is not None:
            action = directive[0]
            if action == "error":
                raise OSError(directive[1], os.strerror(directive[1]), self._inner.path)
            if action == "short":
                keep = max(1, min(len(data) - 1, int(len(data) * directive[1])))
                self._inner.write(data[:keep])
                self._inner.flush()
                self._size += keep
                raise OSError(
                    errno.EIO, "short write (injected)", self._inner.path
                )
            if action == "rot":
                position = self._fs._rng.randrange(len(data)) if data else 0
                bit = 1 << self._fs._rng.randrange(8)
                data = (
                    data[:position]
                    + bytes([data[position] ^ bit])
                    + data[position + 1 :]
                )
        written = self._inner.write(data)
        self._size += len(data)
        return written

    def flush(self) -> None:
        self._inner.flush()

    def fsync(self) -> None:
        directive = self._fs._consult("fsync", self._inner.path)
        if directive is not None and directive[0] == "fsync-fail":
            # Drop the unsynced tail *before* raising: a later reader must
            # not see bytes whose durability this fsync just disclaimed.
            self._inner.flush()
            self._inner.truncate(self._synced)
            self._size = self._synced
            raise OSError(
                errno.EIO, "fsync failed (injected)", self._inner.path
            )
        self._inner.fsync()
        self._synced = self._size

    def truncate(self, size: int) -> None:
        self._inner.truncate(size)
        self._size = size
        self._synced = min(self._synced, size)

    def close(self) -> None:
        self._inner.close()

    @property
    def path(self) -> str:
        return self._inner.path


class FaultyFileSystem(FileSystem):
    """A hostile disk: a base filesystem plus a fault plan's schedule.

    Consults ``plan.on_fs(op, path, shard)`` before every write, fsync,
    and rename; a plan with no disk injectors makes every consult a cheap
    no-op, so sessions wrap their filesystem unconditionally whenever a
    fault plan is attached.  *shard* tags which engine of a sharded
    deployment owns this filesystem view (``None`` for the coordinator /
    an unsharded session), letting injectors target a single shard's disk.
    """

    def __init__(self, plan, base: FileSystem | None = None, shard: int | None = None):
        self.plan = plan
        self.base = base if base is not None else OS_FILESYSTEM
        self.shard = shard
        # Rot positions must be deterministic but must not perturb the
        # plan's main stream (which times crashes): derive a private one.
        seed = getattr(plan, "seed", 0)
        lane = shard if shard is not None else -1
        self._rng = random.Random((seed * 2654435761 + lane) & 0xFFFFFFFF)

    def _consult(self, op: str, path: str):
        if self.plan is None:
            return None
        return self.plan.on_fs(op, path, shard=self.shard)

    def open(self, path: str, mode: str) -> FileHandle:
        directive = self._consult("open", path)
        if directive is not None and directive[0] == "error":
            raise OSError(directive[1], os.strerror(directive[1]), path)
        size = self.base.getsize(path) if mode == "ab" and self.base.exists(path) else 0
        return _FaultyFileHandle(self, self.base.open(path, mode), size)

    def read_bytes(self, path: str) -> bytes:
        return self.base.read_bytes(path)

    def listdir(self, directory: str) -> list[str]:
        return self.base.listdir(directory)

    def makedirs(self, path: str) -> None:
        self.base.makedirs(path)

    def exists(self, path: str) -> bool:
        return self.base.exists(path)

    def getsize(self, path: str) -> int:
        return self.base.getsize(path)

    def unlink(self, path: str) -> None:
        self.base.unlink(path)

    def replace(self, src: str, dst: str) -> None:
        directive = self._consult("replace", dst)
        if directive is not None and directive[0] == "error":
            raise OSError(directive[1], os.strerror(directive[1]), dst)
        self.base.replace(src, dst)

    def truncate(self, path: str, size: int) -> None:
        self.base.truncate(path, size)

    def fsync_dir(self, directory: str) -> None:
        self.base.fsync_dir(directory)
