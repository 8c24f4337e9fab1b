"""The generator's fixed-base table, persisted: ``generator.tbl``.

Every digest is one power ``g^S`` of the group generator, and the table
``g^(2^(8·i))`` that makes that power cheap (see
:class:`~repro.crypto.multiexp.FixedBaseWindow`) depends only on the
public ``(N, g)``.  Building it costs 8 squarings per entry — at 512 rows
and 64-bit primes, 12,288 entries, most of a cold recovery.  So the table
is written once to the root of the durability layout (beside the shard
directories in a sharded one), and a cold recovery loads it instead of
rebuilding it.

Format (version 1), all integers big-endian::

    "LITMUSGT" | version u16 | width u16 | count u32 | N | g
    | entry[0] .. entry[count-1] | SHA-256 of everything before it

``N``, ``g`` and every entry are *width* bytes, ``width`` being the byte
length of ``N``.

The file is a hint, never trusted blindly.  A load rejects it unless the
checksum verifies, its ``(N, g)`` is the journaled group, ``entry[0] ==
g`` and 16 random links plus the last one satisfy ``entry[i]^256 ==
entry[i+1]``.  Recovery still recomputes ``g^S'`` and cross-checks it
against the client-verified digest; a loaded table that gives the wrong
answer is dropped and the power is evaluated again over a table rebuilt
from ``g``.  A missing, rejected or unwritable file costs the rebuild,
nothing else.  The scrubber (:mod:`repro.db.scrub`) checks every link.

Those checks catch rot and accidents, not a writer that lies on
purpose: an entry ``g^S'`` never reads, changed and re-checksummed,
passes the cross-check and, with probability about ``1 - 32/count``,
the sampled links.  A loaded table seeds the registry the whole process
shares, so a verifier in the server's process (``LitmusSession``'s own
client) evaluates its generator powers over it and sits inside the
server's trust domain, as it does for everything else in that process.
A verifier that does not trust the server must build its own table and
never read this file.

Writes go through :func:`~repro.db.wal.checkpoints._write_atomic` in
chunks, after the seq-0 checkpoint and again at a later checkpoint only
once the in-memory table has grown a quarter past what is on disk, so
inserts cost a logarithmic number of rewrites; a recovery extends a
loaded table that falls short.  A failed write is counted
(``storage.generator_table_write_failures``) and survived.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct
import threading
from typing import Iterator, Sequence

from ...crypto.backend import get_backend
from ...crypto.cache import (
    discard_generator_fixed_base,
    generator_fixed_base,
    peek_generator_fixed_base,
)
from ...crypto.multiexp import FixedBaseWindow
from ...errors import RecoveryError
from ...obs.metrics import MetricsRegistry, get_metrics
from ..fsio import OS_FILESYSTEM, FileSystem
from .checkpoints import _write_atomic

__all__ = [
    "GENERATOR_TABLE_NAME",
    "GeneratorTableFile",
    "generator_table_problem",
]

GENERATOR_TABLE_NAME = "generator.tbl"

_MAGIC = b"LITMUSGT"
_VERSION = 1
_HEADER = struct.Struct(">8sHHI")  # magic, version, width, entry count
_DIGEST_BYTES = hashlib.sha256().digest_size
# Entries serialized per write, so a large table is never held twice.
_CHUNK_ENTRIES = 1024
# Links a load re-derives at random, besides the last one.
_SAMPLED_LINKS = 16

CACHED = "cached"
LOADED = "loaded"

_LOADS = get_metrics().counter("recovery.generator_table_loads")
_REBUILDS = get_metrics().counter("recovery.generator_table_rebuilds")


class _Rejected(Exception):
    """A table file that fails one of the load checks; ``args[0]`` is the
    reason: ``checksum``, ``group`` or ``chain``."""


_PROBLEMS = {
    "checksum": "checksum mismatch or malformed table",
    "group": "table is for another RSA group",
    "chain": "an entry is not the square-chain of the generator",
}


def _encode(modulus: int, generator: int, powers: Sequence[int]) -> Iterator[bytes]:
    """The file's bytes, in chunks, with the checksum last."""
    width = (modulus.bit_length() + 7) // 8
    checksum = hashlib.sha256()
    header = (
        _HEADER.pack(_MAGIC, _VERSION, width, len(powers))
        + modulus.to_bytes(width, "big")
        + generator.to_bytes(width, "big")
    )
    checksum.update(header)
    yield header
    for start in range(0, len(powers), _CHUNK_ENTRIES):
        chunk = b"".join(
            int(power).to_bytes(width, "big")
            for power in powers[start : start + _CHUNK_ENTRIES]
        )
        checksum.update(chunk)
        yield chunk
    yield checksum.digest()


def _decode(data: bytes) -> tuple[int, int, list[int]]:
    """``(N, g, entries)`` of a table file; raises :class:`_Rejected`."""
    if len(data) < _HEADER.size + _DIGEST_BYTES:
        raise _Rejected("checksum")
    body = memoryview(data)[:-_DIGEST_BYTES]
    if hashlib.sha256(body).digest() != data[-_DIGEST_BYTES:]:
        raise _Rejected("checksum")
    magic, version, width, count = _HEADER.unpack_from(data)
    if (
        magic != _MAGIC
        or version != _VERSION
        or not width
        or not count
        or len(body) != _HEADER.size + (2 + count) * width
    ):
        raise _Rejected("checksum")
    start = _HEADER.size
    modulus = int.from_bytes(data[start : start + width], "big")
    generator = int.from_bytes(data[start + width : start + 2 * width], "big")
    if not 1 < generator < modulus:
        raise _Rejected("group")
    first = start + 2 * width
    powers = [
        int.from_bytes(data[offset : offset + width], "big")
        for offset in range(first, first + count * width, width)
    ]
    return modulus, generator, powers


def _check_links(modulus: int, generator: int, powers: Sequence[int], links) -> None:
    """Raise ``_Rejected("chain")`` unless ``entry[0] == g`` and every link
    ``i`` in *links* has ``entry[i]^256 == entry[i+1]``."""
    if powers[0] != generator:
        raise _Rejected("chain")
    powmod = get_backend().powmod
    for i in links:
        if powmod(powers[i], 256, modulus) != powers[i + 1]:
            raise _Rejected("chain")


def generator_table_problem(
    data: bytes, group: tuple[int, int] | None
) -> tuple[str, FixedBaseWindow | None]:
    """Check a table file in full: why it is bad, or ``("", window)``.

    Every link is re-derived, so this costs what building the table does;
    *group* is the journaled ``(N, g)`` when one is known.
    """
    try:
        modulus, generator, powers = _decode(data)
        if group is not None and (modulus, generator) != group:
            raise _Rejected("group")
        _check_links(modulus, generator, powers, range(len(powers) - 1))
    except _Rejected as exc:
        return _PROBLEMS[exc.args[0]], None
    return "", FixedBaseWindow(generator, modulus, powers)


class GeneratorTableFile:
    """``generator.tbl`` of one durability layout, and what is known of it.

    A layout's file holds one group's table: *group* binds it at
    construction, or the first :meth:`load` does (a sharded recovery
    learns the group from the shards' checkpoints).  One instance per
    layout: a sharded session shares its root's among the shards, so the
    file is loaded once and written by one writer at a time.  ``load``
    seeds the process's fixed-base registry; ``reject`` drops a loaded
    table the digest cross-check disproved; ``save`` writes the
    registry's table when it has grown a quarter past the file.
    """

    def __init__(
        self,
        directory: str,
        fs: FileSystem | None = None,
        *,
        group=None,
        fsync: bool = True,
        registry: MetricsRegistry | None = None,
    ):
        self.directory = directory
        self.path = os.path.join(directory, GENERATOR_TABLE_NAME)
        self.fs = fs if fs is not None else OS_FILESYSTEM
        self.fsync = fsync
        self.registry = registry if registry is not None else get_metrics()
        self._lock = threading.Lock()
        self._group: tuple[int, int] | None = (
            None if group is None else (group.modulus, group.generator)
        )
        self._on_disk = 0  # entries known to be in the file
        # Where the table came from ("" before load), and the window load
        # took from the file, while it is the registry's.
        self.source = ""
        self._loaded: FixedBaseWindow | None = None

    def load(self, group) -> str:
        """Make *group*'s table available before the accumulator is formed.

        A table the registry already holds is used as it is and the file
        is not read (``cached``).  Otherwise the file is read and checked,
        and a table that passes seeds the registry (``loaded``); a missing
        or rejected one leaves the registry to rebuild it from ``g``
        (``rebuilt: missing`` / ``checksum`` / ``group`` / ``chain``).
        Idempotent; raises :class:`~repro.errors.RecoveryError` for a
        group other than the layout's.
        """
        key = (group.modulus, group.generator)
        with self._lock:
            if self._group is None:
                self._group = key
            elif key != self._group:
                raise RecoveryError(
                    "a shard journals another RSA group than the rest of "
                    "its layout; the shards of one layout share one setup"
                )
            if not self.source:
                if peek_generator_fixed_base(*key) is not None:
                    self.source = CACHED
                else:
                    self.source = self._read(key)
            return self.source

    def _read(self, key: tuple[int, int]) -> str:
        try:
            data = self.fs.read_bytes(self.path)
        except OSError:
            return self._rebuilt("missing")
        try:
            modulus, generator, powers = _decode(data)
            if (modulus, generator) != key:
                raise _Rejected("group")
            spans = len(powers) - 1  # link i joins entry i to entry i+1
            links = random.SystemRandom().sample(
                range(spans), min(_SAMPLED_LINKS, spans)
            )
            _check_links(
                modulus, generator, powers, [*links, spans - 1] if spans else []
            )
        except _Rejected as exc:
            return self._rebuilt(exc.args[0])
        window = FixedBaseWindow(generator, modulus, powers)
        generator_fixed_base(modulus, generator, lambda: window)
        self._loaded = window
        self._on_disk = len(powers)
        _LOADS.inc()
        return LOADED

    def _rebuilt(self, reason: str) -> str:
        self._on_disk = 0
        _REBUILDS.inc()
        return f"rebuilt: {reason}"

    def reject(self) -> bool:
        """The digest cross-check failed: drop the table :meth:`load` took
        from the file, so the next power rebuilds it from ``g``.

        True iff the file's table was loaded (then the power is worth
        evaluating once more); idempotent, so every shard whose check ran
        over the same bad table gets True.
        """
        with self._lock:
            if self._loaded is None:
                return False
            if self.source == LOADED:
                discard_generator_fixed_base(*self._group, self._loaded)
                self.source = self._rebuilt("cross-check")
            return True

    def save(self) -> None:
        """Write the group's cached table if it has grown a quarter past
        the file (any table, when the file holds none).

        Best effort: a disk that refuses is counted and survived, since a
        missing table only costs the next recovery a rebuild.
        """
        if self._group is None:
            return
        window = peek_generator_fixed_base(*self._group)
        if not isinstance(window, FixedBaseWindow):
            return
        with self._lock:
            # Rows inserted since the last write (each adds three primes
            # to S', 24 entries at 64-bit primes) rewrite the file only
            # once the table is a quarter past it, so a growing table is
            # rewritten a logarithmic number of times, never builds ahead
            # on a flush, and a recovery rebuilds at most a fifth of it.
            if window.table_entries <= self._on_disk * 5 // 4:
                return
            powers = window.snapshot()
            try:
                _write_atomic(
                    self.fs,
                    self.directory,
                    self.path,
                    _encode(*self._group, powers),
                    self.fsync,
                )
            except OSError:
                self.registry.counter(
                    "storage.generator_table_write_failures"
                ).inc()
                try:
                    if self.fs.exists(self.path + ".tmp"):
                        self.fs.unlink(self.path + ".tmp")
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                return
            self._on_disk = len(powers)
            self.registry.counter("storage.generator_table_writes").inc()
