"""Atomic checkpoint files: the WAL's replay anchor.

A checkpoint journals everything a restarted deployment needs to resume
without replaying history from genesis:

- the KVStore snapshot (``rows``),
- the authenticated-dictionary provider state (store, exponent product,
  digest) — journaled so a checkpoint is a *complete* server image and so
  its self-consistency can be validated on load,
- each row's three category primes ``(key, value, relation)``
  (``provider.factors``), so recovery rolls the exponent product forward
  by the rows the WAL tail changed instead of re-hashing every row.  The
  field is additive under the same format tag: a checkpoint without it
  (written before it existed) loads with ``provider_factors`` None and
  recovers by a from-scratch rebuild, and a loader that predates it
  ignores it.  The primes are hints: recovery's digest cross-check binds
  their product, and the scrubber re-proves each one,
- the client's verified digest and its hash-chained :class:`DigestLog`,
- the deployment's :class:`~repro.core.config.LitmusConfig`, RSA group
  parameters, durability settings, and the next transaction id.

Write protocol (the atomicity story): serialize to ``<name>.tmp`` in the
same directory, ``fsync`` the temp file, then rename atomically onto the
final name and ``fsync`` the directory.  POSIX rename atomicity means a
reader sees either the whole new checkpoint or none of it — a crash
between the two steps leaves a ``.tmp`` file that loaders ignore and the
next writer garbage-collects.  A SHA-256 checksum over the canonical body
catches bit rot that rename atomicity cannot.

Every checkpoint also gets a **mirror** (``<name>.ckpt.mirror``), written
atomically right after the primary with the same temp-fsync-rename
protocol.  The mirror is byte-identical redundancy against at-rest rot:
loading falls back primary → mirror → older checkpoint, and the scrubber
(:mod:`repro.db.scrub`) repairs a rotted primary from its mirror (or
vice versa).  A mirror write failure is degraded redundancy, not a
durability failure — it is counted (``storage.mirror_write_failures``)
and survived, because the fsynced primary already anchors recovery.

Loading walks candidates newest-first and returns the first one that
validates; :func:`select_checkpoint` additionally reports *which* file
was loaded and which candidates were rejected and why, so recovery can
surface the fallback decision instead of taking it silently.

All I/O goes through a :class:`~repro.db.fsio.FileSystem` so the disk
fault injectors reach checkpoints too.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

from ...errors import CheckpointError, ReproError
from ...obs.metrics import MetricsRegistry, get_metrics
from ...serialization import encode
from ..fsio import OS_FILESYSTEM, FileSystem

__all__ = [
    "Checkpoint",
    "CheckpointSelection",
    "checkpoint_path",
    "list_checkpoints",
    "load_latest_checkpoint",
    "mirror_path",
    "select_checkpoint",
    "write_checkpoint",
]

_FORMAT = "litmus-wal-checkpoint-v1"
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{16})\.ckpt$")
MIRROR_SUFFIX = ".mirror"


@dataclass(frozen=True)
class Checkpoint:
    """One decoded checkpoint (see module docstring for field meanings)."""

    seq: int  # last batch sequence number the checkpoint covers
    digest: int  # client-verified digest at that point
    rows: dict  # KVStore contents, tuple keys
    provider_store: dict  # AD contents, tuple keys
    provider_product: int  # AD exponent product S
    provider_digest: int  # AD digest (must equal `digest`)
    next_txn_id: int
    config: dict  # LitmusConfig fields
    group_modulus: int
    group_generator: int
    durability: dict  # DurabilityConfig fields minus the directory
    digest_log: list  # DigestLog.to_records payload
    path: str = ""
    # AD per-row (key, value, relation) primes; None when not journaled
    provider_factors: dict | None = None

    @property
    def provider_state(self) -> tuple[dict, int, int, dict | None]:
        """The provider's ``(store, product, digest, factors)`` state."""
        factors = self.provider_factors
        return (
            dict(self.provider_store),
            self.provider_product,
            self.provider_digest,
            None if factors is None else dict(factors),
        )


@dataclass(frozen=True)
class CheckpointSelection:
    """Which checkpoint recovery anchored on, and what it passed over.

    - ``checkpoint`` — the validated winner;
    - ``loaded_path`` — the actual file read (a ``.ckpt`` primary, or its
      ``.ckpt.mirror`` when the primary was damaged);
    - ``used_mirror`` — True iff the winner came from a mirror;
    - ``rejected`` — every candidate file that failed validation before
      the winner, newest-first, as ``"name: reason"`` strings.  Empty on
      the happy path (the newest primary validated).
    """

    checkpoint: Checkpoint
    loaded_path: str
    used_mirror: bool
    rejected: tuple[str, ...]


def checkpoint_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"checkpoint-{seq:016d}.ckpt")


def mirror_path(primary: str) -> str:
    """The mirror twin of a checkpoint primary path."""
    return primary + MIRROR_SUFFIX


def list_checkpoints(directory: str, fs: FileSystem | None = None) -> list[str]:
    """Checkpoint files (no temps, no mirrors), newest sequence first."""
    fs = fs if fs is not None else OS_FILESYSTEM
    try:
        names = fs.listdir(directory)
    except FileNotFoundError:
        return []
    found = []
    for name in names:
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _seq, path in sorted(found, reverse=True)]


def _encode_key(key: tuple) -> list:
    for part in key:
        if not isinstance(part, (int, str)) or isinstance(part, bool):
            raise ReproError(
                f"checkpoints support int/str key parts, got {part!r}"
            )
    return list(key)


def _key_order(*mappings: Mapping[tuple, object]) -> list[tuple[tuple, list]]:
    """Every key of *mappings* with its JSON form, in canonical order."""
    keys = set().union(*mappings)
    return [(key, _encode_key(key)) for key in sorted(keys, key=encode)]


def _encode_rows(rows: Mapping[tuple, object], order: list[tuple[tuple, list]]) -> list:
    return [[encoded, rows[key]] for key, encoded in order if key in rows]


def _decode_rows(raw: list) -> dict:
    return {tuple(key): value for key, value in raw}


def _decode_factors(raw: list) -> dict:
    return {
        tuple(key): (int(key_p, 16), int(value_p, 16), int(relation_p, 16))
        for key, (key_p, value_p, relation_p) in raw
    }


def _canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _write_atomic(
    fs: FileSystem,
    directory: str,
    final: str,
    data: bytes | Iterable[bytes],
    fsync: bool,
    before_publish: Callable[[], None] | None = None,
) -> None:
    """temp → fsync → rename → fsync-dir; the one true publication dance.

    *data* is the file's bytes, or its chunks in order (a large file need
    not be held in memory whole).  *before_publish* runs once the temp
    file is durable and before the rename makes it visible.
    """
    temp = final + ".tmp"
    chunks = (data,) if isinstance(data, bytes) else data
    with fs.open(temp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        if fsync:
            handle.fsync()
    if before_publish is not None:
        before_publish()
    fs.replace(temp, final)
    if fsync:
        fs.fsync_dir(directory)


def write_checkpoint(
    directory: str,
    *,
    seq: int,
    digest: int,
    rows: Mapping[tuple, int],
    provider_state: tuple[dict, int, int, dict | None],
    next_txn_id: int,
    config: Mapping[str, object],
    group_modulus: int,
    group_generator: int,
    durability: Mapping[str, object],
    digest_log: list,
    fsync: bool = True,
    on_stage: Callable[[str], None] | None = None,
    keep: int = 2,
    fs: FileSystem | None = None,
    registry: MetricsRegistry | None = None,
) -> str:
    """Write one checkpoint (and its mirror) atomically; returns the path.

    *on_stage* is the durability fault hook: it fires with
    ``"after-checkpoint-temp"`` once the temp file is durable (before the
    rename) and ``"after-checkpoint"`` once the rename is — the two
    crash points the recovery story must survive.
    """
    fs = fs if fs is not None else OS_FILESYSTEM
    registry = registry if registry is not None else get_metrics()
    provider_store, provider_product, provider_digest, factors = provider_state
    order = _key_order(rows, provider_store, factors or {})
    provider = {
        "rows": _encode_rows(provider_store, order),
        "product": hex(provider_product),
        "digest": hex(provider_digest),
    }
    if factors is not None:
        provider["factors"] = _encode_rows(
            {key: [hex(prime) for prime in primes] for key, primes in factors.items()},
            order,
        )
    body = {
        "format": _FORMAT,
        "seq": seq,
        "digest": hex(digest),
        "rows": _encode_rows(rows, order),
        "provider": provider,
        "next_txn_id": next_txn_id,
        "config": dict(config),
        "group": {"modulus": hex(group_modulus), "generator": hex(group_generator)},
        "durability": dict(durability),
        "digest_log": digest_log,
    }
    body["checksum"] = hashlib.sha256(_canonical(body)).hexdigest()
    data = json.dumps(body).encode("utf-8")
    final = checkpoint_path(directory, seq)
    _write_atomic(
        fs,
        directory,
        final,
        data,
        fsync,
        before_publish=(
            None if on_stage is None else partial(on_stage, "after-checkpoint-temp")
        ),
    )
    if on_stage is not None:
        on_stage("after-checkpoint")
    # The mirror: byte-identical redundancy against at-rest rot, published
    # with the same atomic dance.  Failure here is degraded redundancy,
    # never a durability failure — the fsynced primary already anchors
    # recovery — so it is counted and survived, not raised.
    mirror = mirror_path(final)
    try:
        _write_atomic(fs, directory, mirror, data, fsync)
        registry.counter("storage.mirror_writes").inc()
    except OSError:
        registry.counter("storage.mirror_write_failures").inc()
        try:
            if fs.exists(mirror + ".tmp"):
                fs.unlink(mirror + ".tmp")
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    # Garbage-collect: stale temps from old crashes, checkpoints beyond
    # the retention window (the newest `keep` stay as rot fallbacks), and
    # mirrors whose primary is gone.
    temp = final + ".tmp"
    for name in fs.listdir(directory):
        path = os.path.join(directory, name)
        if name.endswith((".ckpt.tmp", MIRROR_SUFFIX + ".tmp")) and path != temp:
            fs.unlink(path)
    keepers = list_checkpoints(directory, fs)[: max(keep, 1)]
    for old in list_checkpoints(directory, fs)[max(keep, 1) :]:
        fs.unlink(old)
        if fs.exists(mirror_path(old)):
            fs.unlink(mirror_path(old))
    for name in fs.listdir(directory):
        if name.endswith(".ckpt" + MIRROR_SUFFIX):
            path = os.path.join(directory, name)
            if path[: -len(MIRROR_SUFFIX)] not in keepers and not fs.exists(
                path[: -len(MIRROR_SUFFIX)]
            ):
                fs.unlink(path)
    return final


def _load_one(path: str, fs: FileSystem | None = None) -> Checkpoint:
    fs = fs if fs is not None else OS_FILESYSTEM
    raw = json.loads(fs.read_bytes(path).decode("utf-8"))
    if not isinstance(raw, dict) or raw.get("format") != _FORMAT:
        raise CheckpointError(f"{path}: not a Litmus WAL checkpoint")
    body = dict(raw)
    recorded = body.pop("checksum", None)
    actual = hashlib.sha256(_canonical(body)).hexdigest()
    if recorded != actual:
        raise CheckpointError(f"{path}: checksum mismatch (bit rot or tampering)")
    provider = raw["provider"]
    checkpoint = Checkpoint(
        seq=raw["seq"],
        digest=int(raw["digest"], 16),
        rows=_decode_rows(raw["rows"]),
        provider_store=_decode_rows(provider["rows"]),
        provider_product=int(provider["product"], 16),
        provider_digest=int(provider["digest"], 16),
        next_txn_id=raw["next_txn_id"],
        config=dict(raw["config"]),
        group_modulus=int(raw["group"]["modulus"], 16),
        group_generator=int(raw["group"]["generator"], 16),
        durability=dict(raw["durability"]),
        digest_log=raw["digest_log"],
        path=path,
        provider_factors=(
            _decode_factors(provider["factors"]) if "factors" in provider else None
        ),
    )
    if checkpoint.provider_digest != checkpoint.digest:
        raise CheckpointError(
            f"{path}: journaled provider digest disagrees with the verified "
            "digest — the checkpoint is internally inconsistent"
        )
    return checkpoint


_LOAD_FAILURES = (CheckpointError, OSError, ValueError, KeyError, TypeError)


def select_checkpoint(
    directory: str, fs: FileSystem | None = None
) -> CheckpointSelection:
    """The newest checkpoint that validates, with the fallback trail.

    Candidates are walked newest-first; for each, the primary is tried
    before its mirror.  Invalid candidates (truncated JSON, checksum
    mismatch, foreign format) are collected into ``rejected`` rather than
    silently skipped.  Raises :class:`~repro.errors.CheckpointError` only
    when *nothing* — no primary, no mirror — validates.
    """
    fs = fs if fs is not None else OS_FILESYSTEM
    failures: list[str] = []
    for path in list_checkpoints(directory, fs):
        try:
            return CheckpointSelection(
                checkpoint=_load_one(path, fs),
                loaded_path=path,
                used_mirror=False,
                rejected=tuple(failures),
            )
        except _LOAD_FAILURES as exc:
            failures.append(f"{os.path.basename(path)}: {exc}")
        mirror = mirror_path(path)
        if fs.exists(mirror):
            try:
                return CheckpointSelection(
                    checkpoint=_load_one(mirror, fs),
                    loaded_path=mirror,
                    used_mirror=True,
                    rejected=tuple(failures),
                )
            except _LOAD_FAILURES as exc:
                failures.append(f"{os.path.basename(mirror)}: {exc}")
    detail = "; ".join(failures) if failures else "no checkpoint files present"
    raise CheckpointError(f"no valid checkpoint in {directory!r} ({detail})")


def load_latest_checkpoint(
    directory: str, fs: FileSystem | None = None
) -> Checkpoint:
    """The newest checkpoint that validates; raises :class:`CheckpointError`.

    Thin wrapper over :func:`select_checkpoint` for callers that do not
    need the fallback trail.
    """
    return select_checkpoint(directory, fs=fs).checkpoint
