"""Per-layer tracing from outside the program: wrap points, spans, self time.

``install()`` replaces each public entry point in ``WRAP_POINTS`` with a
timing wrapper, at class or module level, in whichever process calls it (the
load generator and the service child both do).  A wrapper appends one record
``(name, start, end, thread, value)`` to an in-memory list and nothing else;
records leave memory only when a phase ends.  Nothing under ``src/`` is
edited: spans inside the program are a later change.

The enclosing span of a record is derived afterwards, by interval
containment on its thread (``nest``).  The records of the program's own
``repro.obs.Tracer`` are adopted unchanged under an ``obs.`` prefix and nest
with the wrapper spans on the threads they share, so self times on one
thread add up to the time that thread had any span open.

``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one timeline for both
processes; ``run.py`` checks the child's clock against its own at start-up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

# (span name, module, class or None, public attribute)
WRAP_POINTS = (
    # load generator
    ("net.client.submit", "repro.net.client", "RemoteSession", "submit"),
    ("net.client.flush", "repro.net.client", "RemoteSession", "flush"),
    # both processes
    ("net.codec.encode_frame", "repro.net.codec", None, "encode_frame"),
    ("net.codec.decode_frame", "repro.net.codec", None, "decode_frame"),
    ("net.codec.send", "repro.net.codec", "Transport", "send"),
    # service child: session and router
    ("core.session.submit", "repro.core.session", "LitmusSession", "submit"),
    ("core.session.flush", "repro.core.session", "LitmusSession", "flush"),
    ("core.sharding.submit", "repro.core.sharding", "ShardedSession", "submit"),
    ("core.sharding.flush", "repro.core.sharding", "ShardedSession", "flush"),
    ("db.wal.intents.log_intent", "repro.db.wal.intents", "IntentJournal", "log_intent"),
    (
        "db.wal.intents.log_resolution",
        "repro.db.wal.intents",
        "IntentJournal",
        "log_resolution",
    ),
    # server
    ("core.server.execute_batch", "repro.core.server", "LitmusServer", "execute_batch"),
    ("core.server.rollback", "repro.core.server", "LitmusServer", "rollback"),
    ("db.database.run", "repro.db.database", "Database", "run"),
    ("db.kvstore.snapshot", "repro.db.kvstore", "KVStore", "snapshot"),
    ("crypto.authdict.state", "repro.crypto.authdict", "AuthenticatedDictionary", "state"),
    (
        "core.memory_integrity.certify_reads",
        "repro.core.memory_integrity",
        "MemoryIntegrityProvider",
        "certify_reads",
    ),
    (
        "core.memory_integrity.apply_writes",
        "repro.core.memory_integrity",
        "MemoryIntegrityProvider",
        "apply_writes",
    ),
    (
        "core.memory_integrity.certify_piece_poe",
        "repro.core.memory_integrity",
        "MemoryIntegrityProvider",
        "certify_piece_poe",
    ),
    # crypto kernel
    (
        "crypto.authdict.prove_lookup",
        "repro.crypto.authdict",
        "AuthenticatedDictionary",
        "prove_lookup",
    ),
    ("crypto.authdict.update", "repro.crypto.authdict", "AuthenticatedDictionary", "update"),
    ("crypto.primes.hash_to_prime", "repro.crypto.primes", None, "hash_to_prime"),
    ("crypto.rsa_group.power", "repro.crypto.rsa_group", "RSAGroup", "power"),
    ("crypto.poe.prove_poe_batch", "repro.crypto.poe", None, "prove_poe_batch"),
    ("crypto.poe.verify_poe_batch", "repro.crypto.poe", None, "verify_poe_batch"),
    ("vc.snark.setup", "repro.vc.snark", "Groth16Simulator", "setup"),
    ("vc.snark.prove", "repro.vc.snark", "Groth16Simulator", "prove"),
    ("vc.snark.verify", "repro.vc.snark", "Groth16Simulator", "verify"),
    # verifier
    ("core.client.verify_response", "repro.core.client", "LitmusClient", "verify_response"),
    (
        "core.memory_integrity.mem_check",
        "repro.core.memory_integrity",
        "MemoryIntegrityChecker",
        "mem_check",
    ),
    (
        "core.memory_integrity.mem_update",
        "repro.core.memory_integrity",
        "MemoryIntegrityChecker",
        "mem_update",
    ),
    # persistence
    ("db.commandlog.encode_batch", "repro.db.commandlog", None, "encode_batch"),
    ("db.wal.manager.log_batch", "repro.db.wal.manager", "DurabilityManager", "log_batch"),
    ("db.wal.manager.checkpoint", "repro.db.wal.manager", "DurabilityManager", "checkpoint"),
    ("db.wal.segments.append", "repro.db.wal.segments", "WriteAheadLog", "append"),
    ("db.wal.segments.sync", "repro.db.wal.segments", "WriteAheadLog", "sync"),
    # The OS-backed FileHandle is the one concrete class behind the public
    # FileHandle.write / fsync; its write returns the byte count, kept as
    # the record's value.
    ("db.fsio.write", "repro.db.fsio", "_OsFileHandle", "write"),
    ("db.fsio.fsync", "repro.db.fsio", "_OsFileHandle", "fsync"),
    # lifecycle
    ("crypto.authdict.build", "repro.crypto.authdict", "AuthenticatedDictionary", "__init__"),
    ("core.session.recover", "repro.core.session", "LitmusSession", "recover"),
    ("core.sharding.recover", "repro.core.sharding", "ShardedSession", "recover"),
    ("net.service.shutdown", "repro.net.service", "LitmusService", "shutdown"),
    ("core.session.close", "repro.core.session", "LitmusSession", "close"),
)

# Spans of the program's own Tracer that are adopted as ``obs.<name>``.
OBS_SPANS = (
    "batch",
    "execute",
    "certify_unit",
    "build_circuit",
    "prove_piece",
    "respond",
    "verify",
    "verify_piece",
)

# Spans that happen once per process, outside the steady phase; reported as
# run totals and not per flush.
LIFECYCLE_SPANS = (
    "crypto.authdict.build",
    "core.session.recover",
    "core.sharding.recover",
    "net.service.shutdown",
    "core.session.close",
)

SPAN_NAMES = tuple(w[0] for w in WRAP_POINTS) + tuple(f"obs.{n}" for n in OBS_SPANS)

_KEEP_VALUE = {"db.fsio.write"}


def _timed(name, fn, records):
    append, clock, thread = records.append, perf_counter, threading.current_thread
    keep_value = name in _KEEP_VALUE

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            value = fn(*args, **kwargs)
        except BaseException:
            append((name, start, clock(), thread(), None))
            raise
        append((name, start, clock(), thread(), value if keep_value else None))
        return value

    return wrapper


def install() -> list:
    """Wrap every entry point; returns the list the wrappers append to."""
    records: list = []
    for name, module_name, class_name, attr in WRAP_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(_timed(name, original.__func__, records))
        else:
            replacement = _timed(name, original, records)
        setattr(owner, attr, replacement)
        if class_name is None:
            # ``from .primes import hash_to_prime`` bound the original in the
            # importer's namespace; rebind those too.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro."):
                    if other.__dict__.get(attr) is original:
                        setattr(other, attr, replacement)
    return records


def drain(records: list, tracer=None) -> list[list]:
    """Empty *records* (and *tracer*) into JSON-ready rows.

    A row is ``[name, start, end, thread key, value]``.  Wrapper rows key the
    thread by name and ident; ``obs`` rows know only the name, and take the
    wrapper key when exactly one thread by that name made wrapper rows.
    """
    taken = records[:]
    del records[: len(taken)]
    rows = [
        [name, start, end, f"{thread.name}#{thread.ident}", value]
        for name, start, end, thread, value in taken
    ]
    if tracer is not None:
        keys_by_name: dict[str, set[str]] = {}
        for row in rows:
            keys_by_name.setdefault(row[3].rsplit("#", 1)[0], set()).add(row[3])
        for span in tracer.finished():
            if span.name in OBS_SPANS:
                keys = keys_by_name.get(span.thread, ())
                key = next(iter(keys)) if len(keys) == 1 else span.thread
                rows.append([f"obs.{span.name}", span.start, span.end, key, None])
        tracer.clear()
    return rows


def nest(rows: list[list]) -> list[int | None]:
    """For each row, the index of its enclosing span on the same thread."""
    by_thread: dict[str, list[int]] = {}
    for index, row in enumerate(rows):
        by_thread.setdefault(row[3], []).append(index)
    parents: list[int | None] = [None] * len(rows)
    for indexes in by_thread.values():
        # Outer spans first.  An inner span is recorded before the span that
        # encloses it, so on equal timestamps the later row is the outer one.
        indexes.sort(key=lambda i: (rows[i][1], -rows[i][2], -i))
        stack: list[int] = []
        for i in indexes:
            while stack and rows[stack[-1]][2] < rows[i][2]:
                stack.pop()
            if stack:
                parents[i] = stack[-1]
            stack.append(i)
    return parents


def self_times(rows: list[list], parents: list[int | None]) -> list[float]:
    """Each span's duration minus what its child spans cover.

    Children found by ``nest`` are on the parent's thread and do not overlap
    each other, so what they cover is the sum of their durations.
    """
    own = [row[2] - row[1] for row in rows]
    for index, parent in enumerate(parents):
        if parent is not None:
            own[parent] -= rows[index][2] - rows[index][1]
    return own


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total, edge = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total
