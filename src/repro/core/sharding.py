"""Sharded verification: S independently verified engines behind one session.

The unsharded :class:`~repro.core.session.LitmusSession` funnels every
transaction through one verification pipeline — one accumulator digest, one
WAL, one prover pool.  This module partitions the keyspace across *S* such
engines and puts a router in front:

- :class:`ShardMap` — the deterministic key → shard function (SHA-256 over
  a canonical type-tagged key encoding, so it is stable across processes
  and immune to ``PYTHONHASHSEED``);
- :class:`ShardedSession` — owns S per-shard ``LitmusSession``s, each with
  its own digest, prover pool, and WAL directory under
  ``<dir>/shard-NN/``.  ``digest`` is the S-component
  :class:`~repro.core.api.DigestVector`; ``flush`` fans out to the
  involved shards in parallel threads and merges the per-shard
  :class:`~repro.core.session.BatchResult`s; ``recover`` replays each
  shard's WAL independently (each shard cross-checks its own journaled
  digest).

Routing
-------

A transaction whose statically derived footprint (read keys ∪ write keys —
derivable before execution because write targets are functions of the
parameters only, the paper's Section 7.1 assumption) lands on one shard is
submitted to that shard's engine verbatim: full certified-read
verification, nothing new.

A **cross-shard** transaction goes through two phases:

1. **Reserve** — its write set is reserved across shards by
   :class:`~repro.db.detreserve.CrossShardReserver`: strictly rank-ordered
   acquisition in ascending shard order, with full release of shards
   ``< k`` when shard *k* conflicts, so no shard-order deadlock or
   blocked-by-a-loser starvation is possible.  Each reservation round's
   winners are mutually non-conflicting.
2. **Execute + apply** — the coordinator executes the program once,
   routing every read to the key's owner shard, and derives the final
   write set.  Each shard that owns a written key then receives a
   read-free *apply companion* holding only the write statements whose
   resolved key it owns, with the computed values as parameters
   (``<name>@apply[i,j]`` names the statements at write positions *i*
   and *j*; ``<name>@apply`` is the companion with every write, which a
   shard gets when it owns them all).  Each shard runs its companion
   through its full verified pipeline: executed, proven, client verified,
   and journaled in that shard's WAL.  Companions are pure functions of
   the registered program, so WAL replay at recovery derives each one
   from its name when it is looked up (:class:`ApplyCompanions`).

Atomic cross-shard commit
-------------------------

The apply fan-out is a two-phase commit with the coordinator's
**cross-shard intent journal** (:class:`~repro.db.wal.IntentJournal`,
``xshard-intents.log`` in the parent durability directory) as the
commit-decision log:

- **prepare** — before any shard flushes, the round's full apply plan
  (txn ids, apply parameters, participant shards) plus each participant's
  pre-round watermark (batch seq + verified digest) is made durable;
- **commit** — every participant accepted its apply batch: a ``commit``
  resolution is appended and the round is done;
- **compensate** — some participant rejected or errored while others
  accepted: the accepted shards are rolled back to their watermarks via
  :meth:`LitmusSession.compensate_last_batch` (server snapshot rollback +
  digest rewind + a same-sequence checkpoint rewrite), every transaction
  touching a failed-or-compensated shard is rejected (a transitive
  closure, because compensation is batch-granular), and an ``abort``
  resolution is appended;
- **in doubt** — a crash (:class:`~repro.errors.SimulatedCrash`) leaves
  the intent unresolved.  :meth:`ShardedSession.recover` scans the journal
  before shard replay and resolves each pending round from the durable
  evidence: applied everywhere → commit; applied nowhere → abort; applied
  somewhere → physically truncate the apply record off the applied WAL
  tails when possible (abort), otherwise re-apply the journaled writes on
  the missing participants (roll forward, then commit).  Aborted rounds
  are digest-checked against the journaled watermarks afterwards.

Trust model note: the per-shard *write application* is fully verified, but
the coordinator's cross-shard reads come from the owner shards' local
stores without per-read certificates — the cross-shard read path is
trusted-coordinator in this revision (DESIGN.md §14 spells out the gap and
the planned fix).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import threading
from time import perf_counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..crypto.rsa_group import RSAGroup
from ..db.detreserve import CrossShardPlan, CrossShardReserver
from ..db.wal import (
    INTENT_JOURNAL_NAME,
    IntentJournal,
    IntentRecord,
    IntentTxn,
    shard_directory,
)
from ..db.wal.config import DurabilityConfig
from ..db.wal.intents import STATE_PENDING
from ..errors import (
    DeadlineExceeded,
    DurabilityError,
    RecoveryError,
    ReproError,
    SimulatedCrash,
)
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.spans import Tracer, get_tracer
from ..vc.program import Param, Program, WriteStmt
from .api import DigestVector
from .config import LitmusConfig
from .recovery import (
    ABORT,
    COMMIT,
    ROLL_FORWARD,
    TRUNCATE_ABORT,
    XShardRecoveryReport,
    as_program_map,
    read_durable_state,
    read_sharded_layout,
    resolve_in_doubt,
    truncate_tail_record,
)
from .session import (
    BatchResult,
    LitmusSession,
    RetryPolicy,
    UserTicket,
    _filesystem_for,
    _frozen_mapping,
    _generator_table_file,
)

__all__ = [
    "ApplyCompanions",
    "ShardMap",
    "ShardedSession",
    "XShardRecoveryReport",
    "derive_apply_program",
    "is_apply_companion",
]

APPLY_SUFFIX = "@apply"
_APPLY_PARAM_PREFIX = "__w"
# Every name the companion derivation owns: ``<name>@apply`` and
# ``<name>@apply[i,j,...]``.
_COMPANION_NAME = re.compile(
    r"(?P<base>.*)@apply(?:\[(?P<indexes>\d+(?:,\d+)*)\])?", re.DOTALL
)
_SHARD_DOMAIN = b"litmus-shard-map-v1"


class ShardMap:
    """The deterministic key → shard function, shared by client and router.

    Keys are tuples mixing strings, ints and other atoms; each part is
    type-tagged and length-prefixed before hashing so ``("acct", 1)`` and
    ``("acct1",)`` can never collide, and the result is independent of the
    process's hash seed — the same property the command-log codec relies
    on for replay determinism.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ReproError("num_shards must be positive")
        self.num_shards = num_shards

    @staticmethod
    def _encode_part(part) -> bytes:
        if isinstance(part, bool):  # before int: bool is an int subclass
            return b"B" + (b"1" if part else b"0")
        if isinstance(part, int):
            return b"I" + str(part).encode("ascii")
        if isinstance(part, str):
            return b"S" + part.encode("utf-8")
        if isinstance(part, bytes):
            return b"Y" + part
        return b"R" + repr(part).encode("utf-8")

    def shard_of(self, key: tuple) -> int:
        if self.num_shards == 1:
            return 0
        hasher = hashlib.sha256(_SHARD_DOMAIN)
        parts = key if isinstance(key, tuple) else (key,)
        for part in parts:
            blob = self._encode_part(part)
            hasher.update(len(blob).to_bytes(4, "big"))
            hasher.update(blob)
        return int.from_bytes(hasher.digest()[:8], "big") % self.num_shards

    def shards_of(self, keys: Iterable[tuple]) -> set[int]:
        return {self.shard_of(key) for key in keys}

    def partition(self, rows: Mapping[tuple, int]) -> list[dict[tuple, int]]:
        """Split a row mapping into per-shard mappings (index = shard)."""
        parts: list[dict[tuple, int]] = [{} for _ in range(self.num_shards)]
        for key, value in rows.items():
            parts[self.shard_of(key)][key] = value
        return parts


def is_apply_companion(name: str) -> bool:
    """True for every name the apply-companion derivation owns.

    Companions are internal to the cross-shard path: a client that could
    submit one would write a shard's rows without reserve and execute.
    """
    return _COMPANION_NAME.fullmatch(name) is not None


def derive_apply_program(
    program: Program, indexes: Sequence[int] | None = None
) -> Program:
    """The read-free companion that applies *program*'s writes on a shard.

    Same write-key templates in statement order, each value replaced by a
    fresh parameter (``__w0``, ``__w1``, ...) the coordinator fills with
    the *final* computed value of that statement's key — so statements
    that write the same key all carry the same value and the application
    is idempotent per key.  *indexes* keeps only the write statements at
    those positions, and only their value parameters, under the name
    ``<name>@apply[i,j]``; it must be strictly ascending and name a
    non-empty proper subset, so every subset has one name.  ``None`` keeps
    every write, under ``<name>@apply``.  Pure function of the registered
    program, so recovery re-derives it by name when replaying a shard's WAL.
    """
    writes = program.write_statements()
    vparams = tuple(f"{_APPLY_PARAM_PREFIX}{i}" for i in range(len(writes)))
    taken = set(program.params) & set(vparams)
    if taken:
        raise ReproError(
            f"program {program.name!r} uses reserved parameter name(s) "
            f"{sorted(taken)}; {_APPLY_PARAM_PREFIX}* is reserved for "
            "cross-shard apply programs"
        )
    name = program.name + APPLY_SUFFIX
    if indexes is None:
        indexes = range(len(writes))
    else:
        indexes = tuple(indexes)
        if (
            not indexes
            or list(indexes) != sorted(set(indexes))
            or not set(indexes) < set(range(len(writes)))
        ):
            raise ReproError(
                f"write positions {list(indexes)} are not a strictly "
                f"ascending proper subset of {program.name!r}'s "
                f"{len(writes)} write statement(s)"
            )
        name += "[" + ",".join(str(i) for i in indexes) + "]"
    return Program(
        name=name,
        params=tuple(program.params) + tuple(vparams[i] for i in indexes),
        statements=tuple(
            WriteStmt(writes[i].key, Param(vparams[i])) for i in indexes
        ),
    )


class ApplyCompanions(Mapping):
    """A program registry that also answers every apply companion name.

    Iterates, and counts, only the registered programs.  A companion name
    is derived from its base program on first lookup and cached, so replay
    never enumerates the subsets a program's writes could split into, and
    WAL records written before subsets existed (``<name>@apply`` on every
    participant) replay as they always did.  *programs* is shared, not
    copied: programs registered later are visible.
    """

    def __init__(self, programs: dict[str, Program]):
        self.programs = programs
        self._derived: dict[tuple[str, tuple[int, ...] | None], Program] = {}

    def companion(
        self, program: Program, indexes: tuple[int, ...] | None = None
    ) -> Program:
        """*program*'s companion over the writes at *indexes* (None: all)."""
        # Shard recoveries look up concurrently without a lock: two threads
        # racing on one key each derive it, and the two programs are equal.
        key = (program.name, indexes)
        companion = self._derived.get(key)
        if companion is None:
            companion = self._derived[key] = derive_apply_program(program, indexes)
        return companion

    def __getitem__(self, name: str) -> Program:
        program = self.programs.get(name)
        if program is not None:
            return program
        match = _COMPANION_NAME.fullmatch(name)
        base = self.programs.get(match["base"]) if match else None
        if base is None:
            raise KeyError(name)
        indexes = match["indexes"]
        try:
            companion = self.companion(
                base,
                None if indexes is None else tuple(map(int, indexes.split(","))),
            )
        except ReproError as exc:
            raise KeyError(name) from exc
        if companion.name != name:  # a non-canonical spelling, e.g. "[01]"
            raise KeyError(name)
        return companion

    def __iter__(self) -> Iterator[str]:
        return iter(self.programs)

    def __len__(self) -> int:
        return len(self.programs)


class _PendingCall:
    """One submitted call waiting for the next fan-out flush."""

    __slots__ = ("ticket", "program", "params")

    def __init__(self, ticket: UserTicket, program: Program, params: dict):
        self.ticket = ticket
        self.program = program
        self.params = params


def _fan_out(
    work: Callable[[int], object], indexes: Sequence[int]
) -> tuple[dict, dict[int, BaseException]]:
    """Run ``work(i)`` for every shard index, one thread per shard.

    Never raises: returns ``(results, errors)`` keyed by shard index once
    every thread has finished, so the caller re-raises deterministically
    (lowest shard first) regardless of thread scheduling.
    """
    results: dict = {}
    errors: dict[int, BaseException] = {}

    def _one(index: int) -> None:
        try:
            results[index] = work(index)
        except BaseException as exc:  # noqa: BLE001 — re-raised by the caller
            errors[index] = exc

    if len(indexes) == 1:
        _one(indexes[0])
    else:
        threads = [
            threading.Thread(target=_one, args=(i,), daemon=True) for i in indexes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return results, errors


class ShardedSession:
    """S independently verified engines behind the one-session surface.

    Satisfies :class:`~repro.core.api.VerifiedSession` exactly like
    :class:`~repro.core.session.LitmusSession` does; the differences are
    behind the surface — ``digest`` has S components, ``flush`` runs the
    router, ``recover`` replays S WALs.
    """

    def __init__(
        self,
        shard_sessions: list[LitmusSession],
        shard_map: ShardMap,
        *,
        max_batch: int = 1024,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        intent_journal: IntentJournal | None = None,
    ):
        if not shard_sessions:
            raise ReproError("a ShardedSession needs at least one shard")
        if len(shard_sessions) != shard_map.num_shards:
            raise ReproError(
                f"shard map expects {shard_map.num_shards} shard(s) but "
                f"{len(shard_sessions)} session(s) were supplied"
            )
        if max_batch < 1:
            raise ReproError("batch capacity must be positive")
        self.shards = list(shard_sessions)
        self.shard_map = shard_map
        self.max_batch = max_batch
        self.tracer = tracer if tracer is not None else get_tracer()
        self.registry = registry if registry is not None else get_metrics()
        self.reserver = CrossShardReserver(
            shard_map.shard_of, registry=self.registry
        )
        self._next_id = max(s._next_id for s in self.shards)
        self._pending: list[_PendingCall] = []
        self.last_result: BatchResult | None = None
        # Aggregate program registry: what the service advertises.  Apply
        # companions are derived over it on demand and never enter it.
        self._programs: dict[str, Program] = {}
        for shard in self.shards:
            self._programs.update(shard._programs)
        self._companions = ApplyCompanions(self._programs)
        # The cross-shard intent journal (None without durability): every
        # cross-round's apply plan is made durable here before any shard
        # flushes it, which is what makes cross-shard atomicity survive a
        # coordinator crash.
        self._intents = intent_journal
        # recover() fills these: the per-shard RecoveryReports and the
        # cross-shard in-doubt resolution summary.
        self.recovery_reports = None
        self.xshard_report: XShardRecoveryReport | None = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        initial: Mapping[tuple, int] | None = None,
        config: LitmusConfig | None = None,
        *,
        num_shards: int = 2,
        group: RSAGroup | None = None,
        invariants: tuple = (),
        max_batch: int = 1024,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        checkpoint_every: int = 64,
        durability: DurabilityConfig | None = None,
    ) -> "ShardedSession":
        """Build S fresh engines over a partitioned keyspace.

        *durability.directory* (when given) is the parent: shard *i*
        journals under ``<directory>/shard-NN/`` with the same fsync /
        segment / checkpoint settings.  *group* is shared across shards
        (one trusted setup); each shard's accumulator covers only its own
        partition.  Per-shard invariants see only that shard's rows, so
        only shard-local invariants belong here.  The generator's
        fixed-base table is written once, to ``<directory>/generator.tbl``,
        after every shard's seq-0 checkpoint.
        """
        shard_map = ShardMap(num_shards)
        tracer = tracer if tracer is not None else get_tracer()
        parts = shard_map.partition(dict(initial or {}))
        if group is None:
            group = RSAGroup.generate(bits=512, seed=b"litmus-sharded")
        sessions = []
        intent_journal = None
        table = None
        if durability is not None:
            table = _generator_table_file(
                durability.directory,
                durability.fsync,
                fault_plan,
                registry,
                group=group,
            )
        try:
            for index in range(num_shards):
                shard_durability = None
                if durability is not None:
                    shard_durability = DurabilityConfig(
                        directory=shard_directory(durability.directory, index),
                        **durability.settings(),
                    )
                sessions.append(
                    LitmusSession.create(
                        initial=parts[index],
                        config=config,
                        group=group,
                        invariants=invariants,
                        max_batch=max_batch,
                        tracer=tracer,
                        registry=registry,
                        retry_policy=retry_policy,
                        fault_plan=fault_plan,
                        checkpoint_every=checkpoint_every,
                        durability=shard_durability,
                        shard_index=index,
                        generator_table=table,
                    )
                )
            if durability is not None:
                os.makedirs(durability.directory, exist_ok=True)
                intent_journal = IntentJournal(
                    os.path.join(durability.directory, INTENT_JOURNAL_NAME),
                    num_shards=num_shards,
                    fsync=durability.fsync != "never",
                    registry=registry,
                    fs=_filesystem_for(fault_plan, None),
                )
                table.save()
        except BaseException:
            # The shards already open hold WAL handles nobody else can
            # close.  A close that fails too must not hide the first error.
            for session in sessions:
                with contextlib.suppress(DurabilityError):
                    session.close()
            raise
        return cls(
            sessions,
            shard_map,
            max_batch=max_batch,
            tracer=tracer,
            registry=registry,
            intent_journal=intent_journal,
        )

    @classmethod
    def recover(
        cls,
        directory: str,
        programs: Iterable[Program] | Mapping[str, Program] = (),
        *,
        group: RSAGroup | None = None,
        invariants: tuple = (),
        max_batch: int = 1024,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        checkpoint_every: int = 64,
    ) -> "ShardedSession":
        """Rebuild a sharded session: replay each shard's WAL independently.

        Discovers the ``shard-NN`` subdirectories of *directory* (their
        count fixes S — it must match the ShardMap the data was written
        under), resolves every in-doubt cross-shard round recorded in the
        intent journal (:func:`~repro.core.recovery.resolve_in_doubt`:
        commit / abort / truncate-abort / roll-forward), recovers every
        shard in parallel threads through :meth:`LitmusSession.recover` —
        so each shard cross-checks its rebuilt digest against its own
        journaled history exactly as unsharded recovery does.  *programs*
        needs only the application's programs; the apply companions the
        cross-shard path journaled are derived from their names as replay
        looks them up.

        Layout damage (a missing or renamed ``shard-NN`` directory, an
        intent journal naming more shards than the directory holds) and
        untyped per-shard replay failures raise
        :class:`~repro.errors.RecoveryError` naming the shard.  The
        in-doubt resolution summary lands on ``session.xshard_report``.
        The generator's fixed-base table at ``<directory>/generator.tbl``
        is one object the shard threads share: the first shard's
        recovery reads it, every shard forms its accumulator over it, and
        it is written back once after they finish.
        """
        registry = registry if registry is not None else get_metrics()
        tracer = tracer if tracer is not None else get_tracer()
        program_map = ApplyCompanions(dict(as_program_map(programs)))
        coordinator_fs = _filesystem_for(fault_plan, None)
        shard_dirs, intents = read_sharded_layout(directory, coordinator_fs)

        # -- in-doubt cross-shard resolution (before any shard replays) ------
        # Each participant's durable state is read once, without repair:
        # the per-shard recovery below owns the repair and its reporting.
        in_doubt = {
            index
            for record in intents
            if record.state == STATE_PENDING
            for index in record.participants
        }
        decisions = resolve_in_doubt(
            intents,
            {i: read_durable_state(shard_dirs[i], repair=False) for i in in_doubt},
        )
        for decision in decisions:
            if decision.action == TRUNCATE_ABORT:
                for index in decision.applied:
                    truncate_tail_record(
                        shard_dirs[index],
                        decision.record.pre_seqs[index] + 1,
                        fs=_filesystem_for(fault_plan, index),
                    )
        # The layout read above already scanned and repaired the journal.
        journal = IntentJournal(
            os.path.join(directory, INTENT_JOURNAL_NAME),
            num_shards=len(shard_dirs),
            fsync=True,
            registry=registry,
            fs=coordinator_fs,
            records=intents,
        )
        for decision in decisions:
            if decision.action != ROLL_FORWARD:  # those resolve once re-applied
                journal.log_resolution(
                    decision.record.round_id,
                    "committed" if decision.action == COMMIT else "aborted",
                    decision.reason,
                )

        # -- per-shard replay -------------------------------------------------
        # One table for the layout: the first shard recovery loads it (the
        # rest use it), and it is written back once after the fan-out.
        # Like the intent journal above, recovery's write is fsynced.
        table = _generator_table_file(
            directory, "always", fault_plan, registry, group=group
        )
        sessions, errors = _fan_out(
            lambda index: LitmusSession.recover(
                shard_dirs[index],
                program_map,
                group=group,
                invariants=invariants,
                max_batch=max_batch,
                tracer=tracer,
                registry=registry,
                retry_policy=retry_policy,
                fault_plan=fault_plan,
                checkpoint_every=checkpoint_every,
                shard_index=index,
                generator_table=table,
            ),
            range(len(shard_dirs)),
        )
        if errors:
            index = min(errors)
            primary = errors[index]
            if isinstance(primary, ReproError):
                raise primary
            raise RecoveryError(
                f"shard {index} replay failed with an internal error: "
                f"{type(primary).__name__}: {primary}"
            ) from primary
        session = cls(
            [sessions[index] for index in range(len(shard_dirs))],
            ShardMap(len(shard_dirs)),
            max_batch=max_batch,
            tracer=tracer,
            registry=registry,
            intent_journal=journal,
        )
        session._programs.update(program_map)
        session.recovery_reports = tuple(s.recovery_report for s in session.shards)
        table.save()

        # -- roll-forward + cross-checks (needs the live shards) --------------
        for decision in decisions:
            record = decision.record
            if decision.action == ROLL_FORWARD:
                session._roll_forward_round(record, decision.applied)
                journal.log_resolution(record.round_id, "committed", decision.reason)
            elif decision.action in (ABORT, TRUNCATE_ABORT):
                for index in record.participants:
                    shard = session.shards[index]
                    recovered_digest = int(shard.client.digest)
                    if (
                        shard.recovery_report.last_seq == record.pre_seqs[index]
                        and recovered_digest != record.pre_digests[index]
                    ):
                        raise RecoveryError(
                            f"shard {index} recovered digest "
                            f"{recovered_digest:#x} does not match the "
                            "journaled pre-round watermark "
                            f"{record.pre_digests[index]:#x} of aborted "
                            f"cross-shard round {record.round_id}"
                        )
        registry.counter("xshard.in_doubt_resolved").inc(len(decisions))
        session.xshard_report = XShardRecoveryReport.summarize(
            len(intents), decisions
        )
        return session

    def _roll_forward_round(
        self, record: IntentRecord, applied: Sequence[int]
    ) -> None:
        """Re-apply a partially applied round on its missing participants.

        Each missing participant gets the companion the live round gave it,
        re-derived from the journaled parameters and the ShardMap.
        """
        for txn in record.txns:
            program = self._programs.get(txn.program)
            if program is None:
                raise RecoveryError(
                    f"cannot roll forward cross-shard round "
                    f"{record.round_id}: program {txn.program!r} was not "
                    "supplied to recover()"
                )
            applies = self._owned_applies(program, txn.params)
            for index in txn.shards:
                if index not in applied:
                    companion, params = applies[index]
                    self.shards[index].submit_call(
                        txn.user,
                        companion,
                        params,
                        txn_id=txn.txn_id,
                        auto_flush=False,
                    )
        targets = sorted(
            {i for txn in record.txns for i in txn.shards if i not in applied}
        )
        results = self._parallel_flush(targets, None)
        rejected = sorted(i for i, r in results.items() if not r.accepted)
        if rejected:
            raise RecoveryError(
                f"roll-forward of cross-shard round {record.round_id} was "
                f"rejected on shard(s) {rejected}; the durable history "
                "cannot be made atomic"
            )

    # -- user-facing API ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def digest(self) -> DigestVector:
        """S constant-size verified digests, one per shard."""
        return DigestVector(int(s.client.digest) for s in self.shards)

    @property
    def queued(self) -> int:
        return len(self._pending)

    @property
    def batches_verified(self) -> int:
        return sum(s.batches_verified for s in self.shards)

    def submit(self, user: str, program: Program, **params: int) -> UserTicket:
        """Enqueue one call; routing happens at flush time."""
        if is_apply_companion(program.name):
            raise ReproError(
                f"{program.name!r} is an internal apply program; submit the "
                "original program instead"
            )
        self._programs.setdefault(program.name, program)
        ticket = UserTicket(user=user, txn_id=self._next_id)
        self._next_id += 1
        self._pending.append(_PendingCall(ticket, program, dict(params)))
        if len(self._pending) >= self.max_batch:
            self.flush()
        return ticket

    def flush(self, deadline: float | None = None) -> BatchResult:
        """Route, fan out, verify, and merge one batch across the shards.

        Single-shard calls go to their owner engines and all involved
        shards flush in parallel threads; cross-shard calls then run
        through reserve → execute → apply rounds (module docstring).  The
        merged :class:`BatchResult` is accepted iff every involved shard
        accepted every sub-batch; ``attempts`` is the worst shard's count
        and ``timing`` is ``None`` (per-shard timing stays on the shard
        sessions' ``last_result``).
        """
        if not self._pending:
            return BatchResult.empty()
        pending, self._pending = self._pending, []
        start = perf_counter()
        try:
            with self.tracer.span(
                "sharded_flush", num_txns=len(pending), shards=self.num_shards
            ):
                result = self._flush(pending, deadline)
        except BaseException:
            # A cancelled or crashed round must not leave sub-calls queued
            # on the shards (the next flush would re-submit them): drop the
            # shard-level copies — this session owns those queues outright —
            # and re-queue the not-yet-resolved calls globally, in order.
            for shard in self.shards:
                shard._pending.clear()
            self._pending = [
                call for call in pending if not call.ticket.resolved
            ] + self._pending
            raise
        self.registry.histogram("shard.flush_seconds").observe(
            perf_counter() - start
        )
        self.last_result = result
        return result

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        if self._intents is not None:
            self._intents.close()

    # -- the router --------------------------------------------------------------

    def _flush(
        self, pending: list[_PendingCall], deadline: float | None
    ) -> BatchResult:
        single: dict[int, list[_PendingCall]] = {}
        cross: list[tuple[_PendingCall, CrossShardPlan]] = []
        for call in pending:
            reads = frozenset(call.program.read_keys(call.params))
            writes = frozenset(call.program.write_keys(call.params))
            shards = self.shard_map.shards_of(reads | writes)
            if len(shards) <= 1:
                home = next(iter(shards)) if shards else 0
                single.setdefault(home, []).append(call)
            else:
                cross.append(
                    (
                        call,
                        CrossShardPlan(
                            txn_id=call.ticket.txn_id,
                            priority=call.ticket.txn_id,
                            read_keys=reads,
                            write_keys=writes,
                        ),
                    )
                )
        self.registry.counter("shard.single_txns").inc(
            sum(len(calls) for calls in single.values())
        )
        self.registry.counter("shard.cross_txns").inc(len(cross))

        attempts = 1
        accepted = True
        reasons: list[str] = []
        outputs: dict[int, tuple[int, ...]] = {}
        user_outputs: dict[str, list[tuple[int, ...]]] = {}

        # -- phase 1: single-shard calls, fanned out in parallel ------------
        shard_tickets: dict[int, list[tuple[_PendingCall, UserTicket]]] = {}
        for home, calls in single.items():
            shard = self.shards[home]
            for call in calls:
                shard_ticket = shard.submit_call(
                    call.ticket.user,
                    call.program,
                    call.params,
                    txn_id=call.ticket.txn_id,
                    auto_flush=False,
                )
                shard_tickets.setdefault(home, []).append((call, shard_ticket))
        try:
            results = self._parallel_flush(sorted(single), deadline)
        except BaseException as exc:
            # Salvage what finished: shards that completed resolve their
            # outer tickets from the shard tickets (an accepted shard's
            # work is verified and durably journaled — discarding it here
            # is what used to double-submit it on retry).  For failures
            # other than a cancellation or a crash, the failing and
            # never-flushed shards' tickets resolve as rejected so callers
            # see a typed failure instead of TicketUnresolvedError later.
            completed = getattr(exc, "shard_outcomes", {})
            for home in completed:
                for call, shard_ticket in shard_tickets.get(home, []):
                    if shard_ticket.resolved:
                        call.ticket._resolve(
                            shard_ticket._accepted,
                            shard_ticket._outputs,
                            shard_ticket._reason,
                        )
            if not isinstance(
                exc, (DeadlineExceeded, SimulatedCrash, DurabilityError)
            ):
                for home, ticket_pairs in shard_tickets.items():
                    for call, _shard_ticket in ticket_pairs:
                        if not call.ticket.resolved:
                            call.ticket._resolve(
                                False,
                                (),
                                f"shard {home} flush failed: {exc}",
                            )
            raise
        for home, shard_result in results.items():
            attempts = max(attempts, shard_result.attempts)
            if not shard_result.accepted:
                accepted = False
                reasons.append(f"shard {home}: {shard_result.reason}")
            for call, shard_ticket in shard_tickets.get(home, []):
                call.ticket._resolve(
                    shard_ticket._accepted,
                    shard_ticket._outputs,
                    shard_ticket._reason,
                )

        # -- phase 2: cross-shard rounds ------------------------------------
        if cross:
            calls_by_id = {call.ticket.txn_id: call for call, _plan in cross}
            rounds = self.reserver.plan_rounds([plan for _call, plan in cross])
            for round_plans in rounds:
                round_attempts, round_reasons = self._run_cross_round(
                    [calls_by_id[plan.txn_id] for plan in round_plans], deadline
                )
                attempts = max(attempts, round_attempts)
                if round_reasons:
                    accepted = False
                    reasons.extend(round_reasons)

        for call in pending:
            ticket = call.ticket
            if ticket.resolved and ticket._accepted:
                outputs[ticket.txn_id] = ticket._outputs
                user_outputs.setdefault(ticket.user, []).append(ticket._outputs)

        return BatchResult(
            accepted=accepted,
            reason="; ".join(reasons),
            num_txns=len(pending),
            attempts=attempts,
            outputs=_frozen_mapping(outputs),
            user_outputs=_frozen_mapping(
                {user: tuple(values) for user, values in user_outputs.items()}
            ),
            tickets=tuple(call.ticket for call in pending),
            timing=None,
        )

    def _run_cross_round(
        self, calls: list[_PendingCall], deadline: float | None
    ) -> tuple[int, list[str]]:
        """Execute one reservation round's winners and apply their writes.

        The two-phase commit of the module docstring: the round's full
        apply plan is journaled durably (*prepare*) before any shard sees
        a byte of it, then the apply batches fan out and the outcome is
        resolved — *commit* when every participant accepted, compensation
        plus *abort* on any partial outcome, and a deliberately unresolved
        (in-doubt) intent when a crash killed the fan-out mid-flight.
        """
        involved: set[int] = set()
        # (call, outputs, journaled apply parameters, shard -> its apply)
        per_call: list[tuple[_PendingCall, tuple[int, ...], dict, dict]] = []
        for call in calls:
            # Owner-routed execution against the current (pre-round) state:
            # every read goes to the shard that owns the key.
            result = call.program.execute(call.params, self._owner_read)
            final_values = dict(result.writes)
            apply_params = dict(call.params)
            for index, stmt in enumerate(call.program.write_statements()):
                key = stmt.key.resolve(call.params)
                apply_params[f"{_APPLY_PARAM_PREFIX}{index}"] = final_values[key]
            applies = self._owned_applies(call.program, apply_params)
            involved |= applies.keys()
            per_call.append((call, result.outputs, apply_params, applies))

        # Phase 1 (prepare): make the intent durable before any shard
        # flush.  After this write a crash anywhere in the fan-out leaves
        # enough on disk for recover() to finish or undo the round.
        round_id = None
        if self._intents is not None:
            round_id = self._intents.begin_round()
            participants = tuple(sorted(involved))
            self._intents.log_intent(
                round_id,
                tuple(
                    IntentTxn(
                        txn_id=call.ticket.txn_id,
                        user=call.ticket.user,
                        program=call.program.name,
                        params=apply_params,
                        shards=tuple(sorted(applies)),
                    )
                    for call, _outputs, apply_params, applies in per_call
                ),
                participants,
                {i: self.shards[i]._batch_seq for i in participants},
                {i: int(self.shards[i].client.digest) for i in participants},
            )

        for call, _outputs, _params, applies in per_call:
            for shard_index in sorted(applies):
                companion, params = applies[shard_index]
                self.shards[shard_index].submit_call(
                    call.ticket.user,
                    companion,
                    params,
                    txn_id=call.ticket.txn_id,
                    auto_flush=False,
                )

        # Phase 2 (commit/compensate): fan out, then resolve the intent.
        try:
            results = self._parallel_flush(sorted(involved), deadline)
        except (SimulatedCrash, DurabilityError):
            # Process death — or a disk that refused an acknowledged-path
            # write (failed fsync poisons the engine: fsyncgate semantics
            # forbid retry-and-pretend).  Either way no live compensation
            # is possible; the intent deliberately stays in doubt for
            # recover() to resolve from the durable evidence.
            raise
        except BaseException as exc:
            outcomes = getattr(exc, "shard_outcomes", {})
            self._compensate(
                [i for i in sorted(outcomes) if outcomes[i].accepted]
            )
            self._resolve_round(
                round_id, "aborted", f"{type(exc).__name__}: {exc}"
            )
            if isinstance(exc, DeadlineExceeded):
                # Cancelled, not failed: tickets stay unresolved so the
                # outer flush() re-queues the calls for a later retry.
                raise
            for call, _outputs, _params, _applies in per_call:
                if not call.ticket.resolved:
                    call.ticket._resolve(
                        False, (), f"cross-shard round failed: {exc}"
                    )
            raise

        attempts = max([r.attempts for r in results.values()], default=1)
        failed = {index for index, r in results.items() if not r.accepted}
        # Compensation is batch-granular (a shard's whole apply batch rolls
        # back together), so the failure taint spreads transitively: a call
        # touching a failed shard must be undone on its *other* shards,
        # whose batches may carry further calls, and so on to a fixpoint.
        tainted = set(failed)
        while True:
            grown = {
                index
                for _call, _o, _p, applies in per_call
                if applies.keys() & tainted
                for index in applies
            }
            if grown <= tainted:
                break
            tainted |= grown
        self._compensate(sorted(tainted - failed))

        reasons = [f"shard {i}: {results[i].reason}" for i in sorted(failed)]
        for call, call_outputs, _params, applies in per_call:
            bad = applies.keys() & tainted
            if bad:
                direct = applies.keys() & failed
                call.ticket._resolve(
                    False,
                    (),
                    "cross-shard apply rejected on shard(s) "
                    + ", ".join(str(i) for i in sorted(direct or bad))
                    + (
                        ""
                        if direct
                        else " (compensated: a sibling call's shard failed)"
                    ),
                )
            else:
                call.ticket._resolve(True, call_outputs, "")
        if failed:
            self._resolve_round(round_id, "aborted", "; ".join(reasons))
        else:
            self._resolve_round(round_id, "committed")
            self.registry.counter("xshard.commits").inc()
        return attempts, reasons

    def _compensate(self, shard_indexes: Iterable[int]) -> None:
        """Roll the given shards back to their pre-round verified state."""
        for index in shard_indexes:
            self.shards[index].compensate_last_batch()
            self.registry.counter("xshard.compensations").inc()

    def _resolve_round(
        self, round_id: int | None, state: str, reason: str = ""
    ) -> None:
        if self._intents is not None and round_id is not None:
            self._intents.log_resolution(round_id, state, reason)

    def _owner_read(self, key: tuple) -> int:
        return self.shards[self.shard_map.shard_of(key)].server.db.get(key)

    def _owned_applies(
        self, program: Program, apply_params: Mapping[str, int]
    ) -> dict[int, tuple[Program, dict]]:
        """Each participant's apply companion and parameters for one call.

        A shard gets only the write statements whose resolved key it owns,
        and none of the other statements' value parameters.  *apply_params*
        is the call's parameters plus every ``__w<i>``, as the intent
        journal holds them, so the live round and a roll-forward at
        recovery derive the same applies.
        """
        writes = program.write_statements()
        owned: dict[int, list[int]] = {}
        for index, stmt in enumerate(writes):
            shard = self.shard_map.shard_of(stmt.key.resolve(apply_params))
            owned.setdefault(shard, []).append(index)
        applies = {}
        for shard, indexes in owned.items():
            whole = len(indexes) == len(writes)
            foreign = {
                f"{_APPLY_PARAM_PREFIX}{i}"
                for i in range(len(writes))
                if i not in indexes
            }
            applies[shard] = (
                self._companions.companion(
                    program, None if whole else tuple(indexes)
                ),
                {k: v for k, v in apply_params.items() if k not in foreign},
            )
        return applies

    def _parallel_flush(
        self, shard_indexes: list[int], deadline: float | None
    ) -> dict[int, BatchResult]:
        """Flush the given shards concurrently; one thread per shard.

        Exceptions (SimulatedCrash, DeadlineExceeded, ...) re-raise in the
        caller, lowest shard index first, after every thread has finished —
        deterministic regardless of thread scheduling.  The raised error
        carries the shards that *did* finish: ``shard_outcomes`` maps
        shard index → :class:`BatchResult` for every flush that completed,
        and ``shard_errors`` maps shard index → exception for every one
        that did not, so a failing shard no longer silently discards its
        siblings' verified (and durably journaled) outcomes.
        """
        involved = [i for i in shard_indexes if self.shards[i].queued]
        if not involved:
            return {}
        self.registry.counter("shard.flush_fanout").inc(len(involved))
        results, errors = _fan_out(
            lambda index: self.shards[index].flush(deadline), involved
        )
        if errors:
            primary = errors[min(errors)]
            primary.shard_outcomes = dict(results)
            primary.shard_errors = dict(errors)
            raise primary
        return results
