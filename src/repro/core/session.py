"""The client-facing session API: one object, one surface.

Before this module the client side of Litmus was three objects glued by the
caller: a :class:`~repro.core.client.LitmusClient` (digest keeper /
verifier), a user-batching proxy, and raw
:class:`~repro.db.txn.Transaction` construction.  :class:`LitmusSession`
collapses them into the one facade applications use::

    session = LitmusSession.create(initial=workload.initial_data(),
                                   config=config, group=group)
    ticket = session.submit("alice", PURCHASE, buyer=0, seller=1, price=120)
    result = session.flush()          # a BatchResult, not a bare bool
    assert result.accepted
    print(ticket.outputs, result.timing.measured_breakdown())

Design points:

- ``submit`` takes the stored-procedure parameters as keyword arguments and
  returns a :class:`UserTicket`; the session owns the transaction-id space
  (ids double as deterministic priorities, so arrival order is priority
  order) and the client-side digest;
- ``flush`` drives one full verification round (server execution, proof
  generation, client verification) and returns a typed, frozen
  :class:`BatchResult` carrying acceptance, per-user outputs and the
  :class:`~repro.core.protocol.TimingReport`; metrics stay in the
  session's :mod:`repro.obs` registry (``session.registry.snapshot()``);
- ``flush`` on an empty queue is a **documented no-op**: it returns
  :meth:`BatchResult.empty` (accepted, zero transactions) without touching
  the server — the regression the old bare-``bool`` flush surface made
  untestable;
- every non-empty flush — including the auto-flush ``submit`` triggers at
  ``max_batch`` — records its result as :attr:`LitmusSession.last_result`,
  so a rejected auto-flush is never silently discarded;
- ticket misuse raises the dedicated exceptions
  :class:`~repro.errors.TicketUnresolvedError` and
  :class:`~repro.errors.BatchRejectedError` instead of a generic
  ``ReproError``.

Recovery semantics (the robustness layer)
-----------------------------------------

A rejected batch is not the end of the conversation.  When a
:class:`RetryPolicy` is configured, ``flush`` runs this loop per batch:

1. **attempt** — send the batch (through the
   :class:`~repro.faults.FaultPlan`, when one is injected), let the server
   execute and prove it, verify the response;
2. **reject → rollback** — if the client rejects (or the message/prover
   layer failed), tell the server to rewind to its pre-batch snapshot, so
   its store and provider digest return to the last state the client
   actually verified;
3. **resync** — replay the trusted command log (every *verified* batch
   since the last checkpoint, see :mod:`repro.db.commandlog`) against the
   checkpoint state and rebuild the server from the re-derived contents
   (rolling the checkpoint's accumulator exponent forward by the rows the
   log changed);
   if the rebuilt digest disagrees with the client's verified digest the
   divergence is unrecoverable and :class:`~repro.errors.ServerDesyncError`
   is raised;
4. **retry** — after ``RetryPolicy.delay(attempt)`` seconds of backoff,
   re-submit the same transactions.  Exhausting ``max_attempts`` returns
   the rejected :class:`BatchResult` (or raises
   :class:`~repro.errors.RetryExhausted` when the policy says so).

Without a policy the old single-shot behavior is preserved exactly, except
that the server is still rolled back on rejection — the bug where a
rejected batch left the server's digest permanently ahead of the client's
(so every later batch failed verification forever) is gone either way.

:class:`LitmusSession` is one of the three implementations of the
:class:`~repro.core.api.VerifiedSession` protocol (alongside
:class:`~repro.net.client.RemoteSession` and
:class:`~repro.core.sharding.ShardedSession`); ``digest`` returns a
length-1 :class:`~repro.core.api.DigestVector`.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from time import perf_counter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from ..crypto.rsa_group import RSAGroup
from ..db.commandlog import encode_batch
from ..db.txn import Transaction
from ..db.fsio import OS_FILESYSTEM, FaultyFileSystem, FileSystem
from ..db.wal import DurabilityConfig, DurabilityManager, GeneratorTableFile
from ..errors import (
    BatchRejectedError,
    ClientAPIError,
    DeadlineExceeded,
    MessageDropped,
    ProofCorruptionDetected,
    ReproError,
    RetryExhausted,
    ServerDesyncError,
    TicketUnresolvedError,
    VerificationFailure,
    WalError,
)
from ..obs.exporters import Exporter
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.spans import Tracer, get_tracer
from ..vc.program import Program
from .api import DigestVector
from .checkpoint import DigestLog
from .client import ClientVerdict, LitmusClient
from .config import LitmusConfig
from .protocol import ServerResponse, TimingReport
from .recovery import (
    RecoveryReport,
    as_program_map,
    read_durable_state,
    replay_and_rebuild,
)
from .server import LitmusServer

__all__ = [
    "BatchResult",
    "DurabilityConfig",
    "LitmusSession",
    "RecoveryReport",
    "RetryPolicy",
    "UserTicket",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How ``flush`` handles a rejected or failed verification round.

    - ``max_attempts`` — total tries per batch (1 = the old single-shot
      behavior);
    - ``backoff`` — base delay in seconds; attempt *n* waits
      ``backoff * 2**(n-1)`` before retrying (0.0 = no waiting, the right
      setting for tests and simulations);
    - ``jitter`` — fractional randomization of each delay: the wait is
      multiplied by a factor drawn uniformly from ``[1-jitter, 1+jitter]``
      (0.0 = deterministic, the default; the draw comes from the rng
      handed to :meth:`delay`, so a seeded fault plan keeps retries
      replayable);
    - ``sleep`` — the callable that actually waits (``time.sleep`` by
      default).  Injectable so retry tests assert the exact backoff
      schedule without burning wall-clock;
    - ``raise_on_exhaustion`` — when True, exhausting every attempt raises
      :class:`~repro.errors.RetryExhausted` (after resolving tickets and
      recording ``last_result``) instead of returning the rejected
      :class:`BatchResult`.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    raise_on_exhaustion: bool = False
    jitter: float = 0.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be at least 1")
        if self.backoff < 0:
            raise ReproError("backoff must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError("jitter must be in [0, 1]")
        if not callable(self.sleep):
            raise ReproError("sleep must be callable")

    def delay(
        self,
        attempt: int,
        rng: random.Random | None = None,
        retry_after: float | None = None,
    ) -> float:
        """Seconds to wait after failed attempt number *attempt* (1-based).

        With ``jitter`` set, the exponential delay is scaled by a factor
        from ``[1-jitter, 1+jitter]`` drawn from *rng* (the module-level
        ``random`` when none is given).

        *retry_after* is a server-supplied hint (seconds), e.g. the one an
        :class:`~repro.errors.Overloaded` shed carries: the wait becomes
        ``max(hint, backoff)`` so a loaded server is never hammered sooner
        than it asked, while an already-longer exponential backoff is kept.
        The jitter draw happens exactly as without a hint (one draw per
        call whenever ``jitter`` is set and the base is positive), so
        seeded schedules stay replayable whether or not a hint arrives.
        """
        base = self.backoff * (2 ** (attempt - 1))
        if self.jitter and base > 0:
            source = rng if rng is not None else random
            base *= 1.0 + source.uniform(-self.jitter, self.jitter)
        if retry_after is not None:
            return max(retry_after, base)
        return base


@dataclass
class UserTicket:
    """A pending user request; resolves when its batch flushes.

    Reading :attr:`accepted` before the flush raises
    :class:`~repro.errors.TicketUnresolvedError`; reading :attr:`outputs`
    of a rejected batch raises :class:`~repro.errors.BatchRejectedError`
    carrying the client's rejection reason.
    """

    user: str
    txn_id: int
    _resolved: bool = False
    _accepted: bool = False
    _outputs: tuple[int, ...] = ()
    _reason: str = ""

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def accepted(self) -> bool:
        if not self._resolved:
            raise TicketUnresolvedError(
                f"ticket for txn {self.txn_id} ({self.user!r}) is not resolved "
                "yet; call session.flush() first"
            )
        return self._accepted

    @property
    def outputs(self) -> tuple[int, ...]:
        if not self.accepted:
            raise BatchRejectedError(self._reason)
        return self._outputs

    @property
    def reason(self) -> str:
        """The rejection reason ("" while pending or when accepted)."""
        return self._reason

    def _resolve(self, accepted: bool, outputs: tuple[int, ...], reason: str) -> None:
        self._resolved = True
        self._accepted = accepted
        self._outputs = outputs
        self._reason = reason


def _frozen_mapping(mapping: Mapping) -> Mapping:
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class BatchResult:
    """Everything one ``session.flush()`` produced, as a typed value.

    Stable, documented shape:

    - ``accepted`` — the client's verdict (also this object's truthiness,
      so ``assert session.flush()`` keeps working);
    - ``reason`` — rejection reason, ``""`` when accepted;
    - ``num_txns`` — transactions in the flushed batch (0 for the
      empty-queue no-op);
    - ``attempts`` — verification rounds this batch took (1 on the happy
      path; > 1 means the retry policy recovered from rejections);
    - ``outputs`` — read-only ``{txn_id: (value, ...)}`` over the whole
      batch (empty when rejected);
    - ``user_outputs`` — read-only ``{user: ((value, ...), ...)}``, each
      user's outputs in submission order (empty when rejected);
    - ``tickets`` — the resolved :class:`UserTicket` objects of the batch;
    - ``timing`` — the server's :class:`TimingReport` (``None`` for the
      empty no-op and for batches whose final attempt produced no
      response).

    Metrics are not part of a result: they live in the session's
    process-wide registry, read with ``session.registry.snapshot()``.
    """

    accepted: bool
    reason: str = ""
    num_txns: int = 0
    attempts: int = 1
    outputs: Mapping[int, tuple[int, ...]] = field(
        default_factory=lambda: _frozen_mapping({})
    )
    user_outputs: Mapping[str, tuple[tuple[int, ...], ...]] = field(
        default_factory=lambda: _frozen_mapping({})
    )
    tickets: tuple[UserTicket, ...] = ()
    timing: TimingReport | None = None

    def __bool__(self) -> bool:
        return self.accepted

    @classmethod
    def empty(cls) -> "BatchResult":
        """The documented result of flushing an empty queue."""
        return cls(accepted=True, reason="", num_txns=0)


def _filesystem_for(fault_plan, shard: int | None) -> FileSystem:
    """The filesystem engine *shard* (``None``: unsharded, or a sharded
    layout's coordinator) writes through: the real one, made faultable
    when a plan is attached so disk-fault schedules reach every recovery,
    journal and table write too."""
    if fault_plan is None:
        return OS_FILESYSTEM
    return FaultyFileSystem(fault_plan, OS_FILESYSTEM, shard=shard)


def _generator_table_file(
    directory: str, fsync: str, fault_plan, registry, *, group=None
) -> GeneratorTableFile:
    """The generator table at the root *directory* of a layout, written
    with the *fsync* policy through the coordinator's filesystem."""
    return GeneratorTableFile(
        directory,
        _filesystem_for(fault_plan, None),
        group=group,
        fsync=fsync != "never",
        registry=registry,
    )


@dataclass(frozen=True)
class _ResumeState:
    """Private recover() → __init__ handoff: continue, don't start over."""

    next_txn_id: int
    last_seq: int
    digest_log: DigestLog


class LitmusSession:
    """One coherent client surface over server + verifier + user batching."""

    def __init__(
        self,
        server: LitmusServer,
        client: LitmusClient | None = None,
        max_batch: int = 1024,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        checkpoint_every: int = 64,
        durability: DurabilityConfig | None = None,
        shard_index: int | None = None,
        generator_table: GeneratorTableFile | None = None,
        _resume: _ResumeState | None = None,
    ):
        if max_batch < 1:
            raise ReproError("batch capacity must be positive")
        if checkpoint_every < 1:
            raise ReproError("checkpoint interval must be positive")
        self.server = server
        self.tracer = tracer if tracer is not None else server.tracer
        self.registry = registry if registry is not None else get_metrics()
        if client is None:
            client = LitmusClient(
                server.group,
                server.digest,
                config=server.config,
                invariants=server.invariants,
                tracer=self.tracer,
            )
        self.client = client
        self.max_batch = max_batch
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.bind_registry(self.registry)
            # The server consults the plan at the certify/prove stages.
            server.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self._next_id = 1
        self._pending: list[tuple[UserTicket, Transaction]] = []
        self.batches_verified = 0
        self.batches_rejected = 0
        self.retries = 0
        self.resyncs = 0
        self.compensations = 0
        # The most recent non-empty flush's result; the only way to observe
        # a rejected auto-flush triggered by submit() reaching max_batch.
        self.last_result: BatchResult | None = None
        # Recovery anchors: the checkpoint state (trusted contents at the
        # last checkpoint) and the provider's (store, product, digest,
        # factors) state taken with it, the command log of verified batches
        # since then, the program registry replay needs, and the
        # hash-chained history of verified digests.
        self._base_state: dict[tuple, int] = server.db.snapshot()
        self._anchor: tuple[dict, int, int, dict] = server.provider.state()
        self._command_log: list[bytes] = []
        self._programs: dict[str, Program] = {}
        self.digest_log = DigestLog(self.client.digest)
        # Which shard of a ShardedSession this engine is (None standalone);
        # threaded to the durability fault hooks so CrashPoint(shard=...)
        # can target exactly this engine, and stamped on the server for
        # span attribution.
        self.shard_index = shard_index
        if shard_index is not None:
            server.shard = shard_index
        # Durability: when configured, every verified batch is journaled to
        # the on-disk WAL *before* flush() acknowledges it, and every
        # in-memory checkpoint also lands as an atomic checkpoint file.
        self.durability = durability
        self._manager: DurabilityManager | None = None
        self._batch_seq = 0  # sequence number of the last journaled batch
        # The report of the recover() run that produced this session (None
        # for sessions that started fresh).
        self.recovery_report: RecoveryReport | None = None
        # The generator's fixed-base table on disk: this session's own at
        # its directory's root, or the one a ShardedSession shares among
        # its shards at the layout's root (whoever made it writes it first).
        self._generator_table = generator_table
        if _resume is not None:
            self._next_id = _resume.next_txn_id
            self._batch_seq = _resume.last_seq
            self.digest_log = _resume.digest_log
            if self.digest_log.latest_digest != self.client.digest:
                raise VerificationFailure(
                    "recovered digest log does not end at the client's digest"
                )
        if durability is not None:
            self._manager = DurabilityManager(
                durability,
                registry=self.registry,
                fault_plan=fault_plan,
                shard=shard_index,
            )
            if _resume is None and self._manager.has_existing_state():
                raise WalError(
                    f"durability directory {durability.directory!r} already "
                    "holds checkpoints or WAL segments; restart with "
                    "LitmusSession.recover() instead of overwriting history"
                )
            self._manager.start(last_seq=self._batch_seq)
            # Anchor the directory: a fresh session writes the seq-0
            # checkpoint (so recover() always has a base state), a resumed
            # one consolidates its replayed history into a new checkpoint
            # and lets the scanned segments retire.
            self._write_durable_checkpoint()
            if generator_table is None:
                self._generator_table = _generator_table_file(
                    durability.directory,
                    durability.fsync,
                    fault_plan,
                    self.registry,
                    group=server.group,
                )
                self._generator_table.save()

    @classmethod
    def create(
        cls,
        initial: Mapping[tuple, int] | None = None,
        config: LitmusConfig | None = None,
        group: RSAGroup | None = None,
        invariants: tuple = (),
        max_batch: int = 1024,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        checkpoint_every: int = 64,
        durability: DurabilityConfig | None = None,
        shard_index: int | None = None,
        generator_table: GeneratorTableFile | None = None,
    ) -> "LitmusSession":
        """Build a server + verifying client pair and wrap them in a session.

        This is the quickstart path: one call replaces the old four-object
        setup (group, server, client, proxy).  Passing ``durability`` makes
        the session crash-safe: every verified batch is journaled to the
        on-disk WAL before ``flush()`` acknowledges it, and
        :meth:`recover` rebuilds the session from the directory after a
        restart.  *generator_table* is the table file of a layout this
        session is one shard of; by default the session writes its own.
        """
        tracer = tracer if tracer is not None else get_tracer()
        server = LitmusServer(
            initial=initial,
            config=config,
            group=group,
            invariants=invariants,
            tracer=tracer,
        )
        return cls(
            server,
            max_batch=max_batch,
            tracer=tracer,
            registry=registry,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            checkpoint_every=checkpoint_every,
            durability=durability,
            shard_index=shard_index,
            generator_table=generator_table,
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
        shard_index: int | None = None,
        generator_table: GeneratorTableFile | None = None,
    ) -> "LitmusSession":
        """Rebuild a durable session from its directory after a restart.

        Runs the one recovery path of :mod:`repro.core.recovery` — newest
        valid checkpoint, repairing WAL scan, replay of every record past
        the checkpoint (*programs* supplies the stored procedures the
        journaled command logs name), server rebuild, and the digest
        cross-check that raises :class:`~repro.errors.ServerDesyncError`
        unless the recovered state is exactly what the client last
        acknowledged — then resumes: the new session continues the
        sequence/txn-id spaces and the hash-chained digest log, and
        immediately consolidates the replayed history into a fresh
        checkpoint.

        *group* optionally reuses an existing :class:`RSAGroup` (it must
        match the journaled parameters; with it, servers keep the trapdoor
        speedup) — by default the group is rebuilt from the checkpoint.
        Before the accumulator is formed, the generator's fixed-base table
        is loaded from *generator_table* (a shard's layout root) or from
        ``generator.tbl`` in *directory*, and checked
        (:mod:`repro.db.wal.generator_table`); a missing or rejected
        table is rebuilt, and then written back.
        The :class:`RecoveryReport` lands on ``session.recovery_report``.
        """
        start = perf_counter()
        tracer = tracer if tracer is not None else get_tracer()
        registry = registry if registry is not None else get_metrics()
        program_map = as_program_map(programs)
        state = read_durable_state(directory, repair=True, registry=registry)
        checkpoint = state.checkpoint
        last_seq, expected = state.tip
        digest_log = state.digest_log()
        durability = DurabilityConfig(directory=directory, **checkpoint.durability)
        group = state.group(group)
        table = generator_table
        if table is None:
            table = _generator_table_file(
                directory, durability.fsync, fault_plan, registry
            )
        table.load(group)
        with tracer.span("recover", batches=len(state.records)):
            try:
                server, batches, rebuild = replay_and_rebuild(
                    checkpoint.rows,
                    checkpoint.provider_state,
                    [record.command_log for record in state.records],
                    program_map,
                    expected,
                    config=LitmusConfig(**checkpoint.config),
                    generator_table=table,
                    group=group,
                    invariants=invariants,
                    tracer=tracer,
                    fault_plan=fault_plan,
                )
            except ServerDesyncError:
                registry.counter("recovery.digest_mismatches").inc()
                raise
        next_txn_id = checkpoint.next_txn_id
        for record, txns in zip(state.records, batches):
            digest_log.record(record.digest, len(txns))
            next_txn_id = max(next_txn_id, max(txn.txn_id for txn in txns) + 1)
        session = cls(
            server,
            max_batch=max_batch,
            tracer=tracer,
            registry=registry,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            checkpoint_every=checkpoint_every,
            durability=durability,
            shard_index=shard_index,
            generator_table=table,
            _resume=_ResumeState(next_txn_id, last_seq, digest_log),
        )
        if generator_table is None:
            table.save()
        session._programs.update(program_map)
        duration = perf_counter() - start
        registry.counter("recovery.replayed_batches").inc(len(state.records))
        registry.counter("recovery.changed_keys").inc(rebuild.changed_keys)
        registry.counter("recovery.primes_hashed").inc(rebuild.primes_hashed)
        registry.histogram("recovery.duration").observe(duration)
        session.recovery_report = state.report(
            session.client.digest, rebuild, duration
        )
        return session

    # -- user-facing API ---------------------------------------------------------

    @property
    def digest(self) -> DigestVector:
        """The client-side (verified) database digest, as a length-1
        :class:`~repro.core.api.DigestVector` (its int value is the digest
        itself, so every scalar consumer keeps working)."""
        return DigestVector.single(self.client.digest)

    @property
    def queued(self) -> int:
        return len(self._pending)

    def submit(self, user: str, program: Program, **params: int) -> UserTicket:
        """Enqueue one stored-procedure call on behalf of *user*.

        Parameters are keyword arguments (``session.submit("alice",
        PURCHASE, buyer=0, price=120)``).  Reaching ``max_batch`` queued
        requests flushes automatically; the auto-flush's outcome lands in
        :attr:`last_result` (and a rejected one resolves the tickets, so it
        is observable either way).
        """
        return self.submit_call(user, program, params)

    def submit_call(
        self,
        user: str,
        program: Program,
        params: Mapping[str, int],
        *,
        txn_id: int | None = None,
        auto_flush: bool = True,
    ) -> UserTicket:
        """Non-kwargs :meth:`submit` for programmatic callers.

        The sharded router uses this to pin a globally allocated *txn_id*
        (so ranks agree across shards) and to defer the auto-flush to its
        own fan-out logic; plain callers can ignore both knobs.
        """
        self._programs.setdefault(program.name, program)
        if txn_id is None:
            txn_id = self._next_id
            self._next_id += 1
        else:
            self._next_id = max(self._next_id, txn_id + 1)
        txn = Transaction(txn_id, program, dict(params))
        ticket = UserTicket(user=user, txn_id=txn.txn_id)
        self._pending.append((ticket, txn))
        if auto_flush and len(self._pending) >= self.max_batch:
            self.flush()
        return ticket

    def flush(self, deadline: float | None = None) -> BatchResult:
        """Drive one verification round over the queued requests.

        Empty queue: a documented no-op returning :meth:`BatchResult.empty`
        — accepted, ``num_txns == 0``, no server round-trip.

        With a :class:`RetryPolicy`, a rejected round triggers the recovery
        loop documented in the module docstring (rollback → resync →
        backoff → retry) before giving up.

        *deadline* is an absolute ``time.monotonic()`` instant (the shape a
        network service propagates server-side).  It is checked at stage
        boundaries — before each attempt and after server execution but
        before verification.  On expiry the round is **cancelled, not
        half-committed**: the server is rolled back to the last verified
        state if it had advanced, the un-acknowledged transactions are
        re-queued in order, their tickets stay unresolved, and
        :class:`~repro.errors.DeadlineExceeded` is raised.  A later flush
        (with a fresh deadline or none) retries them; nothing is lost and
        the digest chain never moves for a cancelled round.
        """
        if not self._pending:
            return BatchResult.empty()
        pending, self._pending = self._pending, []
        txns = [txn for _ticket, txn in pending]
        policy = self.retry_policy or RetryPolicy(max_attempts=1)

        attempt = 0
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                self._abandon_for_deadline(pending)
                raise DeadlineExceeded(
                    f"deadline expired before attempt {attempt + 1}; "
                    f"{len(txns)} transaction(s) re-queued"
                )
            attempt += 1
            try:
                verdict, reason, server_advanced, response = self._attempt_round(
                    txns, deadline
                )
            except DeadlineExceeded:
                self._abandon_for_deadline(pending)
                raise
            if verdict is not None and verdict.accepted:
                return self._finish_accepted(
                    pending, txns, verdict, response, attempt
                )
            self.batches_rejected += 1
            self.registry.counter("session.rejections").inc()
            if server_advanced:
                # The server optimistically applied the batch; rewind it to
                # the last client-verified state before anything else.
                self.server.rollback()
            if attempt >= policy.max_attempts:
                result = self._finish_rejected(pending, txns, reason, attempt)
                if policy.raise_on_exhaustion:
                    raise RetryExhausted(reason, attempt)
                return result
            self.retries += 1
            self.registry.counter("session.retries").inc()
            rng = self.fault_plan.rng if self.fault_plan is not None else None
            delay = policy.delay(attempt, rng=rng)
            if delay > 0:
                policy.sleep(delay)
            self.resync()

    def resync(self) -> int:
        """Re-derive a trusted server from the verified history.

        The in-memory twin of :meth:`recover`, through the same kernel
        (:func:`~repro.core.recovery.replay_and_rebuild`): the command log
        of every verified batch since the last checkpoint is replayed
        against the checkpoint state, the accumulator is rolled forward
        from the provider state captured with it, and the rebuilt digest is
        cross-checked against the client's verified digest.  Disagreement
        means the history itself has diverged and raises
        :class:`~repro.errors.ServerDesyncError`.

        Returns the re-derived digest (== ``self.digest``).
        """
        self.resyncs += 1
        self.registry.counter("session.resyncs").inc()
        with self.tracer.span("resync", batches=len(self._command_log)):
            try:
                rebuilt, _batches, _rebuild = replay_and_rebuild(
                    self._base_state,
                    self._anchor,
                    self._command_log,
                    self._programs,
                    self.client.digest,
                    config=self.server.config,
                    group=self.server.group,
                    invariants=self.server.invariants,
                    tracer=self.tracer,
                    fault_plan=self.fault_plan,
                )
            except ServerDesyncError:
                self.registry.counter("session.resync_failures").inc()
                raise
        self.server = rebuilt
        return rebuilt.digest

    def compensate_last_batch(self, reason: str = "") -> int:
        """Undo the most recently accepted batch (cross-shard compensation).

        The sharded router's two-phase apply calls this when *another*
        shard failed its half of a cross-shard round: this shard verified
        and journaled its apply batch, but atomicity demands the round
        land on every participant or on none.  The undo:

        1. rolls the server back to its pre-batch snapshot (held until the
           next ``execute_batch``), restoring store and provider digest;
        2. rewinds the client digest to the previous chain entry.  The
           chain itself stays append-only — a zero-transaction entry
           re-recording the prior digest marks the compensation instead of
           rewriting history;
        3. re-anchors the recovery state (base snapshot + provider state +
           empty command log) and, with durability on, writes a checkpoint
           at the *same* sequence the compensated batch journaled.  The
           atomic rewrite replaces any applied-state checkpoint at that
           sequence and the post-checkpoint WAL reset retires the applied
           record, so a crash at any instant recovers to either the
           applied state (which the coordinator's intent journal then
           resolves) or the compensated one — never a half state.

        Returns the restored digest.  Raises
        :class:`~repro.errors.ClientAPIError` when there is no batch to
        compensate and :class:`~repro.errors.ServerDesyncError` when the
        rollback snapshot disagrees with the verified digest chain.
        """
        if self.server._pre_batch is None:
            raise ClientAPIError(
                "no accepted batch to compensate: the server holds no "
                "pre-batch snapshot (nothing flushed since the last "
                "rollback/compensation)"
            )
        entries = self.digest_log.entries()
        if len(entries) < 2:
            raise ClientAPIError(
                "the digest chain holds no state prior to the last batch"
            )
        previous = entries[-2].digest
        with self.tracer.span("compensate", reason=reason):
            self.server.rollback()
            if self.server.digest != previous:
                raise ServerDesyncError(
                    "compensation rollback does not reproduce the previously "
                    f"verified digest (got {self.server.digest:#x}, expected "
                    f"{previous:#x}); refusing to rewind the client"
                )
            self.client.digest = previous
            self.digest_log.record(previous, 0)
            self._checkpoint()
        self.compensations += 1
        self.registry.counter("session.compensations").inc()
        return previous

    # -- the per-attempt round ---------------------------------------------------

    def _abandon_for_deadline(
        self, pending: list[tuple[UserTicket, Transaction]]
    ) -> None:
        """Re-queue a deadline-cancelled batch ahead of anything newer."""
        self._pending = pending + self._pending
        self.registry.counter("session.deadline_aborts").inc()

    def _attempt_round(
        self, txns: list[Transaction], deadline: float | None = None
    ) -> tuple[ClientVerdict | None, str, bool, ServerResponse | None]:
        """One request→execute→respond→verify round.

        Returns ``(verdict, reason, server_advanced, response)`` where
        *verdict* is None when no response reached the client and
        *server_advanced* tells the caller whether the server applied the
        batch and still holds that (unverified) state.

        A *deadline* that expires while the server executes cancels the
        round here: the server is rolled back (its optimistic state was
        never verified) and :class:`~repro.errors.DeadlineExceeded`
        propagates to ``flush``, which re-queues the batch.  The check
        sits *before* verification on purpose — once the client verifies
        and advances its digest the work must be acknowledged, so the
        deadline is best-effort at stage boundaries, never mid-digest.
        """
        plan = self.fault_plan
        try:
            if plan is not None:
                plan.on_request(txns)
        except MessageDropped as exc:
            return None, str(exc), False, None
        try:
            response = self.server.execute_batch(txns)
        except (ProofCorruptionDetected, MessageDropped) as exc:
            # execute_batch already rolled the server back before raising.
            return None, str(exc), False, None
        if deadline is not None and time.monotonic() >= deadline:
            self.server.rollback()
            raise DeadlineExceeded(
                "server execution overran the request deadline; the batch "
                "was rolled back before verification"
            )
        try:
            if plan is not None:
                response = plan.on_response(response)
        except MessageDropped as exc:
            return None, str(exc), True, None
        verdict = self.client.verify_response(txns, response)
        return verdict, verdict.reason, not verdict.accepted, response

    # -- outcome assembly --------------------------------------------------------

    def _finish_accepted(
        self,
        pending: list[tuple[UserTicket, Transaction]],
        txns: list[Transaction],
        verdict: ClientVerdict,
        response: ServerResponse,
        attempts: int,
    ) -> BatchResult:
        outputs = dict(verdict.outputs or {})
        # Durability barrier first: journal the verified batch (and any due
        # durable checkpoint) before any acknowledgement escapes — ticket
        # resolution included — so a crash here can never leave the caller
        # holding an accepted ticket the WAL does not cover.
        self.batches_verified += 1
        self._record_verified(txns)
        user_outputs: dict[str, list[tuple[int, ...]]] = {}
        for ticket, txn in pending:
            ticket._resolve(True, outputs.get(txn.txn_id, ()), "")
            user_outputs.setdefault(ticket.user, []).append(ticket._outputs)
        result = BatchResult(
            accepted=True,
            reason="",
            num_txns=len(txns),
            attempts=attempts,
            outputs=_frozen_mapping(outputs),
            user_outputs=_frozen_mapping(
                {user: tuple(values) for user, values in user_outputs.items()}
            ),
            tickets=tuple(ticket for ticket, _txn in pending),
            timing=response.timing,
        )
        self.last_result = result
        return result

    def _finish_rejected(
        self,
        pending: list[tuple[UserTicket, Transaction]],
        txns: list[Transaction],
        reason: str,
        attempts: int,
    ) -> BatchResult:
        for ticket, _txn in pending:
            ticket._resolve(False, (), reason)
        result = BatchResult(
            accepted=False,
            reason=reason,
            num_txns=len(txns),
            attempts=attempts,
            tickets=tuple(ticket for ticket, _txn in pending),
            timing=None,
        )
        self.last_result = result
        return result

    def _record_verified(self, txns: list[Transaction]) -> None:
        """Append the verified batch to the recovery anchors.

        The digest log chains the newly verified digest; the command log
        gains the batch (resync's replay input).  Every ``checkpoint_every``
        verified batches the current store contents become the new
        checkpoint and the log resets — a checkpoint is only *provisionally*
        trusted: the next resync re-derives the digest from it and fails
        loudly (``ServerDesyncError``) if it was tampered with.

        With durability on, the WAL append comes *first* — it is the
        pre-acknowledgement barrier — and the periodic checkpoint also
        lands on disk as an atomic checkpoint file.
        """
        encoded = encode_batch(txns)
        self._batch_seq += 1
        if self._manager is not None:
            self._manager.log_batch(self._batch_seq, self.client.digest, encoded)
        self.digest_log.record(self.client.digest, len(txns))
        self._command_log.append(encoded)
        if len(self._command_log) >= self.checkpoint_every:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Re-anchor recovery on the current state: the server's rows and
        provider state become the checkpoint, the command log empties, and
        with durability on the checkpoint lands on disk."""
        self._base_state = self.server.db.snapshot()
        self._anchor = self.server.provider.state()
        self._command_log.clear()
        self._write_durable_checkpoint()
        if self._generator_table is not None:
            self._generator_table.save()

    def _write_durable_checkpoint(self) -> None:
        """Mirror the in-memory checkpoint as an atomic on-disk one."""
        if self._manager is None:
            return
        self._manager.checkpoint(
            seq=self._batch_seq,
            digest=self.client.digest,
            rows=self._base_state,
            provider_state=self._anchor,
            next_txn_id=self._next_id,
            config=asdict(self.server.config),
            group_modulus=self.server.group.modulus,
            group_generator=self.server.group.generator,
            digest_log=self.digest_log.to_records(),
        )

    def close(self) -> None:
        """Release durability resources (sync + close the active segment).

        Idempotent; a session without durability is a no-op.  The WAL stays
        valid without it — ``close`` just flushes the last sync window of
        the ``"batch"`` policy eagerly.
        """
        if self._manager is not None:
            self._manager.close()

    # -- observability -----------------------------------------------------------

    def export(self, exporter: Exporter) -> None:
        """Push the spans the tracer holds and the current metrics snapshot."""
        exporter.export(self.tracer.finished(), self.registry.snapshot())
