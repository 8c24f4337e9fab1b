"""Exception hierarchy for the Litmus reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish protocol violations (a *detected attack*) from
programming errors (misuse of the API).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CryptoError(ReproError):
    """A cryptographic primitive was used incorrectly or failed internally."""


class PrimalityError(CryptoError):
    """A value that was required to be prime is not prime."""


class CertificateError(CryptoError):
    """A Pocklington primality certificate failed verification."""


class CategoryError(CryptoError):
    """A prime does not belong to the claimed prime category."""


class ProofError(CryptoError):
    """A cryptographic proof failed to verify.

    Raised by verifiers when a lookup proof, non-membership proof,
    proof-of-exponentiation, or VC proof does not check out.  In the threat
    model of the paper this signals a malicious or faulty server.
    """


class ConstraintViolation(ReproError):
    """A circuit witness does not satisfy the constraint system.

    The simulated SNARK prover refuses to produce a proof for an unsatisfied
    statement; this is the simulation-level analogue of SNARK soundness.
    """


class CircuitMismatch(ReproError):
    """The server-supplied circuit does not match the client's local circuits."""


class IntegrityError(ReproError):
    """A memory-integrity check failed: the server returned tampered data."""


class TransactionError(ReproError):
    """A transaction was malformed or used the execution context illegally."""


class ConcurrencyError(ReproError):
    """The concurrency-control layer reached an invalid state."""


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class VerificationFailure(ReproError):
    """The client rejected a server response (proof or digest chain invalid)."""


class CommandLogError(ReproError):
    """A command log could not be decoded (truncated, corrupt, or foreign).

    The command log is a recovery-critical artifact — ``resync()`` replays
    it to re-derive a trusted digest — so decoding failures must be typed
    and catchable rather than leaking ``zlib.error`` / ``KeyError`` /
    ``json.JSONDecodeError`` from the codec internals.
    """


class WalError(ReproError):
    """The durable write-ahead log is malformed or was misused.

    Covers unreadable segment framing, sequence-number gaps that survive
    the torn-tail truncation pass, and opening a directory that already
    holds durable state without going through ``LitmusSession.recover``.
    """


class DurabilityError(WalError):
    """The storage layer could not make a write durable — and said so.

    Raised by the WAL / checkpoint / intent-journal writers when the
    filesystem refuses an operation in a way retrying cannot honestly fix:
    a failed ``fsync`` (after which the kernel may have dropped the dirty
    pages *and cleared the error* — the fsyncgate lesson, so re-running
    fsync and believing its success would acknowledge data that never
    reached the platter), an ``ENOSPC``/``EIO`` write that a rescue
    rotation could not absorb, or a failed checkpoint rename.  The failing
    handle is *poisoned*: every later append through it raises this same
    error instead of pretending.

    Always raised **before** any user ticket resolves, so an acknowledged
    batch is never behind a lying disk.  Like
    :class:`SimulatedCrash`, this is session-fatal: callers must abandon
    the session object and drive ``recover()`` against the directory —
    which treats the never-synced tail as untrusted and truncates it.
    """

    def __init__(self, message: str, *, op: str = "", path: str = ""):
        super().__init__(message)
        self.op = op
        self.path = path


class CheckpointError(WalError):
    """No valid checkpoint could be loaded from a durability directory.

    Either the directory holds no checkpoint files at all, or every
    candidate failed validation (bad format tag, checksum mismatch,
    undecodable contents).  A checkpoint that validates structurally but
    whose *contents* disagree with the verified digest raises
    :class:`ServerDesyncError` instead — that distinction matters, because
    a checksum failure means storage corruption while a digest failure
    means the durable history itself diverged.
    """


class RecoveryError(ReproError):
    """Restart recovery of a sharded deployment failed in a typed way.

    Raised by :meth:`repro.core.sharding.ShardedSession.recover` when the
    durable layout is unusable (a ``shard-NN`` directory is missing or
    renamed, or the cross-shard intent journal names more shards than the
    directory holds), when a shard's replay dies with an untyped internal
    error (wrapped here, naming the shard), or when in-doubt cross-shard
    resolution cannot reconcile a participant's digest with the journaled
    watermark.  Always carries enough context to name the offending shard.
    """


class FaultInjected(ReproError):
    """Base class for failures raised *by* the fault-injection layer.

    These model infrastructure misbehavior (a crashed prover worker, a
    dropped message), not detected attacks: the recovery machinery is
    expected to absorb them via rollback + retry.
    """


class ProverKilled(FaultInjected):
    """A fault plan killed a prover-pool worker mid-batch."""


class MessageDropped(FaultInjected):
    """The (simulated) network dropped a client/server message."""


class SimulatedCrash(FaultInjected):
    """A :class:`repro.faults.CrashPoint` simulated process death.

    Deliberately never caught by the library: it must propagate out of
    ``flush()`` exactly like a real crash would end the process, leaving
    whatever the durability layer already made it to disk.  Tests (and the
    ``--recover`` CLI demo) catch it at top level, abandon the session
    object, and drive ``LitmusSession.recover`` against the directory.
    """


class ProofCorruptionDetected(ReproError):
    """The server's proving pipeline failed to produce a sound batch proof.

    Raised by :meth:`repro.core.server.LitmusServer.execute_batch` after it
    has rolled its own state back to the pre-batch snapshot — e.g. when a
    prover worker died mid-batch.  The batch had no effect; callers may
    retry it.
    """


class ServerDesyncError(ReproError):
    """Client and server digests cannot be reconciled by ``resync()``.

    Replaying the trusted command log from the last verified checkpoint
    produced a digest that still disagrees with the client's — the server's
    durable state (not just its in-memory digest) has diverged from the
    verified history, which recovery cannot paper over.
    """


class AnchorMismatchError(ServerDesyncError):
    """A recovery anchor's parts disagree.

    Recovery replays from the checkpoint's store rows and rolls forward the
    exponent product of the checkpoint's provider ``(store, product,
    digest, factors)`` state.  A provider store that differs from those
    rows, or journaled primes that cover other keys than the store, cannot
    anchor both, so recovery refuses them before hashing anything.
    """


class RetryExhausted(ReproError):
    """``LitmusSession.flush`` gave up after ``RetryPolicy.max_attempts``.

    Carries the last rejection reason as ``args[0]``; the attempt count is
    available as the ``attempts`` attribute.
    """

    def __init__(self, reason: str, attempts: int):
        super().__init__(reason)
        self.attempts = attempts


class DeadlineExceeded(ReproError):
    """A per-request deadline expired before the work could be acknowledged.

    Raised client-side when the response did not arrive within the caller's
    timeout, and server-side when :meth:`repro.core.session.LitmusSession.flush`
    finds the propagated deadline already expired at a stage boundary.  In
    the server-side case the session has *cancelled* the round: the server
    was rolled back to the last client-verified state and the un-acknowledged
    transactions were re-queued, so nothing is lost and nothing desyncs —
    a later flush (or a retry with a longer deadline) picks them up.
    """


class NetworkError(ReproError):
    """Base class for the client/server transport layer (:mod:`repro.net`).

    Everything that can go wrong *between* the session and its caller when
    they are separated by a socket derives from here, so applications can
    separate "the network misbehaved" (retryable) from "verification
    failed" (an attack) with two except clauses.
    """


class WireFormatError(NetworkError):
    """A frame on the wire is malformed or speaks an incompatible version.

    Covers bad magic, unknown protocol versions, oversized or truncated
    length prefixes, CRC mismatches, and undecodable payloads.  The framing
    layer treats these as fatal for the connection — after a framing error
    the stream offset can no longer be trusted.
    """


class ConnectionLost(NetworkError):
    """The peer closed (or the transport tore down) mid-conversation.

    Retryable: the client reconnects and uses the idempotent resolve path
    to find out what the server actually committed before re-sending.
    """


class Overloaded(NetworkError):
    """The server shed this request because its admission queue is full.

    Carries ``retry_after`` — the server's own estimate (seconds) of when
    capacity will free up, derived from the live queue depth and a moving
    average of recent service times.  :class:`repro.core.session.RetryPolicy`
    honors the hint: the retry delay becomes ``max(hint, backoff)``.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailable(NetworkError):
    """The server refused new work because it is draining for shutdown.

    Unlike :class:`Overloaded` this is not a capacity signal — the server
    is going away.  ``retry_after`` hints how long a restart supervisor
    typically needs; clients should reconnect, not hammer.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class RemoteError(NetworkError):
    """The server answered with a typed application error.

    Carries the wire error ``code`` (``"unknown_program"``,
    ``"bad_request"``, ``"internal"``, ...) so callers can branch without
    string-matching the human-readable message.
    """

    def __init__(self, message: str, code: str = "internal"):
        super().__init__(message)
        self.code = code


class ClientAPIError(ReproError):
    """Misuse of the client-facing session surface (tickets, batches).

    The consolidated root for everything :class:`repro.core.session`
    raises, so applications embedding Litmus can separate "I used the API
    wrong" (:class:`ClientAPIError`) from "the server misbehaved"
    (:class:`VerificationFailure`) with two except clauses.
    """


class TicketUnresolvedError(ClientAPIError):
    """A :class:`~repro.core.session.UserTicket` was read before its batch
    flushed; call ``session.flush()`` first."""


class BatchRejectedError(ClientAPIError):
    """Outputs were requested from a ticket whose batch failed verification.

    Carries the client's rejection reason as ``args[0]``; the paper's threat
    model treats this as a detected server attack, not a user error, so it
    is deliberately loud rather than a sentinel value.
    """


class BenchError(ReproError):
    """Base class for the experiment orchestrator (:mod:`repro.bench.experiment`).

    Everything the trial runner, result schema, trajectory store, and perf
    gate raise derives from this, so the CLI can turn any orchestration
    failure into a one-line diagnosis with a single except clause.
    """


class TrialSpecError(BenchError):
    """A trial declaration is invalid: malformed name, conflicting
    re-registration of an existing trial under different parameters, or a
    lookup of a trial/area that was never registered."""


class TrialExecutionError(BenchError):
    """A trial runner failed while being executed by the orchestrator.

    Wraps whatever the underlying benchmark raised so callers see a typed
    bench-layer error with the trial name, not a bare assertion from three
    layers down.
    """


class TrialTimeout(TrialExecutionError):
    """A trial exceeded its :attr:`TrialSpec.timeout_seconds` budget."""


class TrialNondeterminism(TrialExecutionError):
    """Repeated executions of one seeded trial disagreed on the
    deterministic counters (txns, batches, conflicts, ...).

    The counts of a seeded trial are part of its identity hash; if they
    wander between repeats the trajectory would be meaningless, so the
    runner refuses to record anything.
    """


class BenchSchemaError(BenchError):
    """A trial record violates the versioned result schema: missing or
    unknown fields, wrong types, a headline metric that does not exist, or
    an identity hash that no longer matches the deterministic fields."""


class SchemaVersionError(BenchSchemaError):
    """A record or trajectory carries a different ``schema_version`` than
    this code understands.  Carries ``found`` and ``expected`` attributes
    so tooling can say which side is stale."""

    def __init__(self, message: str, *, found: object, expected: int):
        super().__init__(message)
        self.found = found
        self.expected = expected


class TrajectoryError(BenchError):
    """A ``BENCH_<area>.json`` trajectory file is unreadable or corrupt.

    All the raw failure modes underneath (``json.JSONDecodeError``,
    ``KeyError``, ``TypeError``, ``OSError``) are wrapped so callers never
    see an untyped internal error from a damaged trajectory.
    """
