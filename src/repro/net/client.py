"""``RemoteSession``: the :class:`LitmusSession` surface over a socket.

The remote client mirrors the in-process facade — ``submit`` returns a
:class:`~repro.core.session.UserTicket`, ``flush`` returns a
:class:`~repro.core.session.BatchResult`, ``digest`` is the same
:class:`~repro.core.api.DigestVector` (per-shard components against a
sharded service, length 1 otherwise), ``queued`` / ``last_result`` behave
identically — so application code moves between the embedded, networked
and sharded deployments by swapping the constructor: all three satisfy
:class:`~repro.core.api.VerifiedSession`.

What the wire adds is failure, and the client owns absorbing it:

- **overload** — a shed (:class:`~repro.errors.Overloaded`) carries the
  server's retry-after hint; with a
  :class:`~repro.core.session.RetryPolicy` the client waits
  ``max(hint, backoff)`` (seeded jitter intact) and re-sends.  Without a
  policy the typed error propagates to the caller;
- **deadlines** — ``flush(timeout=...)`` / ``submit`` deadlines ride the
  request so the *server* cancels (rollback + re-queue) instead of
  half-committing, while the client arms its socket with the remaining
  budget and raises :class:`~repro.errors.DeadlineExceeded` the moment it
  expires locally;
- **lost connections and lost responses** — every submit carries a
  client-unique op id (deduplicated server-side) and every flush carries
  the client's outstanding txn ids (resolved from the server's result
  journal), so a reconnect-and-resend is *idempotent*: work the server
  already committed is acknowledged from the journal, never re-executed.
  Only when the server itself restarted and genuinely never saw a txn
  (``unknown`` in the result) does the client re-submit it from its local
  pending copy — acked work is exactly-once, unacked work at-least-once;
- **heartbeats** — :meth:`ping` keeps an idle connection unreaped and
  measures round-trip time; :meth:`status` exposes the server's load
  (queue depth, connections, draining) for polite clients.

The trust boundary does not move: the service wraps a *verifying*
session, so every result this client receives was already checked
against the digest chain server-side (DESIGN.md §12 discusses why the
remote link is an availability boundary, not a verification one).
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..core.api import DigestVector
from ..core.session import BatchResult, RetryPolicy, UserTicket
from ..errors import (
    ConnectionLost,
    DeadlineExceeded,
    MessageDropped,
    NetworkError,
    Overloaded,
    RemoteError,
    ReproError,
    ServiceUnavailable,
    WireFormatError,
)
from ..obs.metrics import MetricsRegistry, get_metrics
from ..sim.network import SimulatedChannel
from ..vc.program import Program
from .channel import FaultyTransport
from .codec import (
    MSG_CLOSE,
    MSG_CLOSE_OK,
    MSG_ERROR,
    MSG_FLUSH,
    MSG_HELLO,
    MSG_HELLO_OK,
    MSG_PING,
    MSG_PONG,
    MSG_RESOLVE,
    MSG_RESOLVED,
    MSG_RESULT,
    MSG_STATUS,
    MSG_STATUS_OK,
    MSG_SUBMIT,
    MSG_TICKET,
    PROTOCOL_VERSION,
    Transport,
    message_name,
)

__all__ = ["RemoteSession"]


@dataclass
class _PendingCall:
    """One submitted-or-pending stored-procedure call, client-side copy.

    The local copy is the resubmission source when a restarted server
    reports the txn id as unknown; *submit_op* is the idempotency key a
    retried submit reuses so the server's op cache can dedup it.
    """

    user: str
    program: str
    params: dict[str, int]
    ticket: UserTicket
    submit_op: int
    txn_id: int | None = None


def _raise_for_error(payload: Mapping) -> None:
    """Map a wire-level ERROR payload onto the typed exception hierarchy."""
    code = str(payload.get("code", "internal"))
    message = str(payload.get("message", "remote error"))
    retry_after = payload.get("retry_after")
    if not isinstance(retry_after, (int, float)):
        retry_after = 0.0
    if code == "overloaded":
        raise Overloaded(message, retry_after=float(retry_after))
    if code == "unavailable":
        raise ServiceUnavailable(message, retry_after=float(retry_after) or 1.0)
    if code == "deadline":
        raise DeadlineExceeded(message)
    raise RemoteError(message, code=code)


class RemoteSession:
    """A networked Litmus client speaking the :mod:`repro.net.codec` protocol.

    Construct with a host/port (see :meth:`connect` for the
    ``"host:port"`` shorthand).  *retry_policy* governs how overload
    sheds, dropped messages, and lost connections are absorbed; without
    one every network failure is single-shot and propagates typed.
    *channel* optionally routes the live socket through a
    :class:`~repro.sim.network.SimulatedChannel` (proxy mode) so seeded
    drops and delays exercise the retry machinery on real connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str | None = None,
        retry_policy: RetryPolicy | None = None,
        max_batch: int = 1024,
        default_timeout: float | None = None,
        io_timeout: float = 30.0,
        connect_timeout: float = 5.0,
        registry: MetricsRegistry | None = None,
        channel: SimulatedChannel | None = None,
        rng: random.Random | None = None,
    ):
        if max_batch < 1:
            raise ReproError("batch capacity must be positive")
        self.address = (host, port)
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:12]}"
        self.retry_policy = retry_policy
        self.max_batch = max_batch
        self.default_timeout = default_timeout
        self.io_timeout = io_timeout
        self.connect_timeout = connect_timeout
        self.registry = registry if registry is not None else get_metrics()
        self.channel = channel
        self.rng = rng
        # The latest server-verified digest this client observed; None
        # until the first HELLO_OK arrives.
        self.digest: DigestVector | None = None
        self.last_result: BatchResult | None = None
        self.reconnects = 0
        self._transport = None
        self._op_seq = 0
        # Calls submitted locally but not yet ticketed by the server (fresh
        # submits retrying, or resubmissions after a server restart) ...
        self._unsent: list[_PendingCall] = []
        # ... and calls the server ticketed but has not resolved yet.
        self._outstanding: dict[int, _PendingCall] = {}
        # Eager connect, under the retry policy: a lossy channel can drop
        # the hello itself, and that must be as absorbable as any later loss.
        self._with_retries(self._ensure_connected, None)

    @classmethod
    def connect(cls, address: str, **kwargs) -> "RemoteSession":
        """``RemoteSession.connect("127.0.0.1:7433", retry_policy=...)``."""
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ReproError(
                f"address {address!r} is not of the form host:port"
            )
        return cls(host, int(port), **kwargs)

    # -- the LitmusSession surface -------------------------------------------------

    @property
    def queued(self) -> int:
        """Unresolved calls this client is carrying (mirrors the session)."""
        return len(self._unsent) + len(self._outstanding)

    def submit(self, user: str, program: Program | str, **params: int) -> UserTicket:
        """Enqueue one stored-procedure call; returns its ticket.

        The server assigns the transaction id, so the ticket's ``txn_id``
        is only final once the submit round-trip succeeds (and may be
        *re*-assigned if a server restart forces a resubmission — the
        ticket object itself stays valid throughout).
        """
        name = program.name if isinstance(program, Program) else str(program)
        call = _PendingCall(
            user=user,
            program=name,
            params=dict(params),
            ticket=UserTicket(user=user, txn_id=-1),
            submit_op=self._next_op(),
        )
        deadline = self._deadline_from(self.default_timeout)
        self._with_retries(lambda: self._submit_call(call, deadline), deadline)
        if self.queued >= self.max_batch:
            self.flush()
        return call.ticket

    def flush(self, timeout: float | None = None) -> BatchResult:
        """Resolve every outstanding call; mirrors ``LitmusSession.flush``.

        Empty queue: the documented no-op, :meth:`BatchResult.empty`,
        without a round-trip.  *timeout* (seconds) arms both ends: the
        server cancels its round when the budget runs out, the client
        raises :class:`~repro.errors.DeadlineExceeded` locally — either
        way nothing is half-acknowledged and a later flush retries.
        """
        if not self.queued:
            return BatchResult.empty()
        calls = list(self._unsent) + list(self._outstanding.values())
        deadline = self._deadline_from(
            timeout if timeout is not None else self.default_timeout
        )
        attempts = self._with_retries(lambda: self._drive_flush(deadline), deadline)
        return self._assemble_result(calls, attempts)

    def ping(self) -> float:
        """Heartbeat round-trip; returns the RTT in seconds."""
        self._ensure_connected()
        start = time.monotonic()
        frame = self._roundtrip(MSG_PING, {}, MSG_PONG, None)
        del frame
        return time.monotonic() - start

    def status(self) -> dict:
        """The server's load snapshot (queue depth, connections, draining)."""
        self._ensure_connected()
        return self._roundtrip(MSG_STATUS, {}, MSG_STATUS_OK, None).payload

    def recover(self, timeout: float | None = None) -> int:
        """Reconnect and resolve outstanding work from the server journal.

        The networked counterpart of ``LitmusSession.recover``: after a
        suspected server restart (or any wedged connection) this drops the
        socket, reconnects under the retry policy, and asks the server's
        result journal about every outstanding txn id via ``RESOLVE``.
        Journaled outcomes resolve their tickets exactly as a flush would;
        ids the server genuinely never saw are recycled into the unsent
        queue for the next :meth:`flush` (at-least-once for unacked work,
        exactly-once for acked).  Returns how many calls were resolved
        from the journal.
        """
        deadline = self._deadline_from(
            timeout if timeout is not None else self.default_timeout
        )
        self._drop_connection()
        resolved = 0

        def _round() -> None:
            nonlocal resolved
            self._ensure_connected()
            if not self._outstanding:
                return
            frame = self._roundtrip(
                MSG_RESOLVE,
                {
                    "txns": sorted(self._outstanding),
                    "timeout": self._remaining(deadline),
                },
                MSG_RESOLVED,
                deadline,
            )
            payload = frame.payload
            entries = payload.get("txns", {})
            if not isinstance(entries, dict):
                raise WireFormatError("resolved frame txns must be an object")
            for key, entry in entries.items():
                try:
                    txn_id = int(key)
                except (TypeError, ValueError) as exc:
                    raise WireFormatError(
                        f"non-integer txn id {key!r} in resolved frame"
                    ) from exc
                call = self._outstanding.pop(txn_id, None)
                if call is None:
                    continue
                call.ticket._resolve(
                    bool(entry.get("accepted")),
                    tuple(entry.get("outputs") or ()),
                    str(entry.get("reason", "")),
                )
                resolved += 1
            for txn_id in payload.get("unknown", []):
                call = self._outstanding.pop(txn_id, None)
                if call is None:
                    continue
                self.registry.counter("net.client_resubmits").inc()
                call.txn_id = None
                call.submit_op = self._next_op()
                self._unsent.append(call)

        self._with_retries(_round, deadline)
        return resolved

    def close(self) -> None:
        """Polite teardown: CLOSE/CLOSE_OK when possible, then disconnect."""
        transport = self._transport
        self._transport = None
        if transport is None:
            return
        try:
            transport.send(MSG_CLOSE, {})
            frame = transport.recv()
            if frame.msg_type not in (MSG_CLOSE_OK, MSG_ERROR):
                raise WireFormatError(
                    f"unexpected {message_name(frame.msg_type)} reply to close"
                )
        except (NetworkError, MessageDropped, TimeoutError, OSError):
            pass
        finally:
            transport.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- wire rounds ---------------------------------------------------------------

    def _submit_call(self, call: _PendingCall, deadline: float | None) -> None:
        self._ensure_connected()
        frame = self._roundtrip(
            MSG_SUBMIT,
            {
                "op": call.submit_op,
                "user": call.user,
                "program": call.program,
                "params": call.params,
                "timeout": self._remaining(deadline),
            },
            MSG_TICKET,
            deadline,
        )
        txn_id = frame.payload.get("txn_id")
        if not isinstance(txn_id, int):
            raise WireFormatError("ticket frame carries no integer txn_id")
        call.txn_id = txn_id
        call.ticket.txn_id = txn_id
        if call in self._unsent:
            self._unsent.remove(call)
        self._outstanding[txn_id] = call

    def _drive_flush(self, deadline: float | None) -> None:
        """One retryable unit: submit stragglers, flush, absorb unknowns.

        Re-derives everything it needs from ``_unsent``/``_outstanding``,
        so a connection lost anywhere inside is safely re-entered by the
        retry wrapper — already-ticketed work dedups via txn ids, already-
        executed work resolves from the server's journal.
        """
        self._ensure_connected()
        while self._unsent or self._outstanding:
            for call in list(self._unsent):
                self._submit_call(call, deadline)
            if not self._outstanding:
                break
            frame = self._roundtrip(
                MSG_FLUSH,
                {
                    "op": self._next_op(),
                    "txns": sorted(self._outstanding),
                    "timeout": self._remaining(deadline),
                },
                MSG_RESULT,
                deadline,
            )
            payload = frame.payload
            self._update_digest(payload)
            entries = payload.get("txns", {})
            if not isinstance(entries, dict):
                raise WireFormatError("result frame txns must be an object")
            for key, entry in entries.items():
                try:
                    txn_id = int(key)
                except (TypeError, ValueError) as exc:
                    raise WireFormatError(
                        f"non-integer txn id {key!r} in result"
                    ) from exc
                call = self._outstanding.pop(txn_id, None)
                if call is None:
                    continue
                accepted = bool(entry.get("accepted"))
                outputs = tuple(entry.get("outputs") or ())
                call.ticket._resolve(
                    accepted, outputs, str(entry.get("reason", ""))
                )
            # Unknown ids mean the server restarted and never saw them:
            # recycle the local copies through the submit path with fresh
            # idempotency keys (the old server's op cache is gone anyway).
            for txn_id in payload.get("unknown", []):
                call = self._outstanding.pop(txn_id, None)
                if call is None:
                    continue
                self.registry.counter("net.client_resubmits").inc()
                call.txn_id = None
                call.submit_op = self._next_op()
                self._unsent.append(call)

    def _roundtrip(
        self,
        msg_type: int,
        payload: dict,
        expected: int,
        deadline: float | None,
    ):
        """Send one frame, await its reply, map errors onto exceptions."""
        transport = self._transport
        self._arm_timeout(deadline)
        transport.send(msg_type, payload)
        try:
            frame = transport.recv()
        except TimeoutError:
            if deadline is not None and time.monotonic() >= deadline:
                # Drop the socket: a late reply arriving after we gave up
                # would desynchronize the next request/reply pairing.
                self._drop_connection()
                self.registry.counter("net.client_deadline_hits").inc()
                raise DeadlineExceeded(
                    f"no reply to {message_name(msg_type)} within the deadline"
                ) from None
            # An io_timeout with no user deadline is a stuck peer: surface
            # it as a lost connection so the retry machinery reconnects.
            self._drop_connection()
            raise ConnectionLost(
                f"no reply to {message_name(msg_type)} within {self.io_timeout}s"
            ) from None
        if frame.msg_type == MSG_ERROR:
            _raise_for_error(frame.payload)
        if frame.msg_type != expected:
            raise WireFormatError(
                f"expected {message_name(expected)}, received "
                f"{message_name(frame.msg_type)}"
            )
        return frame

    # -- connection management -----------------------------------------------------

    def _ensure_connected(self) -> None:
        if self._transport is not None and not self._transport.closed:
            return
        if self._transport is not None:
            self.reconnects += 1
            self.registry.counter("net.client_reconnects").inc()
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ConnectionLost(
                f"cannot reach {self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        sock.settimeout(self.io_timeout)
        transport = Transport(sock, registry=self.registry)
        if self.channel is not None:
            transport = FaultyTransport(transport, self.channel)
        self._transport = transport
        try:
            frame = self._roundtrip(
                MSG_HELLO,
                {"client_id": self.client_id, "protocol": PROTOCOL_VERSION},
                MSG_HELLO_OK,
                None,
            )
        except BaseException:
            self._drop_connection()
            raise
        self._update_digest(frame.payload)

    def _update_digest(self, payload: Mapping) -> None:
        """Prefer the versioned per-shard field; fall back to the scalar."""
        vector = payload.get("digest_vector")
        if isinstance(vector, dict):
            try:
                self.digest = DigestVector.from_wire(vector)
                return
            except (ValueError, TypeError):
                pass  # unknown future version: the scalar still works
        digest = payload.get("digest")
        if isinstance(digest, int):
            self.digest = DigestVector.single(digest)

    def _drop_connection(self) -> None:
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    def _arm_timeout(self, deadline: float | None) -> None:
        # io_timeout always bounds a single wait — even under a longer
        # user deadline — so a lost reply is detected and retried early
        # instead of silently eating the whole budget.
        sock = (
            self._transport.sock
            if isinstance(self._transport, Transport)
            else self._transport.transport.sock
        )
        remaining = self._remaining(deadline)
        if remaining is None:
            sock.settimeout(self.io_timeout)
        else:
            sock.settimeout(max(min(remaining, self.io_timeout), 0.001))

    # -- retry machinery -----------------------------------------------------------

    def _with_retries(self, fn, deadline: float | None) -> int:
        """Run *fn* under the retry policy; returns the attempt count.

        Overload sheds wait ``max(server hint, backoff)``; lost
        connections and simulated drops reconnect and re-enter (idempotent
        by op ids and the server journal).  Deadline and protocol errors
        are never retried — they are answers, not noise.  Exhausting the
        policy re-raises the last failure, typed.
        """
        policy = self.retry_policy or RetryPolicy(max_attempts=1)
        attempt = 0
        while True:
            attempt += 1
            self._check_deadline(deadline)
            hint: float | None = None
            try:
                fn()
                return attempt
            except (Overloaded, ServiceUnavailable) as exc:
                self.registry.counter("net.client_sheds_seen").inc()
                hint = exc.retry_after
                failure = exc
            except (ConnectionLost, MessageDropped) as exc:
                self._drop_connection()
                failure = exc
            if attempt >= policy.max_attempts:
                raise failure
            delay = policy.delay(attempt, rng=self.rng, retry_after=hint)
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    self._check_deadline(deadline)
                delay = min(delay, max(budget, 0.0))
            if delay > 0:
                policy.sleep(delay)

    def _check_deadline(self, deadline: float | None) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            self.registry.counter("net.client_deadline_hits").inc()
            raise DeadlineExceeded(
                "client-side deadline expired; unresolved work stays queued "
                "for the next flush"
            )

    def _deadline_from(self, timeout: float | None) -> float | None:
        if timeout is None:
            return None
        return time.monotonic() + timeout

    def _remaining(self, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        return max(deadline - time.monotonic(), 0.0)

    def _next_op(self) -> int:
        self._op_seq += 1
        return self._op_seq

    # -- result assembly -----------------------------------------------------------

    def _assemble_result(self, calls: list[_PendingCall], attempts: int) -> BatchResult:
        resolved = [call for call in calls if call.ticket.resolved]
        outputs: dict[int, tuple[int, ...]] = {}
        user_outputs: dict[str, list[tuple[int, ...]]] = {}
        accepted = bool(resolved)
        reason = ""
        for call in resolved:
            ticket = call.ticket
            if ticket._accepted:
                outputs[ticket.txn_id] = ticket._outputs
                user_outputs.setdefault(call.user, []).append(ticket._outputs)
            else:
                accepted = False
                if not reason:
                    reason = ticket._reason
        result = BatchResult(
            accepted=accepted,
            reason=reason,
            num_txns=len(resolved),
            attempts=attempts,
            outputs=MappingProxyType(outputs),
            user_outputs=MappingProxyType(
                {user: tuple(values) for user, values in user_outputs.items()}
            ),
            tickets=tuple(call.ticket for call in resolved),
            timing=None,
        )
        self.last_result = result
        return result
