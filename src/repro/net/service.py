"""The networked Litmus service: a socket front-end over one ``LitmusSession``.

The paper's deployment model (Sec 1, Fig 1) is a lightweight client talking
to an untrusted server over a network.  :class:`LitmusService` is that
server process: it owns a single (typically WAL-enabled)
:class:`~repro.core.session.LitmusSession` — the execute/prove/verify/
journal pipeline — and exposes it over the length-prefixed wire protocol
of :mod:`repro.net.codec`.  Robustness, not plumbing, is the point:

- **admission control** — every submit/flush is a queued work item for the
  single session worker; the queue is bounded (``queue_limit``) and an
  arrival that finds it full is *shed* with a typed
  :class:`~repro.errors.Overloaded` carrying a retry-after hint derived
  from live queue depth × a moving average of recent service times, so a
  storm degrades into polite backoff instead of collapse;
- **deadlines** — each request carries a client timeout; the service
  propagates it as an absolute deadline into
  :meth:`~repro.core.session.LitmusSession.flush`, which cancels (server
  rollback + re-queue) rather than half-commits when the deadline passes
  mid-execution.  An op that is already expired when the worker dequeues
  it is dropped without touching the session;
- **connection management** — at most ``max_connections`` concurrent
  clients (excess connects are refused with a retry-after), idle
  connections are reaped after ``idle_timeout`` seconds of silence, and
  heartbeat PING frames keep a quiet-but-alive client unreaped;
- **graceful degradation on shutdown** — ``shutdown()`` stops accepting,
  refuses new work with :class:`~repro.errors.ServiceUnavailable`, drains
  every admitted op through the worker (in-flight batches finish and ack
  through the WAL barrier), then closes the session (final fsync +
  durable checkpoint) before tearing connections down;
- **exactly-once for acknowledged work** — txn outcomes land in a bounded
  *result journal* keyed by txn id, and submits are deduplicated by a
  per-client op id, so a client that lost a response can reconnect,
  re-send, and receive the already-committed answer instead of
  double-executing it.

Every behavior is observable: ``net.connections_active``,
``net.connections_total``, ``net.connections_refused``,
``net.queue_depth``, ``net.sheds``, ``net.deadline_hits``,
``net.idle_reaped``, ``net.heartbeats``, ``net.requests``, ``net.errors``,
``net.bytes_sent`` / ``net.bytes_received`` and the
``net.op_seconds`` histogram all flow through :mod:`repro.obs` and the
standard JSONL export.

Proxy mode: pass ``channel=SimulatedChannel(...)`` and every accepted
connection is wrapped in :class:`~repro.net.channel.FaultyTransport`, so
the seeded drop/delay faults of :mod:`repro.faults` (``DropMessage``'s
wire-level cousins) apply to live traffic.  The wrapped session can carry
its own :class:`~repro.faults.FaultPlan` as always, which puts proof
corruption and prover deaths behind the same socket.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..core.api import DigestVector
from ..core.session import LitmusSession
from ..core.sharding import ShardedSession, is_apply_companion
from ..errors import (
    ConnectionLost,
    DeadlineExceeded,
    ReproError,
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
    outputs_to_wire,
)

__all__ = ["LitmusService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the networked service (all robustness dials).

    - ``host``/``port`` — bind address; port 0 picks a free one (the real
      address lands on :attr:`LitmusService.address`);
    - ``max_connections`` — concurrent client cap; excess connects get a
      typed refusal with a retry-after hint, then the socket closes;
    - ``queue_limit`` — admission-queue bound; the overload knob;
    - ``idle_timeout`` — seconds of silence before a connection is reaped
      (heartbeats count as activity);
    - ``default_timeout`` — per-request deadline applied when the client
      does not send one;
    - ``drain_grace`` — seconds shutdown waits for connection threads to
      deliver their final replies before force-closing sockets;
    - ``journal_size`` — resolved-txn results retained for idempotent
      replay (exactly-once acks across reconnects);
    - ``op_cache_size`` — per-process dedup window for submit op ids;
    - ``retry_after_floor`` — minimum shed hint, so clients never spin;
    - ``num_shards`` — how many verified engines the wrapped session must
      have (1 = an unsharded ``LitmusSession``).  Purely a configuration
      cross-check: the session passed to the service carries the real
      shard router, and a mismatch here fails fast at construction
      instead of serving a differently partitioned keyspace than the
      operator asked for.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 32
    queue_limit: int = 64
    idle_timeout: float = 30.0
    default_timeout: float = 30.0
    drain_grace: float = 1.0
    journal_size: int = 4096
    op_cache_size: int = 4096
    retry_after_floor: float = 0.05
    num_shards: int = 1


class _Op:
    """One admitted unit of work, handed from a connection to the worker."""

    __slots__ = ("kind", "client_id", "payload", "deadline", "done", "reply")

    def __init__(self, kind: str, client_id: str, payload: dict, deadline: float):
        self.kind = kind
        self.client_id = client_id
        self.payload = payload
        self.deadline = deadline
        self.done = threading.Event()
        self.reply: tuple[int, dict] | None = None


_STOP = object()


class _CloseRequested(Exception):
    """Internal: the client sent MSG_CLOSE; exit the connection loop."""


class LitmusService:
    """Threaded socket server wrapping one :class:`LitmusSession`.

    *programs* registers the stored procedures clients may name in submit
    messages (merged with any the session already knows); the service
    never deserializes code from the wire — a program name that is not
    registered is a typed ``unknown_program`` error, which is both the
    security posture (clients cannot inject procedures) and the paper's
    model (client and server pre-share the stored procedures).

    ``on_op`` is an instrumentation hook called by the worker thread with
    the op kind just before executing it — tests use it to hold the worker
    and deterministically fill the admission queue; production leaves it
    ``None``.
    """

    def __init__(
        self,
        session: LitmusSession | ShardedSession,
        programs: Iterable[Program] | Mapping[str, Program] = (),
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        channel: SimulatedChannel | None = None,
        on_op: Callable[[str], None] | None = None,
    ):
        self.session = session
        self.config = config or ServiceConfig()
        session_shards = getattr(session, "num_shards", 1)
        if self.config.num_shards != session_shards:
            raise ReproError(
                f"ServiceConfig.num_shards={self.config.num_shards} but the "
                f"wrapped session has {session_shards} shard(s)"
            )
        self.registry = registry if registry is not None else get_metrics()
        self.channel = channel
        self.on_op = on_op
        if isinstance(programs, Mapping):
            registered = dict(programs)
        else:
            registered = {program.name: program for program in programs}
        # Programs the session learned before the service wrapped it.
        registered.update(session._programs)
        # Cross-shard apply companions are never advertised: a client that
        # could name one would write rows without reserve and execute.
        self.programs = {
            name: program
            for name, program in registered.items()
            if not is_apply_companion(name)
        }
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_limit)
        self._staged: dict[str, list] = {}  # client_id -> [(txn_id, ticket)]
        self._journal: OrderedDict[int, dict] = OrderedDict()
        self._op_cache: OrderedDict[tuple[str, int], tuple[int, dict]] = OrderedDict()
        self._connections: list[tuple[threading.Thread, object]] = []
        self._conn_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._accept_thread: threading.Thread | None = None
        self._worker_thread: threading.Thread | None = None
        self._ema_op_seconds = 0.05  # optimistic prior; corrected by real ops

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and spawn the accept + worker threads.

        Returns the bound ``(host, port)``.  Raises ``OSError`` (e.g.
        ``EADDRINUSE``) without leaving threads behind when the bind
        fails — the caller owns reporting that cleanly.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.config.host, self.config.port))
            listener.listen(self.config.max_connections + 8)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._worker_thread = threading.Thread(
            target=self._worker_loop, name="litmus-service-worker", daemon=True
        )
        self._worker_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="litmus-service-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """``start()`` then block until :meth:`shutdown` completes."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Gracefully drain and stop; idempotent and thread-safe.

        The shed/drain state machine: *accepting → draining → stopped*.
        Draining means the listener is closed, every new submit/flush gets
        :class:`~repro.errors.ServiceUnavailable`, and the worker finishes
        every op that was already admitted — an in-flight batch completes
        its verification round and its WAL ack.  Only then is the session
        closed (flushing the WAL's last sync window and final checkpoint)
        and the connections torn down.
        """
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        self._draining.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does (accept fails with EINVAL), so the
            # join below returns at once instead of burning its timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # platforms that refuse shutdown on a listener
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._worker_thread is not None:
            # The sentinel queues *behind* every admitted op: drain, then stop.
            self._queue.put(_STOP)
            self._worker_thread.join()
        # Durability epilogue: the WAL's batch-policy sync window is flushed
        # and the segment closed before any connection is dropped.
        self.session.close()
        # Give connection threads a grace window to deliver final replies,
        # then force-close whatever is still blocked in recv().
        deadline = time.monotonic() + self.config.drain_grace
        with self._conn_lock:
            connections = list(self._connections)
        for thread, _transport in connections:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for _thread, transport in connections:
            transport.close()
        for thread, _transport in connections:
            thread.join(timeout=1.0)
        self._stopped.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- accept / connection threads ---------------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            if self._draining.is_set():
                sock.close()
                break
            transport = self._wrap(sock)
            with self._conn_lock:
                self._connections = [
                    (thread, trans)
                    for thread, trans in self._connections
                    if thread.is_alive()
                ]
                active = len(self._connections)
                if active >= self.config.max_connections:
                    refused = True
                else:
                    refused = False
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(transport,),
                        name="litmus-service-conn",
                        daemon=True,
                    )
                    self._connections.append((thread, transport))
            if refused:
                self.registry.counter("net.connections_refused").inc()
                self._send_quietly(
                    transport,
                    *self._error(
                        "overloaded",
                        f"connection limit of {self.config.max_connections} "
                        "reached",
                        retry_after=self._retry_after_hint(),
                    ),
                )
                transport.close()
            else:
                thread.start()

    def _wrap(self, sock: socket.socket):
        transport = Transport(sock, registry=self.registry)
        if self.channel is not None:
            return FaultyTransport(transport, self.channel)
        return transport

    def _serve_connection(self, transport) -> None:
        self.registry.counter("net.connections_total").inc()
        self.registry.gauge("net.connections_active").add(1)
        client_id: str | None = None
        sock = transport.sock if isinstance(transport, Transport) else transport.transport.sock
        sock.settimeout(self.config.idle_timeout)
        try:
            while True:
                try:
                    frame = transport.recv()
                except TimeoutError:
                    self.registry.counter("net.idle_reaped").inc()
                    break
                except (ConnectionLost, WireFormatError):
                    break
                try:
                    client_id = self._handle_frame(transport, frame, client_id)
                except _CloseRequested:
                    break
                except ConnectionLost:
                    break
                if self._draining.is_set():
                    # The reply (if any) is out; finish the conversation.
                    break
        finally:
            transport.close()
            self.registry.gauge("net.connections_active").add(-1)

    def _handle_frame(self, transport, frame, client_id: str | None) -> str | None:
        """Dispatch one frame; returns the (possibly updated) client id."""
        self.registry.counter("net.requests").inc()
        kind = frame.msg_type
        if kind == MSG_HELLO:
            client_id = str(frame.payload.get("client_id", ""))
            if frame.payload.get("protocol") != PROTOCOL_VERSION:
                transport.send(
                    *self._error(
                        "bad_request",
                        f"unsupported protocol {frame.payload.get('protocol')!r}",
                    )
                )
                return client_id
            transport.send(
                MSG_HELLO_OK,
                {
                    "server": "litmus",
                    "protocol": PROTOCOL_VERSION,
                    "digest": int(self.session.digest),
                    "digest_vector": self._digest_wire(),
                },
            )
            return client_id
        if kind == MSG_PING:
            self.registry.counter("net.heartbeats").inc()
            transport.send(MSG_PONG, {})
            return client_id
        if kind == MSG_STATUS:
            transport.send(MSG_STATUS_OK, self._status())
            return client_id
        if kind == MSG_CLOSE:
            self._send_quietly(transport, MSG_CLOSE_OK, {})
            raise _CloseRequested()
        if kind == MSG_RESOLVE:
            transport.send(MSG_RESOLVED, self._resolve(client_id, frame.payload))
            return client_id
        if kind in (MSG_SUBMIT, MSG_FLUSH):
            if client_id is None:
                transport.send(
                    *self._error("bad_request", "hello must precede work messages")
                )
                return client_id
            reply = self._admit(
                "submit" if kind == MSG_SUBMIT else "flush", client_id, frame.payload
            )
            transport.send(*reply)
            return client_id
        transport.send(
            *self._error("bad_request", f"unexpected {message_name(kind)} frame")
        )
        return client_id

    def _admit(self, kind: str, client_id: str, payload: dict) -> tuple[int, dict]:
        """Admission control: queue the op or shed it, then await the worker."""
        if self._draining.is_set():
            return self._error(
                "unavailable",
                "service is draining for shutdown and refuses new work",
                retry_after=1.0,
            )
        timeout = payload.get("timeout")
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            timeout = self.config.default_timeout
        op = _Op(kind, client_id, payload, time.monotonic() + float(timeout))
        try:
            self._queue.put_nowait(op)
        except queue.Full:
            self.registry.counter("net.sheds").inc()
            hint = self._retry_after_hint()
            return self._error(
                "overloaded",
                f"admission queue is full ({self.config.queue_limit} deep); "
                f"retry in {hint:.3f}s",
                retry_after=hint,
            )
        self.registry.gauge("net.queue_depth").set(self._queue.qsize())
        op.done.wait()
        return op.reply

    # -- the single session worker -------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            op = self._queue.get()
            if op is _STOP:
                break
            self.registry.gauge("net.queue_depth").set(self._queue.qsize())
            start = time.monotonic()
            try:
                if self.on_op is not None:
                    self.on_op(op.kind)
                reply = self._execute_op(op)
            except ReproError as exc:
                self.registry.counter("net.errors").inc()
                reply = self._error("internal", f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 — worker must never die
                self.registry.counter("net.errors").inc()
                reply = self._error("internal", f"{type(exc).__name__}: {exc}")
            finally:
                elapsed = time.monotonic() - start
                self._ema_op_seconds = 0.8 * self._ema_op_seconds + 0.2 * elapsed
                self.registry.histogram("net.op_seconds").observe(elapsed)
            op.reply = reply
            op.done.set()

    def _execute_op(self, op: _Op) -> tuple[int, dict]:
        if time.monotonic() >= op.deadline:
            # Expired while queued: shed without touching the session — the
            # client gave up before we could even start.
            self.registry.counter("net.deadline_hits").inc()
            return self._error(
                "deadline", "request deadline expired while queued"
            )
        if op.kind == "submit":
            return self._execute_submit(op)
        return self._execute_flush(op)

    def _execute_submit(self, op: _Op) -> tuple[int, dict]:
        cache_key = self._cache_key(op)
        if cache_key is not None and cache_key in self._op_cache:
            self.registry.counter("net.op_replays").inc()
            return self._op_cache[cache_key]
        payload = op.payload
        name = payload.get("program")
        program = self.programs.get(name)
        if program is None:
            return self._error(
                "unknown_program",
                f"stored procedure {name!r} is not registered on this server",
            )
        params = payload.get("params")
        user = payload.get("user")
        if (
            not isinstance(user, str)
            or not isinstance(params, dict)
            or not all(
                isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
                for k, v in params.items()
            )
        ):
            return self._error("bad_request", "malformed submit payload")
        # Never let the session auto-flush underneath us — an un-journaled
        # flush would resolve tickets invisibly.  Flush journal-aware first.
        if self.session.queued + 1 >= self.session.max_batch:
            self._flush_session(op.deadline)
        try:
            ticket = self.session.submit(user, program, **params)
        except ReproError as exc:
            return self._error("bad_request", str(exc))
        self._staged.setdefault(op.client_id, []).append((ticket.txn_id, ticket))
        reply = (MSG_TICKET, {"txn_id": ticket.txn_id})
        self._remember(cache_key, reply)
        return reply

    def _execute_flush(self, op: _Op) -> tuple[int, dict]:
        ids = op.payload.get("txns", [])
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            return self._error("bad_request", "flush txn list must be integers")
        batch = {"accepted": True, "reason": "", "attempts": 0, "num_txns": 0}
        if self._staged.get(op.client_id):
            # This client has staged work: drive one real verification
            # round over everything staged (all clients' work batches
            # together, exactly like the in-process session).
            try:
                result = self._flush_session(op.deadline)
            except DeadlineExceeded as exc:
                self.registry.counter("net.deadline_hits").inc()
                return self._error("deadline", str(exc))
            batch = {
                "accepted": result.accepted,
                "reason": result.reason,
                "attempts": result.attempts,
                "num_txns": result.num_txns,
            }
        known = {
            str(txn_id): self._journal[txn_id]
            for txn_id in ids
            if txn_id in self._journal
        }
        staged_ids = {
            txn_id for txn_id, _t in self._staged.get(op.client_id, [])
        }
        unknown = [
            txn_id
            for txn_id in ids
            if txn_id not in self._journal and txn_id not in staged_ids
        ]
        reply = (
            MSG_RESULT,
            {
                "txns": known,
                "unknown": unknown,
                "digest": int(self.session.digest),
                "digest_vector": self._digest_wire(),
                **batch,
            },
        )
        return reply

    def _flush_session(self, deadline: float | None):
        """One journal-aware verification round over everything staged.

        Every staged ticket — this client's and everyone else's — resolves
        here, and each outcome is journaled by txn id *before* the reply
        escapes, so a lost response is replayable forever (well, for
        ``journal_size`` resolutions).  A :class:`DeadlineExceeded` from
        the session means the round was cancelled and re-queued: staging
        stays intact and nothing is journaled.
        """
        result = self.session.flush(deadline=deadline)
        digest = int(self.session.digest)
        for client, items in self._staged.items():
            for txn_id, ticket in items:
                accepted = bool(ticket.resolved and ticket._accepted)
                self._journal[txn_id] = {
                    "accepted": accepted,
                    "outputs": list(ticket._outputs) if accepted else [],
                    "reason": ticket._reason,
                    "digest": digest,
                }
        self._staged.clear()
        while len(self._journal) > self.config.journal_size:
            self._journal.popitem(last=False)
        return result

    def _resolve(self, client_id: str | None, payload: dict) -> dict:
        """Reconnect support: report what happened to a set of txn ids."""
        ids = payload.get("txns", [])
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            return {"txns": {}, "pending": [], "unknown": ids}
        staged_ids = {
            txn_id
            for items in self._staged.values()
            for txn_id, _t in items
        }
        known = {
            str(txn_id): self._journal[txn_id]
            for txn_id in ids
            if txn_id in self._journal
        }
        pending = [t for t in ids if t in staged_ids and str(t) not in known]
        unknown = [t for t in ids if str(t) not in known and t not in pending]
        return {"txns": known, "pending": pending, "unknown": unknown}

    # -- helpers -----------------------------------------------------------------

    def _cache_key(self, op: _Op) -> tuple[str, int] | None:
        op_id = op.payload.get("op")
        if isinstance(op_id, int):
            return (op.client_id, op_id)
        return None

    def _remember(self, cache_key, reply) -> None:
        if cache_key is None:
            return
        self._op_cache[cache_key] = reply
        while len(self._op_cache) > self.config.op_cache_size:
            self._op_cache.popitem(last=False)

    def _retry_after_hint(self) -> float:
        """How long a shed client should wait: depth × recent service time."""
        depth = self._queue.qsize() + 1
        return max(self.config.retry_after_floor, depth * self._ema_op_seconds)

    def _status(self) -> dict:
        with self._conn_lock:
            connections = sum(
                1 for thread, _t in self._connections if thread.is_alive()
            )
        return {
            "digest": int(self.session.digest),
            "digest_vector": self._digest_wire(),
            "shards": getattr(self.session, "num_shards", 1),
            "queued": self._queue.qsize(),
            "staged": sum(len(items) for items in self._staged.values()),
            "connections": connections,
            "draining": self._draining.is_set(),
            "batches_verified": self.session.batches_verified,
        }

    def _digest_wire(self) -> dict:
        """The versioned per-shard digest payload field (LNP1 additive)."""
        return DigestVector.coerce(self.session.digest).to_wire()

    def _error(
        self, code: str, message: str, retry_after: float | None = None
    ) -> tuple[int, dict]:
        payload = {"code": code, "message": message}
        if retry_after is not None:
            payload["retry_after"] = retry_after
        return (MSG_ERROR, payload)

    def _send_quietly(self, transport, msg_type: int, payload: dict) -> None:
        try:
            transport.send(msg_type, payload)
        except ReproError:
            pass
