"""The networked service: overload, deadlines, graceful shutdown, recovery.

The three acceptance stories from the robustness issue are here:

- **overload** — a full admission queue sheds with a typed ``Overloaded``
  carrying a retry-after hint, nothing desyncs, and a ``RemoteSession``
  with a ``RetryPolicy`` eventually commits everything;
- **graceful shutdown** — work in flight when ``shutdown()`` starts is
  drained and durably acked through the WAL, new work is refused typed,
  new connections are refused, and ``LitmusSession.recover`` finds zero
  lost acknowledged batches;
- **deadlines** — a client deadline fires locally, the server cancels the
  stale op without touching the session, the transactions survive for the
  next flush, and the ``net.*`` metrics land in the JSONL export.

The worker gate (the service's ``on_op`` hook) makes all three
deterministic: tests hold the single session worker at an op boundary,
fill or expire the queue at leisure, then release it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import LitmusConfig, LitmusSession, RetryPolicy
from repro.core.session import DurabilityConfig
from repro.errors import (
    ConnectionLost,
    DeadlineExceeded,
    Overloaded,
    RemoteError,
    ServiceUnavailable,
)
from repro.net import LitmusService, RemoteSession, ServiceConfig
from repro.obs import JsonLinesExporter, read_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.sim import NetworkModel, SimulatedChannel
from repro.vc.program import (
    Add,
    Emit,
    KeyTemplate,
    Param,
    Program,
    ReadStmt,
    ReadVal,
    Sub,
    WriteStmt,
)

TRANSFER = Program(
    name="net-transfer",
    params=("src", "dst", "amount"),
    statements=(
        ReadStmt("s", KeyTemplate(("acct", Param("src")))),
        ReadStmt("d", KeyTemplate(("acct", Param("dst")))),
        WriteStmt(
            KeyTemplate(("acct", Param("src"))), Sub(ReadVal("s"), Param("amount"))
        ),
        WriteStmt(
            KeyTemplate(("acct", Param("dst"))), Add(ReadVal("d"), Param("amount"))
        ),
        Emit(Add(ReadVal("s"), ReadVal("d"))),
    ),
)

NUM_ACCOUNTS = 8
CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)


class WorkerGate:
    """Deterministic control of the service worker via the on_op hook."""

    def __init__(self):
        self.open = threading.Event()
        self.open.set()
        self.entered = threading.Event()
        self.kinds: list[str] = []

    def __call__(self, kind: str) -> None:
        self.kinds.append(kind)
        self.entered.set()
        self.open.wait(timeout=30.0)

    def hold(self) -> None:
        self.open.clear()
        self.entered.clear()

    def release(self) -> None:
        self.open.set()


@pytest.fixture
def harness(group, tmp_path):
    """A running service over a fresh session; yields a small toolbox."""
    started = []

    class Harness:
        def __init__(self):
            self.registry = MetricsRegistry()
            self.gate = WorkerGate()
            self.session = None
            self.service = None
            self.address = None

        def start(self, durable=False, **config):
            durability = (
                DurabilityConfig(directory=str(tmp_path / "wal"))
                if durable
                else None
            )
            self.session = LitmusSession.create(
                initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
                config=CONFIG,
                group=group,
                registry=self.registry,
                durability=durability,
            )
            self.service = LitmusService(
                self.session,
                programs=[TRANSFER],
                config=ServiceConfig(**config),
                registry=self.registry,
                on_op=self.gate,
            )
            self.address = self.service.start()
            started.append(self.service)
            return self.address

        def client(self, **kwargs):
            host, port = self.address
            kwargs.setdefault("registry", self.registry)
            return RemoteSession(host, port, **kwargs)

    yield Harness()
    for service in started:
        service.shutdown()


class TestHappyPath:
    def test_submit_flush_resolves_and_digests_match(self, harness):
        harness.start()
        client = harness.client()
        tickets = [
            client.submit("alice", "net-transfer", src=i, dst=i + 1, amount=10)
            for i in range(3)
        ]
        result = client.flush()
        assert result.accepted and result.num_txns == 3
        assert all(ticket.resolved and ticket.accepted for ticket in tickets)
        assert client.digest == harness.session.digest
        assert client.queued == 0
        client.close()

    def test_two_clients_share_one_verified_history(self, harness):
        harness.start()
        a, b = harness.client(), harness.client()
        ta = a.submit("alice", "net-transfer", src=0, dst=1, amount=5)
        tb = b.submit("bob", "net-transfer", src=2, dst=3, amount=5)
        # a's flush batches everything staged; b resolves from the journal.
        assert a.flush().accepted
        assert b.flush().accepted
        assert ta.accepted and tb.accepted
        assert a.digest == b.digest == harness.session.digest
        a.close()
        b.close()

    def test_unknown_program_is_a_typed_remote_error(self, harness):
        harness.start()
        client = harness.client()
        with pytest.raises(RemoteError) as excinfo:
            client.submit("alice", "no-such-proc", x=1)
        assert excinfo.value.code == "unknown_program"
        client.close()

    def test_status_and_ping(self, harness):
        harness.start()
        client = harness.client()
        assert client.ping() < 5.0
        status = client.status()
        assert status["draining"] is False
        assert status["connections"] == 1
        assert status["digest"] == harness.session.digest
        client.close()


class TestOverload:
    def test_full_queue_sheds_typed_and_retry_policy_recovers(self, harness):
        harness.start(queue_limit=2)
        warmup = harness.client()
        warmup.submit("warm", "net-transfer", src=6, dst=7, amount=1)

        # Hold the worker, then stuff the 2-deep admission queue through
        # no-retry clients running in their own threads.
        harness.gate.hold()
        blocked_clients = [harness.client() for _ in range(2)]
        blocker = harness.client()
        threads = [
            threading.Thread(
                target=lambda: blocker.submit(
                    "blocker", "net-transfer", src=0, dst=1, amount=1
                )
            )
        ]
        threads[0].start()
        assert harness.gate.entered.wait(timeout=10.0)  # worker held mid-op

        for i, client in enumerate(blocked_clients):
            thread = threading.Thread(
                target=lambda c=client, n=i: c.submit(
                    f"fill{n}", "net-transfer", src=2, dst=3, amount=1
                )
            )
            thread.start()
            threads.append(thread)
        deadline = time.monotonic() + 10.0
        while (
            harness.service._queue.qsize() < 2 and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert harness.service._queue.qsize() == 2

        shed_client = harness.client()
        with pytest.raises(Overloaded) as excinfo:
            shed_client.submit("shed", "net-transfer", src=4, dst=5, amount=1)
        assert excinfo.value.retry_after > 0.0
        assert harness.registry.counter("net.sheds").value >= 1

        # A retry-policy client keeps re-sending (honoring the hint) and
        # eventually commits once the worker is released.
        releaser = threading.Timer(0.2, harness.gate.release)
        releaser.start()
        patient = harness.client(
            retry_policy=RetryPolicy(max_attempts=50, backoff=0.02)
        )
        ticket = patient.submit("patient", "net-transfer", src=4, dst=5, amount=1)
        for thread in threads:
            thread.join(timeout=10.0)
        releaser.join()

        result = patient.flush()
        assert result.accepted
        assert ticket.accepted
        # No desync anywhere: every client converges on the session digest.
        assert patient.digest == harness.session.digest
        for client in blocked_clients:
            assert client.flush().accepted
            assert client.digest == harness.session.digest
        assert warmup.flush().accepted
        assert blocker.flush().accepted
        for client in (warmup, blocker, patient, shed_client, *blocked_clients):
            client.close()

    def test_connection_limit_refuses_with_retry_after(self, harness):
        harness.start(max_connections=1)
        first = harness.client()
        with pytest.raises((Overloaded, ConnectionLost)) as excinfo:
            harness.client()
        if isinstance(excinfo.value, Overloaded):
            assert excinfo.value.retry_after > 0.0
        assert harness.registry.counter("net.connections_refused").value == 1
        first.close()

    def test_sheds_land_in_the_jsonl_export(self, harness, tmp_path):
        harness.start(queue_limit=1)
        harness.gate.hold()
        blocker = harness.client()
        filler = harness.client()
        t = threading.Thread(
            target=lambda: blocker.submit(
                "blocker", "net-transfer", src=0, dst=1, amount=1
            )
        )
        t.start()
        harness.gate.entered.wait(timeout=10.0)
        t2 = threading.Thread(
            target=lambda: _swallow(
                Overloaded,
                lambda: filler.submit(
                    "fill", "net-transfer", src=0, dst=1, amount=1
                ),
            )
        )
        t2.start()
        deadline = time.monotonic() + 10.0
        while (
            harness.service._queue.qsize() < 1 and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        shed = harness.client()
        with pytest.raises(Overloaded):
            shed.submit("shed", "net-transfer", src=0, dst=1, amount=1)
        harness.gate.release()
        t.join(timeout=10.0)
        t2.join(timeout=10.0)

        path = tmp_path / "net-metrics.jsonl"
        JsonLinesExporter(str(path)).export((), harness.registry.snapshot())
        names = {
            record["name"]
            for record in read_jsonl(str(path))
            if record.get("kind") == "metric"
        }
        assert {
            "net.sheds",
            "net.queue_depth",
            "net.connections_active",
        } <= names
        for client in (blocker, filler, shed):
            client.close()


def _swallow(exc_type, fn):
    try:
        fn()
    except exc_type:
        pass


class TestDeadlines:
    def test_client_deadline_cancels_cleanly_and_work_survives(
        self, harness, tmp_path
    ):
        harness.start()
        client = harness.client()
        ticket = client.submit("alice", "net-transfer", src=0, dst=1, amount=10)
        digest_before = harness.session.digest

        harness.gate.hold()
        with pytest.raises(DeadlineExceeded):
            client.flush(timeout=0.3)
        # Cancelled, not half-committed: the ticket is unresolved, the
        # transaction still queued client-side, the digest unmoved.
        assert not ticket.resolved
        assert client.queued == 1
        assert harness.session.digest == digest_before
        assert harness.registry.counter("net.client_deadline_hits").value >= 1

        # The stale flush op is still in the worker's hands; releasing the
        # gate lets the server notice the expired deadline and drop it
        # without touching the session.
        harness.gate.release()
        deadline = time.monotonic() + 10.0
        while (
            harness.registry.counter("net.deadline_hits").value < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert harness.registry.counter("net.deadline_hits").value >= 1
        assert harness.session.digest == digest_before

        # A fresh flush with breathing room commits the surviving work.
        result = client.flush(timeout=30.0)
        assert result.accepted and result.num_txns == 1
        assert ticket.accepted
        assert client.digest == harness.session.digest != digest_before

        # The deadline trail is visible in the standard JSONL export.
        path = tmp_path / "deadline-metrics.jsonl"
        JsonLinesExporter(str(path)).export((), harness.registry.snapshot())
        names = {
            record["name"]
            for record in read_jsonl(str(path))
            if record.get("kind") == "metric"
        }
        assert {
            "net.deadline_hits",
            "net.queue_depth",
            "net.connections_active",
        } <= names
        client.close()

    def test_expired_op_is_shed_before_touching_the_session(self, harness):
        harness.start(default_timeout=0.2)
        client = harness.client()
        client.submit("alice", "net-transfer", src=0, dst=1, amount=10)
        batches_before = harness.session.batches_verified
        harness.gate.hold()
        with pytest.raises((DeadlineExceeded, ConnectionLost)):
            client.flush(timeout=0.25)
        harness.gate.release()
        time.sleep(0.3)
        assert harness.session.batches_verified == batches_before
        client.close()


class TestGracefulShutdown:
    def test_drain_acks_in_flight_work_and_recovery_finds_it(
        self, harness, tmp_path, group
    ):
        harness.start(durable=True)
        client = harness.client()
        tickets = [
            client.submit("alice", "net-transfer", src=i, dst=i + 1, amount=5)
            for i in range(2)
        ]
        bystander = harness.client()

        # Put a flush in flight: the op reaches the worker, which we hold
        # at the boundary — exactly the moment a SIGTERM would land.
        harness.gate.hold()
        flush_result = {}
        flusher = threading.Thread(
            target=lambda: flush_result.update(result=client.flush())
        )
        flusher.start()
        assert harness.gate.entered.wait(timeout=10.0)

        shutdown_thread = threading.Thread(target=harness.service.shutdown)
        shutdown_thread.start()
        deadline = time.monotonic() + 10.0
        while not harness.service.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert harness.service.draining

        # New work is refused typed while draining ...
        with pytest.raises((ServiceUnavailable, ConnectionLost)):
            bystander.submit("bob", "net-transfer", src=2, dst=3, amount=1)

        # ... but the in-flight batch completes and acks durably.
        harness.gate.release()
        flusher.join(timeout=30.0)
        shutdown_thread.join(timeout=30.0)
        assert not shutdown_thread.is_alive()
        result = flush_result.get("result")
        assert result is not None and result.accepted
        assert all(ticket.accepted for ticket in tickets)
        acked_digest = client.digest
        client.close()
        bystander.close()

        # New connections are refused after shutdown.
        host, port = harness.address
        with pytest.raises(ConnectionLost):
            RemoteSession(host, port, connect_timeout=1.0)

        # Zero lost acknowledged batches: a fresh process recovers the
        # directory to exactly the digest the client holds.
        recovered = LitmusSession.recover(
            str(tmp_path / "wal"), [TRANSFER], group=group
        )
        assert recovered.digest == acked_digest
        assert recovered.recovery_report.replayed_batches >= 1
        recovered.close()

    def test_shutdown_is_idempotent(self, harness):
        harness.start()
        harness.service.shutdown()
        harness.service.shutdown()
        assert harness.service.draining

    def test_idle_shutdown_wakes_the_acceptor_promptly(self, harness):
        """Regression: closing the listener does not wake a blocked
        ``accept()`` on Linux, so every shutdown used to burn the accept
        thread's full 5 s join timeout."""
        harness.start()
        start = time.monotonic()
        harness.service.shutdown()
        elapsed = time.monotonic() - start
        assert not harness.service._accept_thread.is_alive()
        assert elapsed < 1.0, f"idle shutdown took {elapsed:.2f}s"


class TestIdempotencyAndReaping:
    def test_duplicate_submit_op_dedups(self, harness):
        harness.start()
        client = harness.client()
        ticket = client.submit("alice", "net-transfer", src=0, dst=1, amount=5)
        # Re-send the identical submit op by hand (a retry after a lost
        # response): the op cache must answer with the same txn id and the
        # server must not stage the work twice.
        from repro.net.codec import MSG_SUBMIT, MSG_TICKET

        frame = client._roundtrip(
            MSG_SUBMIT,
            {
                "op": 1,  # the first submit's op id
                "user": "alice",
                "program": "net-transfer",
                "params": {"src": 0, "dst": 1, "amount": 5},
                "timeout": 5.0,
            },
            MSG_TICKET,
            None,
        )
        assert frame.payload["txn_id"] == ticket.txn_id
        assert harness.registry.counter("net.op_replays").value == 1
        result = client.flush()
        assert result.accepted and result.num_txns == 1
        client.close()

    def test_lost_result_resolves_from_the_journal(self, harness):
        harness.start()
        client = harness.client()
        ticket = client.submit("alice", "net-transfer", src=0, dst=1, amount=5)
        assert client.flush().accepted
        batches = harness.session.batches_verified
        # A second flush naming the already-resolved txn id (the retry a
        # client whose result frame was lost would send) answers from the
        # journal without re-executing anything.
        from repro.net.codec import MSG_FLUSH, MSG_RESULT

        frame = client._roundtrip(
            MSG_FLUSH,
            {"op": 99, "txns": [ticket.txn_id], "timeout": 5.0},
            MSG_RESULT,
            None,
        )
        entry = frame.payload["txns"][str(ticket.txn_id)]
        assert entry["accepted"] is True
        assert tuple(entry["outputs"]) == ticket.outputs
        assert harness.session.batches_verified == batches
        client.close()

    def test_idle_connections_are_reaped(self, harness):
        harness.start(idle_timeout=0.2)
        client = harness.client()
        deadline = time.monotonic() + 10.0
        while (
            harness.registry.counter("net.idle_reaped").value < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert harness.registry.counter("net.idle_reaped").value == 1
        # The reaped client notices on its next call and reconnects
        # transparently when it has a retry policy.
        patient = harness.client(
            retry_policy=RetryPolicy(max_attempts=3, backoff=0.0)
        )
        client.close()
        patient.close()

    def test_heartbeats_keep_a_quiet_connection_alive(self, harness):
        harness.start(idle_timeout=0.4)
        client = harness.client()
        for _ in range(4):
            time.sleep(0.15)
            client.ping()
        assert harness.registry.counter("net.idle_reaped").value == 0
        assert harness.registry.counter("net.heartbeats").value == 4
        client.close()


class TestProxyMode:
    def test_lossy_client_channel_still_commits_everything(self, harness):
        harness.start()
        channel = SimulatedChannel(
            model=NetworkModel(rtt_seconds=0.0),
            seed=1234,
            drop_probability=0.25,
        )
        client = harness.client(
            channel=channel,
            io_timeout=0.3,
            retry_policy=RetryPolicy(max_attempts=30, backoff=0.01),
        )
        tickets = [
            client.submit("alice", "net-transfer", src=i, dst=i + 1, amount=2)
            for i in range(3)
        ]
        result = client.flush()
        assert result.accepted
        assert all(ticket.accepted for ticket in tickets)
        assert client.digest == harness.session.digest
        assert channel.dropped >= 1  # the seed really exercised loss
        client.close()


class TestRecover:
    """``RemoteSession.recover``: the journal-backed resolve round.

    The state under test is a client whose connection died mid-flush with
    calls stranded in ``_outstanding`` — some the server journaled before
    the loss, some it never saw.  The tests reconstruct that state
    directly (white-box, since tearing a real socket at the exact frame
    boundary is nondeterministic) and drive the public ``recover()``.
    """

    def _stranded_call(self, client, txn_id, **params):
        from repro.core.session import UserTicket
        from repro.net.client import _PendingCall

        call = _PendingCall(
            user="alice",
            program="net-transfer",
            params=params,
            ticket=UserTicket(user="alice", txn_id=txn_id),
            submit_op=client._next_op(),
            txn_id=txn_id,
        )
        client._outstanding[txn_id] = call
        return call

    def test_recover_resolves_journaled_and_recycles_unknown(self, harness):
        harness.start()
        a = harness.client()
        ticket = a.submit("alice", "net-transfer", src=0, dst=1, amount=5)
        assert a.flush().accepted

        # A second client that "died" holding two outstanding calls: one
        # the server journaled (a's txn), one it never heard of.
        b = harness.client(client_id="phoenix")
        journaled = self._stranded_call(
            b, ticket.txn_id, src=0, dst=1, amount=5
        )
        lost = self._stranded_call(b, 999_999, src=2, dst=3, amount=7)

        assert b.recover() == 1
        # journaled outcome resolved exactly as a flush would have
        assert journaled.ticket.resolved and journaled.ticket.accepted
        assert journaled.ticket.outputs == ticket.outputs
        # the unknown id was recycled into the unsent queue for resubmission
        assert not b._outstanding
        assert lost.txn_id is None and lost in b._unsent
        assert b.queued == 1
        assert harness.registry.counter("net.client_resubmits").value == 1
        # ... and the next flush commits the recycled call exactly once.
        result = b.flush()
        assert result.accepted and lost.ticket.accepted
        assert b.digest == harness.session.digest
        a.close()
        b.close()

    def test_recover_leaves_staged_work_outstanding(self, harness):
        harness.start()
        a = harness.client()
        staged = a.submit("alice", "net-transfer", src=4, dst=5, amount=3)

        # staged but never flushed: the server reports it pending, so
        # recover() must neither resolve nor resubmit it.
        b = harness.client(client_id="phoenix")
        call = self._stranded_call(b, staged.txn_id, src=4, dst=5, amount=3)
        assert b.recover() == 0
        assert list(b._outstanding) == [staged.txn_id]
        assert not b._unsent

        # the next flush drains the staged batch and resolves the ticket
        result = b.flush()
        assert result.accepted and call.ticket.accepted
        a.close()
        b.close()

    def test_recover_with_nothing_outstanding_is_a_no_op(self, harness):
        harness.start()
        client = harness.client()
        assert client.recover() == 0
        assert client.queued == 0
        client.close()


class TestShardedService:
    """A sharded session behind the same wire protocol (DESIGN.md §14)."""

    def _sharded(self, group, shards=2):
        from repro.core import ShardedSession

        return ShardedSession.create(
            initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
            config=CONFIG,
            num_shards=shards,
            group=group,
            registry=MetricsRegistry(),
        )

    def test_client_receives_the_full_digest_vector(self, group):
        from repro.core import DigestVector

        session = self._sharded(group)
        service = LitmusService(
            session,
            programs=[TRANSFER],
            config=ServiceConfig(num_shards=2),
            registry=MetricsRegistry(),
        )
        host, port = service.start()
        try:
            client = RemoteSession(host, port, registry=MetricsRegistry())
            client.submit("alice", "net-transfer", src=0, dst=1, amount=5)
            assert client.flush().accepted
            # the versioned wire field carried every per-shard component,
            # and the fold stays comparable to the scalar digest
            assert isinstance(client.digest, DigestVector)
            assert client.digest.shards == session.digest.shards
            assert len(client.digest.shards) == 2
            assert client.digest == session.digest
            status = client.status()
            assert status["shards"] == 2
            assert status["digest"] == int(session.digest)
            client.close()
        finally:
            service.shutdown()
            session.close()

    def test_apply_companions_are_refused_over_the_wire(self, group):
        """A companion writes rows with no reserve and no execute, so the
        service must never run one a client names — neither the full
        ``@apply`` nor an owned subset, even when the operator registered
        it or the session derived it for a cross-shard round."""
        from repro.core.sharding import derive_apply_program, is_apply_companion

        session = self._sharded(group)
        owner = session.shard_map.shard_of
        src, dst = next(
            (a, b)
            for a in range(NUM_ACCOUNTS)
            for b in range(NUM_ACCOUNTS)
            if owner(("acct", a)) != owner(("acct", b))
        )
        session.submit("alice", TRANSFER, src=src, dst=dst, amount=5)
        assert session.flush().accepted  # one cross-shard round in process
        companions = [derive_apply_program(TRANSFER, i) for i in (None, (0,), (1,))]
        service = LitmusService(
            session,
            programs=[TRANSFER, *companions],
            config=ServiceConfig(num_shards=2),
            registry=MetricsRegistry(),
        )
        assert list(service.programs) == ["net-transfer"]
        host, port = service.start()
        try:
            digest, verified = session.digest.shards, session.batches_verified
            client = RemoteSession(host, port, registry=MetricsRegistry())
            for companion in companions:
                with pytest.raises(RemoteError) as excinfo:
                    client.submit(
                        "mallory", companion.name,
                        src=src, dst=dst, amount=0, __w0=10**6, __w1=10**6,
                    )
                assert is_apply_companion(companion.name)
                assert excinfo.value.code in ("unknown_program", "bad_request")
            client.flush()
            assert session.queued == 0
            assert session.batches_verified == verified
            assert session.digest.shards == digest
            client.close()
        finally:
            service.shutdown()
            session.close()

    def test_shard_count_mismatch_fails_fast(self, group):
        from repro.errors import ReproError

        session = self._sharded(group)
        try:
            with pytest.raises(ReproError, match="shard"):
                LitmusService(
                    session,
                    programs=[TRANSFER],
                    config=ServiceConfig(num_shards=4),
                    registry=MetricsRegistry(),
                )
        finally:
            session.close()
