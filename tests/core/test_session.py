"""Tests for the LitmusSession facade and the typed BatchResult."""

from __future__ import annotations

import pytest

from repro.core import (
    BatchResult,
    LitmusClient,
    LitmusConfig,
    LitmusServer,
    LitmusSession,
    RetryPolicy,
    UserTicket,
)
from repro.errors import BatchRejectedError, ReproError, TicketUnresolvedError
from repro.obs import MetricsRegistry, Tracer

from ..db.helpers import INCREMENT, READ_ONLY, TRANSFER

PRIME_BITS = 64


def _config(**overrides) -> LitmusConfig:
    defaults = dict(cc="dr", processing_batch_size=8, prime_bits=PRIME_BITS)
    defaults.update(overrides)
    return LitmusConfig(**defaults)


@pytest.fixture()
def session(group) -> LitmusSession:
    return LitmusSession.create(
        initial={("acct", i): 100 for i in range(4)},
        config=_config(),
        group=group,
        max_batch=16,
        tracer=Tracer(),
        registry=MetricsRegistry(),
    )


class TestSubmitFlush:
    def test_tickets_resolve_after_flush(self, session):
        a = session.submit("alice", TRANSFER, src=0, dst=1, amount=10)
        b = session.submit("bob", READ_ONLY, k=1)
        assert isinstance(a, UserTicket)
        assert not a.resolved and session.queued == 2
        result = session.flush()
        assert result.accepted and isinstance(result, BatchResult)
        assert a.resolved and b.resolved and a.accepted and b.accepted
        assert a.outputs == (200,)

    def test_result_outputs_and_user_outputs(self, session):
        session.submit("alice", INCREMENT, k=1)
        session.submit("alice", INCREMENT, k=1)
        session.submit("bob", READ_ONLY, k=1)
        result = session.flush()
        assert result.num_txns == 3
        assert set(result.outputs) == {1, 2, 3}
        # alice's two increments, in submission order: read 0 then 1.
        assert result.user_outputs["alice"] == ((0,), (1,))
        assert result.user_outputs["bob"] == ((2,),)
        assert len(result.tickets) == 3

    def test_result_mappings_are_read_only(self, session):
        session.submit("alice", INCREMENT, k=1)
        result = session.flush()
        with pytest.raises(TypeError):
            result.outputs[99] = ()
        with pytest.raises(TypeError):
            result.user_outputs["mallory"] = ()

    def test_result_carries_timing_and_metrics(self, group):
        # Uses the process-default registry: the db/crypto layers bound
        # their counters to it at import, so only its snapshots carry them.
        # A result carries no metrics; the session's registry does.
        session = LitmusSession.create(
            initial={}, config=_config(), group=group, tracer=Tracer()
        )
        session.submit("alice", INCREMENT, k=1)
        result = session.flush()
        assert result.timing is not None
        assert result.timing.num_txns == 1
        metrics = session.registry.snapshot()
        assert metrics["db.committed"]["value"] >= 1
        assert metrics["server.batches"]["value"] >= 1

    def test_auto_flush_at_capacity(self, group):
        session = LitmusSession.create(
            initial={},
            config=_config(processing_batch_size=4),
            group=group,
            max_batch=3,
            tracer=Tracer(),
            registry=MetricsRegistry(),
        )
        tickets = [session.submit(f"user{i}", INCREMENT, k=i) for i in range(3)]
        assert session.queued == 0
        assert all(t.resolved and t.accepted for t in tickets)
        assert session.batches_verified == 1

    def test_multiple_rounds_share_digest_chain(self, session):
        for _ in range(3):
            session.submit("alice", INCREMENT, k=7)
            assert session.flush()
        assert session.batches_verified == 3
        assert session.server.db.get(("row", 7)) == 3
        assert session.digest == session.server.digest

    def test_rejects_nonpositive_capacity(self, session):
        with pytest.raises(ReproError):
            LitmusSession(session.server, session.client, max_batch=0)


class TestEmptyFlush:
    def test_empty_flush_is_documented_noop(self, session):
        """Regression: empty flush returns BatchResult.empty(), no round."""
        digest_before = session.digest
        result = session.flush()
        assert result.accepted and bool(result)
        assert result.num_txns == 0
        assert result.timing is None
        assert result.outputs == {} and result.tickets == ()
        assert session.batches_verified == 0
        assert session.digest == digest_before
        # No server round happened: no batch counter movement either.
        metrics = session.registry.snapshot()
        assert "server.batches" not in metrics or (
            metrics["server.batches"]["value"] == 0
        )


class TestTicketErrors:
    def test_unresolved_ticket_raises_typed_error(self, session):
        ticket = session.submit("alice", INCREMENT, k=3)
        with pytest.raises(TicketUnresolvedError):
            _ = ticket.accepted
        with pytest.raises(TicketUnresolvedError):
            _ = ticket.outputs
        # ...and the typed error still is a ReproError (old handlers work).
        with pytest.raises(ReproError):
            _ = ticket.accepted
        session.flush()
        assert ticket.accepted and ticket.reason == ""

    def test_rejected_batch_raises_on_outputs(self, session, monkeypatch):
        ticket = session.submit("alice", INCREMENT, k=3)
        real_verify = session.client.verify_response

        def tampered(txns, response):
            verdict = real_verify(txns, response)
            return type(verdict)(accepted=False, reason="injected failure")

        monkeypatch.setattr(session.client, "verify_response", tampered)
        result = session.flush()
        assert not result and result.reason == "injected failure"
        assert ticket.resolved and not ticket.accepted
        assert ticket.reason == "injected failure"
        with pytest.raises(BatchRejectedError, match="injected failure"):
            _ = ticket.outputs
        assert session.batches_rejected == 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(backoff=-1.0)

    def test_exponential_delay(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.5)
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
        assert RetryPolicy().delay(5) == 0.0

    def test_happy_path_is_one_attempt(self, session):
        session.submit("alice", INCREMENT, k=1)
        assert session.flush().attempts == 1

    def test_transient_rejection_is_retried(self, group, monkeypatch):
        session = LitmusSession.create(
            initial={("acct", 0): 100},
            config=_config(),
            group=group,
            registry=MetricsRegistry(),
            retry_policy=RetryPolicy(max_attempts=3, backoff=0.0),
        )
        from repro.core.client import ClientVerdict

        real_verify = session.client.verify_response
        failures = iter([True])  # reject once, then behave

        def flaky(txns, response):
            # A true rejection never advances the client digest, so the
            # failing attempt must not run the real (accepting) verifier.
            if next(failures, False):
                return ClientVerdict(accepted=False, reason="transient")
            return real_verify(txns, response)

        monkeypatch.setattr(session.client, "verify_response", flaky)
        ticket = session.submit("alice", INCREMENT, k=0)
        result = session.flush()
        assert result.accepted
        assert result.attempts == 2
        assert session.retries == 1
        assert session.resyncs == 1
        assert ticket.accepted

    def test_backoff_sleeps_between_attempts(self, group, monkeypatch):
        import repro.core.session as session_module

        sleeps: list[float] = []
        session = LitmusSession.create(
            initial={("acct", 0): 100},
            config=_config(),
            group=group,
            registry=MetricsRegistry(),
            retry_policy=RetryPolicy(
                max_attempts=3, backoff=0.25, sleep=sleeps.append
            ),
        )
        monkeypatch.setattr(
            session.client,
            "verify_response",
            lambda txns, response: session_module.ClientVerdict(
                accepted=False, reason="always"
            ),
        )
        session.submit("alice", INCREMENT, k=0)
        result = session.flush()
        assert not result.accepted and result.attempts == 3
        assert sleeps == [0.25, 0.5]


class TestLastResult:
    def test_explicit_flush_records_last_result(self, session):
        session.submit("alice", INCREMENT, k=1)
        result = session.flush()
        assert session.last_result is result

    def test_auto_flush_result_is_recorded(self, group):
        session = LitmusSession.create(
            initial={("row", 1): 0},
            config=_config(),
            group=group,
            max_batch=2,
            registry=MetricsRegistry(),
        )
        session.submit("alice", INCREMENT, k=1)
        assert session.last_result is None  # below capacity: nothing flushed
        session.submit("bob", INCREMENT, k=1)
        assert session.last_result is not None
        assert session.last_result.accepted
        assert session.last_result.num_txns == 2

    def test_rejected_auto_flush_is_not_silently_discarded(
        self, group, monkeypatch
    ):
        """Regression: submit()'s auto-flush used to drop its BatchResult,
        making a rejected batch invisible to callers who never saw the
        flush happen."""
        session = LitmusSession.create(
            initial={("row", 1): 0},
            config=_config(),
            group=group,
            max_batch=1,
            registry=MetricsRegistry(),
        )
        from repro.core.client import ClientVerdict

        monkeypatch.setattr(
            session.client,
            "verify_response",
            lambda txns, response: ClientVerdict(
                accepted=False, reason="auto-flush rejection"
            ),
        )
        ticket = session.submit("alice", INCREMENT, k=1)
        assert session.last_result is not None
        assert not session.last_result.accepted
        assert session.last_result.reason == "auto-flush rejection"
        assert ticket.resolved and not ticket.accepted
        assert session.batches_rejected == 1
