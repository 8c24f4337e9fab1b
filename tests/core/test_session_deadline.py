"""Deadline propagation into ``LitmusSession.flush``: cancel, never desync.

The contract: a deadline that expires at a stage boundary cancels the
round — server rolled back to the last verified state, transactions
re-queued in order, tickets unresolved, digest chain unmoved — and a
later flush commits the same work.  The check deliberately sits *before*
verification: once the client's digest advances the work must be acked.
"""

from __future__ import annotations

import time

import pytest

from repro.core import LitmusConfig, LitmusSession
from repro.errors import DeadlineExceeded
from repro.obs.metrics import MetricsRegistry
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
    name="dl-transfer",
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

CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)


class SlowRequestPlan:
    """A minimal fault-plan stand-in that stalls the request stage.

    Sleeping in ``on_request`` pushes the wall clock past the deadline
    while the server executes, which deterministically lands the flush in
    the post-execute / pre-verify cancellation branch.
    """

    rng = None

    def __init__(self, delay: float):
        self.delay = delay

    def bind_registry(self, registry) -> None:
        pass

    def on_request(self, txns) -> None:
        time.sleep(self.delay)

    def on_response(self, response):
        return response

    def on_unit(self, unit_index, unit):
        return unit

    def on_certificates(self, unit_index, read_cert, write_cert):
        return read_cert, write_cert

    def on_prove(self, piece_index) -> None:
        pass

    def on_durability(self, name) -> None:
        pass


def _session(group, registry=None, fault_plan=None) -> LitmusSession:
    return LitmusSession.create(
        initial={("acct", i): 100 for i in range(8)},
        config=CONFIG,
        group=group,
        registry=registry,
        fault_plan=fault_plan,
    )


class TestPreAttemptExpiry:
    def test_expired_deadline_requeues_and_raises(self, group):
        registry = MetricsRegistry()
        session = _session(group, registry=registry)
        ticket = session.submit("alice", TRANSFER, src=0, dst=1, amount=10)
        with pytest.raises(DeadlineExceeded):
            session.flush(deadline=time.monotonic() - 1.0)
        assert not ticket.resolved
        assert session.queued == 1
        assert session.batches_verified == 0
        assert registry.counter("session.deadline_aborts").value == 1

    def test_requeued_work_keeps_submission_order(self, group):
        session = _session(group)
        first = session.submit("alice", TRANSFER, src=0, dst=1, amount=1)
        with pytest.raises(DeadlineExceeded):
            session.flush(deadline=time.monotonic() - 1.0)
        second = session.submit("bob", TRANSFER, src=2, dst=3, amount=1)
        result = session.flush()
        assert result.accepted and result.num_txns == 2
        # Priority order == submission order: the re-queued txn runs first.
        assert [t.txn_id for t in result.tickets] == [first.txn_id, second.txn_id]


class TestMidExecutionExpiry:
    def test_overrun_rolls_back_before_verification(self, group):
        registry = MetricsRegistry()
        session = _session(
            group, registry=registry, fault_plan=SlowRequestPlan(delay=0.15)
        )
        ticket = session.submit("alice", TRANSFER, src=0, dst=1, amount=10)
        server_digest_before = session.server.digest
        client_digest_before = session.digest
        with pytest.raises(DeadlineExceeded):
            session.flush(deadline=time.monotonic() + 0.05)
        # Cancelled, not half-committed: both digests are where they were,
        # the server state was rolled back, the work survives.
        assert session.server.digest == server_digest_before
        assert session.digest == client_digest_before
        assert not ticket.resolved
        assert session.queued == 1
        assert registry.counter("session.deadline_aborts").value == 1

    def test_later_flush_commits_the_cancelled_round(self, group):
        session = _session(group, fault_plan=SlowRequestPlan(delay=0.05))
        ticket = session.submit("alice", TRANSFER, src=0, dst=1, amount=10)
        with pytest.raises(DeadlineExceeded):
            session.flush(deadline=time.monotonic() + 0.01)
        result = session.flush()  # no deadline: plenty of time now
        assert result.accepted and result.num_txns == 1
        assert ticket.accepted and ticket.outputs == (200,)
        assert session.digest == session.server.digest
        assert session.server.db.get(("acct", 0)) == 90

    def test_digest_chain_never_moves_for_a_cancelled_round(self, group):
        session = _session(group, fault_plan=SlowRequestPlan(delay=0.05))
        session.submit("alice", TRANSFER, src=0, dst=1, amount=10)
        chain_before = session.digest_log.latest_digest
        with pytest.raises(DeadlineExceeded):
            session.flush(deadline=time.monotonic() + 0.01)
        assert session.digest_log.latest_digest == chain_before
        assert session.batches_verified == 0


class TestNoDeadline:
    def test_none_deadline_is_the_old_behavior(self, group):
        session = _session(group)
        session.submit("alice", TRANSFER, src=0, dst=1, amount=10)
        assert session.flush(deadline=None).accepted
