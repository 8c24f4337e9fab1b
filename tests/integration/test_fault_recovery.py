"""Integration tests for the full desync story: inject → reject → rollback
→ resync → retry → re-verify.

The unmarked tests are acceptance-critical and run in tier-1.  The
exhaustive per-fault-class sweep carries ``@pytest.mark.faults`` and runs
in its own CI job (``pytest -m faults``); the default ``addopts`` excludes
the marker.
"""

from __future__ import annotations

import pytest

from repro.core import LitmusConfig, LitmusSession, RetryPolicy
from repro.errors import RetryExhausted, ServerDesyncError
from repro.faults import (
    BitFlipWitness,
    CorruptProofPiece,
    DropMessage,
    DropPiece,
    FaultPlan,
    KillProver,
    ReorderPieces,
    TamperEndDigest,
    TamperPublicStatement,
    WrongWrite,
)
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
    name="fr-transfer",
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

FAULT_FACTORIES = {
    "corrupt_proof": lambda: CorruptProofPiece(piece=0),
    "tamper_statement": lambda: TamperPublicStatement(piece=0),
    "tamper_digest": lambda: TamperEndDigest(piece=0),
    "drop_piece": lambda: DropPiece(piece=0),
    "reorder_pieces": lambda: ReorderPieces(),
    "bitflip_write_witness": lambda: BitFlipWitness(unit=0, which="write"),
    "bitflip_read_witness": lambda: BitFlipWitness(unit=0, which="read"),
    "kill_prover": lambda: KillProver(piece=0),
    "drop_request": lambda: DropMessage(direction="request"),
    "drop_response": lambda: DropMessage(direction="response"),
    "wrong_write": lambda: WrongWrite(unit=0),
}


def _session(group, plan=None, policy=None, registry=None) -> LitmusSession:
    return LitmusSession.create(
        initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
        config=CONFIG,
        group=group,
        registry=registry,
        retry_policy=policy,
        fault_plan=plan,
    )


def _submit_transfers(session, count=6):
    for i in range(count):
        session.submit(
            f"user{i % 3}", TRANSFER, src=i, dst=(i + 1) % NUM_ACCOUNTS, amount=5
        )


def _assert_recovered(session, result, plan, registry=None):
    """The acceptance predicate: detected, rolled back, resynced, verified."""
    assert plan.injected >= 1, "the fault never fired"
    assert session.batches_rejected >= 1, "the client never rejected"
    assert result.accepted, result.reason
    assert result.attempts >= 2
    assert session.digest == session.server.digest
    balance = sum(session.server.db.get(("acct", i)) for i in range(NUM_ACCOUNTS))
    assert balance == NUM_ACCOUNTS * 100
    if registry is not None:
        snap = registry.snapshot()
        assert snap["faults.injected"]["value"] >= 1
        assert snap["session.rejections"]["value"] >= 1
        assert snap["session.retries"]["value"] >= 1
        assert snap["session.resyncs"]["value"] >= 1


class TestAcceptance:
    """The scripted adversarial run of ISSUE 3's acceptance criteria."""

    def test_corrupt_proof_piece_full_story(self, group):
        registry = MetricsRegistry()
        plan = FaultPlan(CorruptProofPiece(piece=0), seed=7)
        session = _session(
            group,
            plan=plan,
            policy=RetryPolicy(max_attempts=3, backoff=0.0),
            registry=registry,
        )
        _submit_transfers(session)
        digest_before = session.digest
        result = session.flush()

        # Client rejected the tampered round, the server rolled back, one
        # resync re-derived the trusted state, and the retry re-committed.
        assert session.resyncs == 1
        _assert_recovered(session, result, plan, registry)
        assert session.digest != digest_before  # the batch really landed
        event = plan.events[0]
        assert (event.kind, event.stage) == ("corrupt_proof", "response")

    def test_rejection_without_policy_still_rolls_back(self, group):
        """The core bugfix: a rejected batch must not leave the server's
        digest permanently ahead of the client's."""
        plan = FaultPlan(CorruptProofPiece(piece=0), seed=7)
        session = _session(group, plan=plan)  # no retry policy: single shot
        _submit_transfers(session)
        result = session.flush()
        assert not result.accepted
        assert result.attempts == 1
        # Rolled back: server and client agree on the pre-batch state.
        assert session.server.digest == session.digest
        assert session.server.db.get(("acct", 0)) == 100
        # And the session is not poisoned — a clean batch verifies next.
        _submit_transfers(session)
        assert session.flush().accepted

    def test_tickets_resolve_through_recovery(self, group):
        plan = FaultPlan(TamperEndDigest(piece=0), seed=3)
        session = _session(group, plan=plan, policy=RetryPolicy(max_attempts=2))
        ticket = session.submit("alice", TRANSFER, src=0, dst=1, amount=30)
        result = session.flush()
        assert result.accepted
        assert ticket.accepted
        assert ticket.outputs == (200,)  # pre-transfer s + d
        assert session.last_result is result


class TestExhaustion:
    def test_persistent_fault_returns_rejected_result(self, group):
        plan = FaultPlan(CorruptProofPiece(piece=0, times=None), seed=7)
        session = _session(group, plan=plan, policy=RetryPolicy(max_attempts=3))
        _submit_transfers(session)
        digest_before = session.digest
        result = session.flush()
        assert not result.accepted
        assert result.attempts == 3
        assert session.batches_rejected == 3
        assert session.retries == 2
        # Every attempt was rolled back: nothing unverified survives.
        assert session.digest == digest_before
        assert session.server.digest == digest_before

    def test_raise_on_exhaustion(self, group):
        plan = FaultPlan(TamperEndDigest(piece=0, times=None), seed=7)
        session = _session(
            group,
            plan=plan,
            policy=RetryPolicy(max_attempts=2, raise_on_exhaustion=True),
        )
        _submit_transfers(session, count=2)
        with pytest.raises(RetryExhausted) as excinfo:
            session.flush()
        assert excinfo.value.attempts == 2
        # last_result still records the rejection for post-mortems.
        assert session.last_result is not None
        assert not session.last_result.accepted


class TestResync:
    def test_resync_reproduces_digest_after_verified_batches(self, group):
        session = _session(group, policy=RetryPolicy(max_attempts=2))
        for _ in range(2):
            _submit_transfers(session, count=2)
            assert session.flush().accepted
        snapshot_before = session.server.db.snapshot()
        digest = session.resync()
        assert digest == session.digest == session.server.digest
        assert session.server.db.snapshot() == snapshot_before

    def test_tampered_checkpoint_raises_desync(self, group):
        registry = MetricsRegistry()
        session = _session(group, registry=registry)
        _submit_transfers(session, count=2)
        assert session.flush().accepted
        # Corrupt the durable history resync replays from.
        session._base_state[("acct", 0)] = 10**6
        with pytest.raises(ServerDesyncError):
            session.resync()
        assert registry.snapshot()["session.resync_failures"]["value"] == 1


class TestWrongWrite:
    """A server that writes wrongly and certifies the wrong writes honestly:
    every certificate is valid, so only replay's check that each unit
    wrote what its programs computed rejects it, under every backend."""

    @pytest.mark.parametrize("backend", ["groth16", "spotcheck"])
    @pytest.mark.parametrize("unit", [0, 1])
    def test_rejected_under_every_backend(self, group, backend, unit):
        config = LitmusConfig(
            cc="dr",
            processing_batch_size=2,
            batches_per_piece=2,
            prime_bits=64,
            backend=backend,
        )
        plan = FaultPlan(WrongWrite(unit=unit))
        session = LitmusSession.create(
            initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
            config=config,
            group=group,
            fault_plan=plan,
        )
        _submit_transfers(session)
        result = session.flush()
        assert plan.injected == 1
        assert not result.accepted
        assert session.server.digest == session.digest  # rolled back
        _submit_transfers(session)
        assert session.flush().accepted


@pytest.mark.faults
class TestFaultClassSweep:
    """Every fault class drives the same detect→rollback→resync→retry story."""

    @pytest.mark.parametrize("kind", sorted(FAULT_FACTORIES))
    def test_recovery(self, group, kind):
        registry = MetricsRegistry()
        plan = FaultPlan(FAULT_FACTORIES[kind](), seed=11)
        session = _session(
            group,
            plan=plan,
            policy=RetryPolicy(max_attempts=3, backoff=0.0),
            registry=registry,
        )
        _submit_transfers(session)
        result = session.flush()
        _assert_recovered(session, result, plan, registry)
