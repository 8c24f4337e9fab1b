"""End-to-end tests: Litmus server + client, honest and adversarial."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import LitmusClient, LitmusConfig, LitmusServer, SumInvariant
from repro.errors import ConstraintViolation

from ..db.helpers import blind_write, increment, read_only, transfer

PRIME_BITS = 64


def make_pair(group, cc="dr", backend="groth16", invariants=(), **config_kwargs):
    config = LitmusConfig(
        cc=cc,
        processing_batch_size=8,
        batches_per_piece=2,
        prime_bits=PRIME_BITS,
        backend=backend,
        num_db_threads=2,
        **config_kwargs,
    )
    initial = {("acct", i): 100 for i in range(4)}
    server = LitmusServer(
        initial=initial, config=config, group=group, invariants=invariants
    )
    client = LitmusClient(
        group, server.digest, config=config, invariants=invariants
    )
    return server, client


class TestHonestFlow:
    def test_dr_batch_accepted(self, group):
        server, client = make_pair(group, cc="dr")
        txns = [transfer(i, i % 4, (i + 1) % 4, 5) for i in range(1, 13)]
        response = server.execute_batch(txns)
        verdict = client.verify_response(txns, response)
        assert verdict.accepted, verdict.reason
        assert verdict.new_digest == server.digest

    def test_2pl_batch_accepted(self, group):
        server, client = make_pair(group, cc="2pl")
        txns = [transfer(i, i % 4, (i + 1) % 4, 5) for i in range(1, 9)]
        response = server.execute_batch(txns)
        verdict = client.verify_response(txns, response)
        assert verdict.accepted, verdict.reason

    def test_spotcheck_backend_accepted(self, group):
        server, client = make_pair(group, backend="spotcheck")
        txns = [increment(i, i % 3) for i in range(1, 7)]
        response = server.execute_batch(txns)
        verdict = client.verify_response(txns, response)
        assert verdict.accepted, verdict.reason

    def test_outputs_are_returned(self, group):
        server, client = make_pair(group)
        txns = [read_only(1, 0), increment(2, 1)]
        response = server.execute_batch(txns)
        verdict = client.verify_response(txns, response)
        assert verdict.accepted
        assert verdict.outputs[1] == (0,)  # key ("row", 0) starts absent -> 0

    def test_sequential_batches_chain_digests(self, group):
        server, client = make_pair(group)
        first = [increment(i, 1) for i in range(1, 4)]
        second = [increment(i, 1) for i in range(4, 7)]
        r1 = server.execute_batch(first)
        assert client.verify_response(first, r1).accepted
        r2 = server.execute_batch(second)
        verdict = client.verify_response(second, r2)
        assert verdict.accepted
        assert server.db.get(("row", 1)) == 6

    def test_multiple_pieces(self, group):
        server, client = make_pair(group)
        txns = [increment(i, i) for i in range(1, 21)]
        response = server.execute_batch(txns)
        assert len(response.pieces) >= 1
        verdict = client.verify_response(txns, response)
        assert verdict.accepted

    def test_timing_report_populated(self, group):
        server, client = make_pair(group)
        txns = [increment(i, i) for i in range(1, 9)]
        response = server.execute_batch(txns)
        timing = response.timing
        assert timing.num_txns == 8
        assert timing.measured_total_seconds > 0
        assert timing.measured_throughput > 0
        assert timing.total_constraints > 0
        assert timing.num_pieces == len(response.pieces)


class TestAdversarialServer:
    """Every tampering attempt must be rejected by the client."""

    def run_honest(self, group, txns):
        server, client = make_pair(group)
        response = server.execute_batch(txns)
        return server, client, response

    def test_tampered_output_rejected(self, group):
        txns = [increment(i, 1) for i in range(1, 5)]
        _server, client, response = self.run_honest(group, txns)
        piece0 = response.pieces[0]
        tampered_outputs = tuple(
            (txn_id, (999,)) for txn_id, _values in piece0.outputs
        )
        forged_piece = dataclasses.replace(piece0, outputs=tampered_outputs)
        forged = dataclasses.replace(
            response, pieces=(forged_piece,) + response.pieces[1:]
        )
        verdict = client.verify_response(txns, forged)
        assert not verdict.accepted

    def test_tampered_final_digest_rejected(self, group):
        txns = [increment(i, 1) for i in range(1, 5)]
        _server, client, response = self.run_honest(group, txns)
        forged = dataclasses.replace(response, final_digest=response.final_digest + 1)
        verdict = client.verify_response(txns, forged)
        assert not verdict.accepted

    def test_dropped_piece_rejected(self, group):
        txns = [increment(i, i) for i in range(1, 21)]
        _server, client, response = self.run_honest(group, txns)
        assert len(response.pieces) > 1
        forged = dataclasses.replace(response, pieces=response.pieces[:-1])
        verdict = client.verify_response(txns, forged)
        assert not verdict.accepted
        assert "cover" in verdict.reason

    def test_conflicting_batch_claim_rejected(self, group):
        # Claim two conflicting increments ran in one non-conflicting batch.
        txns = [increment(1, 7), increment(2, 7)]
        _server, client, response = self.run_honest(group, txns)
        merged_unit_ids = ((1, 2),)
        piece0 = response.pieces[0]
        forged_piece = dataclasses.replace(
            piece0,
            unit_txn_ids=merged_unit_ids,
            txn_ids=(1, 2),
        )
        forged = dataclasses.replace(response, pieces=(forged_piece,))
        verdict = client.verify_response(txns, forged)
        assert not verdict.accepted

    def test_foreign_verification_key_rejected(self, group):
        txns = [increment(i, i) for i in range(1, 4)]
        server, client, response = self.run_honest(group, txns)
        # Set up a different circuit and use its (valid) key.
        from repro.vc.circuit import CircuitBuilder

        builder = CircuitBuilder(label="decoy")
        builder.input("statement_lo")
        builder.input("statement_hi")
        decoy = builder.build()
        _pk, decoy_vk = server.backend.setup(decoy)
        piece0 = response.pieces[0]
        forged_piece = dataclasses.replace(piece0, verification_key=decoy_vk)
        forged = dataclasses.replace(
            response, pieces=(forged_piece,) + response.pieces[1:]
        )
        verdict = client.verify_response(txns, forged)
        assert not verdict.accepted

    def test_swapped_proofs_rejected(self, group):
        txns = [increment(i, i) for i in range(1, 21)]
        _server, client, response = self.run_honest(group, txns)
        assert len(response.pieces) >= 2
        p0, p1 = response.pieces[0], response.pieces[1]
        forged = dataclasses.replace(
            response,
            pieces=(
                dataclasses.replace(p0, proof=p1.proof),
                dataclasses.replace(p1, proof=p0.proof),
            )
            + response.pieces[2:],
        )
        verdict = client.verify_response(txns, forged)
        assert not verdict.accepted

    def test_server_cannot_prove_tampered_data(self, group):
        """If the server's store is corrupted between runs, proving fails
        internally (the circuit replay catches the inconsistency)."""
        server, client = make_pair(group)
        txns = [increment(1, 1)]
        server.execute_batch(txns)
        # Corrupt the database behind the provider's back.
        server.db.put(("row", 1), 999)
        follow_up = [read_only(2, 1)]
        from repro.errors import IntegrityError

        with pytest.raises((ConstraintViolation, IntegrityError)):
            server.execute_batch(follow_up)


class TestInvariants:
    def test_preserving_transfers_accepted(self, group):
        invariant = SumInvariant.over("acct")
        server, client = make_pair(group, invariants=(invariant,))
        txns = [transfer(i, i % 4, (i + 1) % 4, 3) for i in range(1, 9)]
        response = server.execute_batch(txns)
        verdict = client.verify_response(txns, response)
        assert verdict.accepted, verdict.reason

    def test_minting_money_flagged(self, group):
        invariant = SumInvariant.over("acct")
        server, client = make_pair(group, invariants=(invariant,))
        # A blind write into the covered key family changes the sum.
        from repro.db.txn import Transaction
        from repro.vc.program import Const, KeyTemplate, Param, Program, WriteStmt

        minting = Program(
            name="mint",
            params=("k",),
            statements=(
                WriteStmt(KeyTemplate(("acct", Param("k"))), Const(10_000)),
            ),
        )
        txns = [Transaction(1, minting, {"k": 0})]
        response = server.execute_batch(txns)
        # The replay zeroes AllCommit; the client must reject the batch.
        assert not response.pieces[0].all_commit
        verdict = client.verify_response(txns, response)
        assert not verdict.accepted

    def test_unrelated_writes_do_not_trip_invariant(self, group):
        invariant = SumInvariant.over("acct")
        server, client = make_pair(group, invariants=(invariant,))
        txns = [blind_write(1, 5, 123)]  # writes ("row", 5): uncovered family
        response = server.execute_batch(txns)
        verdict = client.verify_response(txns, response)
        assert verdict.accepted, verdict.reason
