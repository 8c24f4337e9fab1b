"""Unit tests for the transaction wrapper (Algorithm 3) and statement hash."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import LitmusClient, LitmusConfig, LitmusServer
from repro.core.memory_integrity import MemoryIntegrityProvider
from repro.core.wrapper import (
    WrappedPiece,
    WrappedUnit,
    build_wrapped_circuit,
    piece_constraints,
    replay_piece,
    statement_hash,
)
from repro.db.executor import ScheduleUnit
from repro.vc.compiler import CircuitCompiler

from ..db.helpers import INCREMENT, increment, transfer

PRIME_BITS = 64


def wrapped_piece_for(group, txns, initial=None):
    """Build a certified piece by driving the provider over a simple schedule."""
    provider = MemoryIntegrityProvider(group, initial=initial, prime_bits=PRIME_BITS)
    start_digest = provider.digest
    units = []
    state = dict(initial or {})
    for txn in txns:
        result = txn.program.execute(txn.params, lambda k: state.get(k, 0))
        reads = dict(result.store_reads)
        writes = dict(result.writes)
        unit = ScheduleUnit(
            txn_ids=(txn.txn_id,),
            reads=tuple(reads.items()),
            writes=tuple(writes.items()),
        )
        read_cert = provider.certify_reads(reads) if reads else None
        write_cert = provider.apply_writes(writes) if writes else None
        units.append(WrappedUnit(unit, read_cert, write_cert))
        state.update(writes)
    piece = WrappedPiece(piece_index=0, units=tuple(units), start_digest=start_digest)
    return piece, provider


class TestReplay:
    def test_honest_replay_commits(self, group):
        txns = [increment(1, 5), increment(2, 5)]
        piece, provider = wrapped_piece_for(group, txns)
        outcome = replay_piece(
            piece, {t.txn_id: t for t in txns}, CircuitCompiler(), group, PRIME_BITS
        )
        assert outcome.all_commit
        assert outcome.end_digest == provider.digest
        # increment emits the pre-increment value.
        assert dict(outcome.outputs) == {1: (0,), 2: (1,)}

    def test_tampered_unit_reads_break_replay(self, group):
        txns = [increment(1, 5)]
        piece, _provider = wrapped_piece_for(group, txns)
        unit = piece.units[0].unit
        tampered_unit = ScheduleUnit(
            txn_ids=unit.txn_ids,
            reads=((("row", 5), 42),),  # claim a different read value
            writes=unit.writes,
        )
        tampered = WrappedPiece(
            piece_index=0,
            units=(
                WrappedUnit(
                    tampered_unit,
                    piece.units[0].read_certificate,
                    piece.units[0].write_certificate,
                ),
            ),
            start_digest=piece.start_digest,
        )
        outcome = replay_piece(
            tampered, {t.txn_id: t for t in txns}, CircuitCompiler(), group, PRIME_BITS
        )
        assert not outcome.all_commit

    def test_wrong_start_digest_breaks_replay(self, group):
        txns = [increment(1, 5)]
        piece, _provider = wrapped_piece_for(group, txns)
        shifted = WrappedPiece(
            piece_index=0, units=piece.units, start_digest=piece.start_digest + 1
        )
        outcome = replay_piece(
            shifted, {t.txn_id: t for t in txns}, CircuitCompiler(), group, PRIME_BITS
        )
        assert not outcome.all_commit

    def test_unit_that_drops_its_writes_breaks_replay(self, group):
        txns = [increment(1, 5)]
        piece, _provider = wrapped_piece_for(group, txns)
        wrapped = piece.units[0]
        silent = WrappedUnit(
            dataclasses.replace(wrapped.unit, writes=()), wrapped.read_certificate, None
        )
        tampered = dataclasses.replace(piece, units=(silent,))
        outcome = replay_piece(
            tampered, {t.txn_id: t for t in txns}, CircuitCompiler(), group, PRIME_BITS
        )
        assert not outcome.all_commit


class TestStatementHash:
    def test_sensitive_to_every_component(self):
        base = statement_hash(0, 10, 20, True, [(1, (5,))])
        assert statement_hash(1, 10, 20, True, [(1, (5,))]) != base
        assert statement_hash(0, 11, 20, True, [(1, (5,))]) != base
        assert statement_hash(0, 10, 21, True, [(1, (5,))]) != base
        assert statement_hash(0, 10, 20, False, [(1, (5,))]) != base
        assert statement_hash(0, 10, 20, True, [(1, (6,))]) != base

    def test_two_field_elements(self):
        lo, hi = statement_hash(0, 1, 2, True, [])
        assert 0 <= lo < 2**128
        assert 0 <= hi < 2**128


class TestPieceCircuit:
    def test_structure_independent_of_values(self, group):
        compiler = CircuitCompiler()
        txns = [increment(1, 5)]
        by_id = {t.txn_id: t for t in txns}
        piece, _provider = wrapped_piece_for(group, txns)
        # A structurally identical piece with placeholder values.
        shape_unit = ScheduleUnit(
            txn_ids=(1,), reads=((("row", 5), 0),), writes=((("row", 5), 0),)
        )
        shape_piece = WrappedPiece(
            piece_index=0,
            units=(WrappedUnit(shape_unit, None, None),),
            start_digest=12345,
        )
        real = build_wrapped_circuit(
            piece, by_id, compiler, group, PRIME_BITS, 600, aggregated=True
        )
        shaped = build_wrapped_circuit(
            shape_piece, by_id, compiler, group, PRIME_BITS, 600, aggregated=True
        )
        assert real.structural_hash() == shaped.structural_hash()

    def test_aggregation_reduces_constraints(self, group):
        compiler = CircuitCompiler()
        txns = [increment(i, i) for i in range(1, 6)]
        by_id = {t.txn_id: t for t in txns}
        batch_unit = ScheduleUnit(
            txn_ids=tuple(t.txn_id for t in txns),
            reads=tuple(((("row", t.params["k"])), 0) for t in txns),
            writes=tuple(((("row", t.params["k"])), 0) for t in txns),
        )
        piece = WrappedPiece(
            piece_index=0,
            units=(WrappedUnit(batch_unit, None, None),),
            start_digest=1,
        )
        aggregated = piece_constraints(piece, by_id, compiler, 600, aggregated=True)
        unbatched = piece_constraints(piece, by_id, compiler, 600, aggregated=False)
        # One MemCheck+MemUpdate vs one per access: 2 vs 10 gadgets here.
        assert unbatched - aggregated == (10 - 2) * 600

    def test_memcheck_size_is_structural(self, group):
        compiler = CircuitCompiler()
        txns = [increment(1, 5)]
        by_id = {t.txn_id: t for t in txns}
        piece, _provider = wrapped_piece_for(group, txns)
        a = build_wrapped_circuit(piece, by_id, compiler, group, PRIME_BITS, 600, True)
        b = build_wrapped_circuit(piece, by_id, compiler, group, PRIME_BITS, 601, True)
        assert a.structural_hash() != b.structural_hash()

    def test_invariant_names_are_structural(self, group):
        from repro.core.consistency import SumInvariant

        compiler = CircuitCompiler()
        txns = [increment(1, 5)]
        by_id = {t.txn_id: t for t in txns}
        piece, _provider = wrapped_piece_for(group, txns)
        plain = build_wrapped_circuit(
            piece, by_id, compiler, group, PRIME_BITS, 600, True
        )
        with_invariant = build_wrapped_circuit(
            piece, by_id, compiler, group, PRIME_BITS, 600, True,
            invariants=(SumInvariant.over("row"),),
        )
        assert plain.structural_hash() != with_invariant.structural_hash()


class TestWriteBinding:
    """A server that runs the logic wrongly but certifies honestly.

    Its database executes each transaction correctly, then it claims (and
    certifies against the digest) writes its programs never computed.  The
    certificates are all valid, so only replay's check that the unit wrote
    what its programs wrote can catch it.
    """

    @pytest.mark.parametrize("backend", ["groth16", "spotcheck"])
    def test_certified_wrong_writes_are_rejected(self, group, backend):
        config = LitmusConfig(
            cc="dr",
            processing_batch_size=8,
            batches_per_piece=1,
            prime_bits=PRIME_BITS,
            backend=backend,
        )
        initial = {("acct", i): 100 for i in range(16)}
        server = LitmusServer(initial=initial, config=config, group=group)
        honest_run = server.db.run

        def wrong_run(txns):
            report = honest_run(txns)
            assert len(report.schedule) == 1  # one unit of disjoint transfers
            report.schedule[:] = [
                dataclasses.replace(
                    unit, writes=tuple((key, value + 1_000) for key, value in unit.writes)
                )
                for unit in report.schedule
            ]
            return report

        server.db.run = wrong_run
        txns = [transfer(i + 1, 2 * i, 2 * i + 1, 10) for i in range(8)]
        response = server.execute_batch(txns)
        client = LitmusClient(group, response.initial_digest, config=config)
        verdict = client.verify_response(txns, response)
        assert not verdict.accepted
        assert "does not close the chain" in verdict.reason
