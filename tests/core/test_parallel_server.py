"""Determinism and pipelining tests for the concurrent prover pool.

The same verification batch executed with ``num_provers`` ∈ {1, 2, 8} must
produce identical digests, piece statements, and verification outcomes —
concurrency may only change wall-clock, never a single certified byte.
"""

from __future__ import annotations

from repro.core import LitmusClient, LitmusConfig, LitmusServer
from repro.core.server import _chunk_end_digest
from repro.core.wrapper import WrappedUnit, statement_hash

from ..db.helpers import increment, read_only, transfer

PRIME_BITS = 64
WORKER_COUNTS = (1, 2, 8)


def run_batch(group, num_provers: int, txns_factory, **config_kwargs):
    config = LitmusConfig(
        cc="dr",
        processing_batch_size=2,
        batches_per_piece=1,
        prime_bits=PRIME_BITS,
        num_provers=num_provers,
        **config_kwargs,
    )
    initial = {("acct", i): 100 for i in range(4)}
    server = LitmusServer(initial=initial, config=config, group=group)
    client = LitmusClient(group, server.digest, config=config)
    txns = txns_factory()
    response = server.execute_batch(txns)
    verdict = client.verify_response(txns, response)
    return server, response, verdict


def piece_fingerprint(response):
    """Everything statement-relevant about each piece, in piece order."""
    return tuple(
        (
            piece.piece_index,
            piece.txn_ids,
            piece.unit_txn_ids,
            piece.start_digest,
            piece.end_digest,
            piece.all_commit,
            piece.outputs,
            tuple(piece.public_values),
            piece.circuit_signature,
            statement_hash(
                piece.piece_index,
                piece.start_digest,
                piece.end_digest,
                piece.all_commit,
                piece.outputs,
            ),
        )
        for piece in response.pieces
    )


class TestWorkerCountDeterminism:
    def test_digests_statements_and_outcomes_identical(self, group):
        def txns():
            return [transfer(i, i % 4, (i + 1) % 4, 5) for i in range(1, 17)]

        fingerprints = []
        finals = []
        for workers in WORKER_COUNTS:
            _server, response, verdict = run_batch(group, workers, txns)
            assert verdict.accepted, f"{workers} workers: {verdict.reason}"
            assert len(response.pieces) >= 8
            fingerprints.append(piece_fingerprint(response))
            finals.append((response.initial_digest, response.final_digest))
        assert len(set(fingerprints)) == 1, "piece statements diverged across workers"
        assert len(set(finals)) == 1, "digest chain diverged across workers"

    def test_outputs_identical_across_worker_counts(self, group):
        def txns():
            return [increment(i, i % 3) for i in range(1, 13)]

        outputs = []
        for workers in WORKER_COUNTS:
            _server, response, verdict = run_batch(group, workers, txns)
            assert verdict.accepted, verdict.reason
            outputs.append(tuple(sorted(response.all_outputs().items())))
        assert len(set(outputs)) == 1

    def test_sequential_batches_stay_chained_under_concurrency(self, group):
        config = LitmusConfig(
            cc="dr",
            processing_batch_size=2,
            batches_per_piece=2,
            prime_bits=PRIME_BITS,
            num_provers=4,
        )
        server = LitmusServer(initial={}, config=config, group=group)
        client = LitmusClient(group, server.digest, config=config)
        for lo in (1, 9, 17):
            txns = [increment(i, i % 5) for i in range(lo, lo + 8)]
            response = server.execute_batch(txns)
            verdict = client.verify_response(txns, response)
            assert verdict.accepted, verdict.reason
        assert client.digest == server.digest


class TestMeasuredTiming:
    def test_measured_fields_populated(self, group):
        _server, response, verdict = run_batch(
            group, 4, lambda: [increment(i, i) for i in range(1, 9)]
        )
        assert verdict.accepted
        timing = response.timing
        assert timing.measured_total_seconds > 0
        assert timing.measured_certify_seconds > 0
        assert timing.measured_replay_seconds > 0
        assert timing.measured_prove_wall_seconds > 0
        assert timing.num_pieces == len(response.pieces)
        # Wall-clock of the pool can never exceed total elapsed time.
        assert timing.measured_prove_wall_seconds <= timing.measured_total_seconds
        breakdown = timing.measured_breakdown()
        assert set(breakdown) == {
            "db",
            "certify",
            "circuit_build",
            "replay",
            "setup",
            "prove",
            "prove_wall",
            "total_wall",
        }
        assert timing.measured_pipeline_speedup > 0


class TestSetupReuse:
    def test_identical_pieces_share_one_trusted_setup(self, group):
        server, response, verdict = run_batch(
            group, 4, lambda: [increment(i, i) for i in range(1, 9)]
        )
        assert verdict.accepted
        # All pieces are [increment|r1w1]: one structure, one setup.
        signatures = {p.circuit_signature for p in response.pieces}
        assert len(signatures) == 1
        assert server.setup_cache_hits == len(response.pieces) - 1

    def test_reuse_can_be_disabled(self, group):
        server, response, verdict = run_batch(
            group,
            4,
            lambda: [increment(i, i) for i in range(1, 9)],
            reuse_proving_keys=False,
        )
        assert verdict.accepted
        assert server.setup_cache_hits == 0
        key_ids = {p.verification_key.key_id for p in response.pieces}
        assert len(key_ids) == len(response.pieces)


class TestAllReadFinalChunk:
    """Regression for the dead-branch bug in piece formation.

    A chunk whose final unit (or entire contents) carries no write
    certificate must leave the digest chain where the last actual write put
    it — a single reverse scan, no special case for the last unit.
    """

    def test_all_read_final_chunk_keeps_digest(self, group):
        def txns():
            # Writes first, then a tail of pure reads that fills the last
            # chunk(s) with units that have no write certificate.
            writes = [increment(i, i) for i in range(1, 5)]
            reads = [read_only(i, (i - 5) % 4) for i in range(5, 13)]
            return writes + reads

        _server, response, verdict = run_batch(group, 2, txns)
        assert verdict.accepted, verdict.reason
        tail = response.pieces[-1]
        # The all-read tail pieces do not move the digest.
        assert tail.start_digest == tail.end_digest
        assert response.final_digest == tail.end_digest

    def test_chunk_end_digest_reverse_scan(self, group):
        class FakeWrite:
            def __init__(self, new_digest):
                self.new_digest = new_digest

        def unit(write_digest=None):
            cert = FakeWrite(write_digest) if write_digest is not None else None
            return WrappedUnit(unit=None, read_certificate=None, write_certificate=cert)

        # All-read chunk: digest unchanged.
        assert _chunk_end_digest((unit(), unit()), start_digest=7) == 7
        # Last unit wrote: its digest wins.
        assert _chunk_end_digest((unit(3), unit(9)), start_digest=7) == 9
        # Read-only tail after a write: the write's digest still wins.
        assert _chunk_end_digest((unit(3), unit(), unit()), start_digest=7) == 3
