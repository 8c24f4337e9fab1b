"""Backend comparison: Groth16 simulator vs Plonk simulator vs spot-check.

Real wall-clock of the three proof backends on an identical verified batch.
The Groth16/Plonk simulators do the same constraint evaluation (their cost
difference at paper scale is the trusted-setup story, not wall time here);
the spot-check backend is a complete argument system and pays for Merkle
commitment and openings — its proofs are also not constant-size.
"""

from __future__ import annotations

import time

from repro.core import LitmusClient, LitmusConfig, LitmusServer
from repro.crypto.rsa_group import default_group
from repro.db.txn import Transaction
from repro.bench.report import format_table
from repro.vc.program import (
    Add,
    Const,
    Emit,
    KeyTemplate,
    Param,
    Program,
    ReadStmt,
    ReadVal,
    WriteStmt,
)

INCREMENT = Program(
    name="bb_increment",
    params=("k",),
    statements=(
        ReadStmt("v", KeyTemplate(("row", Param("k")))),
        WriteStmt(KeyTemplate(("row", Param("k"))), Add(ReadVal("v"), Const(1))),
        Emit(ReadVal("v")),
    ),
)


def run_backend(backend: str, group) -> dict:
    config = LitmusConfig(
        cc="dr", processing_batch_size=8, batches_per_piece=2,
        prime_bits=64, backend=backend,
    )
    server = LitmusServer(initial={}, config=config, group=group)
    client = LitmusClient(group, server.digest, config=config)
    txns = [Transaction(i, INCREMENT, {"k": i % 5}) for i in range(1, 17)]
    started = time.perf_counter()
    response = server.execute_batch(txns)
    prove_seconds = time.perf_counter() - started
    started = time.perf_counter()
    verdict = client.verify_response(txns, response)
    verify_seconds = time.perf_counter() - started
    assert verdict.accepted, verdict.reason
    proof_bytes = sum(p.proof.size_bytes for p in response.pieces)
    return {
        "backend": backend,
        "server_seconds": prove_seconds,
        "client_seconds": verify_seconds,
        "proof_bytes": proof_bytes,
        "pieces": len(response.pieces),
    }


def test_backend_comparison(benchmark):
    group = default_group(bits=512)

    def run_all():
        return [run_backend(name, group) for name in ("groth16", "spotcheck")]

    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    print("\nBackend comparison (real wall-clock, identical batch)")
    print(format_table(rows))
    groth16, spotcheck = rows
    # Constant-size vs opening-based proofs: the documented trade-off.
    assert groth16["proof_bytes"] == 312 * groth16["pieces"]
    assert spotcheck["proof_bytes"] > groth16["proof_bytes"]
