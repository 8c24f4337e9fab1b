"""Fault-injection matrix: detection and recovery cost per fault class.

Not a paper figure — this benchmark exercises the robustness layer wrapped
around the verification pipeline.  For every fault class in
:mod:`repro.faults` it runs one *real* verification round (CC, circuit
compilation, certification, proving, client verification) with a single
injected fault and a :class:`~repro.core.session.RetryPolicy`, then
reports the full desync story: how many rounds the client rejected, how
many resyncs re-derived the trusted digest from the command log, how many
attempts the batch took, and whether the final state verified (client and
server digests agree, total balance conserved).

Run under pytest like the figure benchmarks::

    pytest benchmarks/bench_faults.py --benchmark-only

or standalone — CI does this so ``check_metrics_schema.py --require`` can
pin the fault/rollback metric names against a real export::

    PYTHONPATH=src python benchmarks/bench_faults.py \
        --metrics-out faults-metrics.jsonl
"""

from __future__ import annotations

import time

from repro.core import LitmusConfig, LitmusSession, RetryPolicy
from repro.bench import format_table
from repro.crypto.rsa_group import default_group
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
)
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

NUM_ACCOUNTS = 8
NUM_TXNS = 6
SEED = 7

FAULT_FACTORIES = {
    "corrupt_proof": lambda: CorruptProofPiece(piece=0),
    "tamper_statement": lambda: TamperPublicStatement(piece=0),
    "tamper_digest": lambda: TamperEndDigest(piece=0),
    "drop_piece": lambda: DropPiece(piece=0),
    "reorder_pieces": lambda: ReorderPieces(),
    "bitflip_witness": lambda: BitFlipWitness(unit=0, which="write"),
    "kill_prover": lambda: KillProver(piece=0),
    "drop_message": lambda: DropMessage(direction="response"),
}

_TRANSFER = Program(
    name="bench-faults-transfer",
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


def _fresh_session(plan: FaultPlan, group) -> LitmusSession:
    return LitmusSession.create(
        initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
        config=LitmusConfig(
            cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
        ),
        group=group,
        retry_policy=RetryPolicy(max_attempts=3, backoff=0.0),
        fault_plan=plan,
    )


def run_fault_matrix(
    kinds=tuple(FAULT_FACTORIES), seed: int = SEED, group=None
) -> list[dict]:
    """One adversarial round per fault class; returns the report rows."""
    group = group if group is not None else default_group(bits=512)
    rows = []
    for kind in kinds:
        plan = FaultPlan(FAULT_FACTORIES[kind](), seed=seed)
        session = _fresh_session(plan, group)
        for i in range(NUM_TXNS):
            session.submit(
                f"user{i % 3}",
                _TRANSFER,
                src=i,
                dst=(i + 1) % NUM_ACCOUNTS,
                amount=5,
            )
        start = time.perf_counter()
        result = session.flush()
        elapsed = time.perf_counter() - start
        balance = sum(
            session.server.db.get(("acct", i)) for i in range(NUM_ACCOUNTS)
        )
        recovered = (
            result.accepted
            and session.digest == session.server.digest
            and balance == NUM_ACCOUNTS * 100
        )
        rows.append(
            {
                "fault": kind,
                "injected": plan.injected,
                "rejections": session.batches_rejected,
                "resyncs": session.resyncs,
                "attempts": result.attempts,
                "recovered": recovered,
                "seconds": round(elapsed, 3),
            }
        )
    return rows


def test_fault_recovery_matrix(benchmark):
    rows = benchmark.pedantic(run_fault_matrix, iterations=1, rounds=1)
    print("\nFault-injection matrix — detection and recovery per fault class")
    print(format_table(rows))
    # Every class must fire, be detected, and be recovered from.
    assert all(row["injected"] >= 1 for row in rows)
    assert all(row["attempts"] >= 2 for row in rows)
    assert all(row["recovered"] for row in rows)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    from repro.obs import JsonLinesExporter, Tracer, get_metrics, get_tracer, set_tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--metrics-out", metavar="PATH", default=None)
    parser.add_argument("--trace-out", metavar="PATH", default=None)
    args = parser.parse_args(argv)
    if args.trace_out:
        # The process-default tracer is a small ring; the trace file is whole.
        set_tracer(Tracer())

    rows = run_fault_matrix(seed=args.seed)
    print("Fault-injection matrix — detection and recovery per fault class")
    print(format_table(rows))
    if args.metrics_out:
        JsonLinesExporter(args.metrics_out).export((), get_metrics().snapshot())
        print(f"[obs] metrics snapshot written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        JsonLinesExporter(args.trace_out).export(get_tracer().finished(), {})
        print(f"[obs] trace written to {args.trace_out}", file=sys.stderr)
    return 0 if all(row["recovered"] for row in rows) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
