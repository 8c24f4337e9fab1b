#!/usr/bin/env python3
"""Hybrid real-time mode (Section 9): low-latency marked transactions.

Batched verification has a long proving pipeline; a client that needs an
answer *now* marks a transaction for the interactive path.  Both paths
share one memory digest, so the verification chain stays unbroken.

Run:  python examples/hybrid_realtime.py
"""

from repro import HybridLitmus, LitmusConfig
from repro.crypto import RSAGroup
from repro.db import Transaction
from repro.vc import Program
from repro.vc.program import (
    Add,
    Emit,
    KeyTemplate,
    Param,
    ReadStmt,
    ReadVal,
    WriteStmt,
)

DEPOSIT = Program(
    name="deposit",
    params=("acct", "amount"),
    statements=(
        ReadStmt("balance", KeyTemplate(("acct", Param("acct")))),
        WriteStmt(
            KeyTemplate(("acct", Param("acct"))), Add(ReadVal("balance"), Param("amount"))
        ),
        Emit(Add(ReadVal("balance"), Param("amount"))),
    ),
)


def main() -> None:
    print("== Hybrid batch/interactive verification ==")
    group = RSAGroup.generate(bits=512, seed=b"hybrid")
    config = LitmusConfig(cc="dr", processing_batch_size=8, prime_bits=64)
    hybrid = HybridLitmus(
        initial={("acct", i): 100 for i in range(4)}, config=config, group=group
    )

    txns = [
        Transaction(i, DEPOSIT, {"acct": i % 4, "amount": 10 * i}) for i in range(1, 11)
    ]
    # Transactions 1 and 2 are urgent: serve them interactively.
    outcome = hybrid.run(txns, interactive_ids={1, 2})

    print(f"interactive answers (immediate): {outcome.interactive_outputs}")
    print(
        f"interactive path: {outcome.interactive_seconds * 1e3:.2f} ms "
        f"(measured, plus a simulated 1 ms round trip each); "
        f"batch path: {outcome.batch_seconds:.2f} s measured"
    )
    print(f"batched remainder verified: {outcome.batch_verdict.accepted}")
    assert outcome.accepted
    print("digest chain spans both modes — one continuous verification history")


if __name__ == "__main__":
    main()
