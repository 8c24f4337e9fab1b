#!/usr/bin/env python3
"""Attack gallery: every tampering strategy the client must catch.

The paper's threat model: a compromised server can at best mount a
denial-of-service.  This example exercises a gallery of active attacks
against a real server response and shows each one rejected:

1. forged transaction outputs;
2. a forged final digest (dropping a committed write);
3. silently dropping a proof piece;
4. claiming conflicting transactions formed a non-conflicting batch
   (an isolation-level downgrade — the ACIDRain-style attack);
5. swapping proofs between pieces;
6. replaying a stale proof after more writes happened;
7. writing wrong values (+1,000 each) and certifying them honestly.

Run:  python examples/attack_gallery.py
"""

import dataclasses

from repro import LitmusClient, LitmusConfig, LitmusServer
from repro.crypto import RSAGroup
from repro.db import Transaction
from repro.faults import FaultPlan, WrongWrite
from repro.vc import Program
from repro.vc.program import (
    Add,
    Const,
    Emit,
    KeyTemplate,
    Param,
    ReadStmt,
    ReadVal,
    WriteStmt,
)

INCREMENT = Program(
    name="increment",
    params=("k",),
    statements=(
        ReadStmt("v", KeyTemplate(("row", Param("k")))),
        WriteStmt(KeyTemplate(("row", Param("k"))), Add(ReadVal("v"), Const(1))),
        Emit(ReadVal("v")),
    ),
)


def increments(ids, key_of=lambda i: i):
    return [Transaction(i, INCREMENT, {"k": key_of(i)}) for i in ids]


def expect_rejected(name: str, client, txns, response) -> None:
    verdict = client.verify_response(txns, response)
    status = "REJECTED" if not verdict.accepted else "!!! ACCEPTED !!!"
    print(f"{name:<55} {status}")
    assert not verdict.accepted, f"attack {name!r} was not detected"


def main() -> None:
    print("== Attack gallery ==")
    group = RSAGroup.generate(bits=512, seed=b"attacks")
    config = LitmusConfig(
        cc="dr", processing_batch_size=4, batches_per_piece=1, prime_bits=64
    )

    def fresh_pair():
        server = LitmusServer(initial={}, config=config, group=group)
        client = LitmusClient(group, server.digest, config=config)
        return server, client

    # 1. Forged outputs.
    server, client = fresh_pair()
    txns = increments(range(1, 9))
    response = server.execute_batch(txns)
    piece = response.pieces[0]
    forged = dataclasses.replace(
        response,
        pieces=(
            dataclasses.replace(
                piece, outputs=tuple((i, (777,)) for i, _v in piece.outputs)
            ),
        )
        + response.pieces[1:],
    )
    expect_rejected("forged transaction outputs", client, txns, forged)

    # 2. Forged final digest (hiding a write).
    server, client = fresh_pair()
    response = server.execute_batch(txns)
    forged = dataclasses.replace(response, final_digest=response.final_digest ^ 1)
    expect_rejected("forged final digest (dropped write)", client, txns, forged)

    # 3. Dropped proof piece.
    server, client = fresh_pair()
    response = server.execute_batch(txns)
    assert len(response.pieces) > 1
    forged = dataclasses.replace(response, pieces=response.pieces[:-1])
    expect_rejected("silently dropped proof piece", client, txns, forged)

    # 4. Isolation downgrade: conflicting txns claimed non-conflicting.
    server, client = fresh_pair()
    conflicting = increments(range(1, 3), key_of=lambda i: 7)
    response = server.execute_batch(conflicting)
    merged = dataclasses.replace(
        response.pieces[0], unit_txn_ids=((1, 2),), txn_ids=(1, 2)
    )
    forged = dataclasses.replace(response, pieces=(merged,))
    expect_rejected("isolation downgrade (fake batch)", client, conflicting, forged)

    # 5. Swapped proofs between pieces.
    server, client = fresh_pair()
    response = server.execute_batch(txns)
    p0, p1 = response.pieces[0], response.pieces[1]
    forged = dataclasses.replace(
        response,
        pieces=(
            dataclasses.replace(p0, proof=p1.proof),
            dataclasses.replace(p1, proof=p0.proof),
        )
        + response.pieces[2:],
    )
    expect_rejected("swapped proofs between pieces", client, txns, forged)

    # 6. Stale replay: an old (valid!) response re-sent after more commits.
    server, client = fresh_pair()
    first = increments(range(1, 5))
    old_response = server.execute_batch(first)
    assert client.verify_response(first, old_response).accepted
    second = increments(range(5, 9))
    assert client.verify_response(second, server.execute_batch(second)).accepted
    expect_rejected("stale response replayed", client, first, old_response)

    # 7. Wrong writes, honestly certified: the server adds 1,000 to every
    # value one unit writes, then mints valid certificates for them.
    server, client = fresh_pair()
    server.fault_plan = FaultPlan(WrongWrite(unit=0))
    response = server.execute_batch(txns)
    expect_rejected("wrong writes, honestly certified", client, txns, response)

    print("\nall seven attacks detected — the server can at best refuse service")


if __name__ == "__main__":
    main()
