#!/usr/bin/env python3
"""The full operational story: verification, durability, crash, recovery.

Combines the operational components the paper's Section 9 motivates, all
behind the one session API:

1. verified batches, each journaled to the on-disk **WAL** before it is
   acknowledged, with periodic atomic **checkpoints**;
2. the client's **hash-chained digest log** (its durable trust anchor),
   journaled inside every checkpoint;
3. a crash: the process dies, a new one rebuilds the session from the
   directory alone — replaying the WAL past the newest checkpoint and
   cross-checking the rebuilt digest against the journaled one — and
   verification continues on the same digest chain;
4. a *stale* restore (an operator puts an old checkpoint back) is refused
   instead of silently rewinding acknowledged history.

Run:  python examples/recovery_story.py
"""

import os
import shutil
import tempfile

from repro import LitmusConfig
from repro.core import DurabilityConfig, LitmusSession
from repro.crypto import RSAGroup
from repro.db.wal import list_checkpoints, mirror_path
from repro.errors import WalError
from repro.vc import Program
from repro.vc.program import (
    Add,
    Emit,
    KeyTemplate,
    Param,
    ReadStmt,
    ReadVal,
    Sub,
    WriteStmt,
)

TRANSFER = Program(
    name="transfer",
    params=("src", "dst", "amount"),
    statements=(
        ReadStmt("s", KeyTemplate(("acct", Param("src")))),
        ReadStmt("d", KeyTemplate(("acct", Param("dst")))),
        WriteStmt(KeyTemplate(("acct", Param("src"))), Sub(ReadVal("s"), Param("amount"))),
        WriteStmt(KeyTemplate(("acct", Param("dst"))), Add(ReadVal("d"), Param("amount"))),
        Emit(Sub(ReadVal("s"), Param("amount"))),
    ),
)


def main() -> None:
    print("== Recovery story ==")
    group = RSAGroup.generate(bits=512, seed=b"recovery")
    config = LitmusConfig(cc="dr", processing_batch_size=8, prime_bits=64)
    accounts = {("acct", i): 1_000 for i in range(4)}
    with tempfile.TemporaryDirectory(prefix="litmus-recovery-") as scratch:
        directory = os.path.join(scratch, "db")
        session = LitmusSession.create(
            initial=accounts,
            config=config,
            group=group,
            checkpoint_every=2,
            durability=DurabilityConfig(directory=directory),
        )
        # Kept aside to show that restoring it later is detected.
        genesis = list_checkpoints(directory)[0]
        stale_copy = os.path.join(scratch, os.path.basename(genesis))
        shutil.copy(genesis, stale_copy)

        for _round in range(3):
            for j in range(5):
                session.submit(
                    f"user{j}", TRANSFER, src=j % 4, dst=(j + 1) % 4, amount=25
                )
            assert session.flush().accepted
        for entry in session.digest_log.entries():
            print(
                f"  digest log #{entry.sequence}: {entry.num_txns} txn(s) "
                f"-> {entry.digest:#x}"[:72] + "..."
            )
        acknowledged = session.digest
        del session  # the crash: no close(), no goodbye

        print("\n-- crash: a new process recovers from the directory alone --")
        recovered = LitmusSession.recover(directory, [TRANSFER], group=group)
        report = recovered.recovery_report
        print(
            f"recovered: checkpoint seq {report.checkpoint_seq}, replayed "
            f"{report.replayed_batches} WAL batch(es) to seq {report.last_seq}"
        )
        assert recovered.digest == acknowledged
        print("rebuilt digest matches the last acknowledged digest")
        recovered.digest_log.verify_chain()
        assert len(recovered.digest_log) == 4  # genesis + three batches

        for j in range(4):
            recovered.submit(
                f"user{j}", TRANSFER, src=j % 4, dst=(j + 2) % 4, amount=10
            )
        result = recovered.flush()
        print(f"post-recovery batch verified: {result.accepted}")
        assert result.accepted
        total = sum(recovered.server.db.get(("acct", i)) for i in range(4))
        print(f"balances conserved across the crash: {total} (expected 4000)")
        assert total == 4000
        recovered.close()

        print("\n-- an operator restores a stale checkpoint --")
        for path in list_checkpoints(directory):
            os.unlink(path)
            os.unlink(mirror_path(path))
        shutil.copy(stale_copy, genesis)
        try:
            LitmusSession.recover(directory, [TRANSFER], group=group)
            raise SystemExit("stale checkpoint slipped through!")
        except WalError as exc:
            print(f"stale checkpoint refused: {exc}")


if __name__ == "__main__":
    main()
