#!/usr/bin/env python3
"""Writes the golden durability directories under ``tests/data/``.

The checked-in directories were written by the commit *before*
``repro.core.recovery`` existed (``PYTHONPATH=<that checkout>/src python
tests/data/make_golden.py``); ``tests/integration/test_golden_recovery.py``
recovers copies of them and pins the digests and reports, so a recovery
refactor that changes what an old directory means fails there.  Do not
regenerate them with newer code — that would turn the compatibility test
into a self-consistency test.  Uses only APIs that exist on both sides.

- ``golden-unsharded-torn/`` — one engine, three acknowledged batches past
  the seq-0 checkpoint, then a torn write cut into the last WAL record;
- ``golden-s2-indoubt/`` — two shards, one committed cross-shard round,
  then a crash ``before-log`` on one participant of a second round: the
  sibling's apply batch is a bare WAL tail and the intent is in doubt.
"""

import os
import shutil

from repro.core import DurabilityConfig, LitmusConfig, LitmusSession, ShardedSession
from repro.core.sharding import ShardMap
from repro.crypto.rsa_group import RSAGroup
from repro.errors import SimulatedCrash
from repro.faults import CrashPoint, FaultPlan, TornWrite
from repro.obs.metrics import MetricsRegistry
from repro.vc.program import (
    Add,
    KeyTemplate,
    Param,
    Program,
    ReadStmt,
    ReadVal,
    Sub,
    WriteStmt,
)

HERE = os.path.dirname(os.path.abspath(__file__))
NUM_ACCOUNTS = 8
CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)
TRANSFER = Program(
    name="golden-transfer",
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
    ),
)


def _fresh(name: str) -> str:
    path = os.path.join(HERE, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def cross_pair(num_shards: int) -> tuple[int, int]:
    """An account pair owned by two different shards."""
    shard_map = ShardMap(num_shards)
    for src in range(NUM_ACCOUNTS):
        for dst in range(NUM_ACCOUNTS):
            if shard_map.shard_of(("acct", src)) != shard_map.shard_of(("acct", dst)):
                return src, dst
    raise AssertionError("no cross-shard pair in the golden keyspace")


def write_unsharded_torn(group: RSAGroup) -> None:
    directory = _fresh("golden-unsharded-torn")
    session = LitmusSession.create(
        initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
        config=CONFIG,
        group=group,
        registry=MetricsRegistry(),
        durability=DurabilityConfig(directory=directory),
    )
    for batch in range(3):
        for j in range(2):
            session.submit(
                "golden", TRANSFER, src=j, dst=(j + batch + 1) % NUM_ACCOUNTS, amount=3
            )
        assert session.flush().accepted
    print("unsharded digests:", [hex(e.digest) for e in session.digest_log.entries()])
    session.close()
    print("torn:", TornWrite().apply(directory))


def write_s2_indoubt(group: RSAGroup) -> None:
    directory = _fresh("golden-s2-indoubt")
    src, dst = cross_pair(2)
    target = ShardMap(2).shard_of(("acct", src))
    session = ShardedSession.create(
        initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
        config=CONFIG,
        num_shards=2,
        group=group,
        registry=MetricsRegistry(),
        fault_plan=FaultPlan(CrashPoint("before-log", skip=1, shard=target)),
        durability=DurabilityConfig(directory=directory),
    )
    session.submit("golden", TRANSFER, src=src, dst=dst, amount=5)
    assert session.flush().accepted
    print("s2 digests after the committed round:", [hex(d) for d in session.digest.shards])
    session.submit("golden", TRANSFER, src=src, dst=dst, amount=7)
    try:
        session.flush()
    except SimulatedCrash:
        pass
    else:
        raise AssertionError("the crash point did not fire")
    try:
        session.close()
    except BaseException:
        pass


if __name__ == "__main__":
    golden_group = RSAGroup.generate(bits=512, seed=b"litmus-golden")
    write_unsharded_torn(golden_group)
    write_s2_indoubt(golden_group)
