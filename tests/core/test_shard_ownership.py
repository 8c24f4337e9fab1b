"""Every shard stores, and authenticates, only the keys it owns.

A cross-shard apply gives each participant only the write statements whose
key that shard owns (DESIGN.md §14).  When every participant applied the
whole write set instead, the other shards' keys piled up in each shard's
rows, accumulator and checkpoints: in a 4-shard transfer run, shard 0's
checkpoint at sequence 128 held 69 keys it does not own, and every lookup
witness and every recovery paid for them.

The check runs over every path that writes a shard: accepted cross-shard
rounds, a round compensated live because one participant rejected, and a
recovery that rolls a pending round forward from the intent journal.  It
writes its own directory.  Copies of foreign keys already in a directory
written before the change survive recovery, because replay reproduces the
history as it was journaled; nothing here tries to remove them.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DurabilityConfig, LitmusConfig, ShardedSession
from repro.errors import SimulatedCrash
from repro.faults import CorruptProofPiece, CrashPoint, FaultPlan
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

TRANSFER = Program(
    name="own-transfer",
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

NUM_ACCOUNTS, NUM_SHARDS, SEED = 24, 4, 5
CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)


def _foreign_keys(session) -> dict[int, list]:
    """Per shard, every key in its rows or its AD store that it does not own."""
    foreign = {}
    for index, shard in enumerate(session.shards):
        store, _product, _digest, _factors = shard.server.provider.state()
        keys = set(shard.server.db.snapshot()) | set(store)
        stray = sorted(k for k in keys if session.shard_map.shard_of(k) != index)
        if stray:
            foreign[index] = stray
    return foreign


def _balance(session) -> int:
    owner = session.shard_map.shard_of
    return sum(
        session.shards[owner(("acct", i))].server.db.get(("acct", i))
        for i in range(NUM_ACCOUNTS)
    )


def _cross_pair(rng: random.Random, owner) -> tuple[int, int]:
    while True:
        src, dst = rng.sample(range(NUM_ACCOUNTS), 2)
        if owner(("acct", src)) != owner(("acct", dst)):
            return src, dst


def test_every_shard_holds_only_the_keys_it_owns(group, tmp_path):
    directory = str(tmp_path / "owned")
    registry = MetricsRegistry()
    plan = FaultPlan().bind_registry(registry)
    session = ShardedSession.create(
        initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
        config=CONFIG,
        num_shards=NUM_SHARDS,
        group=group,
        registry=registry,
        fault_plan=plan,
        # every apply is consolidated at once, so the crash below can only
        # be resolved by rolling the round forward
        checkpoint_every=1,
        durability=DurabilityConfig(directory=directory),
    )
    owner = session.shard_map.shard_of
    rng = random.Random(SEED)

    # accepted rounds, most calls crossing shards
    for _ in range(3):
        for _ in range(6):
            src, dst = rng.sample(range(NUM_ACCOUNTS), 2)
            session.submit("u", TRANSFER, src=src, dst=dst, amount=rng.randint(1, 9))
        assert session.flush().accepted
    assert registry.counter("xshard.commits").value >= 3  # rounds, not flushes
    assert _foreign_keys(session) == {}

    # a round compensated live: one participant's proof is corrupted
    src, dst = _cross_pair(rng, owner)
    victim = owner(("acct", dst))
    session.shards[victim].fault_plan = FaultPlan(CorruptProofPiece(piece=0))
    ticket = session.submit("u", TRANSFER, src=src, dst=dst, amount=4)
    assert not session.flush().accepted and not ticket.accepted
    session.shards[victim].fault_plan = plan
    assert registry.counter("xshard.compensations").value == 1
    assert _foreign_keys(session) == {}

    # a crash before one participant journals: recovery rolls forward
    src, dst = _cross_pair(rng, owner)
    plan.injectors.append(CrashPoint("before-log", shard=owner(("acct", src))))
    session.submit("u", TRANSFER, src=src, dst=dst, amount=6)
    with pytest.raises(SimulatedCrash):
        session.flush()
    try:
        session.close()
    except BaseException:  # a crashed session closes best effort, like a dead process
        pass

    recovered = ShardedSession.recover(
        directory,
        [TRANSFER],
        group=group,
        registry=MetricsRegistry(),
        checkpoint_every=1,
    )
    try:
        assert recovered.xshard_report.rolled_forward == 1
        assert _foreign_keys(recovered) == {}
        assert _balance(recovered) == NUM_ACCOUNTS * 100
        # and the recovered deployment keeps every new write at home
        src, dst = _cross_pair(rng, owner)
        probe = recovered.submit("u", TRANSFER, src=src, dst=dst, amount=1)
        assert recovered.flush().accepted and probe.accepted
        assert _foreign_keys(recovered) == {}
    finally:
        recovered.close()
