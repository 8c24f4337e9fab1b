"""The sharded verification engine: ShardMap, routing, recovery.

The keyspace is partitioned across S independently verified engines
(DESIGN.md §14).  Single-shard transactions route directly to their owner;
cross-shard transactions go through the deterministic two-phase
reserve/release planner plus per-shard apply transactions.  The client
keeps one constant-size digest per shard.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading

import pytest

from repro.core import (
    DigestVector,
    DurabilityConfig,
    LitmusConfig,
    ShardMap,
    ShardedSession,
)
from repro.core.sharding import (
    APPLY_SUFFIX,
    ApplyCompanions,
    derive_apply_program,
    is_apply_companion,
)
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
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

TRANSFER = Program(
    name="shard-transfer",
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

NUM_ACCOUNTS = 16
CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)


def _initial():
    return {("acct", i): 100 for i in range(NUM_ACCOUNTS)}


def _balance(session):
    return sum(
        session.shards[session.shard_map.shard_of(("acct", i))].server.db.get(
            ("acct", i)
        )
        for i in range(NUM_ACCOUNTS)
    )


class TestShardMap:
    def test_deterministic_across_instances(self):
        a, b = ShardMap(4), ShardMap(4)
        keys = [("acct", i) for i in range(64)] + [("item", "x"), (b"raw", True)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_single_shard_is_always_zero(self):
        sm = ShardMap(1)
        assert {sm.shard_of(("acct", i)) for i in range(32)} == {0}

    def test_all_shards_reachable(self):
        sm = ShardMap(4)
        seen = {sm.shard_of(("acct", i)) for i in range(256)}
        assert seen == {0, 1, 2, 3}

    def test_type_tagging_separates_confusable_keys(self):
        # ("1",) and (1,) must be free to land on different shards: the
        # encoding is type-tagged, not str()-flattened.  Stability of the
        # assignment itself is what matters here.
        sm = ShardMap(7)
        assert sm.shard_of(("1",)) == ShardMap(7).shard_of(("1",))
        assert sm.shard_of((1,)) == ShardMap(7).shard_of((1,))

    def test_partition(self):
        sm = ShardMap(3)
        rows = {("acct", i): i for i in range(30)}
        parts = sm.partition(rows)
        assert len(parts) == 3
        merged = {}
        for index, part in enumerate(parts):
            for key in part:
                assert sm.shard_of(key) == index
            merged.update(part)
        assert merged == rows

    def test_rejects_bad_counts(self):
        with pytest.raises(ReproError):
            ShardMap(0)


class TestApplyPrograms:
    def test_apply_companion_writes_final_values(self):
        apply = derive_apply_program(TRANSFER)
        assert apply.name == TRANSFER.name + APPLY_SUFFIX
        # Same write keys, but values come from parameters: re-executing is
        # idempotent and read-free on the value side.
        result = apply.execute(
            {"src": 0, "dst": 1, "amount": 5, "__w0": 95, "__w1": 105},
            lambda key: 0,
        )
        writes = dict(result.writes)
        assert writes == {("acct", 0): 95, ("acct", 1): 105}

    def test_subset_companion_keeps_only_its_statements(self):
        apply = derive_apply_program(TRANSFER, (1,))
        assert apply.name == TRANSFER.name + APPLY_SUFFIX + "[1]"
        assert apply.params == ("src", "dst", "amount", "__w1")
        result = apply.execute(
            {"src": 0, "dst": 1, "amount": 5, "__w1": 105}, lambda key: 0
        )
        assert dict(result.writes) == {("acct", 1): 105}

    @pytest.mark.parametrize("indexes", [(), (0, 1), (1, 0), (0, 0), (2,), (-1,)])
    def test_non_canonical_subsets_are_rejected(self, indexes):
        # one name per subset: ascending, non-empty, proper, in range
        with pytest.raises(ReproError):
            derive_apply_program(TRANSFER, indexes)

    def test_registry_derives_companions_by_name_on_lookup(self):
        registry = ApplyCompanions({TRANSFER.name: TRANSFER})
        assert list(registry) == [TRANSFER.name] and len(registry) == 1
        for suffix, indexes in (("", None), ("[0]", (0,)), ("[1]", (1,))):
            name = TRANSFER.name + APPLY_SUFFIX + suffix
            assert name in registry
            assert registry[name] == derive_apply_program(TRANSFER, indexes)
            assert registry[name] is registry[name]  # derived once
        # lookups never grow what the registry iterates
        assert list(registry) == [TRANSFER.name]
        for name in ("[01]", "[1,0]", "[0,1]", "[2]", "[]", "x"):
            assert TRANSFER.name + APPLY_SUFFIX + name not in registry
        assert "other" + APPLY_SUFFIX not in registry

    def test_concurrent_lookups_agree(self):
        # Every shard's replay thread looks companions up in one registry.
        writes = tuple(
            WriteStmt(KeyTemplate(("k", i)), Param("v")) for i in range(4)
        )
        program = Program(name="wide", params=("v",), statements=writes)
        registry = ApplyCompanions({program.name: program})
        names = [program.name + APPLY_SUFFIX] + [
            f"{program.name}{APPLY_SUFFIX}[{','.join(map(str, subset))}]"
            for size in (1, 2, 3)
            for subset in itertools.combinations(range(4), size)
        ]
        seen: list[list] = [[] for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda out: out.extend(registry[n] for n in names),
                    args=(seen[i],),
                )
                for i in range(len(seen))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(found == [registry[n] for n in names] for found in seen)
        assert [c.name for c in seen[0]] == names

    def test_param_collision_is_rejected(self):
        bad = Program(
            name="bad",
            params=("__w0",),
            statements=(
                WriteStmt(KeyTemplate(("k", Param("__w0"))), Param("__w0")),
            ),
        )
        with pytest.raises(ReproError):
            derive_apply_program(bad)


class TestShardedSession:
    def test_single_and_cross_shard_transfers(self, group):
        registry = MetricsRegistry()
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=4, group=group,
            registry=registry,
        )
        try:
            sm = session.shard_map
            # one same-shard pair and several cross-shard pairs
            by_shard: dict[int, list[int]] = {}
            for i in range(NUM_ACCOUNTS):
                by_shard.setdefault(sm.shard_of(("acct", i)), []).append(i)
            same = next(accts for accts in by_shard.values() if len(accts) >= 2)
            tickets = [
                session.submit("u", TRANSFER, src=same[0], dst=same[1], amount=3)
            ]
            for i in range(4):
                src = same[0]
                dst = next(
                    j
                    for j in range(NUM_ACCOUNTS)
                    if sm.shard_of(("acct", j)) != sm.shard_of(("acct", src))
                )
                tickets.append(
                    session.submit("u", TRANSFER, src=src, dst=dst, amount=1)
                )
            result = session.flush()
            assert result.accepted, result.reason
            assert all(t.accepted for t in tickets)
            # the same-shard transfer sees pristine balances; the cross
            # transfers reuse its src account, so they emit 97 + 100
            assert tickets[0].outputs == (200,)
            assert all(t.outputs == (197,) for t in tickets[1:])
            assert _balance(session) == NUM_ACCOUNTS * 100
            assert registry.counter("shard.single_txns").value == 1
            assert registry.counter("shard.cross_txns").value == 4
            digest = session.digest
            assert isinstance(digest, DigestVector) and len(digest) == 4
            # every shard that took work moved off its genesis digest;
            # per-shard digests are the per-shard client/server agreement
            for shard in session.shards:
                assert shard.digest == DigestVector.single(shard.server.digest)
        finally:
            session.close()

    def test_submit_rejects_apply_names(self, group):
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=2, group=group,
            registry=MetricsRegistry(),
        )
        try:
            apply = derive_apply_program(TRANSFER)
            with pytest.raises(ReproError):
                session.submit("u", apply, src=0, dst=1, amount=1, __w0=0, __w1=0)
            # owned-subset companions, and any name of that shape, too:
            # submitting one would skip reserve and execute
            lookalike = Program(
                name="free-money" + APPLY_SUFFIX + "[0]",
                params=("dst", "__w0"),
                statements=(
                    WriteStmt(KeyTemplate(("acct", Param("dst"))), Param("__w0")),
                ),
            )
            for program in (derive_apply_program(TRANSFER, (1,)), lookalike):
                assert is_apply_companion(program.name)
                with pytest.raises(ReproError, match="internal apply program"):
                    session.submit("u", program, src=0, dst=1, amount=1, __w0=9, __w1=9)
            assert session.queued == 0
        finally:
            session.close()

    def test_flush_failure_requeues_instead_of_double_submitting(self, group):
        from repro.errors import DeadlineExceeded

        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=2, group=group,
            registry=MetricsRegistry(),
        )
        try:
            session.submit("u", TRANSFER, src=0, dst=1, amount=1)
            with pytest.raises(DeadlineExceeded):
                session.flush(deadline=0.0)  # already expired
            # the call went back to the global queue, not a shard's
            assert session.queued == 1
            for shard in session.shards:
                assert shard.queued == 0
            result = session.flush()
            assert result.accepted and result.num_txns == 1
            assert _balance(session) == NUM_ACCOUNTS * 100
        finally:
            session.close()

    def test_recover_round_trip(self, group, tmp_path):
        directory = str(tmp_path / "sharded")
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=3, group=group,
            registry=MetricsRegistry(),
            durability=DurabilityConfig(directory=directory),
        )
        session.submit("u", TRANSFER, src=0, dst=1, amount=5)
        session.submit("u", TRANSFER, src=2, dst=9, amount=7)
        assert session.flush().accepted
        digest_before = DigestVector(session.digest.shards)
        session.close()
        assert sorted(os.listdir(directory)) == [
            "generator.tbl", "shard-00", "shard-01", "shard-02",
            "xshard-intents.log",
        ]

        recovered = ShardedSession.recover(
            directory, [TRANSFER], group=group, registry=MetricsRegistry()
        )
        try:
            assert recovered.num_shards == 3
            assert len(recovered.recovery_reports) == 3
            assert recovered.digest == digest_before
            assert _balance(recovered) == NUM_ACCOUNTS * 100
            # liveness, including the cross-shard path, post-recovery
            ticket = recovered.submit("u", TRANSFER, src=0, dst=9, amount=2)
            assert recovered.flush().accepted and ticket.accepted
        finally:
            recovered.close()

    def test_recover_rejects_non_contiguous_layout(self, group, tmp_path):
        directory = str(tmp_path / "holes")
        os.makedirs(os.path.join(directory, "shard-00"))
        os.makedirs(os.path.join(directory, "shard-02"))
        with pytest.raises(ReproError):
            ShardedSession.recover(directory, [TRANSFER], group=group)

    def test_create_rejects_bad_shard_count(self, group):
        with pytest.raises(ReproError):
            ShardedSession.create(
                initial=_initial(), config=CONFIG, num_shards=0, group=group
            )
