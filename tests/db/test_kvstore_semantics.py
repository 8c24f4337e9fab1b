"""KVStore state-transfer semantics and the durable-checkpoint round trip.

``snapshot`` / ``load`` / ``restore`` are the primitives every recovery
path (rollback, resync, WAL checkpointing) is built on, so their exact
semantics — merge vs replace, aliasing — get pinned here, together with
the end-to-end guarantee that a written-then-loaded checkpoint reproduces
the server image bit for bit, authenticated-dictionary state included.
"""

from __future__ import annotations

import json

from repro.core.checkpoint import DigestLog
from repro.core.memory_integrity import MemoryIntegrityProvider
from repro.db.kvstore import INITIAL_VALUE, KVStore
from repro.db.wal import load_latest_checkpoint, write_checkpoint


class TestSnapshotLoadRestore:
    def test_snapshot_is_a_detached_copy(self):
        store = KVStore({("a",): 1})
        snap = store.snapshot()
        snap[("a",)] = 99
        snap[("b",)] = 2
        assert store.get(("a",)) == 1
        assert ("b",) not in store

    def test_mutation_after_snapshot_does_not_leak_back(self):
        store = KVStore({("a",): 1})
        snap = store.snapshot()
        store.put(("a",), 50)
        assert snap == {("a",): 1}

    def test_load_merges_over_existing_keys(self):
        store = KVStore({("a",): 1, ("b",): 2})
        store.load({("b",): 20, ("c",): 30})
        assert store.snapshot() == {("a",): 1, ("b",): 20, ("c",): 30}

    def test_restore_replaces_and_removes_inserts(self):
        store = KVStore({("a",): 1})
        snap = store.snapshot()
        store.put(("a",), 10)
        store.put(("inserted",), 5)
        store.restore(snap)
        # rollback semantics: the insert is gone, not merged over
        assert ("inserted",) not in store
        assert store.snapshot() == {("a",): 1}

    def test_restore_does_not_alias_its_argument(self):
        store = KVStore()
        contents = {("a",): 1}
        store.restore(contents)
        contents[("a",)] = 99
        assert store.get(("a",)) == 1

    def test_absent_keys_read_the_agreed_initial_value(self):
        assert KVStore().get(("never", "written")) == INITIAL_VALUE


class TestCheckpointRoundTrip:
    def test_store_and_provider_state_survive_a_checkpoint(self, group, tmp_path):
        rows = {("acct", i): 100 + i for i in range(4)}
        provider = MemoryIntegrityProvider(group, initial=rows, prime_bits=64)
        digest = provider.digest
        log = DigestLog(digest)

        write_checkpoint(
            str(tmp_path),
            seq=7,
            digest=digest,
            rows=rows,
            provider_state=provider.state(),
            next_txn_id=42,
            config={"cc": "dr", "prime_bits": 64},
            group_modulus=group.modulus,
            group_generator=group.generator,
            durability={"fsync": "always"},
            digest_log=log.to_records(),
        )
        loaded = load_latest_checkpoint(str(tmp_path))

        assert loaded.rows == rows
        assert loaded.digest == digest
        assert loaded.next_txn_id == 42

        # The journaled provider state restores to an identical AD: same
        # digest, and certificates minted by the restored provider verify.
        restored = MemoryIntegrityProvider(group, prime_bits=64)
        restored.restore(loaded.provider_state)
        assert restored.digest == digest
        assert provider.state() == restored.state()

        # The digest log rode along intact, chain hashes included.
        replayed_log = DigestLog.from_records(loaded.digest_log)
        assert replayed_log.latest_digest == digest
        assert replayed_log.entries() == log.entries()

    def test_checkpoint_rows_are_canonically_ordered(self, group, tmp_path):
        """Two dicts with different insertion order produce identical files."""
        rows_a = {("b",): 2, ("a",): 1}
        rows_b = {("a",): 1, ("b",): 2}
        provider = MemoryIntegrityProvider(group, initial=rows_a, prime_bits=64)
        common = dict(
            seq=1,
            digest=provider.digest,
            provider_state=provider.state(),
            next_txn_id=1,
            config={},
            group_modulus=group.modulus,
            group_generator=group.generator,
            durability={},
            digest_log=DigestLog(provider.digest).to_records(),
        )
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        path_a = write_checkpoint(str(tmp_path / "a"), rows=rows_a, **common)
        path_b = write_checkpoint(str(tmp_path / "b"), rows=rows_b, **common)
        body_a = json.load(open(path_a))
        body_b = json.load(open(path_b))
        assert body_a["rows"] == body_b["rows"]
        assert body_a["checksum"] == body_b["checksum"]
