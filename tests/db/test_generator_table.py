"""The generator's fixed-base table on disk: ``generator.tbl``.

A durable layout writes the table ``g^(2^(8·i))`` once after its seq-0
checkpoint, and a cold recovery loads and checks it instead of building
it.  The file is a hint: every damaged, foreign or lying table must
leave recovery on the acknowledged digest with ``generator_table``
reporting ``rebuilt``, and only a real state desync may raise.  Each
recovery here runs with the process's caches cleared, as a fresh
process would, so the load path really runs.

The disk-fault cases (a table write refused at create or at a growth
checkpoint) ride the ``diskfault`` marker.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading

import pytest

from repro.core import DurabilityConfig, LitmusSession, ShardedSession
from repro.crypto.cache import clear_prime_caches, peek_generator_fixed_base
from repro.crypto.multiexp import FixedBaseWindow
from repro.crypto.rsa_group import RSAGroup
from repro.db.scrub import scrub_directory
from repro.db.wal import (
    GENERATOR_TABLE_NAME,
    GeneratorTableFile,
    generator_table,
    list_shard_directories,
)
from repro.db.wal.generator_table import _decode, _encode
from repro.errors import RecoveryError, ServerDesyncError
from repro.faults import (
    DiskFull,
    FaultPlan,
    FsyncFailure,
    GeneratorTableRot,
    WriteError,
)
from repro.obs.metrics import MetricsRegistry, get_metrics

from ..integration.test_anchored_recovery import (
    _rewrite_newest_checkpoint,
    _scale_product,
)
from ..integration.test_fault_recovery import CONFIG, NUM_ACCOUNTS, TRANSFER

# sha256 of the table file of the 512-bit test group with 40 entries: pins
# the format, and that every crypto backend writes the same bytes.
PINNED_40 = "a2abe4608adee5ca7acb7c0b57bea1335f1e1a98b69b13acc2005ff46f8c5953"


def _table(directory) -> str:
    return os.path.join(str(directory), GENERATOR_TABLE_NAME)


def _counter(name: str) -> int:
    return get_metrics().counter(name).value


def _durable(group, directory, *, checkpoint_every=64, fault_plan=None, registry=None):
    """A durable session over the eight-account table, one batch flushed;
    its table starts from ``g``, not from what earlier tests built."""
    clear_prime_caches()
    session = LitmusSession.create(
        initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
        config=CONFIG,
        group=group,
        checkpoint_every=checkpoint_every,
        durability=DurabilityConfig(directory=str(directory)),
        fault_plan=fault_plan,
        registry=registry,
    )
    session.submit("u", TRANSFER, src=0, dst=1, amount=3)
    assert session.flush().accepted
    return session


def _cold_recover(directory) -> LitmusSession:
    """Recover as a fresh process would: nothing cached, no group handed in."""
    clear_prime_caches()
    return LitmusSession.recover(str(directory), [TRANSFER], registry=MetricsRegistry())


def _acked(group, directory) -> int:
    session = _durable(group, directory)
    digest = int(session.digest)
    session.close()
    return digest


def _grow(session) -> list:
    """Flush four never-written accounts into the table, then a transfer
    beside them: its witnesses are generator powers over the ten other
    rows, past what the table held, so its checkpoint rewrites the file."""
    tickets = [
        session.submit("u", TRANSFER, src=i, dst=NUM_ACCOUNTS + i, amount=1)
        for i in range(4)
    ]
    assert session.flush().accepted
    tickets.append(session.submit("u", TRANSFER, src=4, dst=5, amount=1))
    assert session.flush().accepted
    return tickets


def _entries(directory) -> int:
    with open(_table(directory), "rb") as handle:
        return len(_decode(handle.read())[2])


def _rewrite(directory, mutate) -> None:
    """Decode the table, let *mutate* change ``(N, g, powers)``, and write
    it back with a checksum that matches: damage the checksum cannot see."""
    with open(_table(directory), "rb") as handle:
        modulus, generator, powers = _decode(handle.read())
    modulus, generator, powers = mutate(modulus, generator, powers)
    with open(_table(directory), "wb") as handle:
        handle.write(b"".join(_encode(modulus, generator, powers)))


def _wrong_entry(index):
    def mutate(modulus, generator, powers):
        powers = list(powers)
        powers[index] = powers[index] * 2 % modulus
        return modulus, generator, powers

    return mutate


def _foreign_group(modulus, generator, powers):
    other = RSAGroup.generate(bits=512, seed=b"another-deployment")
    window = FixedBaseWindow(other.generator, other.modulus)
    window.extend(len(powers))
    return other.modulus, other.generator, window.snapshot()


def _truncate(directory) -> None:
    os.truncate(_table(directory), os.path.getsize(_table(directory)) // 2)


class TestFormat:
    def test_round_trips_bit_for_bit(self, group):
        window = FixedBaseWindow(group.generator, group.modulus)
        window.extend(40)
        data = b"".join(_encode(group.modulus, group.generator, window.snapshot()))
        assert hashlib.sha256(data).hexdigest() == PINNED_40
        modulus, generator, powers = _decode(data)
        assert (modulus, generator) == (group.modulus, group.generator)
        assert tuple(powers) == window.snapshot()
        assert b"".join(_encode(modulus, generator, powers)) == data

    def test_a_window_seeded_with_powers_computes_what_pow_does(self, group):
        built = FixedBaseWindow(group.generator, group.modulus)
        built.extend(48)
        seeded = FixedBaseWindow(group.generator, group.modulus, built.snapshot())
        exponent = (1 << 383) + 12345
        assert seeded.power(exponent) == pow(group.generator, exponent, group.modulus)
        with pytest.raises(ValueError):
            FixedBaseWindow(group.generator, group.modulus, (group.generator + 1,))


class TestColdRecovery:
    def test_loads_the_table_written_after_the_seq0_checkpoint(self, group, tmp_path):
        acked = _acked(group, tmp_path)
        loads = _counter("recovery.generator_table_loads")
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == "loaded"
            assert int(recovered.digest) == acked
            assert _counter("recovery.generator_table_loads") == loads + 1
            recovered.submit("u", TRANSFER, src=1, dst=2, amount=1)
            assert recovered.flush().accepted
        finally:
            recovered.close()

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda d: os.unlink(_table(d)), "missing"),
            (_truncate, "checksum"),
            (lambda d: GeneratorTableRot().apply(str(d)), "checksum"),
            (lambda d: _rewrite(d, _foreign_group), "group"),
            (lambda d: _rewrite(d, _wrong_entry(-1)), "chain"),
            (lambda d: _rewrite(d, _wrong_entry(0)), "chain"),
        ],
        ids=[
            "missing", "truncated", "bit-flipped", "other-group", "last-entry",
            "first-entry",
        ],
    )
    def test_a_bad_table_is_rebuilt(self, group, tmp_path, damage, reason):
        acked = _acked(group, tmp_path)
        damage(tmp_path)
        rebuilds = _counter("recovery.generator_table_rebuilds")
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == f"rebuilt: {reason}"
            assert int(recovered.digest) == acked
            assert _counter("recovery.generator_table_rebuilds") == rebuilds + 1
        finally:
            recovered.close()
        # The recovery wrote a good table back for the next one.
        again = _cold_recover(tmp_path)
        try:
            assert again.recovery_report.generator_table == "loaded"
        finally:
            again.close()

    def test_a_wrong_entry_the_spot_check_misses_fails_the_cross_check(
        self, group, tmp_path
    ):
        acked = _acked(group, tmp_path)
        _rewrite(tmp_path, _wrong_entry(100))
        rebuilds = _counter("recovery.generator_table_rebuilds")
        recovered = _cold_recover(tmp_path)
        try:
            # Either a sampled link caught it or g^S' over it missed.
            assert recovered.recovery_report.generator_table in (
                "rebuilt: chain",
                "rebuilt: cross-check",
            )
            assert int(recovered.digest) == acked
            assert _counter("recovery.generator_table_rebuilds") == rebuilds + 1
        finally:
            recovered.close()

    def test_the_cross_check_retries_over_a_rebuilt_table(
        self, group, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(generator_table, "_SAMPLED_LINKS", 0)
        acked = _acked(group, tmp_path)
        _rewrite(tmp_path, _wrong_entry(100))
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == "rebuilt: cross-check"
            assert int(recovered.digest) == acked
        finally:
            recovered.close()

    def test_a_real_desync_with_a_good_table_still_raises(self, group, tmp_path):
        session = _durable(group, tmp_path)
        session.close()
        # S times 3 still divides by the changed rows' primes, so the
        # roll-forward succeeds and only the digest cross-check can object.
        _rewrite_newest_checkpoint(tmp_path, _scale_product(3))
        rebuilds = _counter("recovery.generator_table_rebuilds")
        with pytest.raises(ServerDesyncError):
            _cold_recover(tmp_path)
        # The loaded table was suspected once, then the rebuilt one missed too.
        assert _counter("recovery.generator_table_rebuilds") == rebuilds + 1

    def test_in_process_recovery_uses_the_cached_table(self, group, tmp_path):
        _acked(group, tmp_path)
        os.unlink(_table(tmp_path))  # the file is not read at all
        loads = _counter("recovery.generator_table_loads")
        recovered = LitmusSession.recover(str(tmp_path), [TRANSFER], group=group)
        try:
            assert recovered.recovery_report.generator_table == "cached"
            assert _counter("recovery.generator_table_loads") == loads
            assert os.path.exists(_table(tmp_path))  # and written back
        finally:
            recovered.close()


class TestWriteRule:
    def test_written_once_unless_the_table_grows(self, group, tmp_path):
        registry = MetricsRegistry()
        session = _durable(group, tmp_path, checkpoint_every=1, registry=registry)
        try:
            assert registry.counter("storage.generator_table_writes").value == 1
            inode = os.stat(_table(tmp_path)).st_ino
            for i in range(3):
                session.submit("u", TRANSFER, src=i, dst=i + 1, amount=1)
                assert session.flush().accepted  # each flush checkpoints
            assert registry.counter("storage.generator_table_writes").value == 1
            assert os.stat(_table(tmp_path)).st_ino == inode
            entries = _entries(tmp_path)
            assert all(ticket.accepted for ticket in _grow(session))
            assert registry.counter("storage.generator_table_writes").value == 2
            assert _entries(tmp_path) > entries
        finally:
            session.close()

    def test_a_table_less_than_a_quarter_past_the_file_is_not_rewritten(
        self, group, tmp_path
    ):
        """Each inserted row adds three primes to S' (24 entries at 64-bit
        primes), so inserts rewrite the file only once the table is a
        quarter past it: a logarithmic number of rewrites.  A recovery
        extends the shorter table it loads."""
        registry = MetricsRegistry()
        session = _durable(group, tmp_path, checkpoint_every=1, registry=registry)
        try:
            _grow(session)
            entries = _entries(tmp_path)
            session.submit("u", TRANSFER, src=1, dst=2 * NUM_ACCOUNTS, amount=1)
            assert session.flush().accepted  # one more row, one more checkpoint
            held = peek_generator_fixed_base(group.modulus, group.generator)
            assert entries < held.table_entries <= entries * 5 // 4
            assert registry.counter("storage.generator_table_writes").value == 2
            assert _entries(tmp_path) == entries
            acked = int(session.digest)
        finally:
            session.close()
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == "loaded"
            assert int(recovered.digest) == acked
        finally:
            recovered.close()

    def test_a_layout_holds_one_group(self, group, tmp_path):
        table = GeneratorTableFile(str(tmp_path), group=group)
        other = RSAGroup(group.modulus, group.generator * 4 % group.modulus)
        with pytest.raises(RecoveryError):
            table.load(other)

    def test_sharded_layout_keeps_one_table_at_its_root(self, group, tmp_path):
        session = ShardedSession.create(
            initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
            config=CONFIG,
            num_shards=2,
            group=group,
            registry=MetricsRegistry(),
            durability=DurabilityConfig(directory=str(tmp_path)),
        )
        session.submit("u", TRANSFER, src=0, dst=1, amount=3)
        assert session.flush().accepted
        acked = tuple(session.digest.shards)
        session.close()
        assert os.path.exists(_table(tmp_path))
        for shard in list_shard_directories(str(tmp_path)):
            assert not os.path.exists(_table(shard))
        loads = _counter("recovery.generator_table_loads")
        clear_prime_caches()
        recovered = ShardedSession.recover(
            str(tmp_path), [TRANSFER], registry=MetricsRegistry()
        )
        try:
            assert tuple(recovered.digest.shards) == acked
            assert {r.generator_table for r in recovered.recovery_reports} == {"loaded"}
            assert _counter("recovery.generator_table_loads") == loads + 1
        finally:
            recovered.close()


def test_shard_threads_share_one_table_file(group, tmp_path):
    """Shard recoveries load, suspect and save one table object at once:
    the file is read once, dropped once and written once."""
    _acked(group, tmp_path)
    os.unlink(_table(tmp_path))
    window = FixedBaseWindow(group.generator, group.modulus)
    window.extend(8)  # a table too short for any recovery
    with open(_table(tmp_path), "wb") as handle:
        handle.write(b"".join(_encode(group.modulus, group.generator, window.snapshot())))
    clear_prime_caches()
    public = RSAGroup(group.modulus, group.generator)
    registry = MetricsRegistry()
    table = GeneratorTableFile(str(tmp_path), registry=registry)  # bound by load
    loads = _counter("recovery.generator_table_loads")
    rebuilds = _counter("recovery.generator_table_rebuilds")
    suspected = []

    def shard() -> None:
        table.load(public)
        suspected.append(table.reject())
        public.power(public.generator, 1 << 1000)  # builds past the file
        table.save()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=shard) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert suspected == [True] * 8
    assert _counter("recovery.generator_table_loads") == loads + 1
    assert _counter("recovery.generator_table_rebuilds") == rebuilds + 1
    assert registry.counter("storage.generator_table_writes").value == 1
    assert _entries(tmp_path) > 8


class TestScrub:
    def test_a_good_table_is_verified_in_full(self, group, tmp_path):
        _acked(group, tmp_path)
        report = scrub_directory(str(tmp_path), registry=MetricsRegistry())
        assert report.ok and not report.findings
        assert report.accumulators_verified == 1

    def test_a_broken_link_is_found_and_the_table_unlinked(self, group, tmp_path):
        acked = _acked(group, tmp_path)
        _rewrite(tmp_path, _wrong_entry(100))  # its checksum still holds
        registry = MetricsRegistry()
        report = scrub_directory(str(tmp_path), registry=registry)
        (finding,) = report.findings
        assert finding.kind == "generator_table"
        assert finding.action == "repaired" and report.repaired == 1
        assert registry.counter("scrub.repairs").value == 1
        assert not os.path.exists(_table(tmp_path))
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == "rebuilt: missing"
            assert int(recovered.digest) == acked
            assert os.path.exists(_table(tmp_path))
        finally:
            recovered.close()
        assert scrub_directory(str(tmp_path), registry=MetricsRegistry()).ok

    def test_the_accumulator_check_never_uses_a_table_that_failed(
        self, group, tmp_path, monkeypatch
    ):
        """A bad table this process already loaded (the spot check missed
        its wrong entry) must not reach scrub's own ``g^S``."""
        _acked(group, tmp_path)
        _rewrite(tmp_path, _wrong_entry(100))
        clear_prime_caches()
        monkeypatch.setattr(generator_table, "_SAMPLED_LINKS", 0)
        public = RSAGroup(group.modulus, group.generator)
        assert GeneratorTableFile(str(tmp_path)).load(public) == "loaded"
        report = scrub_directory(str(tmp_path), registry=MetricsRegistry())
        assert [f.kind for f in report.findings] == ["generator_table"]
        assert report.accumulators_verified == 1


@pytest.mark.diskfault
class TestTableWriteFaults:
    """A refused table write costs a rebuild, never a ticket or the WAL."""

    FAULTS = {
        "eio": lambda: WriteError(path_contains=GENERATOR_TABLE_NAME),
        "enospc": lambda: DiskFull(path_contains=GENERATOR_TABLE_NAME),
        "fsync": lambda: FsyncFailure(path_contains=GENERATOR_TABLE_NAME),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_at_create(self, group, tmp_path, fault):
        plan = FaultPlan(self.FAULTS[fault]())
        registry = MetricsRegistry()
        session = _durable(group, tmp_path, fault_plan=plan, registry=registry)
        try:
            assert plan.injected == 1
            assert registry.counter("storage.generator_table_write_failures").value == 1
            assert not os.path.exists(_table(tmp_path))
            assert not os.path.exists(_table(tmp_path) + ".tmp")
            tickets = [
                session.submit("u", TRANSFER, src=i, dst=i + 1, amount=1)
                for i in range(3)
            ]
            assert session.flush().accepted
            assert all(ticket.accepted for ticket in tickets)
            acked = int(session.digest)
        finally:
            session.close()
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == "rebuilt: missing"
            assert int(recovered.digest) == acked
        finally:
            recovered.close()

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_at_a_growth_checkpoint(self, group, tmp_path, fault):
        plan = FaultPlan()
        registry = MetricsRegistry()
        session = _durable(
            group, tmp_path, checkpoint_every=1, fault_plan=plan, registry=registry
        )
        try:
            plan.injectors.append(self.FAULTS[fault]())
            tickets = _grow(session)
            assert plan.injected == 1
            assert registry.counter("storage.generator_table_write_failures").value == 1
            assert all(ticket.accepted for ticket in tickets)
            session.submit("u", TRANSFER, src=1, dst=2, amount=1)
            assert session.flush().accepted  # the WAL is not poisoned
            acked = int(session.digest)
        finally:
            session.close()
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == "loaded"
            assert int(recovered.digest) == acked
        finally:
            recovered.close()

    def test_rot_at_rest_is_rebuilt(self, group, tmp_path):
        acked = _acked(group, tmp_path)
        GeneratorTableRot().apply(str(tmp_path))
        recovered = _cold_recover(tmp_path)
        try:
            assert recovered.recovery_report.generator_table == "rebuilt: checksum"
            assert int(recovered.digest) == acked
        finally:
            recovered.close()
