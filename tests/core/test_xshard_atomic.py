"""Atomic cross-shard commit: compensation, in-doubt recovery, typed errors.

The 2PC of DESIGN.md §16: every cross-shard apply round journals a durable
intent before fan-out, partial outcomes are compensated live (accepted
shards roll back to their pre-round verified watermarks), and a crash
mid-round leaves an in-doubt intent that ``ShardedSession.recover``
resolves from the durable evidence — commit-forward, truncate-abort, or
roll-forward.
"""

from __future__ import annotations

import os

import pytest

from repro.core import (
    DigestVector,
    DurabilityConfig,
    LitmusConfig,
    ShardedSession,
)
from repro.core.sharding import ShardMap
from repro.db.fsio import FaultyFileSystem
from repro.db.wal import INTENT_JOURNAL_NAME, IntentJournal
from repro.errors import DurabilityError, RecoveryError, SimulatedCrash
from repro.faults import (
    CorruptProofPiece,
    CrashPoint,
    FaultPlan,
    FsyncFailure,
    ShortWrite,
    WriteError,
)
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
    name="xa-transfer",
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

NUM_ACCOUNTS = 16
CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)


def _initial():
    return {("acct", i): 100 for i in range(NUM_ACCOUNTS)}


def _read(session, acct):
    return session.shards[session.shard_map.shard_of(("acct", acct))].server.db.get(
        ("acct", acct)
    )


def _balance(session):
    return sum(_read(session, i) for i in range(NUM_ACCOUNTS))


def _cross_pair(num_shards: int) -> tuple[int, int]:
    """A (src, dst) account pair whose owners are two different shards."""
    sm = ShardMap(num_shards)
    for src in range(NUM_ACCOUNTS):
        for dst in range(NUM_ACCOUNTS):
            if sm.shard_of(("acct", src)) != sm.shard_of(("acct", dst)):
                return src, dst
    raise AssertionError("no cross-shard pair in the test keyspace")


def _abandon(session) -> None:
    """Drop a crashed session like a dead process would (best effort)."""
    try:
        session.close()
    except BaseException:
        pass


class TestLiveCompensation:
    def test_partial_apply_compensates_accepted_shards(self, group):
        """One participant rejects its apply: the other must be undone.

        The victim shard gets a private fault plan that corrupts its proof,
        so its apply batch fails client verification while the sibling
        shard's batch verifies and journals.  Pre-compensation code left
        the sibling's writes applied — half a transfer.
        """
        registry = MetricsRegistry()
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=2, group=group,
            registry=registry,
        )
        try:
            src, dst = _cross_pair(2)
            victim = session.shard_map.shard_of(("acct", dst))
            baseline = DigestVector(session.digest.shards)
            session.shards[victim].fault_plan = FaultPlan(
                CorruptProofPiece(piece=0)
            )
            ticket = session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
            result = session.flush()
            assert not result.accepted
            assert not ticket.accepted
            assert f"shard(s) {victim}" in ticket._reason
            # the never-applied baseline: balances and per-shard digests
            assert all(_read(session, i) == 100 for i in range(NUM_ACCOUNTS))
            assert session.digest == baseline
            assert registry.counter("xshard.compensations").value == 1
            assert registry.counter("xshard.commits").value == 0
            # the compensated deployment keeps taking (cross-shard) work
            session.shards[victim].fault_plan = None
            retry = session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
            assert session.flush().accepted and retry.accepted
            assert _read(session, src) == 95 and _read(session, dst) == 105
            assert _balance(session) == NUM_ACCOUNTS * 100
        finally:
            session.close()


class TestInDoubtRecovery:
    def _crash_session(self, group, directory, stage, target, **create_kwargs):
        plan = FaultPlan(CrashPoint(stage, shard=target))
        return ShardedSession.create(
            initial=_initial(),
            config=CONFIG,
            num_shards=3,
            group=group,
            registry=MetricsRegistry(),
            fault_plan=plan,
            durability=DurabilityConfig(directory=directory),
            **create_kwargs,
        )

    def test_crash_after_log_commits_forward(self, group, tmp_path):
        """Every participant journaled before the kill: recovery commits."""
        directory = str(tmp_path / "fwd")
        src, dst = _cross_pair(3)
        target = ShardMap(3).shard_of(("acct", src))
        session = self._crash_session(group, directory, "after-log", target)
        session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        with pytest.raises(SimulatedCrash):
            session.flush()
        _abandon(session)

        recovered = ShardedSession.recover(
            directory, [TRANSFER], group=group, registry=MetricsRegistry()
        )
        try:
            report = recovered.xshard_report
            assert report.rounds == 1 and report.in_doubt == 1
            assert report.committed == 1
            assert report.aborted == 0 and report.rolled_forward == 0
            assert _read(recovered, src) == 95 and _read(recovered, dst) == 105
            assert _balance(recovered) == NUM_ACCOUNTS * 100
            assert recovered._intents.pending_rounds == ()
            # the resolution is durable: a journal scan agrees
            records, _ = IntentJournal.scan(
                os.path.join(directory, INTENT_JOURNAL_NAME), repair=False
            )
            assert [r.state for r in records] == ["committed"]
            # liveness, including another cross-shard round
            probe = recovered.submit("u", TRANSFER, src=src, dst=dst, amount=1)
            assert recovered.flush().accepted and probe.accepted
        finally:
            recovered.close()

    def test_recovery_scans_the_intent_journal_once(
        self, group, tmp_path, monkeypatch
    ):
        """The layout read scans and repairs the journal, through the
        fault plan's filesystem; the reopened journal continues from those
        records instead of a second scan."""
        directory = str(tmp_path / "once")
        src, dst = _cross_pair(3)
        target = ShardMap(3).shard_of(("acct", src))
        session = self._crash_session(group, directory, "after-log", target)
        session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        with pytest.raises(SimulatedCrash):
            session.flush()
        _abandon(session)

        scans = []
        scan = IntentJournal.scan

        def counting_scan(*args, **kwargs):
            scans.append((args[0], kwargs.get("fs")))
            return scan(*args, **kwargs)

        monkeypatch.setattr(IntentJournal, "scan", staticmethod(counting_scan))
        plan = FaultPlan()
        recovered = ShardedSession.recover(
            directory, [TRANSFER], group=group, registry=MetricsRegistry(),
            fault_plan=plan,
        )
        try:
            [(path, fs)] = scans
            assert path == os.path.join(directory, INTENT_JOURNAL_NAME)
            assert isinstance(fs, FaultyFileSystem) and fs.plan is plan
            assert recovered.xshard_report.committed == 1
            # round ids continue past the journaled round; none is pending
            assert recovered._intents.next_round == 1
            assert recovered._intents.pending_rounds == ()
        finally:
            recovered.close()

    def test_crash_before_log_truncates_partial_apply(self, group, tmp_path):
        """The killed shard never journaled: the sibling's record is undone.

        The sibling's apply is a bare WAL tail record, so recovery aborts
        the round by physically truncating it — indistinguishable from the
        crash having happened one write earlier.
        """
        directory = str(tmp_path / "undo")
        src, dst = _cross_pair(3)
        target = ShardMap(3).shard_of(("acct", src))
        session = self._crash_session(group, directory, "before-log", target)
        digest_before = DigestVector(session.digest.shards)
        session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        with pytest.raises(SimulatedCrash):
            session.flush()
        _abandon(session)

        recovered = ShardedSession.recover(
            directory, [TRANSFER], group=group, registry=MetricsRegistry()
        )
        try:
            report = recovered.xshard_report
            assert report.rounds == 1 and report.in_doubt == 1
            assert report.aborted == 1 and report.truncated_records == 1
            assert report.committed == 0 and report.rolled_forward == 0
            # the never-applied baseline, bit for bit
            assert all(_read(recovered, i) == 100 for i in range(NUM_ACCOUNTS))
            assert recovered.digest == digest_before
            probe = recovered.submit("u", TRANSFER, src=src, dst=dst, amount=2)
            assert recovered.flush().accepted and probe.accepted
        finally:
            recovered.close()

    def test_consolidated_partial_rolls_forward(self, group, tmp_path):
        """A checkpointed sibling cannot be truncated: recovery re-applies.

        ``checkpoint_every=1`` makes the surviving shard consolidate the
        apply record into a checkpoint immediately, so undo is off the
        table — the journaled writes must be re-driven on the killed shard.
        """
        directory = str(tmp_path / "roll")
        src, dst = _cross_pair(3)
        target = ShardMap(3).shard_of(("acct", src))
        session = self._crash_session(
            group, directory, "before-log", target, checkpoint_every=1
        )
        session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        with pytest.raises(SimulatedCrash):
            session.flush()
        _abandon(session)

        recovered = ShardedSession.recover(
            directory,
            [TRANSFER],
            group=group,
            registry=MetricsRegistry(),
            checkpoint_every=1,
        )
        try:
            report = recovered.xshard_report
            assert report.rounds == 1 and report.in_doubt == 1
            assert report.rolled_forward == 1
            assert report.aborted == 0 and report.committed == 0
            assert _read(recovered, src) == 95 and _read(recovered, dst) == 105
            assert _balance(recovered) == NUM_ACCOUNTS * 100
        finally:
            recovered.close()
        # Idempotence: the resolution is durable, so a second recovery
        # finds nothing in doubt and the state stays put.
        again = ShardedSession.recover(
            directory,
            [TRANSFER],
            group=group,
            registry=MetricsRegistry(),
            checkpoint_every=1,
        )
        try:
            assert again.xshard_report.in_doubt == 0
            assert _read(again, src) == 95 and _read(again, dst) == 105
        finally:
            again.close()

    def test_clean_cross_round_journals_commit(self, group, tmp_path):
        directory = str(tmp_path / "clean")
        registry = MetricsRegistry()
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=3, group=group,
            registry=registry,
            durability=DurabilityConfig(directory=directory),
        )
        src, dst = _cross_pair(3)
        ticket = session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        assert session.flush().accepted and ticket.accepted
        session.close()
        assert registry.counter("xshard.intents").value == 1
        assert registry.counter("xshard.commits").value == 1
        records, scan = IntentJournal.scan(
            os.path.join(directory, INTENT_JOURNAL_NAME), repair=False
        )
        assert scan.pending == 0
        assert [r.state for r in records] == ["committed"]
        (record,) = records
        assert record.num_shards == 3
        assert record.txns[0].program == TRANSFER.name
        assert set(record.participants) == {
            ShardMap(3).shard_of(("acct", src)),
            ShardMap(3).shard_of(("acct", dst)),
        }

    def test_recover_missing_shard_dir_raises_typed_error(self, group, tmp_path):
        directory = str(tmp_path / "lost")
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=3, group=group,
            registry=MetricsRegistry(),
            durability=DurabilityConfig(directory=directory),
        )
        src, dst = _cross_pair(3)
        session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        assert session.flush().accepted
        session.close()
        os.rename(
            os.path.join(directory, "shard-01"),
            os.path.join(directory, "shard-01-gone"),
        )
        with pytest.raises(RecoveryError) as excinfo:
            ShardedSession.recover(
                directory, [TRANSFER], group=group, registry=MetricsRegistry()
            )
        assert "shard-01" in str(excinfo.value)


class TestJournalWriteFault:
    def test_short_journal_write_then_crash_keeps_the_round_in_doubt(
        self, group, tmp_path
    ):
        """A torn intent frame must never sit *in front of* a later intent.

        One short write on the journal, then a shard crash mid cross-round.
        The journal used to leak a raw ``OSError`` and leave the torn frame
        mid-file; the crashed round's intent was then appended behind it,
        truncated away by the recovery scan as a "corrupt tail", and the
        deployment came back with half a transfer applied (sum 1605).
        """
        directory = str(tmp_path / "torn-journal")
        src, dst = _cross_pair(3)
        target = ShardMap(3).shard_of(("acct", src))
        registry = MetricsRegistry()
        plan = FaultPlan().bind_registry(registry)
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=3, group=group,
            registry=registry, fault_plan=plan,
            durability=DurabilityConfig(directory=directory),
        )
        plan.injectors.append(ShortWrite(path_contains="intents", times=1))
        first = session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        assert session.flush().accepted and first.accepted  # write absorbed
        assert registry.counter("storage.write_errors").value == 1
        plan.injectors.append(CrashPoint("before-log", shard=target))
        session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        with pytest.raises(SimulatedCrash):
            session.flush()
        _abandon(session)

        recovered = ShardedSession.recover(
            directory, [TRANSFER], group=group, registry=MetricsRegistry()
        )
        try:
            report = recovered.xshard_report
            assert report.rounds == 2 and report.in_doubt == 1
            assert report.aborted == 1 and report.truncated_records == 1
            assert _read(recovered, src) == 95 and _read(recovered, dst) == 105
            assert _balance(recovered) == NUM_ACCOUNTS * 100
            assert recovered._intents.pending_rounds == ()
        finally:
            recovered.close()


class TestRouterJournalContract:
    """What ``_run_cross_round`` may rely on when the journal's disk fails:
    only a typed :class:`DurabilityError`, at a point that keeps the round
    atomic — never started, or in doubt with every participant applied."""

    def _session(self, group, directory):
        registry = MetricsRegistry()
        plan = FaultPlan().bind_registry(registry)
        session = ShardedSession.create(
            initial=_initial(), config=CONFIG, num_shards=3, group=group,
            registry=registry, fault_plan=plan,
            durability=DurabilityConfig(directory=directory),
        )
        return session, plan

    def test_create_raises_typed_error_when_the_journal_cannot_be_made(
        self, group, tmp_path
    ):
        plan = FaultPlan(WriteError(path_contains="intents"))
        with pytest.raises(DurabilityError) as excinfo:
            ShardedSession.create(
                initial=_initial(), config=CONFIG, num_shards=3, group=group,
                registry=MetricsRegistry(), fault_plan=plan,
                durability=DurabilityConfig(directory=str(tmp_path / "nojournal")),
            )
        assert excinfo.value.op == "write"

    def test_create_closes_every_file_when_the_journal_cannot_be_made(
        self, group, tmp_path, monkeypatch
    ):
        # Every file a failed create() opened (each shard's WAL segment and
        # the journal itself) must be closed by the time the error escapes.
        opened, closed = [], []
        real_open = FaultyFileSystem.open

        def spy_open(fs, path, mode):
            handle = real_open(fs, path, mode)
            real_close = handle.close

            def close():
                closed.append(path)
                real_close()

            handle.close = close
            opened.append(path)
            return handle

        monkeypatch.setattr(FaultyFileSystem, "open", spy_open)
        plan = FaultPlan(WriteError(path_contains="intents", times=None))
        with pytest.raises(DurabilityError):
            ShardedSession.create(
                initial=_initial(), config=CONFIG, num_shards=3, group=group,
                registry=MetricsRegistry(), fault_plan=plan,
                durability=DurabilityConfig(directory=str(tmp_path / "nojournal")),
            )
        segments = {os.path.dirname(path) for path in opened if path.endswith(".seg")}
        assert len(segments) == 3  # one WAL per shard
        assert any(path.endswith(INTENT_JOURNAL_NAME) for path in opened)
        assert set(opened) <= set(closed)

    @pytest.mark.parametrize(
        "fault, op",
        [
            (lambda: FsyncFailure(path_contains="intents"), "fsync"),
            (lambda: WriteError(path_contains="intents", times=2), "write"),
        ],
        ids=["fsync", "double-write"],
    )
    def test_failed_intent_means_the_round_never_started(
        self, group, tmp_path, fault, op
    ):
        directory = str(tmp_path / "no-intent")
        session, plan = self._session(group, directory)
        src, dst = _cross_pair(3)
        seqs_before = [shard._batch_seq for shard in session.shards]
        plan.injectors.append(fault())
        ticket = session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        with pytest.raises(DurabilityError) as excinfo:
            session.flush()
        assert excinfo.value.op == op
        # raised before any submit_call reached a shard: nothing queued,
        # nothing journaled, the caller's ticket still open
        assert not ticket.resolved
        assert [shard.queued for shard in session.shards] == [0, 0, 0]
        assert [shard._batch_seq for shard in session.shards] == seqs_before
        _abandon(session)

        recovered = ShardedSession.recover(
            directory, [TRANSFER], group=group, registry=MetricsRegistry()
        )
        try:
            assert recovered.xshard_report.rounds == 0
            assert all(_read(recovered, i) == 100 for i in range(NUM_ACCOUNTS))
            assert [s.recovery_report.last_seq for s in recovered.shards] == seqs_before
        finally:
            recovered.close()

    def test_failed_resolution_leaves_an_applied_round_in_doubt(
        self, group, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "no-resolution")
        session, plan = self._session(group, directory)
        src, dst = _cross_pair(3)
        log_intent = session._intents.log_intent

        def log_intent_then_arm(*args, **kwargs):
            record = log_intent(*args, **kwargs)
            plan.injectors.append(FsyncFailure(path_contains="intents"))
            return record

        monkeypatch.setattr(session._intents, "log_intent", log_intent_then_arm)
        ticket = session.submit("u", TRANSFER, src=src, dst=dst, amount=5)
        with pytest.raises(DurabilityError) as excinfo:
            session.flush()
        assert excinfo.value.op == "fsync"
        # the fan-out had finished: the ticket is acknowledged, not rejected,
        # and the round stays pending for recovery to judge
        assert ticket.resolved and ticket.accepted
        assert len(session._intents.pending_rounds) == 1
        _abandon(session)

        recovered = ShardedSession.recover(
            directory, [TRANSFER], group=group, registry=MetricsRegistry()
        )
        try:
            report = recovered.xshard_report
            assert report.rounds == 1 and report.in_doubt == 1
            assert report.committed == 1 and report.aborted == 0
            assert _read(recovered, src) == 95 and _read(recovered, dst) == 105
            assert _balance(recovered) == NUM_ACCOUNTS * 100
            assert recovered._intents.pending_rounds == ()
        finally:
            recovered.close()
