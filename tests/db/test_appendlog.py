"""One failure contract, both logs (:mod:`repro.db.wal.appendlog`).

The WAL segment log and the cross-shard intent journal hold the same
:class:`~repro.db.wal.appendlog.AppendLog`, so the same sentences must be
true of both, whichever append of a short run the disk fails under:

- every append that *returned* is read back by the scan, and no frame is
  ever hidden behind damaged bytes (an un-repaired scan already sees every
  acknowledged frame; whatever damage remains is past the last of them);
- a write failure is absorbed once, two in a row poison with
  ``op="write"``;
- an fsync failure poisons with ``op="fsync"`` and every later append
  re-raises it;
- nothing but :class:`~repro.errors.DurabilityError` ever escapes.
"""

from __future__ import annotations

import os

import pytest

from repro.db.fsio import OS_FILESYSTEM, FaultyFileSystem
from repro.db.wal import IntentJournal, IntentTxn, WriteAheadLog, scan_wal
from repro.errors import DurabilityError
from repro.faults import DiskFull, FaultPlan, FsyncFailure, ShortWrite, WriteError
from repro.obs.metrics import MetricsRegistry

RUN = 4  # appends per run; the fault is armed before each index in turn
WRITE_FAULTS = [WriteError, DiskFull, ShortWrite]


class _Wal:
    """The segment log, driven through its public surface."""

    target = "wal-"

    def __init__(self, root: str, fs, registry):
        self.directory = os.path.join(root, "wal")
        self.log = WriteAheadLog(
            self.directory, fsync="always", registry=registry, fs=fs
        )
        self.seq = 0

    def append(self) -> int:
        self.seq += 1
        self.log.append(self.seq, self.seq * 11, b"payload-%d" % self.seq)
        return self.seq

    def scan(self, repair: bool) -> tuple[list[int], str]:
        records, report = scan_wal(
            self.directory, registry=MetricsRegistry(), repair=repair
        )
        return [r.seq for r in records], report.status


class _Journal:
    """The intent journal, driven through its public surface."""

    target = "intents"

    def __init__(self, root: str, fs, registry):
        self.path = os.path.join(root, "xshard-intents.log")
        self.log = IntentJournal(
            self.path, num_shards=2, fsync=True, registry=registry, fs=fs
        )

    def append(self) -> int:
        round_id = self.log.begin_round()
        txn = IntentTxn(
            txn_id=round_id, user="u", program="p", params={"a": 1}, shards=(0, 1)
        )
        self.log.log_intent(round_id, (txn,), (0, 1), {0: 0, 1: 0}, {0: 1, 1: 2})
        return round_id

    def scan(self, repair: bool) -> tuple[list[int], str]:
        records, report = IntentJournal.scan(self.path, repair=repair)
        return [r.round_id for r in records], report.status


@pytest.fixture(params=[_Wal, _Journal], ids=["wal", "journal"])
def harness(request, tmp_path):
    """(log under test, its fault plan, its registry); the plan is armed by
    the test *after* construction so the fault hits an append."""
    registry = MetricsRegistry()
    plan = FaultPlan(seed=3).bind_registry(registry)
    log = request.param(str(tmp_path), FaultyFileSystem(plan, OS_FILESYSTEM), registry)
    yield log, plan, registry
    log.log.close()


def _run(log, plan, injector, index: int) -> tuple[list[int], list[DurabilityError]]:
    """RUN appends with *injector* armed before append *index*."""
    acked, errors = [], []
    for i in range(RUN):
        if i == index:
            plan.injectors.append(injector)
        try:
            acked.append(log.append())
        except DurabilityError as exc:  # anything else fails the test
            errors.append(exc)
    return acked, errors


def _assert_acked_survive(log, acked: list[int]) -> None:
    # Before any repair: every acknowledged frame is already reachable, so
    # whatever damage the fault left is not in front of one of them.
    found, _status = log.scan(repair=False)
    assert found == acked
    # The repair loses nothing and converges.
    assert log.scan(repair=True)[0] == acked
    assert log.scan(repair=False) == (acked, "clean")


@pytest.mark.parametrize("index", range(RUN))
@pytest.mark.parametrize("fault", WRITE_FAULTS)
def test_one_write_failure_is_absorbed(harness, fault, index):
    log, plan, registry = harness
    acked, errors = _run(log, plan, fault(path_contains=log.target), index)
    assert errors == [] and len(acked) == RUN
    assert registry.counter("storage.write_errors").value == 1
    _assert_acked_survive(log, acked)


@pytest.mark.parametrize("index", range(RUN))
@pytest.mark.parametrize("fault", WRITE_FAULTS)
def test_two_write_failures_in_a_row_poison_with_op_write(harness, fault, index):
    log, plan, _registry = harness
    acked, errors = _run(log, plan, fault(path_contains=log.target, times=2), index)
    # the failing append and every later one raise; nothing after acks
    assert len(acked) == index and len(errors) == RUN - index
    assert {exc.op for exc in errors} == {"write"}
    _assert_acked_survive(log, acked)


@pytest.mark.parametrize("index", range(RUN))
def test_fsync_failure_poisons_with_op_fsync(harness, index):
    log, plan, registry = harness
    acked, errors = _run(log, plan, FsyncFailure(path_contains=log.target), index)
    assert len(acked) == index and len(errors) == RUN - index
    assert {exc.op for exc in errors} == {"fsync"}
    # one real failure; the rest are the latch re-raising, not new fsyncs
    assert registry.counter("storage.fsync_failures").value == 1
    _assert_acked_survive(log, acked)


def test_journal_create_failure_is_a_typed_error(tmp_path):
    plan = FaultPlan(WriteError(path_contains="intents"), seed=3)
    with pytest.raises(DurabilityError) as excinfo:
        IntentJournal(
            str(tmp_path / "xshard-intents.log"),
            num_shards=2,
            fs=FaultyFileSystem(plan, OS_FILESYSTEM),
        )
    assert excinfo.value.op == "write"
    assert excinfo.value.path.endswith("xshard-intents.log")
