"""On-disk compatibility: directories written before the recovery refactor.

``tests/data/golden-*`` were written by the commit that preceded
``repro.core.recovery`` (see ``tests/data/make_golden.py``).  Recovering
copies of them must land on the pinned digests, ``RecoveryReport`` fields
and ``XShardRecoveryReport`` counts — the values that commit's own
recovery produced — so a change to how recovery reads a checkpoint, a WAL
segment or the intent journal cannot silently reinterpret old bytes.
"""

from __future__ import annotations

import importlib.util
import os
import shutil

import pytest

from repro.core import LitmusSession, ShardedSession, XShardRecoveryReport
from repro.db.wal import INTENT_JOURNAL_NAME, IntentJournal
from repro.obs.metrics import MetricsRegistry

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")

# The generator script doubles as the definition of the golden workload
# (program, keyspace); load it by path — tests/data is not a package.
_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(DATA, "make_golden.py")
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)
NUM_ACCOUNTS, TRANSFER = make_golden.NUM_ACCOUNTS, make_golden.TRANSFER

UNSHARDED_DIGEST = int(
    "502d67d0f4e8f64d9e56873cd0664825b89e38132ed9e93c1dfaebb4b1368535"
    "a1971cbc8d4526d9371009cd6c36a182dff5fd74ec53f944b1078593f09870b9",
    16,
)
S2_DIGESTS = (
    int(
        "1bfeb33c662b22d58179d0fbaa281c34ae8f052f75ceec010ec658523784329b"
        "7ee27dc47e56d84b3282a076202d329f9219c87eb102354bcfa0af3b287f9947",
        16,
    ),
    int(
        "210ea264c288ff8ab4724b65f2dc7fbcd0f04a1eec337cc6522602202deec61c"
        "5662d5a9fd5b17468f9e939be0262c81a0f90a900042418f5eafb5515f1fcf9",
        16,
    ),
)


@pytest.fixture
def golden(tmp_path):
    """Copy a golden directory to scratch (recovery repairs in place)."""

    def _copy(name: str) -> str:
        return shutil.copytree(os.path.join(DATA, name), str(tmp_path / name))

    return _copy


def test_unsharded_torn_tail_recovers_to_pinned_report(golden):
    directory = golden("golden-unsharded-torn")
    registry = MetricsRegistry()
    session = LitmusSession.recover(directory, [TRANSFER], registry=registry)
    try:
        report = session.recovery_report
        assert report.checkpoint_seq == 0
        assert report.replayed_batches == 2 and report.last_seq == 2
        assert report.digest == UNSHARDED_DIGEST == int(session.digest)
        # the third batch's record was torn mid-write: cut, never raised
        assert report.truncations == 1 and report.truncated_bytes == 84
        assert report.dropped_segments == 0
        assert os.path.basename(report.checkpoint_path) == (
            "checkpoint-0000000000000000.ckpt"
        )
        assert not report.checkpoint_from_mirror
        assert report.checkpoint_rejected == ()
        assert registry.counter("wal.torn_tail_truncated").value == 1
        assert registry.counter("recovery.replayed_batches").value == 2
        assert len(session.digest_log) == 3  # genesis + two surviving batches
        rows = session.server.db.snapshot()
        assert [rows[("acct", i)] for i in range(4)] == [94, 97, 106, 103]
        assert sum(rows.values()) == NUM_ACCOUNTS * 100
        session.submit("golden", TRANSFER, src=0, dst=1, amount=1)
        assert session.flush().accepted
    finally:
        session.close()


def test_s2_partial_in_doubt_round_is_truncate_aborted(golden):
    directory = golden("golden-s2-indoubt")
    registry = MetricsRegistry()
    session = ShardedSession.recover(directory, [TRANSFER], registry=registry)
    try:
        assert session.xshard_report == XShardRecoveryReport(
            rounds=2,
            in_doubt=1,
            committed=0,
            aborted=1,
            rolled_forward=0,
            truncated_records=1,
        )
        # both shards are back at the committed first round, bit for bit
        assert tuple(session.digest.shards) == S2_DIGESTS
        for report, digest in zip(session.recovery_reports, S2_DIGESTS):
            assert report.checkpoint_seq == 0
            assert report.replayed_batches == 1 and report.last_seq == 1
            assert report.digest == digest
            # the undo was a clean cut, not tail damage for the scan to find
            assert report.truncations == 0 and report.truncated_bytes == 0
        assert registry.counter("xshard.in_doubt_resolved").value == 1
        records, _scan = IntentJournal.scan(
            os.path.join(directory, INTENT_JOURNAL_NAME), repair=False
        )
        assert [r.state for r in records] == ["committed", "aborted"]
        src, dst = make_golden.cross_pair(2)
        owner = session.shard_map.shard_of
        assert session.shards[owner(("acct", src))].server.db.get(("acct", src)) == 95
        assert session.shards[owner(("acct", dst))].server.db.get(("acct", dst)) == 105
        probe = session.submit("golden", TRANSFER, src=src, dst=dst, amount=1)
        assert session.flush().accepted and probe.accepted
    finally:
        session.close()
