"""Exhaustive single-byte corruption sweep over ``scan_wal(repair=True)``.

The recovery scan promises that arbitrary damage becomes *a smaller log
plus a loud report, never an exception* — and that what survives is
exactly a contiguous, byte-faithful prefix of the acknowledged history.
The only honest way to believe a promise like that is to flip every byte
and check.  Two flavors:

- an exhaustive sweep over **every byte position** of a small two-segment
  log (``diskfault`` marked: hundreds of scans, its own CI job);
- a hypothesis sweep drawing (position, xor-mask) pairs, fast enough for
  tier-1.

Both assert the same four invariants after corrupting one byte:

1. ``scan_wal(repair=True)`` returns instead of raising;
2. the recovered seqs are a contiguous run of the original — and when
   that run does not start at seq 1 (the head segment's magic was hit,
   orphaning a suffix), the report is loud about the damage, because the
   checkpoint-anchored replay upstairs is what decides if the gap
   matters;
3. every recovered record is byte-identical to what was appended;
4. the repair converges: a second scan is clean, returns the same
   records, and the directory accepts new appends that chain on.

The intent journal makes the same promise about its one file, so the
exhaustive sweep also flips — and cuts the file at — every byte position
of a pristine ``xshard-intents.log``: the scan never raises and what
survives is what some frame-prefix of the journal says, nothing else.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.db.wal import IntentJournal, IntentTxn, WriteAheadLog, scan_wal
from repro.obs.metrics import MetricsRegistry

PAYLOADS = {
    1: b"alpha" * 5,
    2: b"bravo" * 7,
    3: b"charlie" * 4,
    4: b"delta" * 6,
}


@pytest.fixture(scope="module")
def pristine_log(tmp_path_factory):
    """A sealed two-segment log plus the byte count to sweep."""
    directory = tmp_path_factory.mktemp("pristine")
    wal = WriteAheadLog(
        str(directory), fsync="always", segment_max_bytes=96
    )
    for seq, payload in PAYLOADS.items():
        wal.append(seq, seq * 1001, payload)
    wal.close()
    total = sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )
    return str(directory), total


def _flip_byte(directory: str, position: int, mask: int) -> None:
    """XOR *mask* into global byte *position* of the segment stream."""
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        size = os.path.getsize(path)
        if position < size:
            with open(path, "r+b") as handle:
                handle.seek(position)
                byte = handle.read(1)[0]
                handle.seek(position)
                handle.write(bytes([byte ^ mask]))
            return
        position -= size
    raise AssertionError("position beyond the log")


def _check_invariants(directory: str) -> None:
    registry = MetricsRegistry()
    records, report = scan_wal(directory, registry=registry, repair=True)
    seqs = [r.seq for r in records]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs))) if seqs else True
    if seqs and seqs[0] != 1:
        # An orphaned suffix survives only with a loud report.
        assert report.status != "clean"
    for record in records:
        assert record.command_log == PAYLOADS[record.seq]
        assert record.digest == record.seq * 1001
    again, clean = scan_wal(directory, registry=registry, repair=True)
    assert [r.seq for r in again] == seqs
    assert clean.status == "clean"
    assert clean.truncations == 0 and clean.dropped_segments == 0
    # The healed directory is appendable and the chain continues.
    wal = WriteAheadLog(str(directory), fsync="always")
    next_seq = (seqs[-1] if seqs else 0) + 1
    wal.append(next_seq, next_seq * 1001, b"resumed")
    wal.close()
    resumed, _ = scan_wal(directory, registry=registry, repair=True)
    assert [r.seq for r in resumed] == seqs + [next_seq]


@pytest.mark.diskfault
def test_every_single_byte_position(pristine_log, tmp_path):
    source, total = pristine_log
    assert total > 150  # the sweep really covers two segments
    for position in range(total):
        victim = str(tmp_path / f"pos-{position:04d}")
        shutil.copytree(source, victim)
        _flip_byte(victim, position, 0x40)
        _check_invariants(victim)
        shutil.rmtree(victim)


def test_hypothesis_sweep(pristine_log, tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    source, total = pristine_log
    counter = iter(range(10**6))

    @hypothesis.given(
        position=st.integers(min_value=0, max_value=total - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    @hypothesis.settings(
        max_examples=40,
        deadline=None,
        database=None,
    )
    def sweep(position, mask):
        victim = str(tmp_path / f"case-{next(counter)}")
        shutil.copytree(source, victim)
        _flip_byte(victim, position, mask)
        _check_invariants(victim)
        shutil.rmtree(victim)

    sweep()


# -- the intent journal's one file ---------------------------------------------

# (round, resolution) in append order; None leaves the round pending.
JOURNAL_ROUNDS = [(0, "committed"), (1, "aborted"), (2, "committed"), (3, None)]


def _journal_txn(round_id: int) -> IntentTxn:
    return IntentTxn(
        txn_id=round_id,
        user="alice",
        program="transfer",
        params={"src": round_id, "dst": round_id + 1, "__w0": 95},
        shards=(0, 1),
    )


@pytest.fixture(scope="module")
def pristine_journal(tmp_path_factory):
    """A sealed journal plus every state a frame-prefix of it can mean."""
    path = str(tmp_path_factory.mktemp("journal") / "xshard-intents.log")
    journal = IntentJournal(path, num_shards=2)
    prefixes = [[]]  # after 0 frames, 1 frame, ...: [(round, state), ...]
    for round_id, resolution in JOURNAL_ROUNDS:
        assert journal.begin_round() == round_id
        journal.log_intent(
            round_id, (_journal_txn(round_id),), (0, 1), {0: 0, 1: 0}, {0: 1, 1: 2}
        )
        prefixes.append(prefixes[-1] + [(round_id, "pending")])
        if resolution is not None:
            journal.log_resolution(round_id, resolution)
            prefixes.append(prefixes[-1][:-1] + [(round_id, resolution)])
    journal.close()
    return path, prefixes


def _check_journal_invariants(path: str, prefixes: list) -> None:
    records, _report = IntentJournal.scan(path, repair=True)
    assert [(r.round_id, r.state) for r in records] in prefixes
    for record in records:
        assert record.txns == (_journal_txn(record.round_id),)
    again, clean = IntentJournal.scan(path, repair=True)
    assert again == records and clean.status == "clean"
    # The healed journal is appendable and round ids carry on.
    journal = IntentJournal(path, num_shards=2)
    next_round = journal.begin_round()
    assert next_round == len(records)
    journal.log_intent(
        next_round, (_journal_txn(next_round),), (0, 1), {0: 0, 1: 0}, {0: 1, 1: 2}
    )
    journal.close()
    resumed, _ = IntentJournal.scan(path, repair=False)
    assert [r.round_id for r in resumed] == list(range(next_round + 1))


@pytest.mark.diskfault
def test_every_journal_position_flipped_or_cut(pristine_journal, tmp_path):
    source, prefixes = pristine_journal
    total = os.path.getsize(source)
    assert len(prefixes) == 8 and total > 500
    victim = str(tmp_path / "xshard-intents.log")
    for position in range(total):
        shutil.copyfile(source, victim)
        _flip_byte(str(tmp_path), position, 0x40)
        _check_journal_invariants(victim, prefixes)
        shutil.copyfile(source, victim)
        os.truncate(victim, position)
        _check_journal_invariants(victim, prefixes)
