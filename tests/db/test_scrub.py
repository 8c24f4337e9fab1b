"""Scrub & repair: finding at-rest rot while redundancy still exists.

The headline property: a rotted checkpoint primary is rebuilt
byte-for-byte from its mirror twin by one ``scrub_directory`` pass — the
damage is *healed*, not merely survived.  Around it: doubly-rotted pairs
are quarantined so loaders fall back cleanly, segment/intent damage is
reported but left for recovery (truncation needs the cross-segment
chain), sharded layouts are walked shard by shard, ``repair=False`` is a
pure audit, and every pass lands on the ``scrub.*`` counters.
"""

from __future__ import annotations

import os

import pytest

from repro.crypto.authdict import AuthenticatedDictionary
from repro.crypto.rsa_group import default_group
from repro.db.scrub import BackgroundScrubber, scrub_directory
from repro.db.wal import (
    INTENT_JOURNAL_NAME,
    IntentJournal,
    WriteAheadLog,
    list_segments,
    load_latest_checkpoint,
    mirror_path,
    select_checkpoint,
    write_checkpoint,
)
from repro.db.fsio import rot_file
from repro.faults import CheckpointRot
from repro.obs.metrics import MetricsRegistry


PRIME_BITS = 64


def _write_ckpt(directory, seq=1, value=7, **overrides):
    """A checkpoint of the one-row table ``{("acct", 0): value}`` with its
    real accumulator, so every scrub check (the re-proof included) holds."""
    group = default_group(bits=512)
    rows = {("acct", 0): value}
    provider_state = AuthenticatedDictionary(group, rows, PRIME_BITS).state()
    digest = provider_state[2]
    kwargs = dict(
        seq=seq,
        digest=digest,
        rows=rows,
        provider_state=provider_state,
        next_txn_id=5,
        config={"cc": "dr", "prime_bits": PRIME_BITS},
        group_modulus=group.modulus,
        group_generator=group.generator,
        durability={"fsync": "always"},
        digest_log=[
            {
                "sequence": 0,
                "digest": hex(digest),
                "num_txns": 0,
                "entry_hash": "00" * 32,
            }
        ],
    )
    kwargs.update(overrides)
    return write_checkpoint(str(directory), **kwargs)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestCheckpointRepair:
    def test_rotted_primary_is_rebuilt_from_its_mirror(self, tmp_path):
        _write_ckpt(tmp_path, seq=3, value=9)
        rotted = CheckpointRot().apply(str(tmp_path))
        # Before the scrub, loading survives only by falling back.
        assert select_checkpoint(str(tmp_path)).used_mirror

        registry = MetricsRegistry()
        report = scrub_directory(str(tmp_path), registry=registry)

        assert report.ok and report.repaired == 1
        assert "healed" in report.summary()
        (finding,) = report.findings
        assert finding.kind == "checkpoint" and finding.action == "repaired"
        assert finding.path == rotted
        assert _read(rotted) == _read(mirror_path(rotted))
        # The primary is whole again: no fallback, nothing rejected.
        selection = select_checkpoint(str(tmp_path))
        assert not selection.used_mirror and not selection.rejected
        assert selection.checkpoint.seq == 3
        assert registry.counter("storage.mirror_repairs").value == 1
        # A second pass finds nothing left to do.
        assert not scrub_directory(str(tmp_path), registry=registry).findings

    def test_rotted_mirror_is_rebuilt_from_its_primary(self, tmp_path):
        primary = _write_ckpt(tmp_path, seq=1)
        rot_file(mirror_path(primary), 97, 0x20)

        report = scrub_directory(str(tmp_path))

        assert report.ok and report.repaired == 1
        (finding,) = report.findings
        assert finding.kind == "mirror" and finding.action == "repaired"
        assert _read(primary) == _read(mirror_path(primary))

    def test_doubly_rotted_pair_is_quarantined(self, tmp_path):
        _write_ckpt(tmp_path, seq=1, value=1)
        newest = _write_ckpt(tmp_path, seq=2, value=2)
        rot_file(newest, 97, 0x20)
        rot_file(mirror_path(newest), 97, 0x20)

        registry = MetricsRegistry()
        report = scrub_directory(str(tmp_path), registry=registry)

        assert report.ok and report.quarantined == 2
        assert {f.action for f in report.findings} == {"quarantined"}
        assert not os.path.exists(newest)
        assert os.path.exists(newest + ".quarantined")
        assert registry.counter("scrub.quarantined").value == 2
        # Loaders now fall back to the older pair without tripping on
        # known-bad bytes (and without needing the mirror).
        selection = select_checkpoint(str(tmp_path))
        assert selection.checkpoint.seq == 1
        assert not selection.used_mirror and not selection.rejected

    def test_audit_only_reports_and_touches_nothing(self, tmp_path):
        _write_ckpt(tmp_path, seq=1)
        rotted = CheckpointRot().apply(str(tmp_path))
        before = _read(rotted)

        report = scrub_directory(str(tmp_path), repair=False)

        assert not report.ok and report.repaired == 0
        (finding,) = report.findings
        assert finding.action == "reported"
        assert _read(rotted) == before  # a pure audit
        assert select_checkpoint(str(tmp_path)).used_mirror


class TestReportOnlyArtifacts:
    def test_torn_segment_is_reported_for_recovery_not_repaired(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), fsync="always", registry=registry)
        for seq in (1, 2):
            wal.append(seq, seq * 11, b"payload-%d" % seq)
        wal.close()
        (segment,) = list_segments(str(tmp_path))
        torn = _read(segment)[:-3]
        with open(segment, "wb") as handle:
            handle.write(torn)

        report = scrub_directory(str(tmp_path), registry=registry)

        assert not report.ok
        (finding,) = report.findings
        assert finding.kind == "segment" and finding.action == "reported"
        assert "recovery will truncate" in finding.problem
        assert _read(segment) == torn  # scrub never rewrites segments

    def test_intent_journal_tail_is_reported(self, tmp_path):
        path = os.path.join(str(tmp_path), INTENT_JOURNAL_NAME)
        journal = IntentJournal(path, num_shards=2)
        round_id = journal.begin_round()
        journal.log_resolution(round_id, "committed")
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b"\xff" * 11)

        report = scrub_directory(str(tmp_path))

        assert not report.ok
        (finding,) = report.findings
        assert finding.kind == "intents" and finding.action == "reported"

    def test_clean_directory_counts_what_it_verified(self, tmp_path):
        _write_ckpt(tmp_path, seq=1)
        wal = WriteAheadLog(str(tmp_path), fsync="always")
        wal.append(1, 11, b"payload")
        wal.close()

        registry = MetricsRegistry()
        report = scrub_directory(str(tmp_path), registry=registry)

        assert report.ok and not report.findings
        assert "clean" in report.summary()
        assert report.checkpoints_verified == report.accumulators_verified == 1
        assert report.files_scanned == 3  # primary + mirror + segment
        assert report.records_verified >= 1
        assert registry.counter("scrub.runs").value == 1
        assert registry.counter("scrub.files_scanned").value == 3
        assert registry.counter("scrub.damage_found").value == 0


class TestAccumulatorReproof:
    """A checkpoint whose checksum holds but whose accumulator cannot be
    re-proved is a report-only ``accumulator`` finding, never a crash."""

    @pytest.mark.parametrize(
        "overrides, problem",
        [
            ({"group_generator": 1}, "generator out of range"),
            ({"group_modulus": 2**512}, "invalid RSA modulus"),
            ({"config": {"cc": "dr", "prime_bits": 0}}, "prime size"),
            ({"config": {"cc": "dr", "prime_bits": -3}}, "prime size"),
            ({"config": {"cc": "dr"}}, "no prime_bits"),
        ],
        ids=["generator", "even-modulus", "zero-bits", "negative-bits", "no-bits"],
    )
    def test_unprovable_checkpoint_is_reported(self, tmp_path, overrides, problem):
        primary = _write_ckpt(tmp_path, seq=1, **overrides)
        before = _read(primary)

        report = scrub_directory(str(tmp_path))

        assert not report.ok and report.accumulators_verified == 0
        (finding,) = report.findings
        assert finding.kind == "accumulator" and finding.action == "reported"
        assert finding.path == primary and problem in finding.problem
        assert _read(primary) == before

    def test_background_pass_reproves_older_checkpoints(self, tmp_path):
        older = _write_ckpt(tmp_path, seq=1, keep=5, group_generator=1)
        _write_ckpt(tmp_path, seq=2, value=2, keep=5, group_generator=1)

        report = BackgroundScrubber(str(tmp_path), interval=3600.0).scrub_now()

        (finding,) = report.findings  # the newest pair is skipped
        assert finding.kind == "accumulator" and finding.path == older


class TestShardedLayout:
    def test_shard_directories_are_walked(self, tmp_path):
        for shard in (0, 1):
            shard_dir = tmp_path / f"shard-{shard:02d}"
            shard_dir.mkdir()
            _write_ckpt(shard_dir, seq=1, value=shard + 1)
        CheckpointRot().apply(str(tmp_path / "shard-01"))
        journal = IntentJournal(
            os.path.join(str(tmp_path), INTENT_JOURNAL_NAME), num_shards=2
        )
        journal.close()

        report = scrub_directory(str(tmp_path))

        assert len(report.directories) == 3  # parent + both shards
        assert report.ok and report.repaired == 1
        (finding,) = report.findings
        assert "shard-01" in finding.path
        assert load_latest_checkpoint(str(tmp_path / "shard-01")).rows == {("acct", 0): 2}


class TestBackgroundScrubber:
    def test_pass_repairs_older_pairs_but_spares_the_newest(self, tmp_path):
        older = _write_ckpt(tmp_path, seq=1, value=1, keep=5)
        newest = _write_ckpt(tmp_path, seq=2, value=2, keep=5)
        rot_file(older, 97, 0x20)
        rot_file(newest, 97, 0x20)  # may be mid-write: must be left alone
        newest_before = _read(newest)

        registry = MetricsRegistry()
        scrubber = BackgroundScrubber(
            str(tmp_path), interval=3600.0, registry=registry
        )
        report = scrubber.scrub_now()

        assert scrubber.passes == 1 and scrubber.last_report is report
        assert report.repaired == 1
        (finding,) = report.findings
        assert finding.path == older
        assert _read(newest) == newest_before

    def test_skip_fn_shields_the_active_segment(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync="always")
        wal.append(1, 11, b"live")
        active = wal.active_segment  # open: a scrub must not judge its tail

        scrubber = BackgroundScrubber(
            str(tmp_path), interval=3600.0, skip_fn=lambda: (active,)
        )
        report = scrubber.scrub_now()
        wal.close()

        assert report.ok and not report.findings
        assert report.files_scanned == 0
