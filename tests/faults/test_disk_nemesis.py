"""Disk-fault nemesis: chaos schedules where the *disk* misbehaves too.

``generate_schedule(disk_fault_fraction=...)`` interleaves disk-fault
steps (fsync failure, write EIO, ENOSPC, short writes) and checkpoint
rot with the crash/fault steps PR 9 introduced.  The referee's promise
is unchanged and now harder: **zero acked-data loss** even when a WAL
write tears, an fsync lies, or a checkpoint rots at rest — absorbed
faults stay invisible, fsync failures force a full down-and-recover.
The same faults are also aimed at the coordinator's intent journal
(``journal-*`` kinds), where a torn frame left in front of a later intent
would hide an in-doubt round from recovery.

The quick tests run in tier-1; the wider seed sweep is ``diskfault``
marked (its own CI job: ``pytest -m diskfault``).
"""

from __future__ import annotations

import pytest

from repro.faults import NemesisStep, generate_schedule, run_nemesis
from repro.faults.nemesis import _DISK_FAULTS
from repro.obs.metrics import MetricsRegistry, get_metrics

from .test_nemesis import NUM_ACCOUNTS, _owners


class TestScheduleGeneration:
    def test_legacy_schedules_are_byte_identical(self):
        """disk_fault_fraction=0.0 must not perturb PR 9 seeds."""
        for seed in (0, 7, 11):
            legacy = generate_schedule(seed=seed, steps=12, num_shards=3)
            assert generate_schedule(
                seed=seed, steps=12, num_shards=3, disk_fault_fraction=0.0
            ) == legacy
            assert all(s.disk == "" for s in legacy)

    def test_disk_steps_appear_and_are_deterministic(self):
        a = generate_schedule(
            seed=11, steps=40, num_shards=3, disk_fault_fraction=0.25
        )
        b = generate_schedule(
            seed=11, steps=40, num_shards=3, disk_fault_fraction=0.25
        )
        assert a == b
        disk_steps = [s for s in a if s.kind == "disk-fault"]
        assert disk_steps
        for step in disk_steps:
            assert step.disk in _DISK_FAULTS
            assert 0 <= step.shard < 3

    def test_every_disk_fault_kind_is_reachable(self):
        seen = set()
        for seed in range(30):
            for step in generate_schedule(
                seed=seed, steps=20, num_shards=3, disk_fault_fraction=0.3
            ):
                if step.kind == "disk-fault":
                    seen.add(step.disk)
        assert seen == set(_DISK_FAULTS)

    def test_ckpt_rot_only_with_disk_faults_enabled(self):
        kinds = set()
        for seed in range(30):
            for step in generate_schedule(
                seed=seed, steps=20, num_shards=3, disk_fault_fraction=0.3
            ):
                if step.corruption:
                    kinds.add(step.corruption)
        assert "ckpt-rot" in kinds
        for seed in range(30):
            for step in generate_schedule(seed=seed, steps=20, num_shards=3):
                assert step.corruption != "ckpt-rot"


    def test_table_rot_only_with_disk_faults_enabled(self):
        kinds = {
            step.corruption
            for seed in range(30)
            for step in generate_schedule(
                seed=seed, steps=20, num_shards=3, disk_fault_fraction=0.3
            )
        }
        assert "table-rot" in kinds
        for seed in range(30):
            for step in generate_schedule(seed=seed, steps=20, num_shards=3):
                assert step.corruption != "table-rot"


class TestRunDiskNemesis:
    def test_fsync_failure_downs_the_deployment_but_loses_nothing(
        self, group, tmp_path
    ):
        """The acceptance run: an injected fsync failure mid-transfer must
        force a recovery (fsyncgate: the deployment goes down rather than
        trust the tail) with every previously acked transfer intact."""
        owners = _owners(3)
        shards = sorted(owners)
        src = owners[shards[0]][0]
        dst = owners[shards[1]][0]
        steps = [
            NemesisStep(kind="transfer", src=src, dst=dst, amount=5),
            NemesisStep(
                kind="disk-fault", src=src, dst=dst, amount=4,
                shard=shards[0], disk="fsync-failure",
            ),
            NemesisStep(kind="transfer", src=dst, dst=src, amount=2),
        ]
        registry = MetricsRegistry()
        report = run_nemesis(
            steps,
            directory=str(tmp_path / "fsync"),
            seed=5,
            group=group,
            registry=registry,
        )
        assert report.ok, report.invariant_failures
        assert report.disk_faults == 1
        assert report.recoveries == 1  # the fsync failure forced it
        assert report.final_balance == NUM_ACCOUNTS * 100
        assert registry.counter("nemesis.disk_faults").value == 1
        assert registry.counter("storage.fsync_failures").value >= 1

    def test_rotted_generator_table_is_rebuilt_by_the_recovery(
        self, group, tmp_path
    ):
        """A crash, then rot in the layout's generator table: recovery must
        refuse the table, rebuild it, and lose no acked transfer."""
        owners = _owners(3)
        shards = sorted(owners)
        src = owners[shards[0]][0]
        dst = owners[shards[1]][0]
        steps = [
            NemesisStep(kind="transfer", src=src, dst=dst, amount=5),
            NemesisStep(
                kind="crash", src=src, dst=dst, amount=4, shard=shards[0],
                stage="after-log", corruption="table-rot",
            ),
            NemesisStep(kind="transfer", src=dst, dst=src, amount=2),
        ]
        rebuilds = get_metrics().counter("recovery.generator_table_rebuilds")
        before = rebuilds.value
        report = run_nemesis(
            steps, directory=str(tmp_path / "rot"), seed=3, group=group
        )
        assert report.ok, report.invariant_failures
        assert report.recoveries == 1
        assert rebuilds.value == before + 1

    def test_write_errors_are_absorbed_without_a_recovery(self, group, tmp_path):
        owners = _owners(3)
        shards = sorted(owners)
        src = owners[shards[0]][0]
        dst = owners[shards[1]][0]
        steps = [
            NemesisStep(
                kind="disk-fault", src=src, dst=dst, amount=5,
                shard=shards[0], disk="write-eio",
            ),
            NemesisStep(kind="transfer", src=dst, dst=src, amount=2),
        ]
        registry = MetricsRegistry()
        report = run_nemesis(
            steps,
            directory=str(tmp_path / "eio"),
            seed=9,
            group=group,
            registry=registry,
        )
        assert report.ok, report.invariant_failures
        assert report.disk_faults == 1
        assert report.recoveries == 0  # rescue rotation absorbed it
        assert registry.counter("storage.rescue_rotations").value >= 1


class TestJournalFaults:
    def test_torn_journal_write_then_crash_stays_atomic(self, group, tmp_path):
        """The schedule chaos never generated while every disk injector was
        pinned to ``wal-``: a short write on the journal, then a shard
        killed before it logs a cross-shard apply.  The crashed round's
        intent must still be found (and undone) by recovery."""
        owners = _owners(3)
        shards = sorted(owners)
        src = owners[shards[0]][0]
        dst = owners[shards[1]][0]
        steps = [
            NemesisStep(
                kind="disk-fault", src=src, dst=dst, amount=5,
                shard=shards[0], disk="journal-short-write",
            ),
            NemesisStep(
                kind="crash", src=src, dst=dst, amount=4,
                shard=shards[0], stage="before-log",
            ),
        ]
        registry = MetricsRegistry()
        report = run_nemesis(
            steps, directory=str(tmp_path / "torn"), seed=5, group=group,
            registry=registry,
        )
        assert report.ok, report.invariant_failures
        assert report.acked == 2  # the absorbed-fault transfer + the probe
        assert report.crashes == 1 and report.in_doubt_resolved == 1
        assert report.final_balance == NUM_ACCOUNTS * 100
        assert registry.counter("storage.write_errors").value == 1

    def test_journal_fsync_failure_downs_the_deployment(self, group, tmp_path):
        owners = _owners(3)
        shards = sorted(owners)
        src = owners[shards[0]][0]
        dst = owners[shards[1]][0]
        steps = [
            NemesisStep(kind="transfer", src=src, dst=dst, amount=5),
            NemesisStep(
                kind="disk-fault", src=src, dst=dst, amount=4,
                shard=shards[0], disk="journal-fsync-failure",
            ),
        ]
        report = run_nemesis(
            steps, directory=str(tmp_path / "jfsync"), seed=5, group=group
        )
        assert report.ok, report.invariant_failures
        assert report.recoveries == 1  # the round never started; nothing lost
        assert report.final_balance == NUM_ACCOUNTS * 100


@pytest.mark.diskfault
class TestDiskFaultSweep:
    def test_seed_sweep_holds_all_invariants(self, group, tmp_path):
        """Crashes, checkpoint rot, and disk faults combined: the referee
        must find zero acked-data loss across a seeded sweep."""
        disk_faults = 0
        for seed in (0, 3, 5, 11, 19):
            report = run_nemesis(
                generate_schedule(
                    seed=seed, steps=12, num_shards=3,
                    crash_fraction=0.15, disk_fault_fraction=0.25,
                ),
                directory=str(tmp_path / f"seed-{seed}"),
                seed=seed,
                group=group,
            )
            assert report.ok, (seed, report.invariant_failures)
            assert report.recoveries >= report.crashes
            disk_faults += report.disk_faults
        assert disk_faults >= 5  # the sweep actually exercised the disk

    def test_two_shard_deployment_with_disk_faults(self, group, tmp_path):
        report = run_nemesis(
            generate_schedule(
                seed=13, steps=10, num_shards=2, disk_fault_fraction=0.3
            ),
            directory=str(tmp_path / "two"),
            seed=13,
            num_shards=2,
            group=group,
        )
        assert report.ok, report.invariant_failures

    def test_seed_sweep_with_journal_faults(self, group, tmp_path):
        """Seeds whose schedules aim disk faults at the intent journal and
        also crash shards before they log: the combination that hid an
        in-doubt round behind a torn journal frame."""
        journal_faults = 0
        for seed in (5, 6, 9, 10, 17):
            schedule = generate_schedule(
                seed=seed, steps=12, num_shards=3,
                crash_fraction=0.2, disk_fault_fraction=0.3,
            )
            journal_faults += sum(s.disk.startswith("journal-") for s in schedule)
            report = run_nemesis(
                schedule,
                directory=str(tmp_path / f"seed-{seed}"),
                seed=seed,
                group=group,
            )
            assert report.ok, (seed, report.invariant_failures)
        assert journal_faults >= 10
