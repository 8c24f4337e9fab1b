"""Write-tail recovery rolls the accumulator forward through journaled primes.

Every checkpoint journals each row's ``(key, value, relation)`` primes, so
recovery computes ``S' = (S // old primes of C) * new primes of C`` over
the net change ``C`` of the WAL tail instead of re-hashing every row.
One durable history with ``checkpoint_every=8`` is snapshotted after each
batch of its second checkpoint window, unsharded and over two shards, and
every snapshot (tails 0 to 7) is recovered cold.  The recovered provider
state must equal a from-scratch build of the same rows, the roll-forward
must hash at most two primes per changed key plus one per inserted key,
and tampered or missing primes must either be caught or be harmless.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from repro.core import (
    DurabilityConfig,
    LitmusServer,
    LitmusSession,
    ShardedSession,
    ShardMap,
)
from repro.db.scrub import scrub_directory
from repro.db.wal import list_checkpoints, list_shard_directories, mirror_path
from repro.errors import AnchorMismatchError, ServerDesyncError

from .test_fault_recovery import CONFIG, TRANSFER

CHECKPOINT_EVERY = 8
TAILS = range(CHECKPOINT_EVERY)
ACCOUNTS = 12  # per shard: a tail of t batches changes t + 1 of them
LAYOUTS = {"unsharded": 1, "two-shards": 2}


def _rings(num_shards):
    """Per shard, ACCOUNTS account numbers that shard owns."""
    owner = ShardMap(num_shards).shard_of
    rings = [[] for _ in range(num_shards)]
    number = 0
    while any(len(ring) < ACCOUNTS for ring in rings):
        ring = rings[owner(("acct", number))]
        if len(ring) < ACCOUNTS:
            ring.append(number)
        number += 1
    return rings


def _shard_rows(session):
    if isinstance(session, ShardedSession):
        return [shard.server.db.snapshot() for shard in session.shards]
    return [session.server.db.snapshot()]


@pytest.fixture(scope="module")
def histories(group, tmp_path_factory):
    """Per layout: ``{tail: (snapshot directory, per-shard rows)}``.

    Each batch moves money one step along every shard's ring of accounts,
    so every shard journals one batch per flush and all shards share one
    checkpoint cadence.
    """
    built = {}
    for layout, num_shards in LAYOUTS.items():
        root = tmp_path_factory.mktemp(layout)
        rings = _rings(num_shards)
        initial = {("acct", n): 1000 for ring in rings for n in ring}
        durability = DurabilityConfig(directory=str(root / "live"))
        if num_shards > 1:
            session = ShardedSession.create(
                initial, CONFIG, num_shards=num_shards, group=group,
                checkpoint_every=CHECKPOINT_EVERY, durability=durability,
            )
        else:
            session = LitmusSession.create(
                initial=initial, config=CONFIG, group=group,
                checkpoint_every=CHECKPOINT_EVERY, durability=durability,
            )
        snapshots = {}
        for batch in range(2 * CHECKPOINT_EVERY):
            for ring in rings:
                src, dst = ring[batch % ACCOUNTS], ring[(batch + 1) % ACCOUNTS]
                session.submit("user", TRANSFER, src=src, dst=dst, amount=batch + 1)
            assert session.flush().accepted
            tail = batch + 1 - CHECKPOINT_EVERY
            if tail in TAILS:
                copy = root / f"tail-{tail}"
                shutil.copytree(durability.directory, copy)
                snapshots[tail] = (copy, _shard_rows(session))
        session.close()
        built[layout] = snapshots
    return built


def _copy(histories, layout, tail, tmp_path):
    source, rows = histories[layout][tail]
    directory = tmp_path / f"{layout}-{tail}"
    shutil.copytree(source, directory)
    return directory, rows


def _recover(directory, num_shards, group):
    cls = ShardedSession if num_shards > 1 else LitmusSession
    return cls.recover(
        str(directory), [TRANSFER], group=group, checkpoint_every=CHECKPOINT_EVERY
    )


def _engines(session):
    if isinstance(session, ShardedSession):
        return list(zip(session.shards, session.recovery_reports))
    return [(session, session.recovery_report)]


def _shard_dirs(directory, num_shards):
    if num_shards > 1:
        return list_shard_directories(str(directory))
    return [str(directory)]


def _rewrite_newest_checkpoint(directory, mutate):
    """Apply *mutate* to the newest checkpoint's JSON body and re-checksum
    it, primary and mirror: a tamper that storage validation cannot see."""
    primary = list_checkpoints(str(directory))[0]
    for path in (primary, mirror_path(primary)):
        with open(path, "rb") as handle:
            body = json.loads(handle.read())
        del body["checksum"]
        mutate(body)
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        with open(path, "w") as handle:
            handle.write(json.dumps(body))


def _strip_factors(body):
    del body["provider"]["factors"]


def _bump_value_prime(key):
    """A mutation replacing *key*'s journaled value prime with another odd number."""

    def mutate(body):
        for entry in body["provider"]["factors"]:
            if tuple(entry[0]) == key:
                entry[1][1] = hex(int(entry[1][1], 16) + 2)
                return
        raise AssertionError(f"{key} has no journaled primes")

    return mutate


def _checkpoint_rows(directory):
    with open(list_checkpoints(str(directory))[0], "rb") as handle:
        body = json.loads(handle.read())
    return {tuple(key): value for key, value in body["rows"]}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("tail", TAILS)
def test_every_tail_rolls_forward_to_the_from_scratch_state(
    group, histories, tmp_path, layout, tail
):
    num_shards = LAYOUTS[layout]
    directory, rows = _copy(histories, layout, tail, tmp_path)
    anchors = [_checkpoint_rows(path) for path in _shard_dirs(directory, num_shards)]
    session = _recover(directory, num_shards, group)
    try:
        for (engine, report), final, anchor in zip(_engines(session), rows, anchors):
            scratch = LitmusServer(initial=final, config=CONFIG, group=group)
            assert engine.server.provider.state() == scratch.provider.state()
            assert report.replayed_batches == tail
            assert report.accumulator_path == "rolled-forward"
            changed = sum(anchor.get(key) != value for key, value in final.items())
            inserted = len(final.keys() - anchor.keys())
            assert report.changed_keys == changed == (tail + 1 if tail else 0)
            assert report.primes_hashed <= 2 * report.changed_keys + inserted
    finally:
        session.close()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_checkpoint_without_primes_rebuilds_to_the_same_state(
    group, histories, tmp_path, layout
):
    num_shards = LAYOUTS[layout]
    directory, rows = _copy(histories, layout, 3, tmp_path)
    for path in _shard_dirs(directory, num_shards):
        _rewrite_newest_checkpoint(path, _strip_factors)
    session = _recover(directory, num_shards, group)
    try:
        for (engine, report), final in zip(_engines(session), rows):
            scratch = LitmusServer(initial=final, config=CONFIG, group=group)
            assert engine.server.provider.state() == scratch.provider.state()
            assert report.accumulator_path == "rebuilt"
            assert report.primes_hashed == 3 * len(final)
    finally:
        session.close()


def _changed_and_untouched(directory, rows):
    anchor = _checkpoint_rows(directory)
    changed = sorted(key for key, value in rows.items() if anchor[key] != value)
    untouched = sorted(key for key, value in rows.items() if anchor[key] == value)
    return changed[0], untouched[0]


def test_a_bad_prime_of_a_changed_key_is_refused(group, histories, tmp_path):
    directory, (rows,) = _copy(histories, "unsharded", 3, tmp_path)
    changed, _untouched = _changed_and_untouched(directory, rows)
    _rewrite_newest_checkpoint(directory, _bump_value_prime(changed))
    with pytest.raises(ServerDesyncError) as excinfo:
        _recover(directory, 1, group)
    assert not isinstance(excinfo.value, AnchorMismatchError)


def test_a_bad_prime_of_an_untouched_key_recovers_and_scrub_reports_it(
    group, histories, tmp_path
):
    directory, (rows,) = _copy(histories, "unsharded", 3, tmp_path)
    changed, untouched = _changed_and_untouched(directory, rows)
    _rewrite_newest_checkpoint(directory, _bump_value_prime(untouched))
    session = _recover(directory, 1, group)
    try:
        assert session.server.db.snapshot() == rows
        assert session.recovery_report.accumulator_path == "rolled-forward"
        # Lookups hash through the prime caches, never the hint: a batch
        # that reads and writes the key still verifies.
        session.submit("user", TRANSFER, src=untouched[1], dst=changed[1], amount=1)
        assert session.flush().accepted
    finally:
        session.close()
    report = scrub_directory(str(directory))
    assert report.findings
    for finding in report.findings:
        assert finding.kind == "accumulator" and finding.action == "reported"
        assert "journaled primes of 1 row(s)" in finding.problem


def test_primes_that_cover_other_keys_are_a_split_anchor(group, histories, tmp_path):
    directory, _rows = _copy(histories, "unsharded", 3, tmp_path)

    def drop_one(body):
        del body["provider"]["factors"][0]

    _rewrite_newest_checkpoint(directory, drop_one)
    with pytest.raises(AnchorMismatchError, match="journaled primes"):
        _recover(directory, 1, group)
