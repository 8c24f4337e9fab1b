"""Recovery rolls the checkpoint's accumulator forward by what the tail changed.

``replay_and_rebuild`` anchors on the checkpoint's provider state
``(store, product, digest, factors)``: it rolls the journaled product
forward by the rows the replayed WAL tail changed (a tail that changed
nothing hashes nothing), or rebuilds from scratch when the checkpoint
journaled no factors.  These tests pin that recovery lands on the state
a from-scratch build of the same contents has, for restart recovery and
in-memory ``resync`` alike, and that a checkpoint whose provider state
was tampered with (and re-checksummed so it still loads) is refused: a
wrong product by the digest cross-check, split rows by
:class:`~repro.errors.AnchorMismatchError` before any hashing.  The
scrubber re-proves the same state from scratch, report-only.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import DurabilityConfig, LitmusServer, LitmusSession
from repro.crypto.authdict import AuthenticatedDictionary
from repro.db.scrub import scrub_directory
from repro.db.wal import list_checkpoints, mirror_path, select_checkpoint
from repro.errors import AnchorMismatchError, ServerDesyncError
from repro.obs.metrics import MetricsRegistry
from repro.workloads.ycsb import YCSB_PROGRAMS, YCSBWorkload

from .test_fault_recovery import CONFIG, NUM_ACCOUNTS, TRANSFER

CHECKPOINT_EVERY = 4
TAILS = (0, 1, 2, CHECKPOINT_EVERY - 1)
YCSB_ROWS = 12


def _transfer_table():
    """Eight accounts, one transfer per batch along a ring: a tail of t > 0
    batches changes t + 1 accounts, so tail 0 reuses the checkpoint's
    product and the others rebuild from scratch."""
    initial = {("acct", i): 100 for i in range(NUM_ACCOUNTS)}

    def batches():
        i = 0
        while True:
            src, dst = i % NUM_ACCOUNTS, (i + 1) % NUM_ACCOUNTS
            yield [(TRANSFER, {"src": src, "dst": dst, "amount": 3 + i})]
            i += 1

    return initial, batches(), [TRANSFER]


def _ycsb_table():
    """A 12-row YCSB table, six 50%-write transactions per batch."""
    workload = YCSBWorkload(num_rows=YCSB_ROWS, write_ratio=0.5, seed=5)

    def batches():
        while True:
            yield [(txn.program, txn.params) for txn in workload.generate(6)]

    return workload.initial_data(), batches(), list(YCSB_PROGRAMS.values())


TABLES = {"transfer": _transfer_table, "ycsb": _ycsb_table}


def _run(group, directory, table, batches_after_checkpoint):
    """A durable session that checkpointed once and then flushed a tail."""
    initial, batches, programs = TABLES[table]()
    session = LitmusSession.create(
        initial=initial,
        config=CONFIG,
        group=group,
        checkpoint_every=CHECKPOINT_EVERY,
        durability=DurabilityConfig(directory=str(directory)),
    )
    for _ in range(CHECKPOINT_EVERY + batches_after_checkpoint):
        for program, params in next(batches):
            session.submit_call("user", program, params)
        assert session.flush().accepted
    return session, programs


def _recover(directory, programs, group, registry=None):
    return LitmusSession.recover(
        str(directory),
        programs,
        group=group,
        registry=registry,
        checkpoint_every=CHECKPOINT_EVERY,
    )


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


def _scale_product(factor):
    def mutate(body):
        product = int(body["provider"]["product"], 16)
        body["provider"]["product"] = hex(product * factor)

    return mutate


def _bump_product(body):
    body["provider"]["product"] = hex(int(body["provider"]["product"], 16) + 1)


def _split_rows(body):
    body["provider"]["rows"][0][1] += 1


def _bump_a_value_prime(body):
    primes = body["provider"]["factors"][0][1]
    primes[1] = hex(int(primes[1], 16) + 2)


def _strip_factors_and_scale_product(body):
    del body["provider"]["factors"]
    _scale_product(3)(body)


@pytest.mark.parametrize("table", sorted(TABLES))
def test_recover_and_resync_land_on_the_from_scratch_state(group, tmp_path, table):
    reused = set()
    for tail in TAILS:
        directory = tmp_path / f"tail-{tail}"
        session, programs = _run(group, directory, table, tail)
        final = session.server.db.snapshot()
        scratch = LitmusServer(initial=final, config=CONFIG, group=group)
        reference = scratch.provider.state()
        assert reference[2] == AuthenticatedDictionary.commit(
            group, final, prime_bits=CONFIG.prime_bits
        )
        checkpoint = select_checkpoint(str(directory)).checkpoint
        assert checkpoint.seq == CHECKPOINT_EVERY
        changed = sum(value != checkpoint.rows.get(key) for key, value in final.items())

        assert session.resync() == session.server.digest
        assert session.server.provider.state() == reference
        session.close()

        registry = MetricsRegistry()
        recovered = _recover(directory, programs, group, registry)
        try:
            report = recovered.recovery_report
            assert report.replayed_batches == tail
            assert report.changed_keys == changed
            assert registry.counter("recovery.changed_keys").value == changed
            assert recovered.server.db.snapshot() == final
            assert recovered.server.provider.state() == reference
        finally:
            recovered.close()
        reused.add(changed == 0)
    # The tails cover a tail that changed nothing and tails that did.
    assert reused == {True, False}


@pytest.mark.parametrize(
    "tamper", [_bump_product, _scale_product(3)], ids=["plus-one", "times-three"]
)
def test_tampered_product_is_refused_when_reused(group, tmp_path, tamper):
    session, programs = _run(group, tmp_path, "transfer", 0)
    session.close()
    _rewrite_newest_checkpoint(tmp_path, tamper)
    registry = MetricsRegistry()
    with pytest.raises(ServerDesyncError) as excinfo:
        _recover(tmp_path, programs, group, registry)
    assert not isinstance(excinfo.value, AnchorMismatchError)
    assert registry.counter("recovery.digest_mismatches").value == 1


def test_a_rebuilt_accumulator_never_reads_the_product(group, tmp_path):
    # Without journaled factors (a checkpoint written before them) the
    # accumulator is rebuilt from the rows alone.
    session, programs = _run(group, tmp_path, "transfer", 1)
    final = session.server.db.snapshot()
    session.close()
    _rewrite_newest_checkpoint(tmp_path, _strip_factors_and_scale_product)
    recovered = _recover(tmp_path, programs, group)
    try:
        assert recovered.recovery_report.changed_keys > 0
        assert recovered.recovery_report.accumulator_path == "rebuilt"
        scratch = LitmusServer(initial=final, config=CONFIG, group=group)
        assert recovered.server.provider.state() == scratch.provider.state()
    finally:
        recovered.close()


def test_provider_rows_that_differ_from_rows_are_refused(group, tmp_path):
    session, programs = _run(group, tmp_path, "transfer", 1)
    session.close()
    _rewrite_newest_checkpoint(tmp_path, _split_rows)
    with pytest.raises(AnchorMismatchError, match="split anchor"):
        _recover(tmp_path, programs, group)


class TestScrubReprovesTheAnchor:
    def test_honest_checkpoints_reprove(self, group, tmp_path):
        session, _programs = _run(group, tmp_path, "ycsb", 1)
        session.close()
        report = scrub_directory(str(tmp_path))
        assert report.ok and not report.findings
        assert report.accumulators_verified == report.checkpoints_verified >= 1

    @pytest.mark.parametrize(
        "tamper, problem",
        [
            (_bump_product, "product S"),
            (_split_rows, "provider rows"),
            (_bump_a_value_prime, "journaled primes of 1 row(s)"),
        ],
        ids=["product", "split-rows", "factor"],
    )
    def test_tampered_anchor_is_reported_not_repaired(
        self, group, tmp_path, tamper, problem
    ):
        session, _programs = _run(group, tmp_path, "transfer", 0)
        session.close()
        _rewrite_newest_checkpoint(tmp_path, tamper)
        primary = list_checkpoints(str(tmp_path))[0]
        with open(primary, "rb") as handle:
            before = handle.read()

        report = scrub_directory(str(tmp_path))

        assert not report.ok
        (finding,) = report.findings
        assert finding.kind == "accumulator" and finding.action == "reported"
        assert problem in finding.problem and finding.path == primary
        with open(primary, "rb") as handle:
            assert handle.read() == before
