"""A pinned fingerprint of what the prover kernels produce.

The fixed-base window, the per-batch shared base, the lookup witnesses'
division of ``S`` and the Miller–Rabin schedule behind every representative
are exact: a faster kernel must compute the same integers.  This test runs
seeded in-process rounds on a 64-row and a 512-row YCSB table with the
end-to-end benchmark's engine configuration and compares a SHA-256 over
every ``certify_unit`` result, and one over the verified digest after every
flush, with constants recorded before the kernels' last rewrite.  A
mismatch means a certificate or a digest changed, which no performance
change may do.

The YCSB tables never prove a key absent, so a second case runs seeded
transfers on one engine into accounts that were never written: every call
reads and then inserts an absent key, which pins the non-membership
(Bezout) proofs, their negative generator exponents and the batched PoE
challenges.  A third case runs seeded transfers over four shards with one
call in four crossing shards, which pins the cross-shard apply path.  Its
certificates are hashed per shard, because the shards certify in
parallel threads.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
import sys

import pytest

from repro import LitmusConfig, LitmusSession, ShardedSession, YCSBWorkload
from repro.core.memory_integrity import MemoryIntegrityProvider
from repro.core.sharding import ShardMap
from repro.crypto.rsa_group import RSAGroup
from repro.vc.program import (
    Add,
    Emit,
    KeyTemplate,
    Param,
    Program,
    ReadStmt,
    ReadVal,
    Sub,
    WriteStmt,
)

# The engine and group of benchmarks/e2e/workloads.py (ENGINE, GROUP_SEED),
# copied so that a benchmark edit cannot move the pinned values.
ENGINE = dict(
    cc="dr", processing_batch_size=8, batches_per_piece=2, prime_bits=64, num_provers=1
)
GROUP_SEED = b"litmus-e2e-bench"

# (write ratio, transactions per flush) of each round, in order: single-txn
# flushes, a mixed run, and read-only rounds that take the shared base.
ROUNDS = [(0.5, 1)] * 6 + [(0.5, 4)] * 6 + [(0.5, 8)] * 3 + [(0.0, 8)] * 3

# rows -> (sha256 over the certify_unit results, over the post-flush digests)
EXPECTED = {
    64: (
        "bc2248576067956fcee63694d46d1e5fb2d913207dd3a8c9eb2d90bc98592a38",
        "7b6f92d5c0c3912af7fb7ee120f9a2cb5b62dd7d23869f6a0bbec052cc9c91a7",
    ),
    512: (
        "0d0dee7550a3f362f81806bf4b1728ee78f37757be5a2ca7be3756a79c7b2511",
        "40d561996548f3628666a32199e9fc6d7f3d5669893e2aa33a3ce1535f969466",
    ),
}

# The transfer program and the xshard-r256 shape of benchmarks/e2e/workloads.py
# (TRANSFER, INITIAL_BALANCE, rows, shards, cross_one_in), copied likewise.
TRANSFER = Program(
    name="transfer",
    params=("src", "dst", "amount"),
    statements=(
        ReadStmt("s", KeyTemplate(("acct", Param("src")))),
        ReadStmt("d", KeyTemplate(("acct", Param("dst")))),
        WriteStmt(KeyTemplate(("acct", Param("src"))), Sub(ReadVal("s"), Param("amount"))),
        WriteStmt(KeyTemplate(("acct", Param("dst"))), Add(ReadVal("d"), Param("amount"))),
        Emit(Add(ReadVal("s"), ReadVal("d"))),
    ),
)
INITIAL_BALANCE = 1_000_000

# Unsharded transfers from BLIND_ROWS funded accounts into accounts numbered
# from BLIND_ROWS up, each one written for the first time.
BLIND_ROWS, BLIND_ROUNDS, BLIND_TXNS_PER_ROUND, BLIND_SEED = 256, 12, 4, 71

# (sha256 over the certify_unit results, over the post-flush digests),
# recorded at the commit where cross-shard applies still blind-inserted
# foreign keys, so this case held the non-membership kernels before and after
# that changed.
EXPECTED_BLIND = (
    "2cf5c7ce3950e1ea1751ed2d8aec4121c031cca8c5186741b61d5d4114c71f6d",
    "2d42b24fe2b3aa129adf72f10e377697bcac250f4458230ddacf1e0c648eb456",
)

XSHARD_ROWS, XSHARD_SHARDS, XSHARD_CROSS_ONE_IN = 256, 4, 4
XSHARD_ROUNDS, XSHARD_TXNS_PER_ROUND, XSHARD_SEED = 18, 8, 61

# (sha256 over each shard's certify_unit results, over the post-flush
# DigestVectors).  Re-recorded when each shard began applying only the writes
# it owns: per-shard contents changed by design, since a cross-shard apply no
# longer inserts the other shards' keys.  The kernels are pinned by EXPECTED
# and EXPECTED_BLIND, which did not move.
EXPECTED_SHARDED = (
    (
        "0253ad93b26bdb154eecb8e696c5512d72ac4d9dae7bb718d06af54e52415841",
        "7651ea9d4070a347d6d2378ed4a77afee499e0aac0a94321ed890ddf3d488731",
        "cb4153a599903afd583d2b717af98d067619b051b72f22c4a1cf7ea59625fce9",
        "e68bb94467be713d45a1cd667f604ea89136dd08d92fc9f1bf84f60b09d6aa03",
    ),
    "e9feba61ea5ce102c90fe29716096beb10ae0f2059c03e42829511af5953b42f",
)


@pytest.fixture(scope="module")
def e2e_group() -> RSAGroup:
    return RSAGroup.generate(bits=512, seed=GROUP_SEED)


def fingerprint(rows: int, group: RSAGroup, monkeypatch) -> tuple[str, str]:
    """Run ROUNDS on a fresh *rows*-row table; returns the two hex digests."""
    certificates = hashlib.sha256()
    certify_unit = MemoryIntegrityProvider.certify_unit

    def recording(self, reads, writes):
        result = certify_unit(self, reads, writes)
        certificates.update(repr(result).encode())
        return result

    monkeypatch.setattr(MemoryIntegrityProvider, "certify_unit", recording)
    session = LitmusSession.create(
        initial=YCSBWorkload(num_rows=rows).initial_data(),
        config=LitmusConfig(**ENGINE),
        group=group,
    )
    digests = hashlib.sha256()
    for index, (write_ratio, size) in enumerate(ROUNDS):
        workload = YCSBWorkload(num_rows=rows, write_ratio=write_ratio, seed=31 + index)
        for txn in workload.generate(size):
            session.submit("ycsb", txn.program, **txn.params)
        assert session.flush().accepted
        digests.update(repr(int(session.digest)).encode())
    return certificates.hexdigest(), digests.hexdigest()


@pytest.mark.parametrize("rows", sorted(EXPECTED))
def test_outputs_match_the_pinned_fingerprint(rows, e2e_group, monkeypatch):
    assert fingerprint(rows, e2e_group, monkeypatch) == EXPECTED[rows]


@contextlib.contextmanager
def unlimited_int_digits():
    """The Bezout coefficients in a certificate's repr run past CPython's
    default 4,300-digit limit on int-to-str conversion."""
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digit_limit)


def blind_fingerprint(group: RSAGroup, monkeypatch) -> tuple[str, str]:
    """Run transfers into never-written accounts; returns the two hex digests."""
    certificates = hashlib.sha256()
    certify_unit = MemoryIntegrityProvider.certify_unit

    def recording(self, reads, writes):
        result = certify_unit(self, reads, writes)
        certificates.update(repr(result).encode())
        return result

    monkeypatch.setattr(MemoryIntegrityProvider, "certify_unit", recording)
    session = LitmusSession.create(
        initial={("acct", i): INITIAL_BALANCE for i in range(BLIND_ROWS)},
        config=LitmusConfig(**ENGINE),
        group=group,
    )
    rng = random.Random(BLIND_SEED)
    fresh = itertools.count(BLIND_ROWS)
    digests = hashlib.sha256()
    with unlimited_int_digits():
        for _ in range(BLIND_ROUNDS):
            for _ in range(BLIND_TXNS_PER_ROUND):
                session.submit(
                    "bank",
                    TRANSFER,
                    src=rng.randrange(BLIND_ROWS),
                    dst=next(fresh),
                    amount=rng.randint(1, 9),
                )
            assert session.flush().accepted
            digests.update(repr(int(session.digest)).encode())
    return certificates.hexdigest(), digests.hexdigest()


def test_transfers_into_unwritten_accounts_match_the_pinned_fingerprint(
    e2e_group, monkeypatch
):
    assert blind_fingerprint(e2e_group, monkeypatch) == EXPECTED_BLIND


def transfer_calls(rng: random.Random, shard_map: ShardMap):
    """The e2e transfer stream: every XSHARD_CROSS_ONE_IN-th call crosses shards."""
    by_shard: list[list[int]] = [[] for _ in range(XSHARD_SHARDS)]
    for account in range(XSHARD_ROWS):
        by_shard[shard_map.shard_of(("acct", account))].append(account)
    index = 0
    while True:
        index += 1
        src = rng.randrange(XSHARD_ROWS)
        home = shard_map.shard_of(("acct", src))
        if index % XSHARD_CROSS_ONE_IN == 0:
            away = rng.choice([s for s in range(XSHARD_SHARDS) if s != home])
            dst = rng.choice(by_shard[away])
        else:
            dst = rng.choice([a for a in by_shard[home] if a != src])
        yield {"src": src, "dst": dst, "amount": rng.randint(1, 9)}


def sharded_fingerprint(group: RSAGroup, monkeypatch) -> tuple[tuple[str, ...], str]:
    """Run the transfer rounds; returns per-shard certificate hashes and the
    hash over every post-flush ``DigestVector``."""
    session = ShardedSession.create(
        initial={("acct", i): INITIAL_BALANCE for i in range(XSHARD_ROWS)},
        config=LitmusConfig(**ENGINE),
        num_shards=XSHARD_SHARDS,
        group=group,
    )
    shard_of_provider = {
        id(shard.server.provider): index for index, shard in enumerate(session.shards)
    }
    certificates = [hashlib.sha256() for _ in range(XSHARD_SHARDS)]
    certify_unit = MemoryIntegrityProvider.certify_unit

    def recording(self, reads, writes):
        result = certify_unit(self, reads, writes)
        certificates[shard_of_provider[id(self)]].update(repr(result).encode())
        return result

    monkeypatch.setattr(MemoryIntegrityProvider, "certify_unit", recording)
    calls = transfer_calls(random.Random(XSHARD_SEED), session.shard_map)
    digests = hashlib.sha256()
    try:
        with unlimited_int_digits():
            for _ in range(XSHARD_ROUNDS):
                for _ in range(XSHARD_TXNS_PER_ROUND):
                    session.submit("bank", TRANSFER, **next(calls))
                assert session.flush().accepted
                digests.update(repr(tuple(int(d) for d in session.digest)).encode())
    finally:
        session.close()
    return tuple(c.hexdigest() for c in certificates), digests.hexdigest()


def test_sharded_transfers_match_the_pinned_fingerprint(e2e_group, monkeypatch):
    assert sharded_fingerprint(e2e_group, monkeypatch) == EXPECTED_SHARDED
