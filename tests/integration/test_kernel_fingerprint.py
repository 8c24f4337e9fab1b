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
"""

from __future__ import annotations

import hashlib

import pytest

from repro import LitmusConfig, LitmusSession, YCSBWorkload
from repro.core.memory_integrity import MemoryIntegrityProvider
from repro.crypto.rsa_group import RSAGroup

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
