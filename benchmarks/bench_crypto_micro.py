"""Micro-benchmarks of the cryptographic substrate (real wall-clock).

Not a paper figure; quantifies the primitives the protocol is built from
(AD lookups/updates, aggregated proofs, Merkle paths, statement proving)
so regressions in the crypto layer are visible.
"""

from __future__ import annotations

import pytest

from repro.crypto.authdict import AuthenticatedDictionary
from repro.crypto.merkle import MerkleTree
from repro.crypto.poe import prove_exponentiation, verify_exponentiation
from repro.crypto.rsa_group import default_group

PRIME_BITS = 64
POE_BATCH = 16


@pytest.fixture(scope="module")
def group():
    return default_group(bits=512)


@pytest.fixture(scope="module")
def ad(group):
    return AuthenticatedDictionary(
        group, initial={("row", i): i for i in range(64)}, prime_bits=PRIME_BITS
    )


def test_ad_single_lookup_prove_verify(benchmark, ad):
    def run():
        proof = ad.prove_lookup([("row", 3)])
        assert ad.ver_lookup(ad.digest, {("row", 3): 3}, proof)

    benchmark(run)


def test_ad_aggregated_lookup_16_keys(benchmark, ad):
    keys = [("row", i) for i in range(16)]
    values = {("row", i): i for i in range(16)}

    def run():
        proof = ad.prove_lookup(keys)
        assert ad.ver_lookup(ad.digest, values, proof)

    benchmark(run)


def test_ad_nonexistence_proof(benchmark, ad):
    def run():
        proof = ad.prove_no_key([("ghost", 1)])
        assert ad.ver_no_key(ad.digest, [("ghost", 1)], proof)

    benchmark(run)


def test_ad_update_roll_forward(benchmark, group):
    def run():
        fresh = AuthenticatedDictionary(
            group, initial={("row", i): i for i in range(16)}, prime_bits=PRIME_BITS
        )
        new_digest, proof = fresh.update({("row", 3): 99})
        assert fresh.digest_after_update(proof, {("row", 3): 99}) == new_digest

    benchmark(run)


def test_poe_prove_and_verify(benchmark, group):
    exponent = 1
    for i in range(16):
        exponent *= (1 << 63) + 2 * i + 1

    def run():
        result, proof = prove_exponentiation(group, group.generator, exponent)
        assert verify_exponentiation(group, group.generator, exponent, result, proof)

    benchmark(run)


def test_merkle_path_prove_verify(benchmark):
    tree = MerkleTree(1024, fill=0)
    tree.update(17, 42)

    def run():
        path = tree.prove(17)
        assert MerkleTree.verify(tree.root, path, 42)

    benchmark(run)


# --- batched vs sequential PoE verification ----------------------------------


def poe_batch_timings() -> dict[str, float]:
    """Batched vs sequential PoE verification over one batch of instances.

    Proofs are minted outside the timed region — the comparison is pure
    verifier cost: k independent Wesolowski checks (one challenge prime and
    two exponentiations each) against ONE random-linear-combination check
    (one challenge prime and two multi-exponentiations total).  Runs on the
    pure-python backend so the numbers are comparable across machines with
    and without gmpy2.  The proofs are minted in this process, so both
    verifiers find their challenge primes in the ``poe_challenge`` memo and
    the ratio compares exponentiation work only (DESIGN.md §15).
    """
    import random
    import time

    from repro.crypto.backend import use_backend
    from repro.crypto.cache import prime_product
    from repro.crypto.poe import prove_poe_batch, verify_poe_batch
    from repro.crypto.primes import hash_to_prime

    rng = random.Random(11)
    repeats = 5
    with use_backend("python"):
        grp = default_group(bits=512).public_view()
        instances = []
        for i in range(POE_BATCH):
            exponent = prime_product(
                hash_to_prime(b"bench-poe" + bytes([i, j]), 128)
                for j in range(3)
            )
            base = grp.power(grp.generator, rng.randrange(3, 1 << 64))
            instances.append((base, exponent, grp.power(base, exponent)))

        sequential_proofs = [
            prove_exponentiation(grp, base, exponent)[1]
            for base, exponent, _result in instances
        ]
        batch_proof = prove_poe_batch(grp, instances)

        start = time.perf_counter()
        for _ in range(repeats):
            ok = all(
                verify_exponentiation(grp, base, exponent, result, proof)
                for (base, exponent, result), proof in zip(
                    instances, sequential_proofs
                )
            )
            if not ok:
                raise AssertionError("sequential PoE verification rejected")
        sequential_seconds = (time.perf_counter() - start) / repeats

        start = time.perf_counter()
        for _ in range(repeats):
            if not verify_poe_batch(grp, instances, batch_proof):
                raise AssertionError("batched PoE verification rejected")
        batched_seconds = (time.perf_counter() - start) / repeats

    return {
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
    }


def _print_poe_batch(timings: dict[str, float]) -> None:
    print(f"PoE verification of {POE_BATCH} instances (pure-python backend)")
    print(f"  sequential: {timings['sequential_seconds'] * 1e3:.2f} ms per batch")
    print(f"  batched   : {timings['batched_seconds'] * 1e3:.2f} ms per batch")
    print(f"  speedup   : {timings['speedup']:.2f}x")


def test_poe_batch_vs_sequential_verify(benchmark):
    timings = benchmark.pedantic(poe_batch_timings, iterations=1, rounds=1)
    print()
    _print_poe_batch(timings)
    # One random-linear-combination check must beat 16 separate ones.
    assert timings["speedup"] > 1


def main() -> int:
    _print_poe_batch(poe_batch_timings())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
