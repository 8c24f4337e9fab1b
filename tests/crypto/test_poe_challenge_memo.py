"""The PoE challenge prime is searched once per transcript per process.

``poe._challenge_prime`` and ``poe._batch_challenge_prime`` go through the
``poe_challenge`` LRU in :mod:`repro.crypto.cache`, keyed by
``(epoch, seed, bits)``.  An in-process verifier therefore reuses the
prover's search, but it must still run its whole check: a warm memo may not
let a tampered proof or instance through.
"""

from __future__ import annotations

import importlib

import pytest

from repro.crypto.cache import bump_prime_cache_epoch, clear_prime_caches
from repro.crypto.poe import (
    PoEBatchProof,
    PoEProof,
    prove_exponentiation,
    prove_poe_batch,
    verify_exponentiation,
    verify_poe_batch,
)
from repro.crypto.primes import hash_to_prime
from repro.obs.metrics import get_metrics

from .test_poe_batch import _instances

poe_module = importlib.import_module("repro.crypto.poe")
cache_module = importlib.import_module("repro.crypto.cache")


def _counts() -> tuple[int, int]:
    registry = get_metrics()
    return (
        registry.counter("cache.poe_challenge.misses").value,
        registry.counter("cache.poe_challenge.hits").value,
    )


class Deltas:
    """``(misses, hits)`` on ``cache.poe_challenge`` since construction."""

    def __init__(self):
        self._start = _counts()

    def __call__(self) -> tuple[int, int]:
        now = _counts()
        return now[0] - self._start[0], now[1] - self._start[1]


@pytest.fixture()
def batch():
    clear_prime_caches()
    group, instances = _instances(83, 6)
    return group, instances


class TestOneSearchPerTranscript:
    def test_prove_then_verify_is_one_miss_then_one_hit(self, batch):
        group, instances = batch
        deltas = Deltas()
        proof = prove_poe_batch(group, instances)
        assert deltas() == (1, 0)
        assert verify_poe_batch(group, instances, proof)
        assert deltas() == (1, 1)

    def test_single_instance_poe_shares_the_memo(self, batch):
        group, instances = batch
        base, exponent, _result = instances[0]
        deltas = Deltas()
        result, proof = prove_exponentiation(group, base, exponent)
        assert verify_exponentiation(group, base, exponent, result, proof)
        assert deltas() == (1, 1)

    def test_memoized_prime_is_the_searched_prime(self, batch):
        group, instances = batch
        transcript = poe_module._batch_transcript(group, instances)
        memoized = poe_module._batch_challenge_prime(transcript)
        assert memoized == hash_to_prime(b"litmus-poe-batch" + transcript, 128)

    def test_one_instance_apart_misses(self, batch):
        group, instances = batch
        proof = prove_poe_batch(group, instances)
        base, exponent, result = instances[2]
        other = list(instances)
        other[2] = (base, exponent, group.power(base, exponent + 1))
        deltas = Deltas()
        assert not verify_poe_batch(group, other, proof)
        assert deltas() == (1, 0)


class TestWarmMemoStillChecks:
    def test_tampered_quotient_rejected(self, batch):
        group, instances = batch
        proof = prove_poe_batch(group, instances)
        forged = PoEBatchProof(
            quotient_power=group.mul(proof.quotient_power, group.generator),
            count=proof.count,
        )
        deltas = Deltas()
        assert not verify_poe_batch(group, instances, forged)
        assert deltas() == (0, 1)

    def test_tampered_coefficient_rejected(self, batch, monkeypatch):
        # A prover that folds one instance with the wrong coefficient leaves
        # the right challenge in the memo, and a wrong Q.
        group, instances = batch
        honest = poe_module._batch_coefficients

        def skewed(transcript, count):
            coefficients = honest(transcript, count)
            coefficients[1] += 2
            return coefficients

        monkeypatch.setattr(poe_module, "_batch_coefficients", skewed)
        proof = prove_poe_batch(group, instances)
        monkeypatch.setattr(poe_module, "_batch_coefficients", honest)
        deltas = Deltas()
        assert not verify_poe_batch(group, instances, proof)
        assert deltas() == (0, 1)

    def test_tampered_instance_rejected(self, batch):
        group, instances = batch
        proof = prove_poe_batch(group, instances)
        base, exponent, result = instances[4]
        for forged in (
            (base, exponent + 1, result),
            (base, exponent, group.mul(result, group.generator)),
            (group.mul(base, base), exponent, result),
        ):
            other = list(instances)
            other[4] = forged
            assert not verify_poe_batch(group, other, proof)
        # The honest transcript is still memoized and still verifies.
        assert verify_poe_batch(group, instances, proof)

    def test_tampered_single_instance_quotient_rejected(self, batch):
        group, instances = batch
        base, exponent, _result = instances[0]
        result, proof = prove_exponentiation(group, base, exponent)
        forged = PoEProof(quotient_power=group.mul(proof.quotient_power, base))
        deltas = Deltas()
        assert not verify_exponentiation(group, base, exponent, result, forged)
        assert deltas() == (0, 1)


class TestInvalidation:
    @pytest.mark.parametrize("drop", [clear_prime_caches, bump_prime_cache_epoch])
    def test_clear_and_epoch_bump_empty_the_memo(self, batch, drop):
        group, instances = batch
        proof = prove_poe_batch(group, instances)
        assert len(cache_module._POE_CHALLENGE_CACHE) >= 1
        drop()
        assert len(cache_module._POE_CHALLENGE_CACHE) == 0
        deltas = Deltas()
        assert verify_poe_batch(group, instances, proof)
        assert deltas() == (1, 0)

    def test_memo_is_bounded(self):
        clear_prime_caches()
        memo = cache_module._POE_CHALLENGE_CACHE
        for index in range(memo.maxsize + 5):
            cache_module.cached_challenge_prime(b"bound-%d" % index, 16)
        assert len(memo) == memo.maxsize
        assert memo.name in cache_module.prime_cache_stats()
