"""Tests for the multi-exponentiation and fixed-base window kernels."""

from __future__ import annotations

import importlib
import random
import threading
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cache import clear_prime_caches, generator_fixed_base
from repro.crypto.multiexp import FixedBaseWindow, multiexp
from repro.crypto.rsa_group import default_group

# The module, not the function of the same name ``repro.crypto`` re-exports.
multiexp_module = importlib.import_module("repro.crypto.multiexp")
rsa_group_module = importlib.import_module("repro.crypto.rsa_group")

# Exponents at the edges of the 4-bit windows and of the bytes the digits
# are read from: 0, 1, 2^(4k) +- 1, and lengths odd in nibbles.
BOUNDARY_EXPONENTS = [0, 1, 2, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097] + [
    (1 << (4 * k)) + delta for k in (3, 8, 33, 64) for delta in (-1, 0, 1)
] + [(1 << bits) - 1 for bits in (4, 12, 20, 36, 260)] + [0xABC, 0x1F0F0F]


def _reference(pairs, modulus):
    out = 1
    for base, exponent in pairs:
        out = out * pow(base, exponent, modulus) % modulus
    return out


class TestMultiexp:
    def test_empty_and_singleton(self, group):
        n = group.modulus
        assert multiexp([], n) == 1
        assert multiexp([(group.generator, 0)], n) == 1
        assert multiexp([(group.generator, 7)], n) == pow(group.generator, 7, n)

    def test_matches_reference_on_random_batches(self, group):
        n = group.modulus
        rng = random.Random(11)
        for size in (2, 3, 8, 16, 33):
            pairs = [
                (rng.randrange(2, n), rng.getrandbits(128) | 1) for _ in range(size)
            ]
            assert multiexp(pairs, n) == _reference(pairs, n)

    def test_mixed_exponent_sizes(self, group):
        n = group.modulus
        rng = random.Random(13)
        pairs = [
            (rng.randrange(2, n), rng.getrandbits(bits) | 1)
            for bits in (1, 8, 64, 128, 512, 1500)
        ]
        assert multiexp(pairs, n) == _reference(pairs, n)

    def test_window_and_byte_boundaries(self, group):
        n = group.modulus
        rng = random.Random(19)
        for exponent in BOUNDARY_EXPONENTS:
            # unequal digit counts: a short boundary exponent beside a long one
            pairs = [(group.generator, exponent), (rng.randrange(2, n), rng.getrandbits(300))]
            assert multiexp(pairs, n) == _reference(pairs, n)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 2**64), st.integers(0, 2**130)), max_size=8))
    def test_property_matches_reference(self, pairs):
        n = default_group(bits=512).modulus
        assert multiexp(pairs, n) == _reference(pairs, n)


class TestFixedBaseWindow:
    def test_matches_pow_across_exponent_sizes(self, group):
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        rng = random.Random(17)
        for bits in (1, 4, 63, 128, 500, 3000, 12000):
            e = rng.getrandbits(bits) | (1 << (bits - 1)) if bits > 1 else 1
            assert window.power(e) == pow(group.generator, e, n)

    def test_window_and_byte_boundaries(self, group):
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        for exponent in BOUNDARY_EXPONENTS:
            assert window.power(exponent) == pow(group.generator, exponent, n)

    def test_split_path_past_the_table_cap(self, group, monkeypatch):
        # With the cap at 3 windows, every exponent above 24 bits takes the
        # split: the table covers the low 24 bits, powmod does the rest.
        monkeypatch.setattr(multiexp_module, "_MAX_TABLE_WINDOWS", 3)
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        rng = random.Random(29)
        exponents = [(1 << 12) - 1, 1 << 12, (1 << 12) + 1, 1 << 13, 0xF000F]
        exponents += [rng.getrandbits(bits) for bits in (13, 16, 17, 64, 500)]
        for exponent in exponents:
            assert window.power(exponent) == pow(group.generator, exponent, n)
        assert window.table_entries == 4  # the cap plus the split's top power

    def test_time_is_linear_in_exponent_length(self, group):
        """8x the bits must cost well under 12x the time.

        Reading each window digit with a whole-exponent shift made this
        ratio ~20x at these sizes; reading the digits once makes it ~8x.
        """
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        rng = random.Random(31)
        short = rng.getrandbits(32_768) | (1 << 32_767)
        long = rng.getrandbits(8 * 32_768) | (1 << (8 * 32_768 - 1))
        window.power(long)  # build the table outside the timed region

        def best_of_3(exponent: int) -> float:
            times = []
            for _ in range(3):
                start = perf_counter()
                window.power(exponent)
                times.append(perf_counter() - start)
            return min(times)

        ratio = best_of_3(long) / best_of_3(short)
        assert ratio < 12, f"8x the exponent bits took {ratio:.1f}x the time"

    def test_byte_digit_boundaries(self, group):
        # The fixed-base digits are the exponent's bytes: every length from
        # 1 to 40 bytes, all-0xFF (every digit in the top bucket), and one
        # non-zero byte at each position (a single bucket, the rest empty).
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        rng = random.Random(37)
        exponents = []
        for length in range(1, 41):
            exponents.append(rng.getrandbits(8 * length) | (1 << (8 * length - 1)))
            exponents.append((1 << (8 * length)) - 1)
        for position in range(40):
            for byte in (0x01, 0x80, 0xFF, rng.randrange(2, 0xFF)):
                exponents.append(byte << (8 * position))
        for exponent in exponents:
            assert window.power(exponent) == pow(group.generator, exponent, n), hex(exponent)

    def test_split_path_at_byte_windows(self, group, monkeypatch):
        # With the cap at 3 windows the table covers the low 24 bits, and
        # powmod over the table's top power does the rest.
        monkeypatch.setattr(multiexp_module, "_MAX_TABLE_WINDOWS", 3)
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        rng = random.Random(41)
        exponents = [(1 << 24) + delta for delta in (-1, 0, 1)] + [1 << 25, 0xFF000000FF]
        exponents += [(1 << bits) - 1 for bits in (23, 24, 25, 32, 512)]
        exponents += [rng.getrandbits(bits) for bits in (25, 31, 33, 64, 1000)]
        for exponent in exponents:
            assert window.power(exponent) == pow(group.generator, exponent, n), hex(exponent)
        assert window.table_entries == 4

    def test_zero_and_negative_exponents(self, group):
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        assert window.power(0) == 1
        e = 12345
        expected = pow(pow(group.generator, -1, n), e, n)
        assert window.power(-e) == expected

    def test_table_grows_lazily(self, group):
        window = FixedBaseWindow(group.generator, group.modulus)
        assert window.table_entries == 1
        window.power(1 << 100)
        grown = window.table_entries
        assert grown > 1
        window.power(3)  # small exponent must not shrink or grow the table
        assert window.table_entries == grown

    def test_concurrent_evaluation_is_consistent(self, group):
        n = group.modulus
        window = FixedBaseWindow(group.generator, n)
        rng = random.Random(23)
        exponents = [rng.getrandbits(2048) for _ in range(16)]
        expected = [pow(group.generator, e, n) for e in exponents]
        results: dict[int, list[int]] = {}

        def worker(tid: int):
            results[tid] = [window.power(e) for e in exponents]

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results.values():
            assert got == expected


class TestRegistry:
    def test_registry_shares_one_window_per_group(self, group):
        clear_prime_caches()
        first = generator_fixed_base(
            group.modulus,
            group.generator,
            lambda: FixedBaseWindow(group.generator, group.modulus),
        )
        second = generator_fixed_base(
            group.modulus,
            group.generator,
            lambda: FixedBaseWindow(group.generator, group.modulus),
        )
        assert first is second

    def test_group_power_routes_through_registry(self, group):
        clear_prime_caches()
        e = (1 << 300) + 12345
        expected = pow(group.generator, e, group.modulus)
        assert group.power(group.generator, e) == expected
        window = generator_fixed_base(
            group.modulus,
            group.generator,
            lambda: FixedBaseWindow(group.generator, group.modulus),
        )
        # The large generator power above must have populated the shared table.
        assert window.table_entries > 1

    def test_group_power_at_the_fixed_base_threshold(self, group):
        # Just below the threshold powmod runs, at and above it the window;
        # both must agree with pow for the generator and for another base.
        rng = random.Random(43)
        n = group.modulus
        other = rng.randrange(2, n)
        for bits in (
            rsa_group_module._FIXED_BASE_MIN_BITS - 1,
            rsa_group_module._FIXED_BASE_MIN_BITS,
            rsa_group_module._FIXED_BASE_MIN_BITS + 1,
        ):
            top = 1 << (bits - 1)
            for exponent in (top, (1 << bits) - 1, rng.getrandbits(bits) | top):
                assert group.power(group.generator, exponent) == pow(group.generator, exponent, n)
                assert group.power(other, exponent) == pow(other, exponent, n)

    def test_epoch_bump_drops_windows(self, group):
        from repro.crypto.cache import bump_prime_cache_epoch

        first = generator_fixed_base(
            group.modulus,
            group.generator,
            lambda: FixedBaseWindow(group.generator, group.modulus),
        )
        bump_prime_cache_epoch()
        second = generator_fixed_base(
            group.modulus,
            group.generator,
            lambda: FixedBaseWindow(group.generator, group.modulus),
        )
        assert first is not second
