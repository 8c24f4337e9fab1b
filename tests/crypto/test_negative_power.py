"""Negative exponents of the generator take the fixed-base table.

``RSAGroup.power(g, -e)`` with ``|e|`` of at least ``_FIXED_BASE_MIN_BITS``
bits is ``invert(window.power(e))``; shorter exponents and other bases keep
``powmod(invert(base), e)``.  Both must equal ``pow(invert(g), e, N)``, and
the non-membership proofs that produce these powers (a negative Bezout
coefficient) must still accept honest proofs and reject tampered ones.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro.crypto.authdict import AuthenticatedDictionary, NonMembershipProof
from repro.crypto.cache import clear_prime_caches
from repro.crypto.multiexp import FixedBaseWindow

from .test_authdict import PRIME_BITS, absent_key_with_sign

multiexp_module = importlib.import_module("repro.crypto.multiexp")
MIN_BITS = importlib.import_module("repro.crypto.rsa_group")._FIXED_BASE_MIN_BITS


def _expected(group, base: int, exponent: int) -> int:
    n = group.modulus
    return pow(pow(base, -1, n), exponent, n)


def _exponents_of(bits: int, rng: random.Random) -> list[int]:
    top = 1 << (bits - 1)
    return [top, (1 << bits) - 1, rng.getrandbits(bits) | top]


@pytest.fixture()
def fresh_tables():
    """Drop the shared generator tables before and after the test, so a
    table built under a patched cap never leaks into other tests."""
    clear_prime_caches()
    yield
    clear_prime_caches()


@pytest.fixture()
def table_calls(monkeypatch) -> list[int]:
    """Every exponent ``FixedBaseWindow.power`` is called with."""
    calls: list[int] = []
    power = FixedBaseWindow.power

    def spy(self, exponent):
        calls.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(FixedBaseWindow, "power", spy)
    return calls


class TestNegativeGeneratorPower:
    def test_at_the_fixed_base_threshold(self, group):
        rng = random.Random(53)
        for bits in (MIN_BITS - 1, MIN_BITS, MIN_BITS + 1):
            for exponent in _exponents_of(bits, rng):
                assert group.power(group.generator, -exponent) == _expected(
                    group, group.generator, exponent
                )

    def test_at_byte_boundaries(self, group):
        rng = random.Random(59)
        for length in (36, 37, 64, 128, 1024):
            for bits in (8 * length - 1, 8 * length, 8 * length + 1):
                for exponent in _exponents_of(bits, rng):
                    assert group.power(group.generator, -exponent) == _expected(
                        group, group.generator, exponent
                    )

    def test_random_long_exponents(self, group):
        rng = random.Random(61)
        for bits in (1_000, 4_099, 12_288, 15_900, 21_500, 50_000, 100_000):
            exponent = rng.getrandbits(bits) | (1 << (bits - 1))
            assert group.power(group.generator, -exponent) == _expected(
                group, group.generator, exponent
            )

    def test_above_the_table_cap(self, group, monkeypatch, fresh_tables):
        # With the cap at 3 windows the table covers the low 24 bits and
        # powmod over its top power does the rest, before the inversion.
        monkeypatch.setattr(multiexp_module, "_MAX_TABLE_WINDOWS", 3)
        rng = random.Random(67)
        exponents = [rng.getrandbits(bits) | (1 << (bits - 1)) for bits in (288, 512, 5_000)]
        exponents += [(1 << 1024) - 1, 1 << 2048]
        for exponent in exponents:
            assert group.power(group.generator, -exponent) == _expected(
                group, group.generator, exponent
            )
        assert group._generator_window().table_entries == 4

    def test_long_negative_exponents_take_the_table(self, group, table_calls):
        long = (1 << MIN_BITS) + 12_345
        group.power(group.generator, -long)
        assert table_calls and table_calls[0] == -long

    def test_short_negative_exponents_do_not(self, group, table_calls):
        for bits in (1, 64, MIN_BITS - 1):
            group.power(group.generator, -((1 << (bits - 1)) | 1))
        assert table_calls == []

    def test_other_bases_keep_the_powmod_route(self, group, table_calls):
        rng = random.Random(71)
        n = group.modulus
        for base in (2, rng.randrange(3, n), group.generator + 1):
            for bits in (64, MIN_BITS, 20_000):
                exponent = rng.getrandbits(bits) | (1 << (bits - 1))
                assert group.power(base, -exponent) == _expected(group, base, exponent)
        assert table_calls == []


class TestNonMembershipBothSigns:
    """``a*S + b*p = 1``: a positive ``a`` makes the generator exponent
    ``b*p`` negative, which now takes the table; a negative ``a`` inverts
    the digest instead."""

    @pytest.fixture()
    def ad(self, group) -> AuthenticatedDictionary:
        rows = {f"row-{i}": i for i in range(24)}
        return AuthenticatedDictionary(group, initial=rows, prime_bits=PRIME_BITS)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_honest_proof_accepted(self, ad, sign, table_calls):
        key, proof = absent_key_with_sign(ad, sign)
        assert ad.ver_no_key(ad.digest, [key], proof)
        # The generator exponent b*p is long, so the table ran either way.
        assert any((e < 0) == (sign > 0) for e in table_calls)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("field", ["a", "b"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_tampered_coefficient_rejected(self, ad, sign, field, delta):
        key, proof = absent_key_with_sign(ad, sign)
        tampered = {"a": proof.a, "b": proof.b}
        tampered[field] += delta
        assert not ad.ver_no_key(ad.digest, [key], NonMembershipProof(**tampered))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_negated_coefficients_rejected(self, ad, sign):
        key, proof = absent_key_with_sign(ad, sign)
        assert not ad.ver_no_key(ad.digest, [key], NonMembershipProof(a=-proof.a, b=-proof.b))
