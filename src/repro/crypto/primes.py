"""Primality testing and deterministic hash-to-prime sampling.

Three layers of assurance are provided:

1. :func:`is_prime_trial` — *provable* primality by trial division, suitable
   for the small base primes that anchor a Pocklington certificate chain;
2. :func:`is_probable_prime` — deterministic Miller–Rabin: seven fixed bases
   are provably correct for all n < 2^64, thirteen for all n < 3.3 * 10^24,
   and the set is overwhelmingly reliable beyond (error < 2^-128 with the
   extended base schedule);
3. Pocklington certificates (see :mod:`repro.crypto.pocklington`) — fully
   verifiable primality proofs, as required by the paper for primes supplied
   to the circuit as auxiliary inputs.
"""

from __future__ import annotations

import math

from ..errors import PrimalityError
from .backend import get_backend
from .hashing import expand_stream

__all__ = [
    "SMALL_PRIMES",
    "is_prime_trial",
    "miller_rabin_round",
    "is_probable_prime",
    "next_probable_prime",
    "hash_to_prime",
]


def _sieve(limit: int) -> list[int]:
    """Primes below *limit* via the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for candidate in range(2, int(limit**0.5) + 1):
        if flags[candidate]:
            flags[candidate * candidate :: candidate] = bytearray(
                len(flags[candidate * candidate :: candidate])
            )
    return [index for index, flag in enumerate(flags) if flag]


SMALL_PRIMES: list[int] = _sieve(10_000)

# Seven bases making Miller-Rabin deterministic for n < 2^64 (J. Sinclair's
# set, verified against the Feitsma-Galway list of base-2 strong
# pseudoprimes below 2^64).  A base is used reduced mod n and skipped when
# that is 0 or 1, the standard rule for these sets: base 0 would fail a
# prime (407521 divides 9780504), and base 1, a round every n passes, would
# fail miller_rabin_round's divisor check (1483 divides 28178 - 1).
_SEVEN_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SEVEN_BASES_BOUND = 1 << 64
# Bases making Miller-Rabin deterministic for n < 3,317,044,064,679,887,385,961,981
# (Sorenson & Webster 2015).
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Extra fixed bases used above that bound; 40 rounds gives error < 4^-40.
_EXTRA_BASES = tuple(SMALL_PRIMES[13:53])
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Product of the trial-division prefilter primes: one gcd against this
# rejects ~88% of odd candidates in a single big-int operation, instead of
# 64 separate modular reductions per hash-to-prime attempt.
_PREFILTER_PRIMES = SMALL_PRIMES[:64]
_PREFILTER_PRODUCT = 1
for _p in _PREFILTER_PRIMES:
    _PREFILTER_PRODUCT *= _p
_PREFILTER_BOUND = _PREFILTER_PRIMES[-1]
_PREFILTER_SET = frozenset(_PREFILTER_PRIMES)
del _p

# Wheel-sieve extension of the prefilter: the remaining sieve primes, in
# ascending chunks whose products are matched against the candidate by gcd.
# Ordering matters — small factors are far more likely, so the first chunk
# rejects most composites and the later (larger) products are rarely touched.
# Only sound for candidates above every wheel prime: a smaller candidate
# could *be* one of the chunk primes and would divide the product.
_WHEEL_CHUNKS = tuple(
    math.prod(SMALL_PRIMES[start:stop])
    for start, stop in ((64, 256), (256, len(SMALL_PRIMES)))
)
_WHEEL_BOUND = SMALL_PRIMES[-1]


def is_prime_trial(n: int) -> bool:
    """Provable primality by trial division (only sensible for n < ~10^12)."""
    if n < 2:
        return False
    divisor = 2
    while divisor * divisor <= n:
        if n % divisor == 0:
            return False
        divisor += 1 if divisor == 2 else 2
    return True


def miller_rabin_round(n: int, base: int) -> bool:
    """One Miller-Rabin round: returns False iff *base* witnesses n composite."""
    if n % base == 0:
        return n == base
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    backend = get_backend()
    x = backend.powmod(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = backend.mulmod(x, x, n)
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (provably correct below ~3.3 * 10^24).

    Candidates below 2^64, every 64-bit representative among them, run
    seven rounds; larger ones run thirteen, or 53 above that bound.
    """
    if n < 2:
        return False
    if n <= _PREFILTER_BOUND:
        # The prefilter primes are exactly the primes up to the bound.
        return n in _PREFILTER_SET
    gcd = get_backend().gcd
    if gcd(n, _PREFILTER_PRODUCT) != 1:
        return False
    if n > _WHEEL_BOUND:
        # Wheel fast path: one gcd per chunk rejects any candidate sharing a
        # factor below 10^4 before the (much costlier) Miller–Rabin rounds.
        # A hit is always a true composite — n exceeds every wheel prime, so
        # a non-trivial gcd exhibits a proper factor — hence outputs are
        # bit-identical with and without the wheel.
        for chunk in _WHEEL_CHUNKS:
            if gcd(n, chunk) != 1:
                return False
    return _miller_rabin_all(n)


def _miller_rabin_all(n: int) -> bool:
    if n < _SEVEN_BASES_BOUND:
        residues = (base % n for base in _SEVEN_BASES)
        return all(miller_rabin_round(n, a) for a in residues if a > 1)
    bases = _DETERMINISTIC_BASES
    if n >= _DETERMINISTIC_BOUND:
        bases = _DETERMINISTIC_BASES + _EXTRA_BASES
    return all(miller_rabin_round(n, base) for base in bases)


def next_probable_prime(n: int) -> int:
    """Smallest probable prime strictly greater than *n*."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def hash_to_prime(
    seed: bytes,
    bits: int,
    residue: int | None = None,
    modulus: int = 8,
    max_attempts: int = 100_000,
) -> int:
    """Deterministically map *seed* to a *bits*-bit probable prime.

    If *residue* is given, the output additionally satisfies
    ``prime % modulus == residue`` — this implements the ``Sample`` algorithm
    of the categorization scheme (Section 5.1): candidates are drawn from a
    deterministic stream and the first prime in the right residue class wins.
    """
    if residue is not None and residue % 2 == 0:
        raise PrimalityError("prime residue class must be odd")
    for attempt in range(max_attempts):
        block = b""
        needed = (bits + 7) // 8 + 8
        index = 0
        while len(block) < needed:
            block += expand_stream(seed + attempt.to_bytes(4, "big"), index)
            index += 1
        candidate = int.from_bytes(block, "big")
        candidate &= (1 << bits) - 1
        candidate |= 1 << (bits - 1)  # exact bit length
        candidate |= 1  # odd
        if residue is not None:
            candidate += (residue - candidate) % modulus
            if candidate.bit_length() != bits:
                continue
        if is_probable_prime(candidate):
            return candidate
    raise PrimalityError(f"no prime found for seed after {max_attempts} attempts")
