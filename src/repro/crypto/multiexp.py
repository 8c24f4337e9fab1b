"""Multi-exponentiation kernels for batch verification and fixed bases.

Two classic algorithms, both dispatching their modular multiplications
through the active :mod:`repro.crypto.backend`:

- :func:`multiexp` — simultaneous multi-exponentiation (Straus's
  interleaved windowed method, 4-bit windows): ``prod base_i ^ exp_i mod
  N`` with the squaring chain *shared* across every base.  For the
  batched-PoE check (k bases, 128-bit exponents) this replaces ``k``
  independent exponentiations (``~128·k`` squarings) with 128 shared
  squarings plus one table multiply per non-zero window.
- :class:`FixedBaseWindow` — fixed-base windowed precomputation
  (Brickell et al. / Pippenger bucket evaluation) with 8-bit windows, so
  the window digits are the exponent's bytes.  The RSA group generator is
  raised to *enormous* exponents (the accumulator product over the whole
  dictionary) on every lookup-witness mint; caching ``g^(2^(8·i))`` once
  per group turns each such exponentiation from ``|e|`` squarings +
  ``|e|/5`` multiplies into ``~|e|/8`` multiplies plus a fixed ~510-multiply
  fold, with **no** squarings at all.

Both kernels are exact — they compute the same integer ``pow`` would —
so digests and certificates are unchanged no matter which path runs.
"""

from __future__ import annotations

import threading
from typing import Sequence

from .backend import get_backend

__all__ = ["multiexp", "FixedBaseWindow"]

# Straus windows (multiexp).  The fixed-base table uses whole bytes.
_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1

# Byte -> its low / high nibble, for bytes.translate.
_LOW_NIBBLE = bytes(value & _WINDOW_MASK for value in range(256))
_HIGH_NIBBLE = bytes(value >> _WINDOW_BITS for value in range(256))

# A FixedBaseWindow stops extending its squaring table past this many
# 8-bit windows (2^20 exponent bits); higher bits fall back to one backend
# powmod over the table's top element, keeping memory bounded while the
# low, hot section of the exponent still hits the table.  The cap bounds
# memory, not time.  Measured at a 511-bit modulus: one entry is ~105 bytes
# and costs 10 us (8 squarings) to build.  Evaluation costs 0.17 us per
# exponent bit against 1.35 us for powmod.  So the cap is a 13 MiB table
# that takes 1.3 s to build.  A 512-row table at 64-bit primes needs 12,288
# entries.
_MAX_TABLE_WINDOWS = 1 << 17


def _window_digits(exponent: int) -> bytearray:
    """The base-16 digits of a non-negative *exponent*, least significant first.

    One ``to_bytes`` call and two C-level translations, so the cost is
    linear in the exponent's length.  Shifting the whole exponent once per
    window (``(exponent >> 4*i) & 15``) is quadratic and dominated every
    long exponentiation.  The result may end in one zero digit (an odd
    number of nibbles is padded to whole bytes).
    """
    raw = exponent.to_bytes((exponent.bit_length() + 7) // 8, "little")
    digits = bytearray(2 * len(raw))
    digits[0::2] = raw.translate(_LOW_NIBBLE)
    digits[1::2] = raw.translate(_HIGH_NIBBLE)
    return digits


def multiexp(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
    """``prod base^exponent mod modulus`` with one shared squaring chain.

    Exponents must be non-negative.  Bases are reduced mod *modulus*;
    zero exponents contribute nothing.
    """
    backend = get_backend()
    live = [(base % modulus, exponent) for base, exponent in pairs if exponent > 0]
    if not live:
        return 1 % modulus
    if len(live) == 1:
        base, exponent = live[0]
        return backend.powmod(base, exponent, modulus)
    mulmod = backend.mulmod
    # Per-base tables of base^1 .. base^(2^w - 1).
    tables: list[list[int]] = []
    for base, _exponent in live:
        table = [1, base]
        for _ in range(_WINDOW_MASK - 1):
            table.append(mulmod(table[-1], base, modulus))
        tables.append(table)
    digit_rows = [_window_digits(exponent) for _base, exponent in live]
    num_windows = max(len(digits) for digits in digit_rows)
    for digits in digit_rows:
        digits.extend(bytes(num_windows - len(digits)))
    acc = 1
    for window in reversed(range(num_windows)):
        if acc != 1:
            for _ in range(_WINDOW_BITS):
                acc = mulmod(acc, acc, modulus)
        for digits, table in zip(digit_rows, tables):
            digit = digits[window]
            if digit:
                acc = mulmod(acc, table[digit], modulus)
    return acc


class FixedBaseWindow:
    """Precomputed powers ``base^(2^(8·i))`` with bucketed evaluation.

    The table grows lazily to the largest exponent seen (bounded by
    ``_MAX_TABLE_WINDOWS``) and is safe to share across threads: growth
    happens under a lock, evaluation reads an immutable prefix.
    """

    def __init__(self, base: int, modulus: int, powers: Sequence[int] = ()):
        """The table of *base* mod *modulus*, seeded with *powers*.

        *powers* is a prefix ``base^(2^(8·i))`` taken from an earlier
        table (:meth:`snapshot`); it must start at ``base`` and is not
        checked further — whoever supplies it vouches for it.
        """
        self.modulus = modulus
        self.base = base % modulus
        if powers and powers[0] != self.base:
            raise ValueError("a fixed-base table must start at its base")
        # powers[i] = base^(2^(8*i))
        self._powers: list[int] = list(powers) if powers else [self.base]
        self._lock = threading.Lock()

    def _ensure(self, num_windows: int) -> list[int]:
        """Grow the table to *num_windows* entries; returns the live list."""
        powers = self._powers
        if len(powers) >= num_windows:
            return powers
        backend = get_backend()
        with self._lock:
            powers = self._powers
            while len(powers) < num_windows:
                top = powers[-1]
                for _ in range(8):
                    top = backend.mulmod(top, top, self.modulus)
                powers.append(top)
            return powers

    @property
    def table_entries(self) -> int:
        return len(self._powers)

    def extend(self, num_windows: int) -> None:
        """Grow the table to at least *num_windows* entries."""
        self._ensure(num_windows)

    def snapshot(self) -> tuple[int, ...]:
        """The entries built so far, ``base^(2^(8·i))`` for each ``i``."""
        return tuple(self._powers)

    def power(self, exponent: int) -> int:
        """``base^exponent mod modulus`` — identical to ``pow``, fewer ops."""
        backend = get_backend()
        if exponent < 0:
            return backend.invert(self.power(-exponent), self.modulus)
        if exponent == 0:
            return 1 % self.modulus
        modulus = self.modulus
        mulmod = backend.mulmod
        # The base-256 digits, least significant first: the exponent's bytes.
        digits = exponent.to_bytes((exponent.bit_length() + 7) // 8, "little")
        high = 1
        if len(digits) > _MAX_TABLE_WINDOWS:
            # Split: the table covers the low 2^20 bits; the remainder is
            # one backend exponentiation over the table's top power.
            powers = self._ensure(_MAX_TABLE_WINDOWS + 1)
            high = backend.powmod(
                powers[_MAX_TABLE_WINDOWS], exponent >> (8 * _MAX_TABLE_WINDOWS), modulus
            )
            digits = digits[:_MAX_TABLE_WINDOWS]
        powers = self._ensure(len(digits))
        # Bucket the digits by value (Pippenger): buckets[v] holds the
        # product of every table power whose digit equals v; the final
        # result is prod buckets[v]^v, folded with the running-sum trick.
        buckets = [1] * 256
        for digit, power in zip(digits, powers):
            if digit:
                if buckets[digit] == 1:
                    buckets[digit] = power
                else:
                    buckets[digit] = mulmod(buckets[digit], power, modulus)
        acc = 1
        running = 1
        for value in range(255, 0, -1):
            bucket = buckets[value]
            if bucket != 1:
                running = bucket if running == 1 else mulmod(running, bucket, modulus)
            if running != 1:
                acc = running if acc == 1 else mulmod(acc, running, modulus)
        if high != 1:
            acc = mulmod(acc, high, modulus)
        return acc
