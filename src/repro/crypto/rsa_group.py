"""RSA groups of unknown order.

The authenticated dictionary lives in an RSA group ``Z_N^*`` whose order is
unknown to the (untrusted) server — that is what makes the Strong RSA
assumption bite.  In this reproduction we generate the modulus ourselves, so
the *trapdoor* (the group order) exists in-process; it is kept on a private
attribute and is only ever used by explicitly "honest" code paths (test
fixtures, client-side recomputation) via :meth:`RSAGroup.trapdoor_power`.
Untrusted-path code uses :meth:`RSAGroup.power`, which performs the full
exponentiation.

The module also provides :func:`bezout` (extended Euclid), used by the key
non-existence proofs of Section 5.3.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import CryptoError
from .backend import get_backend
from .cache import generator_fixed_base
from .hashing import expand_stream, hash_bytes_to_int
from .multiexp import FixedBaseWindow
from .primes import is_probable_prime

__all__ = ["RSAGroup", "bezout", "default_group"]

# Below this exponent size the plain backend powmod wins: the fixed-base
# evaluation skips the squaring chain but always pays its 255-bucket fold
# (up to ~510 multiplies), which only a long exponent amortizes.  Measured
# with a warm table, pure-python backend, best of 5 over 200 exponents,
# window / pow:
#
#   exponent bits    64    128   192   256   288   320   384   512
#   511-bit N       3.05  1.80  1.29  1.01  0.90  0.85  0.73  0.58
#   2047-bit N                  1.36  1.07        0.89  0.75  0.62
#
# 256 bits is break-even, so the window takes over at 288.
_FIXED_BASE_MIN_BITS = 288


def bezout(x: int, y: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(a, b, g)`` with ``a*x + b*y == g == gcd(x, y)``."""
    old_r, r = x, y
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_a, a = a, old_a - q * a
        old_b, b = b, old_b - q * b
    return old_a, old_b, old_r


def _derive_prime(seed: bytes, bits: int, tag: bytes) -> int:
    """Deterministically derive a *bits*-bit prime ~ 3 (mod 4) from *seed*."""
    attempt = 0
    while True:
        block = b""
        index = 0
        needed = (bits + 7) // 8 + 8
        while len(block) < needed:
            block += expand_stream(seed + tag + attempt.to_bytes(4, "big"), index)
            index += 1
        candidate = int.from_bytes(block, "big")
        candidate &= (1 << bits) - 1
        candidate |= (1 << (bits - 1)) | 3  # exact length, = 3 (mod 4)
        if is_probable_prime(candidate):
            return candidate
        attempt += 1


class RSAGroup:
    """An RSA group with generator, plus an optional honest-party trapdoor."""

    def __init__(self, modulus: int, generator: int, _factors: tuple[int, int] | None = None):
        if modulus < 15 or modulus % 2 == 0:
            raise CryptoError("invalid RSA modulus")
        if not 1 < generator < modulus:
            raise CryptoError("generator out of range")
        self.modulus = modulus
        self.generator = generator
        self._factors = _factors

    @classmethod
    def generate(cls, bits: int = 2048, seed: bytes = b"litmus-default") -> "RSAGroup":
        """Deterministically generate a *bits*-bit RSA group from *seed*.

        The generator is a quadratic residue derived from the seed (squaring
        avoids the order-2 subgroup).
        """
        half = bits // 2
        p = _derive_prime(seed, half, b"p")
        q = _derive_prime(seed, half, b"q")
        if p == q:  # astronomically unlikely, but cheap to guard
            q = _derive_prime(seed, half, b"q2")
        n = p * q
        g = hash_bytes_to_int(seed + b"generator", bits - 2) % n
        g = g * g % n
        if g in (0, 1):
            raise CryptoError("degenerate generator")
        return cls(modulus=n, generator=g, _factors=(p, q))

    # -- untrusted-path operations ------------------------------------------

    def power(self, base: int, exponent: int) -> int:
        """``base^exponent mod N`` without using the trapdoor.

        Negative exponents are supported via modular inversion (the bases we
        use are units with overwhelming probability).  Exponentiations of the
        group generator route through a cached fixed-base window table (see
        :mod:`repro.crypto.multiexp`) once ``|exponent|`` is large enough for
        the table to pay off.  A negative one is evaluated there as
        ``invert(g^|e|)``, which for a unit ``g`` is the element
        ``invert(g)^|e|`` is, so the result is bit-for-bit identical to the
        ``powmod`` route.
        """
        backend = get_backend()
        if (
            base == self.generator
            and exponent.bit_length() >= _FIXED_BASE_MIN_BITS
        ):
            return self._generator_window().power(exponent)
        if exponent < 0:
            return backend.powmod(
                backend.invert(base, self.modulus), -exponent, self.modulus
            )
        return backend.powmod(base, exponent, self.modulus)

    def _generator_window(self) -> FixedBaseWindow:
        """The epoch-aware shared precomputation table for the generator."""
        window = generator_fixed_base(
            self.modulus,
            self.generator,
            lambda: FixedBaseWindow(self.generator, self.modulus),
        )
        assert isinstance(window, FixedBaseWindow)
        return window

    def mul(self, a: int, b: int) -> int:
        return get_backend().mulmod(a, b, self.modulus)

    def inv(self, a: int) -> int:
        return get_backend().invert(a, self.modulus)

    # -- honest-party trapdoor ------------------------------------------------

    @property
    def has_trapdoor(self) -> bool:
        return self._factors is not None

    def _order_hint(self) -> int:
        if self._factors is None:
            raise CryptoError("this group handle carries no trapdoor")
        p, q = self._factors
        return (p - 1) * (q - 1)

    def trapdoor_power(self, base: int, exponent: int) -> int:
        """Fast exponentiation reducing the exponent modulo the group order.

        Only honest parties (who generated the modulus) may call this; the
        result is identical to :meth:`power` for bases coprime to N.
        """
        phi = self._order_hint()
        return get_backend().powmod(base, exponent % phi, self.modulus)

    def public_view(self) -> "RSAGroup":
        """A handle without the trapdoor — what the untrusted server holds."""
        return RSAGroup(self.modulus, self.generator, _factors=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RSAGroup(bits={self.modulus.bit_length()}, trapdoor={self.has_trapdoor})"


@lru_cache(maxsize=8)
def default_group(bits: int = 512, seed: bytes = b"litmus-test-group") -> RSAGroup:
    """A process-wide cached group, sized for tests (generation is slow)."""
    return RSAGroup.generate(bits=bits, seed=seed)
