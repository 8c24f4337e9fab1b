"""Crypto hot-path caches (prover pipelining support, Section 7.2).

Every verification batch pays for the same expensive derivations over and
over: ``hash_to_prime`` for each (key, value) pair the batch touches,
Pocklington certificate chains for circuit-facing primes, and linear-time
products of many primes inside witness/verification exponents.  All of them
are *pure* functions of their inputs, so the server (and the honest replay
running inside every prover worker) can memoize them:

- :class:`LRUCache` — a small thread-safe LRU map with hit/miss statistics;
  the prover pool hits these caches from many threads at once, so every
  cache in this module takes a lock around its bookkeeping;
- :func:`cached_hash_to_prime` / :func:`cached_certified_prime` — memoized
  prime sampling and Pocklington chains, keyed by the deterministic seed
  plus a global *epoch* (bump the epoch to invalidate, e.g. when a test
  rebinds the security parameter);
- :func:`cached_challenge_prime` — the PoE challenge prime of a transcript,
  so the in-process verifier reuses the prover's search;
- :func:`cached_pair_factors` / :func:`cached_key_prime` — the
  authenticated dictionary's three ``H(k, v)`` category primes keyed by
  ``(key, value, epoch)``;
- :func:`product_tree` / :func:`prime_product` — balanced product trees for
  the multi-prime exponents of aggregated witnesses, turning the quadratic
  big-int cost of a left-to-right fold into the classic
  ``O(M(n) log n)`` product tree.

The caches never change *what* is computed — every entry is a deterministic
function of its key — so cached and uncached runs produce byte-identical
certificates, digests, and proofs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from ..obs.metrics import get_metrics
from ..serialization import encode
from .pocklington import PocklingtonCertificate, build_certified_prime
from .primes import hash_to_prime

__all__ = [
    "CacheStats",
    "LRUCache",
    "product_tree",
    "prime_product",
    "cached_hash_to_prime",
    "cached_certified_prime",
    "cached_challenge_prime",
    "cached_pair_factors",
    "cached_key_prime",
    "discard_generator_fixed_base",
    "generator_fixed_base",
    "peek_generator_fixed_base",
    "prime_cache_epoch",
    "bump_prime_cache_epoch",
    "clear_prime_caches",
    "prime_cache_stats",
]


@dataclass
class CacheStats:
    """Hit/miss counters exposed to the benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded, thread-safe least-recently-used map.

    ``functools.lru_cache`` is almost what we need, but it cannot be
    invalidated by key-space epoch, offers no eviction statistics, and hides
    its lock.  This explicit version is shared by every crypto hot path.
    """

    def __init__(self, maxsize: int = 4096, name: str = ""):
        if maxsize < 1:
            raise ValueError("cache size must be positive")
        self.maxsize = maxsize
        self.name = name
        self.stats = CacheStats()
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        # Mirror the per-cache stats into the process-local metrics registry
        # (repro.obs) so exporters see cache behaviour without reaching into
        # this module.  Handles are bound once; they survive registry resets.
        metric = f"cache.{name or 'anonymous'}"
        registry = get_metrics()
        self._hits_counter = registry.counter(f"{metric}.hits")
        self._misses_counter = registry.counter(f"{metric}.misses")
        self._evictions_counter = registry.counter(f"{metric}.evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Return the cached value for *key*, computing (and storing) on miss.

        The computation runs outside the lock: concurrent misses on the same
        key may compute twice, but the functions cached here are pure, so
        both threads arrive at the same value and correctness is unaffected.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.stats.hits += 1
                self._hits_counter.inc()
                return self._data[key]
            self.stats.misses += 1
        self._misses_counter.inc()
        value = compute()
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
        if evicted:
            self._evictions_counter.inc(evicted)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


# -- product trees ------------------------------------------------------------


def product_tree(values: Sequence[int]) -> int:
    """Product of *values* via a balanced tree.

    Pairing similarly-sized factors keeps both operands of every big-int
    multiplication balanced, which is asymptotically (and practically, for
    the hundreds of 64-to-128-bit primes an aggregated witness multiplies)
    faster than folding a huge accumulator against one small prime at a
    time.
    """
    leaves = list(values)
    if not leaves:
        return 1
    while len(leaves) > 1:
        paired = [
            leaves[i] * leaves[i + 1] for i in range(0, len(leaves) - 1, 2)
        ]
        if len(leaves) % 2:
            paired.append(leaves[-1])
        leaves = paired
    return leaves[0]


def prime_product(primes: Iterable[int]) -> int:
    """The exponent product of an aggregated witness (product-tree backed)."""
    return product_tree(list(primes))


# -- epoch-keyed memoization of the prime samplers -----------------------------

_EPOCH = 0
_EPOCH_LOCK = threading.Lock()

_HASH_TO_PRIME_CACHE = LRUCache(maxsize=1 << 16, name="hash_to_prime")
_CERTIFIED_PRIME_CACHE = LRUCache(maxsize=1 << 12, name="pocklington")
_PAIR_CACHE = LRUCache(maxsize=1 << 16, name="pair_representative")
_KEY_PRIME_CACHE = LRUCache(maxsize=1 << 16, name="key_prime")
# A PoE challenge is wanted twice, by the prover and then by the in-process
# verifier of the same transcript, so a small table suffices.
_POE_CHALLENGE_CACHE = LRUCache(maxsize=1 << 8, name="poe_challenge")

_ALL_CACHES = (
    _HASH_TO_PRIME_CACHE,
    _CERTIFIED_PRIME_CACHE,
    _PAIR_CACHE,
    _KEY_PRIME_CACHE,
    _POE_CHALLENGE_CACHE,
)


def _current_epoch() -> int:
    """The cache-key epoch, read under the epoch lock.

    Every cache key must embed an epoch observed *under the lock*: an
    unlocked read racing :func:`bump_prime_cache_epoch` could tear between
    the bump and the insert, filing a fresh computation under a dead epoch
    (or a stale value under the new one).
    """
    with _EPOCH_LOCK:
        return _EPOCH


def prime_cache_epoch() -> int:
    return _current_epoch()


def bump_prime_cache_epoch() -> int:
    """Invalidate every memoized prime by moving to a fresh key epoch.

    All caches are also *cleared*: stale-epoch entries can never be hit
    again (their keys embed the dead epoch), so leaving them resident only
    lets garbage evict live entries under memory pressure.
    """
    global _EPOCH
    with _EPOCH_LOCK:
        _EPOCH += 1
        epoch = _EPOCH
    clear_prime_caches()
    return epoch


def clear_prime_caches() -> None:
    for cache in _ALL_CACHES:
        cache.clear()
    with _FIXED_BASE_LOCK:
        _FIXED_BASE_REGISTRY.clear()


def prime_cache_stats() -> dict[str, dict[str, int | float]]:
    return {cache.name: cache.stats.as_dict() for cache in _ALL_CACHES}


def cached_hash_to_prime(
    seed: bytes, bits: int, residue: int | None = None, modulus: int = 8
) -> int:
    """Memoized :func:`repro.crypto.primes.hash_to_prime`."""
    key = (_current_epoch(), seed, bits, residue, modulus)
    return _HASH_TO_PRIME_CACHE.get_or_compute(
        key, lambda: hash_to_prime(seed, bits, residue=residue, modulus=modulus)
    )


def cached_challenge_prime(seed: bytes, bits: int) -> int:
    """Memoized PoE challenge prime (``hash_to_prime`` of a transcript)."""
    key = (_current_epoch(), seed, bits)
    return _POE_CHALLENGE_CACHE.get_or_compute(key, lambda: hash_to_prime(seed, bits))


def cached_certified_prime(
    bits: int, seed: bytes, residue: int | None = None
) -> PocklingtonCertificate:
    """Memoized Pocklington chain for circuit-facing primes.

    Building a chain is several orders of magnitude more expensive than
    plain ``hash_to_prime`` (hundreds of Miller–Rabin rounds across the
    boosting steps), and the same (key, value) pair recurs in every batch
    that touches it — the single most profitable memo in the pipeline.
    """
    key = (_current_epoch(), bits, seed, residue)
    return _CERTIFIED_PRIME_CACHE.get_or_compute(
        key, lambda: build_certified_prime(bits, seed, residue=residue)
    )


def cached_pair_factors(
    key: object,
    value: object,
    bits: int,
    compute: Callable[[], tuple[int, int, int]],
) -> tuple[int, int, int]:
    """Memoized ``(key, value, relation)`` primes of ``H(k, v)`` keyed by
    ``(key, value, epoch)``.

    The caller supplies *compute* (the uncached sampler) so this module does
    not need to import the authenticated-dictionary encoding — keeping the
    dependency arrow pointing from ``authdict`` down to ``cache``.
    """
    cache_key = (_current_epoch(), bits, encode(key), encode(value))
    return _PAIR_CACHE.get_or_compute(cache_key, compute)


def cached_key_prime(key: object, bits: int, compute: Callable[[], int]) -> int:
    """Memoized category-0 key prime keyed by ``(key, epoch)``."""
    cache_key = (_current_epoch(), bits, encode(key))
    return _KEY_PRIME_CACHE.get_or_compute(cache_key, compute)


# -- fixed-base window tables (one per RSA group generator) --------------------
#
# The generator's windowed-precomputation table (see
# :class:`repro.crypto.multiexp.FixedBaseWindow`) is pure state derived from
# (modulus, generator), shared by every group handle over the same modulus
# (trapdoor holders and public views alike).  It lives here so the epoch
# machinery can drop the tables together with every other derived artifact.

_FIXED_BASE_REGISTRY: OrderedDict[tuple[int, int], object] = OrderedDict()
_FIXED_BASE_LOCK = threading.Lock()
_FIXED_BASE_MAX_GROUPS = 16


def generator_fixed_base(
    modulus: int, generator: int, factory: Callable[[], object]
) -> object:
    """The cached fixed-base window for ``generator`` mod ``modulus``.

    *factory* builds the table on first use (the caller supplies it so this
    module does not import :mod:`repro.crypto.multiexp`).  At most
    ``_FIXED_BASE_MAX_GROUPS`` groups are retained (LRU); tables are cleared
    on epoch bumps alongside the prime caches.
    """
    key = (modulus, generator)
    with _FIXED_BASE_LOCK:
        window = _FIXED_BASE_REGISTRY.get(key)
        if window is not None:
            _FIXED_BASE_REGISTRY.move_to_end(key)
            return window
    window = factory()
    with _FIXED_BASE_LOCK:
        # Two threads may race the build; first insert wins so both use one
        # table (the loser's build is discarded, not wrong — pure function).
        existing = _FIXED_BASE_REGISTRY.get(key)
        if existing is not None:
            return existing
        _FIXED_BASE_REGISTRY[key] = window
        while len(_FIXED_BASE_REGISTRY) > _FIXED_BASE_MAX_GROUPS:
            _FIXED_BASE_REGISTRY.popitem(last=False)
        return window


def peek_generator_fixed_base(modulus: int, generator: int) -> object | None:
    """The cached fixed-base window for ``generator`` mod ``modulus``, or
    None; never builds one."""
    with _FIXED_BASE_LOCK:
        return _FIXED_BASE_REGISTRY.get((modulus, generator))


def discard_generator_fixed_base(
    modulus: int, generator: int, window: object | None = None
) -> None:
    """Forget the cached window for ``generator`` mod ``modulus``.

    With *window*, only if the cached one is that very object, so a caller
    dropping a table it seeded cannot drop one another thread built since.
    """
    key = (modulus, generator)
    with _FIXED_BASE_LOCK:
        if window is None or _FIXED_BASE_REGISTRY.get(key) is window:
            _FIXED_BASE_REGISTRY.pop(key, None)
