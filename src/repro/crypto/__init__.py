"""Cryptographic substrate for Litmus.

This package provides every primitive the paper's design relies on:

- deterministic hash-to-prime sampling with Pocklington primality
  certificates (:mod:`repro.crypto.primes`, :mod:`repro.crypto.pocklington`);
- the three-way *prime categorization* of Section 5.1
  (:mod:`repro.crypto.categorization`);
- RSA groups of unknown order with an optional trapdoor for honest parties
  (:mod:`repro.crypto.rsa_group`);
- Wesolowski proofs of exponentiation used to keep the in-circuit memory
  checker constant-size (:mod:`repro.crypto.poe`);
- a dynamic universal RSA accumulator (:mod:`repro.crypto.accumulator`);
- the weakly-binding authenticated dictionary of Section 5.3
  (:mod:`repro.crypto.authdict`);
- a Merkle-tree authenticated store used as the folklore baseline
  (:mod:`repro.crypto.merkle`);
- thread-safe hot-path memoization (prime sampling, Pocklington chains,
  pair representatives) and product-tree exponent helpers
  (:mod:`repro.crypto.cache`).
"""

from .accumulator import RSAAccumulator
from .authdict import AuthenticatedDictionary, LookupProof, NonMembershipProof
from .backend import (
    CryptoBackend,
    Gmpy2Backend,
    PurePythonBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from .cache import (
    LRUCache,
    bump_prime_cache_epoch,
    clear_prime_caches,
    prime_cache_stats,
    prime_product,
    product_tree,
)
from .categorization import (
    CATEGORY_KEY,
    CATEGORY_RELATION,
    CATEGORY_VALUE,
    sample_category_prime,
    verify_category,
)
from .merkle import MerkleTree
from .multiexp import FixedBaseWindow, multiexp
from .poe import (
    PoEBatchProof,
    PoEProof,
    prove_exponentiation,
    prove_poe_batch,
    verify_exponentiation,
    verify_poe_batch,
)
from .pocklington import PocklingtonCertificate, build_certified_prime
from .rsa_group import RSAGroup, bezout

__all__ = [
    "AuthenticatedDictionary",
    "CATEGORY_KEY",
    "CATEGORY_RELATION",
    "CATEGORY_VALUE",
    "CryptoBackend",
    "FixedBaseWindow",
    "Gmpy2Backend",
    "LRUCache",
    "LookupProof",
    "MerkleTree",
    "NonMembershipProof",
    "PocklingtonCertificate",
    "PoEBatchProof",
    "PoEProof",
    "PurePythonBackend",
    "RSAAccumulator",
    "RSAGroup",
    "available_backends",
    "bezout",
    "build_certified_prime",
    "bump_prime_cache_epoch",
    "clear_prime_caches",
    "get_backend",
    "multiexp",
    "prime_cache_stats",
    "prime_product",
    "product_tree",
    "prove_exponentiation",
    "prove_poe_batch",
    "sample_category_prime",
    "set_backend",
    "use_backend",
    "verify_category",
    "verify_exponentiation",
    "verify_poe_batch",
]
