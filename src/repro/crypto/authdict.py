"""Weakly-binding authenticated dictionary from RSA accumulators (Section 5.3).

Each key-value pair ``(k, v)`` is encoded as the product of **three** category
primes:

    H(k, v) = Sample(lambda, 0, k) * Sample(lambda, 1, v) * Sample(lambda, 2, h(k, v))

where ``h`` is a collision-resistant hash.  The digest of a dictionary ``D``
is ``g^(prod H(k, v))``.  Because the *key* primes live in their own residue
class, the scheme supports efficient **key non-existence proofs** — the
feature the naive accumulator-of-pairs construction lacks, and the reason
the client never has to pre-populate the digest with every possible memory
address.

The API mirrors the paper exactly: ``Setup``, ``Commit``, ``Update``,
``ProveLookup`` / ``VerLookup`` (aggregatable over key sets), and
``ProveNoKey`` / ``VerNoKey`` (Bezout witnesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import CryptoError, ProofError
from ..obs.metrics import get_metrics, timed
from ..serialization import encode
from .cache import cached_key_prime, cached_pair_factors, prime_product
from .categorization import (
    CATEGORY_KEY,
    CATEGORY_RELATION,
    CATEGORY_VALUE,
    sample_category_prime,
)
from .hashing import hash_pair
from .poe import PoEProof, prove_exponentiation, verify_exponentiation
from .rsa_group import RSAGroup, bezout

__all__ = [
    "AuthenticatedDictionary",
    "LookupProof",
    "NonMembershipProof",
    "pair_factors",
    "pair_representative",
    "key_prime",
    "value_factors",
]

DEFAULT_PRIME_BITS = 128

_LOOKUP_SECONDS = get_metrics().histogram("authdict.lookup_seconds")
_UPDATE_SECONDS = get_metrics().histogram("authdict.update_seconds")
_LOOKUPS = get_metrics().counter("authdict.lookups")
_UPDATES = get_metrics().counter("authdict.updates")
_SHARED_BUILDS = get_metrics().counter("authdict.shared_base.builds")
_SHARED_WITNESSES = get_metrics().counter("authdict.shared_base.witnesses")
_SHARED_FALLBACKS = get_metrics().counter("authdict.shared_base.fallbacks")


@dataclass(frozen=True)
class LookupProof:
    """Aggregated lookup proof: the digest of the dictionary minus the pairs."""

    witness: int


@dataclass(frozen=True)
class NonMembershipProof:
    """Bezout coefficients ``(a, b)`` with ``a*S + b*(prod key primes) = 1``."""

    a: int
    b: int


def key_prime(key: object, bits: int = DEFAULT_PRIME_BITS) -> int:
    """The category-0 prime encoding *key*."""
    return sample_category_prime(bits, CATEGORY_KEY, encode(key))


def value_factors(
    key: object, value: object, bits: int = DEFAULT_PRIME_BITS
) -> tuple[int, int]:
    """The category-1 value prime and category-2 relation prime of ``(k, v)``."""
    return (
        sample_category_prime(bits, CATEGORY_VALUE, encode(value)),
        sample_category_prime(bits, CATEGORY_RELATION, hash_pair(key, value)),
    )


def pair_factors(
    key: object, value: object, bits: int = DEFAULT_PRIME_BITS
) -> tuple[int, int, int]:
    """The ``(key, value, relation)`` primes whose product is ``H(k, v)``."""
    return (key_prime(key, bits), *value_factors(key, value, bits))


def pair_representative(key: object, value: object, bits: int = DEFAULT_PRIME_BITS) -> int:
    """``H(k, v)``: the product of the key, value, and relation primes."""
    return _representative(pair_factors(key, value, bits))


def _representative(factors: tuple[int, int, int]) -> int:
    key_p, value_p, relation_p = factors
    return key_p * value_p * relation_p


def _exact_quotient(dividend: int, divisor: int) -> int:
    quotient, remainder = divmod(dividend, divisor)
    if remainder:
        raise CryptoError("internal state corrupt: product mismatch")
    return quotient


class AuthenticatedDictionary:
    """The weakly-binding AD scheme; also usable as incremental server state.

    The *stateless* verification methods (``ver_lookup``, ``ver_no_key``,
    ``digest_after_update``) are what the client / circuit run; the stateful
    methods maintain the server's copy of the dictionary, its exponent
    product ``S``, the latest digest ``acc`` (the bookkeeping of
    Algorithm 1), and each row's three category primes, the *factor map*
    whose products multiply to ``S``.  The factor map is journaled with
    checkpoints so recovery can roll ``S`` forward; witnesses and proofs
    never read it, they hash every pair through the prime caches.
    """

    def __init__(
        self,
        group: RSAGroup,
        initial: Mapping[object, object] | None = None,
        prime_bits: int = DEFAULT_PRIME_BITS,
        anchor: tuple[Mapping[object, object], int, Mapping | None] | None = None,
    ):
        """The dictionary holding *initial*, its digest ``g^S`` formed by one
        generator power over the product-tree exponent ``S``.

        *anchor* is a ``(store, product, factors)`` triple from an earlier
        :meth:`state` whose factor map covers exactly its store, or whose
        factors are None (journaled before factor maps existed).  With
        factors, ``S`` is rolled forward by the net change ``C`` of
        *initial* against the anchor's store, dropped keys included:
        ``S' = (S // prod old factors of C) * prod new factors of C``, where
        a changed key keeps its anchored key prime and hashes a fresh value
        and relation prime, an inserted key hashes all three, and a dropped
        key hashes none.  A remainder raises :class:`CryptoError`.  Without
        an anchor or its factors, ``S`` is built from scratch.  The digest
        is always recomputed from ``S``.

        ``rolled_forward`` records which branch ran, ``changed_keys`` the
        size of ``C`` (every key without an anchor) and ``primes_hashed``
        the category primes it asked the (cached) samplers for.
        """
        self.group = group
        self.prime_bits = prime_bits
        self._store: dict[object, object] = dict(initial) if initial else {}
        # (touched keys T, B) while a batch holds a shared base; see
        # share_base.  Never part of state(): it is derived, not state.
        self._shared: tuple[frozenset, int] | None = None
        base_store, base_product, base_factors = (
            anchor if anchor is not None else ({}, 1, None)
        )
        changed = {
            key: value
            for key, value in self._store.items()
            if key not in base_store or base_store[key] != value
        }
        dropped = [key for key in base_store if key not in self._store]
        self.changed_keys = len(changed) + len(dropped)
        self.rolled_forward = base_factors is not None
        if self.rolled_forward:
            self._roll_forward(base_product, base_factors, changed, dropped)
        else:
            self._factors = {
                key: self._pair_factors(key, value)
                for key, value in self._store.items()
            }
            self._product = prime_product(map(_representative, self._factors.values()))
            self.primes_hashed = 3 * len(self._factors)
        self._digest = group.power(group.generator, self._product)

    def _roll_forward(
        self,
        base_product: int,
        base_factors: Mapping[object, tuple[int, int, int]],
        changed: Mapping[object, object],
        dropped: Iterable[object],
    ) -> None:
        """Set ``S`` and the factor map from an anchor's by the net change.

        The anchor's factors are hints: they enter nothing but ``S``, which
        the caller binds to a trusted digest, and never the prime caches.
        """
        factors = dict(base_factors)
        old = [factors.pop(key) for key in dropped]
        old += [factors[key] for key in changed if key in factors]
        quotient = _exact_quotient(
            base_product, prime_product(map(_representative, old))
        )
        self.primes_hashed = 0
        for key, value in changed.items():
            if key in factors:
                fresh = value_factors(key, value, self.prime_bits)
                factors[key] = (factors[key][0], *fresh)
                self.primes_hashed += 2
            else:
                factors[key] = self._pair_factors(key, value)
                self.primes_hashed += 3
        self._factors = factors
        self._product = quotient * prime_product(
            _representative(factors[key]) for key in changed
        )

    # -- internal helpers ---------------------------------------------------
    #
    # Both samplers go through the crypto hot-path memo (keyed by key, value
    # and the global cache epoch): every batch that re-touches a pair would
    # otherwise re-run three hash-to-prime searches per access.

    def _pair_factors(self, key: object, value: object) -> tuple[int, int, int]:
        return cached_pair_factors(
            key,
            value,
            self.prime_bits,
            lambda: pair_factors(key, value, self.prime_bits),
        )

    def _h(self, key: object, value: object) -> int:
        return _representative(self._pair_factors(key, value))

    def _kp(self, key: object) -> int:
        return cached_key_prime(
            key, self.prime_bits, lambda: key_prime(key, self.prime_bits)
        )

    def _divide_out(self, keys: Iterable[object]) -> int:
        """``S / prod h_k`` over the current representatives of *keys* (all present).

        One division by the product.  ``prod h_k`` divides ``S`` exactly when
        dividing ``S`` by each ``h_k`` in turn never leaves a remainder, so
        this is the same check as a per-key loop, with no assumption that
        the representatives are distinct or coprime (keys holding equal
        values share a value prime).
        """
        return _exact_quotient(
            self._product,
            prime_product(self._h(key, self._store[key]) for key in keys),
        )

    # -- state accessors ------------------------------------------------------

    @property
    def digest(self) -> int:
        """``Commit(pk, D)`` of the current contents."""
        return self._digest

    @property
    def product(self) -> int:
        """The exponent product ``S`` (server-side only)."""
        return self._product

    def __contains__(self, key: object) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: object, default: object = None) -> object:
        return self._store.get(key, default)

    def snapshot(self) -> dict[object, object]:
        return dict(self._store)

    def state(self) -> tuple[dict[object, object], int, int, dict[object, tuple]]:
        """The complete mutable state ``(store, product, digest, factors)``.

        Cheap to take (two dict copies, two int references); feeding it back
        to :meth:`restore` rewinds the dictionary exactly — the rollback
        primitive the server's pre-batch snapshots are built on.
        """
        return dict(self._store), self._product, self._digest, dict(self._factors)

    def restore(
        self, state: tuple[dict[object, object], int, int, dict[object, tuple]]
    ) -> None:
        """Rewind to a state previously captured with :meth:`state`."""
        store, product, digest, factors = state
        self._store = dict(store)
        self._product = product
        self._digest = digest
        self._factors = dict(factors)
        self._shared = None

    # -- the per-batch shared base ------------------------------------------------

    def share_base(self, keys: Iterable[object]) -> None:
        """Hold ``B = g^(S / prod h_k for k in T ∩ store)`` for touched keys *T*.

        While only keys in *T* change, ``S`` is always ``S_rest`` times the
        current representatives of ``T ∩ store``, and ``B = g^S_rest`` stays
        fixed.  So a lookup over ``K ⊆ T`` is ``B`` raised to the current
        representatives of the keys in ``T ∩ store`` but not in ``K``: at
        most ``|T|`` representatives instead of the whole table.  That is
        the same group element ``g^(S / prod_K h_k)`` the from-scratch path
        computes.  Anything that could change a key outside *T* drops the
        base: :meth:`restore` and an :meth:`update` not contained in *T*.
        """
        touched = frozenset(keys)
        rest = self._divide_out(key for key in touched if key in self._store)
        self._shared = (touched, self.group.power(self.group.generator, rest))
        _SHARED_BUILDS.inc()

    def drop_shared_base(self) -> None:
        """Forget the shared base; later lookups compute from scratch."""
        self._shared = None

    # -- Commit (stateless) ------------------------------------------------------

    @classmethod
    def commit(
        cls,
        group: RSAGroup,
        contents: Mapping[object, object],
        prime_bits: int = DEFAULT_PRIME_BITS,
    ) -> int:
        """``Commit(pk, D)``: digest of a dictionary from scratch."""
        exponent = prime_product(
            pair_representative(key, value, prime_bits)
            for key, value in contents.items()
        )
        return group.power(group.generator, exponent)

    # -- ProveLookup / VerLookup ---------------------------------------------------

    def prove_lookup(self, keys: Iterable[object]) -> LookupProof:
        """Aggregated proof that each queried key holds its current value.

        The witness is ``g^(S / prod_K h_k)``.  When a shared base is held
        and every key is in its touched set, it is computed as a short
        exponentiation of that base (see :meth:`share_base`); otherwise as
        one long exponentiation of the generator.
        """
        return self._lookup(list(keys))[0]

    def _lookup(self, key_list: list) -> tuple[LookupProof, int]:
        """:meth:`prove_lookup`, plus the ``S / prod_K h_k`` it divided out."""
        _LOOKUPS.inc()
        with timed(_LOOKUP_SECONDS):
            for key in key_list:
                if key not in self._store:
                    raise CryptoError(f"key {key!r} is not in the dictionary")
            remaining = self._divide_out(key_list)
            key_set = set(key_list)
            if self._shared is not None:
                touched, base = self._shared
                if key_set <= touched:
                    _SHARED_WITNESSES.inc()
                    left_in = prime_product(
                        self._h(key, self._store[key])
                        for key in touched
                        if key in self._store and key not in key_set
                    )
                    return LookupProof(witness=self.group.power(base, left_in)), remaining
                _SHARED_FALLBACKS.inc()
            witness = self.group.power(self.group.generator, remaining)
            return LookupProof(witness=witness), remaining

    def lookup_exponent(self, pairs: Mapping[object, object]) -> int:
        """The aggregated exponent ``prod H(k, v)`` a lookup proof is checked
        against — exposed so batch verifiers (the deferred-PoE path of the
        memory-integrity checker) can restate ``VerLookup`` as the PoE
        instance ``witness^exponent == digest``."""
        return prime_product(self._h(key, value) for key, value in pairs.items())

    def ver_lookup(
        self,
        digest: int,
        pairs: Mapping[object, object],
        proof: LookupProof,
    ) -> bool:
        """``VerLookup``: check ``witness^(prod H(k,v)) == digest``.

        Witness and digest must be canonical group elements in ``[1, N)`` —
        out-of-range encodings are rejected, not reduced.  An empty *pairs*
        mapping is legal (exponent 1): it asserts ``witness == digest``,
        which is exactly the insert-only update case where no old pair is
        removed from the digest.
        """
        if not 0 < proof.witness < self.group.modulus:
            return False
        if not 0 < digest < self.group.modulus:
            return False
        return self.group.power(proof.witness, self.lookup_exponent(pairs)) == digest

    # -- PoE-compressed lookup path (Section 6.1.1) -------------------------------

    def prove_lookup_with_poe(
        self, keys: Iterable[object]
    ) -> tuple[LookupProof, PoEProof]:
        """Aggregated lookup proof plus a proof-of-exponentiation.

        The PoE lets the in-circuit checker verify
        ``witness^(prod H(k,v)) == digest`` with a *constant* number of
        group operations regardless of how many pairs were aggregated — the
        paper's trick for keeping the memory checker's gate count constant.
        """
        key_list = list(keys)
        proof = self.prove_lookup(key_list)
        exponent = prime_product(
            self._h(key, self._store[key]) for key in key_list
        )
        result, poe = prove_exponentiation(self.group, proof.witness, exponent)
        if result != self._digest:
            raise ProofError("internal error: PoE result disagrees with digest")
        return proof, poe

    def ver_lookup_with_poe(
        self,
        digest: int,
        pairs: Mapping[object, object],
        proof: LookupProof,
        poe: PoEProof,
    ) -> bool:
        """Constant-work ``VerLookup`` via the Wesolowski proof."""
        exponent = self.lookup_exponent(pairs)
        return verify_exponentiation(self.group, proof.witness, exponent, digest, poe)

    # -- Update -----------------------------------------------------------------

    def update(self, changes: Mapping[object, object]) -> tuple[int, LookupProof]:
        """Set each key in *changes* to its new value.

        Returns ``(new_digest, proof)`` where *proof* is the lookup proof of
        the **old** pairs — exactly the witness the paper's ``Update`` builds
        the new digest from (``d' = pi^(prod H(k, v_new))``), and the same
        object the memory-integrity checker consumes to validate the write.

        Keys not currently present are inserted (their old pair contributes
        nothing to the proof exponent, matching the agreed-initial-value
        semantics of Section 6.1.1).
        """
        _UPDATES.inc()
        with timed(_UPDATE_SECONDS):
            existing = [key for key in changes if key in self._store]
            proof, rest = self._lookup(existing)
            if self._shared is not None and not self._shared[0].issuperset(changes):
                self._shared = None
            new_factors = {
                key: self._pair_factors(key, value) for key, value in changes.items()
            }
            roll_forward = prime_product(map(_representative, new_factors.values()))
            self._store.update(changes)
            self._factors.update(new_factors)
            self._product = rest * roll_forward
            # d' = pi^(prod H(k, v_new)): the witness excludes exactly the old
            # pairs of the changed keys, so raising it by the new pairs lands
            # on g^S' without touching the rest of the dictionary.
            self._digest = self.group.power(proof.witness, roll_forward)
            return self._digest, proof

    def digest_after_update(
        self,
        proof: LookupProof,
        new_pairs: Mapping[object, object],
    ) -> int:
        """Client-side digest roll-forward: ``d' = witness^(prod H(k, v_new))``."""
        return self.group.power(proof.witness, self.lookup_exponent(new_pairs))

    # -- ProveNoKey / VerNoKey ------------------------------------------------------

    def prove_no_key(self, keys: Iterable[object]) -> NonMembershipProof:
        """Prove that none of *keys* has ever been written."""
        primes = []
        for key in keys:
            if key in self._store:
                raise CryptoError(f"key {key!r} exists; cannot prove non-membership")
            primes.append(self._kp(key))
        exponent = prime_product(primes)
        a, b, g = bezout(self._product, exponent)
        if g != 1:
            raise ProofError("gcd(S, key primes) != 1: state corrupt or key present")
        return NonMembershipProof(a=a, b=b)

    def ver_no_key(
        self,
        digest: int,
        keys: Iterable[object],
        proof: NonMembershipProof,
    ) -> bool:
        """``VerNoKey``: check ``digest^a * g^(b * prod key primes) == g``.

        The digest must be a canonical group element in ``[1, N)``, as in
        :meth:`ver_lookup`: ``digest + N`` is rejected, not reduced.
        """
        if not 0 < digest < self.group.modulus:
            return False
        exponent = prime_product(self._kp(key) for key in keys)
        lhs = self.group.mul(
            self.group.power(digest, proof.a),
            self.group.power(self.group.generator, proof.b * exponent),
        )
        return lhs == self.group.generator
