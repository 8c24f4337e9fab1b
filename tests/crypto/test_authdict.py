"""Tests for the weakly-binding authenticated dictionary (paper Section 5.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.authdict import (
    AuthenticatedDictionary,
    LookupProof,
    NonMembershipProof,
    pair_representative,
)
from repro.errors import CryptoError

PRIME_BITS = 64  # smaller primes keep the test suite fast


@pytest.fixture()
def ad(group) -> AuthenticatedDictionary:
    return AuthenticatedDictionary(
        group, initial={"alice": 10, "bob": 20, "carol": 30}, prime_bits=PRIME_BITS
    )


class TestCommit:
    def test_commit_matches_incremental_state(self, group, ad):
        fresh = AuthenticatedDictionary.commit(
            group, {"alice": 10, "bob": 20, "carol": 30}, prime_bits=PRIME_BITS
        )
        assert fresh == ad.digest

    def test_commit_order_independent(self, group):
        d1 = AuthenticatedDictionary.commit(group, {"a": 1, "b": 2}, prime_bits=PRIME_BITS)
        d2 = AuthenticatedDictionary.commit(group, {"b": 2, "a": 1}, prime_bits=PRIME_BITS)
        assert d1 == d2

    def test_empty_dictionary_digest_is_generator(self, group):
        ad = AuthenticatedDictionary(group, prime_bits=PRIME_BITS)
        assert ad.digest == group.generator

    def test_value_change_changes_digest(self, group):
        d1 = AuthenticatedDictionary.commit(group, {"a": 1}, prime_bits=PRIME_BITS)
        d2 = AuthenticatedDictionary.commit(group, {"a": 2}, prime_bits=PRIME_BITS)
        assert d1 != d2


class TestPairRepresentative:
    def test_three_prime_structure(self):
        h = pair_representative("k", "v", bits=PRIME_BITS)
        # Product of three 64-bit primes: around 192 bits.
        assert 3 * (PRIME_BITS - 1) <= h.bit_length() <= 3 * PRIME_BITS

    def test_binding_to_both_components(self):
        assert pair_representative("k", 1, PRIME_BITS) != pair_representative(
            "k", 2, PRIME_BITS
        )
        assert pair_representative("k1", 1, PRIME_BITS) != pair_representative(
            "k2", 1, PRIME_BITS
        )


class TestLookup:
    def test_single_lookup_roundtrip(self, ad):
        proof = ad.prove_lookup(["alice"])
        assert ad.ver_lookup(ad.digest, {"alice": 10}, proof)

    def test_aggregated_lookup_roundtrip(self, ad):
        proof = ad.prove_lookup(["alice", "carol"])
        assert ad.ver_lookup(ad.digest, {"alice": 10, "carol": 30}, proof)

    def test_wrong_value_rejected(self, ad):
        proof = ad.prove_lookup(["alice"])
        assert not ad.ver_lookup(ad.digest, {"alice": 11}, proof)

    def test_wrong_key_rejected(self, ad):
        proof = ad.prove_lookup(["alice"])
        assert not ad.ver_lookup(ad.digest, {"bob": 10}, proof)

    def test_proof_does_not_transfer_between_digests(self, group, ad):
        proof = ad.prove_lookup(["alice"])
        other = AuthenticatedDictionary.commit(group, {"alice": 10}, prime_bits=PRIME_BITS)
        assert not ad.ver_lookup(other, {"alice": 10}, proof)

    def test_lookup_of_missing_key_raises(self, ad):
        with pytest.raises(CryptoError):
            ad.prove_lookup(["mallory"])

    def test_forged_witness_rejected(self, group, ad):
        forged = LookupProof(witness=group.mul(ad.prove_lookup(["alice"]).witness, 3))
        assert not ad.ver_lookup(ad.digest, {"alice": 10}, forged)


class TestUpdate:
    def test_update_existing_key(self, group, ad):
        old_digest = ad.digest
        new_digest, proof = ad.update({"alice": 99})
        assert new_digest != old_digest
        assert ad.get("alice") == 99
        # The client can roll the digest forward from the proof alone.
        assert ad.digest_after_update(proof, {"alice": 99}) == new_digest

    def test_update_matches_fresh_commit(self, group, ad):
        ad.update({"alice": 99, "bob": 88})
        fresh = AuthenticatedDictionary.commit(
            group, {"alice": 99, "bob": 88, "carol": 30}, prime_bits=PRIME_BITS
        )
        assert fresh == ad.digest

    def test_insert_new_key(self, group, ad):
        new_digest, proof = ad.update({"dave": 40})
        fresh = AuthenticatedDictionary.commit(
            group,
            {"alice": 10, "bob": 20, "carol": 30, "dave": 40},
            prime_bits=PRIME_BITS,
        )
        assert new_digest == fresh
        assert ad.digest_after_update(proof, {"dave": 40}) == new_digest

    def test_mixed_insert_and_update(self, group, ad):
        new_digest, proof = ad.update({"alice": 1, "dave": 2})
        assert ad.digest_after_update(proof, {"alice": 1, "dave": 2}) == new_digest

    def test_old_lookup_proofs_invalidated_by_update(self, ad):
        proof = ad.prove_lookup(["bob"])
        ad.update({"alice": 99})
        assert not ad.ver_lookup(ad.digest, {"bob": 20}, proof)


class TestNoKey:
    def test_nonexistent_key(self, ad):
        proof = ad.prove_no_key(["mallory"])
        assert ad.ver_no_key(ad.digest, ["mallory"], proof)

    def test_aggregated_nonexistence(self, ad):
        keys = ["m1", "m2", "m3"]
        proof = ad.prove_no_key(keys)
        assert ad.ver_no_key(ad.digest, keys, proof)

    def test_existing_key_cannot_be_proven_absent(self, ad):
        with pytest.raises(CryptoError):
            ad.prove_no_key(["alice"])

    def test_forged_nonexistence_rejected(self, ad):
        forged = NonMembershipProof(a=1, b=1)
        assert not ad.ver_no_key(ad.digest, ["alice"], forged)

    def test_nokey_proof_stops_working_after_insert(self, ad):
        proof = ad.prove_no_key(["dave"])
        ad.update({"dave": 40})
        assert not ad.ver_no_key(ad.digest, ["dave"], proof)

    def test_key_deleted_history_remains(self, ad):
        # Once written, a key was "previously accessed": after updates the
        # digest no longer admits the stale non-membership proof.
        ad.update({"eve": 1})
        with pytest.raises(CryptoError):
            ad.prove_no_key(["eve"])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_non_canonical_digest_rejected(self, group, ad, sign):
        """Regression: ``digest + N`` used to verify, and with a negative
        Bezout ``a`` a digest of 0 or N raised instead of returning False."""
        key, proof = absent_key_with_sign(ad, sign)
        n = group.modulus
        assert ad.ver_no_key(ad.digest, [key], proof)
        for digest in (ad.digest + n, 0, n, -ad.digest, ad.digest - n):
            assert ad.ver_no_key(digest, [key], proof) is False
            assert ad.ver_lookup(digest, {}, LookupProof(witness=ad.digest)) is False


def absent_key_with_sign(ad: AuthenticatedDictionary, sign: int):
    """An absent key whose non-membership proof has ``a`` of *sign*.

    ``a*S + b*p = 1`` forces ``a`` and ``b`` to opposite signs, so the two
    cases cover a negative digest exponent and a negative generator one.
    """
    for index in range(64):
        key = f"absent-{index}"
        proof = ad.prove_no_key([key])
        if proof.a * sign > 0:
            return key, proof
    raise AssertionError(f"no absent key with sign(a) = {sign}")


class TestPropertyBased:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=1000),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_lookup_roundtrip_random_dicts(self, group, contents):
        ad = AuthenticatedDictionary(group, initial=contents, prime_bits=PRIME_BITS)
        keys = list(contents)[: max(1, len(contents) // 2)]
        proof = ad.prove_lookup(keys)
        assert ad.ver_lookup(ad.digest, {k: contents[k] for k in keys}, proof)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=100),
            min_size=1,
            max_size=5,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=101, max_value=200),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_update_always_matches_commit(self, group, initial, changes):
        ad = AuthenticatedDictionary(group, initial=initial, prime_bits=PRIME_BITS)
        ad.update(changes)
        merged = {**initial, **changes}
        fresh = AuthenticatedDictionary.commit(group, merged, prime_bits=PRIME_BITS)
        assert fresh == ad.digest


class TestAnchoredBuild:
    """``AuthenticatedDictionary(..., anchor=(store, product, factors))``:
    roll ``S`` forward from an earlier state by the rows that changed, or,
    when the anchor journaled no factors, rebuild it from scratch; either
    way the digest is recomputed."""

    BASE = {f"row-{i}": 100 + i for i in range(12)}

    def _anchor(self, group):
        store, product, _digest, factors = AuthenticatedDictionary(
            group, initial=self.BASE, prime_bits=PRIME_BITS
        ).state()
        return store, product, factors

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"row-0": 7},
            {"row-0": 7, "row-5": 8, "new-row": 9},
            {f"row-{i}": i for i in range(12)},
        ],
        ids=["none", "one", "update-and-insert", "all"],
    )
    def test_matches_a_from_scratch_build(self, group, changes):
        final = {**self.BASE, **changes}
        anchored = AuthenticatedDictionary(
            group, initial=final, prime_bits=PRIME_BITS, anchor=self._anchor(group)
        )
        scratch = AuthenticatedDictionary(group, initial=final, prime_bits=PRIME_BITS)
        assert anchored.state() == scratch.state()
        assert anchored.digest == AuthenticatedDictionary.commit(
            group, final, prime_bits=PRIME_BITS
        )
        assert anchored.changed_keys == len(changes)
        assert scratch.changed_keys == len(final)
        inserted = len(changes.keys() - self.BASE.keys())
        assert anchored.rolled_forward and not scratch.rolled_forward
        assert anchored.primes_hashed == 2 * len(changes) + inserted
        assert scratch.primes_hashed == 3 * len(final)

    def test_unchanged_rows_take_the_anchor_product(self, group):
        store, product, factors = self._anchor(group)
        anchored = AuthenticatedDictionary(
            group,
            initial=self.BASE,
            prime_bits=PRIME_BITS,
            anchor=(store, product * 3, factors),
        )
        assert anchored.product == product * 3
        assert anchored.primes_hashed == 0
        assert anchored.digest != AuthenticatedDictionary.commit(
            group, self.BASE, prime_bits=PRIME_BITS
        )

    CHANGED_ROWS = pytest.mark.parametrize(
        "rows",
        [{**BASE, "row-2": 1}, {k: v for k, v in BASE.items() if k != "row-2"}],
        ids=["changed-row", "dropped-row"],
    )

    @CHANGED_ROWS
    def test_changed_rows_never_read_the_anchor_product(self, group, rows):
        # An anchor without factors: a checkpoint journaled before them.
        store, product, _factors = self._anchor(group)
        anchored = AuthenticatedDictionary(
            group,
            initial=rows,
            prime_bits=PRIME_BITS,
            anchor=(store, product * 3, None),
        )
        assert anchored.digest == AuthenticatedDictionary.commit(
            group, rows, prime_bits=PRIME_BITS
        )
        assert anchored.changed_keys == 1
        assert not anchored.rolled_forward

    @CHANGED_ROWS
    def test_changed_rows_roll_the_anchor_product_forward(self, group, rows):
        store, product, factors = self._anchor(group)
        anchored = AuthenticatedDictionary(
            group,
            initial=rows,
            prime_bits=PRIME_BITS,
            anchor=(store, product * 3, factors),
        )
        scratch = AuthenticatedDictionary(group, initial=rows, prime_bits=PRIME_BITS)
        assert anchored.product == scratch.product * 3
        assert anchored.changed_keys == 1
        assert anchored.primes_hashed == (2 if "row-2" in rows else 0)

    def test_a_wrong_factor_of_a_changed_key_leaves_a_remainder(self, group):
        store, product, factors = self._anchor(group)
        key_p, value_p, relation_p = factors["row-2"]
        factors["row-2"] = (key_p, value_p + 2, relation_p)
        with pytest.raises(CryptoError, match="product mismatch"):
            AuthenticatedDictionary(
                group,
                initial={**self.BASE, "row-2": 1},
                prime_bits=PRIME_BITS,
                anchor=(store, product, factors),
            )
