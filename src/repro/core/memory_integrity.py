"""Memory integrity: provider (Algorithm 1) and checker (Algorithm 2).

The **provider** runs natively on the server.  It owns the authenticated
dictionary state (the exponent product ``S``, the digest ``acc``, and the
cached dictionary ``D``) and mints certificates:

- :class:`ReadCertificate` — an aggregated lookup proof for the keys a
  schedule unit read, plus a key non-existence proof for never-written keys
  (whose value is the agreed initial 0);
- :class:`WriteCertificate` — the witness needed to roll the digest forward
  over a unit's writes, plus non-existence proofs for blind inserts.

The **checker** is the logic the circuit runs ("plugged into each
transaction" per Section 6.1.2): it holds only the running digest ``acc``
and verifies certificates with a constant number of group operations,
updating ``acc`` as writes are applied.  Both sides perform the *real* RSA
mathematics; when the checker runs inside a wrapped-transaction circuit it
is wrapped as a fixed-cost foreign gadget (see
:mod:`repro.core.wrapper`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..crypto.authdict import AuthenticatedDictionary, LookupProof, NonMembershipProof
from ..crypto.cache import prime_cache_stats
from ..crypto.poe import PoEBatchProof, PoEProof, prove_poe_batch, verify_poe_batch
from ..crypto.rsa_group import RSAGroup
from ..db.executor import ScheduleUnit
from ..db.kvstore import INITIAL_VALUE
from ..errors import IntegrityError

__all__ = [
    "ReadCertificate",
    "WriteCertificate",
    "MemoryIntegrityProvider",
    "MemoryIntegrityChecker",
    "POE_MODE_BATCH",
]

# Provider `use_poe` mode attaching ONE aggregated PoE per piece instead of
# one Wesolowski proof per read certificate (see certify_piece_poe).
POE_MODE_BATCH = "batch"

# How many times more a short general-base exponentiation costs per pair
# representative than the generator's fixed-base window.  Measured at a
# 511-bit modulus, 64-bit primes (192-bit representatives), pure-python
# backend, best of 5: the 8-bit window costs 28-32 us per representative at
# 64-4096 rows; a general-base powmod costs 205-233 us per representative
# at 2-64 representatives (ratio 6.4-8.4).  The break-even rule in
# shared_base, timed against real lookups at 64 and 512 rows, |T| from 4
# to 128 and 2 or 4 witnesses, picked the faster path at 16 of 16 points
# with 7, 7.5 or 8, and at 15 of 16 with 4.5 or 9.  On xshard-r256's
# 64-row shards, 4.5 and 7.5 mint witnesses equally fast (within 2%).
_SHORT_COST_PER_REPRESENTATIVE = 7.5


@dataclass(frozen=True)
class ReadCertificate:
    """Authenticates the values a unit read, against a specific digest.

    When *poe* is set, the lookup verifies with a constant number of group
    operations (Wesolowski proof-of-exponentiation, Section 6.1.1) instead
    of an exponentiation by the full pair product.
    """

    digest: int  # the digest this certificate is valid against
    present: tuple[tuple[tuple, int], ...]  # (key, value) pairs in the AD
    absent: tuple[tuple, ...]  # keys never written (value = initial 0)
    lookup: LookupProof | None
    nokey: NonMembershipProof | None
    poe: PoEProof | None = None

    def values(self) -> dict[tuple, int]:
        out = {key: value for key, value in self.present}
        for key in self.absent:
            out[key] = INITIAL_VALUE
        return out


@dataclass(frozen=True)
class WriteCertificate:
    """Authenticates a digest roll-forward over a unit's writes."""

    old_digest: int
    new_digest: int
    old_pairs: tuple[tuple[tuple, int], ...]  # existing keys' prior values
    inserted: tuple[tuple, ...]  # keys written for the first time
    new_pairs: tuple[tuple[tuple, int], ...]  # all written (key, value)
    witness: LookupProof  # excludes exactly the old pairs
    nokey: NonMembershipProof | None  # absence of `inserted` under old digest


class MemoryIntegrityProvider:
    """Algorithm 1: the server-side witness factory.

    ``GenReadProof`` maps to :meth:`certify_reads`; ``UpdateWrite`` maps to
    :meth:`apply_writes`.  Aggregation over a whole non-conflicting batch is
    inherent: certificates cover key *sets*.
    """

    def __init__(
        self,
        group: RSAGroup,
        initial: Mapping[tuple, int] | None = None,
        prime_bits: int = 64,
        use_poe: bool | str = False,
    ):
        """*use_poe* selects how lookup proofs are compressed:

        - ``False`` — plain aggregated lookups, verified by full
          exponentiation;
        - ``True`` — one Wesolowski PoE per read certificate;
        - :data:`POE_MODE_BATCH` — certificates carry no individual PoE;
          the server mints one :class:`~repro.crypto.poe.PoEBatchProof`
          per piece via :meth:`certify_piece_poe` and the checker verifies
          all lookups with a single batched check.
        """
        self._ad = AuthenticatedDictionary(group, initial=initial, prime_bits=prime_bits)
        self.use_poe = use_poe

    @property
    def digest(self) -> int:
        return self._ad.digest

    @property
    def dictionary_size(self) -> int:
        return len(self._ad)

    def current_value(self, key: tuple) -> int:
        return self._ad.get(key, INITIAL_VALUE)

    def certify_unit(
        self,
        reads: Mapping[tuple, int] | None,
        writes: Mapping[tuple, int] | None,
    ) -> tuple[ReadCertificate | None, WriteCertificate | None]:
        """Certify one schedule unit: reads against the current digest, then
        the digest roll-forward over its writes.

        This is the serial stage of the prover pipeline — certificates must
        be minted in schedule order because each one chains off the previous
        digest — so it stays on the dispatcher thread while earlier pieces
        prove concurrently.
        """
        read_cert = self.certify_reads(dict(reads)) if reads else None
        write_cert = self.apply_writes(dict(writes)) if writes else None
        return read_cert, write_cert

    def state(self) -> tuple[dict, int, int, dict]:
        """Capture the provider's AD state for a later :meth:`restore`."""
        return self._ad.state()

    def restore(self, state: tuple[dict, int, int, dict]) -> None:
        """Rewind the provider to a previously captured state.

        Used by the server's rejected-batch recovery: certificates minted
        after the capture become invalid against the restored digest, which
        is exactly the point — the rolled-back batch never happened.
        """
        self._ad.restore(state)

    @contextmanager
    def shared_base(self, schedule: Iterable[ScheduleUnit]) -> Iterator[None]:
        """Mint the witnesses of *schedule* from one shared base, if it pays.

        :meth:`certify_unit` mints one lookup witness if a unit reads a
        present key and one more if it writes.  From scratch each costs
        a fixed-base exponentiation over all ``n`` rows.  With a base over
        the touched keys ``T`` (:meth:`AuthenticatedDictionary.share_base`)
        each costs a short exponentiation over at most ``|T|`` rows, after
        one build over ``n - |T|``.  The base is built only when that is
        cheaper, which needs at least two witnesses.  It is dropped on exit.
        """
        touched: set[tuple] = set()
        witnesses = 0
        for unit in schedule:
            read_keys = unit.read_keys
            witnesses += any(key in self._ad for key in read_keys) + bool(unit.writes)
            touched.update(read_keys, unit.write_keys)
        rows, short = len(self._ad), len(touched) * _SHORT_COST_PER_REPRESENTATIVE
        if rows - len(touched) + witnesses * short < witnesses * rows:
            self._ad.share_base(touched)
        try:
            yield
        finally:
            self._ad.drop_shared_base()

    @staticmethod
    def cache_stats() -> dict:
        """Hit/miss counters of the crypto hot-path caches feeding the AD."""
        return prime_cache_stats()

    def certify_reads(self, reads: Mapping[tuple, int]) -> ReadCertificate:
        """Prove that each key in *reads* currently has the given value.

        Keys never written get an aggregated non-existence proof; their
        claimed value must be the agreed initial value.
        """
        present: dict[tuple, int] = {}
        absent: list[tuple] = []
        for key, value in reads.items():
            if key in self._ad:
                stored = self._ad.get(key)
                if stored != value:
                    raise IntegrityError(
                        f"provider asked to certify stale value for {key!r}: "
                        f"store has {stored}, caller claims {value}"
                    )
                present[key] = value
            else:
                if value != INITIAL_VALUE:
                    raise IntegrityError(
                        f"unwritten key {key!r} must read the initial value"
                    )
                absent.append(key)
        lookup = None
        poe = None
        if present:
            if self.use_poe is True:
                lookup, poe = self._ad.prove_lookup_with_poe(present)
            else:
                # Plain mode and batch mode both mint a bare lookup; in
                # batch mode the PoE arrives later, once per piece.
                lookup = self._ad.prove_lookup(present)
        nokey = self._ad.prove_no_key(absent) if absent else None
        return ReadCertificate(
            digest=self._ad.digest,
            present=tuple(present.items()),
            absent=tuple(absent),
            lookup=lookup,
            nokey=nokey,
            poe=poe,
        )

    def certify_piece_poe(
        self, certificates: Iterable[ReadCertificate | None]
    ) -> PoEBatchProof | None:
        """One aggregated PoE covering every bare lookup in *certificates*.

        Collects each certificate whose lookup has no individual PoE into
        the instance ``witness^(prod H(k, v)) == digest`` and proves all of
        them at once (random-linear-combination Wesolowski, see
        :func:`repro.crypto.poe.prove_poe_batch`).  Returns ``None`` when no
        certificate needs covering.  The instance-selection rule here must
        match the checker's deferral rule exactly — both take "present
        pairs, bare lookup" — so the batch the server proves is the batch
        the checker verifies.
        """
        instances: list[tuple[int, int, int]] = []
        for certificate in certificates:
            if certificate is None or not certificate.present:
                continue
            if certificate.lookup is None or certificate.poe is not None:
                continue
            exponent = self._ad.lookup_exponent(dict(certificate.present))
            instances.append((certificate.lookup.witness, exponent, certificate.digest))
        if not instances:
            return None
        return prove_poe_batch(self._ad.group, instances)

    def apply_writes(self, writes: Mapping[tuple, int]) -> WriteCertificate:
        """Apply *writes* to the dictionary, returning the roll-forward proof."""
        if not writes:
            raise IntegrityError("empty write set")
        old_digest = self._ad.digest
        old_pairs = {key: self._ad.get(key) for key in writes if key in self._ad}
        inserted = tuple(key for key in writes if key not in self._ad)
        nokey = self._ad.prove_no_key(inserted) if inserted else None
        new_digest, witness = self._ad.update(dict(writes))
        return WriteCertificate(
            old_digest=old_digest,
            new_digest=new_digest,
            old_pairs=tuple(old_pairs.items()),
            inserted=inserted,
            new_pairs=tuple(writes.items()),
            witness=witness,
            nokey=nokey,
        )


class MemoryIntegrityChecker:
    """Algorithm 2: the in-circuit verifier.

    Holds only ``acc`` (one "dedicated wire"); each call performs a constant
    number of group operations.  All verification is real cryptography — a
    tampered certificate makes the corresponding method return False, which
    zeroes the wrapped transaction's AllCommit bit.
    """

    def __init__(self, group: RSAGroup, initial_digest: int, prime_bits: int = 64):
        self._verifier = AuthenticatedDictionary(group, prime_bits=prime_bits)
        self.acc = initial_digest
        self._deferred: list[tuple[int, int, int]] = []

    @property
    def deferred_instances(self) -> int:
        """How many lookup checks are queued for the final batched PoE."""
        return len(self._deferred)

    def mem_check(self, certificate: ReadCertificate, defer_poe: bool = False) -> bool:
        """MemCheck: are the claimed read values consistent with ``acc``?

        With *defer_poe*, a bare lookup (no individual PoE attached) is not
        exponentiated here: its instance is queued and settled by one
        batched Wesolowski check in :meth:`verify_deferred_poe`.  Everything
        else — digest binding, canonical encodings, absence proofs — is
        still enforced immediately.
        """
        if certificate.digest != self.acc:
            return False
        if certificate.present:
            if certificate.lookup is None:
                return False
            pairs = {key: value for key, value in certificate.present}
            if certificate.poe is not None:
                if not self._verifier.ver_lookup_with_poe(
                    self.acc, pairs, certificate.lookup, certificate.poe
                ):
                    return False
            elif defer_poe:
                witness = certificate.lookup.witness
                modulus = self._verifier.group.modulus
                if not (0 < witness < modulus and 0 < self.acc < modulus):
                    return False
                exponent = self._verifier.lookup_exponent(pairs)
                self._deferred.append((witness, exponent, self.acc))
            elif not self._verifier.ver_lookup(self.acc, pairs, certificate.lookup):
                return False
        if certificate.absent:
            if certificate.nokey is None:
                return False
            if not self._verifier.ver_no_key(self.acc, certificate.absent, certificate.nokey):
                return False
        return True

    def verify_deferred_poe(self, proof: PoEBatchProof | None) -> bool:
        """Settle every lookup deferred by ``mem_check(..., defer_poe=True)``.

        Drains the queue either way: a piece is accepted only if the single
        batched check covers *exactly* the deferred instances (count is
        bound into the proof and the transcript covers every witness,
        exponent, and digest).
        """
        instances, self._deferred = self._deferred, []
        if not instances:
            return proof is None
        if proof is None:
            return False
        return verify_poe_batch(self._verifier.group, instances, proof)

    def mem_update(self, certificate: WriteCertificate) -> bool:
        """MemUpdate: verify the old pairs against ``acc``, roll it forward."""
        if certificate.old_digest != self.acc:
            return False
        old_pairs = {key: value for key, value in certificate.old_pairs}
        if not self._verifier.ver_lookup(self.acc, old_pairs, certificate.witness):
            return False
        if certificate.inserted:
            # Blind inserts must prove the key was never written; otherwise a
            # malicious server could shadow an existing pair and later serve
            # either value for the same key.
            if certificate.nokey is None:
                return False
            if not self._verifier.ver_no_key(self.acc, certificate.inserted, certificate.nokey):
                return False
        claimed_keys = set(old_pairs) | set(certificate.inserted)
        if claimed_keys != {key for key, _v in certificate.new_pairs}:
            return False
        new_pairs = {key: value for key, value in certificate.new_pairs}
        rolled = self._verifier.digest_after_update(certificate.witness, new_pairs)
        if rolled != certificate.new_digest:
            return False
        self.acc = rolled
        return True
