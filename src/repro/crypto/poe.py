"""Wesolowski proofs of exponentiation (PoE).

The memory-integrity checker must validate equations of the form
``u^x = w (mod N)`` where ``x`` can be an enormous product of primes.  Raw
verification would cost ``O(|x|)`` group operations — far too many gates.
The paper (Section 6.1.1, citing Boneh–Bünz–Fisch) lets the server attach a
*proof of exponentiation*: the verifier's work collapses to two small
exponentiations, independent of ``|x|``.

Protocol (Fiat–Shamir, non-interactive):

1. prover and verifier derive a random 128-bit prime ``l`` from
   ``(u, w, x)``;
2. the prover sends ``Q = u^(x div l)``;
3. the verifier accepts iff ``Q^l * u^(x mod l) == w``.

Soundness rests on the adaptive root assumption in groups of unknown order.

Batched variant (:func:`prove_poe_batch` / :func:`verify_poe_batch`): ``k``
instances ``u_i^(x_i) = w_i`` are folded into a *single* Wesolowski check of
the random linear combination ``prod u_i^(c_i * x_i) == prod w_i^(c_i)``,
with 128-bit coefficients ``c_i`` and one shared challenge prime ``l``
derived from the full transcript.  The prover sends one group element
``Q = prod u_i^((c_i * x_i) div l)``; the verifier recomputes
``Q^l * prod u_i^((c_i * x_i) mod l)`` and ``prod w_i^(c_i)`` as two
multi-exponentiations over 128-bit exponents (shared squaring chain — see
:mod:`repro.crypto.multiexp`), instead of ``k`` challenge primes and ``2k``
independent exponentiations.  A cheater must break some individual equation,
and the random ``c_i`` make any non-trivial combination collapse to a
fresh adaptive-root instance (Boneh–Bünz–Fisch batching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..serialization import encode
from .cache import cached_challenge_prime
from .hashing import hash_bytes_to_int, sha256
from .multiexp import multiexp
from .rsa_group import RSAGroup

__all__ = [
    "PoEProof",
    "PoEBatchProof",
    "prove_exponentiation",
    "verify_exponentiation",
    "prove_poe_batch",
    "verify_poe_batch",
]

_CHALLENGE_BITS = 128


def _canonical(group: RSAGroup, element: int) -> bool:
    """True iff *element* is a canonical representative in ``[1, N)``.

    Verifiers must reject anything else: accepting ``x >= N`` (silently
    reduced) or ``x <= 0`` lets a malicious prover ship the same group
    element under distinct encodings — or degenerate non-elements like 0 —
    past checks that compare encodings elsewhere.
    """
    return 0 < element < group.modulus


@dataclass(frozen=True)
class PoEProof:
    """The single group element ``Q`` sent by the prover."""

    quotient_power: int


def _challenge_prime(group: RSAGroup, base: int, result: int, exponent: int) -> int:
    transcript = sha256(encode((group.modulus, base, result, exponent)))
    return cached_challenge_prime(b"litmus-poe" + transcript, _CHALLENGE_BITS)


def prove_exponentiation(group: RSAGroup, base: int, exponent: int) -> tuple[int, PoEProof]:
    """Compute ``w = base^exponent`` and a PoE proof for it.

    This is server-side work: cost is linear in ``|exponent|``, as in the
    paper (the server "provides the result directly with a Proof-of-Exponent").
    """
    result = group.power(base, exponent)
    challenge = _challenge_prime(group, base, result, exponent)
    quotient = exponent // challenge
    return result, PoEProof(quotient_power=group.power(base, quotient))


def verify_exponentiation(
    group: RSAGroup, base: int, exponent: int, result: int, proof: PoEProof
) -> bool:
    """Verify ``base^exponent == result`` using constant group work.

    The verifier only computes ``exponent mod l`` (cheap on integers) and two
    small exponentiations — this is the constant-gate-count path the memory
    integrity checker relies on.

    All group elements must arrive in canonical form (``1 <= x < N``) and
    the exponent must be positive; malformed proofs are rejected outright
    rather than silently reduced into range.
    """
    if exponent < 1:
        return False
    if not (
        _canonical(group, base)
        and _canonical(group, result)
        and _canonical(group, proof.quotient_power)
    ):
        return False
    challenge = _challenge_prime(group, base, result, exponent)
    remainder = exponent % challenge
    lhs = group.mul(
        group.power(proof.quotient_power, challenge),
        group.power(base, remainder),
    )
    return lhs == result


# -- batched verification ------------------------------------------------------


@dataclass(frozen=True)
class PoEBatchProof:
    """One group element covering a whole batch of PoE instances."""

    quotient_power: int
    count: int


def _batch_transcript(
    group: RSAGroup, instances: Sequence[tuple[int, int, int]]
) -> bytes:
    return sha256(
        encode(
            (
                group.modulus,
                tuple((base, exponent, result) for base, exponent, result in instances),
            )
        )
    )


def _batch_coefficients(transcript: bytes, count: int) -> list[int]:
    """The 128-bit random-linear-combination coefficients ``c_i``.

    The top bit is pinned so every coefficient is non-zero (a zero
    coefficient would drop its instance from the combination entirely).
    """
    top = 1 << (_CHALLENGE_BITS - 1)
    return [
        hash_bytes_to_int(
            transcript + b"litmus-poe-coeff" + index.to_bytes(4, "big"),
            _CHALLENGE_BITS,
        )
        | top
        for index in range(count)
    ]


def _batch_challenge_prime(transcript: bytes) -> int:
    return cached_challenge_prime(b"litmus-poe-batch" + transcript, _CHALLENGE_BITS)


def prove_poe_batch(
    group: RSAGroup, instances: Sequence[tuple[int, int, int]]
) -> PoEBatchProof:
    """Aggregate PoE proof for ``(base, exponent, result)`` *instances*.

    Server-side cost is one full-length exponentiation per instance (same
    order as proving each individually), but the proof is a single group
    element and the verifier's work becomes two small multi-exponentiations
    regardless of batch size.
    """
    if not instances:
        raise ValueError("cannot prove an empty PoE batch")
    transcript = _batch_transcript(group, instances)
    coefficients = _batch_coefficients(transcript, len(instances))
    challenge = _batch_challenge_prime(transcript)
    quotient_power = 1
    for (base, exponent, _result), coefficient in zip(instances, coefficients):
        quotient = (coefficient * exponent) // challenge
        quotient_power = group.mul(quotient_power, group.power(base, quotient))
    if quotient_power == 0:  # pragma: no cover - requires a non-unit base
        raise ValueError("degenerate PoE batch (base not a unit)")
    return PoEBatchProof(quotient_power=quotient_power, count=len(instances))


def verify_poe_batch(
    group: RSAGroup,
    instances: Sequence[tuple[int, int, int]],
    proof: PoEBatchProof,
) -> bool:
    """Verify every ``base^exponent == result`` instance with one check.

    Accepts iff ``Q^l * prod u_i^((c_i x_i) mod l) == prod w_i^(c_i)``
    where ``l`` and the ``c_i`` are Fiat–Shamir challenges over the full
    batch transcript.  Both sides are 128-bit multi-exponentiations with a
    shared squaring chain, so verification cost grows only in the cheap
    table-multiply term as the batch widens.
    """
    if not instances:
        return False
    if proof.count != len(instances):
        return False
    if not _canonical(group, proof.quotient_power):
        return False
    for base, exponent, result in instances:
        if exponent < 1:
            return False
        if not (_canonical(group, base) and _canonical(group, result)):
            return False
    transcript = _batch_transcript(group, instances)
    coefficients = _batch_coefficients(transcript, len(instances))
    challenge = _batch_challenge_prime(transcript)
    lhs_pairs: list[tuple[int, int]] = [(proof.quotient_power, challenge)]
    rhs_pairs: list[tuple[int, int]] = []
    for (base, exponent, result), coefficient in zip(instances, coefficients):
        # (c * x) mod l via per-factor reduction — never materializes c*x.
        remainder = (coefficient % challenge) * (exponent % challenge) % challenge
        lhs_pairs.append((base, remainder))
        rhs_pairs.append((result, coefficient))
    lhs = multiexp(lhs_pairs, group.modulus)
    rhs = multiexp(rhs_pairs, group.modulus)
    return lhs == rhs
