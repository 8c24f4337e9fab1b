"""Concrete fault injectors: every adversary class of the robustness layer.

Each injector models one way a misbehaving server, a flaky prover fleet, or
a lossy network can deviate from the protocol — and each drives the *real*
pipeline: certificates really get bit-flipped before they enter the
circuit, proofs really get corrupted on the wire, prover workers really die
inside the thread pool.  Detection is therefore exercised end-to-end, not
simulated.

What the client is expected to do about each kind:

======================  ====================================================
injector                expected detection
======================  ====================================================
CorruptProofPiece       proof fails cryptographic verification
TamperPublicStatement   recomputed public statement mismatch
TamperEndDigest         digest chain broken / final digest does not close
DropPiece               reported pieces do not cover the batch
ReorderPieces           digest chain broken at the first swapped piece
BitFlipWitness          in-circuit MemCheck/MemUpdate fails → AllCommit = 0
WrongWrite              replay's write check fails → AllCommit = 0
KillProver              server aborts the batch (ProofCorruptionDetected)
DropMessage             no response — the session retries
NetworkFault            seeded drops/delays via :mod:`repro.sim.network`
======================  ====================================================
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..errors import MessageDropped, ProverKilled
from ..sim.network import SimulatedChannel
from .plan import FaultInjector, FaultPlan

__all__ = [
    "BitFlipWitness",
    "CorruptProofPiece",
    "DropMessage",
    "DropPiece",
    "KillProver",
    "NetworkFault",
    "ReorderPieces",
    "TamperEndDigest",
    "TamperPublicStatement",
    "WrongWrite",
]


def _flip_bytes(payload: bytes) -> bytes:
    """Flip the low bit of the first byte (a minimal, detectable corruption)."""
    if not payload:
        return b"\x01"
    return bytes([payload[0] ^ 0x01]) + payload[1:]


def _corrupt_proof(proof):
    """Minimally corrupt whichever proof representation the backend uses."""
    if hasattr(proof, "payload") and isinstance(proof.payload, bytes):
        return dataclasses.replace(proof, payload=_flip_bytes(proof.payload))
    if hasattr(proof, "root") and isinstance(proof.root, bytes):
        return dataclasses.replace(proof, root=_flip_bytes(proof.root))
    # Unknown backend: replace wholesale; the client must reject, not crash.
    return object()


def _replace_piece(response, index_in_tuple: int, **changes):
    pieces = list(response.pieces)
    pieces[index_in_tuple] = dataclasses.replace(pieces[index_in_tuple], **changes)
    return dataclasses.replace(response, pieces=tuple(pieces))


class _PieceTargeted(FaultInjector):
    """Shared plumbing for injectors aimed at one piece of the response."""

    def __init__(self, piece: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.piece = piece

    def _target_index(self, response) -> int | None:
        """Position of the targeted piece, or None when absent."""
        for position, piece in enumerate(response.pieces):
            if piece.piece_index == self.piece:
                return position
        return None


class CorruptProofPiece(_PieceTargeted):
    """Bit-flip one piece's proof on the wire (Sec 6.2 detection path)."""

    kind = "corrupt_proof"

    def on_response(self, plan: FaultPlan, response):
        position = self._target_index(response)
        if position is None or not self._take(plan):
            return response
        plan.record(self, "response", f"piece {self.piece} proof")
        tampered = _corrupt_proof(response.pieces[position].proof)
        return _replace_piece(response, position, proof=tampered)


class TamperPublicStatement(_PieceTargeted):
    """Perturb one piece's claimed public values (statement forgery)."""

    kind = "tamper_statement"

    def on_response(self, plan: FaultPlan, response):
        position = self._target_index(response)
        if position is None or not self._take(plan):
            return response
        plan.record(self, "response", f"piece {self.piece} public values")
        publics = list(response.pieces[position].public_values)
        publics[-1] ^= 1
        return _replace_piece(response, position, public_values=tuple(publics))


class TamperEndDigest(_PieceTargeted):
    """Claim a wrong end digest for one piece (digest-chain forgery)."""

    kind = "tamper_digest"

    def on_response(self, plan: FaultPlan, response):
        position = self._target_index(response)
        if position is None or not self._take(plan):
            return response
        plan.record(self, "response", f"piece {self.piece} end digest")
        piece = response.pieces[position]
        return _replace_piece(response, position, end_digest=piece.end_digest ^ 1)


class DropPiece(_PieceTargeted):
    """Omit one proof piece from the response entirely."""

    kind = "drop_piece"

    def on_response(self, plan: FaultPlan, response):
        position = self._target_index(response)
        if position is None or not self._take(plan):
            return response
        plan.record(self, "response", f"piece {self.piece}")
        pieces = list(response.pieces)
        del pieces[position]
        return dataclasses.replace(response, pieces=tuple(pieces))


class ReorderPieces(FaultInjector):
    """Deliver the proof pieces in a shuffled order (seeded).

    Fires only on multi-piece responses; the shuffle is drawn from the
    plan's seeded stream and re-drawn until the order actually changes.
    """

    kind = "reorder_pieces"

    def on_response(self, plan: FaultPlan, response):
        if len(response.pieces) < 2 or not self._take(plan):
            return response
        pieces = list(response.pieces)
        original = list(pieces)
        while pieces == original:
            plan.rng.shuffle(pieces)
        plan.record(self, "response", f"{len(pieces)} pieces shuffled")
        return dataclasses.replace(response, pieces=tuple(pieces))


class BitFlipWitness(FaultInjector):
    """Flip a bit in a unit's AD certificate witness before it enters the
    circuit — the in-circuit MemCheck/MemUpdate must catch it."""

    kind = "bitflip_witness"

    def __init__(self, unit: int = 0, which: str = "write", **kwargs):
        super().__init__(**kwargs)
        if which not in ("read", "write"):
            raise ValueError("which must be 'read' or 'write'")
        self.unit = unit
        self.which = which

    def on_certificates(self, plan: FaultPlan, unit_index: int, read_cert, write_cert):
        if unit_index != self.unit:
            return read_cert, write_cert
        if self.which == "write":
            if write_cert is None or not self._take(plan):
                return read_cert, write_cert
            plan.record(self, "certify", f"unit {unit_index} write witness")
            witness = dataclasses.replace(
                write_cert.witness, witness=write_cert.witness.witness ^ 1
            )
            return read_cert, dataclasses.replace(write_cert, witness=witness)
        if read_cert is None or read_cert.lookup is None or not self._take(plan):
            return read_cert, write_cert
        plan.record(self, "certify", f"unit {unit_index} read witness")
        lookup = dataclasses.replace(
            read_cert.lookup, witness=read_cert.lookup.witness ^ 1
        )
        return dataclasses.replace(read_cert, lookup=lookup), write_cert


class WrongWrite(FaultInjector):
    """Execute the logic wrongly, certify honestly: add *delta* to every
    value one unit writes before its certificates are minted.

    Later units of the batch then claim to read what was certified, as a
    server whose store really held the wrong values would, so every
    certificate is valid for what it claims and only the replay's check
    that a unit wrote what its programs computed can catch the lie — the
    attack the verifiable-computation layer exists to stop.
    """

    kind = "wrong_write"

    def __init__(self, unit: int = 0, delta: int = 1_000, **kwargs):
        super().__init__(**kwargs)
        self.unit = unit
        self.delta = delta
        self._certified: dict = {}  # key -> wrong value, this batch

    def on_unit(self, plan: FaultPlan, unit_index: int, unit):
        if unit_index == 0:
            self._certified = {}
        certified = self._certified
        if certified:
            unit = dataclasses.replace(
                unit,
                reads=tuple((k, certified.get(k, v)) for k, v in unit.reads),
            )
            for key in unit.write_keys:
                certified.pop(key, None)
        if unit_index != self.unit or not unit.writes or not self._take(plan):
            return unit
        plan.record(self, "certify", f"unit {unit_index} writes")
        unit = dataclasses.replace(
            unit,
            writes=tuple((key, value + self.delta) for key, value in unit.writes),
        )
        certified.update(unit.writes)
        return unit


class KillProver(FaultInjector):
    """Kill the prover-pool worker assigned to one piece mid-batch."""

    kind = "kill_prover"

    def __init__(self, piece: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.piece = piece

    def on_prove(self, plan: FaultPlan, piece_index: int) -> None:
        if piece_index != self.piece or not self._take(plan):
            return
        plan.record(self, "prove", f"piece {piece_index} worker")
        raise ProverKilled(f"injected worker death on piece {piece_index}")


class DropMessage(FaultInjector):
    """Swallow the request or the response message entirely."""

    kind = "drop_message"

    def __init__(self, direction: str = "response", **kwargs):
        super().__init__(**kwargs)
        if direction not in ("request", "response"):
            raise ValueError("direction must be 'request' or 'response'")
        self.direction = direction

    def on_request(self, plan: FaultPlan, txns: Sequence) -> None:
        if self.direction != "request" or not self._take(plan):
            return
        plan.record(self, "request", f"batch of {len(txns)} txns")
        raise MessageDropped("injected drop of the client->server batch")

    def on_response(self, plan: FaultPlan, response):
        if self.direction != "response" or not self._take(plan):
            return response
        plan.record(self, "response", f"{len(response.pieces)}-piece response")
        raise MessageDropped("injected drop of the server->client response")


class NetworkFault(FaultInjector):
    """Route both messages through a :class:`repro.sim.network.SimulatedChannel`.

    The channel's seeded stream decides drops and extra delays; delivered
    latency accumulates on ``plan.network_seconds`` (virtual time — nothing
    sleeps).  Unlimited by default: the channel models the link itself, not
    a one-shot event.
    """

    kind = "network"

    def __init__(self, channel: SimulatedChannel, payload_bytes: int = 512, **kwargs):
        kwargs.setdefault("times", None)
        super().__init__(**kwargs)
        self.channel = channel
        self.payload_bytes = payload_bytes

    def _deliver(self, plan: FaultPlan, label: str) -> None:
        try:
            plan.network_seconds += self.channel.deliver(
                self.payload_bytes, label=label
            )
        except MessageDropped:
            self.fired += 1
            plan.record(self, label.split()[0], label)
            raise

    def on_request(self, plan: FaultPlan, txns: Sequence) -> None:
        self._deliver(plan, f"request ({len(txns)} txns)")

    def on_response(self, plan: FaultPlan, response):
        self._deliver(plan, f"response ({len(response.pieces)} pieces)")
        return response
