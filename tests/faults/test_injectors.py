"""Unit tests for the concrete injectors, over miniature response shapes."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.db.executor import ScheduleUnit
from repro.errors import MessageDropped, ProverKilled
from repro.faults import (
    CorruptProofPiece,
    DropMessage,
    DropPiece,
    FaultPlan,
    KillProver,
    NetworkFault,
    ReorderPieces,
    TamperEndDigest,
    TamperPublicStatement,
    WrongWrite,
)
from repro.sim.network import LAN, NetworkModel, SimulatedChannel


@dataclass(frozen=True)
class _Proof:
    payload: bytes = b"\x42proof"


@dataclass(frozen=True)
class _Piece:
    piece_index: int
    proof: _Proof = field(default_factory=_Proof)
    public_values: tuple = (10, 20, 30)
    end_digest: int = 0xBEEF


@dataclass(frozen=True)
class _Response:
    pieces: tuple


def _response(n: int = 3) -> _Response:
    return _Response(pieces=tuple(_Piece(piece_index=i) for i in range(n)))


class TestResponseTampering:
    def test_corrupt_proof_flips_low_bit(self):
        plan = FaultPlan(CorruptProofPiece(piece=1))
        out = plan.on_response(_response())
        assert out.pieces[1].proof.payload == b"\x43proof"
        assert out.pieces[0].proof.payload == b"\x42proof"
        assert plan.events[0].kind == "corrupt_proof"

    def test_one_shot_passes_the_retry_through(self):
        plan = FaultPlan(CorruptProofPiece(piece=0))
        plan.on_response(_response())
        clean = plan.on_response(_response())
        assert clean.pieces[0].proof.payload == b"\x42proof"
        assert plan.injected == 1

    def test_absent_target_is_a_noop(self):
        plan = FaultPlan(CorruptProofPiece(piece=9))
        out = plan.on_response(_response())
        assert out.pieces == _response().pieces
        assert plan.injected == 0

    def test_tamper_statement_perturbs_last_public_value(self):
        plan = FaultPlan(TamperPublicStatement(piece=2))
        out = plan.on_response(_response())
        assert out.pieces[2].public_values == (10, 20, 31)

    def test_tamper_end_digest(self):
        plan = FaultPlan(TamperEndDigest(piece=0))
        out = plan.on_response(_response())
        assert out.pieces[0].end_digest == 0xBEEF ^ 1

    def test_drop_piece_removes_it(self):
        plan = FaultPlan(DropPiece(piece=1))
        out = plan.on_response(_response())
        assert [p.piece_index for p in out.pieces] == [0, 2]

    def test_reorder_is_deterministic_and_really_reorders(self):
        def run(seed):
            plan = FaultPlan(ReorderPieces(), seed=seed)
            return [p.piece_index for p in plan.on_response(_response(4)).pieces]

        assert run(7) == run(7)
        assert run(7) != [0, 1, 2, 3]

    def test_reorder_skips_single_piece_responses(self):
        plan = FaultPlan(ReorderPieces())
        out = plan.on_response(_response(1))
        assert [p.piece_index for p in out.pieces] == [0]
        assert plan.injected == 0


class TestWrongWrite:
    def test_one_unit_writes_wrongly_and_later_units_read_the_lie(self):
        plan = FaultPlan(WrongWrite(unit=1, delta=1_000))
        first = ScheduleUnit((1,), reads=((("a",), 5),), writes=((("a",), 6),))
        second = ScheduleUnit((2,), reads=((("b",), 7),), writes=((("b",), 8),))
        third = ScheduleUnit(
            (3,), reads=((("a",), 6), (("b",), 8)), writes=((("a",), 9),)
        )
        assert plan.on_unit(0, first) == first
        assert plan.on_unit(1, second).writes == ((("b",), 1_008),)
        # the next unit claims to read what unit 1 certified
        assert plan.on_unit(2, third).reads == ((("a",), 6), (("b",), 1_008))
        assert [e.kind for e in plan.events] == ["wrong_write"]
        # a new batch starts clean, and the injector is one-shot
        assert plan.on_unit(0, third) == third
        assert plan.on_unit(1, second) == second


class TestProcessAndMessageFaults:
    def test_kill_prover_targets_one_piece(self):
        plan = FaultPlan(KillProver(piece=2))
        plan.on_prove(0)
        plan.on_prove(1)
        with pytest.raises(ProverKilled):
            plan.on_prove(2)
        plan.on_prove(2)  # one-shot: the retry proves fine
        assert plan.injected == 1

    def test_drop_message_directions(self):
        plan = FaultPlan(DropMessage(direction="response"))
        plan.on_request([1])  # wrong direction: unaffected
        with pytest.raises(MessageDropped):
            plan.on_response(_response())
        with pytest.raises(ValueError):
            DropMessage(direction="sideways")


class TestNetworkFault:
    def test_latency_accumulates_virtually(self):
        channel = SimulatedChannel(model=NetworkModel(rtt_seconds=0.5))
        plan = FaultPlan(NetworkFault(channel, payload_bytes=0))
        plan.on_request([1])
        plan.on_response(_response())
        assert plan.network_seconds == pytest.approx(1.0)
        assert channel.delivered == 2
        assert plan.injected == 0  # nothing dropped: no fault events

    def test_drops_are_seeded_and_recorded(self):
        channel = SimulatedChannel(model=LAN, seed=1, drop_probability=1.0)
        plan = FaultPlan(NetworkFault(channel))
        with pytest.raises(MessageDropped):
            plan.on_request([1])
        assert channel.dropped == 1
        assert plan.injected == 1
        assert plan.events[0].kind == "network"

    def test_channel_determinism(self):
        def pattern(seed):
            channel = SimulatedChannel(model=LAN, seed=seed, drop_probability=0.5)
            outcomes = []
            for _ in range(32):
                try:
                    channel.deliver(0)
                    outcomes.append(True)
                except MessageDropped:
                    outcomes.append(False)
            return outcomes

        assert pattern(5) == pattern(5)
        assert pattern(5) != pattern(6)

    def test_extra_delay_charged(self):
        channel = SimulatedChannel(
            model=NetworkModel(rtt_seconds=1.0),
            seed=0,
            delay_probability=1.0,
            extra_delay_seconds=2.0,
        )
        latency = channel.deliver(0)
        assert latency == pytest.approx(3.0)
        assert channel.virtual_seconds == pytest.approx(3.0)
