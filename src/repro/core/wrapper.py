"""The transaction wrapper (Algorithm 3) and the wrapped-transaction circuit.

A *wrapped transaction* glues a sequence of schedule units together with the
memory-integrity checker plugged in before (and after) every unit:

    MemInit(g0)
    for each unit (one txn under 2PL; one non-conflicting batch under DR):
        AllCommit &= MemCheck(unit reads, certificates)
        for each txn in the unit:
            CommitFlag, writes, outputs = txn.run(read values)
        AllCommit &= MemUpdate(unit writes, certificate)
    return AllCommit, outputs, final digest

Both sides construct the same circuit *structure* deterministically from the
transaction templates and the unit composition (the client can do this
locally under deterministic CC, per Section 7.1(b)); only the server holds
the certificates needed to evaluate it.  The circuit binds its execution to
a 2x128-bit public *statement hash* over (piece index, start digest, end
digest, per-transaction outputs, AllCommit), which is what the proof
certifies and the client recomputes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..crypto.poe import PoEBatchProof
from ..crypto.rsa_group import RSAGroup
from ..db.executor import ScheduleUnit
from ..db.txn import Transaction
from ..errors import IntegrityError, TransactionError
from ..serialization import encode
from ..vc.circuit import Circuit, CircuitBuilder, ForeignGadget
from ..vc.compiler import CircuitCompiler
from .memory_integrity import (
    MemoryIntegrityChecker,
    ReadCertificate,
    WriteCertificate,
)

__all__ = [
    "WrappedUnit",
    "WrappedPiece",
    "ReplayOutcome",
    "build_wrapped_circuit",
    "replay_piece",
    "statement_hash",
    "piece_constraints",
]

# Context keys threaded into the circuit's foreign gadgets.
CTX_OUTCOME = "wrapped_outcome"


@dataclass(frozen=True)
class WrappedUnit:
    """One schedule unit plus the certificates authenticating it."""

    unit: ScheduleUnit
    read_certificate: ReadCertificate | None
    write_certificate: WriteCertificate | None


@dataclass(frozen=True)
class WrappedPiece:
    """A contiguous chunk of units proven by one prover thread (Fig 2).

    *poe_batch*, when set, is one aggregated Wesolowski proof covering every
    bare read-lookup in the piece; replay then defers those exponentiations
    to a single batched check.  It never enters the circuit label or the
    statement hash — it is verification-acceleration data, not structure.
    """

    piece_index: int
    units: tuple[WrappedUnit, ...]
    start_digest: int
    poe_batch: PoEBatchProof | None = None

    def txn_ids(self) -> tuple[int, ...]:
        out: list[int] = []
        for wrapped in self.units:
            out.extend(wrapped.unit.txn_ids)
        return tuple(out)


@dataclass(frozen=True)
class ReplayOutcome:
    """The result of honestly replaying a piece."""

    all_commit: bool
    end_digest: int
    outputs: tuple[tuple[int, tuple[int, ...]], ...]  # (txn_id, outputs)


def statement_hash(
    piece_index: int,
    start_digest: int,
    end_digest: int,
    all_commit: bool,
    outputs: Sequence[tuple[int, tuple[int, ...]]],
) -> tuple[int, int]:
    """The 2x128-bit public statement the piece's proof certifies."""
    digest = hashlib.sha256(
        b"litmus-wrapped-statement"
        + encode(
            (
                piece_index,
                start_digest,
                end_digest,
                all_commit,
                tuple((txn_id, tuple(values)) for txn_id, values in outputs),
            )
        )
    ).digest()
    return (
        int.from_bytes(digest[:16], "big"),
        int.from_bytes(digest[16:], "big"),
    )


def replay_piece(
    piece: WrappedPiece,
    txns_by_id: Mapping[int, Transaction],
    compiler: CircuitCompiler,
    group: RSAGroup,
    prime_bits: int,
    invariants: Sequence = (),
) -> ReplayOutcome:
    """Algorithm 3's WrappedTransaction function, executed honestly.

    Verifies every certificate against the running digest, re-executes every
    transaction from its authenticated read values through its compiled
    circuit (all R1CS constraints checked), requires the unit's claimed
    writes to be exactly what its transactions wrote, and chains the digest
    forward.
    """
    checker = MemoryIntegrityChecker(group, piece.start_digest, prime_bits=prime_bits)
    defer_poe = piece.poe_batch is not None
    all_commit = True
    outputs: list[tuple[int, tuple[int, ...]]] = []
    for wrapped in piece.units:
        unit = wrapped.unit
        unit_reads = dict(unit.reads)
        if unit_reads:
            if wrapped.read_certificate is None:
                all_commit = False
                break
            if not checker.mem_check(wrapped.read_certificate, defer_poe=defer_poe):
                all_commit = False
                break
            certified = wrapped.read_certificate.values()
            if certified != unit_reads:
                all_commit = False
                break
        written: dict[tuple, int] = {}
        for txn_id in unit.txn_ids:
            txn = txns_by_id.get(txn_id)
            if txn is None:
                raise TransactionError(f"unknown transaction id {txn_id}")
            binding, writes = _run_transaction(txn, unit_reads, compiler)
            outputs.append((txn_id, binding))
            written.update(writes)
        # The write certificate only proves the digest moved to *some* values;
        # they must be the ones the unit's programs computed (last writer wins).
        if written != dict(unit.writes):
            all_commit = False
            break
        if unit.writes:
            if wrapped.write_certificate is None:
                all_commit = False
                break
            cert = wrapped.write_certificate
            if dict(cert.new_pairs) != dict(unit.writes):
                all_commit = False
                break
            if not checker.mem_update(cert):
                all_commit = False
                break
            # Section 9: consistency = specialized checkers over the same
            # authenticated transition.
            if invariants and not all(inv.check_unit(cert) for inv in invariants):
                all_commit = False
                break
    if all_commit and defer_poe:
        # Settle every deferred lookup with the single batched Wesolowski
        # check.  (If replay already failed there is nothing to settle — the
        # piece is rejected regardless.)
        all_commit = checker.verify_deferred_poe(piece.poe_batch)
    return ReplayOutcome(
        all_commit=all_commit,
        end_digest=checker.acc,
        outputs=tuple(outputs),
    )


def _run_transaction(
    txn: Transaction,
    unit_reads: Mapping[tuple, int],
    compiler: CircuitCompiler,
) -> tuple[tuple[int, ...], tuple[tuple[tuple, int], ...]]:
    """Execute one transaction through its compiled circuit template.

    Read values come from the unit's authenticated snapshot; buffered
    (read-your-write) reads are reconstructed by the interpreter semantics.
    Returns the bound outputs and the ``(key, value)`` writes in statement
    order.
    """
    template = compiler.compile_program(txn.program)
    # Derive per-read-statement values: store reads come from the unit's
    # certified snapshot; read-your-writes are recomputed by interpretation.
    result = txn.program.execute(
        txn.params,
        lambda key: _certified_read(key, unit_reads),
    )
    read_values = {name: value for name, _key, value in result.reads}
    binding = compiler.bind(template, txn.params, read_values)
    return binding.outputs, result.writes


def _certified_read(key: tuple, unit_reads: Mapping[tuple, int]) -> int:
    if key not in unit_reads:
        raise IntegrityError(f"read of {key!r} lacks an authenticated value")
    return unit_reads[key]


def piece_constraints(
    piece: WrappedPiece,
    txns_by_id: Mapping[int, Transaction],
    compiler: CircuitCompiler,
    memcheck_constraints: int,
    aggregated: bool,
) -> int:
    """Total gate count of the piece's circuit (the cost-model input).

    Under aggregation (DR) each unit contributes ONE MemCheck and ONE
    MemUpdate gadget regardless of batch size; without aggregation (2PL)
    every memory access carries its own gadget — the orders-of-magnitude gap
    of Section 7.1(a).
    """
    total = 0
    for wrapped in piece.units:
        unit = wrapped.unit
        for txn_id in unit.txn_ids:
            template = compiler.compile_program(txns_by_id[txn_id].program)
            total += template.total_constraints
        if aggregated:
            gadgets = (1 if unit.reads else 0) + (1 if unit.writes else 0)
        else:
            gadgets = len(unit.reads) + len(unit.writes)
        total += gadgets * memcheck_constraints
    return total


def build_wrapped_circuit(
    piece: WrappedPiece,
    txns_by_id: Mapping[int, Transaction],
    compiler: CircuitCompiler,
    group: RSAGroup,
    prime_bits: int,
    memcheck_constraints: int,
    aggregated: bool,
    invariants: Sequence = (),
) -> Circuit:
    """Construct the piece's circuit.

    The structure (label, gadget layout, constraint counts) is a pure
    function of the transaction templates and the unit composition — both
    the client and the server can build it independently, and the
    structural hash doubles as the circuit matcher's fingerprint.

    The single "replay" gadget evaluates Algorithm 3 for real (certificates
    come from the proving context) and asserts that the resulting statement
    hash equals the circuit's public inputs.

    The label deliberately excludes the piece index: pieces with the same
    template/unit composition share one structure, so trusted setup can be
    run once per structure and its key pair reused
    (:class:`repro.vc.snark.SetupCache`).  The piece index remains bound to
    every proof through the public statement hash, so sharing a key never
    lets one piece's proof stand in for another's.
    """
    label_parts = ["wrapped-piece"]
    if invariants:
        names = ",".join(sorted(inv.name for inv in invariants))
        label_parts.append(f"{{inv:{names}}}")
    for wrapped in piece.units:
        unit = wrapped.unit
        names = ",".join(
            txns_by_id[txn_id].program.name for txn_id in unit.txn_ids
        )
        label_parts.append(f"[{names}|r{len(unit.reads)}w{len(unit.writes)}]")
    builder = CircuitBuilder(label="".join(label_parts))
    statement_lo = builder.input("statement_lo")
    statement_hi = builder.input("statement_hi")
    del statement_lo, statement_hi

    gate_count = piece_constraints(
        piece, txns_by_id, compiler, memcheck_constraints, aggregated
    )

    def replay_evaluator(context: dict) -> bool:
        outcome = context.get(CTX_OUTCOME)
        if not isinstance(outcome, ReplayOutcome):
            return False
        expected = statement_hash(
            piece.piece_index,
            piece.start_digest,
            outcome.end_digest,
            outcome.all_commit,
            outcome.outputs,
        )
        return tuple(context.get("claimed_statement", ())) == expected

    builder.add_gadget(
        ForeignGadget(
            name=f"replay:{len(piece.units)}units:{gate_count}gates",
            constraint_count=gate_count,
            evaluator=replay_evaluator,
        )
    )
    return builder.build()
