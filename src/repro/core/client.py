"""The Litmus client (Section 6.2).

The client is lightweight: it stores a constant-sized digest, compiles its
own transactions into circuit templates, and — because the CC algorithm is
deterministic and write sets depend only on parameters — reconstructs the
wrapped-transaction circuit *structure* locally from the server-reported
batch composition.  Verification of one server response then consists of:

1. **batch validation** — the reported units partition the submitted
   transactions, and (under deterministic reservation) each unit is
   non-conflicting, checked with the paper's hash-table method;
2. **circuit matching** — the locally rebuilt circuit's structural hash
   must equal both the server-claimed signature and the verification key's
   circuit hash;
3. **proof verification** — each piece's proof is checked against the
   recomputed public statement (piece index, digest endpoints, outputs,
   AllCommit);
4. **digest-chain continuity** — piece i's end digest is piece i+1's start
   digest, the chain starts at the client's stored digest, and ends at the
   server-claimed new digest.

Only if everything passes does the client accept the outputs and roll its
digest forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..crypto.rsa_group import RSAGroup
from ..db.executor import ScheduleUnit
from ..db.txn import Transaction
from ..errors import VerificationFailure
from ..obs.metrics import get_metrics
from ..obs.spans import Tracer, get_tracer
from ..vc.compiler import CircuitCompiler
from ..vc.program import ReadStmt, WriteStmt
from ..vc.snark import Groth16Simulator
from ..vc.spotcheck import SpotCheckBackend
from .config import LitmusConfig
from .protocol import PieceResult, ServerResponse
from .wrapper import WrappedPiece, WrappedUnit, build_wrapped_circuit, statement_hash

__all__ = ["LitmusClient", "ClientVerdict", "derive_unit_shape"]


@dataclass(frozen=True)
class ClientVerdict:
    """The outcome of verifying one server response."""

    accepted: bool
    reason: str = ""
    outputs: Mapping[int, tuple[int, ...]] | None = None
    new_digest: int | None = None


def store_read_keys(txn: Transaction) -> list[tuple]:
    """Distinct keys the transaction reads *from the store*.

    A read that follows the transaction's own write to the same key is
    served from the write buffer and touches no memory — statically
    derivable because keys are parameter-only.
    """
    written: set[tuple] = set()
    seen: set[tuple] = set()
    out: list[tuple] = []
    for stmt in txn.program.statements:
        if isinstance(stmt, WriteStmt):
            written.add(stmt.key.resolve(txn.params))
        elif isinstance(stmt, ReadStmt):
            key = stmt.key.resolve(txn.params)
            if key not in written and key not in seen:
                seen.add(key)
                out.append(key)
    return out


def write_keys(txn: Transaction) -> list[tuple]:
    seen: set[tuple] = set()
    out: list[tuple] = []
    for stmt in txn.program.statements:
        if isinstance(stmt, WriteStmt):
            key = stmt.key.resolve(txn.params)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def derive_unit_shape(txns: Sequence[Transaction]) -> ScheduleUnit:
    """The read/write key sets of a unit, derived from parameters alone.

    Values are placeholders (0): the circuit structure depends only on the
    key sets, never on data.
    """
    reads: dict[tuple, int] = {}
    writes: dict[tuple, int] = {}
    for txn in txns:
        for key in store_read_keys(txn):
            reads.setdefault(key, 0)
        for key in write_keys(txn):
            writes.setdefault(key, 0)
    return ScheduleUnit(
        txn_ids=tuple(t.txn_id for t in txns),
        reads=tuple(reads.items()),
        writes=tuple(writes.items()),
    )


class LitmusClient:
    """Digest keeper, circuit matcher, and proof verifier."""

    def __init__(
        self,
        group: RSAGroup,
        initial_digest: int,
        config: LitmusConfig | None = None,
        invariants: tuple = (),
        tracer: Tracer | None = None,
    ):
        self.group = group
        self.config = config or LitmusConfig()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.digest = initial_digest
        self.compiler = CircuitCompiler()
        self.invariants = tuple(invariants)
        if self.config.backend == "groth16":
            self._backend = Groth16Simulator()
        else:
            self._backend = SpotCheckBackend()

    # -- verification ------------------------------------------------------------

    def verify_response(
        self, txns: Sequence[Transaction], response: ServerResponse
    ) -> ClientVerdict:
        """Run the full acceptance pipeline; never raises on a bad server."""
        metrics = get_metrics()
        with self.tracer.span("verify", num_pieces=len(response.pieces)) as span:
            try:
                self._check_coverage(txns, response)
                txns_by_id = {txn.txn_id: txn for txn in txns}
                expected_digest = self.digest
                if response.initial_digest != expected_digest:
                    raise VerificationFailure(
                        "server disagrees about the starting digest"
                    )
                for piece in response.pieces:
                    with self.tracer.span("verify_piece", piece=piece.piece_index):
                        self._verify_piece(piece, txns_by_id, expected_digest)
                    expected_digest = piece.end_digest
                if response.final_digest != expected_digest:
                    raise VerificationFailure("final digest does not close the chain")
                if any(not piece.all_commit for piece in response.pieces):
                    raise VerificationFailure(
                        "a memory-integrity check failed server-side"
                    )
            except VerificationFailure as failure:
                span.set(accepted=False, reason=str(failure))
                metrics.counter("client.batches_rejected").inc()
                return ClientVerdict(accepted=False, reason=str(failure))
            except Exception as exc:
                # A response malformed enough to crash the checks (foreign
                # txn ids in unit compositions, garbage proof objects, ...)
                # is an attack in this threat model, not a client bug — the
                # docstring's "never raises on a bad server" must hold for
                # arbitrary byte-level tampering, not just protocol-shaped
                # deviations.
                reason = (
                    f"malformed server response ({exc.__class__.__name__}: {exc})"
                )
                span.set(accepted=False, reason=reason)
                metrics.counter("client.batches_rejected").inc()
                return ClientVerdict(accepted=False, reason=reason)
            span.set(accepted=True)
        metrics.counter("client.batches_accepted").inc()
        self.digest = response.final_digest
        return ClientVerdict(
            accepted=True,
            outputs=response.all_outputs(),
            new_digest=self.digest,
        )

    # -- steps ---------------------------------------------------------------------

    def _check_coverage(
        self, txns: Sequence[Transaction], response: ServerResponse
    ) -> None:
        submitted = {txn.txn_id for txn in txns}
        covered: list[int] = []
        for piece in response.pieces:
            covered.extend(piece.txn_ids)
        if sorted(covered) != sorted(submitted):
            raise VerificationFailure(
                "reported pieces do not cover the submitted transactions exactly"
            )

    def _verify_piece(
        self,
        piece: PieceResult,
        txns_by_id: Mapping[int, Transaction],
        expected_start: int,
    ) -> None:
        if piece.start_digest != expected_start:
            raise VerificationFailure(
                f"piece {piece.piece_index}: digest chain broken"
            )
        units = []
        for unit_ids in piece.unit_txn_ids:
            unit_txns = [txns_by_id[i] for i in unit_ids]
            if self.config.aggregation_enabled and len(unit_txns) > 1:
                self._check_non_conflicting(unit_txns)
            units.append(
                WrappedUnit(
                    unit=derive_unit_shape(unit_txns),
                    read_certificate=None,
                    write_certificate=None,
                )
            )
        local_piece = WrappedPiece(
            piece_index=piece.piece_index,
            units=tuple(units),
            start_digest=piece.start_digest,
        )
        local_circuit = build_wrapped_circuit(
            local_piece,
            txns_by_id,
            self.compiler,
            self.group,
            self.config.prime_bits,
            self.config.memcheck_constraints,
            aggregated=self.config.aggregation_enabled,
            invariants=self.invariants,
        )
        # Circuit matching (Section 6.1.3): the server's claimed circuit and
        # its verification key must both match the locally built structure.
        local_hash = local_circuit.structural_hash()
        if piece.circuit_signature != local_hash:
            raise VerificationFailure(
                f"piece {piece.piece_index}: circuit does not match local compilation"
            )
        vk = piece.verification_key
        if getattr(vk, "circuit_hash", None) != local_hash:
            raise VerificationFailure(
                f"piece {piece.piece_index}: verification key for a foreign circuit"
            )
        # Recompute the public statement from server-reported values.
        expected_statement = statement_hash(
            piece.piece_index,
            piece.start_digest,
            piece.end_digest,
            piece.all_commit,
            piece.outputs,
        )
        if tuple(piece.public_values[-2:]) != expected_statement and tuple(
            piece.public_values[1:3]
        ) != expected_statement:
            raise VerificationFailure(
                f"piece {piece.piece_index}: public statement mismatch"
            )
        if isinstance(self._backend, SpotCheckBackend):
            ok = self._backend.verify(
                vk, list(piece.public_values), piece.proof, circuit=local_circuit
            )
        else:
            ok = self._backend.verify(vk, list(piece.public_values), piece.proof)
        if not ok:
            raise VerificationFailure(f"piece {piece.piece_index}: proof rejected")

    def _check_non_conflicting(self, unit_txns: Sequence[Transaction]) -> None:
        """The paper's hash-table check on a claimed batch.

        Valid batches have a unique writer per key, and any other reader of
        a written key must have *higher* priority (smaller id) than the
        writer — reader-before-writer edges then strictly increase in
        priority, so the batch serializes (see detreserve's commit rule).
        """
        writers: dict[tuple, int] = {}
        readers: dict[tuple, set[int]] = {}
        for txn in unit_txns:
            for key in write_keys(txn):
                if key in writers and writers[key] != txn.txn_id:
                    raise VerificationFailure(
                        f"write-write conflict inside a claimed batch on {key!r}"
                    )
                writers[key] = txn.txn_id
            for key in store_read_keys(txn):
                readers.setdefault(key, set()).add(txn.txn_id)
        for key, writer in writers.items():
            for reader in readers.get(key, set()) - {writer}:
                if reader > writer:
                    raise VerificationFailure(
                        f"unserializable read-write overlap in a claimed batch "
                        f"on {key!r}"
                    )

