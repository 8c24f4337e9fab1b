"""Wire-level message types between the Litmus server and client."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "PieceResult",
    "ServerResponse",
    "TimingReport",
    "measured_fields_from_spans",
]


def measured_fields_from_spans(
    spans: Iterable,
    dispatch_start: float | None = None,
) -> dict[str, float]:
    """Derive the ``measured_*`` columns of a :class:`TimingReport` from the
    span subtree of one verification batch.

    This is the bridge between :mod:`repro.obs` and the wire format: each
    measured field is a thin view over the spans the pipeline emitted —

    ========================  =======================================
    field                     source spans
    ========================  =======================================
    measured_db_seconds       ``execute`` (duration)
    measured_certify_seconds  ``certify_unit`` (sum)
    measured_circuit_seconds  ``build_circuit`` (sum)
    measured_replay_seconds   ``replay`` (sum)
    measured_setup_seconds    ``setup`` (sum)
    measured_prove_seconds    ``prove`` (sum)
    measured_prove_wall_...   last ``prove_piece`` end - *dispatch_start*
    measured_total_seconds    ``batch`` (duration)
    ========================  =======================================

    *spans* is an iterable of :class:`repro.obs.SpanRecord`; the function
    only relies on ``name``/``duration``/``end``, so any record-shaped
    object works (no import of :mod:`repro.obs` needed here).
    """
    sums: dict[str, float] = {}
    last_piece_end: float | None = None
    for record in spans:
        sums[record.name] = sums.get(record.name, 0.0) + record.duration
        if record.name == "prove_piece":
            last_piece_end = (
                record.end
                if last_piece_end is None
                else max(last_piece_end, record.end)
            )
    prove_wall = 0.0
    if last_piece_end is not None and dispatch_start is not None:
        prove_wall = last_piece_end - dispatch_start
    return dict(
        measured_db_seconds=sums.get("execute", 0.0),
        measured_certify_seconds=sums.get("certify_unit", 0.0),
        measured_circuit_seconds=sums.get("build_circuit", 0.0),
        measured_replay_seconds=sums.get("replay", 0.0),
        measured_setup_seconds=sums.get("setup", 0.0),
        measured_prove_seconds=sums.get("prove", 0.0),
        measured_prove_wall_seconds=prove_wall,
        measured_total_seconds=sums.get("batch", 0.0),
    )


@dataclass(frozen=True)
class TimingReport:
    """Measured wall-clock of one verification batch.

    Every ``measured_*`` field is real elapsed seconds observed while this
    batch executed, derived from the batch's own span subtree (see
    :func:`measured_fields_from_spans`), so it agrees with any exported
    trace by construction.  Per-stage fields are sums over pieces/units;
    the ``*_wall`` fields are elapsed time, so with a concurrent prover pool
    ``measured_prove_wall_seconds`` below the per-piece sums demonstrates
    real overlap.  Paper-scale modeled timings are not reported here: they
    come from :mod:`repro.bench.model`.
    """

    num_txns: int = 0
    total_constraints: int = 0
    num_pieces: int = 0
    measured_db_seconds: float = 0.0
    measured_certify_seconds: float = 0.0
    measured_circuit_seconds: float = 0.0
    measured_replay_seconds: float = 0.0
    measured_setup_seconds: float = 0.0
    measured_prove_seconds: float = 0.0
    measured_prove_wall_seconds: float = 0.0
    measured_total_seconds: float = 0.0

    @property
    def measured_prover_work_seconds(self) -> float:
        """Total prover-stage CPU: what a one-thread run must pay serially."""
        return (
            self.measured_replay_seconds
            + self.measured_setup_seconds
            + self.measured_prove_seconds
        )

    @property
    def measured_pipeline_speedup(self) -> float:
        """How much the concurrent pool compressed the prover stage.

        Ratio of summed per-piece prover work to the observed wall-clock of
        the prove stage; 1.0 means fully serial, ``num_provers`` is the
        ideal.
        """
        if self.measured_prove_wall_seconds <= 0:
            return 1.0
        return self.measured_prover_work_seconds / self.measured_prove_wall_seconds

    @property
    def measured_throughput(self) -> float:
        """Real transactions per wall-clock second for this batch."""
        if self.measured_total_seconds <= 0:
            return 0.0
        return self.num_txns / self.measured_total_seconds

    def measured_breakdown(self) -> dict[str, float]:
        """Measured wall-clock per stage (absolute seconds, not shares)."""
        return {
            "db": self.measured_db_seconds,
            "certify": self.measured_certify_seconds,
            "circuit_build": self.measured_circuit_seconds,
            "replay": self.measured_replay_seconds,
            "setup": self.measured_setup_seconds,
            "prove": self.measured_prove_seconds,
            "prove_wall": self.measured_prove_wall_seconds,
            "total_wall": self.measured_total_seconds,
        }


@dataclass(frozen=True)
class PieceResult:
    """One pipelined circuit piece: proof + the statement it certifies."""

    piece_index: int
    txn_ids: tuple[int, ...]
    unit_txn_ids: tuple[tuple[int, ...], ...]  # batch composition per unit
    start_digest: int
    end_digest: int
    all_commit: bool
    outputs: tuple[tuple[int, tuple[int, ...]], ...]  # (txn_id, outputs)
    public_values: tuple[int, ...]
    proof: object  # Proof or SpotCheckProof
    verification_key: object  # VerificationKey (client cross-checks circuit hash)
    circuit_signature: bytes
    constraints: int


@dataclass(frozen=True)
class ServerResponse:
    """Everything returned for one verification batch (MSG_WRTXN + proofs)."""

    pieces: tuple[PieceResult, ...]
    initial_digest: int
    final_digest: int
    timing: TimingReport
    stats: object = None  # ExecutionStats from the CC layer

    def all_outputs(self) -> dict[int, tuple[int, ...]]:
        """Per-transaction emitted outputs across every piece.

        Stable, documented return shape: ``{txn_id: (value, ...)}``.  On an
        honest, accepted response every transaction in the batch has an
        entry — a program that emits nothing maps to an empty tuple.  Only a
        piece whose replay failed mid-way (a detected attack; the client
        rejects such a response) can leave ids out, so consumers of
        *accepted* batches may treat the key set as total.
        """
        outputs: dict[int, tuple[int, ...]] = {}
        for piece in self.pieces:
            for txn_id, values in piece.outputs:
                outputs[txn_id] = values
        return outputs
