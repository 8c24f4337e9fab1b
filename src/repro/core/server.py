"""The Litmus server (Algorithm 4) with a real prover pipeline (Section 7.2).

Per verification batch the server:

1. runs the normal DBMS (2PL or deterministic reservation), collecting
   runtime traces and the schedule of units;
2. feeds the schedule through the memory-integrity provider *in serial
   order* — certificates chain off the digest, so this stage cannot be
   parallelized — minting aggregated read/write certificates;
3. groups units into circuit pieces (``batches_per_piece`` per Fig 2) as
   they are certified; each completed piece's circuit is built on the
   dispatcher thread and its prover job (honest replay → witness → trusted
   setup → prove) is handed to a pool of ``config.num_provers`` worker
   threads, so earlier pieces prove **concurrently** while later pieces are
   still being certified;
4. collects piece results in piece order (the response is identical to a
   serial run — only wall-clock changes), and reports the wall-clock it
   measured per stage.

Everything cryptographic is real, and every timing the server reports is
elapsed seconds read off the batch's span tree.  Paper-scale modeled
numbers come from :mod:`repro.bench.model`, never from a live batch.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Mapping, Sequence

from ..db.database import Database
from ..db.txn import Transaction
from ..crypto.rsa_group import RSAGroup
from ..errors import ProofCorruptionDetected, ProverKilled, ReproError
from ..obs.metrics import get_metrics
from ..obs.spans import Span, Tracer, get_tracer
from ..vc.circuit import Circuit
from ..vc.compiler import CircuitCompiler
from ..vc.snark import Groth16Simulator, SetupCache
from ..vc.spotcheck import SpotCheckBackend
from .config import LitmusConfig
from .memory_integrity import POE_MODE_BATCH, MemoryIntegrityProvider
from .protocol import (
    PieceResult,
    ServerResponse,
    TimingReport,
    measured_fields_from_spans,
)
from .wrapper import (
    CTX_OUTCOME,
    ReplayOutcome,
    WrappedPiece,
    WrappedUnit,
    build_wrapped_circuit,
    replay_piece,
    statement_hash,
)

__all__ = ["LitmusServer"]


def _make_backend(name: str):
    if name == "groth16":
        return Groth16Simulator()
    if name == "spotcheck":
        return SpotCheckBackend()
    raise ReproError(f"unknown backend {name!r}")


@dataclass(frozen=True)
class _PieceProof:
    """Everything one prover worker produces for one circuit piece.

    Per-stage timing no longer lives here — the worker opens ``prove_piece``
    / ``replay`` / ``setup`` / ``prove`` spans on the tracer and the server
    derives every measured number from that span tree.
    """

    circuit: Circuit
    outcome: ReplayOutcome
    verification_key: object
    proof: object
    public_values: tuple[int, ...]
    constraints: int


class LitmusServer:
    """Hosts the normal DBMS plus the verifiable machinery."""

    def __init__(
        self,
        initial: Mapping[tuple, int] | None = None,
        config: LitmusConfig | None = None,
        group: RSAGroup | None = None,
        invariants: tuple = (),
        tracer: Tracer | None = None,
        fault_plan=None,
        shard: int | None = None,
    ):
        self.config = config or LitmusConfig()
        # Optional repro.faults.FaultPlan consulted at the certify and prove
        # stages; None (the default) means an honest, reliable server.
        self.fault_plan = fault_plan
        # Which shard of a sharded deployment this engine serves (None for
        # a standalone server); stamped on every batch span so traces from
        # parallel shard flushes stay attributable.
        self.shard = shard
        # All pipeline spans go here; defaults to the process-local tracer
        # so CLI/benchmark exporters see every server in the process.
        self.tracer = tracer if tracer is not None else get_tracer()
        self.group = group or RSAGroup.generate(bits=512, seed=b"litmus-server")
        self.db = Database(
            initial=initial,
            cc=self.config.cc,
            processing_batch_size=self.config.processing_batch_size,
            num_threads=self.config.num_db_threads,
        )
        self.provider = MemoryIntegrityProvider(
            self.group,
            initial=initial,
            prime_bits=self.config.prime_bits,
            use_poe=self.config.poe_mode,
        )
        self.compiler = CircuitCompiler()
        self.backend = _make_backend(self.config.backend)
        # One trusted setup per circuit structure, reused across pieces (and
        # batches) when enabled; the cache survives the server's lifetime.
        self._setup = (
            SetupCache(self.backend) if self.config.reuse_proving_keys else self.backend
        )
        self.invariants = tuple(invariants)
        # Exposed so the client can fetch circuits for spot-check verification.
        self.last_circuits: dict[int, object] = {}
        # Pre-batch state snapshot (store contents + provider AD state),
        # captured at the top of every execute_batch so a rejected or
        # crashed batch can be rolled back (see rollback()).
        self._pre_batch: tuple[dict, tuple] | None = None

    @property
    def digest(self) -> int:
        """The server's view of the current database digest."""
        return self.provider.digest

    @property
    def setup_cache_hits(self) -> int:
        return getattr(self._setup, "hits", 0)

    # -- the main entry point (MSG_TXN handler) ---------------------------------

    def execute_batch(self, txns: Sequence[Transaction]) -> ServerResponse:
        if not txns:
            raise ReproError("empty verification batch")
        txns_by_id = {txn.txn_id: txn for txn in txns}
        if len(txns_by_id) != len(txns):
            raise ReproError("duplicate transaction ids in the batch")

        # Snapshot *before* any mutation: the store and the provider's AD
        # state both move during a batch, and until the client has verified
        # the response nothing is trusted.  A mid-batch failure rolls back
        # here immediately; a client rejection rolls back via rollback().
        snapshot = (self.db.snapshot(), self.provider.state())
        self._pre_batch = snapshot
        try:
            return self._run_batch(txns, txns_by_id)
        except Exception as exc:
            self._restore(snapshot)
            self._pre_batch = None
            get_metrics().counter("server.rollbacks").inc()
            if isinstance(exc, ProverKilled):
                raise ProofCorruptionDetected(
                    f"prover pipeline failed mid-batch: {exc}"
                ) from exc
            raise

    def rollback(self) -> bool:
        """Rewind to the snapshot taken before the last ``execute_batch``.

        The rejected-batch recovery path: when the client refuses a
        response, the optimistically applied writes and the advanced
        provider digest must both be undone, otherwise every later batch
        starts from a digest the client never accepted and fails
        verification forever.  Returns True if state was restored; False
        when there is nothing to roll back (no batch ran, or the last
        batch already rolled itself back).
        """
        if self._pre_batch is None:
            return False
        with self.tracer.span("rollback"):
            self._restore(self._pre_batch)
        self._pre_batch = None
        get_metrics().counter("server.rollbacks").inc()
        return True

    def _restore(self, snapshot: tuple[dict, tuple]) -> None:
        store_contents, provider_state = snapshot
        self.db.restore(store_contents)
        self.provider.restore(provider_state)
        self.last_circuits.clear()

    def _run_batch(
        self, txns: Sequence[Transaction], txns_by_id: Mapping[int, Transaction]
    ) -> ServerResponse:
        tracer = self.tracer
        metrics = get_metrics()
        initial_digest = self.provider.digest
        dispatch_start: float | None = None
        piece_results: list[PieceResult] = []
        total_constraints = 0

        span_attrs = {"num_txns": len(txns), "cc": self.config.cc}
        if self.shard is not None:
            span_attrs["shard"] = self.shard
        with tracer.span("batch", **span_attrs) as batch_span:
            batch_records = tracer.collect(batch_span)
            with tracer.span("execute", cc=self.config.cc):
                report = self.db.run(txns)
            size = self.config.batches_per_piece

            # -- the pipeline: serial certification feeding concurrent provers --
            pieces: list[WrappedPiece] = []
            futures: list[Future] = []
            start_digest = initial_digest
            buffer: list[WrappedUnit] = []

            with ThreadPoolExecutor(
                max_workers=self.config.num_provers, thread_name_prefix="litmus-prover"
            ) as pool:

                def flush_piece() -> None:
                    nonlocal start_digest, dispatch_start
                    chunk = tuple(buffer)
                    buffer.clear()
                    poe_batch = None
                    if self.provider.use_poe == POE_MODE_BATCH:
                        # One aggregated Wesolowski proof for every bare read
                        # lookup in the piece; replay settles them all with a
                        # single batched check instead of one PoE per unit.
                        poe_batch = self.provider.certify_piece_poe(
                            wrapped.read_certificate for wrapped in chunk
                        )
                    piece = WrappedPiece(
                        piece_index=len(pieces),
                        units=chunk,
                        start_digest=start_digest,
                        poe_batch=poe_batch,
                    )
                    pieces.append(piece)
                    start_digest = _chunk_end_digest(chunk, start_digest)
                    with tracer.span(
                        "build_circuit", piece=piece.piece_index
                    ) as build_span:
                        circuit = build_wrapped_circuit(
                            piece,
                            txns_by_id,
                            self.compiler,
                            self.group,
                            self.config.prime_bits,
                            self.config.memcheck_constraints,
                            aggregated=self.config.aggregation_enabled,
                            invariants=self.invariants,
                        )
                        build_span.set(constraints=circuit.total_constraints)
                    if dispatch_start is None:
                        dispatch_start = perf_counter()
                    futures.append(
                        pool.submit(
                            self._prove_piece, piece, circuit, txns_by_id, batch_span
                        )
                    )

                # The schedule names every key the batch touches, so the
                # provider can derive all of its witnesses from one base.
                with self.provider.shared_base(report.schedule):
                    for unit_index, unit in enumerate(report.schedule):
                        if self.fault_plan is not None:
                            unit = self.fault_plan.on_unit(unit_index, unit)
                        with tracer.span("certify_unit", unit=unit_index):
                            read_cert, write_cert = self.provider.certify_unit(
                                dict(unit.reads) if unit.reads else None,
                                dict(unit.writes) if unit.writes else None,
                            )
                        if self.fault_plan is not None:
                            read_cert, write_cert = self.fault_plan.on_certificates(
                                unit_index, read_cert, write_cert
                            )
                        buffer.append(
                            WrappedUnit(
                                unit=unit,
                                read_certificate=read_cert,
                                write_certificate=write_cert,
                            )
                        )
                        if len(buffer) == size:
                            flush_piece()
                    if buffer:
                        flush_piece()

                # Collect in piece order; worker exceptions re-raise here.
                results: list[_PieceProof] = [future.result() for future in futures]

            # -- assemble the response (identical to a serial run) ---------------
            with tracer.span("respond", pieces=len(pieces)):
                self.last_circuits.clear()
                for piece, result in zip(pieces, results):
                    total_constraints += result.constraints
                    piece_results.append(
                        PieceResult(
                            piece_index=piece.piece_index,
                            txn_ids=piece.txn_ids(),
                            unit_txn_ids=tuple(w.unit.txn_ids for w in piece.units),
                            start_digest=piece.start_digest,
                            end_digest=result.outcome.end_digest,
                            all_commit=result.outcome.all_commit,
                            outputs=result.outcome.outputs,
                            public_values=result.public_values,
                            proof=result.proof,
                            verification_key=result.verification_key,
                            circuit_signature=result.circuit.structural_hash(),
                            constraints=result.constraints,
                        )
                    )
                    self.last_circuits[piece.piece_index] = (
                        result.circuit,
                        result.verification_key,
                    )
            batch_span.set(pieces=len(pieces), constraints=total_constraints)

        metrics.counter("server.batches").inc()
        metrics.counter("server.pieces").inc(len(pieces))

        # Every measured_* column of the report is a view over the subtree
        # this batch just produced (see DESIGN.md "Observability"), collected
        # whole however few spans the tracer's buffer keeps.
        timing = TimingReport(
            num_txns=len(txns),
            total_constraints=total_constraints,
            num_pieces=len(pieces),
            **measured_fields_from_spans(batch_records, dispatch_start=dispatch_start),
        )
        return ServerResponse(
            pieces=tuple(piece_results),
            initial_digest=initial_digest,
            final_digest=self.provider.digest,
            timing=timing,
            stats=report.stats,
        )

    # -- the prover worker (runs on the pool) -----------------------------------

    def _prove_piece(
        self,
        piece: WrappedPiece,
        circuit: Circuit,
        txns_by_id: Mapping[int, Transaction],
        batch_span: Span | None = None,
    ) -> _PieceProof:
        """One piece's prover job: replay honestly, set up, prove.

        Runs concurrently with certification of later pieces and with other
        pieces' jobs.  Everything here is a pure function of the piece (its
        certificates carry their own digest chain segment), so execution
        order across workers cannot change any output.

        The worker thread has no span stack of its own, so the dispatching
        batch span is passed explicitly and the ``prove_piece`` span (plus
        its ``replay``/``setup``/``prove`` children) lands in the same tree
        the dispatcher is building.
        """
        tracer = self.tracer
        if self.fault_plan is not None:
            # May raise ProverKilled: the worker dies, the dispatcher sees
            # the exception at collection time, and execute_batch rolls the
            # whole batch back.
            self.fault_plan.on_prove(piece.piece_index)
        with tracer.span(
            "prove_piece", parent=batch_span, piece=piece.piece_index
        ) as piece_span:
            with tracer.span("replay", piece=piece.piece_index):
                outcome = replay_piece(
                    piece,
                    txns_by_id,
                    self.compiler,
                    self.group,
                    self.config.prime_bits,
                    invariants=self.invariants,
                )
            claimed = statement_hash(
                piece.piece_index,
                piece.start_digest,
                outcome.end_digest,
                outcome.all_commit,
                outcome.outputs,
            )
            with tracer.span("setup", piece=piece.piece_index):
                proving_key, verification_key = self._setup.setup(circuit)
            context = {CTX_OUTCOME: outcome, "claimed_statement": claimed}
            with tracer.span("prove", piece=piece.piece_index):
                proof, public_values = self.backend.prove(
                    proving_key,
                    circuit,
                    {"statement_lo": claimed[0], "statement_hi": claimed[1]},
                    context,
                )
            piece_span.set(constraints=circuit.total_constraints)
        return _PieceProof(
            circuit=circuit,
            outcome=outcome,
            verification_key=verification_key,
            proof=proof,
            public_values=tuple(public_values),
            constraints=circuit.total_constraints,
        )


def _chunk_end_digest(chunk: tuple[WrappedUnit, ...], start_digest: int) -> int:
    """The digest after a chunk: that of its last write, else unchanged.

    A single reverse scan covers every case — including an all-read chunk,
    which leaves the digest where it started (the dead-branch bug fixed in
    this revision special-cased the final unit for no reason).
    """
    for wrapped in reversed(chunk):
        if wrapped.write_certificate is not None:
            return wrapped.write_certificate.new_digest
    return start_digest
