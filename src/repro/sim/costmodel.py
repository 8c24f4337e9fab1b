"""The calibrated cost model (DESIGN.md substitutions 1-4).

Every constant is traceable to a number the paper reports:

===========================  =============================================
Paper datum                   Constant(s) derived from it
===========================  =============================================
Litmus-DR: 714.2 txn/s at     combined prover+keygen seconds/constraint
82k txns, single prover       (given the real compiled YCSB circuit size)
Fig 7 end state (51% keygen,  the 51:38 split of that combined rate
38% proving)
Litmus-DRM = 24.7x DR at 75   serial trace-processing cost of
provers                       ~38.6 microseconds per access-pair (Amdahl)
Litmus-2PL = DR/12.6          the per-access MemCheck gadget size
                              (unbatched circuits carry one per access)
No-verification DR/2PL        1.75M / 1.2M txn/s base rates at theta=0.6
"two orders of magnitude"
Verification constant         300 s per proof
Proof size                    312 B per prover thread
Fig 9 decay (17538 -> 12818   trace-cost locality factor
over 10G -> 80G)              (1 + 0.111 * doublings^1.25)
AD-Interact curves            per-element witness recomputation ~1 us,
                              0.3 s session setup, RTT 1 ms / 100 ms
Merkle < 20 txn/s             50 ms verified-path cost per transaction
===========================  =============================================

Timing is derived from *real* counts (constraints of actually-compiled
circuits, batches/rounds of actually-executed CC) so the benchmark harness
reproduces the paper's shapes; see EXPERIMENTS.md for the side-by-side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel"]

# Fixed calibration targets from the paper (Section 8).
_DR_THROUGHPUT = 714.2  # txn/s, single prover, 82k verification batch
_DR_BATCH = 81_920
_TPL_THROUGHPUT = _DR_THROUGHPUT / 12.6  # Litmus-2PL peak
_TRACE_SECONDS_PER_ACCESS = 19.3e-6  # 38.6 us per 2-access YCSB txn
_KEYGEN_SHARE, _PROVE_SHARE = 51, 38  # Fig 7 end-state split


@dataclass(frozen=True)
class CostModel:
    """Virtual-time constants; construct via :meth:`calibrated`."""

    # Prover pipeline (seconds per R1CS constraint).
    keygen_per_constraint: float
    prove_per_constraint: float
    piece_fixed_seconds: float = 0.35  # per circuit piece (FFT/setup overhead)
    circuit_gen_per_constraint: float = 1e-9  # hand-written circuits: negligible

    # Memory integrity.
    memcheck_constraints: int = 600  # per-access check in unbatched circuits
    trace_seconds_per_access: float = _TRACE_SECONDS_PER_ACCESS

    # Normal-DBMS no-verification rates (txn/s at theta = 0.6, 64 threads).
    db_rate_dr: float = 1.75e6
    db_rate_2pl: float = 1.2e6

    # Client-side verification.
    verify_seconds: float = 300.0
    proof_bytes_per_prover: int = 312
    output_seconds: float = 1.0

    # Interactive (vSQL-style) baseline.
    interactive_setup_seconds: float = 0.3
    ad_witness_per_element: float = 5.0e-8  # fresh witness: one modmul/element
    ad_client_verify_seconds: float = 50e-6

    # Merkle baseline (folklore approach; [32] reports < 20 txn/s).
    merkle_txn_seconds: float = 0.05

    # Table-size locality decay (Fig 9): trace cost multiplier
    # 1 + alpha * d^beta where d = log2(table_size / 10G).
    tablesize_alpha: float = 0.111
    tablesize_beta: float = 1.25

    @classmethod
    def calibrated(cls, ycsb_logic_constraints: int) -> "CostModel":
        """Derive per-constraint rates from the paper's DR/2PL throughputs.

        *ycsb_logic_constraints* is the constraint count of the actually
        compiled YCSB transaction circuit; the paper's absolute throughputs
        then pin down the effective seconds-per-constraint of the libsnark
        prover on their testbed.
        """
        if ycsb_logic_constraints < 1:
            raise ValueError("need a positive circuit size")
        total_seconds = _DR_BATCH / _DR_THROUGHPUT
        trace_seconds = _DR_BATCH * 2 * _TRACE_SECONDS_PER_ACCESS
        db_seconds = _DR_BATCH / 1.75e6
        prover_seconds = total_seconds - trace_seconds - db_seconds
        combined = prover_seconds / (_DR_BATCH * ycsb_logic_constraints)
        keygen = combined * _KEYGEN_SHARE / (_KEYGEN_SHARE + _PROVE_SHARE)
        prove = combined * _PROVE_SHARE / (_KEYGEN_SHARE + _PROVE_SHARE)
        # Litmus-2PL: every transaction circuit carries one MemCheck gadget
        # per access (2 for YCSB); its peak throughput pins the gadget size.
        per_txn_seconds = 1.0 / _TPL_THROUGHPUT
        per_txn_constraints = per_txn_seconds / combined
        memcheck = max(1, int((per_txn_constraints - ycsb_logic_constraints) / 2))
        return cls(
            keygen_per_constraint=keygen,
            prove_per_constraint=prove,
            memcheck_constraints=memcheck,
        )

    # -- derived helpers -------------------------------------------------------

    @property
    def prover_seconds_per_constraint(self) -> float:
        return self.keygen_per_constraint + self.prove_per_constraint

    def piece_seconds(self, constraints: int) -> float:
        """Keygen + proving time of one circuit piece."""
        return (
            self.piece_fixed_seconds
            + constraints * self.prover_seconds_per_constraint
        )

    def trace_seconds(self, accesses: int, table_doublings: float = 0.0) -> float:
        """Witness-computation time for *accesses* memory operations.

        *table_doublings* applies the Fig 9 locality decay: log2 of the
        table size relative to the 10 GB baseline.
        """
        factor = 1.0
        if table_doublings > 0:
            factor += self.tablesize_alpha * table_doublings**self.tablesize_beta
        return accesses * self.trace_seconds_per_access * factor

    def db_seconds(self, num_txns: int, cc: str, contention_factor: float = 1.0) -> float:
        """Normal-DBMS execution time under the measured contention factor.

        *contention_factor* >= 1 scales the base rate down; the harness
        computes it from real CC runs (retry ratios / round counts).
        """
        rate = self.db_rate_dr if cc == "dr" else self.db_rate_2pl
        return num_txns * contention_factor / rate

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy with selected constants replaced (ablation support)."""
        return replace(self, **kwargs)
