"""Configuration of a Litmus deployment."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError

__all__ = ["LitmusConfig"]


@dataclass(frozen=True)
class LitmusConfig:
    """Knobs of the verifiable DBMS (paper Section 8's baselines map here).

    - ``Litmus-DRM``: ``cc="dr"``, ``num_provers=75``
    - ``Litmus-DR``:  ``cc="dr"``, ``num_provers=1``
    - ``Litmus-2PL``: ``cc="2pl"`` (aggregation disabled automatically)
    """

    cc: str = "dr"  # "dr" (deterministic reservation) or "2pl"
    processing_batch_size: int = 1024  # DR rounds take this many txns (paper: 81,920)
    num_db_threads: int = 4  # logical 2PL threads (paper: 4 for the DB component)
    batches_per_piece: int = 5  # circuit pieces cover this many units (Fig 2)
    num_provers: int = 1  # prover threads (paper sweeps 1..80, default 75 for DRM)
    prime_bits: int = 64  # AD prime size (lambda); tests use 64 for speed
    backend: str = "groth16"  # "groth16" (simulator) or "spotcheck" (real argument)
    use_poe: bool = True  # compress big-exponent checks with PoE
    # With use_poe, aggregate all of a piece's read-lookup PoEs into ONE
    # random-linear-combination Wesolowski proof verified by a single pair of
    # multi-exponentiations (instead of one challenge prime + two
    # exponentiations per certificate).  Disable for ablation.
    batched_poe: bool = True
    # Run trusted setup once per circuit *structure* and reuse the key pair
    # for every piece with the same structural hash (sound: proofs commit to
    # their own public statement).  Disable for ablation.
    reuse_proving_keys: bool = True
    # Read by nothing.  Kept because checkpoints serialise asdict(config),
    # recovery rebuilds LitmusConfig(**checkpoint.config), and the golden
    # directories carry the field.
    table_doublings: float = 0.0
    # Gate count of one MemCheck/MemUpdate gadget.  Part of the circuit
    # *structure* (client and server must agree), hence configuration rather
    # than a calibrated cost-model output.  The default matches the
    # calibration derived from the paper's Litmus-2PL/Litmus-DR gap.
    memcheck_constraints: int = 600

    def __post_init__(self):
        if self.cc not in ("dr", "2pl"):
            raise ReproError(f"unknown concurrency control {self.cc!r}")
        if self.backend not in ("groth16", "spotcheck"):
            raise ReproError(f"unknown VC backend {self.backend!r}")
        if self.num_provers < 1 or self.batches_per_piece < 1:
            raise ReproError("prover and piece counts must be positive")

    @property
    def aggregation_enabled(self) -> bool:
        """Proof aggregation requires non-conflicting batches (DR only)."""
        return self.cc == "dr"

    @property
    def poe_mode(self) -> bool | str:
        """The provider's ``use_poe`` argument: False, True, or ``"batch"``."""
        if not self.use_poe:
            return False
        return "batch" if self.batched_poe else True
