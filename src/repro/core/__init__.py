"""Litmus core: the verifiable DBMS of the paper.

Wires the substrates together exactly as Figure 1 describes:

- :mod:`repro.core.memory_integrity` — the provider (server, Algorithm 1)
  and the checker (in-circuit, Algorithm 2);
- :mod:`repro.core.wrapper` — the transaction wrapper (Algorithm 3), with
  per-transaction units under 2PL and aggregated units under deterministic
  reservation;
- :mod:`repro.core.server` — the server workflow (Algorithm 4) including
  the piece dispatcher and the concurrent prover pool (Section 7.2);
- :mod:`repro.core.client` — digest keeping, circuit matching, proof and
  digest-chain verification (Section 6.2);
- :mod:`repro.core.hybrid`, :mod:`repro.core.consistency` — the Section 9
  extensions (real-time hybrid mode; verifiable consistency invariants);
- :mod:`repro.core.session` — the client-facing facade
  (:class:`LitmusSession` / :class:`BatchResult`);
- :mod:`repro.core.recovery` — the one recovery path (read a durability
  directory once → replay → rebuild → digest cross-check, plus in-doubt
  cross-shard resolution) that ``recover`` and ``resync`` of both session
  kinds call;
- :mod:`repro.core.api` — the :class:`VerifiedSession` protocol every
  session implementation satisfies, and the :class:`DigestVector` digest
  type;
- :mod:`repro.core.sharding` — the keyspace partitioned across S
  independently verified engines (:class:`ShardedSession` /
  :class:`ShardMap`).

Both server and client report spans/metrics through :mod:`repro.obs`.
"""

from .api import DigestVector, VerifiedSession
from .checkpoint import DigestLog
from .client import ClientVerdict, LitmusClient
from .config import LitmusConfig
from .consistency import InvariantViolation, SumInvariant
from .hybrid import HybridLitmus
from .memory_integrity import (
    MemoryIntegrityChecker,
    MemoryIntegrityProvider,
    ReadCertificate,
    WriteCertificate,
)
from .protocol import PieceResult, ServerResponse, TimingReport
from .server import LitmusServer
from .session import (
    BatchResult,
    DurabilityConfig,
    LitmusSession,
    RecoveryReport,
    RetryPolicy,
    UserTicket,
)
from .sharding import ShardMap, ShardedSession, XShardRecoveryReport

__all__ = [
    "BatchResult",
    "ClientVerdict",
    "DigestLog",
    "DigestVector",
    "DurabilityConfig",
    "HybridLitmus",
    "InvariantViolation",
    "LitmusClient",
    "LitmusConfig",
    "LitmusServer",
    "LitmusSession",
    "MemoryIntegrityChecker",
    "MemoryIntegrityProvider",
    "PieceResult",
    "RecoveryReport",
    "ReadCertificate",
    "RetryPolicy",
    "ServerResponse",
    "ShardMap",
    "ShardedSession",
    "SumInvariant",
    "TimingReport",
    "UserTicket",
    "VerifiedSession",
    "WriteCertificate",
    "XShardRecoveryReport",
]
