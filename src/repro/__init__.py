"""Litmus: a verifiable DBMS with provable ACID properties.

Reproduction of Xia, Yu, Butrovich, Pavlo & Devadas,
"Litmus: Towards a Practical Database Management System with Verifiable
ACID Properties and Transaction Correctness" (SIGMOD 2022).

Quickstart (the session facade)::

    from repro import LitmusSession, YCSBWorkload
    from repro.crypto import RSAGroup

    group = RSAGroup.generate(bits=512, seed=b"demo")
    workload = YCSBWorkload(num_rows=1000)
    session = LitmusSession.create(
        initial=workload.initial_data(), group=group
    )
    ticket = session.submit("alice", INCREMENT, k=7)
    result = session.flush()          # typed BatchResult
    assert result.accepted and ticket.outputs is not None

The lower-level server/client pair (``LitmusServer.execute_batch`` /
``LitmusClient.verify_response``) stays available for protocol-level work,
and :mod:`repro.obs` carries tracing + metrics for the whole pipeline.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison of every table and figure.
"""

from .core import (
    BatchResult,
    ClientVerdict,
    DigestVector,
    HybridLitmus,
    LitmusClient,
    LitmusConfig,
    LitmusServer,
    LitmusSession,
    ServerResponse,
    ShardMap,
    ShardedSession,
    SumInvariant,
    UserTicket,
    VerifiedSession,
)
from .crypto import AuthenticatedDictionary, MerkleTree, RSAGroup
from .db import Database, Transaction, TxnResult
from .sim import CostModel
from .sql import SqlCatalog, compile_procedure
from .vc import (
    CircuitCompiler,
    Groth16Simulator,
    Program,
    SpotCheckBackend,
)
from .verify import ElleChecker, history_from_execution
from .workloads import TPCCWorkload, YCSBWorkload, ZipfSampler

__version__ = "1.0.0"

__all__ = [
    "AuthenticatedDictionary",
    "CircuitCompiler",
    "ClientVerdict",
    "CostModel",
    "Database",
    "DigestVector",
    "ElleChecker",
    "Groth16Simulator",
    "HybridLitmus",
    "LitmusClient",
    "LitmusConfig",
    "LitmusServer",
    "MerkleTree",
    "Program",
    "RSAGroup",
    "ServerResponse",
    "ShardMap",
    "ShardedSession",
    "SpotCheckBackend",
    "SqlCatalog",
    "compile_procedure",
    "SumInvariant",
    "TPCCWorkload",
    "Transaction",
    "VerifiedSession",
    "TxnResult",
    "YCSBWorkload",
    "ZipfSampler",
    "history_from_execution",
    "__version__",
]
