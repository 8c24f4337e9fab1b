"""Fault injection for the Litmus pipeline (the robustness layer).

Litmus's value proposition is surviving a *misbehaving* server (paper
Sections 4 and 6.2), so its reproduction needs a first-class way to
misbehave on purpose.  This package provides deterministic, seedable fault
injectors — proof corruption, certificate/witness bit-flips, dropped and
reordered proof pieces, prover-worker deaths, wrongly executed but
honestly certified writes, and message drops/delays via
:mod:`repro.sim.network` — wired into the real server and session through a
:class:`FaultPlan` hook, plus the recovery semantics the rest of the system
builds on (see :mod:`repro.core.session` for ``RetryPolicy`` and
``resync()``).

The durability layer (:mod:`repro.db.wal`) has its own adversaries in
:mod:`repro.faults.durability`: :class:`CrashPoint` simulates process death
at named WAL/checkpoint stage boundaries, while :class:`TornWrite`,
:class:`TruncateSegment` and :class:`BitRotSegment` damage the on-disk log
between a crash and a recovery — ``LitmusSession.recover`` must absorb all
of them.

:mod:`repro.faults.nemesis` composes all of the above into seeded chaos
schedules against a live :class:`~repro.core.ShardedSession`:
:func:`generate_schedule` / :func:`run_nemesis` drive crash + corruption +
retryable-fault episodes with ACID invariant checks after every recovery,
and :func:`minimize_schedule` shrinks a failing seed's schedule to a
minimal reproduction.

Quickstart::

    from repro.core import LitmusSession, RetryPolicy
    from repro.faults import CorruptProofPiece, FaultPlan

    plan = FaultPlan(CorruptProofPiece(piece=0), seed=7)
    session = LitmusSession.create(
        initial=data, fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, backoff=0.0),
    )
    session.submit("alice", TRANSFER, src=0, dst=1, amount=10)
    result = session.flush()   # reject -> rollback -> resync -> retry -> OK
    assert result.accepted and plan.injected == 1
"""

from .disk import (
    CheckpointRot,
    DiskFull,
    FsyncFailure,
    GeneratorTableRot,
    RenameFailure,
    RotOnWrite,
    ShortWrite,
    WriteError,
)
from .durability import BitRotSegment, CrashPoint, TornWrite, TruncateSegment
from .injectors import (
    BitFlipWitness,
    CorruptProofPiece,
    DropMessage,
    DropPiece,
    KillProver,
    NetworkFault,
    ReorderPieces,
    TamperEndDigest,
    TamperPublicStatement,
    WrongWrite,
)
from .nemesis import (
    NemesisReport,
    NemesisStep,
    generate_schedule,
    minimize_schedule,
    run_nemesis,
)
from .plan import FaultEvent, FaultInjector, FaultPlan

__all__ = [
    "BitFlipWitness",
    "BitRotSegment",
    "CheckpointRot",
    "CorruptProofPiece",
    "CrashPoint",
    "DiskFull",
    "DropMessage",
    "DropPiece",
    "FsyncFailure",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "GeneratorTableRot",
    "KillProver",
    "NemesisReport",
    "NemesisStep",
    "NetworkFault",
    "RenameFailure",
    "ReorderPieces",
    "RotOnWrite",
    "ShortWrite",
    "TamperEndDigest",
    "TamperPublicStatement",
    "TornWrite",
    "TruncateSegment",
    "WriteError",
    "WrongWrite",
    "generate_schedule",
    "minimize_schedule",
    "run_nemesis",
]
