"""Seeded nemesis: composed chaos schedules against a live sharded session.

The injectors in this package each model *one* fault in isolation; real
outages compose them — a prover dies, the retry lands, then a shard's
process is killed mid cross-shard apply and its WAL tail is torn by the
same power cut.  This module is the Jepsen-style harness that drives such
compositions deterministically:

- :func:`generate_schedule` — expand a seed into a replayable list of
  :class:`NemesisStep`\\ s: seeded transfers interleaved with fault
  episodes (retryable prover kills / message drops, and shard-targeted
  :class:`~repro.faults.CrashPoint` crashes, optionally paired with
  post-crash :class:`~repro.faults.TornWrite` / :class:`~repro.faults.
  BitRotSegment` damage on the crashed shard).  Corruption is only ever
  paired with an ``after-log`` crash on the *same* shard, so the damage
  lands on the one record whose acknowledgement the crash swallowed —
  never on acked history, which recovery must preserve bit-for-bit.
  With ``disk_fault_fraction > 0`` schedules also carry **disk-fault**
  steps — failed fsyncs, EIO/ENOSPC writes, short writes aimed at one
  shard's WAL or at the coordinator's intent journal
  (:mod:`repro.faults.disk`) — and crash steps may pair with
  ``"ckpt-rot"`` at-rest checkpoint damage the mirror must cover, or
  with ``"table-rot"`` damage to the generator table that recovery must
  reject and rebuild;
- :func:`run_nemesis` — drive a durable :class:`~repro.core.sharding.
  ShardedSession` through a schedule, recovering from every crash (and
  from every fsync failure, which downs the engine the same way —
  fsyncgate semantics) and checking the ACID invariants after each
  episode against a client-side oracle (see :class:`NemesisReport`);
- :func:`minimize_schedule` — shrink a failing schedule to a (locally)
  minimal failing subsequence by chunked bisection, the standard
  delta-debugging loop.

Invariants checked after every recovery (and once more at the end):

1. **conservation** — the total balance equals the initial total;
2. **atomicity + durability** — the recovered state equals the oracle
   either *without* the in-flight transfer (the crashed round aborted
   everywhere) or *with* it (it committed everywhere).  Any other state
   is a torn cross-shard transaction or a lost acked flush;
3. **digest convergence** — every shard's client and server digests
   agree after replay;
4. **resolution** — the intent journal holds no pending rounds;
5. **liveness** — a probe transfer is accepted post-recovery.

Quickstart::

    from repro.faults.nemesis import generate_schedule, run_nemesis

    steps = generate_schedule(seed=7, steps=12, num_shards=3)
    report = run_nemesis(steps, directory=tmpdir, seed=7, num_shards=3)
    assert report.ok, report.invariant_failures
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

from ..core.config import LitmusConfig
from ..core.session import DurabilityConfig, RetryPolicy
from ..core.sharding import ShardMap, ShardedSession
from ..crypto.cache import discard_generator_fixed_base
from ..crypto.rsa_group import RSAGroup
from ..db.wal import shard_directory
from ..errors import DurabilityError, ReproError, SimulatedCrash, WalError
from ..obs.metrics import MetricsRegistry
from ..vc.program import (
    Add,
    KeyTemplate,
    Param,
    Program,
    ReadStmt,
    ReadVal,
    Sub,
    WriteStmt,
)
from .disk import (
    CheckpointRot,
    DiskFull,
    FsyncFailure,
    GeneratorTableRot,
    ShortWrite,
    WriteError,
)
from .durability import BitRotSegment, CrashPoint, TornWrite
from .injectors import DropMessage, KillProver
from .plan import FaultPlan

__all__ = [
    "NemesisReport",
    "NemesisStep",
    "generate_schedule",
    "minimize_schedule",
    "run_nemesis",
]

INITIAL_BALANCE = 100

# The workload: the canonical two-account transfer, cross-shard whenever
# src and dst land on different shards.
TRANSFER = Program(
    name="nemesis-transfer",
    params=("src", "dst", "amount"),
    statements=(
        ReadStmt("s", KeyTemplate(("acct", Param("src")))),
        ReadStmt("d", KeyTemplate(("acct", Param("dst")))),
        WriteStmt(
            KeyTemplate(("acct", Param("src"))), Sub(ReadVal("s"), Param("amount"))
        ),
        WriteStmt(
            KeyTemplate(("acct", Param("dst"))), Add(ReadVal("d"), Param("amount"))
        ),
    ),
)

# Fast-but-real pipeline settings for chaos runs: every batch still goes
# through certification, proving and client verification.
NEMESIS_CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)

_CORRUPTIONS = ("", "torn", "bitrot")

# The disk misbehaviors a "disk-fault" step can name.  The first four target
# the WAL segment files of one shard, the ``journal-`` four the coordinator's
# cross-shard intent journal (whose filesystem view carries no shard tag, so
# the step's shard is ignored).  On either log an fsync failure downs the
# deployment (fsyncgate: the log poisons itself) and the write-error trio is
# absorbed in-band by the append log's rescue.
_DISK_FAULTS = {
    "fsync-failure": lambda shard: FsyncFailure(shard=shard, path_contains="wal-"),
    "write-eio": lambda shard: WriteError(shard=shard, path_contains="wal-"),
    "enospc": lambda shard: DiskFull(shard=shard, path_contains="wal-"),
    "short-write": lambda shard: ShortWrite(shard=shard, path_contains="wal-"),
    "journal-fsync-failure": lambda shard: FsyncFailure(path_contains="intents"),
    "journal-write-eio": lambda shard: WriteError(path_contains="intents"),
    "journal-enospc": lambda shard: DiskFull(path_contains="intents"),
    "journal-short-write": lambda shard: ShortWrite(path_contains="intents"),
}


@dataclass(frozen=True)
class NemesisStep:
    """One deterministic step of a chaos schedule.

    ``kind`` is ``"transfer"`` (a plain op), ``"kill-prover"`` /
    ``"drop-message"`` (a retryable fault injected around the op),
    ``"crash"`` (a :class:`CrashPoint` targeted at ``shard`` fires at
    ``stage`` while the op — always a cross-shard transfer touching that
    shard — is in flight; ``corruption`` optionally damages the crashed
    shard's durability directory before recovery: its WAL tail
    (``"torn"`` / ``"bitrot"``) or its newest checkpoint primary
    (``"ckpt-rot"``, which the mirror must cover) or the layout's
    generator table (``"table-rot"``, which recovery must reject)), or
    ``"disk-fault"``
    (``disk`` names a :data:`_DISK_FAULTS` injector armed at ``shard``
    while the transfer is in flight).  Every step carries its own
    transfer so a schedule replays identically regardless of which prefix
    of it runs.
    """

    kind: str
    src: int
    dst: int
    amount: int
    shard: int | None = None
    stage: str = "after-log"
    corruption: str = ""
    disk: str = ""


def generate_schedule(
    seed: int,
    *,
    steps: int = 12,
    num_accounts: int = 16,
    num_shards: int = 3,
    crash_fraction: float = 0.25,
    fault_fraction: float = 0.25,
    disk_fault_fraction: float = 0.0,
) -> list[NemesisStep]:
    """Expand *seed* into a replayable chaos schedule.

    Roughly ``crash_fraction`` of the steps are shard-targeted crashes
    (each with a cross-shard transfer guaranteed to involve the target
    shard, so the kill lands mid cross-round), ``fault_fraction`` are
    retryable prover/message faults, ``disk_fault_fraction`` are
    shard-targeted disk faults (failed fsyncs, EIO/ENOSPC writes, short
    writes — see :data:`_DISK_FAULTS`), and the rest are plain transfers.
    A non-zero ``disk_fault_fraction`` also adds ``"ckpt-rot"`` and
    ``"table-rot"`` to the crash steps' corruption choices (at-rest rot
    of a checkpoint, which the mirror must cover, and of the generator
    table, which recovery must reject and rebuild); at the default
    ``0.0`` the schedules are byte-identical
    to what this function generated before disk faults existed.
    Deterministic: the same arguments produce the same schedule.
    """
    if steps < 1:
        raise ReproError("a nemesis schedule needs at least one step")
    rng = random.Random(seed)
    shard_map = ShardMap(num_shards)
    owners: dict[int, list[int]] = {}
    for acct in range(num_accounts):
        owners.setdefault(shard_map.shard_of(("acct", acct)), []).append(acct)
    # A shard is a viable crash target iff it owns an account and some
    # other shard does too (we need a cross-shard pair through it).
    targets = [s for s in sorted(owners) if len(owners) > 1]

    def _any_transfer() -> tuple[int, int, int]:
        src = rng.randrange(num_accounts)
        dst = rng.randrange(num_accounts)
        while dst == src:
            dst = rng.randrange(num_accounts)
        return src, dst, rng.randint(1, 5)

    corruptions = (
        _CORRUPTIONS + ("ckpt-rot", "table-rot")
        if disk_fault_fraction > 0
        else _CORRUPTIONS
    )
    schedule: list[NemesisStep] = []
    for _ in range(steps):
        roll = rng.random()
        if roll < crash_fraction and targets:
            shard = rng.choice(targets)
            src = rng.choice(owners[shard])
            other = rng.choice([s for s in targets if s != shard])
            dst = rng.choice(owners[other])
            stage = rng.choice(("before-log", "after-log"))
            # Post-crash corruption only composes with after-log: the torn
            # or rotted record is then exactly the un-acked one (ckpt-rot
            # is at-rest damage, safe either way, but kept to the same arm
            # for schedule stability).
            corruption = (
                rng.choice(corruptions) if stage == "after-log" else ""
            )
            schedule.append(
                NemesisStep(
                    kind="crash",
                    src=src,
                    dst=dst,
                    amount=rng.randint(1, 5),
                    shard=shard,
                    stage=stage,
                    corruption=corruption,
                )
            )
        elif roll < crash_fraction + disk_fault_fraction and targets:
            shard = rng.choice(targets)
            src = rng.choice(owners[shard])
            other = rng.choice([s for s in targets if s != shard])
            dst = rng.choice(owners[other])
            schedule.append(
                NemesisStep(
                    kind="disk-fault",
                    src=src,
                    dst=dst,
                    amount=rng.randint(1, 5),
                    shard=shard,
                    disk=rng.choice(sorted(_DISK_FAULTS)),
                )
            )
        elif roll < crash_fraction + disk_fault_fraction + fault_fraction:
            kind = rng.choice(("kill-prover", "drop-message"))
            src, dst, amount = _any_transfer()
            schedule.append(
                NemesisStep(kind=kind, src=src, dst=dst, amount=amount)
            )
        else:
            src, dst, amount = _any_transfer()
            schedule.append(
                NemesisStep(kind="transfer", src=src, dst=dst, amount=amount)
            )
    return schedule


@dataclass(frozen=True)
class NemesisReport:
    """What one nemesis run did and whether the invariants held.

    ``invariant_failures`` is empty on a clean run (``ok``); each entry
    names the violated invariant and the evidence.  ``acked`` counts
    transfers the session acknowledged (they are in the oracle and must
    survive every later crash); ``crashes``/``recoveries`` count the
    episodes; ``injected`` counts every fault the plan applied, including
    the retryable ones the :class:`~repro.core.session.RetryPolicy`
    absorbed; ``disk_faults`` counts the disk-fault steps that armed an
    injector (recoveries they forced are in ``recoveries`` too).
    """

    seed: int
    steps: int
    ops: int
    acked: int
    rejected: int
    crashes: int
    recoveries: int
    injected: int
    compensations: int
    in_doubt_resolved: int
    invariant_failures: tuple[str, ...]
    final_balance: int
    duration_seconds: float
    disk_faults: int = 0

    @property
    def ok(self) -> bool:
        return not self.invariant_failures


def _read_state(session: ShardedSession, num_accounts: int) -> dict:
    return {
        ("acct", i): session.shards[
            session.shard_map.shard_of(("acct", i))
        ].server.db.get(("acct", i))
        for i in range(num_accounts)
    }


def _check_episode(
    session: ShardedSession,
    model: dict,
    inflight: NemesisStep | None,
    num_accounts: int,
    failures: list[str],
) -> dict:
    """Post-recovery invariant checks; returns the reconciled oracle."""
    state = _read_state(session, num_accounts)
    total = sum(state.values())
    expected_total = num_accounts * INITIAL_BALANCE
    if total != expected_total:
        failures.append(
            f"conservation: total balance {total} != {expected_total}"
        )
    candidates = [("aborted everywhere", dict(model))]
    if inflight is not None:
        committed = dict(model)
        committed[("acct", inflight.src)] -= inflight.amount
        committed[("acct", inflight.dst)] += inflight.amount
        candidates.append(("committed everywhere", committed))
    for _label, candidate in candidates:
        if state == candidate:
            model = candidate
            break
    else:
        diff = sorted(
            key for key in state if state[key] != candidates[0][1][key]
        )
        failures.append(
            "atomicity/durability: recovered state matches neither the "
            "all-aborted nor the all-committed oracle (torn cross-shard "
            f"transaction or lost acked flush); divergent keys: {diff}"
        )
    for index, shard in enumerate(session.shards):
        if int(shard.client.digest) != int(shard.server.digest):
            failures.append(
                f"digest convergence: shard {index} client and server "
                "digests disagree after recovery"
            )
    if session._intents is not None and session._intents.pending_rounds:
        failures.append(
            "resolution: intent journal still holds pending round(s) "
            f"{sorted(session._intents.pending_rounds)} after recovery"
        )
    return model


def run_nemesis(
    schedule: Sequence[NemesisStep],
    *,
    directory: str,
    seed: int = 0,
    num_accounts: int = 16,
    num_shards: int = 3,
    config: LitmusConfig | None = None,
    group: RSAGroup | None = None,
    registry: MetricsRegistry | None = None,
) -> NemesisReport:
    """Drive a durable sharded session through *schedule* and referee it.

    Builds the session under *directory* with a retrying
    :class:`~repro.core.session.RetryPolicy` (so the retryable fault
    steps are absorbed in-band), executes the steps, and on every
    :class:`~repro.errors.SimulatedCrash` abandons the session, applies
    the step's paired corruption (if any) to the crashed shard's WAL,
    recovers via :meth:`ShardedSession.recover`, and runs the module
    docstring's invariant checks against the client-side oracle.  The
    first invariant failure stops the run (the oracle is no longer
    trustworthy); a clean run executes every step.

    Deterministic end to end: the schedule is data, the workload seeds
    are in the steps, and all fault randomness flows through the plan's
    seeded stream.
    """
    registry = registry if registry is not None else MetricsRegistry()
    config = config if config is not None else NEMESIS_CONFIG
    if group is None:
        group = RSAGroup.generate(bits=512, seed=b"litmus-nemesis")
    retry = RetryPolicy(max_attempts=4, backoff=0.0)
    plan = FaultPlan(seed=seed).bind_registry(registry)
    start = perf_counter()
    session = ShardedSession.create(
        initial={("acct", i): INITIAL_BALANCE for i in range(num_accounts)},
        config=config,
        num_shards=num_shards,
        group=group,
        registry=registry,
        retry_policy=retry,
        fault_plan=plan,
        durability=DurabilityConfig(directory=directory),
    )
    model = {("acct", i): INITIAL_BALANCE for i in range(num_accounts)}
    ops = acked = rejected = crashes = recoveries = disk_faults = 0
    failures: list[str] = []

    def _apply(step: NemesisStep) -> None:
        model[("acct", step.src)] -= step.amount
        model[("acct", step.dst)] += step.amount

    def _recover_and_referee(step: NemesisStep) -> bool:
        """Abandon the downed session, apply the step's at-rest damage,
        recover, and referee the episode.  False stops the run."""
        nonlocal session, model, recoveries, ops, acked
        try:  # release handles; a real crash would not even do this
            session.close()
        except BaseException:
            pass
        if step.corruption == "table-rot":
            # The table sits at the layout's root; forget this process's
            # copy so recovery reads the rotted file, as a cold one would.
            try:
                GeneratorTableRot().apply(directory)
            except WalError:
                pass  # the table was never written; recovery rebuilds it
            discard_generator_fixed_base(group.modulus, group.generator)
        elif step.corruption:
            corruptor = {
                "torn": TornWrite,
                "bitrot": BitRotSegment,
                "ckpt-rot": CheckpointRot,
            }[step.corruption]()
            try:
                corruptor.apply(shard_directory(directory, step.shard))
            except WalError:
                pass  # nothing durable on that shard yet
        session = ShardedSession.recover(
            directory,
            [TRANSFER],
            group=group,
            registry=registry,
            retry_policy=retry,
            fault_plan=plan,
        )
        recoveries += 1
        registry.counter("nemesis.recoveries").inc()
        if step.corruption == "table-rot":
            sources = {r.generator_table for r in session.recovery_reports}
            if not all(source.startswith("rebuilt") for source in sources):
                failures.append(
                    f"table-rot: recovery used a rotted generator table {sources}"
                )
        model = _check_episode(session, model, step, num_accounts, failures)
        if failures:
            return False
        # Liveness probe: the recovered deployment must take work.
        probe = session.submit(
            "nemesis", TRANSFER, src=step.src, dst=step.dst, amount=1
        )
        session.flush()
        ops += 1
        registry.counter("nemesis.ops").inc()
        if probe.accepted:
            acked += 1
            model[("acct", step.src)] -= 1
            model[("acct", step.dst)] += 1
            return True
        failures.append(
            "liveness: post-recovery probe transfer was "
            f"rejected: {probe._reason}"
        )
        return False

    try:
        for step in schedule:
            registry.counter("nemesis.steps").inc()
            if step.kind in ("transfer", "kill-prover", "drop-message"):
                injector = None
                if step.kind == "kill-prover":
                    injector = KillProver(piece=0)
                elif step.kind == "drop-message":
                    injector = DropMessage(direction="response")
                if injector is not None:
                    plan.injectors.append(injector)
                try:
                    ticket = session.submit(
                        "nemesis",
                        TRANSFER,
                        src=step.src,
                        dst=step.dst,
                        amount=step.amount,
                    )
                    session.flush()
                finally:
                    if injector is not None and injector in plan.injectors:
                        plan.injectors.remove(injector)
                ops += 1
                registry.counter("nemesis.ops").inc()
                if ticket.accepted:
                    acked += 1
                    _apply(step)
                else:
                    rejected += 1
            elif step.kind == "crash":
                crash = CrashPoint(step.stage, shard=step.shard)
                plan.injectors.append(crash)
                crashed = False
                try:
                    ticket = session.submit(
                        "nemesis",
                        TRANSFER,
                        src=step.src,
                        dst=step.dst,
                        amount=step.amount,
                    )
                    session.flush()
                except SimulatedCrash:
                    crashed = True
                finally:
                    if crash in plan.injectors:
                        plan.injectors.remove(crash)
                ops += 1
                registry.counter("nemesis.ops").inc()
                if not crashed:
                    # The targeted stage was never reached (e.g. the round
                    # resolved before the shard logged); a plain op, then.
                    if ticket.accepted:
                        acked += 1
                        _apply(step)
                    else:
                        rejected += 1
                    continue
                crashes += 1
                registry.counter("nemesis.crashes").inc()
                if not _recover_and_referee(step):
                    break
            elif step.kind == "disk-fault":
                injector = _DISK_FAULTS[step.disk](step.shard)
                plan.injectors.append(injector)
                died = False
                try:
                    ticket = session.submit(
                        "nemesis",
                        TRANSFER,
                        src=step.src,
                        dst=step.dst,
                        amount=step.amount,
                    )
                    session.flush()
                except DurabilityError:
                    died = True
                finally:
                    if injector in plan.injectors:
                        plan.injectors.remove(injector)
                ops += 1
                disk_faults += 1
                registry.counter("nemesis.ops").inc()
                registry.counter("nemesis.disk_faults").inc()
                if not died:
                    # Absorbed in-band (rescue rotation) or never reached
                    # the disk — an ordinary op either way.
                    if ticket.accepted:
                        acked += 1
                        _apply(step)
                    else:
                        rejected += 1
                    continue
                # fsyncgate: the shard poisoned itself before any
                # acknowledgement escaped — the deployment is down exactly
                # as if the process had died mid-round.
                if not _recover_and_referee(step):
                    break
            else:
                raise ReproError(f"unknown nemesis step kind {step.kind!r}")
        if not failures:
            model = _check_episode(session, model, None, num_accounts, failures)
        final_balance = sum(_read_state(session, num_accounts).values())
    finally:
        try:
            session.close()
        except BaseException:
            pass
    if failures:
        registry.counter("nemesis.invariant_failures").inc(len(failures))
    return NemesisReport(
        seed=seed,
        steps=len(schedule),
        ops=ops,
        acked=acked,
        rejected=rejected,
        crashes=crashes,
        recoveries=recoveries,
        injected=plan.injected,
        compensations=registry.counter("xshard.compensations").value,
        in_doubt_resolved=registry.counter("xshard.in_doubt_resolved").value,
        invariant_failures=tuple(failures),
        final_balance=final_balance,
        duration_seconds=perf_counter() - start,
        disk_faults=disk_faults,
    )


def minimize_schedule(
    steps: Sequence[NemesisStep],
    fails: Callable[[list[NemesisStep]], bool],
) -> list[NemesisStep]:
    """Shrink a failing schedule to a locally minimal failing subsequence.

    *fails* must be a pure predicate — typically a closure that replays
    the candidate schedule with :func:`run_nemesis` against a fresh
    directory and returns ``not report.ok``.  Chunked bisection (the
    ddmin loop): repeatedly try dropping contiguous chunks, halving the
    chunk size until single-step removal no longer shrinks the schedule.
    Raises :class:`~repro.errors.ReproError` if the full schedule does
    not fail (there is nothing to minimize).
    """
    current = list(steps)
    if not fails(list(current)):
        raise ReproError(
            "the full schedule does not fail; nothing to minimize"
        )
    chunk = max(1, len(current) // 2)
    while True:
        index = 0
        shrunk = False
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            if candidate and fails(list(candidate)):
                current = candidate
                shrunk = True
            else:
                index += chunk
        if chunk == 1:
            if not shrunk:
                return current
        else:
            chunk = max(1, chunk // 2)
