"""Command-line interface: regenerate paper experiments from the terminal.

Usage::

    python -m repro fig3 [--scale N]
    python -m repro fig4 | fig5 | fig6 | fig7 | fig8 | fig9
    python -m repro constants
    python -m repro elle
    python -m repro all [--scale N]

Each command prints the corresponding paper figure/table to stdout; ``all``
runs the whole evaluation section (this is what EXPERIMENTS.md is built
from).  The numbers are modeled, and reduced-scale versions of them are
pinned exactly by ``tests/bench/test_paper_figures.py`` against the
repo-root ``BENCH_figures.json`` (DESIGN.md §13); measured wall-clock
numbers come only from ``benchmarks/e2e``.

Every command additionally accepts the observability flag pair::

    python -m repro fig6 --metrics-out metrics.jsonl --trace-out trace.jsonl

``--metrics-out`` writes the process-local metrics registry (cache hit
rates, SNARK counters, db commit/abort totals, ...) as JSON lines after the
command ran; ``--trace-out`` writes every finished span of the run.  Both
files follow the format of :mod:`repro.obs.exporters` and are validated in
CI by ``benchmarks/check_metrics_schema.py``.

The adversarial demo runs the rejected-batch recovery story end-to-end::

    python -m repro --faults [--fault-kind corrupt_proof] [--seed 7]

It injects one fault into a real verification round (via
:mod:`repro.faults`), shows the client rejecting, the server rolling back,
``resync()`` re-deriving the trusted digest, and the retried batch
verifying — exiting non-zero if any of that fails to happen.

The crash-recovery demo does the same for the durability layer::

    python -m repro --recover /tmp/litmus-crash-demo [--seed 7]

Pointed at an *empty* directory it runs a durable session into an
injected mid-run crash (:class:`~repro.faults.CrashPoint`), tears the WAL
tail (:class:`~repro.faults.TornWrite`), then restarts via
``LitmusSession.recover`` and prints the digest cross-check — exiting
non-zero unless every acknowledged batch survived and the rebuilt digest
matches the journaled one.  Pointed at a *non-empty* directory it
attempts a real recovery of that deployment — unsharded, or sharded when
it holds ``shard-NN`` subdirectories (as ``--serve --shards S`` writes) —
and prints the per-shard and cross-shard report; a missing directory or
an unrecoverable (corrupt) one exits non-zero with a one-line diagnosis,
never a traceback.

The scrubber audits a durability directory proactively::

    python -m repro --scrub /var/lib/litmus [--audit-only]

It re-verifies every checkpoint checksum (primary *and* mirror), re-proves
each checkpoint's accumulator from its rows, re-verifies every sealed
segment's CRC framing (:mod:`repro.db.scrub`), repairs rotted
checkpoints from their healthy twins, quarantines doubly-damaged pairs,
and exits 1 when unrepaired damage remains — the signal to schedule a
restart so recovery can truncate it.

The nemesis chaos demo composes crashes, WAL corruption and retryable
faults into one seeded schedule against a durable *sharded* deployment
(:mod:`repro.faults.nemesis`), recovering after every kill and checking
the ACID invariants — exiting non-zero on any violation::

    python -m repro --chaos [--seed 7] [--shards 3]

The networked deployment (DESIGN.md §12)::

    python -m repro --serve 127.0.0.1:7433 [--data-dir DIR] [--shards S]
    python -m repro --connect 127.0.0.1:7433

``--serve`` runs a :class:`~repro.net.LitmusService` (WAL-backed when
``--data-dir`` is given) until SIGTERM/SIGINT, then drains gracefully:
in-flight batches finish and ack through the WAL, new work is refused,
the final checkpoint is fsynced.  ``--shards S`` (S > 1) partitions the
keyspace across S independently verified engines behind one
:class:`~repro.core.ShardedSession` — same wire protocol, per-shard WAL
directories under ``DIR/shard-NN/``, and a per-shard digest vector in
every response.  ``--connect`` is the client quickstart:
it submits a handful of bank transfers through a
:class:`~repro.net.RemoteSession` with a retry policy and prints the
verified result.  A port already in use or an unreachable server is a
clean one-line error, not a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .obs import JsonLinesExporter, get_metrics, get_tracer

from .bench import (
    elle_comparison,
    fig3_ycsb_throughput_latency,
    fig4_tpcc_throughput,
    fig5_processing_batch,
    fig6_prover_threads,
    fig7_time_breakdown,
    fig8_contention,
    fig9_table_size,
    format_series,
    format_table,
    reference_constants,
)

__all__ = ["main"]


def _fig3(scale: int) -> str:
    rows = fig3_ycsb_throughput_latency(
        batch_sizes=(320, 5_120, 81_920, 1_310_720, 2_621_440), scale=scale
    )
    return (
        "Figure 3a — YCSB throughput (txn/s) vs verification batch size\n"
        + format_series(rows, x="batch_size", y="throughput")
        + "\n\nFigure 3b — YCSB mean latency (s) vs verification batch size\n"
        + format_series(rows, x="batch_size", y="latency")
    )


def _fig4(scale: int) -> str:
    rows = fig4_tpcc_throughput(batch_sizes=(320, 5_120, 81_920), scale=max(150, scale // 4))
    new_order = [r for r in rows if r["transaction"] == "new_order"]
    payment = [r for r in rows if r["transaction"] == "payment"]
    return (
        "Figure 4a — TPC-C New Order throughput (txn/s)\n"
        + format_series(new_order, x="batch_size", y="throughput")
        + "\n\nFigure 4b — TPC-C Payment throughput (txn/s)\n"
        + format_series(payment, x="batch_size", y="throughput")
    )


def _fig5(scale: int) -> str:
    rows = fig5_processing_batch(
        processing_batch_sizes=(32, 3_200, 320_000, 1_000_000),
        num_txns=1_310_720,
        scale=scale,
    )
    return (
        "Figure 5a — throughput (txn/s) vs DR processing batch size\n"
        + format_series(rows, x="processing_batch", y="throughput")
        + "\n\nFigure 5b — latency (s) vs DR processing batch size\n"
        + format_series(rows, x="processing_batch", y="latency")
    )


def _fig6(scale: int) -> str:
    rows = fig6_prover_threads(scale=scale)
    return "Figure 6 — Litmus-DRM vs prover threads\n" + format_table(rows)


def _fig7(scale: int) -> str:
    rows = fig7_time_breakdown(scale=scale)
    return "Figure 7 — time breakdown (shares) vs prover threads\n" + format_table(rows)


def _fig8(scale: int) -> str:
    rows = fig8_contention(
        thetas=(0.0, 0.4, 0.8, 1.2, 1.6), num_txns=163_840, scale=scale
    )
    return "Figure 8 — throughput (txn/s) vs Zipfian theta\n" + format_series(
        rows, x="theta", y="throughput"
    )


def _fig9(scale: int) -> str:
    rows = fig9_table_size(scale=scale)
    return "Figure 9 — Litmus-DRM throughput vs table size\n" + format_table(rows)


def _constants(scale: int) -> str:
    ref = reference_constants(scale=scale)
    rows = [
        {"metric": name, "ours": entry.get("ours", ""), "paper": entry.get("paper", "")}
        for name, entry in ref.items()
        if isinstance(entry, dict) and "ours" in entry
    ]
    return "Section 8 constants — paper vs reproduction\n" + format_table(rows)


def _elle(scale: int) -> str:
    result = elle_comparison(scale=max(500, scale))
    rows = [{"metric": key, "value": value} for key, value in result.items()]
    return "Section 8.3 — Elle vs Litmus\n" + format_table(rows)


_COMMANDS = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "constants": _constants,
    "elle": _elle,
}

_FAULT_KINDS = (
    "corrupt_proof",
    "tamper_statement",
    "tamper_digest",
    "drop_piece",
    "reorder_pieces",
    "bitflip_witness",
    "kill_prover",
    "drop_message",
)


def _demo_transfer():
    """The bank-transfer stored procedure both demos run."""
    from .vc.program import (
        Add,
        Emit,
        KeyTemplate,
        Param,
        Program,
        ReadStmt,
        ReadVal,
        Sub,
        WriteStmt,
    )

    return Program(
        name="transfer",
        params=("src", "dst", "amount"),
        statements=(
            ReadStmt("s", KeyTemplate(("acct", Param("src")))),
            ReadStmt("d", KeyTemplate(("acct", Param("dst")))),
            WriteStmt(
                KeyTemplate(("acct", Param("src"))),
                Sub(ReadVal("s"), Param("amount")),
            ),
            WriteStmt(
                KeyTemplate(("acct", Param("dst"))),
                Add(ReadVal("d"), Param("amount")),
            ),
            Emit(Add(ReadVal("s"), ReadVal("d"))),
        ),
    )


_DEMO_CONFIG = dict(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)


def _faults_demo(kind: str, seed: int) -> tuple[str, bool]:
    """One scripted adversarial run; returns (transcript, recovered)."""
    from .core import LitmusConfig, LitmusSession, RetryPolicy
    from .crypto.rsa_group import default_group
    from .faults import (
        BitFlipWitness,
        CorruptProofPiece,
        DropMessage,
        DropPiece,
        FaultPlan,
        KillProver,
        ReorderPieces,
        TamperEndDigest,
        TamperPublicStatement,
    )

    transfer = _demo_transfer()
    injectors = {
        "corrupt_proof": lambda: CorruptProofPiece(piece=0),
        "tamper_statement": lambda: TamperPublicStatement(piece=0),
        "tamper_digest": lambda: TamperEndDigest(piece=0),
        "drop_piece": lambda: DropPiece(piece=0),
        "reorder_pieces": lambda: ReorderPieces(),
        "bitflip_witness": lambda: BitFlipWitness(unit=0, which="write"),
        "kill_prover": lambda: KillProver(piece=0),
        "drop_message": lambda: DropMessage(direction="response"),
    }
    plan = FaultPlan(injectors[kind](), seed=seed)
    session = LitmusSession.create(
        initial={("acct", i): 100 for i in range(8)},
        config=LitmusConfig(**_DEMO_CONFIG),
        group=default_group(bits=512),
        retry_policy=RetryPolicy(max_attempts=3, backoff=0.0),
        fault_plan=plan,
    )
    for i in range(6):
        session.submit(f"user{i % 3}", transfer, src=i, dst=(i + 1) % 8, amount=5)
    digest_before = session.digest
    result = session.flush()

    lines = [f"Adversarial run — fault kind {kind!r}, seed {seed}"]
    for event in plan.events:
        lines.append(f"  injected : {event.kind} at {event.stage} ({event.target})")
    if not plan.events:
        lines.append("  injected : nothing fired (fault target absent in this run)")
    lines.append(
        f"  detection: client rejected {session.batches_rejected} round(s); "
        f"server rolled back, {session.resyncs} resync(s) re-derived the digest"
    )
    agree = session.digest == session.server.digest
    lines.append(
        f"  recovery : batch {'ACCEPTED' if result.accepted else 'REJECTED'} "
        f"after {result.attempts} attempt(s)"
    )
    lines.append(
        f"  digests  : client {session.digest:#x}"
        f" {'==' if agree else '!='} server {session.server.digest:#x}"
        f" (moved from {digest_before:#x})"
    )
    balance = sum(session.server.db.get(("acct", i)) for i in range(8))
    lines.append(f"  oracle   : total balance conserved: {balance == 800}")
    recovered = bool(
        result.accepted and agree and plan.injected >= 1 and balance == 800
    )
    lines.append(f"  verdict  : {'RECOVERED' if recovered else 'FAILED'}")
    return "\n".join(lines), recovered


def _recover_cmd(directory: str, seed: int) -> tuple[str, int]:
    """Dispatch ``--recover``: demo on an empty dir, real recovery otherwise.

    Failure paths are first-class: a missing directory exits 2 and an
    unrecoverable (corrupt or foreign) one exits 1, each with a one-line
    diagnosis instead of a traceback.
    """
    import os

    if not os.path.isdir(directory):
        return (
            f"error: --recover directory {directory!r} does not exist; "
            "create an empty directory for the crash demo, or point at an "
            "existing durable deployment",
            2,
        )
    if os.listdir(directory):
        return _recover_existing(directory)
    transcript, recovered = _recover_demo(directory, seed)
    return transcript, 0 if recovered else 1


def _recover_any(directory: str, programs: list):
    """Recover whatever layout is on disk: ``shard-NN`` subdirectories mean
    a sharded deployment, anything else the scalar one."""
    from .core import LitmusSession, ShardedSession
    from .db.wal import list_shard_directories

    if list_shard_directories(directory):
        return ShardedSession.recover(directory, programs)
    return LitmusSession.recover(directory, programs)


def _recover_existing(directory: str) -> tuple[str, int]:
    """Real recovery of a non-empty durability directory; report or fail."""
    from .errors import ReproError

    try:
        session = _recover_any(directory, [_demo_transfer()])
    except ReproError as exc:
        return (
            f"error: recovery from {directory!r} failed: {exc}",
            1,
        )
    except OSError as exc:
        return (f"error: cannot read {directory!r}: {exc}", 1)
    session.close()
    xshard = getattr(session, "xshard_report", None)
    if xshard is None:
        reports = [("", session.recovery_report)]
        lines = [f"Recovered durable deployment at {directory!r}"]
    else:
        reports = [
            (f"shard {index} ", report)
            for index, report in enumerate(session.recovery_reports)
        ]
        lines = [
            f"Recovered durable deployment at {directory!r} "
            f"({len(reports)} shards)"
        ]
    for label, report in reports:
        lines += [
            f"  {label}checkpoint : seq {report.checkpoint_seq}",
            f"  {label}replayed   : {report.replayed_batches} batch(es) "
            f"(tip seq {report.last_seq}), {report.changed_keys} key(s) changed",
            f"  {label}accumulator: {report.accumulator_path}, "
            f"{report.primes_hashed} prime(s) hashed",
            f"  {label}repaired   : {report.truncations} torn tail(s), "
            f"{report.truncated_bytes} byte(s), "
            f"{report.dropped_segments} dropped segment(s)",
            f"  {label}digest     : {report.digest:#x}",
            f"  {label}duration   : {report.duration_seconds:.3f}s",
        ]
    if xshard is not None:
        lines.append(
            f"  cross-shard: {xshard.rounds} round(s), {xshard.in_doubt} in "
            f"doubt — {xshard.committed} committed, {xshard.aborted} "
            f"aborted, {xshard.rolled_forward} rolled forward, "
            f"{xshard.truncated_records} WAL record(s) truncated"
        )
    return "\n".join(lines), 0


def _scrub_cmd(directory: str, repair: bool = True) -> tuple[str, int]:
    """Dispatch ``--scrub``: verify (and repair) a durability directory.

    Exit codes mirror ``--recover``: 2 for a missing directory, 1 when
    damage remains in place after the pass (an unrepairable checkpoint
    pair, segment/journal corruption that recovery must truncate), 0 for
    a clean or fully healed directory.
    """
    import os

    from .db.scrub import scrub_directory

    if not os.path.isdir(directory):
        return (
            f"error: --scrub directory {directory!r} does not exist; "
            "point at a durable deployment's directory",
            2,
        )
    report = scrub_directory(directory, repair=repair)
    lines = [
        f"Scrubbed durability directory {directory!r}"
        + ("" if repair else " (audit only)"),
        f"  {report.summary()}",
    ]
    for finding in report.findings:
        lines.append(
            f"  [{finding.action}] {finding.kind} "
            f"{os.path.basename(finding.path)}: {finding.problem}"
        )
    return "\n".join(lines), 0 if report.ok else 1


def _recover_demo(directory: str, seed: int) -> tuple[str, bool]:
    """Crash a durable run mid-flight, tear the WAL, restart, recover."""
    from .core import DurabilityConfig, LitmusConfig, LitmusSession
    from .crypto.rsa_group import default_group
    from .errors import SimulatedCrash
    from .faults import CrashPoint, FaultPlan, TornWrite

    transfer = _demo_transfer()
    group = default_group(bits=512)
    lines = [f"Crash-recovery run — directory {directory!r}, seed {seed}"]

    # Phase 1: a durable deployment that dies mid-run.  The crash fires at
    # the after-log stage of the third batch: its record is on the platter,
    # the acknowledgement never happens.
    plan = FaultPlan(CrashPoint("after-log", skip=2), seed=seed)
    session = LitmusSession.create(
        initial={("acct", i): 100 for i in range(8)},
        config=LitmusConfig(**_DEMO_CONFIG),
        group=group,
        fault_plan=plan,
        durability=DurabilityConfig(directory=directory),
        checkpoint_every=2,
    )
    acked_digests: list[int] = []
    try:
        for i in range(6):
            session.submit(f"user{i % 3}", transfer, src=i, dst=(i + 1) % 8, amount=5)
            assert session.flush().accepted
            acked_digests.append(session.digest)
    except SimulatedCrash as exc:
        lines.append(f"  crash    : {exc}")
    else:
        return "\n".join(lines + ["  crash    : never fired — FAILED"]), False
    lines.append(f"  acked    : {len(acked_digests)} batch(es) acknowledged pre-crash")

    # Phase 2: the crash left a partial record behind (torn write).
    lines.append(f"  damage   : {TornWrite().apply(directory)}")

    # Phase 3: a fresh process recovers from the directory alone.
    recovered_session = LitmusSession.recover(directory, [transfer], group=group)
    report = recovered_session.recovery_report
    lines.append(
        f"  recovery : checkpoint seq {report.checkpoint_seq}, replayed "
        f"{report.replayed_batches} batch(es) changing {report.changed_keys} "
        f"key(s), accumulator {report.accumulator_path} hashing "
        f"{report.primes_hashed} prime(s), repaired {report.truncations} "
        f"torn tail(s) ({report.truncated_bytes} bytes) in "
        f"{report.duration_seconds:.3f}s"
    )
    digest_ok = (
        not acked_digests or acked_digests[-1] == recovered_session.digest
    )
    lines.append(
        f"  digests  : rebuilt {recovered_session.digest:#x} "
        f"{'==' if digest_ok else '!='} last acknowledged "
        f"{(acked_digests[-1] if acked_digests else recovered_session.digest):#x}"
    )

    # Phase 4: liveness — the recovered deployment keeps verifying.
    recovered_session.submit("user0", transfer, src=0, dst=1, amount=5)
    liveness = recovered_session.flush().accepted
    balance = sum(recovered_session.server.db.get(("acct", i)) for i in range(8))
    recovered_session.close()
    lines.append(f"  liveness : post-recovery batch {'ACCEPTED' if liveness else 'REJECTED'}")
    lines.append(f"  oracle   : total balance conserved: {balance == 800}")
    verdict = bool(digest_ok and liveness and balance == 800 and acked_digests)
    lines.append(f"  verdict  : {'RECOVERED' if verdict else 'FAILED'}")
    return "\n".join(lines), verdict


def _chaos_demo(seed: int, shards: int) -> tuple[str, int]:
    """One seeded nemesis run against a durable sharded deployment."""
    import tempfile

    from .faults.nemesis import generate_schedule, run_nemesis
    from .obs.metrics import get_metrics

    shards = shards if shards > 1 else 3
    steps = generate_schedule(seed=seed, steps=12, num_shards=shards)
    lines = [
        f"Nemesis chaos run — seed {seed}, {shards} shards, "
        f"{len(steps)} steps"
    ]
    for index, step in enumerate(steps):
        detail = ""
        if step.kind == "crash":
            detail = f" [shard {step.shard}, {step.stage}" + (
                f", +{step.corruption}]" if step.corruption else "]"
            )
        lines.append(f"  step {index:2d} : {step.kind}{detail}")
    with tempfile.TemporaryDirectory(prefix="litmus-nemesis-") as directory:
        report = run_nemesis(
            steps,
            directory=directory,
            seed=seed,
            num_shards=shards,
            registry=get_metrics(),
        )
    lines.append(
        f"  outcome : {report.ops} ops ({report.acked} acked), "
        f"{report.crashes} crash(es), {report.recoveries} recover(ies), "
        f"{report.injected} fault(s) injected, "
        f"{report.in_doubt_resolved} in-doubt cross-shard round(s) resolved"
    )
    for failure in report.invariant_failures:
        lines.append(f"  FAILED  : {failure}")
    lines.append(
        "  verdict : "
        + ("ALL INVARIANTS HELD" if report.ok else "INVARIANT VIOLATION")
    )
    return "\n".join(lines), 0 if report.ok else 1


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address {address!r} is not of the form host:port")
    return host, int(port)


def _serve(address: str, data_dir: str | None, shards: int) -> int:
    """Run the networked service until SIGTERM/SIGINT, then drain."""
    import os
    import signal

    from .core import (
        DurabilityConfig,
        LitmusConfig,
        LitmusSession,
        ShardedSession,
    )
    from .crypto.rsa_group import default_group
    from .errors import ReproError
    from .net import LitmusService, ServiceConfig

    try:
        host, port = _parse_address(address)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if shards < 1:
        print(f"error: --shards must be >= 1, got {shards}", file=sys.stderr)
        return 2
    transfer = _demo_transfer()
    durability = None
    if data_dir is not None:
        os.makedirs(data_dir, exist_ok=True)
        durability = DurabilityConfig(directory=data_dir)
    initial = {("acct", i): 100 for i in range(8)}
    try:
        if durability is not None and os.listdir(data_dir):
            session = _recover_any(data_dir, [transfer])
            recovered = getattr(session, "num_shards", 1)
            if recovered != shards and shards != 1:
                session.close()
                print(
                    f"error: {data_dir!r} holds a {recovered}-shard deployment; "
                    f"--shards {shards} cannot change that",
                    file=sys.stderr,
                )
                return 2
            shards = recovered
        elif shards > 1:
            session = ShardedSession.create(
                initial=initial,
                config=LitmusConfig(**_DEMO_CONFIG),
                num_shards=shards,
                durability=durability,
            )
        else:
            session = LitmusSession.create(
                initial=initial,
                config=LitmusConfig(**_DEMO_CONFIG),
                group=default_group(bits=512),
                durability=durability,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = LitmusService(
        session,
        programs=[transfer],
        config=ServiceConfig(host=host, port=port, num_shards=shards),
    )
    try:
        bound = service.start()
    except OSError as exc:
        session.close()
        print(
            f"error: cannot listen on {host}:{port}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2

    def _drain(_signum, _frame):
        print("draining: finishing in-flight batches, refusing new work ...")
        service.shutdown()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(
        f"litmus service listening on {bound[0]}:{bound[1]} "
        f"(durability: {data_dir or 'off'}, shards: {shards}); "
        "SIGTERM drains gracefully"
    )
    service.serve_forever()
    print("service stopped; WAL synced")
    return 0


def _connect_demo(address: str) -> int:
    """Client quickstart: a few verified transfers through RemoteSession."""
    from .core import RetryPolicy
    from .errors import NetworkError
    from .net import RemoteSession

    try:
        host, port = _parse_address(address)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        client = RemoteSession(
            host,
            port,
            retry_policy=RetryPolicy(max_attempts=5, backoff=0.05, jitter=0.1),
            connect_timeout=5.0,
        )
    except NetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        tickets = [
            client.submit("demo", "transfer", src=i, dst=(i + 1) % 8, amount=1)
            for i in range(4)
        ]
        result = client.flush(timeout=60.0)
        print(
            f"flushed {result.num_txns} txn(s) in {result.attempts} attempt(s): "
            f"{'ACCEPTED' if result.accepted else 'REJECTED ' + result.reason}"
        )
        for ticket in tickets:
            print(f"  txn {ticket.txn_id}: outputs {ticket.outputs}")
        print(f"  verified digest: {client.digest:#x}")
        status = client.status()
        print(
            f"  server: {status['connections']} connection(s), "
            f"queue depth {status['queued']}, "
            f"{status['batches_verified']} batch(es) verified"
        )
    except NetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0 if result.accepted else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Litmus paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(_COMMANDS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=800,
        help="size of the real scaled executions feeding the model",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the scripted adversarial demo (inject, reject, rollback, "
        "resync, retry) instead of a figure",
    )
    parser.add_argument(
        "--fault-kind",
        choices=_FAULT_KINDS,
        default="corrupt_proof",
        help="which fault class the --faults demo injects",
    )
    parser.add_argument(
        "--recover",
        metavar="DIR",
        default=None,
        help="run the crash-recovery demo (durable session, injected crash, "
        "torn WAL tail, restart + recover) in a fresh directory DIR",
    )
    parser.add_argument(
        "--scrub",
        metavar="DIR",
        default=None,
        help="scrub the durability directory DIR: re-verify every "
        "checkpoint checksum, accumulator and sealed-segment CRC, repair rotted "
        "checkpoints from their mirrors, quarantine doubly-damaged "
        "pairs; exits 1 when unrepaired damage remains",
    )
    parser.add_argument(
        "--audit-only",
        action="store_true",
        help="make --scrub report damage without repairing or "
        "quarantining anything",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run a seeded nemesis chaos schedule against a durable sharded "
        "session (crashes mid cross-shard round, WAL corruption, recovery "
        "+ ACID invariant checks); exits non-zero on any violation",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="seed of the --faults / --recover / --chaos fault schedule",
    )
    parser.add_argument(
        "--serve",
        metavar="HOST:PORT",
        default=None,
        help="run the networked Litmus service on HOST:PORT until "
        "SIGTERM/SIGINT, then drain gracefully",
    )
    parser.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="durability directory for --serve (WAL + checkpoints); "
        "recovers automatically when non-empty",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="S",
        help="partition the --serve keyspace across S independently "
        "verified engines (default: 1, the unsharded engine)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="run the client quickstart against a --serve instance",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="append the final metrics snapshot (JSON lines) to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="append every finished span of this run (JSON lines) to PATH",
    )
    args = parser.parse_args(argv)
    if args.faults:
        transcript, recovered = _faults_demo(args.fault_kind, args.seed)
        print(transcript)
        _export_observability(args.metrics_out, args.trace_out)
        return 0 if recovered else 1
    if args.recover:
        transcript, code = _recover_cmd(args.recover, args.seed)
        print(transcript, file=sys.stderr if code == 2 else sys.stdout)
        _export_observability(args.metrics_out, args.trace_out)
        return code
    if args.scrub:
        transcript, code = _scrub_cmd(args.scrub, repair=not args.audit_only)
        print(transcript, file=sys.stderr if code == 2 else sys.stdout)
        _export_observability(args.metrics_out, args.trace_out)
        return code
    if args.chaos:
        transcript, code = _chaos_demo(args.seed, args.shards)
        print(transcript)
        _export_observability(args.metrics_out, args.trace_out)
        return code
    if args.serve:
        return _serve(args.serve, args.data_dir, args.shards)
    if args.connect:
        code = _connect_demo(args.connect)
        _export_observability(args.metrics_out, args.trace_out)
        return code
    if args.experiment is None:
        parser.error(
            "an experiment (or --faults / --recover / --chaos / --serve "
            "/ --connect) is required"
        )
    if args.experiment == "all":
        for name in ("constants", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "elle"):
            print(f"\n{'=' * 72}")
            print(_COMMANDS[name](args.scale))
    else:
        print(_COMMANDS[args.experiment](args.scale))
    _export_observability(args.metrics_out, args.trace_out)
    return 0


def _export_observability(metrics_out: str | None, trace_out: str | None) -> None:
    """Write the run's metrics/spans as JSON lines (the --*-out flag pair)."""
    if metrics_out:
        JsonLinesExporter(metrics_out).export((), get_metrics().snapshot())
        print(f"[obs] metrics snapshot written to {metrics_out}", file=sys.stderr)
    if trace_out:
        JsonLinesExporter(trace_out).export(get_tracer().finished(), {})
        print(
            f"[obs] {len(get_tracer().finished())} span(s) written to {trace_out}",
            file=sys.stderr,
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
