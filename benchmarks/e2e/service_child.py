"""The service process of the e2e benchmark, driven by ``run.py``.

Builds (``--mode create``) or recovers (``--mode recover``) the workload's
session in a cold process, puts a ``LitmusService`` on a free loopback port
and serves until SIGTERM, which drains through ``LitmusService.shutdown``.
``python -m repro --serve`` cannot stand in: its table is a fixed 8 rows.

Control pipe: one JSON object per line on stdout; the commands ``stats``,
``probe`` and ``spans`` on stdin.  The first line is the ``ready`` event; the
last, after a drain, is the ``exit`` event.  Stdin reaching end of file means
``run.py`` is gone, and the child exits at once so that no orphan is left
behind.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.core import (  # noqa: E402
    DurabilityConfig,
    LitmusConfig,
    LitmusSession,
    MemoryIntegrityProvider,
    ShardedSession,
)
from repro.crypto.backend import get_backend  # noqa: E402
from repro.crypto.rsa_group import RSAGroup  # noqa: E402
from repro.net import LitmusService, ServiceConfig  # noqa: E402
from repro.obs import Tracer, get_metrics  # noqa: E402

from workloads import (  # noqa: E402
    CHECKPOINT_EVERY,
    ENGINE,
    FSYNC,
    GROUP_BITS,
    GROUP_SEED,
    WORKLOADS,
    probe_speed,
)


def open_session(workload, mode: str, directory: str, tracer):
    """Create or recover the session; returns it with the seconds the call took."""
    sharded = workload.shards > 1
    cls = ShardedSession if sharded else LitmusSession
    start = perf_counter()
    if mode == "recover":
        session = cls.recover(
            directory,
            workload.programs(),
            checkpoint_every=CHECKPOINT_EVERY,
            tracer=tracer,
        )
    else:
        session = cls.create(
            initial=workload.initial(),
            config=LitmusConfig(**ENGINE),
            group=RSAGroup.generate(bits=GROUP_BITS, seed=GROUP_SEED),
            checkpoint_every=CHECKPOINT_EVERY,
            durability=DurabilityConfig(directory=directory, fsync=FSYNC),
            tracer=tracer,
            **({"num_shards": workload.shards} if sharded else {}),
        )
    return session, perf_counter() - start


def recovery_summary(session) -> dict:
    """What ``recover`` reported: replayed batches and unresolved cross-shard rounds."""
    reports = getattr(session, "recovery_reports", None) or [session.recovery_report]
    summary = {
        "replayed_batches": sum(r.replayed_batches for r in reports),
        "pending_rounds": 0,
    }
    xshard = getattr(session, "xshard_report", None)
    if xshard is not None:
        summary["pending_rounds"] = xshard.in_doubt - (
            xshard.committed + xshard.aborted + xshard.rolled_forward
        )
    return summary


def balance(session, workload) -> int | None:
    """Sum of the account balances, each read from the shard that owns it."""
    if workload.kind != "transfer":
        return None
    return sum(
        session.shards[session.shard_map.shard_of(key)].server.db.get(key)
        for key in workload.initial()
    )


def stats(session, workload) -> dict:
    metrics = {}
    for name, entry in get_metrics().snapshot().items():
        if entry["type"] == "histogram":
            metrics[name] = {"count": entry["count"], "sum": entry["sum"]}
        else:
            metrics[name] = entry["value"]
    with open("/proc/self/status") as status:
        hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))
    return {
        "metrics": metrics,
        "vm_hwm_kb": hwm_kb,
        "cpu_s": process_time(),
        "cache": MemoryIntegrityProvider.cache_stats(),
        "digest": list(session.digest),
        "balance": balance(session, workload),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, help="durability directory")
    parser.add_argument("--mode", required=True, choices=("create", "recover"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--serve", type=int, choices=(0, 1), default=1,
        help="0: report the ready event, close the session and exit",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    records = tracer = None
    if args.trace:
        import trace as tracing

        records = tracing.install()
        tracer = Tracer(maxlen=10_000_000)

    out_lock = threading.Lock()

    def emit(event: str, **fields) -> None:
        with out_lock:
            sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
            sys.stdout.flush()

    def spans() -> list:
        return tracing.drain(records, tracer) if args.trace else []

    probes = [probe_speed(), probe_speed()]
    session, call_seconds = open_session(workload, args.mode, args.dir, tracer)
    probes += [probe_speed(), probe_speed()]
    ready = {
        "call_s": call_seconds,
        "probes": probes,  # the machine's speed just before and just after the call
        "clock": perf_counter(),
        "backend": get_backend().name,
        "digest": list(session.digest),
    }
    if args.mode == "recover":
        ready["recovery"] = recovery_summary(session)
    if not args.serve:
        emit("ready", **ready)
        session.close()
        return 0

    service = LitmusService(
        session,
        programs=workload.programs(),
        config=ServiceConfig(port=0, num_shards=workload.shards),
    )
    ready["port"] = service.start()[1]
    signal.signal(signal.SIGTERM, lambda _signum, _frame: service.shutdown())

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                emit("stats", **stats(session, workload))
            elif command == "probe":
                emit("probe", seconds=probe_speed())
            elif command == "spans":
                emit("spans", rows=spans())
        os._exit(1)  # run.py is gone

    threading.Thread(target=control, name="e2e-control", daemon=True).start()
    emit("ready", **ready)
    service.serve_forever()
    emit("exit", rows=spans())
    return 0


if __name__ == "__main__":
    sys.exit(main())
