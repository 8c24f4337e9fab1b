"""Network service benchmark: RTT and flush throughput vs client count.

Not a paper figure — this pins the cost of the ``repro.net`` boundary
added around the verifying session.  A live :class:`~repro.net.LitmusService`
(threaded sockets on loopback, single verification worker) serves a swarm
of :class:`~repro.net.RemoteSession` clients.  For each swarm size it
reports ping round-trip latency (the pure wire + dispatch cost, no
verification) and end-to-end flush throughput (submit + flush + verify +
resolve across all clients), plus the admission-queue story: ops executed,
sheds, and queue-time percentiles from the server's own ``net.*`` metrics.
Throughput should stay roughly flat as clients grow — the single worker
serializes verification, so added clients buy concurrency of *waiting*,
not of proving — while RTT stays in the sub-millisecond loopback range.

Run under pytest like the figure benchmarks::

    pytest benchmarks/bench_network.py --benchmark-only

or standalone — CI does this so ``check_metrics_schema.py --require`` can
pin the net.* metric names against a real export::

    PYTHONPATH=src python benchmarks/bench_network.py --metrics-out net.jsonl
"""

from __future__ import annotations

import threading
import time

from repro.bench import format_table
from repro.core import LitmusConfig, LitmusSession, RetryPolicy
from repro.crypto.rsa_group import default_group
from repro.net import LitmusService, RemoteSession, ServiceConfig
from repro.obs.metrics import MetricsRegistry
from repro.vc.program import (
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

NUM_ACCOUNTS = 8
PINGS = 50
ROUNDS = 3
TXNS_PER_ROUND = 2
CLIENT_COUNTS = (1, 2, 4)

TRANSFER = Program(
    name="bench-net-transfer",
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
        Emit(Add(ReadVal("s"), ReadVal("d"))),
    ),
)

CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=2, batches_per_piece=2, prime_bits=64
)


def _start_service(group, registry: MetricsRegistry) -> LitmusService:
    session = LitmusSession.create(
        initial={("acct", i): 100 for i in range(NUM_ACCOUNTS)},
        config=CONFIG,
        group=group,
        registry=registry,
    )
    service = LitmusService(
        session,
        programs=[TRANSFER],
        config=ServiceConfig(queue_limit=128),
        registry=registry,
    )
    service.start()
    return service


def _client_loop(client: RemoteSession, errors: list[BaseException]) -> None:
    try:
        for round_index in range(ROUNDS):
            for txn in range(TXNS_PER_ROUND):
                src = (round_index + txn) % NUM_ACCOUNTS
                client.submit(
                    "bench", "bench-net-transfer",
                    src=src, dst=(src + 1) % NUM_ACCOUNTS, amount=1,
                )
            result = client.flush(timeout=120.0)
            assert result.accepted, result.reason
    except BaseException as exc:  # noqa: BLE001 — surfaced by the caller
        errors.append(exc)


def run_network_bench(
    client_counts=CLIENT_COUNTS, group=None, registry: MetricsRegistry | None = None
) -> list[dict]:
    """One row per swarm size: ping RTT and end-to-end flush throughput."""
    group = group if group is not None else default_group(bits=512)
    rows = []
    for num_clients in client_counts:
        run_registry = registry if registry is not None else MetricsRegistry()
        service = _start_service(group, run_registry)
        host, port = service.address
        clients = [
            RemoteSession(
                host,
                port,
                client_id=f"bench-{i}",
                retry_policy=RetryPolicy(max_attempts=8, backoff=0.02),
                registry=run_registry,
            )
            for i in range(num_clients)
        ]
        try:
            # Pure wire + dispatch cost: median of PINGS round trips.
            rtts = []
            for _ in range(PINGS):
                start = time.perf_counter()
                clients[0].ping()
                rtts.append(time.perf_counter() - start)
            rtts.sort()

            errors: list[BaseException] = []
            threads = [
                threading.Thread(target=_client_loop, args=(client, errors))
                for client in clients
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            if errors:
                raise errors[0]

            total_txns = num_clients * ROUNDS * TXNS_PER_ROUND
            op_seconds = run_registry.histogram("net.op_seconds")
            rows.append(
                {
                    "clients": num_clients,
                    "ping_p50_us": round(rtts[len(rtts) // 2] * 1e6),
                    "ping_p95_us": round(rtts[int(len(rtts) * 0.95)] * 1e6),
                    "txns": total_txns,
                    "txns_per_s": round(total_txns / elapsed, 1),
                    "ops": op_seconds.count,
                    "op_p95_ms": round(op_seconds.percentile(95) * 1e3, 2),
                    "sheds": run_registry.counter("net.sheds").value,
                    "replays": run_registry.counter("net.op_replays").value,
                }
            )
        finally:
            for client in clients:
                try:
                    client.close()
                except Exception:
                    pass
            service.shutdown()
    return rows


def test_network_throughput(benchmark):
    rows = benchmark.pedantic(run_network_bench, iterations=1, rounds=1)
    print("\nNetworked service: RTT and flush throughput vs client count")
    print(format_table(rows))
    for row in rows:
        # Loopback pings must be far below the verification timescale, and
        # every submitted transaction must have committed.
        assert row["ping_p50_us"] < 100_000
        assert row["txns"] == row["clients"] * ROUNDS * TXNS_PER_ROUND
        assert row["txns_per_s"] > 0


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    from repro.obs import JsonLinesExporter, get_metrics

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=list(CLIENT_COUNTS),
        metavar="N",
    )
    parser.add_argument("--metrics-out", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    if args.metrics_out:
        # Run against the process-global registry so the export pins the
        # net.* metric names for check_metrics_schema.py --require.
        rows = run_network_bench(client_counts=args.clients, registry=get_metrics())
    else:
        rows = run_network_bench(client_counts=args.clients)
    print("Networked service: RTT and flush throughput vs client count")
    print(format_table(rows))
    if args.metrics_out:
        JsonLinesExporter(args.metrics_out).export((), get_metrics().snapshot())
        print(f"[obs] metrics snapshot written to {args.metrics_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
