"""Sharded verification benchmark: flush throughput vs shard count.

Not a paper figure — this pins the scaling story of ``repro.core.sharding``
(DESIGN.md §14).  Two complementary measurements:

**Modeled scaling** prices the paper-scale workload on S independent
engines through the same calibrated cost model the figures use
(:mod:`repro.bench.model`): the single-shard fraction of a verification
batch splits evenly across shards and runs in parallel (wall-clock = the
slowest shard, i.e. one engine pricing ``ceil(n/S)`` transactions), while
the cross-shard fraction pays the serial coordinator path — each
cross-shard transaction's apply batch lands on both participant shards,
priced as one engine verifying ``2 * n_cross`` transactions after the
parallel phase.  At 0% cross-shard traffic S=4 must deliver at least
2.5x the S=1 flush throughput (the acceptance bar; sublinearity comes
from fixed per-batch overheads amortizing worse at ``n/S``).

**Live fan-out** runs a real :class:`~repro.core.ShardedSession` per shard
count on a mixed single/cross workload and reports wall-clock plus the
``shard.*`` metric family (``shard.single_txns``, ``shard.cross_txns``,
``shard.flush_fanout``, ``shard.cross_rounds``, ...) so CI can pin the
metric names against a real export.

Run under pytest like the figure benchmarks::

    pytest benchmarks/bench_sharding.py --benchmark-only

or standalone — CI does this so ``check_metrics_schema.py --require`` can
pin the shard.* metric names::

    PYTHONPATH=src python benchmarks/bench_sharding.py --metrics-out shard.jsonl
"""

from __future__ import annotations

import math
import time

from repro.bench import format_table
from repro.bench.figures import ycsb_profile
from repro.bench.model import LitmusModel, zipf_contention_scale
from repro.core import LitmusConfig, ShardedSession
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

SHARD_COUNTS = (1, 2, 4, 8)
CROSS_RATIOS = (0.0, 0.1)
NUM_TXNS = 1_310_720
PROCESSING_BATCH = 81_920
NUM_PROVERS = 8
MODEL_SCALE = 800

LIVE_SHARDS = (1, 2, 4)
LIVE_ACCOUNTS = 16
LIVE_TXNS = 12

TRANSFER = Program(
    name="bench-shard-transfer",
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


def run_sharding_model(
    shard_counts=SHARD_COUNTS,
    cross_ratios=CROSS_RATIOS,
    num_txns=NUM_TXNS,
    scale=MODEL_SCALE,
) -> list[dict]:
    """One row per (shards, cross_ratio): modeled flush wall and throughput."""
    profile = ycsb_profile(0.6, scale)
    model = LitmusModel(profile)
    contention = zipf_contention_scale(0.6, 4096)
    rows = []
    for num_shards in shard_counts:
        for cross in cross_ratios:
            n_cross = round(num_txns * cross)
            n_single = num_txns - n_cross
            wall = 0.0
            if n_single:
                # Even partition: every shard prices ceil(n_single/S) and
                # they verify concurrently, so the parallel phase's wall is
                # one engine's run at the per-shard load.
                per_shard = math.ceil(n_single / num_shards)
                wall += model.litmus_run(
                    per_shard,
                    num_provers=NUM_PROVERS,
                    cc="dr",
                    processing_batch_size=PROCESSING_BATCH,
                    contention_scale=contention,
                ).total_seconds
            if n_cross:
                # Serial coordinator path: each cross-shard apply executes
                # on both participants, and the rank-ordered rounds do not
                # overlap the parallel phase.
                wall += model.litmus_run(
                    2 * n_cross,
                    num_provers=NUM_PROVERS,
                    cc="dr",
                    processing_batch_size=PROCESSING_BATCH,
                    contention_scale=contention,
                ).total_seconds
            rows.append(
                {
                    "shards": num_shards,
                    "cross_pct": round(cross * 100),
                    "wall_s": round(wall, 2),
                    "txns_per_s": round(num_txns / wall, 1),
                }
            )
    return rows


def scaling_ratio(rows: list[dict], shards: int = 4, cross_pct: int = 0) -> float:
    """Throughput ratio of *shards* over the single-engine row."""

    def tput(s: int) -> float:
        for row in rows:
            if row["shards"] == s and row["cross_pct"] == cross_pct:
                return row["txns_per_s"]
        raise ValueError(f"no row for shards={s} cross={cross_pct}")

    return tput(shards) / tput(1)


def scaling_metrics(shards: list[int], cross_ratios: list[float]) -> dict[str, float]:
    """Modeled S=4 throughput at 0% cross-shard and its ratio over S=1."""
    rows = run_sharding_model(
        shard_counts=tuple(shards), cross_ratios=tuple(cross_ratios)
    )
    top = next(r for r in rows if r["shards"] == 4 and r["cross_pct"] == 0)
    return {
        "throughput": float(top["txns_per_s"]),
        "scaling_x": round(scaling_ratio(rows), 3),
    }


def run_live_sharding(
    shard_counts=LIVE_SHARDS, registry: MetricsRegistry | None = None
) -> list[dict]:
    """Real ShardedSession runs: one row per shard count, mixed workload."""
    counters = (
        "shard.single_txns",
        "shard.cross_txns",
        "shard.flush_fanout",
        "shard.cross_rounds",
        "shard.reserve_conflicts",
    )
    rows = []
    for num_shards in shard_counts:
        run_registry = registry if registry is not None else MetricsRegistry()
        # A shared registry (the --metrics-out path) accumulates across
        # shard counts; report per-run deltas either way.
        before = {name: run_registry.counter(name).value for name in counters}
        session = ShardedSession.create(
            initial={("acct", i): 100 for i in range(LIVE_ACCOUNTS)},
            config=CONFIG,
            num_shards=num_shards,
            registry=run_registry,
        )
        try:
            for i in range(LIVE_TXNS):
                session.submit(
                    f"bench{i % 3}",
                    TRANSFER,
                    src=i % LIVE_ACCOUNTS,
                    dst=(i + 3) % LIVE_ACCOUNTS,
                    amount=1,
                )
            start = time.perf_counter()
            result = session.flush()
            elapsed = time.perf_counter() - start
            assert result.accepted, result.reason
            total = sum(
                session.shards[session.shard_map.shard_of(("acct", i))].server.db.get(
                    ("acct", i)
                )
                for i in range(LIVE_ACCOUNTS)
            )
            assert total == 100 * LIVE_ACCOUNTS, "balance not conserved"
            delta = {
                name: run_registry.counter(name).value - before[name]
                for name in counters
            }
            rows.append(
                {
                    "shards": num_shards,
                    "txns": LIVE_TXNS,
                    "wall_ms": round(elapsed * 1e3, 1),
                    "single": delta["shard.single_txns"],
                    "cross": delta["shard.cross_txns"],
                    "fanout": delta["shard.flush_fanout"],
                    "cross_rounds": delta["shard.cross_rounds"],
                    "conflicts": delta["shard.reserve_conflicts"],
                }
            )
        finally:
            session.close()
    return rows


def test_sharding_scaling(benchmark):
    rows = benchmark.pedantic(run_sharding_model, iterations=1, rounds=1)
    print("\nSharded verification: modeled flush throughput vs shard count")
    print(format_table(rows))
    # The acceptance bar: 4 shards buy at least 2.5x at 0% cross-shard.
    ratio = scaling_ratio(rows, shards=4, cross_pct=0)
    assert ratio >= 2.5, f"S=4 scaling {ratio:.2f}x below the 2.5x bar"
    for row in rows:
        assert row["txns_per_s"] > 0
    # Cross-shard traffic must cost throughput, never gain it for free.
    for num_shards in SHARD_COUNTS:
        per_shard = [r for r in rows if r["shards"] == num_shards]
        by_cross = sorted(per_shard, key=lambda r: r["cross_pct"])
        for lower, higher in zip(by_cross, by_cross[1:]):
            assert higher["txns_per_s"] <= lower["txns_per_s"]


def test_sharding_live(benchmark):
    rows = benchmark.pedantic(run_live_sharding, iterations=1, rounds=1)
    print("\nSharded verification: live mixed-workload fan-out")
    print(format_table(rows))
    for row in rows:
        assert row["single"] + row["cross"] == LIVE_TXNS
        if row["shards"] == 1:
            assert row["cross"] == 0  # one shard: nothing can cross


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    from repro.obs import JsonLinesExporter, get_metrics

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards", type=int, nargs="+", default=list(SHARD_COUNTS), metavar="S"
    )
    parser.add_argument("--metrics-out", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    model_rows = run_sharding_model(shard_counts=tuple(args.shards))
    print("Sharded verification: modeled flush throughput vs shard count")
    print(format_table(model_rows))
    if args.metrics_out:
        # The live runs go against the process-global registry so the
        # export pins the shard.* metric names for check_metrics_schema.py.
        live_rows = run_live_sharding(registry=get_metrics())
    else:
        live_rows = run_live_sharding()
    print("\nSharded verification: live mixed-workload fan-out")
    print(format_table(live_rows))
    if args.metrics_out:
        JsonLinesExporter(args.metrics_out).export((), get_metrics().snapshot())
        print(f"[obs] metrics snapshot written to {args.metrics_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
