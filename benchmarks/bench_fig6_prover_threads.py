"""Figure 6: Litmus-DRM throughput and latency vs number of prover threads.

Expected shape (paper): throughput scales well up to ~40 threads and
plateaus beyond ~60 (the serial trace-processing prefix bounds the
speedup); average latency drops steeply (514.3 s at few threads to ~100 s
past 40) and then flattens.

Two modes are exercised (see benchmarks/README.md, "Real vs. modeled
pipelining"):

- the **modeled** curve runs the calibrated cost model over real constraint
  counts at the paper's scale (``test_fig6_prover_threads``);
- the **real** curve runs the actual concurrent prover pool on a small
  batch and reports measured wall-clock per stage alongside the modeled
  schedule built from those same measured piece costs
  (``test_fig6_real_pipeline``).
"""

from __future__ import annotations

import os

from repro import LitmusClient, LitmusConfig, LitmusServer
from repro.bench import fig6_prover_threads, format_table
from repro.crypto import RSAGroup
from repro.db import Transaction
from repro.obs import (
    ConsoleSummaryExporter,
    JsonLinesExporter,
    Tracer,
    get_metrics,
    get_tracer,
    set_tracer,
)
from repro.sim.scheduler import ProverTask, schedule_tasks, serial_seconds
from repro.vc import Program
from repro.vc.program import Add, Const, Emit, KeyTemplate, Param, ReadStmt, ReadVal, WriteStmt

THREADS = (1, 10, 20, 40, 60, 80)
NUM_TXNS = 2_621_440
SCALE = 800

REAL_THREADS = (1, 2, 4)
REAL_TXNS = 16  # -> 8 pieces at batches_per_piece=1, processing_batch_size=2

_INCREMENT = Program(
    name="fig6-increment",
    params=("k",),
    statements=(
        ReadStmt("v", KeyTemplate(("row", Param("k")))),
        WriteStmt(KeyTemplate(("row", Param("k"))), Add(ReadVal("v"), Const(1))),
        Emit(ReadVal("v")),
    ),
)


def test_fig6_prover_threads(benchmark):
    rows = benchmark.pedantic(
        fig6_prover_threads,
        kwargs={"thread_counts": THREADS, "num_txns": NUM_TXNS, "scale": SCALE},
        iterations=1,
        rounds=1,
    )
    print("\nFigure 6 — Litmus-DRM vs prover threads")
    print(format_table(rows))

    throughput = [r["throughput"] for r in rows]
    latency = [r["latency"] for r in rows]
    # Monotone scaling with diminishing returns.
    assert all(b >= a for a, b in zip(throughput, throughput[1:]))
    gain_low = throughput[2] / throughput[0]  # 1 -> 20 threads
    gain_high = throughput[-1] / throughput[-2]  # 60 -> 80 threads
    assert gain_low > 4, "early scaling should be near-linear"
    assert gain_high < 1.5, "the curve must plateau past ~60 threads"
    # Latency drops sharply and flattens.
    assert latency[0] > 3 * latency[-1]
    assert latency[-2] / latency[-1] < 1.8


def test_fig6_real_pipeline(benchmark):
    """Thread-scaling with the *real* concurrent prover pool.

    For each worker count the same batch is executed end to end; the table
    reports measured wall-clock of the prove stage, the summed per-piece
    prover work, the observed overlap factor, and the modeled makespan a
    list scheduler predicts from the *measured* per-piece costs.  On a
    multi-core box the measured prove wall-clock at 4 workers lands well
    under the 1-worker run; on a single core the observed overlap factor
    stays near 1 while the modeled column still shows the scaling the
    hardware would permit.
    """
    group = RSAGroup.generate(bits=512, seed=b"fig6-real")
    metrics_out = os.environ.get("LITMUS_METRICS_OUT")
    # The process-default tracer is a small ring; the exported spans are
    # every span of this benchmark.
    previous_tracer = set_tracer(Tracer()) if metrics_out else None

    def run_all():
        rows = []
        for threads in REAL_THREADS:
            config = LitmusConfig(
                cc="dr",
                processing_batch_size=2,
                batches_per_piece=1,
                prime_bits=64,
                num_provers=threads,
            )
            server = LitmusServer(initial={}, config=config, group=group)
            client = LitmusClient(group, server.digest, config=config)
            txns = [
                Transaction(i, _INCREMENT, {"k": i}) for i in range(1, REAL_TXNS + 1)
            ]
            response = server.execute_batch(txns)
            verdict = client.verify_response(txns, response)
            assert verdict.accepted, verdict.reason
            timing = response.timing
            work = timing.measured_prover_work_seconds
            per_piece = work / max(1, timing.num_pieces)
            tasks = [
                ProverTask(cost_seconds=per_piece) for _ in range(timing.num_pieces)
            ]
            modeled = schedule_tasks(tasks, threads)
            rows.append(
                {
                    "prover_threads": threads,
                    "pieces": timing.num_pieces,
                    "prove_wall_s": round(timing.measured_prove_wall_seconds, 4),
                    "prover_work_s": round(work, 4),
                    "overlap": round(timing.measured_pipeline_speedup, 2),
                    "modeled_wall_s": round(modeled.makespan_seconds, 4),
                    "modeled_speedup": round(modeled.speedup_over_serial(tasks), 2),
                    "digest": response.final_digest % 100_000,
                }
            )
        return rows

    metrics_before = {
        name: snap.get("value", snap.get("count", 0))
        for name, snap in get_metrics().snapshot().items()
    }
    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    print("\nFigure 6 (real) — measured vs modeled prover-pool scaling")
    print(format_table(rows))

    # Emit the observability layer's view of the same run: counter deltas
    # over the benchmark (cache behaviour, SNARK activity, CC outcomes) plus
    # the usual exporter summary.  LITMUS_METRICS_OUT=path.jsonl additionally
    # writes the full snapshot + this benchmark's span log as JSON lines.
    snapshot = get_metrics().snapshot()
    deltas = {
        name: snap.get("value", snap.get("count", 0)) - metrics_before.get(name, 0)
        for name, snap in snapshot.items()
    }
    interesting = {
        name: delta
        for name, delta in sorted(deltas.items())
        if delta and name.split(".")[0] in ("cache", "snark", "db", "server", "client")
    }
    print("\nFigure 6 (real) — metric deltas over this benchmark")
    print(format_table([{"metric": k, "delta": v} for k, v in interesting.items()]))
    ConsoleSummaryExporter().export((), snapshot)
    if metrics_out:
        JsonLinesExporter(metrics_out).export(get_tracer().finished(), snapshot)
        set_tracer(previous_tracer)
        print(f"[obs] metrics + spans appended to {metrics_out}")
    # The SetupCache must have been exercised by the real pipeline runs.
    assert deltas.get("snark.setup_cache.hits", 0) > 0

    # Correctness invariants hold at every worker count...
    assert len({row["digest"] for row in rows}) == 1
    assert all(row["pieces"] >= 8 for row in rows)
    # ...the modeled schedule built from measured costs scales with threads...
    assert rows[-1]["modeled_speedup"] > rows[0]["modeled_speedup"]
    assert rows[0]["modeled_speedup"] == 1.0
    # ...and on a multi-core box the real prove wall-clock drops too.
    if os.cpu_count() and os.cpu_count() >= 4:
        assert rows[-1]["prove_wall_s"] < rows[0]["prove_wall_s"]


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def fig6_metrics(threads: list[int], num_txns: int, scale: int) -> dict[str, float]:
    """Reduced-scale Fig 6: modeled Litmus-DRM at the top thread count."""
    rows = fig6_prover_threads(
        thread_counts=tuple(threads), num_txns=num_txns, scale=scale
    )
    by_threads = {row["prover_threads"]: row for row in rows}
    top, bottom = max(threads), min(threads)
    return {
        "throughput": by_threads[top]["throughput"],
        "latency": by_threads[top]["latency"],
        "thread_speedup": by_threads[top]["throughput"]
        / by_threads[bottom]["throughput"],
    }
