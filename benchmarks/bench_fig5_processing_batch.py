"""Figure 5: throughput (a) and latency (b) vs DR processing batch size.

Expected shape (paper): the no-verification baseline is roughly flat (its
bottleneck is workload contention) with a latency that *grows* at very
large batches (waiting for the batch to fill/synchronize); the Litmus lines
rise with the processing batch (better aggregation and parallelism), then
fall once the prover is saturated and the oversized batch hurts CC; tiny
batches make latency explode (the scheduler degenerates to sequential).
"""

from __future__ import annotations

from repro.bench import fig5_processing_batch, format_series

SIZES = (32, 3_200, 320_000, 1_000_000)
NUM_TXNS = 1_310_720
SCALE = 800


def test_fig5_processing_batch(benchmark):
    rows = benchmark.pedantic(
        fig5_processing_batch,
        kwargs={
            "processing_batch_sizes": SIZES,
            "num_txns": NUM_TXNS,
            "scale": SCALE,
        },
        iterations=1,
        rounds=1,
    )
    print("\nFigure 5a — throughput (txn/s) vs DR processing batch size")
    print(format_series(rows, x="processing_batch", y="throughput"))
    print("\nFigure 5b — latency (s) vs DR processing batch size")
    print(format_series(rows, x="processing_batch", y="latency"))

    def series(name, metric):
        return [r[metric] for r in rows if r["baseline"] == name]

    drm = series("Litmus-DRM", "throughput")
    # Rise then fall: the peak is strictly inside the sweep.
    assert max(drm) > drm[0]
    assert max(drm) > drm[-1]
    # DRM above DR everywhere (pipelining gain).
    dr = series("Litmus-DR", "throughput")
    assert all(a >= b for a, b in zip(drm, dr))
    # Tiny processing batches give the worst Litmus latency.
    drm_latency = series("Litmus-DRM", "latency")
    assert drm_latency[0] > min(drm_latency)
    # The no-verification latency grows at very large batch sizes.
    noverif_latency = series("No-Verification-DR", "latency")
    assert noverif_latency[-1] > noverif_latency[0]


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def fig5_metrics(processing: list[int], num_txns: int, scale: int) -> dict[str, float]:
    """Reduced-scale Fig 5: the best modeled Litmus-DRM point of the sweep."""
    rows = fig5_processing_batch(
        processing_batch_sizes=tuple(processing), num_txns=num_txns, scale=scale
    )
    drm = [row for row in rows if row["baseline"] == "Litmus-DRM"]
    return {
        "throughput": max(row["throughput"] for row in drm),
        "latency": min(row["latency"] for row in drm),
    }
