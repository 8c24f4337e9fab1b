"""Figure 4: TPC-C New Order (a) and Payment (b) throughput vs batch size.

Expected shape (paper): same baseline ordering as YCSB but at much lower
absolute Litmus numbers — "New Order transactions execute more queries,
leading to more cryptographic gates" (peak Litmus-DRM 280.6 txn/s); Payment
is lighter and behaves similarly.
"""

from __future__ import annotations

from repro.bench import fig4_tpcc_throughput, fig3_ycsb_throughput_latency, format_series

BATCHES = (320, 5_120, 81_920)
SCALE = 250


def test_fig4_tpcc(benchmark):
    rows = benchmark.pedantic(
        fig4_tpcc_throughput,
        kwargs={"batch_sizes": BATCHES, "scale": SCALE},
        iterations=1,
        rounds=1,
    )
    new_order = [r for r in rows if r["transaction"] == "new_order"]
    payment = [r for r in rows if r["transaction"] == "payment"]
    print("\nFigure 4a — TPC-C New Order throughput (txn/s)")
    print(format_series(new_order, x="batch_size", y="throughput"))
    print("\nFigure 4b — TPC-C Payment throughput (txn/s)")
    print(format_series(payment, x="batch_size", y="throughput"))

    def peak(rows, name):
        return max(r["throughput"] for r in rows if r["baseline"] == name)

    # New Order is far heavier than YCSB for every Litmus variant: compare
    # the two workloads' peak DRM configurations, as the paper does.
    ycsb_rows = fig3_ycsb_throughput_latency(batch_sizes=(2_621_440,), scale=400)
    ycsb_drm = peak(ycsb_rows, "Litmus-DRM")
    no_drm = peak(new_order, "Litmus-DRM")
    assert no_drm < ycsb_drm / 5, "New Order must be far slower than YCSB"
    # Payment is lighter than New Order (fewer accesses / gates).
    assert peak(payment, "Litmus-DRM") > no_drm
    # Ordering holds within each transaction type.
    for subset in (new_order, payment):
        assert peak(subset, "Litmus-DRM") > peak(subset, "Litmus-DR")
        assert peak(subset, "Litmus-DR") > peak(subset, "Litmus-2PL")
        assert peak(subset, "No-Verification-DR") > peak(subset, "Litmus-DRM")


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def fig4_metrics(batch_sizes: list[int], scale: int) -> dict[str, float]:
    """Reduced-scale Fig 4: peak modeled Litmus-DRM throughput per transaction."""
    rows = fig4_tpcc_throughput(batch_sizes=tuple(batch_sizes), scale=scale)

    def peak(transaction: str) -> float:
        return max(
            row["throughput"]
            for row in rows
            if row["transaction"] == transaction
            and row["baseline"] == "Litmus-DRM"
        )

    return {
        "throughput": peak("new_order"),
        "throughput_payment": peak("payment"),
    }
