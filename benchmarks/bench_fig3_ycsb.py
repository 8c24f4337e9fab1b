"""Figure 3: YCSB throughput (a) and latency (b) vs verification batch size.

Expected shape (paper): every Litmus line rises with the verification batch;
Litmus-DRM peaks near 17.6k txn/s at 2.6M transactions, ~25x above
Litmus-DR, which sits ~12.6x above Litmus-2PL; the interactive baselines
plateau after ~320 transactions (network-bound) and the 1 ms variant decays
at large counts (witness recomputation); Merkle is slowest; the
no-verification baselines bound everything from above.
"""

from __future__ import annotations

from repro.bench import fig3_ycsb_throughput_latency, format_series

BATCHES = (320, 5_120, 81_920, 1_310_720, 2_621_440)
SCALE = 800


def _by_baseline(rows, batch):
    return {
        row["baseline"]: row
        for row in rows
        if row["batch_size"] == batch
    }


def test_fig3_throughput_and_latency(benchmark):
    rows = benchmark.pedantic(
        fig3_ycsb_throughput_latency,
        kwargs={"batch_sizes": BATCHES, "scale": SCALE},
        iterations=1,
        rounds=1,
    )
    print("\nFigure 3a — YCSB throughput (txn/s) vs verification batch size")
    print(format_series(rows, x="batch_size", y="throughput"))
    print("\nFigure 3b — YCSB mean latency (s) vs verification batch size")
    print(format_series(rows, x="batch_size", y="latency"))

    peak = _by_baseline(rows, 2_621_440)
    small = _by_baseline(rows, 320)

    # Litmus lines rise with verification batch size.
    for name in ("Litmus-DRM", "Litmus-DR", "Litmus-2PL"):
        assert peak[name]["throughput"] > small[name]["throughput"]
    # Ordering at the peak: No-Verif >> DRM >> DR >> 2PL.
    assert peak["No-Verification-DR"]["throughput"] > peak["Litmus-DRM"]["throughput"]
    assert peak["Litmus-DRM"]["throughput"] > peak["Litmus-DR"]["throughput"]
    assert peak["Litmus-DR"]["throughput"] > peak["Litmus-2PL"]["throughput"]
    # Paper magnitudes (shape tolerance, not exact numbers).
    drm = peak["Litmus-DRM"]["throughput"]
    dr = peak["Litmus-DR"]["throughput"]
    assert 8_000 < drm < 40_000, f"DRM peak {drm} outside the paper's regime"
    assert 10 < drm / dr < 50, "multi-prover gain should be order ~25x"
    # Interactive baselines: 1 ms plateaus then decays with batch count.
    assert (
        _by_baseline(rows, 81_920)["AD-Interact-1ms"]["throughput"]
        < _by_baseline(rows, 5_120)["AD-Interact-1ms"]["throughput"]
    )
    # Merkle stays below ~20 txn/s.
    assert peak["Merkle-Tree"]["throughput"] < 25
    # Latency: Litmus-2PL (single deep proof) worse than Litmus-DRM.
    assert peak["Litmus-2PL"]["latency"] > peak["Litmus-DRM"]["latency"]
    # Interactive latency is roughly the round trip, far below Litmus's.
    assert small["AD-Interact-1ms"]["latency"] < 1.0


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def fig3_metrics(batch_sizes: list[int], scale: int) -> dict[str, float]:
    """Reduced-scale Fig 3 sweep: the modeled Litmus-DRM point at the top batch."""
    batches = tuple(batch_sizes)
    rows = fig3_ycsb_throughput_latency(batch_sizes=batches, scale=scale)
    peak = _by_baseline(rows, batches[-1])
    return {
        "throughput": peak["Litmus-DRM"]["throughput"],
        "latency": peak["Litmus-DRM"]["latency"],
        "drm_over_dr": peak["Litmus-DRM"]["throughput"]
        / peak["Litmus-DR"]["throughput"],
    }
