"""Figure 8: throughput vs workload contention (Zipfian theta sweep).

Expected shape (paper): all three deterministic-reservation lines degrade
heavily as contention rises (smaller non-conflicting batches, more rounds);
the 2PL baselines are less sensitive; the interactive baselines *improve*
slightly (better cache utilization on hot keys); at high contention Litmus
approaches its no-verification bound because CC, not proving, dominates.
"""

from __future__ import annotations

from repro.bench import fig8_contention, format_series

THETAS = (0.0, 0.6, 1.0, 1.4)
NUM_TXNS = 163_840
SCALE = 900


def test_fig8_contention(benchmark):
    rows = benchmark.pedantic(
        fig8_contention,
        kwargs={"thetas": THETAS, "num_txns": NUM_TXNS, "scale": SCALE},
        iterations=1,
        rounds=1,
    )
    print("\nFigure 8 — throughput (txn/s) vs Zipfian theta")
    print(format_series(rows, x="theta", y="throughput"))

    def series(name):
        return [r["throughput"] for r in rows if r["baseline"] == name]

    dr_lines = {name: series(name) for name in ("No-Verification-DR", "Litmus-DRM", "Litmus-DR")}
    # DR-based lines degrade heavily with contention.
    for name, values in dr_lines.items():
        assert values[-1] < values[0] / 2, f"{name} should degrade with theta"
    # 2PL is less sensitive than DR (relative drop smaller).
    tpl = series("Litmus-2PL")
    drm = dr_lines["Litmus-DRM"]
    assert tpl[-1] / tpl[0] > drm[-1] / drm[0]
    # Interactive baselines improve slightly with contention (cache effect).
    interactive = series("AD-Interact-1ms")
    assert interactive[-1] >= interactive[0]


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def fig8_metrics(thetas: list[float], num_txns: int, scale: int) -> dict[str, float]:
    """Reduced-scale Fig 8: modeled Litmus-DRM at the first and last theta."""
    rows = fig8_contention(thetas=tuple(thetas), num_txns=num_txns, scale=scale)

    def drm(theta: float) -> float:
        return next(
            row["throughput"]
            for row in rows
            if row["baseline"] == "Litmus-DRM" and row["theta"] == theta
        )

    return {
        "throughput": drm(thetas[0]),
        "throughput_contended": drm(thetas[-1]),
        "contention_retention": drm(thetas[-1]) / drm(thetas[0]),
    }
