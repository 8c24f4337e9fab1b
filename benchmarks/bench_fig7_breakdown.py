"""Figure 7: time breakdown vs number of prover threads.

Expected shape (paper): at the low end of the sweep runtime-trace
processing takes ~18% of the time; as prover threads increase, key
generation and proving grow to ~51% and ~38%; verification stays a modest,
stable share; circuit generation is negligible (hand-written circuits).
"""

from __future__ import annotations

import pytest

from repro.bench import fig7_time_breakdown, format_table

THREADS = (20, 40, 60, 80)
SCALE = 800


def test_fig7_breakdown(benchmark):
    rows = benchmark.pedantic(
        fig7_time_breakdown,
        kwargs={"thread_counts": THREADS, "scale": SCALE, "num_txns": 2_621_440},
        iterations=1,
        rounds=1,
    )
    print("\nFigure 7 — time breakdown (shares) vs prover threads")
    print(format_table(rows))

    low, high = rows[0], rows[-1]
    # Anchors from the paper's prose.
    assert low["process_traces"] == pytest.approx(0.18, abs=0.02)
    assert high["key_generation"] == pytest.approx(0.51, abs=0.02)
    assert high["proving"] == pytest.approx(0.38, abs=0.02)
    # Monotone evolution between the anchors.
    traces = [r["process_traces"] for r in rows]
    keygen = [r["key_generation"] for r in rows]
    assert all(b <= a for a, b in zip(traces, traces[1:]))
    assert all(b >= a for a, b in zip(keygen, keygen[1:]))
    # Circuit generation is negligible; every row sums to 1.
    for row in rows:
        assert row["circuit_generation"] < 0.01
        total = sum(v for k, v in row.items() if k != "prover_threads")
        assert total == pytest.approx(1.0, abs=1e-6)


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def fig7_metrics(threads: list[int], num_txns: int, scale: int) -> dict[str, float]:
    """Reduced-scale Fig 7: time-breakdown shares at the low and high ends."""
    rows = fig7_time_breakdown(
        thread_counts=tuple(threads), num_txns=num_txns, scale=scale
    )
    low, high = rows[0], rows[-1]
    return {
        "trace_share_low": low["process_traces"],
        "keygen_share_high": high["key_generation"],
        "proving_share_high": high["proving"],
    }
