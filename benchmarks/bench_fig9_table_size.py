"""Figure 9 (table): Litmus throughput vs YCSB table size.

Expected shape (paper): throughput decays slowly as the table doubles —
17,538 / 16,394 / 14,909 / 12,818 txn/s for 10G/20G/40G/80G — because the
witness-computation (trace) cost loses locality; proving cost itself is
data-size independent.
"""

from __future__ import annotations

import pytest

from repro.bench import fig9_table_size, format_table

SCALE = 800


def test_fig9_table_size(benchmark):
    rows = benchmark.pedantic(
        fig9_table_size, kwargs={"scale": SCALE}, iterations=1, rounds=1
    )
    print("\nFigure 9 — Litmus-DRM throughput vs table size (paper column shown)")
    print(format_table(rows))

    ours = [r["throughput"] for r in rows]
    paper = [r["paper"] for r in rows]
    # Strictly decaying, slowly (each doubling keeps > 75% of throughput).
    assert all(b < a for a, b in zip(ours, ours[1:]))
    for a, b in zip(ours, ours[1:]):
        assert b > 0.75 * a
    # The relative decay profile tracks the paper within 10%.
    for our_ratio, paper_ratio in zip(
        (o / ours[0] for o in ours), (p / paper[0] for p in paper)
    ):
        assert our_ratio == pytest.approx(paper_ratio, abs=0.10)


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def fig9_metrics(doublings: list[int], num_txns: int, scale: int) -> dict[str, float]:
    """Reduced-scale Fig 9: modeled DRM at the smallest table and its decay."""
    rows = fig9_table_size(
        doublings=tuple(doublings), num_txns=num_txns, scale=scale
    )
    return {
        "throughput": rows[0]["throughput"],
        "decay_retention": rows[-1]["throughput"] / rows[0]["throughput"],
    }
