"""Section 8.3: comparison with Elle (trace-based serializability checking).

Expected shape (paper): Elle analyzes ~5.5k txn/s on their testbed and its
cost scales with the trace, while Litmus's client verifies one constant-
size proof in constant time; Elle requires the full (trusted) history.

This benchmark runs our real Elle reimplementation over a real executed
YCSB history (wall-clock measured, not modeled).
"""

from __future__ import annotations

from repro.bench import elle_comparison
from repro.bench.report import format_table


def test_elle_comparison(benchmark):
    result = benchmark.pedantic(
        elle_comparison, kwargs={"scale": 1500}, iterations=1, rounds=1
    )
    print("\nSection 8.3 — Elle vs Litmus")
    print(
        format_table(
            [
                {
                    "metric": "history serializable",
                    "value": result["serializable"],
                },
                {"metric": "txns analyzed", "value": result["num_txns"]},
                {
                    "metric": "our Elle analysis (s)",
                    "value": result["measured_analysis_seconds"],
                },
                {
                    "metric": "our Elle txn/s (real)",
                    "value": result["measured_txns_per_second"],
                },
                {
                    "metric": "paper Elle txn/s",
                    "value": result["paper_txns_per_second"],
                },
                {
                    "metric": "Litmus client verify (s, constant)",
                    "value": result["litmus_client_verify_seconds"],
                },
            ]
        )
    )
    # A healthy execution must be certified serializable.
    assert result["serializable"]
    # Elle's cost scales with the history; it processes the whole trace.
    assert result["measured_txns_per_second"] > 0
    # Litmus's client-side verification is constant regardless of scale.
    assert result["litmus_client_verify_seconds"] == 300.0
