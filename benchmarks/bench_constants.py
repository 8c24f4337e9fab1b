"""Section 8 headline constants: paper vs this reproduction.

Covers the throughput anchors (17,638 / 714.2 txn/s and the 24.7x / 12.6x
gaps), the 312-byte per-prover proof (~30 kB per verification batch), the
300 s constant verification, and the PostgreSQL reference numbers.
"""

from __future__ import annotations

import pytest

from repro.bench import reference_constants
from repro.bench.report import format_table


def test_reference_constants(benchmark):
    ref = benchmark.pedantic(
        reference_constants, kwargs={"scale": 800}, iterations=1, rounds=1
    )
    rows = [
        {"metric": name, "ours": entry.get("ours", ""), "paper": entry.get("paper", "")}
        for name, entry in ref.items()
        if isinstance(entry, dict) and "ours" in entry
    ]
    print("\nSection 8 constants — paper vs reproduction")
    print(format_table(rows))

    assert ref["dr_peak"]["ours"] == pytest.approx(714.2, rel=0.05)
    assert ref["drm_peak"]["ours"] == pytest.approx(17_638, rel=0.35)
    assert ref["drm_over_dr"]["ours"] == pytest.approx(24.7, rel=0.35)
    assert ref["dr_over_2pl"]["ours"] == pytest.approx(12.6, rel=0.10)
    assert ref["verify_seconds"]["ours"] == 300.0
    assert ref["proof_bytes_per_prover"]["ours"] == 312
    # Total proof size lands in the paper's "about 30 kB" regime.
    assert 10_000 < ref["proof_bytes_total"]["ours"] < 40_000


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def constants_metrics(scale: int) -> dict[str, float]:
    """Section 8 headline constants: the modeled peaks and their ratios."""
    ref = reference_constants(scale=scale)
    return {
        "throughput": float(ref["drm_peak"]["ours"]),
        "throughput_dr": float(ref["dr_peak"]["ours"]),
        "drm_over_dr": float(ref["drm_over_dr"]["ours"]),
        "dr_over_2pl": float(ref["dr_over_2pl"]["ours"]),
    }
