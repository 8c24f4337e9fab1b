"""Benchmark harness: regenerate every table and figure of the paper.

The harness combines

- **real measured counts** — scaled executions of the actual CC algorithms
  and compiled circuits produce conflict rates, batch compositions, and
  constraint counts;
- **the calibrated cost model** (:mod:`repro.sim.costmodel`) — converts
  counts into virtual seconds at paper scale;
- **the prover makespan scheduler** — reproduces pipelining across N
  prover threads.

Each ``fig*`` function in :mod:`repro.bench.figures` returns the rows or
series of the corresponding paper figure/table; :mod:`repro.bench.report`
formats them for terminal output, and ``benchmarks/`` wraps each one in a
pytest-benchmark target.  Reduced-scale metrics derived from these
functions are pinned exactly by ``tests/bench/test_paper_figures.py``
against the repo-root ``BENCH_figures.json``.  Measured numbers for the
running system come from ``benchmarks/e2e``.
"""

from .model import LitmusModel, ModeledRun, WorkloadProfile
from .figures import (
    fig3_ycsb_throughput_latency,
    fig4_tpcc_throughput,
    fig5_processing_batch,
    fig6_prover_threads,
    fig7_time_breakdown,
    fig8_contention,
    fig9_table_size,
    elle_comparison,
    reference_constants,
)
from .report import format_series, format_table

__all__ = [
    "LitmusModel",
    "ModeledRun",
    "WorkloadProfile",
    "elle_comparison",
    "fig3_ycsb_throughput_latency",
    "fig4_tpcc_throughput",
    "fig5_processing_batch",
    "fig6_prover_threads",
    "fig7_time_breakdown",
    "fig8_contention",
    "fig9_table_size",
    "format_series",
    "format_table",
    "reference_constants",
]
