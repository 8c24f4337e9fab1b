"""Benchmark workloads (paper Section 8).

- :mod:`repro.workloads.ycsb` — the Yahoo Cloud Serving Benchmark: a single
  table under Zipfian access (theta = 0.6 by default), two accesses per
  transaction, 50% writes;
- :mod:`repro.workloads.tpcc` — TPC-C New Order and Payment transactions
  over the standard warehouse/district/customer/stock schema, with the
  paper's simplifications (customers selected by id, no HISTORY inserts,
  client-assigned order ids) so write targets are parameter-only;
- :mod:`repro.workloads.zipf` — an exact Zipfian sampler.

Row counts are scaled down relative to the paper (which uses 10M-row / 10GB
tables); the harness extrapolates timing through the cost model.
"""

from .tpcc import TPCCWorkload
from .ycsb import YCSBWorkload
from .zipf import ZipfSampler

__all__ = ["TPCCWorkload", "YCSBWorkload", "ZipfSampler"]
