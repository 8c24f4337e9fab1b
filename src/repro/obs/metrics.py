"""Process-local metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Instruments are created on first use (``registry.counter("db.committed")``)
and live for the registry's lifetime; :meth:`MetricsRegistry.reset` zeroes
values without invalidating handles already held by instrumented modules
(the crypto caches grab their counters once at import time).

Everything is thread-safe — the prover pool hits the cache counters from
many threads at once — and zero-dependency, so the crypto and db layers can
import this module without any new dependency arrows.

Metric naming taxonomy (dotted, lowercase):

- ``cache.<name>.{hits,misses,evictions}`` — the crypto LRU caches;
- ``snark.setup_cache.{hits,misses}`` — proving-key reuse;
- ``snark.{prove,verify}_seconds`` (histograms), ``snark.{proofs,verifies}``;
- ``accumulator.witness_seconds`` / ``authdict.{lookup,update}_seconds``;
- ``authdict.{lookups,updates}`` and ``authdict.shared_base.*`` — how
  lookup witnesses were minted: ``builds`` (one long generator
  exponentiation per batch that holds a shared base), ``witnesses``
  (lookups answered by a short exponentiation of that base) and
  ``fallbacks`` (lookups outside the base's touched keys, computed from
  scratch while a base was held);
- ``db.{committed,aborted_retries}`` — CC-layer outcomes per batch;
- ``server.{batches,pieces}`` / ``client.{batches_accepted,batches_rejected}``;
- ``session.{deadline_aborts,...}`` — facade-level round outcomes,
  including ``session.compensations`` (verified batches rolled back by
  the cross-shard coordinator);
- ``xshard.*`` — the atomic cross-shard commit protocol:
  ``xshard.intents`` (prepare records made durable), ``xshard.commits``,
  ``xshard.compensations`` (per-shard batch rollbacks during an abort)
  and ``xshard.in_doubt_resolved`` (pending rounds settled at recovery);
- ``nemesis.{steps,ops,crashes,recoveries,disk_faults,
  invariant_failures}`` — the seeded chaos harness
  (:mod:`repro.faults.nemesis`);
- ``storage.*`` — the hostile-disk survival layer (DESIGN.md §17):
  ``storage.{write_errors,rescue_rotations}`` (absorbed write faults),
  ``storage.fsync_failures`` (fsyncgate poisonings — each one downs a
  deployment), ``storage.mirror_{writes,write_failures,repairs}`` for
  the checkpoint mirror twins;
- ``scrub.*`` — the scrub/repair pass (:mod:`repro.db.scrub`):
  ``scrub.{runs,files_scanned,records_verified,damage_found,repairs,
  quarantined,errors}``;
- ``net.*`` — the socket service and remote client (``repro.net``):
  ``net.{bytes,frames}_{sent,received}``, ``net.connections_{active,total,
  refused}`` (active is a gauge), ``net.{requests,errors,op_replays}``,
  ``net.queue_depth`` (gauge) + ``net.sheds`` + ``net.deadline_hits`` for
  admission control, ``net.{idle_reaped,heartbeats}``, ``net.op_seconds``
  (histogram), and client-side ``net.client_{deadline_hits,reconnects,
  resubmits,sheds_seen}``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "timed",
]


class Counter:
    """A monotonically increasing integer."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Gauge:
    """A value that can move both ways (queue depth, cache size)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Histogram:
    """Observations with count/sum/min/max and rank-based percentiles.

    Keeps up to ``maxsamples`` raw observations (oldest dropped beyond
    that); ``count``/``sum`` always cover every observation, percentiles
    cover the retained window.
    """

    kind = "histogram"

    def __init__(self, name: str, maxsamples: int = 8192):
        if maxsamples < 1:
            raise ValueError("histogram must retain at least one sample")
        self.name = name
        self.maxsamples = maxsamples
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            self._samples.append(value)
            overflow = len(self._samples) - self.maxsamples
            if overflow > 0:
                del self._samples[:overflow]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples; q in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("percentile rank must be within [0, 100]")
        with self._lock:
            ordered = sorted(self._samples)
        return _nearest_rank(ordered, q)

    def _reset(self) -> None:
        with self._lock:
            self._samples.clear()
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
            ordered = sorted(self._samples)
        return {
            "name": self.name,
            "type": self.kind,
            "count": count,
            "sum": total,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "mean": total / count if count else 0.0,
            "p50": _nearest_rank(ordered, 50),
            "p95": _nearest_rank(ordered, 95),
            "p99": _nearest_rank(ordered, 99),
        }


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The nearest-rank *q*-th percentile of sorted *ordered* (0.0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class MetricsRegistry:
    """Get-or-create namespace of instruments.

    ``snapshot()`` returns ``{name: instrument.snapshot()}`` — a plain
    JSON-serializable dict, stable across calls, which is exactly what the
    exporters write.
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory: Callable[[str], Any], kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory(name)
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, "gauge")

    def histogram(self, name: str, maxsamples: int = 8192) -> Histogram:
        return self._get(
            name, lambda n: Histogram(n, maxsamples=maxsamples), "histogram"
        )

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._instruments))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            instruments = list(self._instruments.values())
        return {inst.name: inst.snapshot() for inst in sorted(instruments, key=lambda i: i.name)}

    def reset(self) -> None:
        """Zero every instrument; existing handles stay valid."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument._reset()


@contextmanager
def timed(histogram: Histogram) -> Iterator[None]:
    """Observe the wall-clock of a ``with`` block into *histogram*."""
    start = perf_counter()
    try:
        yield
    finally:
        histogram.observe(perf_counter() - start)


# -- the process-local default registry ---------------------------------------

_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-local default registry (the crypto caches publish here)."""
    return _REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one.

    Instruments fetched before the swap keep feeding the old registry —
    only use this at process start (the CLI does, before building servers).
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
