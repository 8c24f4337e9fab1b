"""Deterministic fault plans: the hook surface the pipeline injects through.

A :class:`FaultPlan` is a seedable, replayable schedule of misbehavior.  It
owns a list of :class:`FaultInjector` instances and is consulted by the
*real* pipeline at four stages:

- ``on_request`` — the client→server message (session side, before
  :meth:`~repro.core.server.LitmusServer.execute_batch`);
- ``on_unit`` — each schedule unit as the server executed it, before its
  certificates are minted (so a changed unit is certified honestly);
- ``on_certificates`` — each schedule unit's freshly minted read/write
  certificates (server side, the serial certification stage);
- ``on_prove`` — each piece's prover-pool worker, as its job starts;
- ``on_response`` — the server→client response (session side, before
  client verification);
- ``on_durability`` — the durability layer's named stages
  (``before-log``, ``after-log``, ``after-checkpoint-temp``,
  ``after-checkpoint``; see :mod:`repro.db.wal.manager`), where a
  :class:`~repro.faults.CrashPoint` can simulate process death at the
  exact boundary being tested;
- ``on_fs`` — every filesystem write/fsync/rename the durability stack
  performs (via :class:`~repro.db.fsio.FaultyFileSystem`), where the disk
  injectors of :mod:`repro.faults.disk` make the storage itself lie.

Determinism contract: a plan constructed with the same injectors and seed
injects the same faults at the same points on every run.  All randomness
flows through the plan's private ``random.Random(seed)``; injectors that
fire unconditionally never touch it.

Every applied injection is recorded as a :class:`FaultEvent` on
``plan.events`` and counted on the bound metrics registry as
``faults.injected`` plus ``faults.injected.<kind>``, so tests, benchmarks
and exporters all see exactly what was done to the pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..obs.metrics import MetricsRegistry, get_metrics

__all__ = ["FaultEvent", "FaultInjector", "FaultPlan"]


@dataclass(frozen=True)
class FaultEvent:
    """One applied injection: what kind, at which stage, against what."""

    kind: str
    stage: str  # "request" | "certify" | "prove" | "response" | "durability"
    target: str  # human-readable description of the tampered object


class FaultInjector:
    """Base class: a single, targetable kind of misbehavior.

    Subclasses override the stage hook(s) they act on.  The base class
    provides firing control: ``times`` bounds how often the injector fires
    (``None`` = unlimited) and ``probability`` gates each opportunity
    through the plan's seeded random stream.  ``times=1`` (the default)
    makes an injector one-shot — the natural shape for recovery tests,
    where the retried batch must sail through clean.
    """

    kind = "abstract"

    def __init__(self, times: int | None = 1, probability: float = 1.0):
        if times is not None and times < 1:
            raise ValueError("times must be positive (or None for unlimited)")
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.times = times
        self.probability = probability
        self.fired = 0

    def _take(self, plan: "FaultPlan") -> bool:
        """Consume one firing opportunity; True iff the fault applies now."""
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability < 1.0 and plan.rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    # -- stage hooks (default: pass through untouched) -----------------------

    def on_request(self, plan: "FaultPlan", txns: Sequence) -> None:
        """Client→server delivery; may raise MessageDropped."""

    def on_unit(self, plan: "FaultPlan", unit_index: int, unit):
        """Change what a unit read or wrote before it is certified; returns
        the (possibly new) :class:`~repro.db.executor.ScheduleUnit`."""
        return unit

    def on_certificates(self, plan: "FaultPlan", unit_index: int, read_cert, write_cert):
        """Tamper a unit's certificates; returns the (possibly new) pair."""
        return read_cert, write_cert

    def on_prove(self, plan: "FaultPlan", piece_index: int) -> None:
        """A prover worker starting piece *piece_index*; may raise ProverKilled."""

    def on_response(self, plan: "FaultPlan", response):
        """Server→client delivery; returns the (possibly tampered) response
        or raises MessageDropped."""
        return response

    def on_durability(
        self, plan: "FaultPlan", stage: str, shard: int | None = None
    ) -> None:
        """A durability-layer stage boundary; may raise SimulatedCrash.

        *shard* identifies which shard's durability manager reached the
        stage (``None`` for an unsharded session), so shard-targeted
        injectors can kill exactly one engine of a sharded deployment.
        """

    def on_fs(
        self, plan: "FaultPlan", op: str, path: str, shard: int | None = None
    ) -> tuple | None:
        """A filesystem operation (``write``/``fsync``/``replace``/``open``)
        inside the durability stack, routed through a
        :class:`~repro.db.fsio.FaultyFileSystem`.

        Return a fault directive tuple (see :mod:`repro.db.fsio`) to make
        the disk misbehave, or ``None`` to pass the operation through.
        The first injector returning a directive wins.
        """
        return None


class FaultPlan:
    """A deterministic, seedable schedule of injected faults."""

    def __init__(self, *injectors: FaultInjector, seed: int = 0):
        self.injectors: list[FaultInjector] = list(injectors)
        self.seed = seed
        self.rng = random.Random(seed)
        self.events: list[FaultEvent] = []
        # Virtual network time accumulated by network injectors (seconds).
        self.network_seconds = 0.0
        self._registry: MetricsRegistry | None = None

    def bind_registry(self, registry: MetricsRegistry) -> "FaultPlan":
        """Route this plan's counters to *registry* (else the process one)."""
        self._registry = registry
        return self

    @property
    def injected(self) -> int:
        return len(self.events)

    def record(self, injector: FaultInjector, stage: str, target: str) -> FaultEvent:
        """Log one applied injection and bump its counters."""
        event = FaultEvent(kind=injector.kind, stage=stage, target=target)
        self.events.append(event)
        registry = self._registry if self._registry is not None else get_metrics()
        registry.counter("faults.injected").inc()
        registry.counter(f"faults.injected.{injector.kind}").inc()
        return event

    # -- pipeline hooks -------------------------------------------------------

    def on_request(self, txns: Sequence) -> None:
        for injector in self.injectors:
            injector.on_request(self, txns)

    def on_unit(self, unit_index: int, unit):
        for injector in self.injectors:
            unit = injector.on_unit(self, unit_index, unit)
        return unit

    def on_certificates(self, unit_index: int, read_cert, write_cert):
        for injector in self.injectors:
            read_cert, write_cert = injector.on_certificates(
                self, unit_index, read_cert, write_cert
            )
        return read_cert, write_cert

    def on_prove(self, piece_index: int) -> None:
        for injector in self.injectors:
            injector.on_prove(self, piece_index)

    def on_response(self, response):
        for injector in self.injectors:
            response = injector.on_response(self, response)
        return response

    def on_durability(self, stage: str, shard: int | None = None) -> None:
        for injector in self.injectors:
            injector.on_durability(self, stage, shard)

    def on_fs(self, op: str, path: str, shard: int | None = None) -> tuple | None:
        for injector in self.injectors:
            directive = injector.on_fs(self, op, path, shard)
            if directive is not None:
                return directive
        return None
