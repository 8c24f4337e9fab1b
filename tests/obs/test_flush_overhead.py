"""What a flush costs must not depend on how many flushes came before.

Two process-wide stores used to grow with every flush and be paid for on
it: the metrics registry (each result carried a full snapshot, sorting
every histogram's samples) and the default tracer (100,000 spans).  These
tests count work instead of timing it: no flush takes a registry snapshot,
the default tracer is a ring, and a batch's TimingReport is whole however
small the ring is.
"""

from __future__ import annotations

import pytest

import repro.core.server as server_module
import repro.obs.spans as spans_module
from repro.core import LitmusConfig, LitmusSession, ShardedSession
from repro.core.protocol import measured_fields_from_spans
from repro.net import LitmusService, RemoteSession, ServiceConfig
from repro.obs import MetricsRegistry, SpanRecord, Tracer, get_tracer
from repro.obs.metrics import Histogram
from repro.obs.spans import DEFAULT_TRACER_SPANS

from ..db.helpers import TRANSFER

NUM_ACCOUNTS = 16
CONFIG = LitmusConfig(
    cc="dr", processing_batch_size=8, batches_per_piece=2, prime_bits=64, num_provers=2
)


def _initial() -> dict:
    return {("acct", i): 1_000 for i in range(NUM_ACCOUNTS)}


def _submit_transfers(session, count: int, program=TRANSFER) -> None:
    """*program* is the Program, or its name for a RemoteSession."""
    for i in range(count):
        session.submit(
            "u", program, src=i % NUM_ACCOUNTS, dst=(i + 5) % NUM_ACCOUNTS, amount=1
        )


@pytest.fixture
def snapshot_work(monkeypatch):
    """Counts registry snapshots and every histogram sort, process-wide."""
    calls = {"registry": 0, "histogram": 0, "percentile": 0}

    def counting(kind, method):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        MetricsRegistry, "snapshot", counting("registry", MetricsRegistry.snapshot)
    )
    monkeypatch.setattr(Histogram, "snapshot", counting("histogram", Histogram.snapshot))
    monkeypatch.setattr(
        Histogram, "percentile", counting("percentile", Histogram.percentile)
    )
    return calls


class TestNoSnapshotPerFlush:
    FLUSHES = 4

    def _flush_n(self, session) -> None:
        for _ in range(self.FLUSHES):
            _submit_transfers(session, 3)
            assert session.flush().accepted

    def test_litmus_session(self, group, snapshot_work):
        session = LitmusSession.create(
            initial=_initial(), config=CONFIG, group=group, tracer=Tracer()
        )
        self._flush_n(session)
        assert snapshot_work == {"registry": 0, "histogram": 0, "percentile": 0}
        # The counters are wired: a caller that wants metrics pays once.
        assert session.registry.snapshot()["server.batches"]["value"] >= self.FLUSHES
        assert snapshot_work["registry"] == 1 and snapshot_work["percentile"] == 0

    def test_sharded_session(self, group, snapshot_work):
        registry = MetricsRegistry()
        session = ShardedSession.create(
            initial=_initial(),
            config=CONFIG,
            num_shards=4,
            group=group,
            tracer=Tracer(),
            registry=registry,
        )
        try:
            self._flush_n(session)
        finally:
            session.close()
        assert registry.histogram("shard.flush_seconds").count == self.FLUSHES
        assert snapshot_work == {"registry": 0, "histogram": 0, "percentile": 0}

    def test_remote_session(self, group, snapshot_work):
        registry = MetricsRegistry()
        session = LitmusSession.create(
            initial=_initial(),
            config=CONFIG,
            group=group,
            tracer=Tracer(),
            registry=registry,
        )
        service = LitmusService(
            session, programs=[TRANSFER], config=ServiceConfig(), registry=registry
        )
        host, port = service.start()
        try:
            client = RemoteSession(host, port, registry=registry)
            try:
                for _ in range(self.FLUSHES):
                    _submit_transfers(client, 3, TRANSFER.name)
                    assert client.flush().accepted
            finally:
                client.close()
        finally:
            service.shutdown()
        assert registry.histogram("net.op_seconds").count > 0
        assert snapshot_work == {"registry": 0, "histogram": 0, "percentile": 0}


class TestDefaultTracerRing:
    def test_default_tracer_holds_at_most_the_ring(self):
        tracer = get_tracer()
        assert tracer.maxlen == DEFAULT_TRACER_SPANS
        for _ in range(DEFAULT_TRACER_SPANS + 100):
            with tracer.span("filler"):
                pass
        assert len(get_tracer()) <= DEFAULT_TRACER_SPANS
        assert tracer.dropped >= 100


@pytest.fixture
def every_record(monkeypatch) -> list[SpanRecord]:
    """Every span record any tracer finishes, whatever its buffer keeps."""
    records: list[SpanRecord] = []

    def keep(**fields) -> SpanRecord:
        record = SpanRecord(**fields)
        records.append(record)
        return record

    monkeypatch.setattr(spans_module, "SpanRecord", keep)
    return records


@pytest.fixture
def reports(monkeypatch) -> list[tuple[list, float | None]]:
    """The spans and dispatch time each batch's TimingReport was built from."""
    calls: list[tuple[list, float | None]] = []

    def spy(spans, dispatch_start=None):
        spans = list(spans)
        calls.append((spans, dispatch_start))
        return measured_fields_from_spans(spans, dispatch_start=dispatch_start)

    monkeypatch.setattr(server_module, "measured_fields_from_spans", spy)
    return calls


def _whole_subtree(records: list[SpanRecord], root: SpanRecord) -> set[int]:
    inside = {root.span_id}
    for record in sorted(records, key=lambda r: r.span_id):
        if record.parent_id in inside:
            inside.add(record.span_id)
    return inside


class TestTimingReportUnderTheRing:
    """A ring far smaller than one flush still gives every batch the
    TimingReport an unbounded tracer gives: its whole span subtree."""

    RING = 32
    MAX_BATCH = 64

    def _check(self, tracer, every_record, reports) -> None:
        assert tracer.dropped > 0 and len(tracer) == self.RING
        assert reports
        for spans, dispatch_start in reports:
            (batch,) = [r for r in spans if r.name == "batch"]
            whole = _whole_subtree(every_record, batch)
            assert {r.span_id for r in spans} == whole
            unbounded = [r for r in every_record if r.span_id in whole]
            assert measured_fields_from_spans(
                unbounded, dispatch_start=dispatch_start
            ) == measured_fields_from_spans(spans, dispatch_start=dispatch_start)

    def test_unsharded_max_batch_flush(self, group, every_record, reports):
        tracer = Tracer(maxlen=self.RING)
        session = LitmusSession.create(
            initial=_initial(),
            config=CONFIG,
            group=group,
            max_batch=self.MAX_BATCH,
            tracer=tracer,
            registry=MetricsRegistry(),
        )
        _submit_transfers(session, self.MAX_BATCH)  # the last submit flushes
        result = session.last_result
        assert result.accepted and result.num_txns == self.MAX_BATCH
        self._check(tracer, every_record, reports)
        ((spans, _dispatch),) = reports
        (batch,) = [r for r in spans if r.name == "batch"]
        assert result.timing.measured_total_seconds == batch.duration

    def test_sharded_max_batch_flush(self, group, every_record, reports):
        tracer = Tracer(maxlen=self.RING)
        session = ShardedSession.create(
            initial=_initial(),
            config=CONFIG,
            num_shards=4,
            group=group,
            max_batch=self.MAX_BATCH,
            tracer=tracer,
            registry=MetricsRegistry(),
        )
        try:
            _submit_transfers(session, self.MAX_BATCH)
            assert session.flush().accepted
        finally:
            session.close()
        assert len(reports) >= 4  # one batch per shard at least
        self._check(tracer, every_record, reports)
