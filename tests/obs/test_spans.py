"""Unit tests for repro.obs spans: nesting, cross-thread parents, bounds."""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import Span, Tracer, get_tracer, set_tracer, stage_totals


def _closed_parent(roots: list[int], rng: random.Random) -> Span:
    """A stand-in parent inside an earlier, already closed tree."""
    root_id = rng.choice(roots[:-1])
    return Span(name="old", span_id=root_id, parent_id=None, root_id=root_id, start=0.0)


class TestNesting:
    def test_child_inherits_parent_and_root(self):
        tracer = Tracer()
        with tracer.span("batch") as outer:
            with tracer.span("execute") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.root_id == outer.root_id == outer.span_id
        records = tracer.finished()
        assert [r.name for r in records] == ["execute", "batch"]  # close order
        assert {r.root_id for r in records} == {outer.span_id}

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("batch") as batch:
            for name in ("execute", "certify_unit", "respond"):
                with tracer.span(name):
                    pass
        children = [r for r in tracer.finished() if r.name != "batch"]
        assert all(r.parent_id == batch.span_id for r in children)

    def test_top_level_span_is_its_own_root(self):
        tracer = Tracer()
        with tracer.span("batch") as span:
            assert span.parent_id is None
            assert span.root_id == span.span_id

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("batch") as batch:
            with tracer.span("execute"):
                # Even with "execute" innermost, parent= wins.
                with tracer.span("prove_piece", parent=batch) as piece:
                    assert piece.parent_id == batch.span_id

    def test_attrs_set_while_open(self):
        tracer = Tracer()
        with tracer.span("batch", num_txns=4) as span:
            span.set(pieces=2, constraints=100)
        (record,) = tracer.finished()
        assert record.attrs == {"num_txns": 4, "pieces": 2, "constraints": 100}

    def test_exception_marks_error_and_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("batch"):
                raise RuntimeError("boom")
        (record,) = tracer.finished()
        assert record.attrs["error"] is True
        assert tracer.current() is None

    def test_spans_in_filters_by_tree(self):
        tracer = Tracer()
        with tracer.span("batch") as first:
            with tracer.span("execute"):
                pass
        with tracer.span("batch") as second:
            pass
        assert len(tracer.spans_in(first.root_id)) == 2
        assert len(tracer.spans_in(second.root_id)) == 1

    def test_durations_are_monotonic(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.finished()
        assert inner.duration >= 0
        assert outer.duration >= inner.duration
        assert outer.start <= inner.start and inner.end <= outer.end


class TestCrossThread:
    def test_pool_workers_attach_to_dispatcher_span(self):
        """The server's prove_piece pattern: parent= from another thread."""
        tracer = Tracer()

        def job(index: int, parent: Span) -> None:
            with tracer.span("prove_piece", parent=parent, piece=index):
                with tracer.span("prove"):
                    pass

        with tracer.span("batch") as batch:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(job, i, batch) for i in range(8)]
                for future in futures:
                    future.result()
        tree = tracer.spans_in(batch.root_id)
        pieces = [r for r in tree if r.name == "prove_piece"]
        proves = [r for r in tree if r.name == "prove"]
        assert len(pieces) == 8 and len(proves) == 8
        assert all(r.parent_id == batch.span_id for r in pieces)
        piece_ids = {r.span_id for r in pieces}
        # Each prove child nested under its own prove_piece via the
        # worker's thread-local stack.
        assert all(r.parent_id in piece_ids for r in proves)
        assert all(r.root_id == batch.span_id for r in tree)

    def test_concurrent_spans_are_thread_safe(self):
        tracer = Tracer()
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            for i in range(50):
                with tracer.span("w", i=i):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 8 * 50
        assert tracer.dropped == 0


class TestBufferBounds:
    def test_overflow_drops_oldest(self):
        tracer = Tracer(maxlen=10)
        for i in range(25):
            with tracer.span("s", i=i):
                pass
        assert len(tracer) == 10
        assert tracer.dropped == 15
        kept = [r.attrs["i"] for r in tracer.finished()]
        assert kept == list(range(15, 25))

    def test_clear_resets(self):
        tracer = Tracer(maxlen=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_rejects_empty_buffer(self):
        with pytest.raises(ValueError):
            Tracer(maxlen=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_root_index_matches_a_linear_filter(self, seed):
        """spans_in answers from a per-root index; it must return exactly
        what a scan of the buffer would, before and after overflow."""
        rng = random.Random(seed)
        tracer = Tracer(maxlen=rng.choice([7, 40, 1000]))
        roots: list[int] = []

        def grow(parent, depth: int) -> None:
            # explicit parents interleave trees, as pool workers do
            for _ in range(rng.randrange(0, 3 if depth < 3 else 1)):
                with tracer.span("child", parent=parent) as span:
                    grow(span, depth + 1)

        for _ in range(rng.randrange(5, 40)):
            with tracer.span("root") as root:
                roots.append(root.root_id)
                grow(root, 0)
            if rng.random() < 0.3 and len(roots) > 1:
                with tracer.span("late", parent=_closed_parent(roots, rng)):
                    pass
            for root_id in roots:
                linear = tuple(r for r in tracer.finished() if r.root_id == root_id)
                assert tracer.spans_in(root_id) == linear
        assert tracer.spans_in(-1) == ()
        tracer.clear()
        assert all(tracer.spans_in(root_id) == () for root_id in roots)

    def test_root_index_survives_concurrent_overflow(self):
        tracer = Tracer(maxlen=50)
        roots: list[int] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def worker() -> None:
            for _ in range(40):
                with tracer.span("batch") as root:
                    roots.append(root.root_id)
                    for _ in range(3):
                        with tracer.span("child"):
                            pass

        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(tracer) == 50 and tracer.dropped == 8 * 40 * 4 - 50
        for root_id in roots:
            linear = tuple(r for r in tracer.finished() if r.root_id == root_id)
            assert tracer.spans_in(root_id) == linear


class TestHelpers:
    def test_stage_totals_sums_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        totals = stage_totals(tracer.finished())
        assert set(totals) == {"a", "b"}
        assert totals["a"] == pytest.approx(
            sum(r.duration for r in tracer.by_name("a"))
        )

    def test_default_tracer_swap(self):
        replacement = Tracer()
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)
        assert get_tracer() is previous
