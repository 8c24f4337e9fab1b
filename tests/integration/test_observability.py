"""Integration: the observability layer over a real two-batch YCSB run.

Acceptance criteria of the obs redesign, end to end:

- a full verification round through :class:`LitmusSession` produces one
  span tree covering every pipeline stage on both sides (server execute /
  certify / build_circuit / prove_piece and client verify);
- the crypto cache hit counters *increase* between two identical batches
  (the second batch re-derives the same primes and proving keys);
- the ``measured_*`` fields of :class:`TimingReport` agree with the span
  tree they are now derived from, and cover only their own batch when
  several batches run under one caller's span;
- the whole run exports as JSON lines and passes the CI schema checker.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import LitmusConfig, LitmusServer, LitmusSession, YCSBWorkload
from repro.obs import JsonLinesExporter, Tracer, get_metrics, read_jsonl, stage_totals

REPO_ROOT = Path(__file__).resolve().parents[2]
NUM_TXNS = 8

SERVER_STAGES = {
    "batch",
    "execute",
    "certify_unit",
    "build_circuit",
    "prove_piece",
    "replay",
    "setup",
    "prove",
    "respond",
}
CLIENT_STAGES = {"verify", "verify_piece"}

# Caches whose reuse is state-independent: the pair-representative cache
# keys on (x, y) pairs that recur across identical batches, and the SNARK
# setup cache keys on circuit shape.  (hash_to_prime keys on key/VALUE
# pairs, so batch 1's writes change what batch 2 derives.)
WATCHED_COUNTERS = (
    "cache.pair_representative.hits",
    "snark.setup_cache.hits",
)


def _counter_values() -> dict[str, int]:
    snapshot = get_metrics().snapshot()
    return {name: snapshot.get(name, {}).get("value", 0) for name in WATCHED_COUNTERS}


def _submit_batch(session: LitmusSession, workload: YCSBWorkload) -> None:
    for txn in workload.generate(NUM_TXNS):
        session.submit("ycsb", txn.program, **txn.params)


def _config() -> LitmusConfig:
    return LitmusConfig(
        cc="dr", processing_batch_size=4, batches_per_piece=1, prime_bits=64
    )


@pytest.fixture()
def session(group) -> LitmusSession:
    workload = YCSBWorkload(num_rows=32, seed=7)
    return LitmusSession.create(
        initial=workload.initial_data(),
        config=_config(),
        group=group,
        tracer=Tracer(),
    )


class TestTwoBatchYCSB:
    def test_span_tree_and_cache_reuse(self, session, tmp_path):
        tracer = session.tracer
        hits_start = _counter_values()

        _submit_batch(session, YCSBWorkload(num_rows=32, seed=7))
        first = session.flush()
        assert first.accepted
        hits_after_first = _counter_values()

        # Identical second batch (same workload seed, fresh generator).
        _submit_batch(session, YCSBWorkload(num_rows=32, seed=7))
        second = session.flush()
        assert second.accepted
        hits_after_second = _counter_values()

        # One tree per batch, covering every server stage...
        batches = tracer.by_name("batch")
        assert len(batches) == 2
        for batch in batches:
            names = {r.name for r in tracer.spans_in(batch.root_id)}
            assert SERVER_STAGES <= names, f"missing {SERVER_STAGES - names}"
        # ...and the client's verify trees alongside them.
        assert CLIENT_STAGES <= tracer.names()
        verify_roots = {r.root_id for r in tracer.by_name("verify")}
        assert len(verify_roots) == 2

        # Cache reuse grows across identical batches.
        for name in WATCHED_COUNTERS:
            first_delta = hits_after_first[name] - hits_start[name]
            second_delta = hits_after_second[name] - hits_after_first[name]
            assert second_delta > 0, f"{name} saw no hits in the second batch"
            assert second_delta >= first_delta, (
                f"{name}: second identical batch should hit at least as "
                f"often as the first ({second_delta} < {first_delta})"
            )

        # The full export round-trips and satisfies the CI schema checker.
        path = tmp_path / "obs.jsonl"
        session.export(JsonLinesExporter(str(path)))
        records = read_jsonl(str(path))
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "metric"}
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks/check_metrics_schema.py"),
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_measured_fields_agree_with_span_tree(self, session):
        _submit_batch(session, YCSBWorkload(num_rows=32, seed=7))
        result = session.flush()
        assert result.accepted
        timing = result.timing

        tracer = session.tracer
        (batch,) = tracer.by_name("batch")
        tree = tracer.spans_in(batch.root_id)
        totals = stage_totals(tree)

        approx = lambda v: pytest.approx(v, rel=1e-6, abs=1e-9)
        assert timing.measured_db_seconds == approx(totals["execute"])
        assert timing.measured_certify_seconds == approx(totals["certify_unit"])
        assert timing.measured_circuit_seconds == approx(totals["build_circuit"])
        assert timing.measured_replay_seconds == approx(totals["replay"])
        assert timing.measured_setup_seconds == approx(totals["setup"])
        assert timing.measured_prove_seconds == approx(totals["prove"])
        assert timing.measured_total_seconds == approx(totals["batch"])
        # Wall-clock of the concurrent prove stage is bounded by the summed
        # work and by the whole batch.
        assert 0 < timing.measured_prove_wall_seconds <= timing.measured_total_seconds
        assert (
            timing.measured_prove_wall_seconds
            <= totals["prove_piece"] + totals["execute"] + totals["certify_unit"]
        )
        # Derived views stay consistent with the same tree.
        assert timing.measured_prover_work_seconds == approx(
            totals["replay"] + totals["setup"] + totals["prove"]
        )
        pieces = len([r for r in tree if r.name == "prove_piece"])
        assert timing.num_pieces == pieces
        assert batch.attrs["num_txns"] == NUM_TXNS

    def test_measured_fields_cover_only_their_own_batch(self, group):
        # A sharded coordinator runs every cross-shard round's batches under
        # one enclosing span, so the batches share a span tree.
        workload = YCSBWorkload(num_rows=32, seed=7)
        tracer = Tracer()
        server = LitmusServer(
            initial=workload.initial_data(), config=_config(), group=group, tracer=tracer
        )
        with tracer.span("outer"):
            timings = [
                server.execute_batch(workload.generate(4)).timing for _ in range(3)
            ]

        batches = tracer.by_name("batch")
        assert len(batches) == 3
        assert len({batch.root_id for batch in batches}) == 1
        certify_units = tracer.by_name("certify_unit")
        approx = lambda v: pytest.approx(v, rel=1e-6, abs=1e-9)
        for timing, batch in zip(timings, batches):
            own_certify = sum(
                r.duration for r in certify_units if r.parent_id == batch.span_id
            )
            assert own_certify > 0
            assert timing.measured_total_seconds == approx(batch.duration)
            assert timing.measured_certify_seconds == approx(own_certify)
