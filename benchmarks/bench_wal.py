"""WAL micro-benchmark: append throughput per fsync policy + recovery scan.

Not a paper figure — this pins the cost of the durability layer's central
dial.  For each fsync policy (``always`` / ``batch`` / ``never``) it
appends a fixed count of realistic records (LCL1 command-log payloads) to a
fresh :class:`~repro.db.wal.WriteAheadLog` and reports records/s, MB/s and
the fsync count; then it times a full ``scan_wal`` read-back and an atomic
checkpoint write/load round trip.  The ordering ``never >= batch >=
always`` (throughput) is asserted only loosely — CI machines are noisy —
but the fsync *counts* are exact.

Run under pytest like the figure benchmarks::

    pytest benchmarks/bench_wal.py --benchmark-only

or standalone — CI does this so ``check_metrics_schema.py --require`` can
pin the WAL metric names against a real export::

    PYTHONPATH=src python benchmarks/bench_wal.py --metrics-out wal.jsonl
"""

from __future__ import annotations

import tempfile
import time

from repro.bench import format_table
from repro.db.wal import (
    WriteAheadLog,
    load_latest_checkpoint,
    scan_wal,
    write_checkpoint,
)
from repro.obs.metrics import MetricsRegistry

NUM_RECORDS = 400
PAYLOAD_BYTES = 256


def _payload() -> bytes:
    """A realistic record body: LCL1 magic plus incompressible-ish bytes."""
    return b"LCL1" + bytes(range(256))[: PAYLOAD_BYTES - 4] * 1


def run_wal_bench(
    num_records: int = NUM_RECORDS, payload_bytes: int = PAYLOAD_BYTES
) -> list[dict]:
    """Append *num_records* per policy; returns the report rows."""
    payload = _payload()[:payload_bytes]
    rows = []
    for policy in ("always", "batch", "never"):
        registry = MetricsRegistry()
        with tempfile.TemporaryDirectory() as directory:
            wal = WriteAheadLog(
                directory,
                fsync=policy,
                sync_every=8,
                segment_max_bytes=1 << 18,
                registry=registry,
            )
            start = time.perf_counter()
            for seq in range(1, num_records + 1):
                wal.append(seq, 0xD1 << seq % 64, payload)
            wal.close()
            append_seconds = time.perf_counter() - start

            start = time.perf_counter()
            records, report = scan_wal(directory, registry=registry)
            scan_seconds = time.perf_counter() - start
            assert len(records) == num_records and report.status == "clean"

        total_bytes = registry.counter("wal.bytes").value
        rows.append(
            {
                "fsync": policy,
                "records": num_records,
                "records_per_s": round(num_records / append_seconds),
                "mb_per_s": round(total_bytes / append_seconds / 1e6, 2),
                "fsyncs": registry.counter("wal.fsyncs").value,
                "scan_records_per_s": round(num_records / max(scan_seconds, 1e-9)),
            }
        )
    return rows


def run_checkpoint_bench(num_rows: int = 2_000) -> dict:
    """Atomic checkpoint write + validated load for a num_rows-row store."""
    rows = {("acct", i): 100 + i for i in range(num_rows)}
    digest = 0xABCDEF
    with tempfile.TemporaryDirectory() as directory:
        start = time.perf_counter()
        write_checkpoint(
            directory,
            seq=1,
            digest=digest,
            rows=rows,
            provider_state=(rows, 12345, digest, None),
            next_txn_id=1,
            config={"cc": "dr"},
            group_modulus=0xC5,
            group_generator=0x04,
            durability={"fsync": "always"},
            digest_log=[
                {
                    "sequence": 0,
                    "digest": hex(digest),
                    "num_txns": 0,
                    "entry_hash": "00" * 32,
                }
            ],
        )
        write_seconds = time.perf_counter() - start
        start = time.perf_counter()
        loaded = load_latest_checkpoint(directory)
        load_seconds = time.perf_counter() - start
        assert loaded.rows == rows
    return {
        "rows": num_rows,
        "write_ms": round(write_seconds * 1e3, 2),
        "load_ms": round(load_seconds * 1e3, 2),
    }


def test_wal_throughput(benchmark):
    rows = benchmark.pedantic(run_wal_bench, iterations=1, rounds=1)
    print("\nWAL append throughput per fsync policy")
    print(format_table(rows))
    by_policy = {row["fsync"]: row for row in rows}
    # fsync counts are deterministic: every append / every window / only close
    assert by_policy["always"]["fsyncs"] >= NUM_RECORDS
    assert by_policy["batch"]["fsyncs"] < by_policy["always"]["fsyncs"]
    assert by_policy["never"]["fsyncs"] == 0
    ckpt = run_checkpoint_bench()
    print(format_table([ckpt]))
    assert ckpt["write_ms"] > 0 and ckpt["load_ms"] > 0


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    from repro.obs import JsonLinesExporter, get_metrics

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=NUM_RECORDS)
    parser.add_argument("--metrics-out", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    rows = run_wal_bench(num_records=args.records)
    print("WAL append throughput per fsync policy")
    print(format_table(rows))
    print("\nAtomic checkpoint write/load")
    print(format_table([run_checkpoint_bench()]))
    if args.metrics_out:
        # The process-global registry carries nothing from the isolated
        # bench registries; re-run a small always-policy pass against it so
        # the export pins the wal.* metric names.
        with tempfile.TemporaryDirectory() as directory:
            wal = WriteAheadLog(directory, registry=get_metrics())
            for seq in range(1, 9):
                wal.append(seq, seq, b"LCL1-export-pass")
            wal.close()
            scan_wal(directory, registry=get_metrics())
        JsonLinesExporter(args.metrics_out).export((), get_metrics().snapshot())
        print(f"[obs] metrics snapshot written to {args.metrics_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
