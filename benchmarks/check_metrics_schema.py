#!/usr/bin/env python3
"""Validate repro.obs JSON-lines exports against the documented schema.

Usage::

    python benchmarks/check_metrics_schema.py FILE [FILE ...] \
        [--require METRIC_NAME ...] [--bench BENCH_FILE ...]

Every line of every file must be a JSON object with ``kind`` either
``"span"`` or ``"metric"``:

- span lines need ``name`` (str), ``span_id`` (int), ``root_id`` (int),
  ``parent_id`` (int or null), ``start``/``end``/``duration`` (numbers,
  ``end >= start``), ``attrs`` (object), ``thread`` (str);
- metric lines need ``name`` (str) and ``type`` in
  {``counter``, ``gauge``, ``histogram``}; counters/gauges need a numeric
  ``value`` (counters non-negative integers), histograms need numeric
  ``count``/``sum``/``min``/``max``/``mean``/``p50``/``p95``/``p99``.

``--require NAME`` (repeatable) additionally demands that a metric with
that exact name appears somewhere in the inputs — CI uses it to pin the
documented metric families so a rename cannot slip through silently:
the fault/recovery names (``faults.injected``, ``server.rollbacks``,
``session.resyncs``, ...), the ``net.*`` service names, and the
``shard.*`` family of the sharded engine (``shard.single_txns``,
``shard.cross_txns``, ``shard.flush_fanout``, ``shard.flush_seconds``,
``shard.cross_rounds``, ``shard.reserve_conflicts``,
``shard.partial_releases``), the ``xshard.*`` family of the atomic
cross-shard commit protocol (``xshard.intents``, ``xshard.commits``,
``xshard.compensations``, ``xshard.in_doubt_resolved``), and the
``nemesis.*`` family of the seeded chaos harness (``nemesis.steps``,
``nemesis.ops``, ``nemesis.crashes``, ``nemesis.recoveries``,
``nemesis.disk_faults``, ``nemesis.invariant_failures``), the
``storage.*`` family of the hostile-disk survival layer
(``storage.write_errors``, ``storage.rescue_rotations``,
``storage.fsync_failures``, ``storage.mirror_writes``,
``storage.mirror_write_failures``, ``storage.mirror_repairs``), and the
``scrub.*`` family of the scrub/repair pass (``scrub.runs``,
``scrub.files_scanned``, ``scrub.records_verified``,
``scrub.damage_found``, ``scrub.repairs``, ``scrub.quarantined``), and the
prover's witness counters (``authdict.lookups``,
``authdict.shared_base.builds``, ``authdict.shared_base.witnesses``,
``authdict.shared_base.fallbacks``).

``--bench PATH`` (repeatable) validates an orchestrated ``BENCH_<area>.json``
trajectory instead: the file is loaded through
``repro.bench.experiment.load_trajectory``, which re-checks every trial
record against the versioned schema (including the identity
``record_hash``) — CI runs it over every trajectory at the repo root after
``python -m repro --bench``.

Exit status 0 iff every line of every file validates and at least one
record was seen; CI runs this against the ``--metrics-out``/``--trace-out``
output of a figure command.  Hand-rolled on purpose: the repo takes no
jsonschema dependency.
"""

from __future__ import annotations

import json
import sys

METRIC_TYPES = {"counter", "gauge", "histogram"}
HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")


def _fail(path: str, lineno: int, message: str) -> str:
    return f"{path}:{lineno}: {message}"


def check_span(record: dict, path: str, lineno: int, errors: list[str]) -> None:
    if not isinstance(record.get("name"), str) or not record["name"]:
        errors.append(_fail(path, lineno, "span needs a non-empty string 'name'"))
    for field in ("span_id", "root_id"):
        if not isinstance(record.get(field), int):
            errors.append(_fail(path, lineno, f"span '{field}' must be an int"))
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, int):
        errors.append(_fail(path, lineno, "span 'parent_id' must be int or null"))
    for field in ("start", "end", "duration"):
        if not isinstance(record.get(field), (int, float)):
            errors.append(_fail(path, lineno, f"span '{field}' must be a number"))
    if (
        isinstance(record.get("start"), (int, float))
        and isinstance(record.get("end"), (int, float))
        and record["end"] < record["start"]
    ):
        errors.append(_fail(path, lineno, "span ends before it starts"))
    if not isinstance(record.get("attrs"), dict):
        errors.append(_fail(path, lineno, "span 'attrs' must be an object"))
    if not isinstance(record.get("thread"), str):
        errors.append(_fail(path, lineno, "span 'thread' must be a string"))


def check_metric(record: dict, path: str, lineno: int, errors: list[str]) -> None:
    if not isinstance(record.get("name"), str) or not record["name"]:
        errors.append(_fail(path, lineno, "metric needs a non-empty string 'name'"))
    mtype = record.get("type")
    if mtype not in METRIC_TYPES:
        errors.append(
            _fail(path, lineno, f"metric 'type' must be one of {sorted(METRIC_TYPES)}")
        )
        return
    if mtype == "histogram":
        for field in HISTOGRAM_FIELDS:
            if not isinstance(record.get(field), (int, float)):
                errors.append(
                    _fail(path, lineno, f"histogram '{field}' must be a number")
                )
        return
    value = record.get("value")
    if not isinstance(value, (int, float)):
        errors.append(_fail(path, lineno, f"{mtype} 'value' must be a number"))
    elif mtype == "counter" and (not isinstance(value, int) or value < 0):
        errors.append(_fail(path, lineno, "counter 'value' must be a non-negative int"))


def check_file(path: str, errors: list[str], metric_names: set[str]) -> int:
    seen = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        errors.append(f"{path}: cannot read ({exc})")
        return 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(_fail(path, lineno, f"not valid JSON ({exc})"))
            continue
        if not isinstance(record, dict):
            errors.append(_fail(path, lineno, "line is not a JSON object"))
            continue
        seen += 1
        kind = record.get("kind")
        if kind == "span":
            check_span(record, path, lineno, errors)
        elif kind == "metric":
            check_metric(record, path, lineno, errors)
            if isinstance(record.get("name"), str):
                metric_names.add(record["name"])
        else:
            errors.append(_fail(path, lineno, "'kind' must be 'span' or 'metric'"))
    return seen


def check_bench_trajectory(path: str, errors: list[str]) -> int:
    """Validate one BENCH_<area>.json through the experiment schema."""
    try:
        from repro.bench.experiment import load_trajectory
        from repro.errors import BenchError
    except ImportError:
        import pathlib

        sys.path.insert(
            0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
        )
        from repro.bench.experiment import load_trajectory
        from repro.errors import BenchError
    try:
        doc = load_trajectory(path)
    except BenchError as exc:
        errors.append(f"{path}: {exc}")
        return 0
    if not doc["entries"]:
        errors.append(f"{path}: trajectory has no entries")
        return 0
    return sum(len(entry["trials"]) for entry in doc["entries"])


def main(argv: list[str]) -> int:
    paths: list[str] = []
    bench_paths: list[str] = []
    required: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--require":
            name = next(it, None)
            if name is None:
                print("SCHEMA ERROR: --require needs a metric name", file=sys.stderr)
                return 2
            required.append(name)
        elif arg == "--bench":
            name = next(it, None)
            if name is None:
                print("SCHEMA ERROR: --bench needs a file path", file=sys.stderr)
                return 2
            bench_paths.append(name)
        else:
            paths.append(arg)
    if not paths and not bench_paths:
        print(__doc__, file=sys.stderr)
        return 2
    errors: list[str] = []
    total = 0
    metric_names: set[str] = set()
    for path in paths:
        count = check_file(path, errors, metric_names)
        total += count
        print(f"{path}: {count} record(s)")
    for path in bench_paths:
        count = check_bench_trajectory(path, errors)
        total += count
        print(f"{path}: {count} trial record(s)")
    if total == 0:
        errors.append("no records found in any input file")
    for name in required:
        if name not in metric_names:
            errors.append(f"required metric {name!r} missing from the inputs")
    if errors:
        for message in errors:
            print(f"SCHEMA ERROR: {message}", file=sys.stderr)
        return 1
    print(f"OK: {total} record(s) validated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
