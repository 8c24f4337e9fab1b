#!/usr/bin/env python3
"""Validate repro.obs JSON-lines exports against the documented schema.

Usage::

    python benchmarks/check_metrics_schema.py FILE [FILE ...] \
        [--require METRIC_NAME ...]

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

A trace file -- one that holds span records and no metric record, what
``--trace-out`` writes -- must be whole: the trace files together hold
one ``batch`` span per batch the server finished (a batch that raised
carries ``attrs.error`` and is not counted), i.e. as many as the inputs'
``server.batches`` counter says (0 when no input holds it).  The
process-default tracer is a small ring, so this catches a ``--trace-out``
run that exported only the ring.  A file that mixes spans with metrics
(``LitmusSession.export``) is a snapshot of one tracer beside the
process-wide registry, so its spans are not counted.

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


def check_file(
    path: str, errors: list[str], metrics: dict[str, dict]
) -> tuple[int, int | None]:
    """Validate *path* and collect its metric records by name into
    *metrics*.  Returns its number of records and, for a trace file, its
    number of finished ``batch`` spans (``None`` for any other file)."""
    seen = spans = batch_spans = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        errors.append(f"{path}: cannot read ({exc})")
        return 0, None
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
            spans += 1
            attrs = record.get("attrs")
            if record.get("name") == "batch" and not (
                isinstance(attrs, dict) and attrs.get("error")
            ):
                batch_spans += 1
        elif kind == "metric":
            check_metric(record, path, lineno, errors)
            if isinstance(record.get("name"), str):
                metrics[record["name"]] = record
        else:
            errors.append(_fail(path, lineno, "'kind' must be 'span' or 'metric'"))
    is_trace = spans > 0 and spans == seen
    return seen, (batch_spans if is_trace else None)


def main(argv: list[str]) -> int:
    paths: list[str] = []
    required: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--require":
            name = next(it, None)
            if name is None:
                print("SCHEMA ERROR: --require needs a metric name", file=sys.stderr)
                return 2
            required.append(name)
        else:
            paths.append(arg)
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    errors: list[str] = []
    total = 0
    metrics: dict[str, dict] = {}
    trace_batches: list[int] = []
    for path in paths:
        count, batch_spans = check_file(path, errors, metrics)
        total += count
        if batch_spans is not None:
            trace_batches.append(batch_spans)
        print(f"{path}: {count} record(s)")
    if total == 0:
        errors.append("no records found in any input file")
    for name in required:
        if name not in metrics:
            errors.append(f"required metric {name!r} missing from the inputs")
    if trace_batches:
        batches = metrics.get("server.batches", {}).get("value", 0)
        if batches != sum(trace_batches):
            errors.append(
                f"trace is not whole: {sum(trace_batches)} 'batch' span(s) but "
                f"the server.batches counter is {batches}"
            )
    if errors:
        for message in errors:
            print(f"SCHEMA ERROR: {message}", file=sys.stderr)
        return 1
    print(f"OK: {total} record(s) validated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
