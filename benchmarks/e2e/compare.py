"""Compare two sets of e2e runs, one row per workload and end-to-end metric.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are files written by ``run.py --out`` (several runs each, one seed per
run).  A is the base: the ratio is B's median over A's.  The bound and the
direction of each metric come from ``BENCHMARK.json``.  Verdicts:

- ``unresolved``  the quartile distance of A's or B's runs, as a share of the
                  median, is wider than the bound, so the runs cannot tell,
                  unless every run of B reads better than every run of A;
- ``worse``       B's median is worse than A's by more than the bound;
- ``better``      B's median is better by more than A's own quartile distance;
- ``within``      neither.

Runs are only comparable when the bignum backend, the seeds, the length of
the steady phase and the workload parameters agree; otherwise the exit code
is 2.  It is 1 when any row is ``worse`` or ``unresolved``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# shutdown_s falls to milliseconds once the acceptor stall is fixed; below
# this many seconds of difference it is not a regression whatever the ratio.
ABSOLUTE_FLOOR = {"shutdown_s": 0.1}


def load(path: str) -> tuple[dict, dict[str, list[dict]]]:
    document = json.loads(Path(path).read_text())
    runs: dict[str, list[dict]] = {}
    for run in document["runs"]:
        if not run["trace"] and not run["smoke"]:
            runs.setdefault(run["workload"], []).append(run)
    return document["environment"], runs


def comparable(env_a, runs_a, env_b, runs_b) -> str | None:
    """Why the two sets cannot be compared, or None."""
    if env_a["bignum_backend"] != env_b["bignum_backend"]:
        return f"bignum backends differ: {env_a['bignum_backend']} / {env_b['bignum_backend']}"
    if sorted(runs_a) != sorted(runs_b):
        return f"workloads differ: {sorted(runs_a)} / {sorted(runs_b)}"
    for name in runs_a:
        for field in ("seed", "seconds", "parameters"):
            a = sorted((r[field] for r in runs_a[name]), key=repr)
            b = sorted((r[field] for r in runs_b[name]), key=repr)
            if a != b:
                return f"{name}: {field} differs: {a} / {b}"
    return None


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile (0 below two values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def verdict(a: list[float], b: list[float], better: str, bound: float, floor: float) -> str:
    sign = 1 if better == "lower" else -1  # positive means worse
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a)
    if max(spread(a) / abs(med_a), spread(b) / abs(med_b)) > bound:
        every_run_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if every_run_better else "unresolved"
    if worse_by > max(bound * abs(med_a), floor):
        return "worse"
    if len(a) > 1 and -worse_by > spread(a):
        return "better"
    return "within"


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    (env_a, runs_a), (env_b, runs_b) = load(paths[0]), load(paths[1])
    reason = comparable(env_a, runs_a, env_b, runs_b)
    if reason:
        print(f"not comparable: {reason}")
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print(f"{'workload':12s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict")
    failed = False
    for name in runs_a:
        for metric in metrics:
            a = [r["metrics"][metric["name"]]["value"] for r in runs_a[name]]
            b = [r["metrics"][metric["name"]]["value"] for r in runs_b[name]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            result = verdict(a, b, metric["better"], metric["bound"],
                             ABSOLUTE_FLOOR.get(metric["name"], 0.0))
            failed |= result in ("worse", "unresolved")
            print(f"{name:12s} {metric['name']:18s} {med_a:12.5g} {med_b:12.5g} "
                  f"{med_b / med_a:7.3f} {metric['bound']:6.2f} "
                  f"{spread(a) / abs(med_a):9.4f} {spread(b) / abs(med_b):9.4f}  {result}")
    print(f"base: A = {paths[0]} ({len(next(iter(runs_a.values())))} runs per workload, "
          f"git {env_a['git_sha'][:12]}); B = {paths[1]} (git {env_b['git_sha'][:12]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
