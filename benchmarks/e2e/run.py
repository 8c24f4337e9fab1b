"""Measured end-to-end benchmark: client -> LNP1 -> service -> fsync -> crash -> recover.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out FILE]

One load-generator process with two closed-loop ``RemoteSession`` threads
drives a ``LitmusService`` in a child process (``service_child.py``) through
set-up, a steady phase of ``--seconds`` seconds, a SIGKILL, a cold recovery,
output checks and a SIGTERM drain.  Every number is wall-clock on this
machine (``"kind": "measured"``), and the CPU-bound timings among the
end-to-end metrics are scaled by a speed probe taken alongside them; see
README.md for the definitions.

With ``--workload`` the last line of standard output is one JSON object:
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.  The
exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.core import RetryPolicy  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.net import RemoteSession  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402

import trace as tracing  # noqa: E402  (the sibling module, not the stdlib's)
from workloads import CLIENTS, INITIAL_BALANCE, REFERENCE_SECONDS, WORKLOADS  # noqa: E402

WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUPS = 3  # set-ups per untraced run; setup_s is their median
RECOVERIES = 5  # cold recoveries of the crashed directory; recover_s is their median
PINGS = 200
WARMUP_CYCLES = 5
PROBE_EVERY = 0.4  # seconds between speed probes while clients run; a probe takes 0.04
DRAIN_ALONE = 0.5  # seconds a drain gets to finish before other work starts beside it
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run, spent on an untraced service
READY_TIMEOUT = 60.0
FLUSH_TIMEOUT = 30.0
HARD_TIMEOUT = 170  # seconds per workload; the contract allows 180
MAX_FAILED_SHARE = 0.005

class HarnessError(Exception):
    """The harness itself failed: a child died, hung, or broke the protocol."""


# -- the service child ---------------------------------------------------------


class Child:
    """One ``service_child.py`` process and its control pipe."""

    live: list["Child"] = []

    def __init__(self, workload, directory: Path, mode: str, trace: bool, serve=True):
        self.stderr_path = directory.parent / f"{directory.name}.{mode}.stderr"
        self.spawned = perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    str(HERE / "service_child.py"),
                    "--workload", workload.name,
                    "--dir", str(directory),
                    "--mode", mode,
                    "--trace", str(int(trace)),
                    "--serve", str(int(serve)),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                # Set iteration order is part of the work done; pin it.
                env={**os.environ, "PYTHONHASHSEED": "0"},
            )
        Child.live.append(self)
        self.lines: queue.Queue = queue.Queue()
        self.pump = threading.Thread(target=self._pump, daemon=True)
        self.pump.start()
        self.ready = self.expect("ready", READY_TIMEOUT)
        if not self.spawned <= self.ready["clock"] <= perf_counter():
            raise HarnessError("child and load generator do not share perf_counter's timeline")

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def expect(self, event: str, timeout: float) -> dict:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise HarnessError(
                f"child printed no {event} line within {timeout}s\n{self.stderr()}"
            ) from None
        if line is None:
            raise HarnessError(
                f"child exited with {self.proc.wait()} before its {event} line\n{self.stderr()}"
            )
        message = json.loads(line)
        if message["event"] != event:
            raise HarnessError(f"expected {event}, child sent {message['event']}")
        return message

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.expect(command, READY_TIMEOUT)

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-4000:]

    def probe(self) -> float:
        """Seconds the fixed exponentiation of ``workloads.probe_speed`` takes in the child."""
        return self.ask("probe")["seconds"]

    def kill(self) -> None:
        """SIGKILL and reap; safe to call twice."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.pump.join(READY_TIMEOUT)  # the dead child's stdout is at end of file
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        if self in Child.live:
            Child.live.remove(self)

    def terminate(self) -> None:
        """SIGTERM; a thread notes when the child has exited, whatever the caller does next."""
        def reap() -> None:
            self.proc.wait()
            self.exited = perf_counter()

        self.reaper = threading.Thread(target=reap, daemon=True)
        self.terminated = perf_counter()
        self.proc.terminate()
        self.reaper.start()

    def drained(self) -> tuple[float, dict]:
        """After ``terminate``: wait for the exit event and exit code 0."""
        message = self.expect("exit", READY_TIMEOUT)
        self.reaper.join(READY_TIMEOUT)
        if self.reaper.is_alive() or self.proc.returncode != 0:
            raise HarnessError(
                f"drained child exited with {self.proc.returncode}\n{self.stderr()}"
            )
        self.kill()
        return self.exited - self.terminated, message


# -- the load generator --------------------------------------------------------


def connect(port: int, index: int) -> RemoteSession:
    return RemoteSession(
        "127.0.0.1",
        port,
        client_id=f"client-{index}",
        retry_policy=RetryPolicy(max_attempts=3, backoff=0.01),
        registry=MetricsRegistry(),
    )


def one_flush(session: RemoteSession, index: int, calls: list, before_flush=None) -> tuple:
    """Submit *calls*, flush; returns ``(client, start, end, accepted txns or None)``.

    The time runs from the first submit to ``flush()`` returning the verified,
    journaled result.  *before_flush* is where the lock-step loop waits for
    the other clients' submits.
    """
    start = perf_counter()
    accepted = None
    try:
        for program, params in calls:
            session.submit(f"client-{index}", program, **params)
        submitted = True
    except ReproError:
        submitted = False
    if before_flush is not None:
        before_flush()
    if submitted:
        try:
            result = session.flush(timeout=FLUSH_TIMEOUT)
            if result.accepted:
                accepted = result.num_txns
        except ReproError:
            pass
    return index, start, perf_counter(), accepted


def run_clients(sessions, streams, workload, cycles=None, seconds=None, between=None) -> tuple:
    """The closed loop, in lock step; returns ``(samples, start, end, paused)``.

    Per cycle every client submits its transactions, and once all have, every
    client flushes and waits for its verified result.  The lock step makes the
    batch the service verifies a function of the seed alone: free-running
    clients merge into rounds of whatever happens to be staged, and the
    throughput of one seed then differs by a fifth from run to run.  *between*
    runs before each cycle with every client idle; *paused* is the time it took.
    """
    samples: list[list] = [[] for _ in sessions]
    errors: list[BaseException] = []
    start = perf_counter()
    cycle = 0
    paused = 0.0
    proceed = True

    def decide() -> None:
        nonlocal cycle, paused, proceed
        proceed = cycle < cycles if cycles is not None else perf_counter() - start < seconds
        cycle += 1
        if proceed and between is not None:
            began = perf_counter()
            between()
            paused += perf_counter() - began

    begin = threading.Barrier(len(sessions), action=decide)
    submitted = threading.Barrier(len(sessions))

    def loop(index: int) -> None:
        try:
            while True:
                begin.wait()
                if not proceed:
                    break
                calls = [next(streams[index]) for _ in range(workload.txns_per_flush)]
                samples[index].append(
                    one_flush(sessions[index], index, calls, before_flush=submitted.wait)
                )
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller below
            errors.append(exc)
            begin.abort()
            submitted.abort()

    threads = [
        threading.Thread(target=loop, args=(i,), name=f"client-{i}", daemon=True)
        for i in range(len(sessions))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [s for per_client in samples for s in per_client], start, perf_counter(), paused


def at_reference_speed(seconds: float, probes: list[float]) -> float:
    """*seconds* of CPU-bound wall time, as the reference machine would have taken them.

    *probes* are the speed probes taken while those seconds passed.
    """
    return seconds * REFERENCE_SECONDS / statistics.median(probes)


class Deployment:
    """Child A plus its connected, warmed-up clients: the set-up phase."""

    def __init__(self, workload, seed: int, directory: Path, trace: bool, smoke: bool):
        begin = perf_counter()
        self.child = Child(workload, directory, "create", trace)
        self.probes = list(self.child.ready["probes"])
        self.last_probe = perf_counter()
        self.sessions = [connect(self.child.ready["port"], i) for i in range(CLIENTS)]
        self.streams = [workload.calls(seed, i) for i in range(CLIENTS)]
        pings = PINGS // 10 if smoke else PINGS
        self.ping_seconds = [
            session.ping() for session in self.sessions for _ in range(pings // CLIENTS)
        ]
        warmup, _, _, _ = run_clients(
            self.sessions, self.streams, workload, cycles=2 if smoke else WARMUP_CYCLES,
            between=self.probe,
        )
        if any(sample[3] is None for sample in warmup):
            raise HarnessError("a warm-up flush failed")
        # The probes are the harness's own work, not the set-up's.
        self.setup_seconds = at_reference_speed(
            perf_counter() - begin - sum(self.probes), self.probes
        )

    def probe(self) -> None:
        """Between cycles, every ``PROBE_EVERY`` seconds: time the child's vCPU."""
        if perf_counter() - self.last_probe >= PROBE_EVERY:
            self.probes.append(self.child.probe())
            self.last_probe = perf_counter()

    def steady(self, workload, seconds: float) -> dict:
        before = self.child.ask("stats")
        self.probes = [self.child.probe()]
        self.last_probe = perf_counter()
        samples, start, end, paused = run_clients(
            self.sessions, self.streams, workload, seconds=seconds, between=self.probe
        )
        after = self.child.ask("stats")
        accepted = [s for s in samples if s[3] is not None]
        txns = sum(s[3] for s in accepted)
        return {
            "samples": samples,
            "start": start,
            "end": end,
            "paused": paused,
            "probes": self.probes,
            "before": before,
            "after": after,
            "flushes": len(accepted),
            "txns": txns,
            "txn_per_s": txns / at_reference_speed(end - start - paused, self.probes),
        }

    def last_acked_digest(self, steady: dict) -> list[int]:
        """The digest vector in the RESULT of the flush that finished last."""
        last = max((s for s in steady["samples"] if s[3] is not None), key=lambda s: s[2])
        return list(self.sessions[last[0]].digest)

    def kill(self) -> None:
        """The crash: SIGKILL with the clients connected and idle."""
        self.child.kill()
        for session in self.sessions:
            session.close()


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def delta(steady: dict, name: str, field: str | None = None) -> float:
    def read(stats):
        value = stats["metrics"].get(name, 0)
        return value[field] if field else value

    return read(steady["after"]) - read(steady["before"])


# -- one workload, start to finish ---------------------------------------------


def run_workload(workload, seed: int, seconds: float, smoke: bool,
                 client_records: list | None = None, wrong_digest: bool = False) -> dict:
    """Run every phase of *workload*; *client_records* (from ``tracing.install``) makes it a
    traced run."""
    trace = client_records is not None
    checks: dict[str, bool] = {}
    fingerprint = workload.call_fingerprint(seed)
    checks["same seed, same calls"] = fingerprint == workload.call_fingerprint(seed)
    checks["other seed, other calls"] = fingerprint != workload.call_fingerprint(seed + 1)

    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = work / "data"
    visitor = None
    repeat = not (smoke or trace)  # a full untraced run sets up and recovers several times
    steady_seconds = seconds * (1 - UNTRACED_SHARE) if trace else seconds
    signal.alarm(HARD_TIMEOUT)
    try:
        untraced_rate = None
        if trace:
            # The same seed on a service without wrappers, for trace.overhead_share.
            plain = Deployment(workload, seed, data, trace=False, smoke=smoke)
            untraced_rate = plain.steady(workload, seconds * UNTRACED_SHARE)["txn_per_s"]
            plain.kill()
            shutil.rmtree(data)
            del client_records[:]

        deployment = Deployment(workload, seed, data, trace, smoke)
        setup_samples = [deployment.setup_seconds]
        steady = deployment.steady(workload, steady_seconds)
        service_rows = deployment.child.ask("spans")["rows"] if trace else []
        acked = deployment.last_acked_digest(steady)
        deployment.kill()

        replicas = [work / f"replica-{copy}" for copy in range(RECOVERIES - 1 if repeat else 0)]
        for replica in replicas:
            shutil.copytree(data, replica)
        recovered = Child(workload, data, "recover", trace)
        recover_samples = [
            at_reference_speed(recovered.ready["call_s"], recovered.ready["probes"])
        ]

        expected = [d + 1 for d in acked] if wrong_digest else acked
        checks["recovered digest is the last acknowledged one"] = (
            recovered.ready["digest"] == expected
        )
        checks["no cross-shard round left pending"] = (
            recovered.ready["recovery"]["pending_rounds"] == 0
        )
        visitor = connect(recovered.ready["port"], 0)
        calls = [next(deployment.streams[0]) for _ in range(workload.txns_per_flush)]
        post = one_flush(visitor, 0, calls)
        checks["post-recovery flush accepted"] = post[3] == len(calls)
        if workload.kind == "transfer":
            checks["balance conserved"] = (
                recovered.ask("stats")["balance"] == workload.rows * INITIAL_BALANCE
            )
        visitor.close()

        # The drain idles for seconds in the seed's acceptor join (ROADMAP item
        # 1a); the other set-ups and cold recoveries of this run go meanwhile.
        recovered.terminate()
        recovered.reaper.join(DRAIN_ALONE)
        for _ in range(SETUPS - 1 if repeat else 0):
            spare = Deployment(workload, seed, work / "spare", trace=False, smoke=smoke)
            setup_samples.append(spare.setup_seconds)
            spare.kill()
            shutil.rmtree(work / "spare")
        for replica in replicas:
            cold = Child(workload, replica, "recover", trace=False, serve=False)
            recover_samples.append(
                at_reference_speed(cold.ready["call_s"], cold.ready["probes"])
            )
            cold.proc.wait(timeout=READY_TIMEOUT)
            cold.kill()
        shutdown_seconds, exit_message = recovered.drained()
    finally:
        signal.alarm(0)
        for child in list(Child.live):
            child.kill()
        if visitor is not None:
            visitor.close()
        shutil.rmtree(work, ignore_errors=True)
    checks["no orphan service_child.py"] = not orphans()

    attempted = len(steady["samples"]) + 1
    failed = attempted - steady["flushes"] - (post[3] is not None)
    checks[f"failed share at most {MAX_FAILED_SHARE}"] = failed / attempted <= MAX_FAILED_SHARE
    latencies = sorted(
        at_reference_speed(s[2] - s[1], steady["probes"]) * 1e3
        for s in steady["samples"] if s[3] is not None
    )
    # Beside the metrics: a round serves both clients' flushes, so a 16 s run of
    # mix-r512 has about eight independent samples beyond p90, and across seeds
    # that spreads too close to the widest bound the contract allows.
    notes = {
        "flush_p90_ms": (percentile(latencies, 0.90), "ms"),
        "probe_ms": (statistics.median(steady["probes"]) * 1e3, "ms"),
    }

    if trace:
        metrics = layer_metrics(
            workload, deployment, steady, service_rows, exit_message["rows"],
            tracing.drain(client_records), untraced_rate, recovered.ready["recovery"],
        )
        metrics["net.client.flush.p90_ms"] = notes["flush_p90_ms"]
        metrics["host.probe_ms"] = notes["probe_ms"]
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "txn_per_s": (steady["txn_per_s"], "txn/s"),
            "flush_p50_ms": (percentile(latencies, 0.50), "ms"),
            "wal_bytes_per_txn": (delta(steady, "wal.bytes") / steady["txns"], "bytes"),
            "peak_rss_mb": (steady["after"]["vm_hwm_kb"] / 1024, "MiB"),
            "recover_s": (statistics.median(recover_samples), "s"),
            "shutdown_s": (shutdown_seconds, "s"),
        }
    return {
        "kind": "measured",
        "workload": workload.name,
        "parameters": workload.parameters(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "backend": deployment.child.ready["backend"],
        "flush_samples": len(latencies),
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
        "notes": {name: {"value": value, "unit": unit} for name, (value, unit) in notes.items()},
    }


# -- the traced run ------------------------------------------------------------


def client_thread(client: int) -> str:
    """Prefix of the thread key of a load-generator client thread (see ``run_clients``)."""
    return f"load:client-{client}#"


def merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, disjoint union of *intervals*."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def overlapping(disjoint: list[tuple[float, float]], lo: float, hi: float) -> list:
    """The members of a sorted disjoint list that intersect ``[lo, hi]``."""
    first = bisect.bisect_left(disjoint, (lo, lo))
    if first and disjoint[first - 1][1] > lo:
        first -= 1
    last = bisect.bisect_left(disjoint, (hi, hi))
    return disjoint[first:last]


def layer_metrics(workload, deployment, steady, service_rows, recover_rows, client_rows,
                  untraced_rate, recovery) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as ``(value, unit)``; also writes the trace file."""
    # One thread key per process and thread: "<process>:<thread name>#<ident>".
    keyed = [
        [name, start, end, f"{process}:{thread}", value]
        for process, rows in (
            ("load", client_rows), ("service", service_rows), ("recovered", recover_rows)
        )
        for name, start, end, thread, value in rows
    ]
    parents = tracing.nest(keyed)
    own = tracing.self_times(keyed, parents)
    lo, hi = steady["start"], steady["end"]
    flushes = steady["flushes"]

    calls = dict.fromkeys(tracing.SPAN_NAMES, 0)
    self_s = dict.fromkeys(tracing.SPAN_NAMES, 0.0)
    for row, seconds in zip(keyed, own):
        name = row[0]
        if name in tracing.LIFECYCLE_SPANS or lo <= row[1] <= hi:
            calls[name] += 1
            self_s[name] += seconds
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SPAN_NAMES:
        per = 1 if name in tracing.LIFECYCLE_SPANS else flushes
        metrics[f"{name}.calls"] = (calls[name] / per, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / per, "s")

    txns = steady["txns"]
    round_span = "core.sharding.flush" if workload.shards > 1 else "core.session.flush"
    rounds = sum(1 for row in keyed if row[0] == round_span and lo <= row[1] <= hi)
    rpcs = txns + len(steady["samples"])
    client_seconds = sum(s[2] - s[1] for s in steady["samples"])
    written = [r[4] for r in keyed if r[0] == "db.fsio.write" and lo <= r[1] <= hi]
    cache = {
        field: sum(
            steady["after"]["cache"][c][field] - steady["before"]["cache"][c][field]
            for c in steady["after"]["cache"]
        )
        for field in ("hits", "misses")
    }
    sharded_txns = delta(steady, "shard.cross_txns") + delta(steady, "shard.single_txns")
    metrics.update({
        "net.client.ping_rtt_us": (statistics.median(deployment.ping_seconds) * 1e6, "us"),
        "net.service.rpc_overhead_ms": (
            (client_seconds - delta(steady, "net.op_seconds", "sum")) / rpcs * 1e3, "ms"),
        "net.service.batches_per_flush_op": (rounds / len(steady["samples"]), "ratio"),
        "net.service.sheds": (delta(steady, "net.sheds"), "count"),
        "net.codec.bytes_per_txn": (
            (delta(steady, "net.bytes_sent") + delta(steady, "net.bytes_received")) / txns,
            "bytes"),
        "db.wal.records_per_txn": (delta(steady, "wal.records") / txns, "ratio"),
        "db.wal.fsyncs_per_txn": (delta(steady, "wal.fsyncs") / txns, "ratio"),
        "db.fsio.bytes_per_write": (sum(written) / max(len(written), 1), "bytes"),
        "crypto.cache.hit_rate": (
            cache["hits"] / max(cache["hits"] + cache["misses"], 1), "ratio"),
        "core.session.retries": (delta(steady, "session.retries"), "count"),
        "core.server.rollbacks": (delta(steady, "server.rollbacks"), "count"),
        "core.sharding.cross_txn_share": (
            delta(steady, "shard.cross_txns") / max(sharded_txns, 1), "ratio"),
        "core.sharding.fanout_per_flush": (
            delta(steady, "shard.flush_fanout") / max(rounds, 1), "ratio"),
        "core.sharding.compensations": (delta(steady, "xshard.compensations"), "count"),
        "core.session.recover.replayed_batches": (recovery["replayed_batches"], "count"),
    })

    # Unattributed: flush wall time during which no span was open in the
    # service process and the waiting client's thread was not sending a frame.
    service_busy = merge(
        [(r[1], r[2]) for r, p in zip(keyed, parents)
         if p is None and r[3].startswith("service:")]
    )
    sends = {
        client: sorted(
            (r[1], r[2]) for r in keyed
            if r[0] == "net.codec.send" and r[3].startswith(client_thread(client))
        )
        for client in range(CLIENTS)
    }
    wall = busy = 0.0
    for client, start, end, accepted in steady["samples"]:
        if accepted is None:
            continue
        pieces = overlapping(service_busy, start, end) + overlapping(sends[client], start, end)
        wall += end - start
        busy += tracing.covered(pieces, start, end)
    metrics["trace.unattributed_share"] = (1 - busy / wall, "ratio")
    engine = [
        (r[1], r[2]) for r in keyed
        if r[0] in ("core.server.execute_batch", "core.client.verify_response")
    ]
    metrics["trace.engine_share"] = (
        tracing.covered(engine, lo, hi) / (hi - lo - steady["paused"]), "ratio")
    metrics["trace.overhead_share"] = (1 - steady["txn_per_s"] / untraced_rate, "ratio")

    write_trace(workload, keyed, parents, own, steady)
    return metrics


def write_trace(workload, rows, parents, own, steady) -> None:
    """``results/trace-<workload>.jsonl``: the flushes, then every span."""
    RESULTS.mkdir(exist_ok=True)
    flush_ids: dict[int, list] = {}
    for client, start, end, _accepted in sorted(steady["samples"]):
        mine = flush_ids.setdefault(client, [])
        mine.append((start, end, f"c{client}-{len(mine)}"))
    with open(RESULTS / f"trace-{workload.name}.jsonl", "w") as out:
        for client, spans in sorted(flush_ids.items()):
            for start, end, flush_id in spans:
                out.write(json.dumps(
                    {"kind": "flush", "id": flush_id, "client": client,
                     "start": start, "end": end}) + "\n")
        for index, (name, start, end, thread, value) in enumerate(rows):
            record = {"kind": "span", "id": index, "name": name, "thread": thread,
                      "start": start, "end": end, "parent": parents[index],
                      "self_s": own[index]}
            if value is not None:
                record["value"] = value
            for client, spans in flush_ids.items():
                if thread.startswith(client_thread(client)):
                    # Spans of one flush share the flush's id.
                    at = bisect.bisect_right(spans, (start, math.inf, "")) - 1
                    if at >= 0 and spans[at][1] >= end:
                        record["flush"] = spans[at][2]
            out.write(json.dumps(record) + "\n")


# -- command line --------------------------------------------------------------


def environment(backend: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "bignum_backend": backend,
        "git_sha": sha,
    }


def orphans() -> list[int]:
    """Pids of ``service_child.py`` processes working under this benchmark's directory."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"service_child.py" in command and str(WORK).encode() in command:
                found.append(int(entry.name))
    return found


def append_out(path: Path, results: list[dict], env: dict) -> None:
    """Add these runs to *path*, which ``compare.py`` reads."""
    document = {"kind": "measured", "environment": env, "runs": []}
    if path.exists():
        document = json.loads(path.read_text())
        if document["environment"]["bignum_backend"] != env["bignum_backend"]:
            raise SystemExit(f"{path} holds runs of another bignum backend")
    document["runs"].extend(results)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0, help="length of the steady phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the steady phase, one set-up, one recovery")
    parser.add_argument("--out", type=Path, help="append the runs to this JSON file")
    parser.add_argument("--wrong-digest", action="store_true",
                        help="self-test: expect a wrong recovered digest; the run must fail")
    args = parser.parse_args(argv)
    if args.smoke and args.out:
        parser.error("--smoke results are never recorded")

    def on_signal(signum, _frame):
        raise SystemExit(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, on_signal)
    # One vCPU for the load generator and every child: the lock-step loop is
    # serial, and a hand-off between vCPUs waits for the host to wake the other
    # one, which costs what the host's other tenants make it cost.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seconds = max(1.0, args.seconds / 10) if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    client_records = tracing.install() if args.trace else None
    results = []
    for name in names:
        result = run_workload(
            WORKLOADS[name], args.seed, seconds, args.smoke, client_records, args.wrong_digest
        )
        results.append(result)
        label = "smoke, " if args.smoke else ""
        print(f"== {name} ({label}measured, seed {args.seed}, {result['flush_samples']} "
              f"flush samples, {result['failed']}/{result['attempted']} failed)")
        for metric, entry in result["metrics"].items():
            print(f"{metric:45s} {entry['value']:>14.6g} {entry['unit']}")
        for note, entry in result["notes"].items():
            print(f"note: {note:39s} {entry['value']:>14.6g} {entry['unit']}")
        for check, passed in result["checks"].items():
            print(f"check: {check}: {'ok' if passed else 'FAILED'}")
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if args.out:
        append_out(args.out, results, environment(results[0]["backend"]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
