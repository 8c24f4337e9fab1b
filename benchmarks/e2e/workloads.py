"""The four e2e workloads: table contents, stored procedures, seeded calls.

Shared by the load generator (``run.py``) and the service child
(``service_child.py``).  The load generator draws the calls from ``--seed``
and sends them over the wire; the service child builds the table and
registers the programs, and never sees the seed.

Names are fixed: later issues predict against them.  The table sizes are the
working-set axis.  The ``crypto.cache`` LRUs hold 65,536 entries and building
a table that large costs minutes of ``hash_to_prime`` on this sandbox, so no
workload exceeds the program's caches; 64 against 512 rows is what moves the
per-batch state copies and the accumulator exponent instead.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Iterator

from repro.core.sharding import ShardMap
from repro.vc.program import (
    Add,
    Emit,
    KeyTemplate,
    Param,
    Program,
    ReadStmt,
    ReadVal,
    Sub,
    WriteStmt,
)
from repro.workloads.ycsb import YCSB_PROGRAMS, YCSBWorkload

CLIENTS = 2  # closed loop: one RemoteSession per load-generator thread

# The durability and engine policy, identical for every workload.
FSYNC = "always"
CHECKPOINT_EVERY = 64
GROUP_BITS = 512
GROUP_SEED = b"litmus-e2e-bench"
ENGINE = dict(
    cc="dr", processing_batch_size=8, batches_per_piece=2, prime_bits=64, num_provers=1
)

INITIAL_BALANCE = 1_000_000  # transfers move 1..9, so no balance goes negative

# The speed probe.  This sandbox's vCPU changes speed by a third for minutes at
# a time (see README.md), so the service child times one fixed modular
# exponentiation, the kind of work a flush is made of, next to everything the
# benchmark times, and every CPU-bound timing is reported at the speed at which
# that exponentiation takes REFERENCE_SECONDS (what it takes here in a calm spell).
REFERENCE_SECONDS = 0.040
_PROBE_EXPONENT = (1 << 40_000) - 1
_PROBE_MODULUS = (1 << 511) + 12345678901234567891


def probe_speed() -> float:
    """Seconds the fixed exponentiation takes right now, in this process."""
    start = perf_counter()
    pow(3, _PROBE_EXPONENT, _PROBE_MODULUS)
    return perf_counter() - start

TRANSFER = Program(
    name="transfer",
    params=("src", "dst", "amount"),
    statements=(
        ReadStmt("s", KeyTemplate(("acct", Param("src")))),
        ReadStmt("d", KeyTemplate(("acct", Param("dst")))),
        WriteStmt(KeyTemplate(("acct", Param("src"))), Sub(ReadVal("s"), Param("amount"))),
        WriteStmt(KeyTemplate(("acct", Param("dst"))), Add(ReadVal("d"), Param("amount"))),
        Emit(Add(ReadVal("s"), ReadVal("d"))),
    ),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "ycsb" | "transfer"
    rows: int
    txns_per_flush: int  # per client
    shards: int = 1
    theta: float = 0.6
    write_ratio: float = 0.5
    cross_one_in: int = 0  # transfer: exactly one txn in this many crosses shards

    def parameters(self) -> dict:
        params = asdict(self)
        del params["why"]
        return params

    def programs(self) -> list[Program]:
        if self.kind == "transfer":
            return [TRANSFER]
        return list(YCSB_PROGRAMS.values())

    def initial(self) -> dict[tuple, int]:
        if self.kind == "transfer":
            return {("acct", i): INITIAL_BALANCE for i in range(self.rows)}
        return YCSBWorkload(num_rows=self.rows).initial_data()

    def calls(self, seed: int, client: int) -> Iterator[tuple[str, dict[str, int]]]:
        """The endless seeded stream of ``(program name, params)`` for one client."""
        if self.kind == "transfer":
            return self._transfer_calls(seed, client)
        return self._ycsb_calls(seed, client)

    def _ycsb_calls(self, seed, client):
        # YCSBWorkload derives two generators from seed and seed + 1.
        source = YCSBWorkload(
            num_rows=self.rows,
            theta=self.theta,
            write_ratio=self.write_ratio,
            seed=seed * 2 * CLIENTS + 2 * client,
        )
        while True:
            for txn in source.generate(256):
                yield txn.program.name, dict(txn.params)

    def _transfer_calls(self, seed, client):
        rng = random.Random(seed * CLIENTS + client)
        shard_map = ShardMap(self.shards)
        by_shard: list[list[int]] = [[] for _ in range(self.shards)]
        for account in range(self.rows):
            by_shard[shard_map.shard_of(("acct", account))].append(account)
        index = 0
        while True:
            index += 1
            src = rng.randrange(self.rows)
            home = shard_map.shard_of(("acct", src))
            if self.cross_one_in and index % self.cross_one_in == 0:
                away = rng.choice([s for s in range(self.shards) if s != home])
                dst = rng.choice(by_shard[away])
            else:
                dst = rng.choice([a for a in by_shard[home] if a != src])
            yield TRANSFER.name, {"src": src, "dst": dst, "amount": rng.randint(1, 9)}

    def call_fingerprint(self, seed: int, count: int = 512) -> str:
        """SHA-256 over the first *count* calls of every client, in order."""
        hasher = hashlib.sha256()
        for client in range(CLIENTS):
            stream = self.calls(seed, client)
            for _ in range(count):
                hasher.update(json.dumps(next(stream), sort_keys=True).encode())
        return hasher.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="point-r64",
            why="1-txn flushes on 64 rows: the engine's fixed cost is smallest, so wire, "
            "codec, queue, session and fsync per-operation costs take their largest share",
            kind="ycsb",
            rows=64,
            txns_per_flush=1,
        ),
        Workload(
            name="mix-r512",
            why="4-txn 50%-write flushes on 512 rows: lookup proofs, accumulator updates "
            "and per-batch state copies scale with the table and do nearly all the work",
            kind="ycsb",
            rows=512,
            txns_per_flush=4,
        ),
        Workload(
            name="read-r512",
            why="mix-r512 with 0% writes: certify_reads and lookup proofs run, update and "
            "apply_writes do not, so a write-path gain that costs reads shows here",
            kind="ycsb",
            rows=512,
            txns_per_flush=4,
            write_ratio=0.0,
        ),
        Workload(
            name="xshard-r256",
            why="transfers over 4 shards with 1 in 4 crossing: the only workload where the "
            "router, reserve, intent journal, fan-out and four WALs do work",
            kind="transfer",
            rows=256,
            txns_per_flush=4,
            shards=4,
            cross_one_in=4,
        ),
    )
}
