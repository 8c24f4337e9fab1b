#!/usr/bin/env python3
"""Quickstart: a verifiable YCSB session against an untrusted server.

Runs the full Litmus protocol end to end with real cryptography through the
:class:`~repro.LitmusSession` facade:

1. ``LitmusSession.create`` builds the untrusted server and the verifying
   client over a shared RSA group and initial database digest;
2. ``session.submit`` queues YCSB transactions on behalf of a user;
3. ``session.flush`` drives one verification round — the server executes
   under deterministic reservation, aggregates the memory-integrity proofs
   per non-conflicting batch, and proves every circuit piece; the client
   matches the circuits, verifies the proofs and the digest chain;
4. the returned :class:`~repro.BatchResult` carries the verdict, the
   per-transaction outputs, the timing report, and a metrics snapshot;
   ``session.export`` prints the span/metric view of the same run.

Run:  python examples/quickstart.py
"""

from repro import LitmusConfig, LitmusSession, YCSBWorkload
from repro.crypto import RSAGroup
from repro.obs import ConsoleSummaryExporter


def main() -> None:
    print("== Litmus quickstart ==")
    group = RSAGroup.generate(bits=512, seed=b"quickstart")

    workload = YCSBWorkload(num_rows=512, theta=0.6, seed=1)
    config = LitmusConfig(
        cc="dr",
        processing_batch_size=32,
        batches_per_piece=4,
        num_provers=4,
        prime_bits=64,
    )
    session = LitmusSession.create(
        initial=workload.initial_data(), config=config, group=group
    )
    print(f"agreed initial digest: {hex(session.digest)[:18]}...")

    txns = workload.generate(60)
    for txn in txns:
        session.submit("quickstart", txn.program, **txn.params)
    print(f"submitting a verification batch of {session.queued} transactions")

    result = session.flush()
    if not result.accepted:
        raise SystemExit(f"client REJECTED the batch: {result.reason}")
    timing = result.timing
    print(
        f"server proved {timing.num_pieces} piece(s), "
        f"{timing.total_constraints:,} constraints total"
    )
    print("client verified: circuits matched, proofs valid, digest chain intact")
    print(f"new digest: {hex(session.digest)[:18]}...")
    sample = dict(list(result.outputs.items())[:3])
    print(f"sample outputs: {sample}")
    print(
        f"measured server throughput of this batch: "
        f"{timing.measured_throughput:,.1f} txn/s wall-clock "
        f"(the paper's full-scale DRM configuration reaches ~17.6k txn/s)"
    )

    print("\nobservability view of the same run:")
    session.export(ConsoleSummaryExporter())


if __name__ == "__main__":
    main()
