"""Hybrid real-time mode (paper Section 9).

"We can include a hybrid mode, where Litmus can switch between batch
verification and interactive verification in real-time.  The memory digest
of these two modes are compatible."

Both modes operate on the *same* memory-integrity provider, so a
transaction marked interactive gets its answer (and its proof) immediately
— at interactive throughput — while the rest of the batch flows through the
aggregated pipeline, and the digest chain stays unbroken across the mode
boundary.

Both reported latencies are measured wall-clock, with one simulated part:
each interactive transaction also pays ``network.roundtrip()``, the client
round trip an in-process run does not make.
"""

from __future__ import annotations

from time import perf_counter
from typing import Mapping, Sequence

from ..crypto.rsa_group import RSAGroup
from ..db.txn import Transaction
from ..errors import VerificationFailure
from ..sim.network import NetworkModel
from .client import ClientVerdict, LitmusClient
from .config import LitmusConfig
from .memory_integrity import MemoryIntegrityChecker
from .server import LitmusServer

__all__ = ["HybridLitmus", "HybridOutcome"]


class HybridOutcome:
    """Combined result of one hybrid round."""

    def __init__(
        self,
        interactive_outputs: dict[int, tuple[int, ...]],
        batch_verdict: ClientVerdict | None,
        interactive_seconds: float,
        batch_seconds: float,
    ):
        self.interactive_outputs = interactive_outputs
        self.batch_verdict = batch_verdict
        self.interactive_seconds = interactive_seconds
        self.batch_seconds = batch_seconds

    @property
    def accepted(self) -> bool:
        return self.batch_verdict is None or self.batch_verdict.accepted


class HybridLitmus:
    """A Litmus deployment that serves marked transactions interactively."""

    def __init__(
        self,
        initial: Mapping[tuple, int] | None = None,
        config: LitmusConfig | None = None,
        group: RSAGroup | None = None,
        network: NetworkModel | None = None,
    ):
        self.config = config or LitmusConfig()
        self.server = LitmusServer(initial=initial, config=self.config, group=group)
        self.group = self.server.group
        self.network = network or NetworkModel(rtt_seconds=1e-3)
        self.client = LitmusClient(
            self.group, self.server.digest, config=self.config
        )
        self._checker = MemoryIntegrityChecker(
            self.group, self.server.digest, prime_bits=self.config.prime_bits
        )

    def run(
        self,
        txns: Sequence[Transaction],
        interactive_ids: frozenset[int] | set[int] = frozenset(),
    ) -> HybridOutcome:
        """Serve marked transactions interactively, batch the rest.

        ``interactive_seconds`` is the measured wall-clock of the interactive
        loop plus one simulated network round trip per transaction;
        ``batch_seconds`` is the batch's ``measured_total_seconds``.
        """
        interactive = [t for t in txns if t.txn_id in interactive_ids]
        batched = [t for t in txns if t.txn_id not in interactive_ids]

        interactive_outputs: dict[int, tuple[int, ...]] = {}
        provider = self.server.provider
        start = perf_counter()
        for txn in interactive:
            execution = txn.program.execute(txn.params, provider.current_value)
            reads = dict(execution.store_reads)
            writes = dict(execution.writes)
            if reads:
                cert = provider.certify_reads(reads)
                if not self._checker.mem_check(cert):
                    raise VerificationFailure(
                        f"hybrid client rejected reads of txn {txn.txn_id}"
                    )
            if writes:
                update = provider.apply_writes(writes)
                if not self._checker.mem_update(update):
                    raise VerificationFailure(
                        f"hybrid client rejected writes of txn {txn.txn_id}"
                    )
                # Keep the server's normal database in sync for the batch path.
                for key, value in writes.items():
                    self.server.db.put(key, value)
            interactive_outputs[txn.txn_id] = execution.outputs
        interactive_seconds = perf_counter() - start + sum(
            self.network.roundtrip() for _ in interactive
        )
        # Interactive updates moved the digest; the batch client follows.
        self.client.digest = self._checker.acc

        batch_verdict: ClientVerdict | None = None
        batch_seconds = 0.0
        if batched:
            response = self.server.execute_batch(batched)
            batch_verdict = self.client.verify_response(batched, response)
            batch_seconds = response.timing.measured_total_seconds
            if batch_verdict.accepted:
                self._checker.acc = self.client.digest
        return HybridOutcome(
            interactive_outputs=interactive_outputs,
            batch_verdict=batch_verdict,
            interactive_seconds=interactive_seconds,
            batch_seconds=batch_seconds,
        )
