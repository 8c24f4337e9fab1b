"""Tests for the Section 9 hybrid batch/interactive mode."""

from __future__ import annotations

import pytest

from repro.core.hybrid import HybridLitmus
from repro.core.config import LitmusConfig

from ..db.helpers import increment, transfer

PRIME_BITS = 64
INITIAL = {("acct", 0): 100, ("acct", 1): 100, ("acct", 2): 100, ("acct", 3): 100}


class TestHybrid:
    def test_interactive_and_batch_share_digest(self, group):
        config = LitmusConfig(
            cc="dr", processing_batch_size=8, batches_per_piece=2, prime_bits=PRIME_BITS
        )
        hybrid = HybridLitmus(initial=INITIAL, config=config, group=group)
        txns = [transfer(i, i % 4, (i + 1) % 4, 2) for i in range(1, 9)]
        outcome = hybrid.run(txns, interactive_ids={1, 2})
        assert outcome.accepted
        assert set(outcome.interactive_outputs) == {1, 2}
        assert outcome.batch_verdict is not None
        assert outcome.batch_verdict.accepted, outcome.batch_verdict.reason

    def test_all_interactive(self, group):
        config = LitmusConfig(cc="dr", prime_bits=PRIME_BITS)
        hybrid = HybridLitmus(initial=INITIAL, config=config, group=group)
        txns = [increment(i, i) for i in range(1, 4)]
        outcome = hybrid.run(txns, interactive_ids={1, 2, 3})
        assert outcome.accepted
        assert outcome.batch_verdict is None
        assert len(outcome.interactive_outputs) == 3

    def test_interactive_latency_lower_than_batch(self, group):
        config = LitmusConfig(
            cc="dr", processing_batch_size=8, batches_per_piece=2, prime_bits=PRIME_BITS
        )
        hybrid = HybridLitmus(initial=INITIAL, config=config, group=group)
        txns = [transfer(i, i % 4, (i + 1) % 4, 2) for i in range(1, 9)]
        outcome = hybrid.run(txns, interactive_ids={1})
        per_interactive = outcome.interactive_seconds / 1
        assert per_interactive < outcome.batch_seconds
