"""Tests for the client digest log (checkpointing)."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import DigestLog
from repro.errors import VerificationFailure


class TestDigestLog:
    def test_genesis_entry(self):
        log = DigestLog(initial_digest=123)
        assert len(log) == 1
        assert log.latest_digest == 123

    def test_record_advances(self):
        log = DigestLog(initial_digest=1)
        log.record(2, num_txns=10)
        log.record(3, num_txns=20)
        assert log.latest_digest == 3
        assert len(log) == 3
        log.verify_chain()

    def test_roundtrip_json(self):
        log = DigestLog(initial_digest=0xABCDEF)
        log.record(0x123456, num_txns=7)
        restored = DigestLog.from_records(json.loads(json.dumps(log.to_records())))
        assert restored.latest_digest == log.latest_digest
        assert restored.latest_hash == log.latest_hash

    def test_tampered_digest_detected(self):
        log = DigestLog(initial_digest=1)
        log.record(2, num_txns=10)
        payload = log.to_records()
        payload[1]["digest"] = hex(999)
        with pytest.raises(VerificationFailure):
            DigestLog.from_records(payload)

    def test_tampered_count_detected(self):
        log = DigestLog(initial_digest=1)
        log.record(2, num_txns=10)
        payload = log.to_records()
        payload[1]["num_txns"] = 99
        with pytest.raises(VerificationFailure):
            DigestLog.from_records(payload)

    def test_truncation_survives_but_tail_hash_differs(self):
        """Dropping the tail yields a valid but *shorter* chain — the client
        detects it by comparing against any remembered entry hash."""
        log = DigestLog(initial_digest=1)
        log.record(2, num_txns=10)
        remembered = log.latest_hash
        payload = log.to_records()[:-1]
        truncated = DigestLog.from_records(payload)
        assert truncated.latest_hash != remembered

    def test_empty_log_rejected(self):
        with pytest.raises(VerificationFailure):
            DigestLog.from_records([])

    def test_resume_flow_with_litmus(self, group):
        """A client restart from the persisted log resumes verification."""
        from repro.core import LitmusClient, LitmusConfig, LitmusServer

        from ..db.helpers import increment

        config = LitmusConfig(cc="dr", processing_batch_size=8, prime_bits=64)
        server = LitmusServer(initial={}, config=config, group=group)
        client = LitmusClient(group, server.digest, config=config)
        log = DigestLog(initial_digest=server.digest)

        first = [increment(i, 1) for i in range(1, 4)]
        verdict = client.verify_response(first, server.execute_batch(first))
        assert verdict.accepted
        log.record(verdict.new_digest, num_txns=len(first))

        # Simulate a restart: a new client built purely from the log.
        restored = DigestLog.from_records(json.loads(json.dumps(log.to_records())))
        resumed = LitmusClient(group, restored.latest_digest, config=config)
        second = [increment(i, 1) for i in range(4, 7)]
        verdict2 = resumed.verify_response(second, server.execute_batch(second))
        assert verdict2.accepted
