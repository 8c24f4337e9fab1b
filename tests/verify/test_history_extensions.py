"""Tests for anomaly classification extensions and history persistence."""

from __future__ import annotations

from repro.verify.cycles import analyze
from repro.verify.history import History, Observation, ObservedTxn


def txn(txn_id, appends=(), observations=()):
    return ObservedTxn(
        txn_id=txn_id,
        appends=tuple(appends),
        observations=tuple(
            Observation(key=key, elements=tuple(elements))
            for key, elements in observations
        ),
    )


class TestG2Classification:
    def test_write_skew_is_g2(self):
        """Classic write skew: two txns each read the key the other writes,
        observing the pre-state — a pure anti-dependency cycle (G2)."""
        history = History()
        history.add(
            txn(1, appends=[(("x",), 1)], observations=[(("y",), ())])
        )
        history.add(
            txn(2, appends=[(("y",), 2)], observations=[(("x",), ())])
        )
        history.final_lists = {("x",): (1,), ("y",): (2,)}
        analysis = analyze(history)
        assert not analysis.serializable
        assert analysis.anomalies[0].kind == "G2"
        assert set(analysis.anomalies[0].edge_kinds) == {"rw"}

    def test_mixed_rw_ww_without_wr_is_g2(self):
        history = History()
        # T1 -> T2 via ww on x; T2 -> T1 via rw on y.
        history.add(txn(1, appends=[(("x",), 1)]))
        history.add(
            txn(2, appends=[(("x",), 2)], observations=[(("y",), ())])
        )
        # T1 appends to y after T2 observed it empty.
        history.txns[0] = txn(1, appends=[(("x",), 1), (("y",), 3)])
        history.final_lists = {("x",): (1, 2), ("y",): (3,)}
        analysis = analyze(history)
        assert not analysis.serializable
        assert analysis.anomalies[0].kind == "G2"


class TestHistoryPersistence:
    def test_json_roundtrip(self):
        history = History()
        history.add(
            txn(
                1,
                appends=[(("t", 3), 10)],
                observations=[(("t", 3), (10,)), (("u", 1), ())],
            )
        )
        history.final_lists = {("t", 3): (10,), ("u", 1): ()}
        restored = History.from_json(history.to_json())
        assert restored.num_txns == 1
        assert restored.txns[0].appends == ((("t", 3), 10),)
        assert restored.final_lists == history.final_lists
        # Analysis verdicts agree on the restored history.
        assert analyze(restored).serializable == analyze(history).serializable

    def test_offline_audit_flow(self):
        from repro.db.database import Database
        from repro.verify.elle import ElleChecker, history_from_execution

        from ..db.helpers import increment

        db = Database(cc="dr", processing_batch_size=4)
        txns = [increment(i, i % 2) for i in range(1, 9)]
        report = db.run(txns)
        shipped = history_from_execution(report, txns).to_json()
        # The auditor on the other side:
        verdict = ElleChecker().check(History.from_json(shipped))
        assert verdict.serializable
