"""Witnesses from the per-batch shared base equal from-scratch witnesses.

``AuthenticatedDictionary.share_base(T)`` holds ``B = g^(S / prod h_k)``
over the touched keys ``T`` that are in the store.  A lookup over keys
inside ``T`` is then ``B`` raised to the representatives it leaves in.  A
lookup over keys outside ``T`` is computed from scratch.  Whatever
interleaving of reads, updates, blind inserts, non-membership proofs and
mid-batch ``restore()`` runs, every proof and the final state must be the
ones a dictionary that never held a base produces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.memory_integrity as memory_integrity
from repro.core import LitmusClient, LitmusConfig, LitmusServer
from repro.core.memory_integrity import MemoryIntegrityProvider
from repro.crypto.authdict import AuthenticatedDictionary
from repro.db.executor import ScheduleUnit
from repro.errors import CryptoError, ReproError
from repro.obs.metrics import get_metrics

from ..db.helpers import blind_write, increment, read_only

PRIME_BITS = 32  # small primes keep the hypothesis examples fast
UNIVERSE = [f"k{i}" for i in range(10)]  # keys an operation may name
INITIAL = {key: index for index, key in enumerate(UNIVERSE[:6])}


def _counts() -> tuple[int, int, int]:
    metrics = get_metrics()
    return tuple(
        metrics.counter(f"authdict.shared_base.{name}").value
        for name in ("builds", "witnesses", "fallbacks")
    )


keys = st.lists(st.sampled_from(UNIVERSE), max_size=4, unique=True)
changes = st.dictionaries(st.sampled_from(UNIVERSE), st.integers(0, 3), max_size=3)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("share"), keys),
        st.tuples(st.just("lookup"), keys),
        st.tuples(st.just("nokey"), keys),
        st.tuples(st.just("update"), changes),
        st.tuples(st.just("restore"), st.none()),
        st.tuples(st.just("drop"), st.none()),
    ),
    max_size=12,
)


def _apply(ad: AuthenticatedDictionary, op: str, arg, saved) -> object:
    """Run one operation; returns what it returned (or the error it raised)."""
    try:
        if op == "share":
            ad.share_base(arg)
            return None
        if op == "drop":
            ad.drop_shared_base()
            return None
        if op == "restore":
            ad.restore(saved)
            return None
        if op == "lookup":
            return ad.prove_lookup([key for key in arg if key in ad])
        if op == "nokey":
            return ad.prove_no_key([key for key in arg if key not in ad])
        return ad.update(arg)
    except CryptoError as exc:
        return ("error", str(exc))


@settings(max_examples=200, deadline=None)
@given(prelude=changes, touched=keys, ops=operations)
def test_shared_base_witnesses_equal_from_scratch(group, prelude, touched, ops):
    shared = AuthenticatedDictionary(group, initial=INITIAL, prime_bits=PRIME_BITS)
    reference = AuthenticatedDictionary(group, initial=INITIAL, prime_bits=PRIME_BITS)
    # restore() rewinds to before the prelude, so to a state the base was
    # not built from whenever the prelude changed a key outside T
    saved = shared.state()
    for ad in (shared, reference):
        ad.update(prelude)
    shared.share_base(touched)
    for op, arg in ops:
        if op in ("share", "drop"):
            _apply(shared, op, arg, saved)
        else:
            assert _apply(shared, op, arg, saved) == _apply(reference, op, arg, saved)
        assert shared.state() == reference.state()
    # every surviving proof still verifies against the live digest
    present = [key for key in UNIVERSE if key in shared]
    proof = shared.prove_lookup(present)
    pairs = {key: shared.get(key) for key in present}
    assert shared.ver_lookup(shared.digest, pairs, proof)


class TestCounters:
    def test_inside_outside_and_after_restore(self, group):
        ad = AuthenticatedDictionary(group, initial=INITIAL, prime_bits=PRIME_BITS)
        saved = ad.state()
        before = _counts()
        ad.share_base(["k0", "k1", "k7"])  # k7 is not in the store
        ad.prove_lookup(["k0"])
        ad.update({"k1": 9, "k7": 1})  # blind insert inside T keeps the base
        ad.prove_lookup(["k0", "k7"])
        ad.prove_lookup(["k2"])  # outside T: from scratch
        assert tuple(a - b for a, b in zip(_counts(), before)) == (1, 3, 1)
        ad.restore(saved)
        ad.prove_lookup(["k0"])  # the base is gone: no counter moves
        assert tuple(a - b for a, b in zip(_counts(), before)) == (1, 3, 1)

    def test_update_outside_touched_drops_the_base(self, group):
        ad = AuthenticatedDictionary(group, initial=INITIAL, prime_bits=PRIME_BITS)
        ad.share_base(["k0"])
        ad.update({"k0": 5, "k3": 5})  # k3 is outside T
        before = _counts()
        ad.prove_lookup(["k0"])
        assert _counts() == before

    def test_state_tuple_is_unchanged(self, group):
        ad = AuthenticatedDictionary(group, initial=INITIAL, prime_bits=PRIME_BITS)
        before = ad.state()
        ad.share_base(UNIVERSE)
        assert ad.state() == before
        assert len(ad.state()) == 4


def _server(group, fault_plan=None) -> LitmusServer:
    config = LitmusConfig(
        cc="dr",
        processing_batch_size=2,
        batches_per_piece=1,
        prime_bits=PRIME_BITS,
        num_provers=1,
    )
    initial = {("row", i): i for i in range(24)}
    return LitmusServer(initial=initial, config=config, group=group, fault_plan=fault_plan)


def _batch():
    return [
        increment(1, 0),
        read_only(2, 1),
        increment(3, 2),
        blind_write(4, 30, 7),
        read_only(5, 0),
        increment(6, 1),
    ]


def _fingerprint(response) -> tuple:
    return response.final_digest, tuple(
        (piece.start_digest, piece.end_digest, piece.outputs) for piece in response.pieces
    )


class TestServer:
    @pytest.mark.parametrize("cost", [0.0, float("inf")], ids=["always", "never"])
    def test_response_identical_with_and_without_base(self, group, monkeypatch, cost):
        reference = _server(group).execute_batch(_batch())
        monkeypatch.setattr(memory_integrity, "_SHORT_COST_PER_REPRESENTATIVE", cost)
        server = _server(group)
        builds = _counts()[0]
        response = server.execute_batch(_batch())
        assert _fingerprint(response) == _fingerprint(reference)
        assert (_counts()[0] > builds) == (cost == 0.0)
        assert server.provider._ad._shared is None  # dropped at the end of the batch
        client = LitmusClient(group, _server(group).digest, config=server.config)
        assert client.verify_response(_batch(), response).accepted

    def test_mid_batch_failure_drops_the_base(self, group, monkeypatch):
        monkeypatch.setattr(memory_integrity, "_SHORT_COST_PER_REPRESENTATIVE", 0.0)

        class FailSecondUnit:
            def on_unit(self, unit_index, unit):
                return unit

            def on_certificates(self, unit_index, read_cert, write_cert):
                if unit_index == 1:
                    raise ReproError("injected certify failure")
                return read_cert, write_cert

            def on_prove(self, piece_index):
                pass

        server = _server(group, fault_plan=FailSecondUnit())
        before = server.provider.state()
        with pytest.raises(ReproError, match="injected"):
            server.execute_batch(_batch())
        assert server.provider._ad._shared is None
        assert server.provider.state() == before


def test_single_witness_builds_no_base(group):
    provider = MemoryIntegrityProvider(
        group, initial={("row", i): i for i in range(64)}, prime_bits=PRIME_BITS
    )
    one_read = ScheduleUnit(txn_ids=(1,), reads=((("row", 3), 3),), writes=())
    builds = _counts()[0]
    with provider.shared_base([one_read]):
        assert provider._ad._shared is None
    with provider.shared_base([one_read, one_read]):
        assert provider._ad._shared is not None
    assert provider._ad._shared is None
    assert _counts()[0] == builds + 1
