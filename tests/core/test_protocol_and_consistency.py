"""Tests for the consistency invariants and config validation."""

from __future__ import annotations

import pytest

from repro.core.consistency import SumInvariant, check_invariants
from repro.core.memory_integrity import MemoryIntegrityProvider
from repro.errors import ReproError

PRIME_BITS = 64


class TestSumInvariant:
    @pytest.fixture()
    def provider(self, group):
        return MemoryIntegrityProvider(
            group,
            initial={("acct", 0): 100, ("acct", 1): 100, ("other", 0): 5},
            prime_bits=PRIME_BITS,
        )

    def test_balanced_transfer_passes(self, provider):
        invariant = SumInvariant.over("acct")
        cert = provider.apply_writes({("acct", 0): 70, ("acct", 1): 130})
        assert invariant.check_unit(cert)

    def test_minting_fails(self, provider):
        invariant = SumInvariant.over("acct")
        cert = provider.apply_writes({("acct", 0): 101})
        assert not invariant.check_unit(cert)

    def test_burning_fails(self, provider):
        invariant = SumInvariant.over("acct")
        cert = provider.apply_writes({("acct", 0): 99})
        assert not invariant.check_unit(cert)

    def test_uncovered_keys_ignored(self, provider):
        invariant = SumInvariant.over("acct")
        cert = provider.apply_writes({("other", 0): 99})
        assert invariant.check_unit(cert)

    def test_inserted_keys_start_at_zero(self, provider):
        invariant = SumInvariant.over("acct")
        # Moving 50 into a brand-new covered account burns nothing only if a
        # covered key loses the same amount.
        cert = provider.apply_writes({("acct", 0): 50, ("acct", 99): 50})
        assert invariant.check_unit(cert)

    def test_blind_insert_of_value_fails(self, provider):
        invariant = SumInvariant.over("acct")
        cert = provider.apply_writes({("acct", 42): 7})
        assert not invariant.check_unit(cert)

    def test_check_invariants_combines(self, provider):
        acct = SumInvariant.over("acct")
        other = SumInvariant.over("other")
        cert = provider.apply_writes({("acct", 0): 70, ("acct", 1): 130})
        assert check_invariants([acct, other], cert)
        cert2 = provider.apply_writes({("other", 0): 6})
        assert check_invariants([acct], cert2)
        assert not check_invariants([acct, other], cert2)


class TestConfig:
    def test_invalid_cc(self):
        from repro.core.config import LitmusConfig

        with pytest.raises(ReproError):
            LitmusConfig(cc="occ")

    def test_invalid_backend(self):
        from repro.core.config import LitmusConfig

        with pytest.raises(ReproError):
            LitmusConfig(backend="starks")

    def test_aggregation_follows_cc(self):
        from repro.core.config import LitmusConfig

        assert LitmusConfig(cc="dr").aggregation_enabled
        assert not LitmusConfig(cc="2pl").aggregation_enabled

    def test_positive_counts_required(self):
        from repro.core.config import LitmusConfig

        with pytest.raises(ReproError):
            LitmusConfig(num_provers=0)
