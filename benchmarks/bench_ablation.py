"""Ablations of the co-design choices DESIGN.md calls out.

1. **Batching/aggregation** (Section 7.1a): merging a non-conflicting batch
   behind one aggregated MemCheck vs one gadget per access — the paper
   reports ~10x from batching.
2. **Multiple provers** (Section 7.2): pipelining across prover threads —
   the paper reports ~25x on top of batching.
3. **PoE compression** (Section 6.1.1): verifying an aggregated membership
   witness with a proof-of-exponentiation vs raising the witness to the
   full product (real measured crypto).
4. **Certified vs fast primes** (Section 5.3): hash-to-prime with vs
   without Pocklington certificate generation (real measured crypto).
"""

from __future__ import annotations

from repro.bench.figures import ycsb_profile
from repro.bench.model import LitmusModel
from repro.bench.report import format_table
from repro.crypto.accumulator import RSAAccumulator
from repro.crypto.categorization import (
    CATEGORY_KEY,
    sample_category_prime,
    sample_certified_category_prime,
)
from repro.crypto.primes import hash_to_prime
from repro.crypto.rsa_group import default_group

SCALE = 800
NUM_TXNS = 1_310_720


def test_ablation_batching_and_provers(benchmark):
    def run():
        from repro.bench.model import zipf_contention_scale

        model = LitmusModel(ycsb_profile(0.6, SCALE))
        scale_factor = zipf_contention_scale(0.6, 4096)
        aggregated_multi = model.litmus_run(
            NUM_TXNS, num_provers=75, cc="dr", processing_batch_size=81_920,
            contention_scale=scale_factor,
        )
        aggregated_single = model.litmus_run(
            NUM_TXNS, num_provers=1, cc="dr", processing_batch_size=81_920,
            contention_scale=scale_factor,
        )
        unbatched_single = model.litmus_run(NUM_TXNS, num_provers=1, cc="2pl")
        return aggregated_multi, aggregated_single, unbatched_single

    drm, dr, tpl = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = [
        {"configuration": "aggregation + 75 provers (DRM)", "throughput": drm.throughput},
        {"configuration": "aggregation, 1 prover (DR)", "throughput": dr.throughput},
        {"configuration": "no aggregation, 1 prover (2PL)", "throughput": tpl.throughput},
    ]
    print("\nAblation — batching and prover pipelining")
    print(format_table(rows))
    batching_gain = dr.throughput / tpl.throughput
    prover_gain = drm.throughput / dr.throughput
    # Paper: "enabling batching yields a throughput gain of around 10x";
    # "enabling multiple provers yields an extra gain of around 25x".
    assert 5 < batching_gain < 30
    assert 8 < prover_gain < 50


def test_ablation_poe_verification(benchmark):
    """Real crypto: PoE-compressed vs raw aggregated membership checks."""
    import time

    group = default_group(bits=512)
    primes = [hash_to_prime(b"abl" + i.to_bytes(4, "big"), 64) for i in range(64)]
    accumulator = RSAAccumulator(group, primes)
    subset = primes[:32]

    def verify_both():
        witness, exponent, proof = accumulator.membership_witness_with_poe(subset)
        poe_seconds = raw_seconds = float("inf")
        for _ in range(7):  # best-of-N to shed scheduler jitter
            start = time.perf_counter()
            assert RSAAccumulator.verify_membership_with_poe(
                group, accumulator.value, witness, exponent, proof
            )
            poe_seconds = min(poe_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            assert RSAAccumulator.verify_membership(
                group, accumulator.value, subset, witness
            )
            raw_seconds = min(raw_seconds, time.perf_counter() - start)
        return poe_seconds, raw_seconds

    poe_seconds, raw_seconds = benchmark.pedantic(verify_both, iterations=1, rounds=3)
    print("\nAblation — PoE verification vs raw exponentiation (best of 7)")
    print(
        format_table(
            [
                {"path": "PoE-compressed verify", "seconds": poe_seconds},
                {"path": "raw product verify", "seconds": raw_seconds},
            ]
        )
    )
    # The PoE verifier exponentiates by a 128-bit challenge (constant work);
    # the raw verifier's exponent is a product of 32 64-bit primes (~2 kb).
    # Allow slack: both are sub-millisecond and jitter-prone.
    assert poe_seconds < raw_seconds * 3


def test_ablation_certified_primes(benchmark):
    """Real crypto: Pocklington-certified sampling vs plain hash-to-prime."""
    import time

    def sample_both():
        start = time.perf_counter()
        for nonce in range(8):
            sample_category_prime(64, CATEGORY_KEY, ("fast", nonce))
        fast = time.perf_counter() - start
        start = time.perf_counter()
        for nonce in range(8):
            sample_certified_category_prime(64, CATEGORY_KEY, ("cert", nonce))
        certified = time.perf_counter() - start
        return fast, certified

    fast, certified = benchmark.pedantic(sample_both, iterations=1, rounds=1)
    print("\nAblation — prime sampling (8 primes, 64-bit)")
    print(
        format_table(
            [
                {"path": "hash-to-prime (Miller-Rabin)", "seconds": fast},
                {"path": "Pocklington-certified chain", "seconds": certified},
            ]
        )
    )
    # Certificates are the expensive path (the server pays; circuits verify).
    assert certified > fast


# --- pinned modeled metrics (tests/bench/test_paper_figures.py) --------------


def ablation_metrics(num_txns: int, scale: int) -> dict[str, float]:
    """Reduced-scale batching/prover ablation of the modeled co-design."""
    from repro.bench.model import zipf_contention_scale

    model = LitmusModel(ycsb_profile(0.6, scale))
    scale_factor = zipf_contention_scale(0.6, 4096)
    drm = model.litmus_run(
        num_txns, num_provers=75, cc="dr",
        processing_batch_size=81_920, contention_scale=scale_factor,
    )
    dr = model.litmus_run(
        num_txns, num_provers=1, cc="dr",
        processing_batch_size=81_920, contention_scale=scale_factor,
    )
    tpl = model.litmus_run(num_txns, num_provers=1, cc="2pl")
    return {
        "throughput": drm.throughput,
        "prover_gain": drm.throughput / dr.throughput,
        "batching_gain": dr.throughput / tpl.throughput,
    }
