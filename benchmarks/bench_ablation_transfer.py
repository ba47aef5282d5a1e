"""Ablation: the §3.5 protocol refinements and the Kurosawa optimization.

The final transfer protocol is strawman #3 plus noise; each refinement
costs something. This bench prices the ladder — whole-share encryption
(#1), subshares (#2), per-bit + homomorphic sums (#3), noise (final) — and
quantifies the §5.1 Kurosawa ephemeral-key reuse, which trades L extra
public keys for saving L-1 exponentiations per subshare.
"""

from __future__ import annotations

import time

import pytest

from repro.crypto.elgamal import CountingGroup, ExponentialElGamal
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.keys import SchnorrSigner
from repro.crypto.rng import DeterministicRNG
from repro.sharing import share_value
from repro.transfer.certificates import build_certificate, generate_member_keys
from repro.transfer.protocol import MessageTransferProtocol
from repro.transfer.strawman import Strawman1, Strawman2, Strawman3
from tables import emit_table

BITS = 12
BLOCK = 4


def test_protocol_ladder_costs(benchmark):
    rng = DeterministicRNG("ladder")
    rows = []

    def timed(label, fn):
        counting = CountingGroup(TOY_GROUP_64)
        elgamal = ExponentialElGamal(counting, dlog_half_width=4200)
        counting.reset()
        started = time.perf_counter()
        fn(elgamal)
        elapsed = time.perf_counter() - started
        rows.append([label, elapsed * 1000, counting.exp_count, counting.mul_count])

    timed("strawman #1 (whole shares)", lambda eg: Strawman1(eg, BITS).run(99, BLOCK, rng))
    timed("strawman #2 (subshares)", lambda eg: Strawman2(eg, BITS).run(99, BLOCK, rng))
    timed("strawman #3 (per-bit sums)", lambda eg: Strawman3(eg, BITS).run(99, BLOCK, rng))

    def final(eg):
        signer = SchnorrSigner(eg.group)
        tp = signer.keygen(rng)
        members = [generate_member_keys(eg, BITS, rng) for _ in range(BLOCK)]
        nk = eg.group.random_scalar(rng)
        cert = build_certificate(eg, signer, tp, 0, 0, members, nk, rng)
        proto = MessageTransferProtocol(eg, BITS, noise_alpha=0.5)
        shares = share_value(99, BITS, BLOCK, rng)
        proto.execute(shares, cert, nk, members, rng)

    timed("final (noise + rerandomized keys)", final)

    # The ladder must be monotone in exponentiation count: each privacy
    # refinement costs more crypto.
    exps = [row[2] for row in rows]
    assert exps[0] < exps[1] < exps[2]

    emit_table(
        "Ablation - §3.5 protocol ladder (block 4, 12-bit message)",
        ["protocol", "time [ms]", "exponentiations", "group mults"],
        rows,
        [
            "each refinement closes a demonstrated leak (see tests/test_transfer_strawmen.py)",
            "the final protocol adds noise + certificate handling on top of #3",
        ],
    )
    benchmark.pedantic(
        lambda: Strawman2(ExponentialElGamal(TOY_GROUP_64, dlog_half_width=4200), BITS).run(
            5, BLOCK, rng
        ),
        rounds=2,
        iterations=1,
    )


def test_kurosawa_optimization(benchmark):
    """§5.1: shared ephemeral keys across the L bit ciphertexts."""
    rng = DeterministicRNG("kurosawa")
    rows = []
    for bits in (4, 8, 12, 16):
        counting = CountingGroup(TOY_GROUP_64)
        elgamal = ExponentialElGamal(counting, dlog_half_width=64)
        signer = SchnorrSigner(counting)
        member = generate_member_keys(elgamal, bits, rng)
        nk = counting.random_scalar(rng)
        cert = build_certificate(elgamal, signer, signer.keygen(rng), 0, 0, [member], nk, rng)

        # one subshare for one receiver, as every member of B_u sends it
        counting.reset()
        MessageTransferProtocol(elgamal, bits).sender_encrypt((1 << bits) - 1, cert, rng)
        with_opt = counting.exp_count

        counting.reset()
        for pk in cert.keys[0]:
            elgamal.encrypt_int(pk, 1, rng)
        without_opt = counting.exp_count

        rows.append([bits, without_opt, with_opt, without_opt / with_opt])
        # Kurosawa: L+1+L exps (one g^y, per-bit pk^y and g^b) vs ~3L naive.
        assert with_opt < without_opt

    emit_table(
        "Ablation - Kurosawa multi-recipient encryption (exponentiations per subshare)",
        ["L bits", "naive", "Kurosawa", "speedup"],
        rows,
        ["the prototype applies this to every subshare (§5.1)"],
    )
    benchmark.pedantic(
        lambda: ExponentialElGamal(TOY_GROUP_64, dlog_half_width=16).keygen(rng),
        rounds=3,
        iterations=1,
    )


def test_noise_cost_negligible(benchmark):
    """Adding the edge-privacy noise costs L plaintext additions per
    receiver — it must not measurably change transfer time."""
    rng = DeterministicRNG("noise-cost")
    eg = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=900)
    signer = SchnorrSigner(TOY_GROUP_64)
    tp = signer.keygen(rng)
    members = [generate_member_keys(eg, BITS, rng) for _ in range(BLOCK)]
    nk = TOY_GROUP_64.random_scalar(rng)
    cert = build_certificate(eg, signer, tp, 0, 0, members, nk, rng)

    def run(noise_alpha):
        proto = MessageTransferProtocol(eg, BITS, noise_alpha=noise_alpha)
        shares = share_value(7, BITS, BLOCK, rng)
        started = time.perf_counter()
        proto.execute(shares, cert, nk, members, rng)
        return time.perf_counter() - started

    base = min(run(None) for _ in range(3))
    noised = min(run(0.5) for _ in range(3))
    rows = [["no noise", base * 1000], ["with geometric noise", noised * 1000]]
    assert noised < base * 2.0
    emit_table(
        "Ablation - edge-privacy noise overhead per transfer [ms]",
        ["variant", "time"],
        rows,
        ["noise adds one g^n multiplication per bit ciphertext at node u"],
    )
    benchmark.pedantic(lambda: run(0.5), rounds=3, iterations=1)
