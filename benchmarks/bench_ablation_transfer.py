"""Ablation: the §3.5 protocol refinements and the Kurosawa optimization.

The paper's transfer protocol is strawman #3 plus noise; each refinement
costs something. This bench prices the ladder — whole-share encryption
(#1), subshares (#2), per-bit + homomorphic sums (#3), noise (the paper's
final protocol) — and, as its last row, the pad transfer every run takes:
a key agreement once per run and edge slot (its elements hashed into one
pad stream per pair), then no exponentiation in any iteration. It also quantifies the §5.1 Kurosawa ephemeral-key reuse, which
trades L extra public keys for saving L-1 exponentiations per subshare.
"""

from __future__ import annotations

import time

import pytest

from repro.crypto.elgamal import CountingGroup, ElGamal, ExponentialElGamal
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.keys import SchnorrSigner
from repro.crypto.rng import DeterministicRNG
from repro.sharing import share_value, xor_all
from repro.transfer.certificates import build_certificate, generate_member_keys
from repro.transfer.pads import PadTransfer, agree_pads
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

    # the pad transfer: one element per pair agreed at setup, under a
    # one-key certificate, hashed into a one-step pad stream; then the
    # iteration on pads alone
    counting = CountingGroup(TOY_GROUP_64)
    elgamal = ElGamal(counting)
    signer = SchnorrSigner(counting)
    members = [generate_member_keys(elgamal, 1, rng) for _ in range(BLOCK)]
    nk = counting.random_scalar(rng)
    cert = build_certificate(elgamal, signer, signer.keygen(rng), 0, 0, members, nk, rng)
    secrets = [member.secrets[0] for member in members]
    transfer = PadTransfer(BITS)
    pads = None

    def agree(_eg):
        nonlocal pads
        ephemerals = [counting.random_scalar(rng) for _ in range(BLOCK)]
        pads = agree_pads(counting, cert, nk, secrets, ephemerals, 1, BITS)

    def iteration(_eg):
        shares = share_value(99, BITS, BLOCK, rng)
        assert xor_all(transfer.execute(shares, pads, 0, rng)) == 99

    for label, fn in (
        ("pad transfer: key agreement (once per run and slot)", agree),
        ("pad transfer: one iteration", iteration),
    ):
        counting.reset()
        started = time.perf_counter()
        fn(elgamal)
        elapsed = time.perf_counter() - started
        rows.append([label, elapsed * 1000, counting.exp_count, counting.mul_count])

    # The ladder must be monotone in exponentiation count: each privacy
    # refinement costs more crypto.
    exps = [row[2] for row in rows]
    assert exps[0] < exps[1] < exps[2]
    # The pad transfer pays 2b^2 + 2b once per slot, and nothing per iteration.
    assert exps[-2:] == [2 * BLOCK * BLOCK + 2 * BLOCK, 0]

    emit_table(
        "Ablation - §3.5 protocol ladder (block 4, 12-bit message)",
        ["protocol", "time [ms]", "exponentiations", "group mults"],
        rows,
        [
            "each refinement closes a demonstrated leak (see tests/test_transfer_strawmen.py)",
            "the final protocol adds noise + certificate handling on top of #3",
            "the pad transfer's key agreement runs once per run and edge slot;"
            " its iterations only XOR pads",
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
    """Adding the edge-privacy noise costs one ``g^n`` and one group
    multiplication per bit ciphertext at node u: exactly ``BLOCK x BITS``
    of each per transfer, counted on a CountingGroup.

    Exponentiations are counted over the whole transfer. Multiplications
    are counted over node u's role alone, on the same bundles with and
    without noise: the receivers' baby-step/giant-step dlog walks take a
    value-dependent number of steps, so a whole-transfer multiplication
    count moves with the share values, noise or not.
    """
    rng = DeterministicRNG("noise-cost")
    counting = CountingGroup(TOY_GROUP_64)
    eg = ExponentialElGamal(counting, dlog_half_width=900)
    signer = SchnorrSigner(counting)
    tp = signer.keygen(rng)
    members = [generate_member_keys(eg, BITS, rng) for _ in range(BLOCK)]
    nk = counting.random_scalar(rng)
    cert = build_certificate(eg, signer, tp, 0, 0, members, nk, rng)
    shares = share_value(7, BITS, BLOCK, rng)
    bundles = MessageTransferProtocol(eg, BITS).block_encrypt(shares, cert, rng)

    def run(noise_alpha):
        proto = MessageTransferProtocol(eg, BITS, noise_alpha=noise_alpha)
        counting.reset()
        started = time.perf_counter()
        proto.execute(shares, cert, nk, members, rng)
        elapsed = time.perf_counter() - started
        exps = counting.exp_count
        counting.reset()
        proto.aggregate(bundles, rng)
        return [elapsed * 1000, exps, counting.mul_count]

    base = run(None)
    noised = run(0.5)
    assert noised[1] - base[1] == BLOCK * BITS
    assert noised[2] - base[2] == BLOCK * BITS
    rows = [["no noise", *base], ["with geometric noise", *noised]]
    emit_table(
        "Ablation - edge-privacy noise overhead per transfer",
        ["variant", "time [ms]", "exponentiations", "group mults at u"],
        rows,
        ["noise adds one g^n multiplication per bit ciphertext at node u"],
    )
    benchmark.pedantic(lambda: run(0.5), rounds=3, iterations=1)
