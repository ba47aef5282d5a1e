"""The setup-once transfer (``repro.transfer.pads``): one element agreed
per run, edge slot and sender–receiver pair, hashed into one pad stream
for every step of the run.

What is held here: the transfer moves any message into fresh shares, the
two sides of a key agreement hold the same pad streams (and refuse a
certificate that is not the receivers'), each step's pad is its own word
of the stream, and a secure run pays exactly the deployment plus 2b² + 2b
exponentiations per transferring slot, however many iterations it runs.
What each role *sees* is in ``test_adversary_views.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import DStressConfig, StressTest
from repro.core.secure_engine import run_bill
from repro.core.setup import TrustedParty
from repro.crypto.elgamal import CountingGroup, ElGamal
from repro.crypto.group import GROUP_256, TOY_GROUP_64
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.finance import Bank, FinancialNetwork
from repro.obs import TraceRecorder, recording
from repro.sharing import share_value, xor_all
from repro.transfer.certificates import generate_member_keys
from repro.transfer.pads import PadTransfer, agree_pads, pad_stream

BITS = 16
STEPS = 5


def slot(block, group=TOY_GROUP_64, seed="pads"):
    """One edge slot's key material: the receivers' one-key pairs, the
    certificate the TP issues for them under a neighbor key, and that key."""
    rng = DeterministicRNG(seed)
    elgamal = ElGamal(group)
    members = [generate_member_keys(elgamal, 1, rng) for _ in range(block)]
    neighbor_key = group.random_scalar(rng)
    tp = TrustedParty(elgamal, rng)
    (certificate,) = tp.build_block_certificates(0, members, [neighbor_key])
    return certificate, neighbor_key, [m.secrets[0] for m in members], rng


def agree(group, certificate, nk, secrets, rng, steps=STEPS):
    """The slot's agreement, the senders' ephemerals drawn from ``rng``."""
    ephemerals = [group.random_scalar(rng) for _ in range(certificate.block_size)]
    return agree_pads(group, certificate, nk, secrets, ephemerals, steps, BITS)


class TestTransfer:
    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    @pytest.mark.parametrize("group", [TOY_GROUP_64, GROUP_256], ids=lambda g: g.name)
    def test_every_message_lands_as_fresh_shares(self, block, group):
        certificate, nk, secrets, rng = slot(block, group)
        pads = agree(group, certificate, nk, secrets, rng)
        transfer = PadTransfer(BITS)
        for step, message in enumerate([0, 1, 0xFFFF, 0x1234, rng.randbits(BITS)]):
            shares = share_value(message, BITS, block, rng)
            fresh = transfer.execute(shares, pads, step, rng)
            assert len(fresh) == block
            assert xor_all(fresh) == message
            if block > 1:
                assert fresh != shares

    def test_the_roles_compose_to_execute(self):
        certificate, nk, secrets, rng = slot(3)
        pads = agree(TOY_GROUP_64, certificate, nk, secrets, rng)
        transfer = PadTransfer(BITS)
        shares = share_value(0xBEEF, BITS, 3, rng)
        whole, split = DeterministicRNG("roles"), DeterministicRNG("roles")
        words = transfer.mask(shares, pads, 4, split)
        assert transfer.execute(shares, pads, 4, whole) == transfer.unmask(
            transfer.combine(words), pads, 4
        )
        # every word u sees is one subshare under one pad
        assert [len(row) for row in words] == [3, 3, 3]
        assert all(0 <= w < 1 << BITS for row in words for w in row)

    def test_a_stream_holds_one_distinct_pad_per_step(self):
        element = bytes(8)
        stream = pad_stream(element, 64, BITS)
        assert len(stream) == 64 and len(set(stream)) == 64
        assert stream == pad_stream(element, 64, BITS)
        # a longer run extends the stream; it never re-pads an earlier step
        assert pad_stream(element, 8, BITS) == stream[:8]
        assert pad_stream(bytes([1]) + bytes(7), 64, BITS) != stream
        # ceil(L / 8) bytes per step, masked to L bits
        narrow = pad_stream(element, 64, 5)
        assert all(0 <= p < 32 for p in narrow) and len(narrow) == 64
        assert pad_stream(element, 3, 24) != pad_stream(element, 3, 16)
        assert pad_stream(element, 0, BITS) == ()

    def test_both_roles_hold_the_same_distinct_streams(self):
        certificate, nk, secrets, rng = slot(3)
        pads = agree(TOY_GROUP_64, certificate, nk, secrets, rng)
        assert pads.senders == tuple(zip(*pads.receivers))
        assert (pads.block_size, pads.steps) == (3, STEPS)
        streams = {stream for row in pads.senders for stream in row}
        assert len(streams) == 9 and all(len(s) == STEPS for s in streams)
        # the S step pads of each stream are distinct
        assert all(len(set(stream)) == STEPS for stream in streams)
        # a second agreement on the same slot, fresh ephemerals: fresh streams
        again = agree(TOY_GROUP_64, certificate, nk, secrets, rng)
        assert not {s for row in again.senders for s in row} & streams

    @pytest.mark.parametrize("fault", ["neighbor-key", "secret", "certificate"])
    def test_a_certificate_that_is_not_the_receivers_is_refused(self, fault):
        certificate, nk, secrets, rng = slot(3)
        if fault == "neighbor-key":
            nk += 1
        elif fault == "secret":
            secrets = [secrets[0], secrets[2], secrets[1]]
        else:
            keys = [list(row) for row in certificate.keys]
            keys[0] = keys[1]
            certificate = replace(certificate, keys=keys)
        with pytest.raises(ProtocolError, match="key agreement failed"):
            agree(TOY_GROUP_64, certificate, nk, secrets, rng)

    def test_wrong_shapes_are_refused(self):
        certificate, nk, secrets, rng = slot(3)
        with pytest.raises(ProtocolError):
            agree(TOY_GROUP_64, certificate, nk, secrets[:2], rng)
        wide = replace(certificate, keys=[list(row) * 2 for row in certificate.keys])
        with pytest.raises(ProtocolError, match="one key per member"):
            agree(TOY_GROUP_64, wide, nk, secrets, rng)
        with pytest.raises(ProtocolError, match="one ephemeral per member"):
            agree_pads(TOY_GROUP_64, certificate, nk, secrets, [1, 2], STEPS, BITS)
        pads = agree(TOY_GROUP_64, certificate, nk, secrets, rng)
        with pytest.raises(ProtocolError):
            PadTransfer(BITS).mask([1, 2], pads, 0, rng)
        with pytest.raises(ProtocolError):
            PadTransfer(BITS).unmask([1, 2], pads, 0)
        with pytest.raises(ProtocolError):
            PadTransfer(0)
        # a step the streams were not agreed for
        for step in (-1, STEPS):
            with pytest.raises(ProtocolError, match="no pads agreed"):
                PadTransfer(BITS).execute([1, 2, 3], pads, step, rng)


# ------------------------------------------------------------- exact count --


def chain():
    net = FinancialNetwork()
    for bank, cash in enumerate([2.0, 1.0, 1.0, 0.5]):
        net.add_bank(Bank(bank, cash=cash))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    return net


def deployment_exps(n, d, b):
    """What the trusted party's setup costs (``test_deployment_setup.py``)."""
    certificates = n * d
    return n * d * b + n + 1 + (certificates + 1) + 2 * (certificates + 1)


class TestExactCount:
    @pytest.mark.parametrize("padded", [False, True], ids=["edges", "padded"])
    def test_iterations_add_no_exponentiation(self, padded):
        """A 1- and a 3-iteration run count the same exponentiations: the
        deployment, then 2b² + 2b per transferring slot; the run's meter
        and its ``bill`` event hold the slots' share exactly."""
        counts = []
        for iterations in (1, 3):
            counting = CountingGroup(TOY_GROUP_64)
            config = DStressConfig.preset("demo", group=counting, pad_transfers=padded)
            test = (
                StressTest(chain()).program("eisenberg-noe").configure(config).degree_bound(2)
            )
            resolved = test.resolve(iterations)
            graph = resolved.graph
            n, d, b = graph.num_vertices, graph.degree_bound, config.block_size
            slots = n * d if padded else graph.num_edges
            recorder = TraceRecorder()
            with recording(recorder):
                result = test.engine("secure").run(iterations=iterations)
            (bill,) = [a for _, name, a in recorder.spans[0].events if name == "bill"]
            agreements = slots * (2 * b * b + 2 * b)
            assert counting.exp_count == deployment_exps(n, d, b) + agreements
            assert result.traffic.summary()["total_exponentiations"] == agreements
            assert bill["exponentiations"] == agreements
            assert bill["transfers"] == iterations * slots
            assert run_bill(resolved.program, config, graph, iterations).key_agreements == slots
            counts.append(counting.exp_count)
        assert counts[0] == counts[1]
