"""Adversary-view tests: what a curious coalition actually observes.

DStress's guarantees (§2) are value privacy, edge privacy and output
privacy against honest-but-curious coalitions of at most k nodes. These
tests check the *observable structure* that those guarantees rest on:

* any k shares of a secret are uniform (value privacy);
* protocol transcripts have value- and topology-independent shapes
  (nothing about the secrets is encoded in message sizes or counts);
* the trusted party's outputs are identical across different graphs over
  the same participants (the TP never learns edges);
* transfer artifacts differ completely between runs (no recognizability);
* each role of the §3.5 pad transfer — a sender, ``u``, ``v``, a receiver,
  and coalitions of up to k of them — sees the same distribution whatever
  the honest members' shares are (``TestPadTransferViews``; DESIGN.md
  "The transfer" writes the argument out).
"""

import itertools
from collections import Counter

import pytest

from conftest import execute

from repro.core.config import DStressConfig
from repro.core.setup import TrustedParty
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.rng import DeterministicRNG
from repro.finance import Bank, EisenbergNoeProgram, FinancialNetwork
from repro.mpc.fixedpoint import FixedPointFormat
from repro.sharing import share_value, xor_all
from repro.transfer import pads as pad_module
from repro.transfer.pads import PadTransfer, SlotKeys

FMT = FixedPointFormat(16, 8)


def _chain_network(cash_values):
    net = FinancialNetwork()
    for i, cash in enumerate(cash_values):
        net.add_bank(Bank(i, cash=cash))
    net.add_debt(0, 1, 4.0)
    net.add_debt(1, 2, 3.0)
    net.add_debt(2, 3, 2.0)
    return net


def _config(**overrides):
    defaults = dict(
        collusion_bound=2,
        fmt=FMT,
        group=TOY_GROUP_64,
        output_epsilon=0.5,
        seed=5,
    )
    defaults.update(overrides)
    return DStressConfig(**defaults)


class TestValuePrivacy:
    def test_k_shares_are_uniform(self):
        """A coalition holding k of k+1 shares sees a uniform pattern:
        across many sharings of the same secret, the partial XOR covers
        the whole space."""
        rng = DeterministicRNG("coalition")
        partials = set()
        for _ in range(400):
            shares = share_value(0x1234, 16, 3, rng)
            partials.add(xor_all(shares[:2]))
        assert len(partials) > 300  # ~uniform over 2^16 with 400 draws

    def test_traffic_is_value_independent(self):
        """Identical topology, different secret balance sheets: every
        node's metered byte counts must be identical (message sizes carry
        no information about values)."""
        results = []
        for cash in ([2.0, 1.0, 1.0, 0.5], [50.0, 40.0, 30.0, 20.0]):
            graph = _chain_network(cash).to_en_graph(degree_bound=1)
            results.append(execute("secure", EisenbergNoeProgram(FMT), graph, 2, _config()))
        a, b = results
        for node in a.traffic.node_ids:
            assert a.traffic.node(node).bytes_sent == b.traffic.node(node).bytes_sent
            assert a.traffic.node(node).bytes_received == b.traffic.node(node).bytes_received
        assert a.extras["transfer_count"] == b.extras["transfer_count"]
        assert a.extras["gmw_ot_count"] == b.extras["gmw_ot_count"]


class TestEdgePrivacyStructure:
    def test_tp_outputs_identical_across_topologies(self):
        """The same participants with completely different edges receive
        the *same* block assignment and certificates: the TP transcript
        cannot encode the topology it never saw."""
        elgamal = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=64)
        outputs = []
        for _ in range(2):
            tp = TrustedParty(elgamal, DeterministicRNG(42))
            assignment = tp.assign_blocks(list(range(8)), collusion_bound=2)
            outputs.append(assignment.blocks)
        assert outputs[0] == outputs[1]

    def test_transfer_shapes_identical_per_edge(self):
        """Every edge transfer ships exactly the same number and size of
        ciphertext elements regardless of the message value."""
        from repro.transfer.protocol import TransferTraffic

        t = TransferTraffic(
            element_bytes=TOY_GROUP_64.element_size_bytes, block_size=3, message_bits=16
        )
        # Shape is a pure function of (k, L, element size): value-free.
        assert t.subshare_bytes == (16 + 1) * TOY_GROUP_64.element_size_bytes

    def test_gmw_transcript_shape_degree_padded(self):
        """The update circuit (and hence the MPC transcript) has the same
        gate count for a degree-0 vertex as for a degree-D vertex: degree
        is hidden from block members by ⊥ padding (§3.1)."""
        program = EisenbergNoeProgram(FMT)
        circuit = program.build_update_circuit(3)
        # One circuit serves every vertex; the engine never builds
        # per-degree circuits in the default (uniform-D) mode.
        assert circuit.stats().and_gates > 0


class TestUnlinkability:
    def test_fresh_runs_share_no_ciphertexts(self):
        """Two runs over the same data produce disjoint ciphertext bytes —
        nothing is cached or replayed that could link runs."""
        from repro.crypto.keys import SchnorrSigner
        from repro.sharing import share_value as sv
        from repro.transfer.certificates import build_certificate, generate_member_keys
        from repro.transfer.protocol import MessageTransferProtocol

        eg = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=300)
        signer = SchnorrSigner(TOY_GROUP_64)
        rng = DeterministicRNG("unlink")
        tp = signer.keygen(rng)
        members = [generate_member_keys(eg, 8, rng) for _ in range(3)]
        nk = TOY_GROUP_64.random_scalar(rng)
        cert = build_certificate(eg, signer, tp, 0, 0, members, nk, rng)
        proto = MessageTransferProtocol(eg, 8, noise_alpha=0.5)

        def transcript():
            shares = sv(42, 8, 3, rng)
            bundles = [proto.sender_encrypt(s, cert, rng) for s in shares]
            blobs = set()
            for bundle in bundles:
                for sub in bundle:
                    blobs.add(TOY_GROUP_64.element_to_bytes(sub.c1))
                    blobs.update(TOY_GROUP_64.element_to_bytes(c) for c in sub.c2)
            return blobs

        assert not (transcript() & transcript())

    def test_rerandomized_keys_unlinkable_across_slots(self):
        """The same member's key appears under unrelated values in
        different certificates (different neighbor keys)."""
        eg = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=64)
        rng = DeterministicRNG("cert-unlink")
        tp = TrustedParty(eg, rng)
        from repro.transfer.certificates import generate_member_keys

        members = [generate_member_keys(eg, 4, rng) for _ in range(3)]
        keys = [eg.group.random_scalar(rng) for _ in range(3)]
        certs = tp.build_block_certificates(0, members, keys)
        seen = set()
        for cert in certs:
            for row in cert.keys:
                for key in row:
                    blob = eg.group.element_to_bytes(key)
                    assert blob not in seen
                    seen.add(blob)


class TestOutputPrivacy:
    def test_noise_spread_dwarfs_adjacent_world_gap(self):
        """Two adjacent worlds (one bank's cash shifted by 0.5) differ by
        far less than the spread of the release distribution, so a single
        release cannot reliably distinguish them — the output-privacy
        property the Laplace/geometric noise buys."""
        releases = {2.0: [], 2.5: []}
        for seed in range(6):
            for cash0 in releases:
                graph = _chain_network([cash0, 1.0, 1.0, 0.5]).to_en_graph(1)
                config = _config(seed=seed, output_epsilon=0.3)
                result = execute("secure", EisenbergNoeProgram(FMT), graph, 2, config)
                releases[cash0].append(result.aggregate)
        exact_gap = 0.5  # pre-noise outputs differ by the cash shift
        spread = max(releases[2.0]) - min(releases[2.0])
        # Noise scale is sensitivity/eps = 33 units >> 0.5-unit signal.
        assert spread > 10 * exact_gap
        # And the two worlds' release ranges overlap almost entirely.
        overlap_low = max(min(releases[2.0]), min(releases[2.5]))
        overlap_high = min(max(releases[2.0]), max(releases[2.5]))
        assert overlap_high - overlap_low > 0.5 * spread


# ------------------------------------------------------------ pad transfer --

#: b = k + 1 = 3; L = 1 keeps every view small enough to enumerate
BLOCK, K, L = 3, 2, 1

#: (senders, receivers) in the coalition, by block position: sender 0 is
#: ``u``, receiver 0 is ``v``. A node can sit in both blocks, so k nodes
#: hold at most k positions on each side.
COALITIONS = {
    "sender": ({1}, set()),
    "u": ({0}, set()),
    "v": (set(), {0}),
    "receiver": (set(), {1}),
    "u-with-k-1-receivers": ({0}, {1}),
    "u-with-v": ({0}, {0}),
    "k-senders-with-k-receivers": ({0, 1}, {1, 2}),
}


class _Draws:
    """The senders' split randomness, scripted: ``randbits`` hands out the
    given values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def randbits(self, bits):
        return next(self._values)


def _label(x, y):
    return f"x{x}y{y}".encode()


LABELS = SlotKeys(
    senders=tuple(tuple(_label(x, y) for y in range(BLOCK)) for x in range(BLOCK)),
    receivers=tuple(tuple(_label(x, y) for x in range(BLOCK)) for y in range(BLOCK)),
)


@pytest.fixture
def pads(monkeypatch):
    """The PRF replaced by a table (key label -> pad): the random-function
    model of the keys a coalition does not hold. Fill it before a run."""
    table = {}
    monkeypatch.setattr(pad_module, "pad", lambda key, step, bits: table[key])
    return table


def coalition_view(coalition, shares, splits, pads):
    """Run the real roles once on the pad table and scripted splits;
    return all the coalition sees, and the fresh shares."""
    senders, receivers = coalition
    transfer = PadTransfer(L)
    draws = _Draws(value for x in range(BLOCK) for value in splits[x])
    words = transfer.mask(shares, LABELS, 0, draws)
    combined = transfer.combine(words)
    fresh = transfer.unmask(combined, LABELS, 0)
    view = []
    for x in sorted(senders):
        view.append(("sender", x, shares[x], splits[x], [pads[k] for k in LABELS.senders[x]]))
    for y in sorted(receivers):
        view.append(("receiver", y, combined[y], fresh[y], [pads[k] for k in LABELS.receivers[y]]))
    if 0 in senders:  # u: every sender's word for every receiver
        view.append(("u", words))
    if 0 in receivers:  # v: every combined word it forwards
        view.append(("v", combined))
    return repr(view), fresh


class TestPadTransferViews:
    """One step of the pad transfer, enumerated. A coalition's own
    randomness and the pads it can derive are fixed (they are its own, and
    independent of everyone's shares); everything honest is enumerated:
    the honest senders' splits and every pad between an honest sender and
    an honest receiver. For every coalition of at most k positions per
    block the multiset of views is the same whatever the honest senders'
    shares are — the pads of keys the coalition cannot derive hide each
    honest subshare it could otherwise read, and the ones it can derive
    open at most b − 1 subshares of any honest sender."""

    @pytest.mark.parametrize("role", sorted(COALITIONS))
    def test_view_is_independent_of_honest_shares(self, role, pads):
        senders, receivers = COALITIONS[role]
        assert len(senders) <= K and len(receivers) <= K
        honest_senders = [x for x in range(BLOCK) if x not in senders]
        hidden = [
            _label(x, y) for x in honest_senders for y in range(BLOCK) if y not in receivers
        ]
        own_splits = {x: [1] * (BLOCK - 1) for x in senders}
        known = {
            _label(x, y): (x + y) & 1
            for x in range(BLOCK)
            for y in range(BLOCK)
            if _label(x, y) not in hidden
        }
        split_bits = len(honest_senders) * (BLOCK - 1)
        views = {}
        for honest in itertools.product(range(1 << L), repeat=len(honest_senders)):
            shares = [1] * BLOCK  # the coalition's own shares: fixed
            for x, share in zip(honest_senders, honest):
                shares[x] = share
            seen = Counter()
            for draw in itertools.product((0, 1), repeat=split_bits + len(hidden)):
                drawn = iter(draw[:split_bits])
                splits = {
                    x: own_splits[x] if x in senders else [next(drawn) for _ in range(BLOCK - 1)]
                    for x in range(BLOCK)
                }
                pads.update(known)
                pads.update(zip(hidden, draw[split_bits:]))
                view, fresh = coalition_view((senders, receivers), shares, splits, pads)
                assert xor_all(fresh) == xor_all(shares)
                seen[view] += 1
            views[honest] = seen
        reference = next(iter(views.values()))
        assert len(views) == 1 << (L * len(honest_senders))
        assert all(seen == reference for seen in views.values())

    def test_the_enumeration_sees_a_leak_when_there_is_one(self, pads):
        """The same check, given a coalition that holds every receiver,
        does tell the honest shares apart: the test can fail."""
        senders, receivers = {1}, set(range(BLOCK))
        pads.update({_label(x, y): 0 for x in range(BLOCK) for y in range(BLOCK)})
        splits = {x: [0] * (BLOCK - 1) for x in range(BLOCK)}
        views = {
            share: coalition_view((senders, receivers), [share, 1, 1], splits, pads)[0]
            for share in (0, 1)
        }
        assert views[0] != views[1]

    def test_setup_takes_no_share_and_keys_ignore_the_balance_sheets(self):
        """Key agreement happens before any share exists: the keys two runs
        agree on over different balance sheets (same seed, same topology)
        are the same, so nothing a role sees at setup depends on a value."""
        from repro.api import engines as api_engines

        keys = []
        for cash in ([2.0, 1.0, 1.0, 0.5], [50.0, 40.0, 30.0, 20.0]):
            graph = _chain_network(cash).to_en_graph(degree_bound=1)
            core = api_engines._SecureCore(
                api_engines.SecureDStressEngine(), EisenbergNoeProgram(FMT), graph, _config()
            )
            ctx = core.inner._begin_run(graph, 1)
            keys.append(ctx.pad_keys)
        assert keys[0] == keys[1] and len(keys[0]) == 3
