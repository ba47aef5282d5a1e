"""The GMW offline phase and the run's other keyed draws.

Every secure-run GMW evaluation reads one 32-byte instance key from a
stream derived by its step and vertex (or by its release and aggregation
group), and each block pair's masks are one keyed column. So the pools
do not depend on the order vertices reach the builders, both lane types
fold the same columns into the same prefix seeds, and the bytes the
offline phases read are exactly the bill's ``mask_bytes``.

Every share the run draws is keyed the same way, by the party that
draws it: init shares by vertex, transfer subshares by step and sender
member, no-op shares by step and owner, reshares by release, group and
holder, noise seeds by release and root member, agreement ephemerals by
sender member. A party that draws for several slots splits one read in
``(v, in_slot)`` order. So the vertex and slot order moves no share, and
only the deployment reads the run's sequential stream.
"""

import hashlib
import random
from dataclasses import astuple

import pytest

np = pytest.importorskip("numpy")

from repro import DStressConfig, StressTest
from repro.core.aggregation import plan_groups
from repro.core.program import compiled_update_circuit
from repro.core.secure_engine import SecureRun
from repro.core.setup import AGGREGATION_BLOCK_ID
from repro.crypto.rng import DeterministicRNG
from repro.finance import EisenbergNoeProgram
from repro.graphgen import CorePeripheryParams, core_periphery_network
from repro.mpc.bitslice import OfflinePoolBuilder, unpack_lane_axis
from repro.mpc.cost import mask_bytes
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import PoolBuilder
from repro.obs import TraceRecorder
from repro.obs.trace import recording
from repro.simulation.netsim import TrafficMeter

#: the EN update circuit at D = 2 in a narrow format: 437 AND gates, not
#: a multiple of 8, so every column ends inside a byte
CIRCUIT = compiled_update_circuit(EisenbergNoeProgram(FixedPointFormat(10, 5)), 2)


def network():
    """The spine's ``secure_gmw`` shape: 12 banks around a core of 2
    (degrees 2 and 11)."""
    return core_periphery_network(
        CorePeripheryParams(num_banks=12, core_size=2), DeterministicRNG(4801)
    )


def session(**config):
    base = DStressConfig.preset("demo", seed=48, output_epsilon=0.5)
    return StressTest(network()).program("eisenberg-noe").configure(base.with_updates(**config))


def built(builder_type, parties, lanes):
    rng = DeterministicRNG(f"fold-{parties}-{lanes}")
    builder = builder_type(CIRCUIT, parties)
    for _ in range(lanes):
        builder.add_instance(rng)
    return builder, builder.build(), rng.getstate()


class TestFolds:
    @pytest.mark.parametrize("lanes", [1, 12, 64, 65])
    @pytest.mark.parametrize("parties", [2, 3, 8])
    def test_int_and_numpy_pools_fold_to_the_same_prefix_seeds(self, parties, lanes):
        ands = CIRCUIT.compile().stats.and_gates
        assert ands % 8
        int_builder, int_pools, int_state = built(PoolBuilder, parties, lanes)
        np_builder, np_pools, np_state = built(OfflinePoolBuilder, parties, lanes)
        assert int_state == np_state  # one 32-byte key per instance, both
        expected = lanes * parties * (parties - 1) // 2 * -(-ands // 8)
        assert int_builder.mask_bytes == np_builder.mask_bytes == expected
        assert mask_bytes(ands, parties, lanes) == expected
        # numpy: (ands, n, words) in schedule order; int: one word per
        # ordinal in gate-list order, bit lane * n + p
        order = [int(g) for g in CIRCUIT.compile().schedule.and_order]
        numpy_bits = unpack_lane_axis(np_pools.seeds, lanes)
        for position, ordinal in enumerate(order):
            word = int_pools.seeds[ordinal]
            int_bits = [[(word >> (lane * parties + p)) & 1 for lane in range(lanes)]
                        for p in range(parties)]
            assert numpy_bits[position].tolist() == int_bits
        # the XOR of every party's share of a mask is zero: the last
        # party's prefix seed is zero in every lane
        assert not numpy_bits[:, -1].any()


def released(result):
    return (result.aggregate, result.pre_noise_aggregate, result.noise_raw,
            list(result.trajectory), result.traffic.summary(), dict(result.extras))


def shuffle_offline(monkeypatch):
    """Feed every computation step's pool builders the vertices in a
    shuffled order; returns one flag per step: was the order changed?"""
    original = SecureRun._offline_batches
    shuffle = random.Random(48).shuffle
    moved = []

    def offline(core, step, vertices):
        order = list(vertices)
        shuffle(order)
        moved.append(order != list(vertices))
        return original(core, step, order)

    monkeypatch.setattr(SecureRun, "_offline_batches", offline)
    return moved


def shuffle_slots(monkeypatch):
    """Hand the run its vertices, and each vertex its send slots, in a
    shuffled order: key agreement, init sharing and every transfer loop
    walk them so."""
    original = SecureRun._transfer_slots
    shuffle = random.Random(49).shuffle

    def slots(core):
        order = [(view, list(sends)) for view, sends in original(core)]
        for _, sends in order:
            shuffle(sends)
        shuffle(order)
        return iter(order)

    monkeypatch.setattr(SecureRun, "_transfer_slots", slots)


def copied(shares):
    return {v: (dict(s) if isinstance(s, dict) else [list(w) for w in s]) for v, s in shares.items()}


class TestOrderFree:
    @pytest.mark.parametrize("buckets", [None, (2, 11)])
    @pytest.mark.parametrize("backend", ["scalar", "bitsliced"])
    def test_shuffled_builders_release_the_same_bits(self, backend, buckets, monkeypatch):
        """Released values do not see the masks (they only re-randomize
        shares), so the state and inbox *shares* — after init and at the
        end — and the run stream's position are compared too: they move
        if any vertex's masks or shares depend on the order the builders,
        the init loop or the transfer loop were fed."""
        share_initial_state, finalize = SecureRun._share_initial_state, SecureRun.finalize
        cores = []

        def init_spy(core):
            share_initial_state(core)
            cores.append([copied(core.state_shares), copied(core.inbox_shares)])

        def spy(core, state, started):
            cores[-1] += [copied(core.state_shares), copied(core.inbox_shares), core.rng.getstate()]
            return finalize(core, state, started)

        monkeypatch.setattr(SecureRun, "_share_initial_state", init_spy)
        monkeypatch.setattr(SecureRun, "finalize", spy)

        def run():
            return session().engine("secure", backend=backend, buckets=buckets).run(iterations=2)

        straight = run()
        moved = shuffle_offline(monkeypatch)
        shuffle_slots(monkeypatch)
        shuffled = run()
        assert len(moved) == 3 and all(moved)
        assert released(shuffled) == released(straight)
        assert shuffled.traffic.links() == straight.traffic.links()
        assert shuffled.traffic.nodes() == straight.traffic.nodes()
        assert cores[1] == cores[0]


#: per-link meters recorded where every share word was one
#: ``record_send`` (1 774, 1 093 and 2 320 calls per run):
#: ``sha256(repr((links, node stats)))`` in first-seen order, the link
#: count, the total bytes sent, and the calls one send per link makes
PARENT_METERS = {
    "secure_gmw": (
        dict(backend="bitsliced"), {},
        "cfc9b1f3815ba500d1bc8e9b09c0e97b6edbbaf11bb8fe3bd6a4acde1c91c679", 90, 5244169.375, 686,
    ),
    "bucketed-hierarchical": (
        dict(buckets=(2, 11)), dict(aggregation_fanout=4),
        "d116023410af327d0732912e6aad77ddb31da3d062ecc4569c5c2cb2f4d4efa3", 105, 2205869.875, 739,
    ),
    "padded": (
        dict(backend="scalar"), dict(pad_transfers=True),
        "fbcb32a3513a0a1240e869cca8c887342440ded31829869c35b961d4593822e6", 90, 5250926.125, 1392,
    ),
}


class TestPerLinkMeter:
    @pytest.mark.parametrize("case", sorted(PARENT_METERS))
    def test_one_send_per_link_meters_what_one_per_word_did(self, case, monkeypatch):
        """Init shares, no-op reverts, reshares and the reveal record one
        send per link with the summed bytes; every link, its order and
        every node's counters are bit-identical to the per-word meter."""
        options, overrides, digest, links, total, sends = PARENT_METERS[case]
        calls = []
        record_send = TrafficMeter.record_send
        monkeypatch.setattr(
            TrafficMeter, "record_send",
            lambda meter, *args: calls.append(args[:2]) or record_send(meter, *args),
        )
        meter = session(**overrides).engine("secure", **options).run(iterations=1).traffic
        nodes = [(node, astuple(stats)) for node, stats in meter.nodes().items()]
        text = repr((list(meter.links().items()), nodes))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert (meter.num_links, meter.total_bytes_sent) == (links, total)
        assert len(calls) == sends


def derived_labels(monkeypatch, **options):
    """Run once; return every label tuple derived off the run's stream,
    the run's core, and its stream state after the deployment and at the end."""
    seen, core_box = [], {}
    derive, setup_blocks, finalize = (
        DeterministicRNG.derive, SecureRun._setup_blocks, SecureRun.finalize,
    )

    def spy_derive(rng, *labels):
        if rng is core_box.get("rng"):
            seen.append(labels)
        return derive(rng, *labels)

    def spy_setup(core):
        core_box.update(core=core, rng=core.rng, deployed=core.rng.getstate())
        setup_blocks(core)

    def spy_finalize(core, state, started):
        core_box["end"] = core.rng.getstate()
        return finalize(core, state, started)

    monkeypatch.setattr(DeterministicRNG, "derive", spy_derive)
    monkeypatch.setattr(SecureRun, "_setup_blocks", spy_setup)
    monkeypatch.setattr(SecureRun, "finalize", spy_finalize)
    overrides = options.pop("overrides", {})
    session(**overrides).engine("secure", **options).run(iterations=2)
    return seen, core_box


class TestDrawingParties:
    @pytest.mark.parametrize(
        "options",
        [dict(buckets=(2, 11), overrides=dict(aggregation_fanout=4)),
         dict(overrides=dict(pad_transfers=True))],
        ids=["bucketed-hierarchical", "padded"],
    )
    def test_every_derived_label_names_the_party_that_draws_it(self, options, monkeypatch):
        seen, box = derived_labels(monkeypatch, **options)
        core = box["core"]
        blocks = core.assignment.blocks
        sender = {(v, in_slot): u for _, sends in core.slots for u, _, v, in_slot in sends}
        members = {x for u in sender.values() for x in blocks[u]}
        in_degree = {view.vertex_id: view.in_degree for view, _ in core.slots}
        groups = plan_groups(core.graph.vertex_ids, core.config.aggregation_fanout)
        kinds = set()
        for kind, *rest in seen:
            kinds.add(kind)
            if kind == "init":  # the vertex shares its own state
                assert rest[0] in blocks
            elif kind == "agree":  # a sending block's member, for all its slots
                (x,) = rest
                assert x in members
            elif kind == "transfer":  # a sending block's member, for the step
                step, x = rest
                assert x in members
            elif kind == "no-op":  # the owner of unused inbox slots
                step, v = rest
                assert in_degree[v] < core.vertex_bound[v]
            elif kind == "gmw":  # vertex v's block evaluates its update
                assert rest[1] in blocks
            elif kind == "reshare":  # a holder of the words it re-shares
                if rest[1] == "root":  # group g's sum, held by g's block
                    _, _, g, holder = rest
                    assert holder in blocks[groups[g][0]]
                else:  # group g's contributions, held by their blocks
                    _, g, holder = rest
                    assert any(holder in blocks[v] for v in groups[g])
            elif kind == "noise-seed":  # a root member's seed share
                assert rest[1] in blocks[AGGREGATION_BLOCK_ID]
            else:  # a GMW batch of an aggregation group or of the root
                assert kind in ("gmw-aggregate", "gmw-noise")
        assert {"init", "agree", "transfer", "no-op", "gmw", "reshare", "noise-seed"} <= kinds
        # nothing but the deployment reads the run's sequential stream
        assert box["end"] == box["deployed"]


class TestOneReadPerDrawingParty:
    def test_a_step_derives_once_per_drawing_party(self, monkeypatch):
        """On the ``secure_gmw`` shape, each communication step derives one
        stream per member of a sending block and one per owner of unused
        inbox slots: at most 24 for 12 banks, where one per sender and
        slot plus one per revert was 214 here (41 slots, 91 reverts; 216 on
        the spine's topology). Key agreement derives one per member of a
        sending block, for all its slots."""
        seen, box = derived_labels(monkeypatch, backend="bitsliced")
        core = box["core"]
        blocks = core.assignment.blocks
        sends = [send for _, slots in core.slots for send in slots]
        members = {x for u, _, _, _ in sends for x in blocks[u]}
        unused = {
            view.vertex_id: core.vertex_bound[view.vertex_id] - view.in_degree
            for view, _ in core.slots
        }
        owners = {v for v, count in unused.items() if count}
        per_step = len(members) + len(owners)
        assert len(sends) * core.config.block_size + sum(unused.values()) == 214
        assert per_step <= 24
        for step in (0, 1):
            drawn = [labels for labels in seen if labels[0] in ("transfer", "no-op")
                     and labels[1] == step]
            assert len(drawn) == len(set(drawn)) == per_step
            assert {labels[2] for labels in drawn if labels[0] == "transfer"} == members
            assert {labels[2] for labels in drawn if labels[0] == "no-op"} == owners
        agreed = [labels for labels in seen if labels[0] == "agree"]
        assert sorted(x for _, x in agreed) == sorted(members)
        assert core.transfer_count == 2 * len(sends)


class TestMaskBytesCounter:
    CASES = {
        # (engine options, config overrides, iterations, offline phases)
        "secure_gmw": (dict(backend="bitsliced"), {}, 1, 2 + 1),
        # two bounds per step; 12 banks in 3 aggregation groups of 4
        "bucketed": (dict(buckets=(2, 11)), dict(aggregation_fanout=4), 1, 2 * 2 + 3 + 1),
        "windowed": (
            dict(release="windowed", windows=[1, 1]), {}, 2, 3 + 2 * 1,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_counter_equals_the_bill(self, case):
        options, overrides, iterations, phases = self.CASES[case]
        recorder = TraceRecorder()
        with recording(recorder):
            result = session(**overrides).engine("secure", **options).run(iterations=iterations)
        (bill,) = [a for _, name, a in recorder.spans[0].events if name == "bill"]
        assert recorder.metrics.counters["gmw.mask_bytes"] == bill["mask_bytes"] > 0
        histograms = recorder.metrics.histograms
        assert histograms["gmw.offline_s"]["count"] == histograms["gmw.online_s"]["count"] == phases
        assert not any(word in key for key in result.extras for word in ("mask", "offline", "online"))

    def test_nothing_is_observed_untraced(self, monkeypatch):
        """Off the recorder, no batch reads the clock for the metrics."""
        observed = []
        monkeypatch.setattr(
            "repro.obs.metrics.MetricsRegistry.observe",
            lambda registry, name, value, **labels: observed.append(name),
        )
        session().engine("secure", backend="bitsliced").run(iterations=1)
        assert observed == []
