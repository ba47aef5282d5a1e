"""The GMW offline phase: per-pair keyed mask columns, folded into pools.

Every secure-run GMW evaluation reads one 32-byte instance key from a
stream derived by its step and vertex (or by its release and aggregation
group), and each block pair's masks are one keyed column. So the pools
do not depend on the order vertices reach the builders, both lane types
fold the same columns into the same prefix seeds, and the bytes the
offline phases read are exactly the bill's ``mask_bytes``.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro import DStressConfig, StressTest
from repro.core.program import compiled_update_circuit
from repro.core.secure_engine import SecureRun
from repro.crypto.rng import DeterministicRNG
from repro.finance import EisenbergNoeProgram
from repro.graphgen import CorePeripheryParams, core_periphery_network
from repro.mpc.bitslice import OfflinePoolBuilder, unpack_lane_axis
from repro.mpc.cost import mask_bytes
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import PoolBuilder
from repro.obs import TraceRecorder
from repro.obs.trace import recording

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


class TestOrderFree:
    @pytest.mark.parametrize("buckets", [None, (2, 11)])
    @pytest.mark.parametrize("backend", ["scalar", "bitsliced"])
    def test_shuffled_builders_release_the_same_bits(self, backend, buckets, monkeypatch):
        """Released values do not see the masks (they only re-randomize
        shares), so the final state *shares* and the run stream's position
        are compared too: they move if any vertex's masks depend on the
        order the builders were fed."""
        finalize = SecureRun.finalize
        cores = []

        def spy(core, state, started):
            cores.append((core.state_shares, core.rng.getstate()))
            return finalize(core, state, started)

        monkeypatch.setattr(SecureRun, "finalize", spy)

        def run():
            return session().engine("secure", backend=backend, buckets=buckets).run(iterations=2)

        straight = run()
        moved = shuffle_offline(monkeypatch)
        shuffled = run()
        assert len(moved) == 3 and all(moved)
        assert released(shuffled) == released(straight)
        assert shuffled.traffic.links() == straight.traffic.links()
        assert cores[1] == cores[0]


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
        assert recorder.metrics.histograms["gmw.offline_s"]["count"] == phases
        assert not any("mask" in key or "offline" in key for key in result.extras)
