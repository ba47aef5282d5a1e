"""Parity-locked tests for the bit-sliced GMW backend.

The acceptance bar for :mod:`repro.mpc.bitslice` is *transcript
equivalence*, not approximate correctness: the lane evaluator must
produce the same output **shares** (stronger than the same revealed
values), the same :class:`~repro.mpc.gmw.GMWTraffic` — down to
``pair_bits`` dict insertion order, which downstream float metering
iterates — and consume the parent RNG stream byte-for-byte like the
scalar engine, because every later fork in a secure run keys off that
stream. Offline pools must be sized exactly from
:class:`repro.mpc.cost.Bill` and fail loudly when over-drawn.
"""

import hashlib
import struct
import time

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.group import TOY_GROUP_64
from repro.crypto.ot import DDHObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import (
    CircuitError,
    ConfigurationError,
    OfflinePoolExhaustedError,
    ProtocolError,
)
from repro.mpc import bitslice
from repro.mpc.bitslice import (
    LANE_BITS,
    BitslicedGMWEngine,
    lane_words,
    pack_bits,
    pack_lane_axis,
    unpack_bits,
    unpack_lane_axis,
)
from repro.finance.eisenberg_noe import EisenbergNoeProgram
from repro.finance.elliott_golub_jackson import ElliottGolubJacksonProgram
from repro.mpc.builder import CircuitBuilder
from repro.mpc.circuit import Circuit, GateOp, layerize
from repro.mpc.cost import bill_for
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import GMWEngine, pair_columns
from repro.mpc.noise_circuit import build_noised_sum_bits_circuit


def mixed_circuit(width=6):
    """Adder + multiplier + comparator: XOR, AND, and NOT gates at several
    depths, so layered evaluation has real structure to get wrong."""
    builder = CircuitBuilder()
    x = builder.input_bus("x", width)
    y = builder.input_bus("y", width)
    builder.output_bus("sum", builder.add(x, y))
    builder.output_bus("prod", builder.mul(x, y))
    builder.output_bus("lt", [builder.lt_unsigned(x, y)])
    return builder.circuit


def shared_batch(engine, width, pairs, seed="inputs"):
    rng = DeterministicRNG(seed)
    return [
        {
            "x": engine.share_input(x, width, rng),
            "y": engine.share_input(y, width, rng),
        }
        for x, y in pairs
    ]


# ------------------------------------------------------------- lane codec --


class TestLaneCodec:
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    @settings(max_examples=scale(60), deadline=None)
    def test_pack_unpack_round_trip(self, bits):
        words = pack_bits(bits)
        assert words.shape == (lane_words(len(bits)),)
        assert unpack_bits(words, len(bits)) == bits

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=130),
        st.integers(),
    )
    @settings(max_examples=scale(40), deadline=None)
    def test_multi_axis_round_trip(self, rows, planes, lanes, seed):
        raw = DeterministicRNG(seed).randbytes(rows * planes * lanes)
        bits = (np.frombuffer(raw, dtype=np.uint8) & 1).reshape(rows, planes, lanes)
        words = pack_lane_axis(bits)
        assert words.shape == (rows, planes, lane_words(lanes))
        assert (unpack_lane_axis(words, lanes) == bits).all()

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=150),
        st.integers(),
    )
    @settings(max_examples=scale(60), deadline=None)
    def test_lane_xor_and_semantics_match_scalar(self, a_bits, seed):
        b_bits = [
            byte & 1 for byte in DeterministicRNG(seed).randbytes(len(a_bits))
        ]
        a, b = pack_bits(a_bits), pack_bits(b_bits)
        assert unpack_bits(a ^ b, len(a_bits)) == [
            x ^ y for x, y in zip(a_bits, b_bits)
        ]
        assert unpack_bits(a & b, len(a_bits)) == [
            x & y for x, y in zip(a_bits, b_bits)
        ]

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 100, 128, 129])
    def test_ragged_tail_bits_stay_zero(self, count):
        """Canonical form: lanes past ``count`` are zero even when the
        input would set them — array equality in the parity tests depends
        on it."""
        words = pack_bits([1] * count)
        tail = count % LANE_BITS
        if tail:
            assert int(words[-1]) == (1 << tail) - 1
        assert unpack_bits(words, count) == [1] * count

    def test_rejects_non_bits(self):
        with pytest.raises(ProtocolError):
            pack_bits([0, 2, 1])
        with pytest.raises(ProtocolError):
            unpack_lane_axis(np.zeros(1, dtype=np.uint64), LANE_BITS + 1)


# -------------------------------------------------------- stage schedule --


def and_depths(circuit):
    """AND depth of every AND gate, in gate-list order (the test's own walk)."""
    depth = [0] * circuit.num_wires
    out = []
    for gate in circuit.gates:
        if gate.op is GateOp.NOT:
            depth[gate.out] = depth[gate.a]
        else:
            depth[gate.out] = max(depth[gate.a], depth[gate.b]) + (gate.op is GateOp.AND)
        if gate.op is GateOp.AND:
            out.append(depth[gate.out])
    return out


class TestStageSchedule:
    def test_every_phase_reads_only_what_an_earlier_phase_wrote(self):
        circuit = mixed_circuit()
        schedule = layerize(circuit)
        written = set(range(schedule.and_lo))  # constants + inputs
        for stage in schedule.stages:
            assert set(stage.gather.tolist()) <= written
            assert stage.starts.tolist() == sorted(set(stage.starts.tolist()))
            assert len(stage.starts) == stage.xor_hi - stage.xor_lo
            if len(stage.starts):
                assert stage.starts[0] == 0 and stage.starts[-1] < len(stage.gather)
            xor_slots = set(range(stage.xor_lo, stage.xor_hi))
            assert not xor_slots & written
            written |= xor_slots
            assert set(stage.and_a.tolist()) | set(stage.and_b.tolist()) <= written
            assert len(stage.and_a) == len(stage.and_b) == stage.and_hi - stage.and_lo
            and_slots = set(range(stage.and_lo, stage.and_hi))
            assert not and_slots & written
            written |= and_slots
        # every slot is written exactly once, every bus has its slots
        assert written == set(range(schedule.num_slots))
        outputs = schedule.outputs
        assert set(outputs.slots.tolist()) <= written
        # each output bus's pieces cover it, in order; an empty bus has none
        ends = outputs.starts.tolist()[1:] + [len(outputs.slots)]
        covered = {}
        for (name, shift, _), lo, hi in zip(outputs.pieces, outputs.starts.tolist(), ends):
            assert shift == covered.get(name, 0)
            covered[name] = shift + hi - lo
        assert covered == {n: len(bus) for n, bus in circuit.output_buses.items() if bus}
        assert sorted(schedule.inputs.slots.tolist()) == list(range(2, schedule.and_lo))

    def test_one_stage_per_and_round_and_ordinals_in_gate_list_order(self):
        """Stage ``r`` evaluates exactly the AND gates of depth ``r + 1``,
        and row ``k`` of the AND slice names that gate's ordinal in
        gate-list order — the index into the offline pool."""
        circuit = mixed_circuit()
        schedule = layerize(circuit)
        depths = and_depths(circuit)
        assert len(schedule.stages) == circuit.stats().and_depth + 1
        order = schedule.and_order.tolist()
        assert sorted(order) == list(range(circuit.stats().and_gates))
        assert schedule.and_hi - schedule.and_lo == len(order)
        row = 0
        for index, stage in enumerate(schedule.stages):
            ordinals = order[row : row + (stage.and_hi - stage.and_lo)]
            assert ordinals == [o for o, d in enumerate(depths) if d == index + 1]
            assert stage.and_lo == schedule.and_lo + row
            row += len(ordinals)
        assert row == len(order)
        assert schedule.stages[-1].and_hi == schedule.stages[-1].and_lo  # outputs only

    def test_a_same_depth_xor_chain_folds_into_one_set(self):
        """a^b^c^d built as a chain is one kept wire whose XOR set is the
        four inputs — the links in between hold no slot."""
        circuit = Circuit()
        wires = circuit.add_input_bus("x", 4)
        acc = wires[0]
        for wire in wires[1:]:
            acc = circuit.add_gate(GateOp.XOR, acc, wire)
        circuit.mark_output_bus("parity", [acc])
        schedule = layerize(circuit)
        assert schedule.num_slots == 2 + 4 + 1
        (stage,) = schedule.stages
        assert stage.gather.tolist() == [2, 3, 4, 5]
        assert stage.starts.tolist() == [0]
        assert schedule.outputs.pieces == (("parity", 0, 1),)
        assert schedule.outputs.slots.tolist() == [6]

    def test_only_wires_somebody_holds_get_a_slot(self):
        circuit = mixed_circuit()
        stats = circuit.stats()
        schedule = layerize(circuit)
        kept = schedule.num_slots - schedule.and_hi
        free_gates = stats.xor_gates + stats.not_gates
        assert schedule.and_hi - schedule.and_lo == stats.and_gates
        assert 0 < kept < free_gates


# --------------------------------------- schedule ≡ the gate-by-gate walk --


def assert_schedule_matches_the_gate_walk(circuit, parties=3, seed="walk"):
    """Every input assignment as one lane of one batch: the stage schedule
    must reveal what ``Circuit.evaluate`` computes gate by gate, and leave
    each party holding exactly the share the scalar engine leaves it."""
    widths = {name: len(bus) for name, bus in circuit.input_buses.items()}
    assignments = [{}]
    for name, width in widths.items():
        assignments = [{**a, name: v} for a in assignments for v in range(1 << width)]
    scalar = GMWEngine(parties)
    share_rng = DeterministicRNG(f"{seed}-shares")
    batch = [
        {name: scalar.share_input(value, widths[name], share_rng) for name, value in a.items()}
        for a in assignments
    ]
    sliced = BitslicedGMWEngine(parties)
    got = sliced.evaluate_batch(circuit, batch, DeterministicRNG(seed))
    scalar_rng = DeterministicRNG(seed)
    for assignment, shares, lane in zip(assignments, batch, got):
        plain = circuit.evaluate(assignment)
        assert {name: lane.reveal(name) for name in plain} == plain, assignment
        assert lane.output_shares == scalar.evaluate(circuit, shares, scalar_rng).output_shares


@st.composite
def raw_circuits(draw):
    """Gates appended through ``add_gate`` — no constant folding — over
    any earlier wire, the two constants included; outputs drawn from all
    wires, repeats allowed."""
    circuit = Circuit()
    circuit.add_input_bus("x", draw(st.integers(1, 3)))
    circuit.add_input_bus("y", draw(st.integers(1, 2)))
    for _ in range(draw(st.integers(0, 40))):
        wire = st.integers(0, circuit.num_wires - 1)
        op = draw(st.sampled_from([GateOp.XOR, GateOp.XOR, GateOp.AND, GateOp.NOT]))
        circuit.add_gate(op, draw(wire), draw(wire))
    wire = st.integers(0, circuit.num_wires - 1)
    circuit.mark_output_bus("out", draw(st.lists(wire, min_size=1, max_size=6)))
    if draw(st.booleans()):
        circuit.mark_output_bus("more", draw(st.lists(wire, min_size=1, max_size=3)))
    return circuit


class TestScheduleEquivalence:
    @given(raw_circuits(), st.sampled_from([2, 3]))
    @settings(max_examples=scale(60), deadline=None)
    def test_random_circuits(self, circuit, parties):
        assert_schedule_matches_the_gate_walk(circuit, parties)

    def edge_case(self, build):
        circuit = Circuit()
        x = circuit.add_input_bus("x", 3)
        outputs = build(circuit, x)
        circuit.mark_output_bus("out", outputs)
        return circuit

    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_named_edge_cases(self, parties):
        def raw(op):
            return lambda c, a, b=0: c.add_gate(op, a, b)

        xor, and_, not_ = raw(GateOp.XOR), raw(GateOp.AND), raw(GateOp.NOT)
        cases = {
            "an output that is an input or a constant": lambda c, x: [x[1], c.zero, c.one, x[1]],
            "x ^ x is the empty set, as an output and as an AND operand": lambda c, x: [
                xor(c, x[0], x[0]),
                and_(c, xor(c, x[0], x[0]), x[1]),
                xor(c, and_(c, not_(c, xor(c, x[2], x[2])), x[1]), x[0]),
            ],
            "NOT of an AND output": lambda c, x: [
                not_(c, and_(c, x[0], x[1])),
                and_(c, not_(c, and_(c, x[0], x[1])), x[2]),
            ],
            "a wire read three rounds later": lambda c, x: [
                xor(
                    c,
                    xor(c, x[0], x[1]),  # depth 0 ...
                    and_(c, and_(c, and_(c, x[0], x[1]), x[2]), not_(c, x[0])),  # ... meets depth 3
                ),
                and_(c, xor(c, x[0], x[1]), and_(c, and_(c, x[1], x[2]), x[0])),
            ],
            "duplicate output wires": lambda c, x: (
                [and_(c, x[0], x[1])] * 3 + [xor(c, x[1], x[2])] * 2
            ),
            "no AND gate at all": lambda c, x: [
                xor(c, not_(c, x[0]), x[2]),
                not_(c, not_(c, x[1])),
            ],
        }
        for name, build in cases.items():
            circuit = self.edge_case(build)
            assert_schedule_matches_the_gate_walk(circuit, parties, seed=name)
        no_and = layerize(self.edge_case(cases["no AND gate at all"]))
        assert len(no_and.stages) == 1 and no_and.and_lo == no_and.and_hi
        assert len(no_and.and_order) == 0

    def test_repeated_gates_are_one_wire(self):
        circuit = Circuit()
        a, b = circuit.add_input_bus("x", 2)
        first = circuit.add_gate(GateOp.AND, a, b)
        assert circuit.add_gate(GateOp.AND, b, a) == first
        assert circuit.add_gate(GateOp.XOR, a, b) == circuit.add_gate(GateOp.XOR, b, a) != first
        assert circuit.add_gate(GateOp.NOT, a) == circuit.add_gate(GateOp.NOT, a, b)
        assert circuit.add_gate(GateOp.XOR, a, a) != circuit.add_gate(GateOp.AND, a, a)
        assert circuit.stats().total_gates == 5


# ------------------------------------------------------ transcript parity --


class TestTranscriptParity:
    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_single_evaluate_is_bit_identical_to_scalar(self, parties):
        circuit = mixed_circuit()
        scalar = GMWEngine(parties)
        sliced = BitslicedGMWEngine(parties)
        shares = shared_batch(scalar, 6, [(37, 52)])[0]
        scalar_rng = DeterministicRNG("parity")
        sliced_rng = DeterministicRNG("parity")
        ref = scalar.evaluate(circuit, shares, scalar_rng)
        got = sliced.evaluate(circuit, shares, sliced_rng)
        # shares, not just revealed values
        assert got.output_shares == ref.output_shares
        assert got.bus_widths == ref.bus_widths
        # traffic, including pair_bits *insertion order*
        assert list(got.traffic.pair_bits.items()) == list(
            ref.traffic.pair_bits.items()
        )
        assert got.traffic.sent_bits == ref.traffic.sent_bits
        assert got.traffic.received_bits == ref.traffic.received_bits
        assert got.traffic.ot_count == ref.traffic.ot_count
        assert got.traffic.rounds == ref.traffic.rounds
        # parent stream consumed byte-for-byte (later forks key off it)
        assert scalar_rng.randbytes(32) == sliced_rng.randbytes(32)

    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_batch_matches_back_to_back_scalar_evaluations(self, parties):
        circuit = mixed_circuit()
        scalar = GMWEngine(parties)
        sliced = BitslicedGMWEngine(parties)
        pairs = [(i * 7 % 64, (63 - i * 11) % 64) for i in range(5)]
        inputs = shared_batch(scalar, 6, pairs)
        scalar_rng = DeterministicRNG("batch")
        sliced_rng = DeterministicRNG("batch")
        refs = [scalar.evaluate(circuit, shares, scalar_rng) for shares in inputs]
        gots = sliced.evaluate_batch(circuit, inputs, sliced_rng)
        for ref, got in zip(refs, gots):
            assert got.output_shares == ref.output_shares
            assert list(got.traffic.pair_bits.items()) == list(
                ref.traffic.pair_bits.items()
            )
        assert scalar_rng.randbytes(32) == sliced_rng.randbytes(32)

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.integers(),
    )
    @settings(max_examples=scale(10), deadline=None)
    def test_property_reveals_match_plaintext_and_scalar(self, x, y, seed):
        circuit = mixed_circuit()
        plain = circuit.evaluate({"x": x, "y": y})
        sliced = BitslicedGMWEngine(3)
        shares = shared_batch(sliced, 6, [(x, y)], seed=seed)[0]
        result = sliced.evaluate(circuit, shares, DeterministicRNG(seed))
        for bus in ("sum", "prod", "lt"):
            assert result.reveal(bus) == plain[bus]

    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_ot_pool_replays_scalar_draw_order(self, parties):
        """OT mask bits: the instance reads one 32-byte key off the parent
        stream; the mask of (AND ordinal ``g``, sender ``i``, receiver
        ``j > i``) is bit ``7 - g % 8`` of byte ``g // 8`` of
        ``shake_256(key ‖ "gmw-pair" ‖ i ‖ j)`` (``i``, ``j`` as 4-byte
        big-endian), the last byte's tail bits unused. Party ``p``'s pool
        seed for gate ``g``, at the gate's schedule position, is the XOR
        of the masks ``(i, j)`` with ``i <= p < j`` — so the last party's
        is always zero."""
        circuit = mixed_circuit(4)
        ands = circuit.stats().and_gates
        assert ands % 8  # every column ends inside a byte
        engine = BitslicedGMWEngine(parties)
        rng = DeterministicRNG("replay")
        pools = engine.precompute(circuit, 1, rng)
        replay = DeterministicRNG("replay")
        key = replay.randbytes(32)
        size = -(-ands // 8)
        columns = {
            (i, j): hashlib.shake_256(key + b"gmw-pair" + struct.pack(">II", i, j)).digest(size)
            for i in range(parties)
            for j in range(i + 1, parties)
        }
        assert pair_columns(key, parties, ands) == list(columns.values())
        order = [int(g) for g in circuit.compile().schedule.and_order]
        assert sorted(order) == list(range(ands))
        for position, g in enumerate(order):
            for p in range(parties):
                want = 0
                for (i, j), column in columns.items():
                    if i <= p < j:
                        want ^= (column[g // 8] >> (7 - g % 8)) & 1
                assert int(pools.seeds[position, p, 0]) == want
        # only the key came off the parent stream
        assert rng.getstate() == replay.getstate()

    def test_scalar_over_a_drawing_ot_backend_reads_masks_first(self):
        """A backend that draws per transfer (DDH) takes its randomness
        from the sender's stream, derived from the instance key: the run is
        deterministic, reconstructs to the clear evaluation, and the
        parties' masks are the ones the rng-silent backend would use."""
        circuit = mixed_circuit(4)
        parties = 2
        scalar = GMWEngine(parties)
        shares = shared_batch(scalar, 4, [(11, 6)])[0]
        plain = circuit.evaluate({"x": 11, "y": 6})
        runs = []
        for _ in range(2):
            engine = GMWEngine(parties, ot=DDHObliviousTransfer(TOY_GROUP_64))
            rng = DeterministicRNG("ddh")
            runs.append((engine.evaluate(circuit, shares, rng), rng.getstate()))
            ands = circuit.stats().and_gates
            assert engine.ot.stats.transfers == ands * parties * (parties - 1) // 2
        (first, first_state), (second, second_state) = runs
        assert first.output_shares == second.output_shares
        assert first_state == second_state
        for bus, value in plain.items():
            assert first.reveal(bus) == value
        # OT returns m_choice whatever the backend: same masks, same shares
        silent_rng = DeterministicRNG("ddh")
        silent = scalar.evaluate(circuit, shares, silent_rng)
        assert silent.output_shares == first.output_shares
        assert silent_rng.getstate() == first_state

    def test_iknp_vectorized_transpose_bit_identical(self):
        """The batched-matrix pivot in ot_extension must equal the scalar
        bit loop for every width, ragged or aligned."""
        from repro.crypto import ot_extension as oe

        rng = DeterministicRNG("transpose")
        for count in (1, 7, 64, 65, 523):
            cols = [rng.randbits(count) for _ in range(80)]
            assert oe._transpose_bits_numpy(cols, count) == oe._transpose_bits_python(
                cols, count
            )


class TestRealCircuitParity:
    """The circuits a secure run actually evaluates, not a toy adder: the
    bit-sliced engine must leave every party the *share* the scalar engine
    leaves it, and cost model, pool and scalar transcript must agree on
    what that costs."""

    @pytest.fixture(scope="class")
    def circuits(self):
        fmt = FixedPointFormat(12, 6)
        return {
            "en-update": EisenbergNoeProgram(fmt).build_update_circuit(2),
            "egj-update": ElliottGolubJacksonProgram(fmt).build_update_circuit(2),
            "noised-sum": build_noised_sum_bits_circuit(3, 12, 0.8, 5, 8),
        }

    @pytest.mark.parametrize("parties", [2, 3, 5])
    @pytest.mark.parametrize("name", ["en-update", "egj-update", "noised-sum"])
    def test_output_shares_cost_model_and_pool_agree(self, circuits, name, parties):
        circuit = circuits[name]
        lanes = 3
        scalar = GMWEngine(parties)
        sliced = BitslicedGMWEngine(parties)
        share_rng = DeterministicRNG(f"{name}-inputs")
        batch = [
            {
                bus: scalar.share_input(share_rng.randbits(len(wires)), len(wires), share_rng)
                for bus, wires in circuit.input_buses.items()
            }
            for _ in range(lanes)
        ]
        scalar_rng, sliced_rng = DeterministicRNG(name), DeterministicRNG(name)
        refs = [scalar.evaluate(circuit, shares, scalar_rng) for shares in batch]
        pools = sliced.precompute(circuit, lanes, sliced_rng)
        gots = sliced.evaluate_batch(circuit, batch, pools=pools)
        assert pools.remaining == 0
        assert scalar_rng.randbytes(32) == sliced_rng.randbytes(32)

        cost = bill_for([circuit.stats()], parties, ot_bytes=scalar.ot.and_gate_bytes())
        assert pools.and_gates == cost.and_gates == circuit.stats().and_gates
        for ref, got in zip(refs, gots):
            assert got.output_shares == ref.output_shares
            assert list(got.traffic.pair_bits.items()) == list(ref.traffic.pair_bits.items())
            assert got.traffic.ot_count == ref.traffic.ot_count == cost.ots
            assert got.traffic.rounds == ref.traffic.rounds == cost.and_rounds
            assert ref.traffic.sent_bits == [cost.sent_bits(p) for p in range(parties)]


# ------------------------------------------------- offline/online account --


def wide_and_empty_circuit():
    """70-bit buses in and out (each two 64-bit pieces), a narrow output,
    and an output bus with no wires."""
    circuit = Circuit()
    x = circuit.add_input_bus("x", 70)
    y = circuit.add_input_bus("y", 70)
    circuit.mark_output_bus("product", [circuit.and_(a, b) for a, b in zip(x, y)])
    circuit.mark_output_bus("nothing", [])
    circuit.mark_output_bus("low", [circuit.xor(x[0], y[1]), circuit.and_(x[69], y[0])])
    return circuit


#: the bulk bus plans' shapes: the EN update circuit, the noise circuit
#: (an 80-bit seed bus) and wide plus empty buses
ONLINE = {
    "en-update": EisenbergNoeProgram(FixedPointFormat(8, 4)).build_update_circuit(2),
    "noise": build_noised_sum_bits_circuit(3, 12, 0.8, 5, 8),
    "wide-and-empty": wide_and_empty_circuit(),
}
ONLINE_LANES = (1, 12, 64, 65)


class TestOnlineParity:
    @pytest.mark.parametrize("parties", [2, 3, 8])
    @pytest.mark.parametrize("name", sorted(ONLINE))
    def test_bulk_lanes_equal_the_per_gate_oracle(self, name, parties):
        """Numpy lanes move every bus of a batch by the compiled bus plans;
        each lane's output shares equal one per-gate ``evaluate``."""
        circuit = ONLINE[name]
        oracle = GMWEngine(parties)
        rng = DeterministicRNG(f"online-{name}-{parties}")
        inputs = [
            {bus: oracle.share_input(rng.randbits(len(w)), len(w), rng)
             for bus, w in circuit.input_buses.items()}
            for _ in range(max(ONLINE_LANES))
        ]
        keys = DeterministicRNG("online-keys")
        expected = [oracle.evaluate(circuit, shares, keys).output_shares for shares in inputs]
        for lanes in ONLINE_LANES:
            engine = BitslicedGMWEngine(parties)
            got = engine.evaluate_batch(circuit, inputs[:lanes], DeterministicRNG("online-keys"))
            assert [result.output_shares for result in got] == expected[:lanes], lanes
        assert any(len(bus) > 64 for bus in circuit.input_buses.values()) == (name != "en-update")

    @pytest.mark.parametrize("engine_type", [GMWEngine, BitslicedGMWEngine])
    def test_refusals_keep_their_type_and_message(self, engine_type):
        circuit = ONLINE["wide-and-empty"]
        good = {"x": [1, 2, 3], "y": [4, 5, 6]}
        cases = [
            ({"x": [1, 2, 3]}, CircuitError, "missing shares for input bus 'y'"),
            ({"x": [1, 2], "y": [4, 5, 6]}, ProtocolError, "input bus 'x' has 2 shares, expected 3"),
            ({"x": [1, 2, 3.0], "y": [4, 5, 6]}, ProtocolError,
             "input bus 'x' has a float share; shares are int"),
            ({"x": [1, 2, 3], "y": [4, np.uint64(5), 6]}, ProtocolError,
             "input bus 'y' has a uint64 share; shares are int"),
        ]
        for bad, error, message in cases:
            with pytest.raises(error) as raised:
                engine_type(3).evaluate_batch(circuit, [good, bad], DeterministicRNG("refusal"))
            assert type(raised.value) is error and str(raised.value) == message


class TestOfflineAccounting:
    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_pools_sized_exactly_from_cost_model(self, parties):
        circuit = mixed_circuit()
        engine = BitslicedGMWEngine(parties)
        cost = bill_for([circuit.stats()], parties)
        lanes = 3
        pools = engine.precompute(circuit, lanes, DeterministicRNG("size"))
        assert pools.and_gates == cost.and_gates
        assert pools.num_instances == lanes
        assert pools.seeds.shape == (cost.and_gates, parties, lane_words(lanes))
        # online phase consumes every provisioned gate exactly once:
        # no under-provision (it would raise), no over-provision
        inputs = shared_batch(engine, 6, [(1, 2), (3, 4), (5, 6)])
        assert pools.remaining == cost.and_gates
        engine.evaluate_batch(circuit, inputs, pools=pools)
        assert pools.remaining == 0

    def test_consuming_a_pool_twice_raises_named_error(self):
        circuit = mixed_circuit()
        engine = BitslicedGMWEngine(3)
        inputs = shared_batch(engine, 6, [(9, 9)])
        pools = engine.precompute(circuit, 1, DeterministicRNG("again"))
        engine.evaluate_batch(circuit, inputs, pools=pools)
        with pytest.raises(OfflinePoolExhaustedError):
            engine.evaluate_batch(circuit, inputs, pools=pools)

    def test_pool_for_smaller_circuit_raises_named_error(self):
        """A pool built for the wrong circuit must fail loudly, never fall
        back to drawing fresh scalar randomness."""
        small = CircuitBuilder()
        a = small.input_bus("x", 2)
        b = small.input_bus("y", 2)
        small.output_bus("sum", small.bitwise_and(a, b))
        engine = BitslicedGMWEngine(3)
        pools = engine.precompute(small.circuit, 1, DeterministicRNG("small"))
        big = mixed_circuit()
        inputs = shared_batch(engine, 6, [(9, 9)])
        with pytest.raises(OfflinePoolExhaustedError):
            engine.evaluate_batch(big, inputs, pools=pools)

    def test_instance_count_mismatch_raises_named_error(self):
        circuit = mixed_circuit()
        engine = BitslicedGMWEngine(3)
        pools = engine.precompute(circuit, 2, DeterministicRNG("short"))
        inputs = shared_batch(engine, 6, [(1, 1), (2, 2), (3, 3)])
        with pytest.raises(OfflinePoolExhaustedError):
            engine.evaluate_batch(circuit, inputs, pools=pools)

    @pytest.mark.parametrize("pool_parties", [2, 4])
    def test_party_count_mismatched_pool_rejected(self, pool_parties):
        circuit = mixed_circuit()
        pools = BitslicedGMWEngine(pool_parties).precompute(circuit, 1, DeterministicRNG("parties"))
        engine = BitslicedGMWEngine(3)
        inputs = shared_batch(engine, 6, [(1, 1)])
        with pytest.raises(ProtocolError):
            engine.evaluate_batch(circuit, inputs, pools=pools)

    def test_batch_without_rng_or_pools_rejected(self):
        engine = BitslicedGMWEngine(3)
        circuit = mixed_circuit()
        with pytest.raises(ProtocolError):
            engine.evaluate_batch(circuit, shared_batch(engine, 6, [(1, 1)]))


# ---------------------------------------------------------------- guards --


class TestGuards:
    def test_rng_consuming_ot_backend_rejected(self):
        """DDH/IKNP backends draw per-transfer randomness the offline
        phase cannot replay — constructing the engine with one must fail."""
        with pytest.raises(ProtocolError):
            BitslicedGMWEngine(2, ot=DDHObliviousTransfer(TOY_GROUP_64))

    def test_missing_numpy_raises_configuration_error(self, monkeypatch):
        monkeypatch.setattr(bitslice, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError):
            bitslice.require_numpy()

    def test_unknown_secure_backend_rejected(self):
        from repro.api.registry import get_engine

        with pytest.raises(ConfigurationError):
            get_engine("secure", backend="vectorized")


# ------------------------------------------------------------ speed gate --


def test_bitsliced_is_at_least_five_times_the_scalar_evaluator():
    """Both timings come from this run on this machine, interleaved, so the
    ratio is portable where a committed wall-clock mean would not be.
    Parity comes first: a speedup of a different transcript means nothing."""
    circuit = mixed_circuit()
    scalar = GMWEngine(3)
    sliced = BitslicedGMWEngine(3)
    pairs = [(i * 37 % 64, (i * 101 + 7) % 64) for i in range(LANE_BITS)]
    inputs = shared_batch(scalar, 6, pairs)

    def scalar_run():
        rng = DeterministicRNG("gate")
        return [scalar.evaluate(circuit, shares, rng) for shares in inputs]

    def sliced_run():
        return sliced.evaluate_batch(circuit, inputs, DeterministicRNG("gate"))

    for ref, got in zip(scalar_run(), sliced_run()):
        assert got.output_shares == ref.output_shares
        assert list(got.traffic.pair_bits.items()) == list(ref.traffic.pair_bits.items())

    best = {scalar_run: float("inf"), sliced_run: float("inf")}
    for _ in range(3):
        for run in best:
            started = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - started)
    ratio = best[scalar_run] / best[sliced_run]
    assert ratio >= 5.0, f"bit-sliced only {ratio:.1f}x the scalar evaluator"
