"""Parity-locked tests for the bit-sliced GMW backend.

The acceptance bar for :mod:`repro.mpc.bitslice` is *transcript
equivalence*, not approximate correctness: the lane evaluator must
produce the same output **shares** (stronger than the same revealed
values), the same :class:`~repro.mpc.gmw.GMWTraffic` — down to
``pair_bits`` dict insertion order, which downstream float metering
iterates — and consume the parent RNG stream byte-for-byte like the
scalar engine, because every later fork in a secure run keys off that
stream. Offline pools must be sized exactly from
:func:`repro.mpc.cost.gmw_cost` and fail loudly when over-drawn.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.group import TOY_GROUP_64
from repro.crypto.ot import DDHObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import (
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
from repro.mpc.cost import gmw_cost
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import GMWEngine, mask_stream_bytes
from repro.mpc.noise_circuit import build_noised_sum_bits_circuit
from repro.sharing.xor import share_value


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
        for slots in schedule.output_slots.values():
            assert set(slots.tolist()) <= written
        assert {n: len(s) for n, s in schedule.output_slots.items()} == {
            n: len(bus) for n, bus in circuit.output_buses.items()
        }
        assert sorted(np.concatenate(list(schedule.input_slots.values())).tolist()) == list(
            range(2, schedule.and_lo)
        )

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
        assert schedule.output_slots["parity"].tolist() == [6]

    def test_only_wires_somebody_holds_get_a_slot(self):
        circuit = mixed_circuit()
        stats = circuit.stats()
        schedule = layerize(circuit)
        kept = schedule.num_slots - schedule.and_hi
        free_gates = stats.xor_gates + stats.not_gates
        assert schedule.and_hi - schedule.and_lo == stats.and_gates
        assert 0 < kept < free_gates


# --------------------------------------- schedule ≡ the gate-by-gate walk --


def assert_schedule_matches_the_gate_walk(circuit, parties=3, mode="ot", seed="walk"):
    """Every input assignment as one lane of one batch: the stage schedule
    must reveal what ``Circuit.evaluate`` computes gate by gate, and leave
    each party holding exactly the share the scalar engine leaves it."""
    widths = {name: len(bus) for name, bus in circuit.input_buses.items()}
    assignments = [{}]
    for name, width in widths.items():
        assignments = [{**a, name: v} for a in assignments for v in range(1 << width)]
    scalar = GMWEngine(parties, mode=mode)
    share_rng = DeterministicRNG(f"{seed}-shares")
    batch = [
        {name: scalar.share_input(value, widths[name], share_rng) for name, value in a.items()}
        for a in assignments
    ]
    sliced = BitslicedGMWEngine(parties, mode=mode)
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
    @given(raw_circuits(), st.sampled_from([2, 3]), st.sampled_from(["ot", "beaver"]))
    @settings(max_examples=scale(60), deadline=None)
    def test_random_circuits(self, circuit, parties, mode):
        assert_schedule_matches_the_gate_walk(circuit, parties, mode)

    def edge_case(self, build):
        circuit = Circuit()
        x = circuit.add_input_bus("x", 3)
        outputs = build(circuit, x)
        circuit.mark_output_bus("out", outputs)
        return circuit

    @pytest.mark.parametrize("mode", ["ot", "beaver"])
    def test_named_edge_cases(self, mode):
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
            assert_schedule_matches_the_gate_walk(circuit, mode=mode, seed=name)
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
    @pytest.mark.parametrize("mode", ["ot", "beaver"])
    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_single_evaluate_is_bit_identical_to_scalar(self, mode, parties):
        circuit = mixed_circuit()
        scalar = GMWEngine(parties, mode=mode)
        sliced = BitslicedGMWEngine(parties, mode=mode)
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

    @pytest.mark.parametrize("mode", ["ot", "beaver"])
    def test_batch_matches_back_to_back_scalar_evaluations(self, mode):
        circuit = mixed_circuit()
        parties = 3
        scalar = GMWEngine(parties, mode=mode)
        sliced = BitslicedGMWEngine(parties, mode=mode)
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

    def test_ot_pool_replays_scalar_draw_order(self):
        """OT-mode mask bits: pool entry (gate g, sender i, receiver j) is
        bit ``7 - k % 8`` of byte ``k // 8`` of the one read sender ``i``'s
        fork makes, ``k = g * (n - 1) + rank of j`` — forks in transcript
        order, eight masks to the byte, the last byte's tail bits unused."""
        circuit = mixed_circuit(4)
        parties = 3
        ands = circuit.stats().and_gates
        assert ands * (parties - 1) % 8  # the read ends inside a byte
        engine = BitslicedGMWEngine(parties, mode="ot")
        rng = DeterministicRNG("replay")
        pools = engine.precompute(circuit, 1, rng)
        replay = DeterministicRNG("replay")
        party_rngs = [replay.fork(f"gmw-party-{p}") for p in range(parties)]
        size = mask_stream_bytes(ands, parties)
        assert size == -(-ands * (parties - 1) // 8)
        streams = [party_rng.randbytes(size) for party_rng in party_rngs]
        for g in range(ands):
            for i in range(parties):
                receivers = [j for j in range(parties) if j != i]
                for rank, j in enumerate(receivers):
                    k = g * (parties - 1) + rank
                    expected = (streams[i][k // 8] >> (7 - k % 8)) & 1
                    assert int(pools.ot_masks[g, i, j, 0] & np.uint64(1)) == expected
                assert int(pools.ot_masks[g, i, i, 0]) == 0
        # only the 32-byte forks came off the parent stream
        assert rng.getstate() == replay.getstate()

    def test_scalar_over_a_drawing_ot_backend_reads_masks_first(self):
        """A backend that draws per transfer (DDH) takes its randomness
        from the sender's fork *after* the packed masks: the run is
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
            assert engine.ot.stats.transfers == circuit.stats().and_gates * parties * (parties - 1)
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

    def test_beaver_pool_replays_scalar_draw_order(self):
        """Beaver triples: pool consumption order equals the scalar
        transcript's parent-rng draw order under ``DeterministicRNG.fork``."""
        circuit = mixed_circuit(4)
        parties = 3
        engine = BitslicedGMWEngine(parties, mode="beaver")
        pools = engine.precompute(circuit, 1, DeterministicRNG("replay"))
        rng = DeterministicRNG("replay")
        for p in range(parties):  # evaluate() forks these first
            rng.fork(f"gmw-party-{p}")
        for g in range(circuit.stats().and_gates):
            a_plain = rng.randbit()
            b_plain = rng.randbit()
            for component, plain in (
                (pools.triple_a, a_plain),
                (pools.triple_b, b_plain),
                (pools.triple_c, a_plain & b_plain),
            ):
                expected = share_value(plain, 1, parties, rng)
                lane0 = [int(component[g, p, 0] & np.uint64(1)) for p in range(parties)]
                assert lane0 == expected

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

    @pytest.mark.parametrize("mode", ["ot", "beaver"])
    @pytest.mark.parametrize("name", ["en-update", "egj-update", "noised-sum"])
    def test_output_shares_cost_model_and_pool_agree(self, circuits, name, mode):
        circuit = circuits[name]
        parties, lanes = 3, 3
        scalar = GMWEngine(parties, mode=mode)
        sliced = BitslicedGMWEngine(parties, mode=mode)
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

        cost = gmw_cost(
            circuit,
            parties,
            scalar.ot.sender_bytes_per_transfer(1),
            scalar.ot.receiver_bytes_per_transfer(1),
            mode=mode,
        )
        assert pools.and_gates == cost.and_gates == circuit.stats().and_gates
        for ref, got in zip(refs, gots):
            assert got.output_shares == ref.output_shares
            assert list(got.traffic.pair_bits.items()) == list(ref.traffic.pair_bits.items())
            assert got.traffic.ot_count == ref.traffic.ot_count == cost.total_ots
            assert got.traffic.rounds == ref.traffic.rounds == cost.rounds
            assert ref.traffic.sent_bits == [cost.sent_bits_per_party] * parties


# ------------------------------------------------- offline/online account --


class TestOfflineAccounting:
    @pytest.mark.parametrize("mode", ["ot", "beaver"])
    @pytest.mark.parametrize("parties", [2, 4])
    def test_pools_sized_exactly_from_cost_model(self, mode, parties):
        circuit = mixed_circuit()
        engine = BitslicedGMWEngine(parties, mode=mode)
        cost = gmw_cost(circuit, parties, 0, 0, mode=mode)
        lanes = 3
        pools = engine.precompute(circuit, lanes, DeterministicRNG("size"))
        assert pools.and_gates == cost.and_gates
        assert pools.num_instances == lanes
        words = lane_words(lanes)
        if mode == "ot":
            assert pools.ot_masks.shape == (cost.and_gates, parties, parties, words)
        else:
            assert cost.beaver_triples == cost.and_gates
            for component in (pools.triple_a, pools.triple_b, pools.triple_c):
                assert component.shape == (cost.and_gates, parties, words)
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

    def test_mode_mismatched_pool_rejected(self):
        circuit = mixed_circuit()
        ot_engine = BitslicedGMWEngine(3, mode="ot")
        beaver_engine = BitslicedGMWEngine(3, mode="beaver")
        pools = ot_engine.precompute(circuit, 1, DeterministicRNG("mode"))
        inputs = shared_batch(ot_engine, 6, [(1, 1)])
        with pytest.raises(ProtocolError):
            beaver_engine.evaluate_batch(circuit, inputs, pools=pools)

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
        with pytest.raises(ConfigurationError):
            get_engine("secure-async", backend="vectorized")
