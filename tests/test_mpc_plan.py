"""Compile once: sealed circuits, the process-wide plan table, lane kernels.

A circuit is a pure function of (program, format, degree bound) or of the
aggregation circuits' scalar arguments, so one compiled, immutable copy
serves every run in a process. These tests pin the three things that can
go wrong with that: a key that forgets something the circuit depends on
(two different circuits shared), a shared circuit that can still be
mutated, and a vectorised kernel that packs a bit somewhere the scalar
loop did not.
"""

import os
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale
from tests.test_service_faults import small_doc
from tests.test_service_server import ServiceHarness

import repro.mpc.circuit as circuit_module
import repro.mpc.plan as plan_module
from repro import Bank, FinancialNetwork, PrivacyAccountant, Scenario, StressTest
from repro.api.cache import ScenarioCache, run_fingerprint
from repro.api.engines import SecureDStressEngine
from repro.core.config import DStressConfig
from repro.core.lifecycle import RunState
from repro.core.program import compiled_update_circuit, program_token
from repro.core.secure_engine import SecureRun
from repro.core.tokens import Unfingerprintable
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CircuitError
from repro.finance.eisenberg_noe import EisenbergNoeProgram
from repro.finance.elliott_golub_jackson import ElliottGolubJacksonProgram
from repro.mpc.builder import CircuitBuilder
from repro.mpc.circuit import Circuit, GateOp, layerize
from repro.mpc.cost import bill_for
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import GMWEngine
from repro.mpc.plan import (
    PLAN_TABLE_SIZE,
    PLANS,
    PlanTable,
    SealedTable,
    noised_sum_bits_circuit,
    partial_sum_circuit,
)
from repro.obs import TraceRecorder, recording
from repro.service import build_session, validate_scenario

np = pytest.importorskip("numpy")

from repro.mpc.bitslice import (  # noqa: E402
    LANE_BITS,
    BitslicedGMWEngine,
    _input_planes,
    _output_values,
    lane_words,
    pack_lane_axis,
    unpack_lane_axis,
)


def schedule_fields(schedule):
    """A :class:`StageSchedule` as plain comparable data."""
    return (
        schedule.num_slots,
        schedule.and_lo,
        schedule.and_hi,
        schedule.and_order.tolist(),
        [
            [field if isinstance(field, tuple) else field.tolist() for field in plan]
            for plan in (schedule.inputs, schedule.outputs)
        ],
        [
            (
                stage.gather.tolist(), stage.starts.tolist(), stage.xor_lo, stage.xor_hi,
                stage.and_a.tolist(), stage.and_b.tolist(), stage.and_lo, stage.and_hi,
            )
            for stage in schedule.stages
        ],
    )


def adder_circuit(width: int = 8) -> Circuit:
    builder = CircuitBuilder()
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    builder.output_bus("sum", builder.add(a, b))
    return builder.circuit


@pytest.fixture
def fresh_plans():
    """The process-wide table, emptied and its counters zeroed: other
    tests' runs populate it."""
    PLANS.clear()
    PLANS.builds = PLANS.hits = 0
    yield PLANS
    PLANS.clear()


# ------------------------------------------------------------------ sealing --


class TestSealing:
    def test_mutation_after_compile_raises(self):
        circuit = adder_circuit()
        wire = circuit.input_buses["a"][0]
        plan = circuit.compile()
        assert circuit.sealed
        for mutate in (
            lambda: circuit.add_gate(GateOp.AND, wire, wire),
            lambda: circuit.xor(wire, circuit.input_buses["b"][0]),
            circuit.new_wire,
            lambda: circuit.add_input_bus("c", 4),
            lambda: circuit.mark_output_bus("again", [wire]),
        ):
            with pytest.raises(CircuitError, match="circuit is sealed"):
                mutate()
        # the gate list cannot be reached around the mutators either
        assert isinstance(circuit.gates, tuple)
        assert circuit.compile() is plan

    def test_plan_matches_the_uncompiled_walk(self):
        circuit = adder_circuit()
        walked = circuit.stats()
        schedule = layerize(circuit)
        plan = circuit.compile()
        assert plan.stats == walked == circuit.stats()
        assert schedule_fields(plan.schedule) == schedule_fields(schedule)

    def test_building_stays_pure_and_unsealed(self):
        program = EisenbergNoeProgram(FixedPointFormat(12, 6))
        first = program.build_update_circuit(2)
        second = program.build_update_circuit(2)
        assert first is not second
        assert not first.sealed
        first.add_gate(GateOp.NOT, first.one)  # still a builder's circuit

    def test_first_bitsliced_use_compiles_an_adhoc_circuit(self):
        circuit = adder_circuit()
        engine = BitslicedGMWEngine(3)
        rng = DeterministicRNG("adhoc")
        shares = {
            "a": engine.share_input(5, 8, rng),
            "b": engine.share_input(9, 8, rng),
        }
        assert engine.evaluate(circuit, shares, rng).reveal("sum") == 14
        assert circuit.sealed
        assert isinstance(circuit.compile().schedule.and_order, np.ndarray)

    def test_compile_builds_the_whole_plan_and_evaluation_builds_nothing(
        self, monkeypatch
    ):
        """The stage schedule and its index vectors are part of what
        ``compile()`` computes — nothing is left to the first batch (which,
        in a forked worker, would be every worker's first batch)."""
        circuit = adder_circuit()
        plan = circuit.compile()
        for stage in plan.schedule.stages:
            for vector in (stage.gather, stage.starts, stage.and_a, stage.and_b):
                assert isinstance(vector, np.ndarray) and vector.dtype == np.intp
        monkeypatch.setattr(circuit_module, "layerize", None)  # would raise if called
        engine = BitslicedGMWEngine(3)
        rng = DeterministicRNG("built")
        shares = {
            "a": engine.share_input(200, 8, rng),
            "b": engine.share_input(100, 8, rng),
        }
        assert engine.evaluate(circuit, shares, rng).reveal("sum") == 44
        assert circuit.compile() is plan

    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_plan_cost_model_and_scalar_transcript_agree(self, parties):
        """The offline phase sizes its pools from the plan: pin the plan's
        AND count to the bill's and to what the scalar engine did."""
        circuit = adder_circuit()
        engine = GMWEngine(parties)
        rng = DeterministicRNG("pin")
        shares = {
            "a": engine.share_input(3, 8, rng),
            "b": engine.share_input(4, 8, rng),
        }
        traffic = engine.evaluate(circuit, shares, rng).traffic
        plan = circuit.compile()
        predicted = bill_for([plan.stats], parties)
        assert plan.stats.and_gates == predicted.and_gates
        assert plan.stats.and_depth == predicted.and_rounds == traffic.rounds
        assert traffic.ot_count == plan.stats.and_gates * parties * (parties - 1) // 2
        builder = BitslicedGMWEngine(parties).pool_builder(circuit)
        assert builder.and_gates == plan.stats.and_gates


# ---------------------------------------------------------------- the table --


class TestSealedTableWeight:
    """The entries' total weight is a running total: a publish weighs the
    new value and whatever it evicts, never every entry."""

    @staticmethod
    def counted_table(bound):
        weighed = []

        def weigh(value):
            weighed.append(value)
            return value

        return SealedTable("test.weight", bound, weigh=weigh), weighed

    @pytest.mark.parametrize("entries", [1, 10, 100])
    def test_a_miss_weighs_only_the_new_value_and_what_it_evicts(self, entries):
        table, weighed = self.counted_table(bound=entries)
        for key in range(entries):
            table.get(key, lambda: 1)
        assert (len(table), table.weight) == (entries, entries)
        weighed.clear()
        table.get("below the bound", lambda: 0)  # weight 0: nothing to evict
        assert len(weighed) == 1
        weighed.clear()
        table.get("one over", lambda: 1)
        assert len(weighed) == 2  # the new value, the one entry evicted
        assert (len(table), table.weight) == (entries + 1, entries)
        assert 0 not in table._entries  # least recently used out first

    def test_the_total_follows_inserts_evictions_and_clear(self):
        table, _weighed = self.counted_table(bound=10)
        for key, weight in enumerate((4, 3, 2)):
            table.get(key, lambda weight=weight: weight)
        assert table.weight == 9
        table.get(0, lambda: 99)  # a hit: nothing weighed, nothing moves
        table.get("heavy", lambda: 6)  # evicts 1 and 2, the least recently used
        assert (list(table._entries), table.weight) == ([0, "heavy"], 10)
        table.get("too heavy", lambda: 11)  # above the bound: built, not kept
        assert table.weight == sum(table._entries.values()) == 10
        table.clear()
        assert (len(table), table.weight) == (0, 0)


class TestPlanTable:
    def test_equal_programs_share_one_sealed_circuit(self, fresh_plans):
        fmt = FixedPointFormat(12, 6)
        first = compiled_update_circuit(EisenbergNoeProgram(fmt), 2)
        again = compiled_update_circuit(EisenbergNoeProgram(FixedPointFormat(12, 6)), 2)
        assert first is again
        assert first.sealed
        assert (fresh_plans.builds, fresh_plans.hits) == (1, 1)

    def test_key_carries_everything_the_circuit_depends_on(self, fresh_plans):
        fmt = FixedPointFormat(12, 6)
        base = compiled_update_circuit(ElliottGolubJacksonProgram(fmt, 0.1), 2)
        others = [
            compiled_update_circuit(ElliottGolubJacksonProgram(fmt, 0.2), 2),
            compiled_update_circuit(
                ElliottGolubJacksonProgram(FixedPointFormat(14, 6), 0.1), 2
            ),
            compiled_update_circuit(ElliottGolubJacksonProgram(fmt, 0.1), 3),
            compiled_update_circuit(EisenbergNoeProgram(fmt), 2),
        ]
        assert all(other is not base for other in others)
        assert len({id(c) for c in others}) == len(others)
        assert fresh_plans.hits == 0

    def test_noise_circuits_key_on_their_scalars(self, fresh_plans):
        base = noised_sum_bits_circuit(4, 12, 0.9, 6, 8)
        assert noised_sum_bits_circuit(4, 12, 0.9, 6, 8) is base
        for args in (
            (4, 12, 0.91, 6, 8),  # alpha
            (4, 12, 0.9, 7, 8),  # magnitude bits
            (5, 12, 0.9, 6, 8),
            (4, 13, 0.9, 6, 8),
            (4, 12, 0.9, 6, 9),
        ):
            assert noised_sum_bits_circuit(*args) is not base
        assert partial_sum_circuit(3, 12, 14) is partial_sum_circuit(3, 12, 14)
        assert partial_sum_circuit(3, 12, 14) is not partial_sum_circuit(3, 12, 15)

    def test_token_is_the_result_caches_token(self):
        """One definition of "the same program" for both caches: whatever
        moves (or voids) the plan key moves (or voids) the run fingerprint."""
        resolved = (
            StressTest(_network())
            .program("elliott-golub-jackson")
            .engine("plaintext")
            .resolve(1)
        )
        program = resolved.program
        token, fingerprint = program_token(program), run_fingerprint(resolved)
        assert token[0].endswith("ElliottGolubJacksonProgram")
        assert token[1] == "elliott-golub-jackson"
        program.leverage_bound *= 2
        assert program_token(program) != token
        assert run_fingerprint(resolved) not in (None, fingerprint)
        program.hook = object()  # no stable content token
        with pytest.raises(Unfingerprintable):
            program_token(program)
        assert run_fingerprint(resolved) is None

    def test_untokenisable_program_is_built_every_time(self, fresh_plans):
        program = EisenbergNoeProgram(FixedPointFormat(12, 6))
        program.hook = object()  # no stable content token
        with pytest.raises(Unfingerprintable):
            program_token(program)
        first = compiled_update_circuit(program, 2)
        second = compiled_update_circuit(program, 2)
        assert first is not second
        assert first.sealed and second.sealed
        assert len(fresh_plans) == 0
        assert (fresh_plans.builds, fresh_plans.hits) == (2, 0)

    def test_least_recently_used_is_evicted(self):
        table = PlanTable()
        for index in range(PLAN_TABLE_SIZE):
            table.get(index, adder_circuit)
        oldest = table.get(0, adder_circuit)  # touch: 1 is now the oldest
        table.get("one more", adder_circuit)
        assert len(table) == PLAN_TABLE_SIZE
        assert table.get(0, adder_circuit) is oldest
        builds = table.builds
        table.get(1, adder_circuit)
        assert table.builds == builds + 1

    def test_racing_threads_publish_one_object(self):
        table = PlanTable()
        threads = 4
        barrier = threading.Barrier(threads)
        got = []

        def build() -> Circuit:
            barrier.wait(timeout=10)  # every thread misses before any publishes
            return adder_circuit()

        def worker() -> None:
            got.append(table.get("shared", build))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert len(got) == threads
        assert all(circuit is got[0] for circuit in got)
        assert len(table) == 1
        assert table.get("shared", build) is got[0]

    def test_counters_reach_the_recorder(self, fresh_plans):
        recorder = TraceRecorder()
        with recording(recorder):
            partial_sum_circuit(2, 8, 10)
            partial_sum_circuit(2, 8, 10)
            partial_sum_circuit(2, 8, 10)
        assert recorder.metrics.counters["mpc.plan.builds"] == 1.0
        assert recorder.metrics.counters["mpc.plan.hits"] == 2.0


    def test_counters_are_in_the_service_stats_body(self, fresh_plans):
        # runs execute in the service's worker processes, each with its own
        # table: the stats body is the sum of what they report back
        docs = [small_doc(f"plans-{seed}", seed=seed) for seed in (1, 2)]
        for doc in docs:
            build_session(validate_scenario(doc)).run(iterations=doc["iterations"])
        expected = {"builds": fresh_plans.builds, "hits": fresh_plans.hits}
        assert expected["builds"] > 0 and expected["hits"] > 0
        fresh_plans.clear()
        fresh_plans.builds = fresh_plans.hits = 0
        with ServiceHarness(max_workers=1) as h:
            with h.client() as c:
                assert c.stats().body["plans"] == {"builds": 0, "hits": 0}
                for doc in docs:
                    c.submit(doc).raise_for_status()
                assert c.stats().body["plans"] == expected
        assert (fresh_plans.builds, fresh_plans.hits) == (0, 0)


# ----------------------------------------------------------- runs and sweeps --


def _network(shock: float = 0.0) -> FinancialNetwork:
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0 - shock))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 2, 1.0)
    return net


def _secure_template() -> StressTest:
    return (
        StressTest(_network())
        .program("eisenberg-noe")
        .engine("secure", backend="bitsliced")
        .preset("demo")
        .privacy(epsilon=0.01)
    )


@pytest.fixture
def counted_builders(monkeypatch, fresh_plans):
    """Count every gate-by-gate build the pure builders perform."""
    counts = {"update": 0, "noise": 0}
    build_update = EisenbergNoeProgram.build_update_circuit
    build_noise = plan_module.build_noised_sum_bits_circuit

    def counting_update(self, degree_bound):
        counts["update"] += 1
        return build_update(self, degree_bound)

    def counting_noise(*args, **kwargs):
        counts["noise"] += 1
        return build_noise(*args, **kwargs)

    monkeypatch.setattr(EisenbergNoeProgram, "build_update_circuit", counting_update)
    monkeypatch.setattr(plan_module, "build_noised_sum_bits_circuit", counting_noise)
    return counts


class TestRunsSharePlans:
    def test_inline_sweep_builds_each_plan_once_and_replay_builds_none(
        self, counted_builders
    ):
        template = _secure_template()
        scenarios = [
            Scenario(name=f"shock-{i}", network=_network(i / 10.0), iterations=1)
            for i in range(8)
        ]
        accountant = PrivacyAccountant(epsilon_max=10.0)
        cold = template.run_many(scenarios, workers=1, accountant=accountant, cache=True)
        assert not cold.failures
        # one update circuit (one program, one degree bound) and one noise
        # circuit (one network size, one epsilon) for all eight runs
        assert counted_builders == {"update": 1, "noise": 1}

        again = template.run_many(scenarios, workers=1, accountant=accountant)
        assert not again.failures
        assert counted_builders == {"update": 1, "noise": 1}

    def test_all_hit_replay_compiles_nothing(self, counted_builders):
        template = _secure_template()
        scenarios = [Scenario(name="only", iterations=1)]
        cache = ScenarioCache()
        template.run_many(scenarios, cache=cache)
        PLANS.clear()
        before = (PLANS.builds, PLANS.hits, dict(counted_builders))
        warm = template.run_many(scenarios, cache=cache)
        assert all(outcome.cached for outcome in warm)
        assert (PLANS.builds, PLANS.hits, dict(counted_builders)) == before
        assert len(PLANS) == 0

    def test_forked_workers_inherit_the_parents_plans(self, counted_builders, monkeypatch):
        template = _secure_template()
        scenarios = [
            Scenario(name=f"shock-{i}", network=_network(i / 10.0), iterations=1)
            for i in range(4)
        ]
        # a worker that had to schedule a circuit itself would fail its
        # scenario: everything a batch evaluates is on the plan at fork time
        parent, schedules = os.getpid(), []

        def parent_only(circuit):
            assert os.getpid() == parent, "stage schedule built in a forked worker"
            schedules.append(circuit)
            return layerize(circuit)

        monkeypatch.setattr(circuit_module, "layerize", parent_only)
        batch = template.run_many(scenarios, workers=2)
        assert not batch.failures
        # built here, before the fork — and this process still holds them
        assert counted_builders == {"update": 1, "noise": 1}
        assert len(schedules) == len(PLANS) == 2

    def test_a_program_that_cannot_compile_fails_only_its_own_scenario(
        self, fresh_plans
    ):
        class Broken(EisenbergNoeProgram):
            def build_update_circuit(self, degree_bound):
                raise RuntimeError("no circuit for you")

        accountant = PrivacyAccountant(epsilon_max=1.0)
        batch = _secure_template().run_many(
            [
                Scenario(name="fine", iterations=1),
                Scenario(
                    name="broken",
                    program=Broken(DStressConfig.preset("demo").fmt),
                    graph=_network().to_en_graph(),
                    iterations=1,
                ),
            ],
            accountant=accountant,
        )
        assert batch.by_name("fine").ok
        assert "no circuit for you" in batch.by_name("broken").error
        assert accountant.spent == pytest.approx(0.01)
        assert accountant.reconcile().ok

    def test_plans_never_travel_with_a_payload(self, fresh_plans):
        template = _secure_template()
        payload = template.resolve(1)
        before = len(pickle.dumps(payload))
        result = template.run(iterations=1)
        assert len(PLANS) == 2  # the run compiled its update and noise circuits
        assert compiled_update_circuit(payload.program, payload.graph.degree_bound).sealed
        assert len(pickle.dumps(payload)) == before
        assert len(pickle.dumps(result)) == len(pickle.dumps(template.run(iterations=1)))

    def test_fixed_engine_reads_the_same_plan(self, counted_builders):
        template = _secure_template()
        template.run(iterations=1)
        template.clone().engine("fixed").run(iterations=1)
        assert counted_builders["update"] == 1

    def test_rng_position_is_the_same_after_scalar_and_bitsliced_runs(self):
        program = EisenbergNoeProgram(FixedPointFormat(12, 6))
        config = DStressConfig.preset("demo", fmt=program.fmt, seed=5)
        graph = _network().to_en_graph(degree_bound=2)
        tails = {}
        for backend in ("scalar", "bitsliced"):
            run = SecureRun(SecureDStressEngine(backend=backend), program, graph, config)
            state = RunState(engine="secure", program=program.name, windows=[1])
            run.setup(state)
            run.run_window(state, 1, first=True)
            pre_noise = run.aggregate(state)
            released = (run.noise(state, pre_noise, None, 1), run.pre_noise_raw, run.levels)
            tails[backend] = (released, run.rng.randbytes(32))
        assert tails["scalar"] == tails["bitsliced"]


# ------------------------------------------------------------------ kernels --


def pack_lane_axis_oracle(bits):
    """The shift-and-OR implementation the numpy kernel replaced."""
    bits = np.asarray(bits, dtype=np.uint64)
    count = bits.shape[-1]
    words = lane_words(count)
    padded = np.zeros(bits.shape[:-1] + (words * LANE_BITS,), dtype=np.uint64)
    padded[..., :count] = bits
    shaped = padded.reshape(bits.shape[:-1] + (words, LANE_BITS))
    shifts = np.arange(LANE_BITS, dtype=np.uint64)
    return np.bitwise_or.reduce(shaped << shifts, axis=-1)


def bus_bits_oracle(values, width):
    """The per-bit triple loop ``evaluate_batch`` used to pack input buses."""
    bits = np.zeros((width, len(values[0]), len(values)), dtype=np.uint8)
    for lane, shares in enumerate(values):
        for p, share in enumerate(shares):
            for position in range(width):
                bits[position, p, lane] = (int(share) >> position) & 1
    return bits


def bus_values_oracle(bits):
    """The per-bit triple loop ``_collect_results`` used to unpack outputs."""
    width, parties, lanes = bits.shape
    values = [[0] * parties for _ in range(lanes)]
    for lane in range(lanes):
        for position in range(width):
            for p in range(parties):
                values[lane][p] |= int(bits[position, p, lane]) << position
    return values


class TestKernels:
    @given(
        gates=st.integers(0, 3),
        parties=st.integers(1, 3),
        lanes=st.sampled_from([0, 1, 7, 8, 63, 64, 65, 130]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=scale(60), deadline=None)
    def test_pack_lane_axis_equals_the_shift_and_or_oracle(
        self, gates, parties, lanes, seed
    ):
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(gates, parties, parties, lanes), dtype=np.uint8
        )
        packed = pack_lane_axis(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (gates, parties, parties, lane_words(lanes))
        assert np.array_equal(packed, pack_lane_axis_oracle(bits))
        assert np.array_equal(unpack_lane_axis(packed, lanes), bits)
        tail = lanes % LANE_BITS
        if packed.size and tail:  # canonical form: bits past the last lane are 0
            assert not (packed[..., -1] >> np.uint64(tail)).any()

    @given(
        width=st.one_of(st.integers(1, 64), st.sampled_from([65, 96, 130])),
        parties=st.integers(1, 4),
        lanes=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=scale(80), deadline=None)
    def test_bus_kernels_equal_the_scalar_loops(self, width, parties, lanes, data):
        # shares may carry bits above the bus width; only the low ones count
        share = st.integers(0, (1 << (width + 3)) - 1)
        values = data.draw(
            st.lists(
                st.lists(share, min_size=parties, max_size=parties),
                min_size=lanes,
                max_size=lanes,
            )
        )
        # one bus in, the same wires out: the compiled plan's pieces
        circuit = Circuit()
        circuit.mark_output_bus("x", circuit.add_input_bus("x", width))
        schedule = circuit.compile().schedule
        bits = _input_planes(schedule.inputs, [{"x": shares} for shares in values])
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, bus_bits_oracle(values, width))
        mask = (1 << width) - 1
        unpacked = _output_values(schedule.outputs, bits)["x"]
        assert unpacked == bus_values_oracle(bits)
        assert unpacked == [[v & mask for v in shares] for shares in values]
        assert all(type(v) is int for shares in unpacked for v in shares)
