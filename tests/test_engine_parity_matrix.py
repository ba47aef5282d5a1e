"""Cross-engine parity matrix: the correctness bar for every backend.

Engines (``plaintext``, ``fixed``, ``async`` at 1/4/16 tasks) x programs (``eisenberg-noe``,
``elliott-golub-jackson``) x graph generators (core-periphery,
scale-free), all under a fixed seed:

* every float-mode backend (``plaintext``, ``async@t``) must produce a
  **bit-identical** pre-noise trajectory — not approximately equal: float
  addition is not associative, so bit-identity proves that conveying a
  loop's rounds over a bus leaves the reference evaluation order alone.
  The memory bus drains a window in place, so the bus rows run over the
  zero-delay buses that keep the scheduler (:data:`BUSES`);
* the ``fixed`` backend must be bit-reproducible run-to-run and stay
  within quantization distance of the float oracle;
* a computation step is one pass over every vertex in both clear
  arithmetics (one circuit walk, one numpy float step), and must equal
  the per-vertex update it replaces, state for state and bit for bit;
* the **secure column**: ``secure`` scheduled over those buses and the
  ``bitsliced`` backend (numpy lane GMW with the offline/online phase
  split, drained and scheduled) must release outputs **bit-identical**
  to ``secure`` drained on the memory bus — noise and all — and meter
  identical per-link traffic (the per-pair ``GMWTraffic.pair_bits``
  attribution lands on directed links) in every cell. The secure cells
  run on smaller graphs (full MPC per vertex per round) under the demo
  preset, but still sweep both programs and both graph generators;
* every secure run's counters — OTs, transfers, AND gates per step and
  metered exponentiations — equal its bill
  (:func:`~repro.core.secure_engine.run_bill`) exactly, and so does the
  OT backend's own record, which the lanes book in one update per
  batch.

Any future backend (remote, ...) earns its registry entry by joining
this matrix.
"""

from contextlib import contextmanager

import pytest

from repro import StressTest
from repro.core import engine as engine_module
from repro.core.engine import plaintext_loop
from repro.core.program import VertexProgram
from repro.core.rounds import ColumnLoop, RoundLoop, RoundScheduler, sequential_superstep
from repro.core.secure_engine import SecureRun, run_bill
from repro.core.transport import (
    FaultInjectingTransport,
    InMemoryTransport,
    SimulatedWanTransport,
)
from repro.mpc.bitslice import HAVE_NUMPY
from repro.crypto.rng import DeterministicRNG
from repro.finance import (
    EisenbergNoeProgram,
    ElliottGolubJacksonProgram,
    apply_shock,
    uniform_shock,
)
from repro.graphgen import (
    CorePeripheryParams,
    ScaleFreeParams,
    core_periphery_network,
    scale_free_network,
)

SEED = 123
ITERATIONS = 4
#: generous bound on |float - fixed| per trajectory point: quantization in
#: fmt(16, 8) accumulates ~0.1 on these 10-bank networks (measured).
QUANTIZATION_TOLERANCE = 0.5

PROGRAMS = ("eisenberg-noe", "elliott-golub-jackson")
#: Zero-delay buses that keep the scheduler, built fresh for every run
#: (the memory bus drains a window in place): a non-realtime WAN and a
#: chaos wrapper with no faults over the memory bus.
BUSES = {
    "wan": lambda: SimulatedWanTransport(realtime=False),
    "faulty": FaultInjectingTransport,
}
FLOAT_ENGINES = (
    ("plaintext", {}),
    ("async", {"tasks": 1, "transport": "wan"}),
    ("async", {"tasks": 4, "transport": "wan"}),
    ("async", {"tasks": 16, "transport": "wan"}),
    ("async", {"tasks": 1, "transport": "faulty"}),
    ("async", {"tasks": 4, "transport": "faulty"}),
    ("async", {"tasks": 16, "transport": "faulty"}),
)


def _on_bus(options):
    """``options`` with a :data:`BUSES` name replaced by a fresh bus."""
    if options.get("transport") in BUSES:
        return {**options, "transport": BUSES[options["transport"]]()}
    return options


def _core_periphery():
    net = core_periphery_network(
        CorePeripheryParams(num_banks=10, core_size=3), DeterministicRNG(11)
    )
    return apply_shock(net, uniform_shock(range(0, 3), 0.9, "core-shock"))


def _scale_free():
    net = scale_free_network(
        ScaleFreeParams(num_banks=10, attach_links=2, degree_cap=4),
        DeterministicRNG(12),
    )
    return apply_shock(net, uniform_shock(range(0, 3), 0.9, "hub-shock"))


GRAPHS = {"core-periphery": _core_periphery, "scale-free": _scale_free}


@pytest.fixture(scope="module")
def networks():
    return {name: build() for name, build in GRAPHS.items()}


@pytest.fixture(scope="module")
def float_references(networks):
    """Per (program, graph) cell: the plaintext trajectory all float-mode
    engines must reproduce bit-for-bit."""
    references = {}
    for program in PROGRAMS:
        for graph_name, network in networks.items():
            run = (
                StressTest(network)
                .program(program)
                .engine("plaintext")
                .seed(SEED)
                .run(iterations=ITERATIONS)
            )
            assert run.trajectory[-1] != 0.0, "shock produced no dynamics"
            references[(program, graph_name)] = run
    return references


@pytest.mark.parametrize("engine_name,options", FLOAT_ENGINES)
@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_float_family_trajectories_bit_identical(
    networks, float_references, engine_name, options, program, graph_name
):
    reference = float_references[(program, graph_name)]
    result = (
        StressTest(networks[graph_name])
        .program(program)
        .engine(engine_name, **_on_bus(options))
        .seed(SEED)
        .run(iterations=ITERATIONS)
    )
    assert result.trajectory == reference.trajectory
    assert result.aggregate == reference.aggregate
    assert result.final_states == reference.final_states


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_fixed_engine_reproducible_and_near_float(
    networks, float_references, program, graph_name
):
    template = (
        StressTest(networks[graph_name]).program(program).engine("fixed").seed(SEED)
    )
    first = template.clone().run(iterations=ITERATIONS)
    second = template.clone().run(iterations=ITERATIONS)
    # bit-reproducible under the fixed seed
    assert first.trajectory == second.trajectory
    assert first.aggregate == second.aggregate
    # within quantization distance of the float oracle, pointwise
    reference = float_references[(program, graph_name)]
    assert len(first.trajectory) == len(reference.trajectory)
    for fixed_point, float_point in zip(first.trajectory, reference.trajectory):
        assert abs(fixed_point - float_point) <= QUANTIZATION_TOLERANCE


class _PerVertexEN(EisenbergNoeProgram):
    float_update_many = VertexProgram.float_update_many


class _PerVertexEGJ(ElliottGolubJacksonProgram):
    float_update_many = VertexProgram.float_update_many


def _program_and_graph(name, network, columns=True):
    """``name``'s program (without its ``float_update_many`` unless
    ``columns``) and its graph of ``network``."""
    if name == "eisenberg-noe":
        program = EisenbergNoeProgram() if columns else _PerVertexEN()
        return program, network.to_en_graph()
    program = ElliottGolubJacksonProgram() if columns else _PerVertexEGJ()
    return program, network.to_egj_graph()


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_fixed_superstep_is_the_per_vertex_circuit_update(networks, program, graph_name):
    """The ``fixed`` engine evaluates a computation step as one walk of
    the update circuit, a lane per vertex; vertex by vertex through
    ``circuit_update`` — and the batched loop's windows conveyed over a
    bus — must leave the same states, outboxes and trajectory."""
    program, graph = _program_and_graph(program, networks[graph_name])
    batched = plaintext_loop(program, graph, fixed=True)
    arithmetic = batched.arithmetic
    assert batched.superstep.__qualname__.startswith("batched_superstep")
    one_by_one = RoundLoop(
        graph,
        arithmetic,
        superstep=sequential_superstep(graph.vertex_ids, arithmetic.update),
    )
    conveyed = plaintext_loop(program, graph, fixed=True)
    batched.advance(ITERATIONS)
    one_by_one.advance(ITERATIONS)
    _advance_on_memory_bus(conveyed, ITERATIONS)
    assert batched.trajectory[-1] != 0.0, "shock produced no dynamics"
    for other in (one_by_one, conveyed):
        assert other.states == batched.states
        assert list(other.states) == list(batched.states)  # summation order
        assert other.pending == batched.pending
        assert other.trajectory == batched.trajectory


def _advance_on_memory_bus(loop, rounds):
    """``loop.window`` conveyed over a fresh in-memory bus, opened as an
    engine opens it: once, on the loop's graph."""
    bus = InMemoryTransport()
    bus.open(loop.graph)
    bus.run(RoundScheduler(bus, max_tasks=4).run(loop.window(rounds)))


def _bits(value):
    """``value`` with every float as ``float.hex`` and every dict as its
    item list: equal only if bit-identical (``-0.0 != 0.0``) in key order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _pending_rows(graph, loop):
    """A loop's pending outboxes per vertex, in id order (a ``ColumnLoop``
    keeps them as one ``D x V`` array)."""
    if isinstance(loop, ColumnLoop):
        return dict(zip(graph.vertex_ids, loop.pending.T.tolist()))
    return {vid: loop.pending[vid] for vid in graph.vertex_ids}


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_float_superstep_is_the_per_vertex_float_update(
    networks, monkeypatch, program, graph_name
):
    """The float engine takes a computation step as one numpy pass over
    every vertex's registers (``float_update_many``). Vertex by vertex
    through ``float_update`` — the per-vertex loop, the loop
    ``plaintext_loop`` builds without numpy and the one it builds for a
    program without ``float_update_many`` — must leave the same final
    states (bits and key order), pending outboxes and trajectory; so must
    the column loop's windows conveyed over a bus, and a run split into
    two windows."""
    network = networks[graph_name]
    per_vertex_program, _ = _program_and_graph(program, network, columns=False)
    program, graph = _program_and_graph(program, network)
    column = plaintext_loop(program, graph)
    assert isinstance(column, ColumnLoop)
    windowed = plaintext_loop(program, graph)
    no_override = plaintext_loop(per_vertex_program, graph)
    arithmetic = column.arithmetic
    one_by_one = RoundLoop(
        graph, arithmetic, sequential_superstep(graph.vertex_ids, arithmetic.update)
    )
    conveyed = plaintext_loop(program, graph)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "np", None)
        no_numpy = plaintext_loop(program, graph)
    for loop in (no_numpy, no_override):
        assert type(loop) is RoundLoop
    one_by_one.advance(ITERATIONS)
    column.advance(ITERATIONS)
    no_override.advance(ITERATIONS)
    no_numpy.advance(ITERATIONS)
    _advance_on_memory_bus(conveyed, ITERATIONS)
    windowed.advance(1)
    windowed.advance(ITERATIONS - 1)
    assert one_by_one.trajectory[-1] != 0.0, "shock produced no dynamics"
    expected = (
        _bits(one_by_one.rows()),
        _bits(_pending_rows(graph, one_by_one)),
        _bits(one_by_one.trajectory),
    )
    for loop in (column, no_override, conveyed, no_numpy, windowed):
        assert (
            _bits(loop.rows()),
            _bits(_pending_rows(graph, loop)),
            _bits(loop.trajectory),
        ) == expected


# ------------------------------------------------------- the secure column --

#: Secure cells run full MPC per vertex per round, so they sweep smaller
#: graphs than the float family — but still both programs x both
#: generators, and the identity bar is *released* outputs, noise included.
SECURE_ITERATIONS = 2


def _small_core_periphery():
    net = core_periphery_network(
        CorePeripheryParams(num_banks=6, core_size=2), DeterministicRNG(11)
    )
    return apply_shock(net, uniform_shock(range(0, 2), 0.9, "core-shock"))


def _small_scale_free():
    net = scale_free_network(
        ScaleFreeParams(num_banks=6, attach_links=1, degree_cap=3),
        DeterministicRNG(12),
    )
    return apply_shock(net, uniform_shock(range(0, 2), 0.9, "hub-shock"))


SECURE_GRAPHS = {
    "core-periphery": _small_core_periphery,
    "scale-free": _small_scale_free,
}


@pytest.fixture(scope="module")
def secure_networks():
    return {name: build() for name, build in SECURE_GRAPHS.items()}


@contextmanager
def secure_cores():
    """Collect every secure lifecycle core run inside the block, with the
    transfers its OT backend recorded by the end of the rounds (the
    aggregation tree then evaluates more circuits on the same backend)."""
    seen = []
    aggregate = SecureRun.aggregate

    def spy(core, state):
        seen.append((core, core.gmw.ot.stats.transfers))
        return aggregate(core, state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SecureRun, "aggregate", spy)
        yield seen


def assert_counters_equal_bill(result, seen):
    """One secure run's counters against its bill, line by line."""
    ((core, ot_transfers),) = seen
    bill = run_bill(core.program, core.config, core.graph, SECURE_ITERATIONS)
    assert bill.ots > 0 and bill.transfers > 0
    assert result.extras["gmw_ot_count"] == core.total_ots == ot_transfers == bill.ots
    assert result.extras["transfer_count"] == core.transfer_count == bill.transfers
    assert core.circuit_and_gates == bill.and_gates
    assert result.traffic.summary()["total_exponentiations"] == bill.exponentiations


@pytest.fixture(scope="module")
def secure_references(secure_networks):
    """Per (program, graph) cell: the sequential secure release every
    transport-scheduled run must reproduce bit-for-bit, with the core
    that ran it."""
    references = {}
    for program in PROGRAMS:
        for graph_name, network in secure_networks.items():
            with secure_cores() as seen:
                run = (
                    StressTest(network)
                    .program(program)
                    .engine("secure")
                    .preset("demo")
                    .run(iterations=SECURE_ITERATIONS)
                )
            references[(program, graph_name)] = (run, seen)
    return references


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(SECURE_GRAPHS))
def test_secure_scalar_counters_equal_bill(secure_references, program, graph_name):
    assert_counters_equal_bill(*secure_references[(program, graph_name)])


_needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: Every secure variant must reproduce the drained scalar release.
SECURE_VARIANTS = (
    pytest.param("secure", {"tasks": 4, "transport": "wan"}, id="secure-wan"),
    pytest.param("secure", {"tasks": 4, "transport": "faulty"}, id="secure-faulty"),
    pytest.param(
        "secure", {"backend": "bitsliced"}, id="secure-bitsliced", marks=_needs_numpy
    ),
    pytest.param(
        "secure",
        {"tasks": 4, "backend": "bitsliced", "transport": "wan"},
        id="secure-wan-bitsliced",
        marks=_needs_numpy,
    ),
    pytest.param(
        "secure",
        {"tasks": 4, "backend": "bitsliced", "transport": "faulty"},
        id="secure-faulty-bitsliced",
        marks=_needs_numpy,
    ),
)


@pytest.mark.parametrize("engine_name,options", SECURE_VARIANTS)
@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(SECURE_GRAPHS))
def test_secure_variants_release_bit_identical(
    secure_networks, secure_references, engine_name, options, program, graph_name
):
    reference, _ = secure_references[(program, graph_name)]
    with secure_cores() as seen:
        result = (
            StressTest(secure_networks[graph_name])
            .program(program)
            .engine(engine_name, **_on_bus(options))
            .preset("demo")
            .run(iterations=SECURE_ITERATIONS)
        )
    assert_counters_equal_bill(result, seen)
    # the release itself: aggregate includes the in-MPC sampled noise
    assert result.aggregate == reference.aggregate
    assert result.noise_raw == reference.noise_raw
    assert result.pre_noise_aggregate == reference.pre_noise_aggregate
    assert result.trajectory == reference.trajectory
    # metered traffic: per-link GMW byte attribution (GMWTraffic.pair_bits
    # landing on directed links) and the OT totals, bit-identical
    assert result.traffic.links() == reference.traffic.links()
    assert result.extras["gmw_ot_count"] == reference.extras["gmw_ot_count"]
    assert result.extras["transfer_count"] == reference.extras["transfer_count"]
