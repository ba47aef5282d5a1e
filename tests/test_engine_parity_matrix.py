"""Cross-engine parity matrix: the correctness bar for every backend.

Engines (``plaintext``, ``fixed``, ``sharded`` at 1/2/3 shards,
``async`` at 1/4/16 tasks) x programs (``eisenberg-noe``,
``elliott-golub-jackson``) x graph generators (core-periphery,
scale-free), all under a fixed seed:

* every float-mode backend (``plaintext``, ``sharded@k``, ``async@t``)
  must produce a **bit-identical** pre-noise trajectory — not
  approximately equal: float addition is not associative, so bit-identity
  proves the sharded barrier merge and the async engine's
  completion-order-independent state assembly both preserve the reference
  evaluation order;
* the ``fixed`` backend must be bit-reproducible run-to-run and stay
  within quantization distance of the float oracle;
* the **secure column**: ``secure-async`` (the protocol scheduled over
  the transport bus) and the ``bitsliced`` backend (numpy lane GMW with
  the offline/online phase split, under both drivers) must release
  outputs **bit-identical** to ``secure`` — noise and all — and meter
  identical per-link traffic (the per-pair ``GMWTraffic.pair_bits``
  attribution lands on directed links) in every cell. The secure cells
  run on smaller graphs (full MPC per vertex per round) under the demo
  preset, but still sweep both programs and both graph generators.

Any future backend (remote, ...) earns its registry entry by joining
this matrix.
"""

import pytest

from repro import StressTest
from repro.api.async_engine import run_coroutine
from repro.core.engine import PlaintextEngine
from repro.core.rounds import RoundLoop, sequential_superstep
from repro.core.transport import InMemoryTransport
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
FLOAT_ENGINES = (
    ("plaintext", {}),
    ("sharded", {"shards": 1}),
    ("sharded", {"shards": 2}),
    ("sharded", {"shards": 3}),
    ("async", {"tasks": 1}),
    ("async", {"tasks": 4}),
    ("async", {"tasks": 16}),
)


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
        .engine(engine_name, **options)
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


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_fixed_superstep_is_the_per_vertex_circuit_update(networks, program, graph_name):
    """The ``fixed`` engine evaluates a computation step as one walk of
    the update circuit, a lane per vertex; vertex by vertex through
    ``circuit_update`` — sequentially, and as async pipelines over a bus —
    must leave the same states, outboxes and trajectory."""
    network = networks[graph_name]
    if program == "eisenberg-noe":
        engine, graph = PlaintextEngine(EisenbergNoeProgram()), network.to_en_graph()
    else:
        engine, graph = PlaintextEngine(ElliottGolubJacksonProgram()), network.to_egj_graph()
    batched = engine.start(graph, fixed=True)
    arithmetic = batched.arithmetic
    assert batched.superstep.__qualname__.startswith("batched_superstep")
    one_by_one = RoundLoop(
        graph,
        arithmetic,
        superstep=sequential_superstep(graph.vertex_ids, arithmetic.update),
    )
    pipelined = engine.start(graph, fixed=True)
    batched.advance(ITERATIONS)
    one_by_one.advance(ITERATIONS)
    run_coroutine(pipelined.advance_async(ITERATIONS, InMemoryTransport(), max_tasks=4))
    assert batched.trajectory[-1] != 0.0, "shock produced no dynamics"
    for other in (one_by_one, pipelined):
        assert other.states == batched.states
        assert list(other.states) == list(batched.states)  # summation order
        assert other.pending == batched.pending
        assert other.trajectory == batched.trajectory


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


@pytest.fixture(scope="module")
def secure_references(secure_networks):
    """Per (program, graph) cell: the sequential secure release every
    transport-scheduled run must reproduce bit-for-bit."""
    references = {}
    for program in PROGRAMS:
        for graph_name, network in secure_networks.items():
            references[(program, graph_name)] = (
                StressTest(network)
                .program(program)
                .engine("secure")
                .preset("demo")
                .run(iterations=SECURE_ITERATIONS)
            )
    return references


_needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: Every secure variant must reproduce the sequential scalar release.
SECURE_VARIANTS = (
    pytest.param("secure-async", {"tasks": 4}, id="secure-async"),
    pytest.param(
        "secure", {"backend": "bitsliced"}, id="secure-bitsliced", marks=_needs_numpy
    ),
    pytest.param(
        "secure-async",
        {"tasks": 4, "backend": "bitsliced"},
        id="secure-async-bitsliced",
        marks=_needs_numpy,
    ),
)


@pytest.mark.parametrize("engine_name,options", SECURE_VARIANTS)
@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("graph_name", sorted(SECURE_GRAPHS))
def test_secure_variants_release_bit_identical(
    secure_networks, secure_references, engine_name, options, program, graph_name
):
    reference = secure_references[(program, graph_name)]
    result = (
        StressTest(secure_networks[graph_name])
        .program(program)
        .engine(engine_name, **options)
        .preset("demo")
        .run(iterations=SECURE_ITERATIONS)
    )
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
