"""Tests for the §3.7 degree-bucket optimization in the secure engine
(``engine("secure", buckets=[...])``), under both GMW backends."""

from functools import lru_cache

import pytest

from conftest import execute

from repro import StressTest
from repro.api.cache import run_fingerprint
from repro.api.engines import _SecureCore
from repro.core.config import DStressConfig
from repro.core.secure_engine import run_bill
from repro.crypto.group import TOY_GROUP_64
from repro.exceptions import ConfigurationError
from repro.finance import Bank, EisenbergNoeProgram, FinancialNetwork
from repro.mpc.bitslice import HAVE_NUMPY
from repro.mpc.fixedpoint import FixedPointFormat

FMT = FixedPointFormat(16, 8)
PROGRAM = EisenbergNoeProgram(FMT)

BACKENDS = (
    "scalar",
    pytest.param(
        "bitsliced",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed"),
    ),
)


def hub_network() -> FinancialNetwork:
    """One hub bank owing three others, which owe nothing: degrees 3/1."""
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=1.0))  # hub, under-reserved
    for i in (1, 2, 3):
        net.add_bank(Bank(i, cash=1.0))
        net.add_debt(0, i, 2.0)
    net.add_bank(Bank(4, cash=0.2))
    net.add_debt(4, 0, 1.0)
    return net


GRAPH = hub_network().to_en_graph(degree_bound=3)


def config(**overrides):
    defaults = dict(
        collusion_bound=2,
        fmt=FMT,
        group=TOY_GROUP_64,
        output_epsilon=0.5,
        seed=13,
    )
    defaults.update(overrides)
    return DStressConfig(**defaults)


@lru_cache(maxsize=None)
def secure_run(iterations, buckets=None, backend="scalar", pad_transfers=False):
    """One secure run on the hub graph and the lifecycle core that ran it."""
    seen = []
    setup = _SecureCore.setup

    def spy(core, state):
        setup(core, state)
        seen.append(core)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_SecureCore, "setup", spy)
        result = execute(
            "secure",
            PROGRAM,
            GRAPH,
            iterations,
            config(pad_transfers=pad_transfers),
            buckets=buckets,
            backend=backend,
        )
    (core,) = seen
    return result, core


class TestBuckets:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bucketed_output_matches_uniform(self, backend):
        """Buckets change cost, never the computed value."""
        uniform, _ = secure_run(3, backend=backend)
        bucketed, _ = secure_run(3, (1, 3), backend)
        assert bucketed.pre_noise_aggregate == uniform.pre_noise_aggregate
        oracle = execute("fixed", PROGRAM, GRAPH, 3)
        assert bucketed.pre_noise_aggregate == pytest.approx(oracle.aggregate, abs=1e-12)

    @pytest.mark.parametrize("pad_transfers", [False, True])
    def test_backends_release_identical_bits(self, pad_transfers):
        if not HAVE_NUMPY:
            pytest.skip("numpy not installed")
        scalar, _ = secure_run(2, (1, 3), "scalar", pad_transfers)
        bitsliced, _ = secure_run(2, (1, 3), "bitsliced", pad_transfers)
        assert bitsliced.aggregate == scalar.aggregate
        assert bitsliced.noise_raw == scalar.noise_raw
        assert bitsliced.trajectory == scalar.trajectory
        assert bitsliced.extras == scalar.extras
        assert bitsliced.traffic.summary() == scalar.traffic.summary()

    @pytest.mark.parametrize("pad_transfers", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_equal_the_bill(self, backend, pad_transfers):
        """OTs, transfers and AND gates are what the bill prices at each
        vertex's bucket bound."""
        result, core = secure_run(2, (1, 3), backend, pad_transfers)
        ctx = core.ctx
        assert set(ctx.vertex_bound.values()) == {1, 3}
        bill = run_bill(PROGRAM, core.config, GRAPH, 2, vertex_bound=ctx.vertex_bound)
        assert result.extras["gmw_ot_count"] == ctx.total_ots == bill.ots
        assert result.extras["transfer_count"] == ctx.transfer_count == bill.transfers
        assert ctx.circuit_and_gates == bill.and_gates

    def test_buckets_reduce_ot_count(self):
        """Low-degree vertices run the small circuit: fewer OTs overall."""
        uniform, _ = secure_run(2)
        bucketed, _ = secure_run(2, (1, 3))
        # The EN circuit's divider is degree-independent, so per-vertex
        # savings are bounded; 4 of 5 vertices on the small circuit still
        # shaves ~30% here (and far more at the paper's D=100).
        assert bucketed.extras["gmw_ot_count"] < 0.75 * uniform.extras["gmw_ot_count"]

    def test_largest_bucket_must_cover_max_degree(self):
        with pytest.raises(ConfigurationError):
            execute("secure", PROGRAM, GRAPH, 1, config(), buckets=[1, 2])

    def test_invalid_bucket_values(self):
        with pytest.raises(ConfigurationError):
            execute("secure", PROGRAM, GRAPH, 1, config(), buckets=[0, 3])

    def test_single_bucket_equals_uniform(self):
        uniform, _ = secure_run(2)
        single, _ = secure_run(2, (3,))
        assert single.extras["gmw_ot_count"] == uniform.extras["gmw_ot_count"]
        assert single.pre_noise_aggregate == uniform.pre_noise_aggregate

    def test_buckets_with_padded_transfers(self):
        """Padding interacts with buckets: each vertex pads to its own
        bucket bound, not the global one."""
        result, core = secure_run(1, (1, 3), pad_transfers=True)
        bill = run_bill(PROGRAM, core.config, GRAPH, 1, vertex_bound=core.ctx.vertex_bound)
        # the hub pads to 3, every other vertex to 1
        assert result.extras["transfer_count"] == bill.transfers == 3 + 4 * 1
        oracle = execute("fixed", PROGRAM, GRAPH, 1)
        assert result.pre_noise_aggregate == pytest.approx(oracle.aggregate, abs=1e-12)

    def test_buckets_are_part_of_the_fingerprint(self):
        session = StressTest(GRAPH).program(PROGRAM).configure(config())
        uniform = session.clone().engine("secure").resolve(2)
        bucketed = session.clone().engine("secure", buckets=[1, 3]).resolve(2)
        assert run_fingerprint(uniform) != run_fingerprint(bucketed)
