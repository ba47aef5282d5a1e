"""Integration tests: the full DStress stack against the plaintext oracle.

These run the complete protocol — TP setup, share initialization, GMW
computation steps, ElGamal transfer communication steps, MPC aggregation
and noising — on small networks, and check:

* correctness: the pre-noise output equals the clear fixed-point engine's
  output bit for bit;
* privacy structure: noise is actually applied, budgets are enforced,
  transcript shapes don't depend on secrets.
"""

import math

import pytest

from repro.core.config import DStressConfig
from repro.core.engine import PlaintextEngine
from repro.core.secure_engine import SecureEngine
from repro.crypto.group import TOY_GROUP_64
from repro.exceptions import ConfigurationError, PrivacyBudgetExceeded
from repro.finance import EisenbergNoeProgram, ElliottGolubJacksonProgram
from repro.mpc.fixedpoint import FixedPointFormat
from repro.privacy.budget import PrivacyAccountant


def make_config(**overrides):
    defaults = dict(
        collusion_bound=2,
        fmt=FixedPointFormat(16, 8),
        group=TOY_GROUP_64,
        dlog_half_width=300,
        edge_noise_alpha=0.4,
        output_epsilon=0.5,
        seed=7,
    )
    defaults.update(overrides)
    return DStressConfig(**defaults)


@pytest.fixture(scope="module")
def en_run(request):
    """One shared EN secure run (expensive: full MPC per vertex step)."""
    from repro.finance import Bank, FinancialNetwork

    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_bank(Bank(3, cash=0.5))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    net.add_debt(2, 3, 1.0)

    fmt = FixedPointFormat(16, 8)
    program = EisenbergNoeProgram(fmt)
    graph = net.to_en_graph(degree_bound=2)
    config = make_config()
    result = SecureEngine(program, config).run(graph, iterations=4)
    oracle = PlaintextEngine(program).run_fixed(graph, iterations=4)
    return result, oracle, graph, config


class TestCorrectness:
    def test_pre_noise_output_matches_oracle(self, en_run):
        result, oracle, _, _ = en_run
        assert result.pre_noise_output == pytest.approx(oracle.aggregate, abs=1e-12)

    def test_noisy_output_is_pre_noise_plus_noise(self, en_run):
        result, _, _, _ = en_run
        fmt = FixedPointFormat(16, 8)
        assert result.noisy_output == pytest.approx(
            result.pre_noise_output + result.noise_raw * fmt.resolution, abs=1e-12
        )

    def test_egj_secure_matches_oracle(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        config = make_config()
        result = SecureEngine(program, config).run(graph, iterations=3)
        oracle = PlaintextEngine(program).run_fixed(graph, iterations=3)
        assert result.pre_noise_output == pytest.approx(oracle.aggregate, abs=1e-12)

    def test_transfer_count_is_edges_times_iterations(self, en_run):
        result, _, graph, _ = en_run
        assert result.transfer_count == graph.num_edges * result.iterations

    def test_deterministic_given_seed(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        a = SecureEngine(program, make_config(seed=3)).run(graph, iterations=2)
        b = SecureEngine(program, make_config(seed=3)).run(graph, iterations=2)
        assert a.noisy_output == b.noisy_output

    def test_different_seeds_different_noise(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        a = SecureEngine(program, make_config(seed=1)).run(graph, iterations=2)
        b = SecureEngine(program, make_config(seed=2)).run(graph, iterations=2)
        assert a.pre_noise_output == b.pre_noise_output
        assert a.noise_raw != b.noise_raw


class TestPrivacyStructure:
    def test_noise_scale_plausible(self, en_run):
        """The output noise follows the configured geometric scale."""
        result, _, _, config = en_run
        sensitivity = EisenbergNoeProgram(config.fmt).sensitivity
        scale_lsb = sensitivity / (config.output_epsilon * config.fmt.resolution)
        # 10 scale-lengths is a ~e^-10 tail event.
        assert abs(result.noise_raw) < 10 * scale_lsb

    def test_budget_charged(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        accountant = PrivacyAccountant(epsilon_max=1.0)
        SecureEngine(program, make_config()).run(graph, iterations=1, accountant=accountant)
        assert accountant.spent == pytest.approx(0.5)

    def test_budget_exhaustion_blocks_run(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        accountant = PrivacyAccountant(epsilon_max=0.6)
        engine = SecureEngine(program, make_config())
        engine.run(graph, iterations=1, accountant=accountant)
        with pytest.raises(PrivacyBudgetExceeded):
            engine.run(graph, iterations=1, accountant=accountant)

    def test_failed_run_refunds_its_charge(self, small_egj_network, monkeypatch):
        """A direct run that dies mid-round published nothing, so it must
        leave nothing on the books (it used to keep the epsilon)."""
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        accountant = PrivacyAccountant(epsilon_max=1.0)
        engine = SecureEngine(program, make_config())

        def broken_transfer(*args, **kwargs):
            raise RuntimeError("transfer died mid-round")

        monkeypatch.setattr(engine.transfer, "execute", broken_transfer)
        with pytest.raises(RuntimeError, match="mid-round"):
            engine.run(graph, iterations=1, accountant=accountant)
        assert accountant.spent == 0.0
        assert accountant.reconcile().ok
        assert [entry.kind for entry in accountant.ledger] == ["charge", "refund"]

    def test_edge_epsilon_reported(self, en_run):
        result, _, _, config = en_run
        delta = config.collusion_bound + 1
        eps_transfer = -math.log(config.edge_noise_alpha) * delta / 2
        expected = config.collusion_bound * delta * config.fmt.total_bits * eps_transfer
        assert result.edge_epsilon_per_iteration == pytest.approx(expected)

    def test_traffic_metered_for_all_nodes(self, en_run):
        result, _, graph, _ = en_run
        assert set(result.traffic.node_ids) == set(graph.vertex_ids)
        for node in graph.vertex_ids:
            assert result.traffic.node(node).bytes_sent > 0

    def test_phases_recorded(self, en_run):
        result, _, _, _ = en_run
        for phase in ("setup", "initialization", "computation", "communication", "aggregation"):
            assert phase in result.phases.seconds


class TestConfiguration:
    def test_format_mismatch_rejected(self):
        program = EisenbergNoeProgram(FixedPointFormat(16, 8))
        config = make_config(fmt=FixedPointFormat(12, 6))
        with pytest.raises(ConfigurationError):
            SecureEngine(program, config)

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            make_config(collusion_bound=0)
        with pytest.raises(ConfigurationError):
            make_config(output_epsilon=0)
        with pytest.raises(ConfigurationError):
            make_config(edge_noise_alpha=1.0)
        with pytest.raises(ConfigurationError):
            make_config(dlog_half_width=1)

    def test_noise_alpha_for(self):
        config = make_config()
        alpha = config.noise_alpha_for(10.0)
        assert alpha == pytest.approx(math.exp(-0.5 * (1 / 256) / 10.0))
        with pytest.raises(ConfigurationError):
            config.noise_alpha_for(0.0)

    def test_magnitude_bits_cover_scale(self):
        config = make_config()
        bits = config.noise_magnitude_bits_for(10.0)
        scale_lsb = 10.0 / (0.5 / 256)
        assert (1 << bits) >= 8 * scale_lsb


class TestBeaverMode:
    def test_beaver_backend_matches(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        ot_run = SecureEngine(program, make_config(seed=9)).run(graph, iterations=2)
        beaver_run = SecureEngine(program, make_config(seed=9, gmw_mode="beaver")).run(
            graph, iterations=2
        )
        assert ot_run.pre_noise_output == beaver_run.pre_noise_output


class TestHierarchicalAggregation:
    def test_tree_used_when_fanout_exceeded(self, small_en_network):
        fmt = FixedPointFormat(16, 8)
        program = EisenbergNoeProgram(fmt)
        graph = small_en_network.to_en_graph(degree_bound=2)
        flat = SecureEngine(program, make_config(aggregation_fanout=100)).run(
            graph, iterations=1
        )
        tree = SecureEngine(program, make_config(aggregation_fanout=2)).run(
            graph, iterations=1
        )
        assert flat.aggregation_levels == 1
        assert tree.aggregation_levels == 2
        assert flat.pre_noise_output == tree.pre_noise_output


class TestPaddedTransfers:
    def test_padding_hides_degree_in_transfer_count(self, small_en_network):
        """With pad_transfers every vertex runs D transfers per iteration
        regardless of its degree."""
        fmt = FixedPointFormat(16, 8)
        program = EisenbergNoeProgram(fmt)
        graph = small_en_network.to_en_graph(degree_bound=3)  # degrees < 3
        result = SecureEngine(program, make_config(pad_transfers=True)).run(
            graph, iterations=1
        )
        assert result.transfer_count == graph.num_vertices * 3
        oracle = PlaintextEngine(program).run_fixed(graph, iterations=1)
        assert result.pre_noise_output == pytest.approx(oracle.aggregate, abs=1e-12)
