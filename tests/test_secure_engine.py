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

from conftest import execute

from repro.core.config import DStressConfig
from repro.api.engines import SecureDStressEngine
from repro.core.secure_engine import SecureRun
from repro.crypto.group import TOY_GROUP_64
from repro.exceptions import ConfigurationError, PrivacyBudgetExceeded
from repro.finance import EisenbergNoeProgram, ElliottGolubJacksonProgram
from repro.mpc.fixedpoint import FixedPointFormat
from repro.privacy.budget import PrivacyAccountant
from repro.transfer.pads import PadTransfer


def make_config(**overrides):
    defaults = dict(
        collusion_bound=2,
        fmt=FixedPointFormat(16, 8),
        group=TOY_GROUP_64,
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
    result = execute("secure", program, graph, 4, config)
    oracle = execute("fixed", program, graph, 4)
    return result, oracle, graph, config


class TestCorrectness:
    def test_pre_noise_output_matches_oracle(self, en_run):
        result, oracle, _, _ = en_run
        assert result.pre_noise_aggregate == pytest.approx(oracle.aggregate, abs=1e-12)

    def test_noisy_output_is_pre_noise_plus_noise(self, en_run):
        result, _, _, _ = en_run
        fmt = FixedPointFormat(16, 8)
        assert result.aggregate == pytest.approx(
            result.pre_noise_aggregate + result.noise_raw * fmt.resolution, abs=1e-12
        )

    def test_egj_secure_matches_oracle(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        config = make_config()
        result = execute("secure", program, graph, 3, config)
        oracle = execute("fixed", program, graph, 3)
        assert result.pre_noise_aggregate == pytest.approx(oracle.aggregate, abs=1e-12)

    def test_transfer_count_is_edges_times_iterations(self, en_run):
        result, _, graph, _ = en_run
        assert result.extras["transfer_count"] == graph.num_edges * result.iterations

    def test_deterministic_given_seed(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        a = execute("secure", program, graph, 2, make_config(seed=3))
        b = execute("secure", program, graph, 2, make_config(seed=3))
        assert a.aggregate == b.aggregate

    def test_different_seeds_different_noise(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        a = execute("secure", program, graph, 2, make_config(seed=1))
        b = execute("secure", program, graph, 2, make_config(seed=2))
        assert a.pre_noise_aggregate == b.pre_noise_aggregate
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
        execute("secure", program, graph, 1, make_config(), accountant)
        assert accountant.spent == pytest.approx(0.5)

    def test_budget_exhaustion_blocks_run(self, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        accountant = PrivacyAccountant(epsilon_max=0.6)
        execute("secure", program, graph, 1, make_config(), accountant)
        with pytest.raises(PrivacyBudgetExceeded):
            execute("secure", program, graph, 1, make_config(), accountant)

    def test_failed_run_refunds_its_charge(self, small_egj_network, monkeypatch):
        """A run that dies mid-round published nothing, so it must leave
        nothing on the books."""
        fmt = FixedPointFormat(16, 8)
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        accountant = PrivacyAccountant(epsilon_max=1.0)

        def broken_transfer(*args, **kwargs):
            raise RuntimeError("transfer died mid-round")

        monkeypatch.setattr(PadTransfer, "deliver", broken_transfer)
        with pytest.raises(RuntimeError, match="mid-round"):
            execute("secure", program, graph, 1, make_config(), accountant)
        assert accountant.spent == 0.0
        assert accountant.reconcile().ok
        assert [entry.kind for entry in accountant.ledger] == ["charge", "refund"]

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
    def test_format_mismatch_rejected(self, small_en_network):
        program = EisenbergNoeProgram(FixedPointFormat(16, 8))
        config = make_config(fmt=FixedPointFormat(12, 6))
        graph = small_en_network.to_en_graph(degree_bound=2)
        with pytest.raises(ConfigurationError):
            SecureRun(SecureDStressEngine(), program, graph, config)

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            make_config(collusion_bound=0)
        with pytest.raises(ConfigurationError):
            make_config(output_epsilon=0)

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

    @pytest.mark.parametrize(
        "field", ["dlog_half_width", "edge_noise_alpha", "noise_magnitude_bits"]
    )
    @pytest.mark.parametrize("entry", ["demo", "paper", "production", "with_updates"])
    def test_the_transfer_has_no_dlog_window_or_edge_noise(self, entry, field):
        """The pad transfer decrypts no sum and adds no noise, and the
        output sampler's magnitude follows from its budget, so none of these
        knobs exists: naming one is the typed unknown-field error."""
        with pytest.raises(ConfigurationError, match=field):
            if entry == "with_updates":
                DStressConfig.preset("demo").with_updates(**{field: 2})
            else:
                DStressConfig.preset(entry, **{field: 2})

    @pytest.mark.parametrize("value", ["ot", "beaver"])
    @pytest.mark.parametrize("entry", ["demo", "paper", "production", "with_updates"])
    def test_gmw_mode_is_not_an_option(self, entry, value):
        """OT is the only AND protocol, so the config has no field that
        picks one: naming it, through any preset or ``with_updates``, is
        the typed unknown-field error."""
        with pytest.raises(ConfigurationError, match="gmw_mode"):
            if entry == "with_updates":
                DStressConfig.preset("demo").with_updates(gmw_mode=value)
            else:
                DStressConfig.preset(entry, gmw_mode=value)


class TestHierarchicalAggregation:
    def test_tree_used_when_fanout_exceeded(self, small_en_network):
        fmt = FixedPointFormat(16, 8)
        program = EisenbergNoeProgram(fmt)
        graph = small_en_network.to_en_graph(degree_bound=2)
        flat = execute("secure", program, graph, 1, make_config(aggregation_fanout=100))
        tree = execute("secure", program, graph, 1, make_config(aggregation_fanout=2))
        assert flat.extras["aggregation_levels"] == 1
        assert tree.extras["aggregation_levels"] == 2
        assert flat.pre_noise_aggregate == tree.pre_noise_aggregate


class TestPaddedTransfers:
    def test_padding_hides_degree_in_transfer_count(self, small_en_network):
        """With pad_transfers every vertex runs D transfers per iteration
        regardless of its degree."""
        fmt = FixedPointFormat(16, 8)
        program = EisenbergNoeProgram(fmt)
        graph = small_en_network.to_en_graph(degree_bound=3)  # degrees < 3
        result = execute("secure", program, graph, 1, make_config(pad_transfers=True))
        assert result.extras["transfer_count"] == graph.num_vertices * 3
        oracle = execute("fixed", program, graph, 1)
        assert result.pre_noise_aggregate == pytest.approx(oracle.aggregate, abs=1e-12)
