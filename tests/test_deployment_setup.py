"""Set up once, run many: the §3.4 deployment as a shared, sealed value.

``repro.core.setup.deployment_for`` keeps what the trusted party leaves
behind in the process-wide ``DEPLOYMENTS`` table. The bar is that nobody
downstream can tell: a run that *found* its deployment releases the bits,
meters the bytes and leaves the protocol generator exactly where a run that
*built* it does — on every secure engine of the parity matrix, whose
variants and network this file imports rather than copies.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import replace

import pytest

from test_engine_parity_matrix import SECURE_VARIANTS, _on_bus, _small_scale_free
from test_lifecycle import make_network

from repro import DStressConfig, Scenario, StressTest
from repro.core import setup as core_setup
from repro.core.secure_engine import SecureRun
from repro.core.setup import (
    DEPLOYMENTS,
    BlockAssignment,
    TrustedParty,
    build_deployment,
    deployment_for,
)
from repro.crypto.elgamal import CountingGroup
from repro.crypto.group import GROUP_160, TOY_GROUP_64, SchnorrGroup
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CryptoError
from repro.finance import Bank, FinancialNetwork
from repro.net import run_scenario_cluster
from repro.obs.export import export_run
from repro.obs.merge import load_trace_shard
from repro.obs.report import render
from repro.obs.trace import TraceRecorder, recording
from repro.privacy.budget import PrivacyAccountant

ITERATIONS = 2


@pytest.fixture
def cold():
    """The process-wide table, emptied and zeroed (other tests' runs fill
    it), and emptied again afterwards."""
    DEPLOYMENTS.clear()
    DEPLOYMENTS.builds = DEPLOYMENTS.hits = 0
    yield DEPLOYMENTS
    DEPLOYMENTS.clear()


@pytest.fixture(scope="module")
def network():
    return _small_scale_free()


def session(network, engine="secure", **options):
    return StressTest(network).program("eisenberg-noe").preset("demo").engine(engine, **options)


def lanes(network):
    return session(network, backend="bitsliced")


def released(result):
    return (
        result.aggregate,
        result.pre_noise_aggregate,
        result.noise_raw,
        list(result.trajectory),
        None
        if result.releases is None
        else [(record.value, record.noise_raw) for record in result.releases],
    )


def observe(test, monkeypatch):
    """Everything a run shows the outside, plus the next 64 bytes of its
    protocol generator (drawn after the run is over)."""
    seen = {}
    finalize = SecureRun.finalize

    def spy(core, state, started):
        result = finalize(core, state, started)
        seen["rng"] = core.rng.randbytes(64)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(SecureRun, "finalize", spy)
        result = test.run(iterations=ITERATIONS)
    return {
        "released": released(result),
        "links": result.traffic.links(),
        "traffic": result.traffic.summary(),
        "transfer_count": result.extras["transfer_count"],
        "gmw_ot_count": result.extras["gmw_ot_count"],
        "extras": sorted(result.extras),
        "phases": list(result.phases.seconds),
        "rng": seen["rng"],
    }


# ---------------------------------------------------------- hit equals miss --

VARIANTS = (
    pytest.param("secure", {}, id="secure-scalar"),
    *SECURE_VARIANTS,
    pytest.param(
        "secure",
        {"backend": "bitsliced", "release": "windowed", "windows": [1, 1], "window_epsilon": 0.1},
        id="windowed",
    ),
)


class TestHitEqualsMiss:
    @pytest.mark.parametrize("engine,options", VARIANTS)
    def test_a_found_deployment_is_indistinguishable_from_a_built_one(
        self, cold, network, engine, options, monkeypatch
    ):
        test = session(network, engine, **_on_bus(options))
        miss = observe(test, monkeypatch)
        assert (cold.builds, cold.hits) == (1, 0)
        hit = observe(test, monkeypatch)
        assert (cold.builds, cold.hits) == (1, 1)
        assert hit == miss
        assert "setup" in hit["phases"]  # the phase keeps its name on a hit

    def test_two_party_cluster_inherits_the_parents_deployment(self, cold, tmp_path):
        def build(party_id):
            return session(_small_scale_free())

        reference = build(None).engine("secure").run(iterations=ITERATIONS)  # a miss
        assert (cold.builds, cold.hits) == (1, 0)
        outcomes = run_scenario_cluster(
            build,
            num_parties=2,
            iterations=ITERATIONS,
            session="test-deployment-cluster",
            timeout=120.0,
            trace_dir=str(tmp_path),
        )
        assert [outcome.status for outcome in outcomes] == ["ok", "ok"]
        for outcome in outcomes:
            summary = outcome.summary
            assert summary["aggregate"] == reference.aggregate
            assert summary["pre_noise_aggregate"] == reference.pre_noise_aggregate
            assert summary["noise_raw"] == reference.noise_raw
            assert summary["trajectory"] == reference.trajectory
            for name in ("transfer_count", "gmw_ot_count"):
                assert summary["extras"][name] == reference.extras[name]
            shard = load_trace_shard(summary["trace_shard"])
            counters = shard["trace"]["metrics"]["counters"]
            assert counters["core.setup.hits"] == 1.0
            assert "core.setup.builds" not in counters


# ------------------------------------------------------------------ the key --

#: a deployment small enough to build in a millisecond
BASE = dict(
    seed="1", group=TOY_GROUP_64, node_ids=(0, 1, 2), degree_bound=2, collusion_bound=1
)


def fetch(**changes):
    args = {**BASE, **changes}
    rng = DeterministicRNG(args["seed"])
    deployment = deployment_for(
        args["group"],
        rng,
        args["node_ids"],
        args["degree_bound"],
        args["collusion_bound"],
    )
    return deployment, rng


class TestKey:
    def test_equal_inputs_share_one_sealed_entry_and_one_rng_position(self, cold):
        first, first_rng = fetch()
        again, again_rng = fetch()
        assert again is first
        assert (cold.builds, cold.hits, len(cold)) == (1, 1, 1)
        assert first_rng.getstate() == again_rng.getstate() == first.rng_state
        direct = build_deployment(
            TOY_GROUP_64, DeterministicRNG("1").getstate(), (0, 1, 2), 2, 1
        )
        assert direct == first and direct is not first
        assert first_rng.randbytes(64) == again_rng.randbytes(64)

    def test_the_key_is_the_generators_state_not_the_seeds_spelling(self, cold):
        base, _ = fetch(seed="1")
        assert fetch(seed=49)[0] is base  # 49 encodes to b"1": one stream
        assert fetch(seed=b"1")[0] is base
        assert fetch(seed=1)[0] is not base  # b"\x01": another
        assert cold.builds == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": "2"},
            {"group": GROUP_160},
            {"node_ids": (1, 0, 2)},
            {"node_ids": (0, 1, 2, 3)},
            {"degree_bound": 3},
            {"collusion_bound": 2},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_changing_any_one_input_misses(self, cold, change):
        base, _ = fetch()
        other, _ = fetch(**change)
        assert other is not base and other != base
        assert (cold.builds, cold.hits, len(cold)) == (2, 0, 2)
        assert fetch()[0] is base and fetch(**change)[0] is other

    def test_a_group_equal_in_content_shares_and_a_subclass_does_not(self, cold):
        toy = TOY_GROUP_64
        twin = SchnorrGroup(toy.p, toy.order, toy.generator, name="twin")
        assert twin.token == toy.token
        assert fetch(group=twin)[0] is fetch()[0]

        class Watching(SchnorrGroup):
            pass

        assert Watching(toy.p, toy.order, toy.generator).token is None

    def test_builder_and_table_take_ids_and_a_bound_never_a_graph(self):
        for function in (build_deployment, deployment_for):
            for parameter in inspect.signature(function).parameters:
                assert "graph" not in parameter and "edge" not in parameter

    def test_every_container_of_an_entry_is_read_only(self, cold):
        deployment, _ = fetch()
        with pytest.raises(TypeError):
            deployment.member_keys[0] = None
        with pytest.raises(TypeError):
            deployment.certificates[0] = ()
        with pytest.raises(TypeError):
            deployment.assignment.blocks[0] = (0, 0)
        for value in (
            deployment.neighbor_keys[0],
            deployment.certificates[0],
            deployment.assignment.blocks[0],
            deployment.member_keys[0].pairs,
            deployment.certificates[0][0].keys,
            deployment.certificates[0][0].keys[0],
        ):
            assert isinstance(value, tuple)
        with pytest.raises(AttributeError):
            deployment.rng_state = None


class TestCountingGroupIsNeverCached:
    def test_every_run_pays_the_whole_setup_bill(self, cold, network, monkeypatch):
        counting = CountingGroup(TOY_GROUP_64)
        assert counting.token is None
        config = DStressConfig.preset("demo", group=counting)
        test = (
            StressTest(network)
            .program("eisenberg-noe")
            .configure(config)
            .engine("secure", backend="bitsliced")
        )
        resolved = test.resolve(ITERATIONS)
        n, d = resolved.graph.num_vertices, resolved.graph.degree_bound
        b = config.block_size
        bills = []
        build = core_setup.build_deployment

        def billed(*args):
            before = counting.exp_count
            deployment = build(*args)
            bills.append(counting.exp_count - before)
            return deployment

        monkeypatch.setattr(core_setup, "build_deployment", billed)
        first = test.run(iterations=ITERATIONS)
        second = test.run(iterations=ITERATIONS)
        certificates = n * d
        expected = (
            n * d * b  # every member key raised to every neighbor key
            + n + 1  # key generation: g^x per member key pair, and the TP's
            + (certificates + 1)  # g^k of each signature (+ the assignment's)
            + 2 * (certificates + 1)  # and the two of each verification
        )
        assert bills == [expected, expected]
        assert (cold.builds, cold.hits, len(cold)) == (2, 0, 0)
        assert released(first) == released(second)
        # and the wrapper changes nothing that is released
        assert released(first) == released(lanes(network).run(iterations=ITERATIONS))


class TestEviction:
    def test_an_evicted_deployment_is_rebuilt_bit_identically(
        self, cold, network, monkeypatch
    ):
        first = observe(lanes(network).seed(1), monkeypatch)
        (entry,) = cold._entries.values()
        # room for one such deployment, not two
        monkeypatch.setattr(cold, "bound", entry.group_elements + 1)
        observe(lanes(network).seed(2), monkeypatch)
        assert (cold.builds, len(cold)) == (2, 1)
        assert entry not in cold._entries.values()
        again = observe(lanes(network).seed(1), monkeypatch)
        assert (cold.builds, cold.hits, len(cold)) == (3, 0, 1)
        assert again == first

    def test_a_deployment_above_the_bound_is_used_and_not_kept(self, cold, monkeypatch):
        kept, _ = fetch()
        monkeypatch.setattr(cold, "bound", kept.group_elements)
        big, rng = fetch(node_ids=(0, 1, 2, 3))
        assert big.group_elements > kept.group_elements
        assert rng.getstate() == big.rng_state
        assert list(cold._entries.values()) == [kept]


# ------------------------------------------------------------------- faults --


def run_charged(accountant, network=None, **overrides):
    return (
        StressTest(network if network is not None else make_network())
        .program("eisenberg-noe")
        .preset("demo")
        .configure(**overrides)
        .degree_bound(2)
        .engine("secure", backend="bitsliced")
        .privacy(accountant=accountant)
        .run(iterations=1)
    )


def fail_on_call(function, nth, error):
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == nth:
            raise error
        return function(*args, **kwargs)

    return failing


def tampered_certificates(tamper):
    build = TrustedParty.build_block_certificates

    def forged(self, owner, block_member_keys, neighbor_keys):
        certificates = build(self, owner, block_member_keys, neighbor_keys)
        if owner == 2:
            certificates[1] = tamper(certificates[1])
        return certificates

    return forged


def swap_one_key(certificate):
    keys = [list(row) for row in certificate.keys]
    keys[1][0] = keys[0][0]
    return replace(certificate, keys=keys)


def drop_last_row(certificate):
    return replace(certificate, keys=certificate.keys[:-1])


ASSIGN_BLOCKS = TrustedParty.assign_blocks


def tampered_assignment(self, node_ids, collusion_bound):
    assignment = ASSIGN_BLOCKS(self, node_ids, collusion_bound)
    blocks = {block: list(members) for block, members in assignment.blocks.items()}
    blocks[0][1] = blocks[0][0]
    return BlockAssignment(blocks=blocks, signature=assignment.signature)


class TestFaultsLeaveNothingBehind:
    @pytest.fixture
    def reference(self, cold):
        result = run_charged(None)
        cold.clear()
        cold.builds = cold.hits = 0
        return released(result)

    def check_nothing_left_then_a_cold_build(self, cold, accountant, reference):
        assert accountant.spent == 0.0
        assert accountant.reconcile().ok
        assert (len(cold), cold.builds, cold.hits) == (0, 0, 0)
        assert released(run_charged(accountant)) == reference
        assert (len(cold), cold.builds, cold.hits) == (1, 1, 0)
        assert accountant.spent == pytest.approx(DStressConfig.preset("demo").output_epsilon)
        assert accountant.reconcile().ok

    def test_a_group_whose_exp_fails_part_way(self, cold, reference, monkeypatch):
        accountant = PrivacyAccountant(epsilon_max=5.0)
        with monkeypatch.context() as patch:
            # instance attribute on the kernel every ``exp`` / ``exp_grid`` of
            # the group runs through: same group object, same token, same key;
            # the 8th grid is the third block's certificate keys
            kernel = TOY_GROUP_64._modulus
            patch.setattr(
                kernel,
                "powm_grid",
                fail_on_call(kernel.powm_grid, 8, CryptoError("modexp failed")),
            )
            with pytest.raises(CryptoError, match="modexp failed"):
                run_charged(accountant)
        self.check_nothing_left_then_a_cold_build(cold, accountant, reference)

    def test_a_zero_neighbor_key(self, cold, reference, monkeypatch):
        accountant = PrivacyAccountant(epsilon_max=5.0)
        draw = TOY_GROUP_64.random_scalar
        calls = {"n": 0}

        def zero_once(rng):
            calls["n"] += 1
            # node 0 draws its secret key, then its neighbor keys
            return 0 if calls["n"] == 2 else draw(rng)

        with monkeypatch.context() as patch:
            patch.setattr(TOY_GROUP_64, "random_scalar", zero_once)
            with pytest.raises(CryptoError, match="neighbor key"):
                run_charged(accountant)
        self.check_nothing_left_then_a_cold_build(cold, accountant, reference)

    @pytest.mark.parametrize("tamper", [swap_one_key, drop_last_row], ids=["forged", "truncated"])
    def test_a_certificate_that_does_not_verify_is_never_published(
        self, cold, reference, monkeypatch, tamper
    ):
        accountant = PrivacyAccountant(epsilon_max=5.0)
        with monkeypatch.context() as patch:
            patch.setattr(
                TrustedParty, "build_block_certificates", tampered_certificates(tamper)
            )
            with pytest.raises(CryptoError, match="certificate"):
                run_charged(accountant)
        self.check_nothing_left_then_a_cold_build(cold, accountant, reference)

    def test_an_assignment_that_does_not_verify_is_never_published(
        self, cold, reference, monkeypatch
    ):
        accountant = PrivacyAccountant(epsilon_max=5.0)
        with monkeypatch.context() as patch:
            patch.setattr(TrustedParty, "assign_blocks", tampered_assignment)
            with pytest.raises(CryptoError, match="assignment"):
                run_charged(accountant)
        self.check_nothing_left_then_a_cold_build(cold, accountant, reference)


class TestRunsCannotWriteToAnEntry:
    @pytest.mark.parametrize("pad", [False, True], ids=["unpadded", "padded"])
    def test_topology_b_after_topology_a_equals_b_alone(self, cold, pad, monkeypatch):
        # same parties, D and seed; different edges and balance sheets
        other = FinancialNetwork()
        for bank in range(4):
            other.add_bank(Bank(bank, cash=1.0 + bank))
        other.add_debt(3, 0, 5.0)
        other.add_debt(1, 0, 2.5)
        other.add_debt(2, 1, 4.0)

        def run(network):
            return released(run_charged(None, network, pad_transfers=pad))

        alone = run(other)
        cold.clear()
        run(make_network())
        (entry,) = cold._entries.values()
        snapshot = repr(entry)
        assert run(other) == alone
        assert (cold.builds, cold.hits) == (2, 1)  # B found what A built
        assert repr(entry) == snapshot


# -------------------------------------------------------------------- forks --


class TestForkedWorkersInherit:
    def test_run_many_builds_in_the_parent_and_never_in_a_worker(self, cold, monkeypatch):
        parent = os.getpid()
        build = core_setup.build_deployment

        def parent_only(*args):
            # a worker that had to set up itself would fail its scenario
            assert os.getpid() == parent, "deployment built in a forked worker"
            return build(*args)

        monkeypatch.setattr(core_setup, "build_deployment", parent_only)
        template = (
            StressTest(make_network())
            .program("eisenberg-noe")
            .preset("demo")
            .degree_bound(2)
            .engine("secure", backend="bitsliced")
            .privacy(epsilon=0.01)
        )
        scenarios = [Scenario(name=f"run-{i}", iterations=1) for i in range(4)]
        batch = template.run_many(scenarios, workers=2)
        assert not batch.failures
        # one (seed, group, parties, D, k, L) for the whole sweep: built once
        # here before the fork, found by the other three preludes
        assert (cold.builds, cold.hits, len(cold)) == (1, 3, 1)
        inline = template.run_many(scenarios, workers=1)
        assert [released(o.result) for o in inline] == [released(o.result) for o in batch]


# --------------------------------------------------------------- instrument --


class TestOneInstrument:
    def test_counters_reach_the_recorder_and_the_report_and_nothing_else(
        self, cold, network
    ):
        test = lanes(network)
        documents = []
        for _ in range(2):
            recorder = TraceRecorder()
            with recording(recorder):
                result = test.run(iterations=ITERATIONS)
            documents.append(export_run(result, recorder))
        built, found = (doc["trace"]["metrics"]["counters"] for doc in documents)
        assert built["core.setup.builds"] == 1.0 and "core.setup.hits" not in built
        assert found["core.setup.hits"] == 1.0 and "core.setup.builds" not in found
        assert "core.setup  1      0" in render(documents[0])
        assert "core.setup  0      1" in render(documents[1])
        # the run document has one shape, built or found
        for name in ("extras", "phases"):
            assert sorted(documents[0][name]) == sorted(documents[1][name])
        assert sorted(documents[0]["extras"]) == [
            "aggregation_levels",
            "gmw_ot_count",
            "transfer_count",
        ]
