"""The secure-async engine: the full protocol scheduled over a transport.

The contract under test, in order of importance:

* **released bit-identity** — ``engine="secure-async"`` must release
  exactly what ``engine="secure"`` releases under the same seed, on every
  bus, at every concurrency, in both schedules: scheduling overlaps only
  wire time, and wire time never touches a payload (the deep matrix
  lives in ``test_engine_parity_matrix.py``; this file covers the
  option/transport axes on one small network);
* **per-link OT attribution** — the TrafficMeter now sees GMW
  OT-extension bytes on directed links between block members, summing to
  the per-node totals the sequential engine always reported;
* **fault semantics** — a dropped or duplicated OT delivery on a
  :class:`FaultInjectingTransport` raises a scenario-nameable
  :class:`TransportError` at the step barrier instead of hanging the run.
"""

import gc
import logging

import pytest

from repro import PrivacyAccountant, StressTest
from repro.api.registry import get_engine
from repro.core.transport import FaultInjectingTransport, SimulatedWanTransport
from repro.exceptions import ConfigurationError, TransportError
from repro.finance import Bank, FinancialNetwork
from repro.obs import TraceRecorder, recording
from repro.simulation.netsim import project_wan_seconds

ITERATIONS = 2


@pytest.fixture(scope="module")
def network() -> FinancialNetwork:
    """4-bank chain with a cascading default (bank 0 under-reserved)."""
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_bank(Bank(3, cash=0.5))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    net.add_debt(2, 3, 1.0)
    return net


def _template(network):
    return StressTest(network).program("eisenberg-noe").preset("demo").degree_bound(2)


@pytest.fixture(scope="module")
def secure_reference(network):
    return _template(network).engine("secure").run(iterations=ITERATIONS)


def _assert_released_identical(result, reference):
    assert result.aggregate == reference.aggregate
    assert result.pre_noise_aggregate == reference.pre_noise_aggregate
    assert result.noise_raw == reference.noise_raw
    assert result.trajectory == reference.trajectory


class TestReleasedBitIdentity:
    @pytest.mark.parametrize("options", [
        {"tasks": 1},
        {"tasks": 4},
        {"overlap": False},
        {"tasks": 4, "transport": "wan"},
    ])
    def test_matches_secure_engine(self, network, secure_reference, options):
        result = (
            _template(network)
            .engine("secure-async", **options)
            .run(iterations=ITERATIONS)
        )
        _assert_released_identical(result, secure_reference)

    def test_node_traffic_totals_match_sequential_engine(
        self, network, secure_reference
    ):
        """Per-link attribution re-buckets bytes; it must not invent any."""
        result = (
            _template(network).engine("secure-async", tasks=4).run(iterations=ITERATIONS)
        )
        ref = secure_reference.traffic
        got = result.traffic
        assert set(got.node_ids) == set(ref.node_ids)
        for node in ref.node_ids:
            assert got.node(node).bytes_sent == pytest.approx(ref.node(node).bytes_sent)
            assert got.node(node).bytes_received == pytest.approx(
                ref.node(node).bytes_received
            )


class TestOTLinkAttribution:
    def test_ot_extension_bytes_land_on_member_links(self, secure_reference):
        """GMW traffic is quadratic in the block; graph edges alone cannot
        carry it, so per-link coverage must exceed the edge set."""
        meter = secure_reference.traffic
        links = meter.links()
        graph_edges = {(0, 1), (0, 2), (1, 3), (2, 3)}
        non_edge_links = {pair for pair in links if pair not in graph_edges}
        assert non_edge_links, "OT-extension bytes should appear on block-member links"
        # and the attribution is consistent: links sum to node sent totals
        for node in meter.node_ids:
            from_node = sum(b for (src, _), b in links.items() if src == node)
            assert from_node == pytest.approx(meter.node(node).bytes_sent)

    def test_wan_projection_feeds_on_metered_ot_bytes(self, secure_reference):
        projection = project_wan_seconds(
            secure_reference.traffic, latency_seconds=0.010, bandwidth_bytes=1e6
        )
        assert projection.num_links == secure_reference.traffic.num_links
        assert projection.total_bytes == pytest.approx(
            secure_reference.traffic.total_bytes_sent
        )
        # overlap can only help: per-node egress serialization + one
        # latency is never slower than the straight-line schedule
        assert projection.overlapped_seconds <= projection.sequential_seconds
        assert projection.overlap_speedup > 1.0


class TestWanScheduling:
    def test_wan_extras_report_link_time_and_bytes(self, network, secure_reference):
        bus = SimulatedWanTransport(
            latency_seconds=0.001, jitter=0.25, seed=7, realtime=False
        )
        result = (
            _template(network)
            .engine("secure-async", tasks=4, transport=bus)
            .run(iterations=ITERATIONS)
        )
        _assert_released_identical(result, secure_reference)
        assert result.extras["simulated_seconds"] > 0.0
        assert result.extras["wan_bytes"] > 0.0
        # the bus carried (at least) every byte the protocol meter saw in
        # the round loop; setup/init/aggregation stay off the bus
        assert result.extras["wan_bytes"] <= result.traffic.total_bytes_sent

    def test_sequential_schedule_reports_width_one(self, network):
        result = (
            _template(network)
            .engine("secure-async", tasks=8, overlap=False)
            .run(iterations=1)
        )
        assert result.extras["tasks"] == 1.0
        assert result.extras["overlap"] == 0.0


class TestFaultInjection:
    def _all_pairs(self, round_index):
        ids = range(4)
        return [(a, b, round_index) for a in ids for b in ids if a != b]

    def test_dropped_ot_delivery_raises_instead_of_hanging(self, network):
        bus = FaultInjectingTransport(drop=self._all_pairs(0))
        session = _template(network).engine("secure-async", tasks=4, transport=bus)
        with pytest.raises(TransportError, match=r"round 0: ot delivery .* was dropped"):
            session.run(iterations=ITERATIONS)

    def test_duplicated_ot_delivery_raises_instead_of_hanging(self, network):
        bus = FaultInjectingTransport(duplicate=self._all_pairs(1))
        session = _template(network).engine("secure-async", tasks=4, transport=bus)
        with pytest.raises(TransportError, match=r"round 1: duplicate ot delivery"):
            session.run(iterations=ITERATIONS)

    def test_sequential_schedule_faults_identically(self, network):
        bus = FaultInjectingTransport(drop=self._all_pairs(0))
        session = _template(network).engine(
            "secure-async", overlap=False, transport=bus
        )
        with pytest.raises(TransportError, match=r"round 0: ot delivery .* was dropped"):
            session.run(iterations=1)

    def test_chaos_batch_outcome_names_the_scenario(self, network):
        """Through the batch layer the fault surfaces as a scenario-named
        error string, exactly like every other worker failure."""
        from repro.api import Scenario

        bus = FaultInjectingTransport(drop=self._all_pairs(0))
        template = _template(network).engine("secure-async", tasks=2, transport=bus)
        batch = template.run_many(
            [Scenario(name="chaos-ot-drop", iterations=1)], workers=1
        )
        outcome = batch.by_name("chaos-ot-drop")
        assert not outcome.ok
        assert "chaos-ot-drop" in outcome.error
        assert "dropped" in outcome.error


    def test_fault_inside_a_resumed_window_unwinds_cleanly(self, network, caplog):
        """The window body is a generator the scheduler closes on failure;
        a fault in window 2 must unwind exactly like one in window 1:
        typed error, window 1 paid for, windows 2-3 refunded, nothing
        left on the event loop."""
        # round 2 is window 2's computation step (window 1 ends at round 1)
        bus = FaultInjectingTransport(drop=self._all_pairs(2))
        accountant = PrivacyAccountant(epsilon_max=10.0)
        session = (
            _template(network)
            .engine(
                "secure-async",
                tasks=4,
                transport=bus,
                release="windowed",
                windows=[1, 1, 1],
                window_epsilon=0.1,
            )
            .privacy(accountant=accountant)
        )
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            with pytest.raises(TransportError, match=r"round 2: ot delivery .* was dropped"):
                session.run(iterations=3)
            gc.collect()  # an orphaned task reports itself when collected
        leaked = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert leaked == []  # no "never retrieved" / "destroyed but pending"

        assert accountant.spent == pytest.approx(0.1)
        kinds = [(entry.kind, entry.label) for entry in accountant.ledger]
        label = "eisenberg-noe-release"
        assert kinds == [
            ("charge", f"{label}-w1"),
            ("charge", f"{label}-w2"),
            ("charge", f"{label}-w3"),
            ("refund", f"{label}-w3"),
            ("refund", f"{label}-w2"),
        ]
        assert accountant.reconcile().ok


class TestOneBodyOneTrace:
    """``secure`` and ``secure-async`` consume one window generator, so a
    recorder sees the same spans, in the same order, under the same
    parents — a second copy of the loop could not keep that up."""

    @staticmethod
    def _span_tree(network, engine, **options):
        recorder = TraceRecorder()
        with recording(recorder):
            _template(network).engine(engine, **options).run(iterations=ITERATIONS)
        # the root ``run`` span names its engine; everything else must match
        return [
            (
                span.name,
                {k: v for k, v in span.attrs.items() if k != "engine"},
                span.parent_id,
            )
            for span in recorder.spans
        ]

    @pytest.mark.parametrize(
        "release, spans",
        [
            ({}, 13),
            ({"release": "windowed", "windows": [1, 1], "window_epsilon": 0.1}, 16),
        ],
        ids=["oneshot", "windowed"],
    )
    def test_sync_and_async_emit_the_same_span_tree(self, network, release, spans):
        sync = self._span_tree(network, "secure", **release)
        overlapped = self._span_tree(
            network, "secure-async", transport="memory", **release
        )
        assert overlapped == sync
        assert len(sync) == spans


class TestEngineWiring:
    def test_registry_options_flow_through(self):
        engine = get_engine("secure-async", tasks=8, transport="wan")
        assert engine.tasks == 8
        assert engine.intra_run_width == 8
        assert get_engine("secure-async", overlap=False).intra_run_width == 1

    def test_aliases_resolve(self):
        assert get_engine("secure-asyncio").name == "secure-async"
        assert get_engine("dstress-async").name == "secure-async"

    def test_bad_options_fail_loudly(self):
        with pytest.raises(ConfigurationError, match="intra-run width"):
            get_engine("secure-async", tasks=0)
        with pytest.raises(ConfigurationError, match="transport"):
            get_engine("secure-async", transport=42)

    def test_releases_output_charges_budget(self, network):
        from repro.privacy.budget import PrivacyAccountant

        accountant = PrivacyAccountant(epsilon_max=1.0)
        (
            _template(network)
            .engine("secure-async")
            .privacy(accountant=accountant)
            .run(iterations=1)
        )
        assert accountant.spent == pytest.approx(0.5)
