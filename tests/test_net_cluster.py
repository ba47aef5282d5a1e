"""The multi-process cluster harness: one OS process per party.

This is the ISSUE's acceptance path, run as a test: a 3-party localhost
cluster (genuine ``fork``'d processes, every byte over real TCP) executes
``engine="secure"`` and releases output **bit-identical** to the
in-memory bus; and killing one peer mid-round (``die_at_round`` →
``os._exit(17)``) surfaces a *named* ``TransportError`` at a survivor
within the configured timeout — never a hang, never an anonymous crash.
"""

import pytest

from repro import StressTest
from repro.exceptions import ConfigurationError
from repro.finance import Bank, FinancialNetwork
from repro.net import ClusterRun, run_scenario_cluster

ITERATIONS = 2


def _build(party_id):
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_bank(Bank(3, cash=0.5))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    net.add_debt(2, 3, 1.0)
    return (
        StressTest(net)
        .program("eisenberg-noe")
        .preset("demo")
        .degree_bound(2)
    )


def _reference(engine):
    return _build(None).engine(engine).run(iterations=ITERATIONS)


class TestSecureAsyncCluster:
    def test_three_processes_release_bit_identical_output(self):
        reference = _reference("secure")
        outcomes = run_scenario_cluster(
            _build,
            num_parties=3,
            engine="secure",
            iterations=ITERATIONS,
            session="test-cluster-secure",
            timeout=120.0,
        )
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        for outcome in outcomes:
            summary = outcome.summary
            assert summary["aggregate"] == reference.aggregate
            assert summary["pre_noise_aggregate"] == reference.pre_noise_aggregate
            assert summary["noise_raw"] == reference.noise_raw
            assert summary["trajectory"] == reference.trajectory
            # the OT batches genuinely crossed process boundaries
            assert summary["extras"].get("wire_bytes_received", 0) > 0

    def test_async_cluster_matches_plaintext(self):
        reference = _reference("plaintext")
        outcomes = run_scenario_cluster(
            _build,
            num_parties=3,
            engine="async",
            iterations=ITERATIONS,
            session="test-cluster-async",
            timeout=60.0,
        )
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            assert outcome.summary["aggregate"] == reference.aggregate
            assert outcome.summary["trajectory"] == reference.trajectory


def _run_kill_chaos(victim, session_base):
    """Kill-chaos cluster run that retries the *injection* race.

    The never-hang guarantees are asserted on every attempt: no outcome
    is ever a harness timeout, and every non-victim outcome is either a
    clean finish or a named TransportError. The one racy part — whether
    the victim reaches its kill round before an unrelated abort beats it
    there — earns a retry, because chaos timing is the test's own doing.
    """
    last = None
    for attempt in range(3):
        outcomes = run_scenario_cluster(
            _build,
            num_parties=3,
            engine="async",
            iterations=ITERATIONS,
            session=f"{session_base}-{attempt}",
            io_timeout=8.0,
            timeout=60.0,
            die_at_round={victim: 1},
        )
        # nobody hung: the harness never had to declare a timeout
        assert all(o.status != "timeout" for o in outcomes)
        for outcome in outcomes:
            if outcome.party_id == victim:
                continue
            assert outcome.status in ("ok", "error")
            if outcome.status == "error":
                assert outcome.error_type in (
                    "PeerDisconnectedError",
                    "TransportTimeoutError",
                ), f"unexplained failure: {outcome}"
        by_party = {o.party_id: o for o in outcomes}
        last = (outcomes, by_party)
        if by_party[victim].status == "died":
            return last
    outcomes, by_party = last
    pytest.fail(
        f"party {victim} never reached its kill round in 3 attempts: "
        + "; ".join(f"{o.party_id}:{o.status}" for o in outcomes)
    )


class TestKillAPeer:
    def test_killed_peer_surfaces_named_error_not_hang(self):
        """Party 1 os._exit(17)s the first time round 1 touches its bus;
        a survivor that depended on it reports a named TransportError
        (via CTRL-less EOF) inside the io timeout — no outcome may be a
        harness-timeout, because a hang is exactly the bug."""
        outcomes, by_party = _run_kill_chaos(1, "test-cluster-kill")
        assert by_party[1].exit_code == 17
        named = [
            o
            for o in outcomes
            if o.status == "error"
            and o.error_type
            in ("PeerDisconnectedError", "TransportTimeoutError")
        ]
        assert named, (
            "no survivor surfaced a named TransportError: "
            + "; ".join(str(o) for o in outcomes)
        )
        for outcome in named:
            # the error names the link or the gather it broke
            assert "party" in outcome.error_message

    def test_survivor_without_wire_dependency_may_finish(self):
        """Every outcome is explained: the victim dies with the chaos
        exit code, and every other party either finishes cleanly (its
        gathers never crossed the dead party) or raises a named error —
        never an unexplained crash, never a hang."""
        _, by_party = _run_kill_chaos(2, "test-cluster-kill2")
        assert by_party[2].exit_code == 17


class TestHarnessContract:
    def test_cluster_run_rejects_bad_party_count(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            run_scenario_cluster(_build, num_parties=0, timeout=10.0)


class TestClusterTrace:
    def test_traced_cluster_merges_timeline_and_reconciles_traffic(self, tmp_path):
        """ISSUE 8 acceptance: a traced 3-process run produces a merged
        timeline whose per-party round spans and per-link byte counters
        reconcile exactly with the protocol TrafficMeter — with released
        outputs bit-identical to the untraced reference run."""
        import json

        from repro.api import RunResult
        from repro.obs.merge import load_trace_shard

        reference = _reference("secure")
        trace_dir = tmp_path / "trace"
        outcomes = run_scenario_cluster(
            _build,
            num_parties=3,
            engine="secure",
            iterations=ITERATIONS,
            session="test-cluster-trace",
            timeout=120.0,
            trace_dir=str(trace_dir),
        )
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        # tracing left the released outputs bit-identical
        for outcome in outcomes:
            assert outcome.summary["aggregate"] == reference.aggregate
            assert outcome.summary["noise_raw"] == reference.noise_raw
            assert outcome.summary["trajectory"] == reference.trajectory

        timeline = json.loads((trace_dir / "timeline.json").read_text())
        assert timeline["schema"] == "dstress.obs.timeline"
        assert timeline["parties"] == [0, 1, 2]
        # every party recorded every round (ITERATIONS + the final step),
        # merged in causal (round, party) order
        keys = [(e["round"], e["party"]) for e in timeline["entries"]]
        assert keys == [
            (r, p) for r in range(ITERATIONS + 1) for p in range(3)
        ]

        # per-link byte counters reconcile exactly with the TrafficMeter:
        # replicated execution means each party's protocol meter equals
        # the reference run's, and link bytes sum to the metered total
        for outcome in outcomes:
            shard = load_trace_shard(outcome.summary["trace_shard"])
            assert shard["trace"]["party"] == outcome.party_id
            traffic = RunResult.from_doc(
                {key: value for key, value in shard.items() if key != "trace"}
            ).traffic
            assert traffic.total_bytes_sent == reference.traffic.total_bytes_sent
            assert sum(traffic.links().values()) == pytest.approx(traffic.total_bytes_sent)
            assert traffic.links() == reference.traffic.links()
