"""The ``repro.obs`` telemetry layer: spans, metrics, exports, ledger.

The load-bearing claim is the determinism contract: wrapping any engine
in a :class:`~repro.obs.trace.TraceRecorder` must leave its released
outputs — aggregate, trajectory, noise, traffic, even the RNG stream
position — bit-identical to the untraced run. Tracing observes the
protocol; it never participates in it.
"""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Bank,
    FinancialNetwork,
    PrivacyAccountant,
    Scenario,
    StressTest,
)
from repro.api import Engine, RunResult
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError, SensitivityError
from repro.obs import (
    BATCH_SCHEMA,
    RUN_SCHEMA,
    ManualClock,
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    current_recorder,
    export_ledger,
    load_trace_shard,
    merge_shards,
    recording,
    timed_phase,
    validate_export,
)
from repro.obs.report import main as report_main
from repro.obs.report import render as render_report
from repro.simulation.netsim import PhaseTimer

ITERATIONS = 2


def make_network() -> FinancialNetwork:
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


def make_test() -> StressTest:
    return (
        StressTest(make_network())
        .program("eisenberg-noe")
        .preset("demo")
        .degree_bound(2)
    )


# ------------------------------------------------------------------ clock --


class TestManualClock:
    def test_ticks_deterministically(self):
        clock = ManualClock(start=10.0, tick=0.5)
        assert clock.now() == 10.0
        assert clock.now() == 10.5
        clock.advance(2.0)
        assert clock.now() == 13.0

    def test_wall_follows_now(self):
        clock = ManualClock()
        first = clock.wall()
        assert clock.wall() > first


# ------------------------------------------------------------------ spans --


class TestTraceRecorder:
    def test_nesting_records_parentage(self):
        rec = TraceRecorder(clock=ManualClock())
        with rec.span("run", engine="x"):
            with rec.span("round", round=0):
                rec.event("checkpoint", k=1)
        run, round_ = rec.spans
        assert run.parent_id is None
        assert round_.parent_id == run.span_id
        assert round_.attrs == {"round": 0}
        assert [name for _, name, _ in round_.events] == ["checkpoint"]
        assert run.end is not None and round_.end is not None
        assert run.start < round_.start <= round_.end < run.end

    def test_event_without_span_is_zero_length_root(self):
        rec = TraceRecorder(clock=ManualClock())
        rec.event("orphan")
        (span,) = rec.spans
        assert span.start == span.end and span.parent_id is None

    def test_recording_scopes_and_restores(self):
        assert isinstance(current_recorder(), NullRecorder)
        rec = TraceRecorder()
        with recording(rec):
            assert current_recorder() is rec
        assert isinstance(current_recorder(), NullRecorder)

    def test_null_recorder_is_inert(self):
        null = current_recorder()
        with null.span("anything", x=1) as record:
            assert record is None
        null.event("nothing")


class TestTimedPhase:
    def test_fills_phase_timer_when_disabled(self):
        phases = PhaseTimer()
        with timed_phase(phases, "computation"):
            pass
        assert phases.seconds["computation"] >= 0.0

    def test_span_and_timer_agree_on_one_clock_pair(self):
        rec = TraceRecorder(clock=ManualClock(tick=1.0))
        phases = PhaseTimer()
        with recording(rec):
            with timed_phase(phases, "communication", round=3):
                pass
        (span,) = rec.spans
        assert span.name == "phase"
        assert span.attrs == {"phase": "communication", "round": 3}
        assert phases.seconds["communication"] == span.duration == 1.0

    def test_none_phases_with_recorder_still_records_span(self):
        rec = TraceRecorder(clock=ManualClock())
        with recording(rec):
            with timed_phase(None, "setup"):
                pass
        assert [s.attrs["phase"] for s in rec.spans] == ["setup"]


# ---------------------------------------------------------------- metrics --


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("gmw.pair_bits", 8, src=0, dst=1)
        reg.inc("gmw.pair_bits", 4, dst=1, src=0)  # label order is canonical
        reg.set_gauge("phase.seconds", 1.5, phase="setup")
        reg.observe("round.seconds", 2.0)
        reg.observe("round.seconds", 4.0)
        data = reg.as_dict()
        assert data["counters"] == {"gmw.pair_bits{dst=1,src=0}": 12.0}
        assert data["gauges"] == {"phase.seconds{phase=setup}": 1.5}
        assert data["histograms"]["round.seconds"] == {
            "count": 2.0,
            "sum": 6.0,
            "min": 2.0,
            "max": 4.0,
        }

    def test_merge_sums_counters_and_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        a.observe("h", 1.0)
        b.observe("h", 3.0)
        a.merge(b)
        assert a.counters["c"] == 3.0
        assert a.histograms["h"] == {"count": 2.0, "sum": 4.0, "min": 1.0, "max": 3.0}


# ----------------------------------------------- trace determinism parity --


#: every engine by id, ``plaintext`` also on a scheduling bus
ENGINES = {
    "plaintext": ("plaintext", {}),
    "fixed": ("fixed", {}),
    "plaintext-wan": ("plaintext", {"transport": "wan"}),
    "secure": ("secure", {}),
}


class TestTraceDeterminism:
    """Tracing must not change released outputs, traffic, or RNG stream."""

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_traced_run_is_bit_identical(self, engine):
        name, options = ENGINES[engine]
        untraced = make_test().engine(name, **options).run(iterations=ITERATIONS)
        rec = TraceRecorder(clock=ManualClock())
        with recording(rec):
            traced = make_test().engine(name, **options).run(iterations=ITERATIONS)
        assert traced.aggregate == untraced.aggregate
        assert traced.trajectory == untraced.trajectory
        assert traced.noise_raw == untraced.noise_raw
        assert traced.pre_noise_aggregate == untraced.pre_noise_aggregate
        if untraced.final_states is not None:
            assert traced.final_states == untraced.final_states
        assert traced.traffic is not None and untraced.traffic is not None
        assert traced.traffic.links() == untraced.traffic.links()
        # the traced run actually produced a trace
        assert rec.spans and rec.spans[0].name == "run"
        assert rec.spans[0].attrs["engine"] == name

    def test_every_engine_reports_phases_and_traffic(self):
        for engine, (name, options) in ENGINES.items():
            result = make_test().engine(name, **options).run(iterations=ITERATIONS)
            assert result.phases is not None, engine
            assert result.traffic is not None, engine
            assert result.traffic.total_bytes_sent > 0, engine

    def test_tracing_leaves_rng_stream_position_unchanged(self, monkeypatch):
        """Same number of RNG byte draws with and without the recorder —
        tracing must never consume (or reorder) seeded randomness."""
        calls = {"n": 0}
        original = DeterministicRNG.randbytes

        def counting(self, n):
            calls["n"] += 1
            return original(self, n)

        monkeypatch.setattr(DeterministicRNG, "randbytes", counting)
        make_test().engine("secure").run(iterations=ITERATIONS)
        untraced_draws = calls["n"]
        calls["n"] = 0
        with recording(TraceRecorder(clock=ManualClock())):
            make_test().engine("secure").run(iterations=ITERATIONS)
        assert calls["n"] == untraced_draws

    def test_round_spans_nest_under_run_span(self):
        rec = TraceRecorder(clock=ManualClock())
        with recording(rec):
            make_test().engine("secure").run(iterations=ITERATIONS)
        run_span = rec.spans[0]
        rounds = [s for s in rec.spans if s.name == "round"]
        # iterations computation+communication rounds plus the final step
        assert [s.attrs["round"] for s in rounds] == list(range(ITERATIONS + 1))
        assert all(s.parent_id == run_span.span_id for s in rounds)
        phases = {s.attrs["phase"] for s in rec.spans if s.name == "phase"}
        assert {"setup", "initialization", "computation", "communication",
                "aggregation"} <= phases
        # the recorder's registry absorbed the GMW pair-bit counters
        assert any(
            key.startswith("gmw.pair_bits") for key in rec.metrics.counters
        )


class TestBillEvent:
    """A secure run's bill is on its ``run`` span as one ``bill`` event."""

    @pytest.mark.parametrize("engine", ["secure"])
    def test_bill_event_matches_what_the_run_metered(self, engine):
        rec = TraceRecorder(clock=ManualClock())
        with recording(rec):
            result = make_test().engine(engine).run(iterations=ITERATIONS)
        run_span = rec.spans[0]
        bills = [attrs for _, name, attrs in run_span.events if name == "bill"]
        assert len(bills) == 1
        summary = result.traffic.summary()
        assert bills[0]["ots"] == summary["total_ot_transfers"]
        assert bills[0]["exponentiations"] == summary["total_exponentiations"]
        # an event, not a span, and on the run span only
        assert all(span.name != "bill" for span in rec.spans)
        assert not any(name == "bill" for span in rec.spans[1:] for _, name, _ in span.events)
        assert "bill" not in result.extras

        lines = render_report(result.export(recorder=rec)).splitlines()
        bill = bills[0]
        assert [line for line in lines if line.startswith("Bill:")] == [
            f"Bill: {bill['and_gates']} AND gates in {bill['rounds']} rounds per step, "
            f"{bill['ots']} OTs, {bill['transfers']} transfers, "
            f"{bill['exponentiations']} exponentiations"
        ]

    def test_clear_engines_emit_no_bill(self):
        rec = TraceRecorder(clock=ManualClock())
        with recording(rec):
            make_test().engine("fixed").run(iterations=ITERATIONS)
        assert not any(span.events for span in rec.spans)


# ----------------------------------------------------------------- ledger --


class _CrashingReleasingEngine(Engine):
    name = "test-obs-crash-release"
    releases_output = True

    def execute(self, program, graph, iterations, config, accountant=None):
        raise ProtocolError("died before the output was noised")


class TestBudgetLedger:
    def test_charge_refund_replenish_reconcile(self):
        acct = PrivacyAccountant(epsilon_max=1.0)
        first = acct.charge(0.25, label="a", fingerprint="fp-a")
        acct.charge(0.25, label="a")
        acct.charge(0.3, label="b")
        acct.refund(first)
        recon = acct.reconcile()
        assert recon.ok, recon.issues
        assert recon.ledger_spent == acct.spent
        assert recon.outstanding == 2
        # ledger remembers the refunded charge; it names its target line
        kinds = [e.kind for e in acct.ledger]
        assert kinds == ["charge", "charge", "charge", "refund"]
        refund = acct.ledger[-1]
        assert refund.charge_seq == 0 and refund.fingerprint == "fp-a"
        acct.replenish()
        assert acct.reconcile().ok
        assert acct.reconcile().ledger_spent == 0.0

    def test_refund_unknown_charge_raises(self):
        acct = PrivacyAccountant(epsilon_max=1.0)
        charge = acct.charge(0.1, label="once")
        acct.refund(charge)
        with pytest.raises(SensitivityError):
            acct.refund(charge)

    def test_mixed_batch_ledger_sums_to_epsilon_charged(self):
        acct = PrivacyAccountant(epsilon_max=math.log(2))
        template = StressTest(make_network()).program("eisenberg-noe")
        scenarios = [
            # one window over the whole run: a clear engine that releases
            Scenario(
                name="good",
                engine="fixed",
                engine_options={"release": "windowed", "windows": [ITERATIONS]},
                iterations=ITERATIONS,
                epsilon=0.2,
            ),
            Scenario(name="bad", engine=_CrashingReleasingEngine(), epsilon=0.3),
        ]
        batch = template.run_many(scenarios, workers=1, accountant=acct)
        assert batch.by_name("good").ok and not batch.by_name("bad").ok
        recon = acct.reconcile()
        assert recon.ok, recon.issues
        # the audit invariant: surviving ledger charges sum (in order) to
        # exactly what the batch reports as charged — bit-for-bit
        assert recon.ledger_spent == batch.epsilon_charged == acct.spent
        # the failed release appears as a charge AND its refund
        labels = [(e.kind, e.label) for e in acct.ledger]
        assert ("charge", "bad") in labels and ("refund", "bad") in labels
        # batch charges carry scenario fingerprints for attribution
        charged = [e for e in acct.ledger if e.kind == "charge"]
        assert all(e.fingerprint for e in charged)
        payload = batch.export(accountant=acct)
        assert payload["schema"] == BATCH_SCHEMA
        assert validate_export(payload) == []
        assert payload["ledger"]["reconciliation"]["ok"]

    def test_ledger_export_flags_tampering(self):
        acct = PrivacyAccountant(epsilon_max=1.0)
        acct.charge(0.5, label="real")
        exported = export_ledger(acct)
        assert exported["reconciliation"]["ok"]
        # simulate books drifting from the ledger
        acct.charges.pop()
        recon = acct.reconcile()
        assert not recon.ok and recon.issues


# --------------------------------------------------------- export + report --


class TestExportAndReport:
    def test_run_export_validates(self):
        rec = TraceRecorder(clock=ManualClock())
        with recording(rec):
            result = make_test().engine("plaintext", transport="wan").run(iterations=ITERATIONS)
        payload = result.export(recorder=rec)
        assert payload["schema"] == RUN_SCHEMA
        assert validate_export(payload) == []
        assert payload["phases"] and payload["traffic"]["links"]
        assert payload["trace"]["spans"]
        json.dumps(payload)  # JSON-safe end to end

    def test_export_traffic_reconciles_with_meter(self):
        result = make_test().engine("plaintext", transport="wan").run(iterations=ITERATIONS)
        payload = result.export()
        link_total = sum(nbytes for _, _, nbytes in payload["traffic"]["links"])
        assert link_total == result.traffic.total_bytes_sent

    def test_report_check_passes_and_renders(self, tmp_path, capsys):
        result = make_test().engine("plaintext", transport="wan").run(iterations=ITERATIONS)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(result.export()))
        assert report_main([str(path), "--check"]) == 0
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "plaintext" in out and "traffic" in out.lower()

    def test_report_phase_shares_are_of_the_stages(self):
        """Engine phases nest inside the lifecycle's ``stage:*`` envelopes,
        so a phase's share is of the stages' sum, not of every entry."""
        text = render_report(
            {
                "schema": RUN_SCHEMA,
                "program": "en",
                "engine": "secure",
                "aggregate": 1.0,
                "iterations": 1,
                "wall_seconds": 4.0,
                "phases": {"stage:setup": 1.0, "stage:rounds": 3.0, "computation": 2.0},
            }
        )
        shares = {
            row.split()[0]: row.split()[-1]
            for row in text.splitlines()
            if row.startswith(("stage:", "computation"))
        }
        assert shares == {"stage:rounds": "75.0%", "stage:setup": "25.0%", "computation": "50.0%"}

    def test_report_check_fails_on_bad_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "dstress.obs.run", "version": 1}))
        assert report_main([str(path), "--check"]) == 1


# ------------------------------------------------------------ shard merge --


#: What each hypothesis-built party exported: the merge reads only its trace.
_SHARD_RESULT = RunResult(
    engine="secure",
    program="eisenberg-noe",
    aggregate=1.0,
    trajectory=[1.0],
    iterations=1,
    wall_seconds=0.0,
)


class TestShardMerge:
    def test_shard_roundtrip_and_merge(self, tmp_path):
        rec = TraceRecorder(clock=ManualClock(), party=1)
        with recording(rec):
            result = make_test().engine("plaintext", transport="wan").run(iterations=ITERATIONS)
        path = tmp_path / "party-1.json"
        path.write_text(json.dumps(result.export(rec)))

        shard = load_trace_shard(path)
        assert shard["trace"]["party"] == 1
        assert len(shard["trace"]["spans"]) == len(rec.spans)
        timeline = merge_shards([shard])
        assert timeline["parties"] == [1]
        assert timeline["traffic"] == {"1": result.to_doc()["traffic"]}
        assert timeline["metrics"] == {"1": rec.metrics.as_dict()}
        assert [e["round"] for e in timeline["entries"]] == list(
            range(ITERATIONS + 1)
        )
        assert validate_export(timeline) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),  # party
                st.integers(min_value=0, max_value=5),  # rounds recorded
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merged_timeline_is_round_party_ordered(self, parties):
        """Entries are totally ordered within a party and round-monotonic
        across parties, whatever each party's clock origin was."""
        shards = []
        for party, rounds, origin in parties:
            clock = ManualClock(start=origin, tick=1.0)
            rec = TraceRecorder(clock=clock, party=party)
            for r in range(rounds):
                with rec.span("round", round=r):
                    pass
            shard = _SHARD_RESULT.export(rec)
            assert validate_export(shard) == []
            shards.append(shard)
        timeline = merge_shards(shards)
        keys = [(e["round"], e["party"]) for e in timeline["entries"]]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        assert validate_export(timeline) == []
        # within one party, later rounds start no earlier than prior ones
        for party, _, _ in parties:
            mine = [e for e in timeline["entries"] if e["party"] == party]
            starts = [e["start"] for e in mine]
            assert starts == sorted(starts)


# ------------------------------------------------------------------- lint --


_TIME_CALL = re.compile(r"\btime\.(?:perf_counter|time|monotonic)\s*\(")


class TestClockLintRule:
    def test_no_direct_time_calls_outside_obs_clock(self):
        """Every timing read in ``src/`` goes through ``repro.obs.clock``
        so traces and phase timers stay injectable and test-deterministic
        (benchmarks/ live outside the rule — they time the real world)."""
        src = Path(__file__).resolve().parent.parent / "src"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.name == "clock.py" and path.parent.name == "obs":
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if _TIME_CALL.search(line):
                    offenders.append(f"{path.relative_to(src)}:{lineno}")
        assert offenders == []


class TestNoCodeExecutingSerializerRule:
    def test_no_module_under_src_imports_pickle_or_its_kin(self):
        """A decoder that can execute what it reads must not exist in
        ``src/repro``: results travel as ``dstress.obs.run`` documents
        and peers exchange byte volumes, never values. (``multiprocessing`` pickles
        between a parent and the workers it forked — that is the standard
        library's IPC, not a decoder of ours.)"""
        import ast

        banned = {"pickle", "marshal", "shelve", "dill"}
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    if module.split(".")[0] in banned:
                        offenders.append(
                            f"{path.relative_to(src)}:{node.lineno} imports {module}"
                        )
        assert offenders == []
