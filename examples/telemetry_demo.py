"""Run telemetry end to end: tracing spans, metrics, exports, the ledger.

Everything the ``repro.obs`` layer offers, on one small network:

1. a traced ``engine="plaintext"`` run on the simulated WAN bus —
   round/phase spans and a versioned ``dstress.obs.run`` JSON export
   carrying its phases and traffic;
2. a mixed success/failure batch against a shared privacy accountant —
   the failed release's pre-charge is refunded, and the append-only
   audit ledger reconciles bit-for-bit with the accountant's books;
3. both documents rendered with the ``python -m repro.obs.report`` CLI
   (CI runs the same command with ``--check`` as its smoke gate).

Tracing never perturbs the run: the traced aggregate below is
bit-identical to an untraced run of the same scenario (the test suite
asserts this across every engine).

Run: python examples/telemetry_demo.py
"""

import json
import tempfile
from pathlib import Path

from repro import (
    Bank,
    FinancialNetwork,
    PrivacyAccountant,
    Scenario,
    StressTest,
)
from repro.api import Engine
from repro.exceptions import ProtocolError
from repro.obs import TraceRecorder, recording, validate_export
from repro.obs.report import main as report_main


def build_network() -> FinancialNetwork:
    network = FinancialNetwork()
    network.add_bank(Bank(0, cash=2.0))
    network.add_bank(Bank(1, cash=1.0))
    network.add_bank(Bank(2, cash=1.0))
    network.add_bank(Bank(3, cash=0.5))
    network.add_debt(0, 1, 4.0)
    network.add_debt(0, 2, 2.0)
    network.add_debt(1, 3, 3.0)
    network.add_debt(2, 3, 1.0)
    return network


class FlakyReleasingEngine(Engine):
    """A releasing engine that dies mid-protocol — the batch must refund
    its pre-charged epsilon, and the ledger must show both movements."""

    name = "demo-flaky"
    releases_output = True

    def execute(self, program, graph, iterations, config, accountant=None):
        raise ProtocolError("simulated mid-protocol crash (demo)")


def main() -> None:
    network = build_network()

    # -- 1. a traced plaintext run on a bus ------------------------------------
    recorder = TraceRecorder()
    with recording(recorder):
        result = (
            StressTest(network)
            .program("eisenberg-noe")
            .preset("demo")
            .degree_bound(2)
            .engine("plaintext", tasks=8, transport="wan")
            .run(iterations=4)
        )
    rounds = [s for s in recorder.spans if s.name == "round"]
    print(f"traced aggregate: {result.aggregate:.4f}")
    print(f"spans recorded:   {len(recorder.spans)} ({len(rounds)} round spans)")

    run_doc = result.export(recorder=recorder)
    assert validate_export(run_doc) == [], "run export must validate"
    print(
        f"run export:       {len(run_doc['phases'])} phase timings, "
        f"{len(run_doc['traffic']['links'])} metered links"
    )

    # -- 2. a mixed batch with an audit ledger --------------------------------
    accountant = PrivacyAccountant()  # eps_max = ln 2 (§4.5)
    batch = (
        StressTest(network)
        .program("eisenberg-noe")
        .run_many(
            [
                # one window over the whole run: a clear engine that releases
                Scenario(
                    name="healthy",
                    engine="fixed",
                    engine_options={"release": "windowed", "windows": [4]},
                    iterations=4,
                    epsilon=0.2,
                ),
                Scenario(name="crashes", engine=FlakyReleasingEngine(), epsilon=0.3),
            ],
            accountant=accountant,
        )
    )
    reconciliation = accountant.reconcile()
    print(
        f"\nbatch: {sum(1 for o in batch if o.ok)}/{len(list(batch))} ok, "
        f"epsilon_charged={batch.epsilon_charged:.4g} "
        f"(ledger {'reconciles' if reconciliation.ok else 'BROKEN'}: "
        f"{len(accountant.ledger)} entries, "
        f"ledger_spent={reconciliation.ledger_spent:.4g})"
    )
    assert reconciliation.ok
    assert reconciliation.ledger_spent == batch.epsilon_charged

    batch_doc = batch.export(accountant=accountant)
    assert validate_export(batch_doc) == [], "batch export must validate"

    # -- 3. render both through the report CLI --------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        run_path = Path(tmp) / "run.json"
        batch_path = Path(tmp) / "batch.json"
        run_path.write_text(json.dumps(run_doc))
        batch_path.write_text(json.dumps(batch_doc))
        print("\n--- python -m repro.obs.report run.json batch.json ---")
        report_main([str(run_path), str(batch_path)])
        assert report_main([str(run_path), str(batch_path), "--check"]) == 0


if __name__ == "__main__":
    main()
