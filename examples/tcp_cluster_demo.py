"""The acceptance demo: a real multi-process DStress cluster on localhost.

Everything this repo computed so far ran inside one process, however many
transports it simulated. This example is the proof that the deployment
story is real: it launches **three OS processes** — one per party — that
find each other over localhost TCP, handshake a versioned wire protocol,
and run the full secure engine (``engine="secure-async"``) with the bytes
of every OT-extension batch and transfer framed onto genuine sockets. Then it
checks the only claim that matters:

* every party's **released output is bit-identical** to the same scenario
  on the in-memory bus (aggregate, pre-noise value, the exact noise draw,
  the full trajectory) — the transport moved bytes, never results;
* the cluster ran traced: every party's run export (``party-<id>.json``)
  and the merged ``timeline.json`` pass ``python -m repro.obs.report
  --check``;
* a second cluster where one party is **killed mid-round**
  (``os._exit(17)``, no goodbye) surfaces a *named*
  ``TransportError`` at a survivor within the io timeout — dead peers
  produce errors, not hangs.

The script exits non-zero if any of that fails, so CI uses it as the
real-socket smoke check.

Run: PYTHONPATH=src python examples/tcp_cluster_demo.py
"""

import sys
import tempfile
from pathlib import Path

from repro import Bank, FinancialNetwork, StressTest
from repro.net import run_scenario_cluster
from repro.obs.report import main as report_main

ITERATIONS = 2
NUM_PARTIES = 3


def build_network() -> FinancialNetwork:
    """Four banks with a cascading default when bank 0 is shocked."""
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


def build_scenario(_party_id):
    """One party's scenario — identical at every replica by construction."""
    return (
        StressTest(build_network())
        .program("eisenberg-noe")
        .preset("demo")
        .degree_bound(2)
    )


def check_trace(trace_dir: Path) -> None:
    """Every party's run export and the merged timeline validate."""
    shards = sorted(trace_dir.glob("party-*.json"))
    assert len(shards) == NUM_PARTIES, f"expected {NUM_PARTIES} trace shards, got {len(shards)}"
    documents = [str(path) for path in (*shards, trace_dir / "timeline.json")]
    assert report_main([*documents, "--check"]) == 0, "a trace document failed --check"


def main() -> None:
    print("reference: engine='secure' on the in-memory bus ...")
    reference = build_scenario(None).engine("secure").run(iterations=ITERATIONS)
    print(f"  released aggregate {reference.aggregate:.6f}")

    print(
        f"\ncluster: {NUM_PARTIES} OS processes, engine='secure-async', "
        "every byte over 127.0.0.1 TCP, traced ..."
    )
    with tempfile.TemporaryDirectory() as trace_dir:
        outcomes = run_scenario_cluster(
            build_scenario,
            num_parties=NUM_PARTIES,
            engine="secure-async",
            iterations=ITERATIONS,
            session="tcp-cluster-demo",
            timeout=300.0,
            trace_dir=trace_dir,
        )
        check_trace(Path(trace_dir))
    assert [o.status for o in outcomes] == ["ok"] * NUM_PARTIES, (
        "cluster did not complete cleanly: "
        + "; ".join(f"party {o.party_id}: {o.status} {o.error_message}" for o in outcomes)
    )
    for outcome in outcomes:
        summary = outcome.summary
        assert summary["aggregate"] == reference.aggregate, "aggregate drifted"
        assert (
            summary["pre_noise_aggregate"] == reference.pre_noise_aggregate
        ), "pre-noise value drifted"
        assert summary["noise_raw"] == reference.noise_raw, "noise draw drifted"
        assert summary["trajectory"] == reference.trajectory, "trajectory drifted"
        wire = summary["extras"].get("wire_bytes_sent", 0.0) + summary[
            "extras"
        ].get("wire_bytes_received", 0.0)
        print(
            f"  party {outcome.party_id}: ok, bit-identical "
            f"({int(wire)} bytes genuinely on the wire)"
        )

    print("\nchaos: same cluster, party 1 killed mid-round (no goodbye) ...")
    chaos = run_scenario_cluster(
        build_scenario,
        num_parties=NUM_PARTIES,
        engine="async",
        iterations=ITERATIONS,
        session="tcp-cluster-demo-chaos",
        io_timeout=8.0,
        timeout=60.0,
        die_at_round={1: 1},
    )
    by_party = {o.party_id: o for o in chaos}
    assert all(o.status != "timeout" for o in chaos), "a survivor hung"
    named = [
        o
        for o in chaos
        if o.status == "error"
        and o.error_type in ("PeerDisconnectedError", "TransportTimeoutError")
    ]
    assert named, (
        "no survivor surfaced a named TransportError: "
        + "; ".join(f"party {o.party_id}: {o.status}" for o in chaos)
    )
    print(f"  party 1: {by_party[1].status} (exit {by_party[1].exit_code})")
    for outcome in named:
        print(
            f"  party {outcome.party_id}: {outcome.error_type}: "
            f"{outcome.error_message}"
        )

    print(
        "\nreal-socket cluster verified: bit-identical releases over TCP, "
        "and a killed peer is a named error, not a hang."
    )


if __name__ == "__main__":
    try:
        main()
    except AssertionError as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        sys.exit(1)
