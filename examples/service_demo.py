"""The service gauntlet: a real ``python -m repro.service`` process,
exercised end-to-end the way a fleet front-end would be.

The script launches the service as a genuine subprocess (scraping the
``LISTENING <port>`` announcement), then drives the full mixed batch the
CI smoke job asserts on:

* a **released** scenario — charged once, and the returned numbers are
  **bit-identical** to running the same scenario directly through
  ``StressTest`` in this process;
* N **concurrent identical** submissions — single-flight coalesces them
  into exactly one engine run and one epsilon charge, and all N clients
  get identical responses;
* a repeat submission — a **cache hit**, zero compute, zero charge;
* an **over-budget** request — a typed ``PrivacyBudgetExceeded``
  refusal, books untouched;
* a **malformed / unwhitelisted** document — a typed
  ``ScenarioValidationError`` rejection *before* anything is built or
  charged;
* a garbage (non-JSON) line — a typed protocol error, never silence;
* engine runs execute in ``--workers`` worker **processes** forked by the
  server: they exist while it serves and are gone after it;
* a clean ``shutdown`` op — the subprocess exits 0 with no orphans.

The script exits non-zero if any of that fails, so CI uses it as the
service smoke check.

Run: PYTHONPATH=src python examples/service_demo.py
"""

import json
import os
import socket
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.service import ServiceClient, build_session, validate_scenario

ITERATIONS = 2
EPSILON = 0.11
CONCURRENT_CLIENTS = 6
WORKERS = 2


def scenario_doc(name="service-demo", seed=11, epsilon=EPSILON):
    """The demo scenario: a shocked core-periphery network through the
    full secure engine — the document form of a hand-built session."""
    return {
        "version": 1,
        "name": name,
        "network": {
            "generator": "core-periphery",
            "params": {"num_banks": 10, "core_size": 3},
            "seed": seed,
        },
        "shock": {"targets": [0, 1], "severity": 0.5},
        "program": "eisenberg-noe",
        "engine": {"name": "secure", "options": {"backend": "scalar"}},
        "preset": "demo",
        "epsilon": epsilon,
        "iterations": ITERATIONS,
    }


def launch_service():
    """Start ``python -m repro.service`` and scrape the announced port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", "--budget", "0.5",
         "--workers", str(WORKERS)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("LISTENING "), f"unexpected announcement: {line!r}"
    return proc, int(line.split()[1])


def worker_pids(server_pid):
    """The server's engine workers: the only children it has."""
    found = subprocess.run(
        ["pgrep", "-P", str(server_pid)], capture_output=True, text=True
    )
    return [int(pid) for pid in found.stdout.split()]


def exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def main() -> None:
    doc = scenario_doc()
    print("reference: the same scenario, hand-built and run in-process ...")
    validated = validate_scenario(doc)
    reference = build_session(validated).run(iterations=ITERATIONS)

    print("launching python -m repro.service ...")
    proc, port = launch_service()
    try:
        with ServiceClient("127.0.0.1", port) as client:
            assert client.ping().ok, "service did not answer ping"
            workers = worker_pids(proc.pid)
            assert len(workers) == WORKERS, f"expected {WORKERS} workers: {workers}"
            print(f"  {WORKERS} engine worker processes forked: {workers}")

            # -- released scenario: bit-identical to the direct run -------
            first = client.submit(doc).raise_for_status()
            result = first.result
            assert result["aggregate"] == reference.aggregate, (
                f"aggregate {result['aggregate']!r} != {reference.aggregate!r}"
            )
            assert result["pre_noise_aggregate"] == reference.pre_noise_aggregate
            assert result["noise_raw"] == reference.noise_raw
            assert result["trajectory"] == reference.trajectory
            assert first.epsilon_charged == EPSILON
            print(
                f"  released: aggregate {result['aggregate']:.6f} "
                f"bit-identical to the direct run (charged {EPSILON})"
            )

            # -- cache hit: zero compute, zero charge ---------------------
            again = client.submit(doc).raise_for_status()
            assert again.cached and again.epsilon_charged == 0.0
            assert again.result == result
            print("  repeat submission: cache hit, zero epsilon")

        # -- N concurrent identical submissions: single-flight ------------
        fresh = scenario_doc(name="service-demo-singleflight", seed=99)

        def submit_once(_):
            with ServiceClient("127.0.0.1", port) as c:
                return c.submit(fresh).raise_for_status()

        with ThreadPoolExecutor(CONCURRENT_CLIENTS) as pool:
            responses = list(pool.map(submit_once, range(CONCURRENT_CLIENTS)))
        bodies = [r.result for r in responses]
        assert all(b == bodies[0] for b in bodies), "responses diverged"
        charged = sum(r.epsilon_charged for r in responses if not r.deduped)
        dedup_hits = sum(1 for r in responses if r.deduped or r.cached)
        assert charged == EPSILON, f"expected one charge, saw total {charged}"

        with ServiceClient("127.0.0.1", port) as client:
            stats = client.stats().body
            runs = stats["counters"]["engine_runs"]
            assert runs == 2, f"expected 2 engine runs total, saw {runs}"
            spent = stats["budget"]["spent"]
            assert abs(spent - 2 * EPSILON) < 1e-12, f"budget spent {spent}"
            print(
                f"  {CONCURRENT_CLIENTS} concurrent identical submissions: "
                f"1 engine run, 1 charge, {dedup_hits} served without compute"
            )

            # -- over-budget: typed refusal, books untouched --------------
            greedy = scenario_doc(name="service-demo-greedy", seed=5, epsilon=9.0)
            refused = client.submit(greedy)
            assert not refused.ok and refused.status == "over-budget"
            assert refused.error == "PrivacyBudgetExceeded"
            after = client.stats().body["budget"]["spent"]
            assert after == spent, "refusal must not move the books"
            print("  over-budget request: typed PrivacyBudgetExceeded, no charge")

            # -- malformed document: rejected before anything runs --------
            malformed = client.submit({"version": 1, "name": "evil", "engine": "rm -rf"})
            assert not malformed.ok and malformed.status == "rejected"
            assert malformed.error == "ScenarioValidationError"
            assert client.stats().body["counters"]["engine_runs"] == runs
            print("  unwhitelisted document: typed rejection, nothing executed")

        # -- garbage line: typed protocol error, never silence ------------
        with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
            raw.sendall(b"definitely not json\n")
            reply = json.loads(raw.makefile("rb").readline())
        assert reply["ok"] is False and reply["error"] == "ServiceProtocolError"
        print("  garbage line: typed ServiceProtocolError")

        # -- clean shutdown: exit 0, no orphan process ---------------------
        with ServiceClient("127.0.0.1", port) as client:
            client.shutdown()
        code = proc.wait(timeout=30)
        assert code == 0, f"service exited {code}"
        orphans = [pid for pid in workers if exists(pid)]
        assert not orphans, f"workers survived the shutdown: {orphans}"
        print("  shutdown: service subprocess exited 0, its workers with it")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    print(
        "\nservice gauntlet passed: notarized scenarios released "
        "bit-identically, duplicates coalesced, refusals typed, "
        "shutdown clean."
    )


if __name__ == "__main__":
    try:
        main()
    except AssertionError as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        sys.exit(1)
