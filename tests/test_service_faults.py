"""Service-level faults: what the worker processes may and may not do to
the service that forked them.

The service's engine runs execute in persistent worker processes. The
failure model these tests pin: a worker that dies mid-run costs every
run in flight a typed error and an exact refund, and nothing else — the
ledger reconciles, the pool is rebuilt, the next submit is served; a
service that dies takes its workers with it; a clean shutdown leaves no
process and no bound port; and no worker, initial or rebuilt, ever holds
one of the service's sockets.
"""

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.service.server as server_module
from repro.api.cache import ScenarioCache
from repro.privacy.budget import PrivacyAccountant
from repro.service import StressTestService, build_session, validate_scenario
from tests.test_service_server import FORK, ForkSharedCalls, ServiceHarness

EPSILON = 0.01

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)


def small_doc(name, engine=None, seed=1):
    """A 5-bank scenario: a secure run of it is ≈ 0.15 s. The name is not
    part of the fingerprint; two documents are distinct runs by ``seed``."""
    return {
        "version": 1,
        "name": name,
        "network": {"generator": "random", "params": {"num_banks": 5}, "seed": 3},
        "shock": {"targets": [0, 1], "severity": 0.6},
        "program": "eisenberg-noe",
        "engine": engine or {"name": "secure", "options": {"backend": "bitsliced"}},
        "preset": "demo",
        "epsilon": EPSILON,
        "iterations": 1,
        "seed": seed,
    }


class KillSafeGate:
    """``set`` / ``clear`` / ``wait`` across forked processes by polling a
    shared flag: a ``multiprocessing.Event`` deadlocks in ``set`` once a
    process waiting on it has been killed."""

    def __init__(self):
        self._open = FORK.Value("b", 0)

    def set(self):
        self._open.value = 1

    def clear(self):
        self._open.value = 0

    def wait(self, seconds):
        deadline = time.monotonic() + seconds
        while not self._open.value and time.monotonic() < deadline:
            time.sleep(0.005)
        return bool(self._open.value)


def gate_engine_runs(monkeypatch):
    """Make every engine run, in whichever worker, announce itself and
    then wait for the test (workers are forked after this patch)."""
    gate, started = KillSafeGate(), ForkSharedCalls()
    real_execute = server_module.execute_resolved

    def gated_execute(resolved, accountant=None):
        started.append(resolved.label)
        assert gate.wait(30), "test gate never opened"
        return real_execute(resolved, accountant=accountant)

    monkeypatch.setattr(server_module, "execute_resolved", gated_execute)
    return gate, started


def wait_until(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert condition(), "condition not reached in time"


def worker_pids():
    """The embedded service's workers: this process's only children."""
    return sorted(child.pid for child in multiprocessing.active_children())


def proc_stat(pid):
    """``(state, parent pid)`` of a live process, ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(parent)


def running(pid):
    return (proc_stat(pid) or ("Z",))[0] != "Z"


def child_pids(parent):
    pids = [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]
    return [pid for pid in pids if running(pid) and proc_stat(pid)[1] == parent]


def open_sockets(pid):
    links = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            links.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except OSError:
            pass  # closed since the listing
    return [link for link in links if link.startswith("socket:")]


def submit(harness, doc):
    with harness.client() as client:
        return client.submit(doc)


class TestWorkerDeath:
    def test_every_inflight_run_gets_a_typed_error_and_an_exact_refund(self, monkeypatch):
        gate, started = gate_engine_runs(monkeypatch)
        acct = PrivacyAccountant()
        docs = [small_doc("fault-a", seed=2), small_doc("fault-b", seed=3)]
        with ServiceHarness(accountant=acct, cache=ScenarioCache(), max_workers=2) as h:
            gate.set()
            submit(h, small_doc("before-the-fault")).raise_for_status()
            gate.clear()
            prior = acct.spent
            assert prior == EPSILON
            doomed = worker_pids()
            assert len(doomed) == 2
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(submit, h, doc) for doc in docs]
                wait_until(lambda: len(started) == 3)  # both runs are in a worker
                os.kill(doomed[0], signal.SIGKILL)
                responses = [f.result(timeout=30) for f in futures]
            gate.set()

            for response in responses:
                assert not response.ok and response.status == "error"
                assert response.error == "ServiceError"
                assert "engine crashed" in response.message
            assert acct.spent == prior, "both pre-charges go back, to the bit"
            assert acct.reconcile().ok
            with h.client() as c:
                stats = c.stats().body
                assert stats["counters"]["failed"] == 2
                assert stats["inflight"] == 0
                # the pool was rebuilt: the same document is served, and run
                again = c.submit(docs[0]).raise_for_status()
            assert again.status == "released" and not again.cached
            assert acct.spent == pytest.approx(prior + EPSILON)
            assert acct.reconcile().ok
            rebuilt = worker_pids()
            assert len(rebuilt) == 2 and not set(rebuilt) & set(doomed)

    def test_joined_submits_share_the_error_and_one_refund(self, monkeypatch):
        gate, started = gate_engine_runs(monkeypatch)
        acct = PrivacyAccountant()
        clients = 3
        with ServiceHarness(accountant=acct, cache=ScenarioCache(), max_workers=1) as h:
            with ThreadPoolExecutor(clients) as pool:
                futures = [
                    pool.submit(submit, h, small_doc("fault-joined"))
                    for _ in range(clients)
                ]
                wait_until(
                    lambda: len(started) == 1
                    and h.service.counters["deduped"] == clients - 1
                )
                os.kill(worker_pids()[0], signal.SIGKILL)
                responses = [f.result(timeout=30) for f in futures]
            gate.set()
        assert {(r.ok, r.status, r.error, r.message) for r in responses} == {
            (False, "error", "ServiceError", responses[0].message)
        }
        assert sorted(r.deduped for r in responses) == [False, True, True]
        assert [entry.kind for entry in acct.ledger] == ["charge", "refund"]
        assert acct.spent == 0.0
        assert acct.reconcile().ok
        assert h.service.counters["failed"] == 1


@linux_only
class TestProcessHygiene:
    def launch(self, **popen):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--workers", "2"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            **popen,
        )
        assert proc.stdout.readline().startswith("LISTENING ")
        workers = child_pids(proc.pid)
        assert len(workers) == 2
        return proc, workers

    def test_a_killed_service_leaves_no_worker(self):
        proc, workers = self.launch()
        proc.kill()
        proc.communicate(timeout=10)
        wait_until(lambda: not any(running(pid) for pid in workers), seconds=2.0)

    def test_ctrl_c_is_one_line_not_a_traceback_per_worker(self):
        # a terminal's Ctrl-C signals the whole foreground process group
        proc, workers = self.launch(stderr=subprocess.PIPE, start_new_session=True)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert stderr.splitlines() == ["interrupted, shutting down"]
        assert not any(running(pid) for pid in workers)

    def test_no_worker_holds_a_service_socket_and_shutdown_frees_everything(self):
        plain = small_doc("hygiene", engine={"name": "plaintext"})
        with ServiceHarness(max_workers=2) as h:
            initial = worker_pids()
            assert len(initial) == 2
            # (a worker's initializer may still be running when start returns)
            wait_until(lambda: [open_sockets(pid) for pid in initial] == [[], []])
            # the pool is rebuilt with the listener and this connection open
            with h.client() as c:
                assert c.ping().ok
                os.kill(initial[0], signal.SIGKILL)
                assert c.submit(plain).error == "ServiceError"
                rebuilt = worker_pids()
                assert len(rebuilt) == 2 and not set(rebuilt) & set(initial)
                wait_until(lambda: [open_sockets(pid) for pid in rebuilt] == [[], []])
                assert c.submit(plain).raise_for_status().status == "released"
        assert multiprocessing.active_children() == []
        with ServiceHarness(port=h.port) as second:  # the port is free at once
            with second.client() as c:
                assert c.ping().ok
        assert multiprocessing.active_children() == []


def test_a_service_that_cannot_bind_leaves_no_worker():
    with ServiceHarness(max_workers=1) as h:
        refused = StressTestService(port=h.port, max_workers=1)
        with pytest.raises(OSError):
            asyncio.run(refused.start())
        assert len(multiprocessing.active_children()) == 1  # the harness's own


class TestEnginesAcrossTheHop:
    @pytest.mark.parametrize(
        "engine",
        [
            {"name": "async", "options": {"tasks": 2}},
            {"name": "secure-async", "options": {"tasks": 2, "backend": "bitsliced"}},
            {"name": "fixed"},
        ],
        ids=lambda engine: engine["name"],
    )
    def test_release_equals_a_direct_run(self, engine, service):
        doc = small_doc(f"hop-{engine['name']}", engine=engine)
        direct = build_session(validate_scenario(doc)).run(iterations=doc["iterations"])
        with service.client() as c:
            result = c.submit(doc).raise_for_status().result
        assert result["engine"] == engine["name"]
        assert result["aggregate"] == direct.aggregate
        assert result["pre_noise_aggregate"] == direct.pre_noise_aggregate
        assert result["noise_raw"] == direct.noise_raw
        assert result["trajectory"] == direct.trajectory


@pytest.fixture(scope="module")
def service():
    with ServiceHarness(max_workers=2) as harness:
        yield harness
