"""The stress-test service: admission, single-flight, typed refusals.

The ISSUE's acceptance path run as tests: N concurrent clients
submitting the same notarized scenario produce exactly one engine run,
one epsilon charge, and N identical responses bit-identical to a direct
``StressTest`` run; malformed documents are rejected before the
accountant is touched; and a concurrent-admission race admits exactly
one of two requests that together exceed the remaining budget, with the
audit ledger still reconciling bit-for-bit.
"""

import asyncio
import json
import multiprocessing
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.service.__main__ as service_cli
import repro.service.server as server_module
from repro.api.cache import ScenarioCache
from repro.exceptions import (
    ConvergenceError,
    PrivacyBudgetExceeded,
    ScenarioValidationError,
)
from repro.privacy.budget import PrivacyAccountant
from repro.service import (
    ServiceClient,
    StressTestService,
    build_session,
    validate_scenario,
)

ITERATIONS = 2

# engine runs execute in worker processes forked from this one: a gate or
# a call recorder they must share with the test lives in shared memory
FORK = multiprocessing.get_context("fork")


class ForkSharedCalls:
    """The ``append`` / ``len`` of a list, counted across forked processes."""

    def __init__(self):
        self._count = FORK.Value("i", 0)

    def append(self, _item):
        with self._count.get_lock():
            self._count.value += 1

    def __len__(self):
        return self._count.value


def make_doc(name="svc-test", seed=7, epsilon=0.23, engine="secure"):
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
        "engine": engine,
        "preset": "demo",
        "epsilon": epsilon,
        "iterations": ITERATIONS,
    }


class ServiceHarness:
    """Run one StressTestService on a background event-loop thread."""

    def __init__(self, **kwargs):
        self.service = StressTestService(**kwargs)
        self.port = None
        self._thread = None

    def __enter__(self):
        started = threading.Event()

        def runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            async def main():
                self.port = await self.service.start()
                started.set()
                await self.service.serve_until_closed()

            loop.run_until_complete(main())
            loop.close()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        assert started.wait(10), "service failed to start"
        return self

    def __exit__(self, *exc_info):
        try:
            with self.client() as c:
                c.shutdown()
        except Exception:
            pass
        self._thread.join(15)
        assert not self._thread.is_alive(), "service thread failed to stop"

    def client(self):
        return ServiceClient("127.0.0.1", self.port)


class TestSubmit:
    def test_release_is_bit_identical_to_direct_run(self):
        doc = make_doc()
        validated = validate_scenario(doc)
        direct = build_session(validated).run(iterations=ITERATIONS)
        acct = PrivacyAccountant()
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:
            with h.client() as c:
                response = c.submit(doc).raise_for_status()
        result = response.result
        assert result["aggregate"] == direct.aggregate
        assert result["pre_noise_aggregate"] == direct.pre_noise_aggregate
        assert result["noise_raw"] == direct.noise_raw
        assert result["trajectory"] == direct.trajectory
        assert response.epsilon_charged == pytest.approx(0.23)
        assert acct.spent == pytest.approx(0.23)
        assert acct.reconcile().ok

    def test_repeat_submission_hits_cache_without_second_charge(self):
        acct = PrivacyAccountant()
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:
            with h.client() as c:
                first = c.submit(make_doc()).raise_for_status()
                second = c.submit(make_doc()).raise_for_status()
        assert not first.cached and second.cached
        assert second.epsilon_charged == 0.0
        assert first.result == second.result
        assert acct.spent == pytest.approx(0.23)
        assert h.service.counters["engine_runs"] == 1

    def test_non_releasing_engine_charges_nothing(self):
        acct = PrivacyAccountant()
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:
            with h.client() as c:
                response = c.submit(make_doc(engine="plaintext")).raise_for_status()
        assert response.epsilon_charged == 0.0
        assert acct.spent == 0.0

    def test_malformed_document_rejected_before_any_charge(self):
        acct = PrivacyAccountant()
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:
            with h.client() as c:
                response = c.submit(make_doc(engine="evil"))
                assert not response.ok
                assert response.status == "rejected"
                assert response.error == "ScenarioValidationError"
                with pytest.raises(Exception) as excinfo:
                    response.raise_for_status()
                assert excinfo.type.__name__ == "ScenarioValidationError"
        assert acct.spent == 0.0
        assert h.service.counters["rejected"] == 1
        assert h.service.counters["engine_runs"] == 0

    def test_over_budget_is_a_typed_refusal(self):
        acct = PrivacyAccountant(epsilon_max=0.1)
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:
            with h.client() as c:
                response = c.submit(make_doc(epsilon=0.4))
                assert not response.ok
                assert response.status == "over-budget"
                with pytest.raises(PrivacyBudgetExceeded):
                    response.raise_for_status()
        assert acct.spent == 0.0
        assert acct.reconcile().ok
        assert h.service.counters["engine_runs"] == 0


class TestNotarizationMemo:
    """A re-submitted document is notarized once per service: the resolve
    stays off the loop thread every other client's request waits behind."""

    def test_resubmit_and_reordered_keys_reuse_one_notarization(self):
        service = StressTestService()
        doc = make_doc()
        first = service._notarize(doc)
        assert service._notarize(make_doc()) is first
        assert service._notarize(dict(reversed(list(doc.items())))) is first
        assert service._notarize(make_doc(seed=8)) is not first
        assert first.fingerprint == server_module.notarize(doc).fingerprint

    def test_refusals_are_worded_by_the_notary_and_not_remembered(self):
        service = StressTestService()
        for doc in (make_doc(engine="evil"), make_doc(epsilon=float("nan")), None):
            for _ in range(2):
                with pytest.raises(ScenarioValidationError) as refused:
                    service._notarize(doc)
                with pytest.raises(ScenarioValidationError) as direct:
                    server_module.notarize(doc)
                assert str(refused.value) == str(direct.value)
        assert not service._notarized

    def test_memo_is_bounded_and_drops_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(server_module, "_NOTARIZED_KEPT", 2)
        service = StressTestService()
        first = service._notarize(make_doc(seed=1))
        service._notarize(make_doc(seed=2))
        assert service._notarize(make_doc(seed=1)) is first  # now the most recent
        service._notarize(make_doc(seed=3))  # drops seed=2
        assert len(service._notarized) == 2
        assert service._notarize(make_doc(seed=1)) is first


class TestSingleFlight:
    def test_concurrent_identical_requests_run_once_charge_once(self, monkeypatch):
        release_gate = FORK.Event()
        calls = ForkSharedCalls()
        real_execute = server_module.execute_resolved

        def gated_execute(resolved, accountant=None):
            calls.append(resolved.label)
            assert release_gate.wait(30), "test gate never opened"
            return real_execute(resolved, accountant=accountant)

        monkeypatch.setattr(server_module, "execute_resolved", gated_execute)
        acct = PrivacyAccountant()
        clients = 6
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:

            def submit_once(_):
                with h.client() as c:
                    return c.submit(make_doc()).raise_for_status()

            with ThreadPoolExecutor(clients) as pool:
                futures = [pool.submit(submit_once, i) for i in range(clients)]
                # wait until the one engine run is in flight and the other
                # requests have had a chance to pile onto its future
                deadline = time.monotonic() + 10
                while not calls and time.monotonic() < deadline:
                    time.sleep(0.01)
                while (
                    h.service.counters["deduped"] < clients - 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                release_gate.set()
                responses = [f.result(timeout=60) for f in futures]

        assert len(calls) == 1, "single-flight must coalesce into one run"
        assert acct.spent == pytest.approx(0.23), "exactly one epsilon charge"
        assert acct.reconcile().ok
        results = [r.result for r in responses]
        assert all(r == results[0] for r in results)
        assert h.service.counters["engine_runs"] == 1
        assert h.service.counters["deduped"] == clients - 1

    def test_admission_race_admits_exactly_one(self, monkeypatch):
        """Two in-flight requests whose combined epsilon exceeds the
        remaining budget: one admitted, the loser gets a typed
        over-budget refusal, and the ledger still reconciles."""
        release_gate = FORK.Event()
        real_execute = server_module.execute_resolved

        def gated_execute(resolved, accountant=None):
            assert release_gate.wait(30)
            return real_execute(resolved, accountant=accountant)

        monkeypatch.setattr(server_module, "execute_resolved", gated_execute)
        acct = PrivacyAccountant(epsilon_max=0.6)
        # different seeds => different fingerprints => no single-flight
        docs = [make_doc(seed=1, epsilon=0.4), make_doc(seed=2, epsilon=0.4)]
        with ServiceHarness(accountant=acct, cache=ScenarioCache(), max_workers=2) as h:

            def submit_doc(doc):
                with h.client() as c:
                    return c.submit(doc)

            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(submit_doc, d) for d in docs]
                deadline = time.monotonic() + 10
                while (
                    h.service.counters["admitted"] + h.service.counters["over_budget"]
                    < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                release_gate.set()
                responses = [f.result(timeout=60) for f in futures]

        statuses = sorted(r.status for r in responses)
        assert statuses == ["over-budget", "released"]
        loser = next(r for r in responses if r.status == "over-budget")
        assert loser.error == "PrivacyBudgetExceeded"
        assert acct.spent == pytest.approx(0.4)
        assert acct.reconcile().ok

    def test_failed_run_refunds_its_precharge(self, monkeypatch):
        def exploding_execute(resolved, accountant=None):
            raise ConvergenceError("engine blew up mid-run")

        monkeypatch.setattr(server_module, "execute_resolved", exploding_execute)
        acct = PrivacyAccountant()
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:
            with h.client() as c:
                response = c.submit(make_doc())
        assert not response.ok
        assert response.error == "ConvergenceError"
        assert "blew up" in response.message
        assert acct.spent == 0.0, "failed release must be refunded"
        assert acct.reconcile().ok
        assert h.service.counters["failed"] == 1


    def test_unencodable_result_is_one_typed_failure_not_a_dropped_connection(
        self, monkeypatch
    ):
        # a result the response cannot carry used to blow up at send time:
        # the connection dropped, the client retried, the engine ran twice
        # and the pre-charge was kept for a release nobody received
        real_execute = server_module.execute_resolved

        def non_finite_execute(resolved, accountant=None):
            result = real_execute(resolved, accountant=accountant)
            result.extras["overflowed"] = float("inf")
            return result

        monkeypatch.setattr(server_module, "execute_resolved", non_finite_execute)
        acct = PrivacyAccountant()
        cache = ScenarioCache()
        with ServiceHarness(accountant=acct, cache=cache) as h:
            with h.client() as c:
                response = c.submit(make_doc())
                assert c.ping().ok  # same connection, still open
        assert not response.ok
        assert response.error == "ResultFormatError"
        assert "overflowed" in response.message
        counters = h.service.counters
        assert (counters["engine_runs"], counters["admitted"], counters["failed"]) == (
            1,
            1,
            1,
        )
        assert len(cache) == 0, "nothing was released, so nothing is stored"
        assert acct.spent == 0.0, "failed release must be refunded"
        assert acct.reconcile().ok


    def test_unencodable_cached_result_is_a_typed_error_too(self):
        from repro.api import RunResult
        from repro.service.scenario_ast import notarize

        cache = ScenarioCache()
        poisoned = RunResult("secure", "eisenberg-noe", float("nan"), [], 0, 0.0)
        cache.store(notarize(make_doc()).fingerprint, poisoned)
        with ServiceHarness(cache=cache) as h:
            with h.client() as c:
                response = c.submit(make_doc())
                assert c.ping().ok
        assert not response.ok and response.error == "ResultFormatError"
        assert h.service.counters["engine_runs"] == 0


async def _bind_nothing(server):
    """Stands in for serving: only the command line is under test."""
    return 0


class TestProtocol:
    def test_garbage_line_gets_typed_error_not_silence(self):
        with ServiceHarness() as h:
            with socket.create_connection(("127.0.0.1", h.port), timeout=10) as sock:
                sock.sendall(b"this is not json\n")
                line = sock.makefile("rb").readline()
        body = json.loads(line)
        assert body["ok"] is False
        assert body["error"] == "ServiceProtocolError"

    def test_unknown_op_gets_typed_error(self):
        with ServiceHarness() as h:
            with h.client() as c:
                response = c.request({"op": "frobnicate"})
        assert not response.ok
        assert response.error == "ServiceProtocolError"
        assert "frobnicate" in response.message
        assert response.message.endswith("supported: ping, shutdown, stats, submit")

    def test_an_over_long_line_gets_a_typed_error_and_the_connection_closes(self):
        with ServiceHarness(max_line_bytes=1024) as h:
            with socket.create_connection(("127.0.0.1", h.port), timeout=10) as sock:
                sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 4096 + b'"}\n')
                reader = sock.makefile("rb")
                body = json.loads(reader.readline())
                assert reader.readline() == b""  # the server hung up
            with h.client() as c:
                assert c.ping().ok  # the service itself carries on
        assert body["ok"] is False
        assert body["error"] == "ServiceProtocolError"
        assert "exceeds 1024 bytes" in body["message"]

    def test_a_handler_raising_a_typed_error_answers_with_its_class_name(self):
        service = StressTestService()

        async def refuse(request):
            raise PrivacyBudgetExceeded("no budget for pings")

        service._ops["ping"] = refuse
        body = asyncio.run(service._dispatch_line(b'{"op": "ping"}\n'))
        assert body == {
            "ok": False,
            "version": 1,
            "status": "error",
            "error": "PrivacyBudgetExceeded",
            "message": "no budget for pings",
        }

    def test_non_object_request_gets_typed_error(self):
        with ServiceHarness() as h:
            with socket.create_connection(("127.0.0.1", h.port), timeout=10) as sock:
                sock.sendall(b"[1, 2, 3]\n")
                line = sock.makefile("rb").readline()
        body = json.loads(line)
        assert body["ok"] is False
        assert body["error"] == "ServiceProtocolError"

    def test_ping_and_stats(self):
        acct = PrivacyAccountant()
        with ServiceHarness(accountant=acct, cache=ScenarioCache()) as h:
            with h.client() as c:
                assert c.ping().ok
                stats = c.stats()
        assert stats.body["counters"]["requests"] >= 1
        assert stats.body["budget"]["epsilon_max"] == pytest.approx(acct.epsilon_max)
        assert "cache" in stats.body

    @pytest.mark.parametrize(
        "argv",
        [
            ["--cache-dir", "releases", "--no-cache"],
            ["--cache", "tcp://127.0.0.1:7200"],
            ["--role", "cache"],
        ],
        ids=["cache-dir-and-no-cache", "cache-tier-endpoint", "cache-tier-role"],
    )
    def test_a_contradictory_or_removed_flag_is_a_usage_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(service_cli, "_serve", _bind_nothing)
        with pytest.raises(SystemExit) as exited:
            service_cli.main(argv)
        assert exited.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no cache directory was made

    def test_each_cache_flag_alone_is_a_service(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_cli, "_serve", _bind_nothing)
        assert service_cli.main(["--no-cache"]) == 0
        assert service_cli.main(["--cache-dir", str(tmp_path / "releases")]) == 0
        assert (tmp_path / "releases").is_dir()

    def test_shutdown_leaves_no_running_thread(self):
        h = ServiceHarness()
        with h:
            with h.client() as c:
                c.ping()
        # __exit__ asserted the serving thread stopped
        assert not h._thread.is_alive()
