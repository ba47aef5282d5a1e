"""Worker-process environment hygiene.

Fork inheritance copies the parent's environment wholesale, so before
this fix a pool worker or cluster child silently saw whatever
``REPRO_*`` knobs the host process ran under (``REPRO_TCP_*`` from a
cluster launcher, say). An
engine process must take its configuration from its payload; ambient
host env is scrubbed.
"""

import os

from repro import StressTest
from repro.api.pool import create_executor, iter_in_pool, scrub_repro_env
from repro.finance import Bank, FinancialNetwork
from repro.net import run_scenario_cluster

MARKER = "REPRO_TEST_LEAK_CANARY"


def _read_env(_payload):
    return {key: os.environ.get(key) for key in (MARKER, "HOME")}


class TestScrubFunction:
    def test_removes_only_repro_prefixed_vars(self, monkeypatch):
        monkeypatch.setenv(MARKER, "1")
        monkeypatch.setenv("UNRELATED_VAR", "stay")
        removed = scrub_repro_env()
        assert MARKER in removed
        assert MARKER not in os.environ
        assert os.environ["UNRELATED_VAR"] == "stay"


class TestPoolScrubbing:
    def test_forked_workers_are_scrubbed(self, monkeypatch):
        # every fork fan-out (batch, service) is this executor
        monkeypatch.setenv(MARKER, "leaked")
        executor = create_executor(2)
        try:
            seen = [executor.submit(_read_env, i).result(timeout=60) for i in range(2)]
        finally:
            executor.shutdown()
        for worker_env in seen:
            assert worker_env[MARKER] is None, "REPRO_* env leaked into worker"
            assert worker_env["HOME"] is not None, "non-REPRO env must survive"

    def test_inline_path_is_never_scrubbed(self, monkeypatch):
        # workers == 1 runs in the caller's own process: scrubbing there
        # would mutate the host environment
        monkeypatch.setenv(MARKER, "mine")
        seen = dict(iter_in_pool(_read_env, [0], workers=1))
        assert seen[0][MARKER] == "mine"
        assert os.environ[MARKER] == "mine"

    def test_iter_in_pool_scrubs_too(self, monkeypatch):
        monkeypatch.setenv(MARKER, "leaked")
        results = dict(iter_in_pool(_read_env, [0, 1], workers=2))
        for worker_env in results.values():
            assert worker_env[MARKER] is None


def _canary_guard_build(party_id):
    if os.environ.get(MARKER) is not None:
        raise RuntimeError(f"host env leaked into cluster child: {MARKER}")
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0))
    net.add_bank(Bank(1, cash=1.0))
    net.add_debt(0, 1, 1.5)
    return StressTest(net).program("eisenberg-noe").preset("demo")


class TestClusterScrubbing:
    def test_cluster_children_do_not_see_host_env(self, monkeypatch):
        monkeypatch.setenv(MARKER, "leaked")
        outcomes = run_scenario_cluster(
            _canary_guard_build,
            num_parties=2,
            engine="async",
            iterations=1,
            session="test-env-scrub",
            timeout=60.0,
        )
        # the builder raises inside any child that still sees the canary,
        # so two ok parties prove the scrub ran before scenario build
        assert [o.status for o in outcomes] == ["ok", "ok"]
