"""Failure paths of ``run_batch``: errors must name their scenario, budget
refusal must precede any compute, and typos must list what exists.

These complement the happy-path batch tests: a regulator debugging a
40-scenario overnight batch needs the failing scenario's *name* in every
error, needs certainty that a refused batch consumed neither budget nor
CPU, and needs typo errors that are a one-glance fix.
"""

import math
import os
import time

import pytest

from repro import (
    Bank,
    FinancialNetwork,
    PrivacyAccountant,
    Scenario,
    StressTest,
)
from repro.api import Engine, RunResult
from repro.api.pool import plan_workers
from repro.exceptions import (
    ConfigurationError,
    PrivacyBudgetExceeded,
    ProtocolError,
)


def make_network(shock: float = 0.0) -> FinancialNetwork:
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0 - shock))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_bank(Bank(3, cash=0.5))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    net.add_debt(2, 3, 1.0)
    return net


@pytest.fixture
def template():
    return StressTest(make_network()).program("eisenberg-noe").engine("plaintext")


class ProtocolCrashEngine(Engine):
    """Raises a DStress-domain error mid-execution."""

    name = "test-protocol-crash"

    def execute(self, program, graph, iterations, config, accountant=None):
        raise ProtocolError("share reconstruction failed at round 2")


class HardCrashEngine(Engine):
    """Raises a non-DStress error — the defensive traceback path."""

    name = "test-hard-crash"

    def execute(self, program, graph, iterations, config, accountant=None):
        raise RuntimeError("segfault-adjacent surprise")


class MarkerEngine(Engine):
    """Releasing engine that leaves a file marker when it actually runs."""

    name = "test-marker"
    releases_output = True

    def __init__(self, marker_path: str) -> None:
        self.marker_path = marker_path

    def execute(self, program, graph, iterations, config, accountant=None):
        with open(self.marker_path, "a") as handle:
            handle.write("ran\n")
        return RunResult(
            engine=self.name,
            program=program.name,
            aggregate=0.0,
            trajectory=[0.0],
            iterations=iterations,
            wall_seconds=0.0,
            epsilon=config.output_epsilon,
        )


# ------------------------------------------------- worker crash reporting --


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_crash_surfaces_scenario_name(template, workers):
    scenarios = [
        Scenario(name="healthy"),
        Scenario(name="mid-protocol-crash", engine=ProtocolCrashEngine()),
        Scenario(name="survivor"),
    ]
    batch = template.run_many(scenarios, workers=workers)
    assert [o.ok for o in batch] == [True, False, True]
    failure = batch.failures[0]
    assert "mid-protocol-crash" in failure.error
    assert "ProtocolError" in failure.error
    # the rest of the batch completed despite the crash
    assert batch.aggregates().keys() == {"healthy", "survivor"}


def test_unexpected_worker_exception_names_scenario_and_keeps_traceback(template):
    batch = template.run_many(
        [Scenario(name="boom", engine=HardCrashEngine()), Scenario(name="fine")],
        workers=2,
    )
    failure = batch.by_name("boom")
    assert not failure.ok
    assert "'boom' crashed" in failure.error
    assert "RuntimeError" in failure.error
    assert "segfault-adjacent surprise" in failure.error
    assert batch.by_name("fine").ok


# ------------------------------------------------ budget-before-compute --


def test_budget_exhaustion_refuses_batch_before_any_compute(template, tmp_path):
    marker = str(tmp_path / "executions.log")
    noisy = (
        template.clone()
        .engine(MarkerEngine(marker))
        .privacy(epsilon=0.3)
    )
    accountant = PrivacyAccountant(epsilon_max=0.5)
    scenarios = [
        Scenario(name=f"release-{i}", network=make_network(i / 2.0)) for i in range(3)
    ]
    with pytest.raises(PrivacyBudgetExceeded) as excinfo:
        noisy.run_many(scenarios, workers=2, accountant=accountant)
    # the refusal happened before any engine execution or budget charge
    assert not os.path.exists(marker)
    assert accountant.spent == 0.0
    # and the message quantifies the shortfall
    message = str(excinfo.value)
    assert "0.9" in message and "3" in message

    # an affordable batch then runs and leaves exactly one marker per run
    affordable = noisy.run_many(scenarios[:1], workers=1, accountant=accountant)
    assert all(o.ok for o in affordable)
    with open(marker) as handle:
        assert handle.read().count("ran") == 1
    assert accountant.spent == pytest.approx(0.3)


def test_plan_workers_policy():
    assert plan_workers(3, 5) == 3  # no CPU cap: the caller's count is honored
    assert plan_workers(8, 2) == 2  # idle workers are pointless
    with pytest.raises(ConfigurationError, match="at least 1"):
        plan_workers(0, 3)


def test_worker_planning_failure_does_not_burn_budget(template, tmp_path):
    marker = tmp_path / "executions.log"
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    session = template.clone().engine(MarkerEngine(str(marker))).privacy(epsilon=0.1)
    # plan_workers must reject this before budget is charged
    with pytest.raises(ConfigurationError, match="workers must be at least 1"):
        session.run_many(
            [Scenario(name="never-runs")], workers=0, accountant=accountant
        )
    assert accountant.spent == 0.0
    assert not marker.exists()


def test_budget_check_covers_only_releasing_scenarios(template, tmp_path):
    marker = str(tmp_path / "executions.log")
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(name="free"),  # template plaintext engine: no release
        Scenario(name="paid", engine=MarkerEngine(marker), epsilon=0.25),
    ]
    batch = template.run_many(scenarios, workers=1, accountant=accountant)
    assert batch.epsilon_charged == pytest.approx(0.25)
    assert [c.label for c in accountant.charges] == ["paid"]


# --------------------------------------------------------- typo reporting --


def test_bad_scenario_engine_string_names_registry_entries(template):
    scenarios = [Scenario(name="fine"), Scenario(name="typo", engine="sceure")]
    with pytest.raises(ConfigurationError) as excinfo:
        template.run_many(scenarios, workers=2)
    message = str(excinfo.value)
    # names the failing scenario, promises nothing ran, and lists what exists
    assert "typo" in message
    assert "no scenario was executed" in message
    for registered in ("plaintext", "fixed", "secure", "async", "secure-async"):
        assert registered in message


def test_bad_template_engine_options_fail_at_resolve_with_scenario_name(template):
    # engine options resolve lazily: an invalid option on the template
    # surfaces at batch-resolve time, tagged with the scenario's name
    session = template.clone().engine("async", tasks=-2)
    with pytest.raises(ConfigurationError, match="bad-tasks"):
        session.run_many([Scenario(name="bad-tasks", iterations=2)], workers=1)


def test_bad_program_string_in_scenario_lists_programs(template):
    with pytest.raises(ConfigurationError) as excinfo:
        template.run_many(
            [Scenario(name="typo-program", program="eisenberg")], workers=1
        )
    message = str(excinfo.value)
    assert "typo-program" in message
    assert "eisenberg-noe" in message and "elliott-golub-jackson" in message


# ----------------------------------------------------- refund on failure --


class CrashingReleasingEngine(Engine):
    """Releasing engine that dies before releasing anything: its eager
    pre-charge must come back — the budget pays for releases, not tries."""

    name = "test-crash-release"
    releases_output = True

    def execute(self, program, graph, iterations, config, accountant=None):
        raise ProtocolError("died before the output was noised")


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_release_is_refunded_in_barriered_batch(template, tmp_path, workers):
    marker = str(tmp_path / "executions.log")
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(name="good", engine=MarkerEngine(marker), epsilon=0.2),
        Scenario(name="bad", engine=CrashingReleasingEngine(), epsilon=0.3),
    ]
    batch = template.run_many(scenarios, workers=workers, accountant=accountant)
    assert batch.by_name("good").ok and not batch.by_name("bad").ok
    # only the release that actually happened stays on the books
    assert accountant.spent == pytest.approx(0.2)
    assert batch.epsilon_charged == pytest.approx(0.2)
    assert [c.label for c in accountant.charges] == ["good"]


def test_every_release_failing_refunds_the_whole_batch(template):
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(name=f"bad-{i}", engine=CrashingReleasingEngine(), epsilon=0.2)
        for i in range(3)
    ]
    batch = template.run_many(scenarios, workers=1, accountant=accountant)
    assert not any(o.ok for o in batch)
    assert accountant.spent == 0.0
    assert batch.epsilon_charged == 0.0


def test_failed_release_is_refunded_in_streaming_batch(template, tmp_path):
    marker = str(tmp_path / "executions.log")
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(name="bad", engine=CrashingReleasingEngine(), epsilon=0.3),
        Scenario(name="good", engine=MarkerEngine(marker), epsilon=0.2),
    ]
    outcomes = list(
        template.run_many_iter(scenarios, workers=1, accountant=accountant)
    )
    assert {o.name: o.ok for o in outcomes} == {"bad": False, "good": True}
    assert accountant.spent == pytest.approx(0.2)


def test_streaming_failure_refund_does_not_double_on_abandon(template, tmp_path):
    marker = str(tmp_path / "executions.log")
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(name="bad", engine=CrashingReleasingEngine(), epsilon=0.3),
        Scenario(name="good", engine=MarkerEngine(marker), epsilon=0.2),
    ]
    stream = template.run_many_iter(scenarios, workers=1, accountant=accountant)
    assert accountant.spent == pytest.approx(0.5)  # eager pre-charge
    first = next(stream)
    assert first.name == "bad" and not first.ok
    # the completed-but-failed release was refunded the moment it landed
    assert accountant.spent == pytest.approx(0.2)
    stream.close()
    # abandoning refunds the never-run 'good' once — and 'bad' only once
    assert accountant.spent == 0.0


# --------------------------------------------------------- pool teardown --


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _recording_create_executor(monkeypatch):
    """Patch ``create_executor`` to keep the worker processes it forks."""
    from repro.api import pool as pool_mod

    workers = []
    real_create = pool_mod.create_executor

    def create(processes):
        executor = real_create(processes)
        workers.extend(executor._processes.values())
        return executor

    monkeypatch.setattr(pool_mod, "create_executor", create)
    return pool_mod, workers


def test_iter_in_pool_closes_gracefully_on_clean_exhaustion(monkeypatch):
    # a SIGTERM could catch user-supplied engine code mid-write to its own
    # external state; the workers of a fully-drained pool exit on their own
    pool_mod, workers = _recording_create_executor(monkeypatch)
    results = pool_mod.iter_in_pool(_nap, [0, 0, 0], workers=2)
    assert sorted(results) == [(0, 0), (1, 0), (2, 0)]
    assert len(workers) == 2
    assert [worker.exitcode for worker in workers] == [0, 0]


def test_iter_in_pool_terminates_on_abandonment(monkeypatch):
    pool_mod, workers = _recording_create_executor(monkeypatch)
    stream = pool_mod.iter_in_pool(_nap, [0, 60, 60], workers=2)
    assert next(stream) == (0, 0)  # the other payloads are asleep in the workers
    started = time.monotonic()
    stream.close()
    assert time.monotonic() - started < 2.0
    assert not any(worker.is_alive() for worker in workers)
