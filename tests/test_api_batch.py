"""Batch scenario runs: fan-out, determinism, shared budget accounting.

``run_many`` must (a) return results in input order whatever the worker
count, (b) be bit-reproducible under fixed seeds, (c) charge one shared
accountant for every output-releasing scenario *before* any compute and
refuse over-budget batches whole, and (d) capture per-scenario runtime
failures without losing the rest of the batch.
"""

import math

import pytest

from repro import (
    Bank,
    FinancialNetwork,
    PrivacyAccountant,
    Scenario,
    StressTest,
)
from repro.api import Engine, RunResult
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


def make_scenarios(count: int = 5, iterations=None):
    return [
        Scenario(
            name=f"shock-{i}",
            network=make_network(i / 2.0),
            seed=100 + i,
            iterations=iterations,
        )
        for i in range(count)
    ]


#: Rounds of a releasing scenario (its one release window).
ROUNDS = 4


def releasing(template):
    """The template on a clear engine that releases once, at the end."""
    return template.clone().engine("fixed", release="windowed", windows=[ROUNDS])


@pytest.fixture
def template():
    return StressTest(make_network()).program("eisenberg-noe").engine("plaintext")


class ExplodingEngine(Engine):
    """Raises mid-execution — exercises worker-side failure capture."""

    name = "test-exploding"

    def execute(self, program, graph, iterations, config, accountant=None):
        raise ProtocolError("simulated mid-protocol failure")


# ----------------------------------------------------------------- fan-out --


def test_run_many_parallel_order_and_timing(template):
    scenarios = make_scenarios(5)
    batch = template.run_many(scenarios, workers=3)
    assert len(batch) == 5
    assert [o.name for o in batch] == [s.name for s in scenarios]
    assert all(o.ok for o in batch)
    assert batch.workers == 3
    assert batch.wall_seconds > 0
    assert set(batch.scenario_seconds) == {s.name for s in scenarios}
    # deeper shocks mean strictly larger shortfalls, in input order
    aggregates = [o.result.aggregate for o in batch]
    assert aggregates == sorted(aggregates)
    assert "5/5 scenarios ok" in batch.summary()


def test_run_many_results_are_run_results(template):
    batch = template.run_many(make_scenarios(2), workers=1)
    for result in batch.results:
        assert isinstance(result, RunResult)
        assert result.engine == "plaintext"
        assert result.converged_at() is not None
    assert batch.by_name("shock-1").result is batch.outcomes[1].result
    with pytest.raises(ConfigurationError, match="shock-0"):
        batch.by_name("nope")


def test_run_many_deterministic_across_runs_and_worker_counts(template):
    scenarios = make_scenarios(4)
    parallel = template.run_many(scenarios, workers=2)
    again = template.run_many(scenarios, workers=2)
    serial = template.run_many(scenarios, workers=1)
    assert parallel.aggregates() == again.aggregates() == serial.aggregates()


def test_run_many_seeded_noise_reproducibility(template):
    """Releasing engines draw noise from the scenario seed, nothing else."""
    noisy = releasing(template)
    scenarios = make_scenarios(4, iterations=ROUNDS)
    first = noisy.run_many(scenarios, workers=2)
    second = noisy.run_many(scenarios, workers=1)
    assert first.aggregates() == second.aggregates()
    reseeded = [
        Scenario(name=s.name, network=s.network, seed=s.seed + 1, iterations=ROUNDS)
        for s in scenarios
    ]
    assert noisy.run_many(reseeded, workers=2).aggregates() != first.aggregates()


def test_scenario_fields_override_template(template):
    batch = template.run_many(
        [
            Scenario(name="default-engine"),
            Scenario(name="fixed-engine", engine="fixed", iterations=2),
            Scenario(name="egj", program="egj", network=_egj_network(), iterations=3),
        ],
        workers=1,
    )
    assert batch.outcomes[0].result.engine == "plaintext"
    assert batch.outcomes[1].result.engine == "fixed"
    assert batch.outcomes[1].result.iterations == 2
    assert batch.outcomes[2].result.program == "elliott-golub-jackson"


def _egj_network() -> FinancialNetwork:
    net = FinancialNetwork()
    net.add_bank(Bank(0, base_assets=1.0, orig_value=10.0, threshold=5.0, penalty=2.0))
    net.add_bank(Bank(1, base_assets=6.0, orig_value=10.0, threshold=5.0, penalty=2.0))
    net.add_bank(Bank(2, base_assets=8.0, orig_value=12.0, threshold=6.0, penalty=3.0))
    net.add_holding(1, 0, 0.4)
    net.add_holding(2, 1, 0.3)
    net.add_holding(0, 2, 0.5)
    return net


# -------------------------------------------------------------- validation --


def test_empty_batch_is_refused(template):
    with pytest.raises(ConfigurationError, match="at least one"):
        template.run_many([])


def test_duplicate_scenario_names_are_refused(template):
    with pytest.raises(ConfigurationError, match="duplicate"):
        template.run_many([Scenario(name="a"), Scenario(name="a")])


def test_bad_scenario_aborts_batch_before_any_run(template):
    """Resolve-time failures name the scenario and run nothing."""
    scenarios = [
        Scenario(name="fine"),
        Scenario(name="impossible-bound", degree_bound=1),
    ]
    with pytest.raises(ConfigurationError, match="impossible-bound"):
        template.run_many(scenarios, workers=2)


def test_worker_failures_are_captured_per_scenario(template):
    scenarios = [
        Scenario(name="ok"),
        Scenario(name="boom", engine=ExplodingEngine()),
        Scenario(name="also-ok"),
    ]
    batch = template.run_many(scenarios, workers=2)
    assert [o.ok for o in batch] == [True, False, True]
    failure = batch.failures[0]
    assert failure.name == "boom"
    assert "ProtocolError" in failure.error
    assert batch.aggregates().keys() == {"ok", "also-ok"}
    assert "2/3 scenarios ok" in batch.summary()


# ------------------------------------------------------- budget accounting --


def test_shared_accountant_charged_per_releasing_scenario(template):
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    noisy = releasing(template).privacy(epsilon=0.2)
    batch = noisy.run_many(
        make_scenarios(3, iterations=ROUNDS), workers=2, accountant=accountant
    )
    assert batch.epsilon_charged == pytest.approx(0.6)
    assert accountant.spent == pytest.approx(0.6)
    assert [c.label for c in accountant.charges] == ["shock-0", "shock-1", "shock-2"]


def test_plaintext_scenarios_do_not_consume_budget(template):
    accountant = PrivacyAccountant(epsilon_max=0.01)
    batch = template.run_many(make_scenarios(4), workers=1, accountant=accountant)
    assert batch.epsilon_charged == 0.0
    assert accountant.spent == 0.0


def test_over_budget_batch_is_refused_whole(template):
    accountant = PrivacyAccountant(epsilon_max=0.5)
    noisy = releasing(template).privacy(epsilon=0.2)
    with pytest.raises(PrivacyBudgetExceeded, match="replenish"):
        noisy.run_many(
            make_scenarios(3, iterations=ROUNDS), workers=1, accountant=accountant
        )
    # refusal is atomic: nothing was charged for runs that never happened
    assert accountant.spent == 0.0
    # after replenishing, the same batch fits
    accountant.replenish()
    batch = noisy.run_many(
        make_scenarios(2, iterations=ROUNDS), workers=1, accountant=accountant
    )
    assert accountant.spent == pytest.approx(0.4)
    assert all(o.ok for o in batch)


def test_session_accountant_is_used_by_default(template):
    accountant = PrivacyAccountant()
    noisy = releasing(template).privacy(epsilon=0.1, accountant=accountant)
    noisy.run_many(make_scenarios(2, iterations=ROUNDS), workers=1)
    assert accountant.spent == pytest.approx(0.2)
