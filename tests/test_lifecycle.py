"""The shared run lifecycle: stage parity, the release seam, admission.

Every backend executes through :func:`repro.core.lifecycle.run_lifecycle`;
these tests pin the guarantees that refactor introduced:

* **Stage parity** — all seven engines emit the same ordered ``stage:*``
  phase names through the one ``timed_phase`` path.
* **Continual release** — ``release="windowed"`` splits the §3.6 round
  schedule into windows, each publishing its own noised value; every
  window's release is bit-identical to the release an equivalent
  standalone run ending at the same round would publish, the sum of
  per-window charges equals the accountant's ledger ``spent``, and the
  ledger reconciles.
* **Convergence unification** — ``converged_at`` is one definition
  (:meth:`~repro.api.result.RunResult.converged_at`), so the plaintext
  and secure engines report the same stopping round on the seed network.
* **Admission** — :func:`repro.privacy.admission.precharge` charges a
  whole schedule atomically and refunds exactly the windows that never
  released.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Bank,
    FinancialNetwork,
    PrivacyAccountant,
    StressTest,
)
from repro.core.lifecycle import (
    MAX_WINDOWS,
    STAGES,
    OneShotRelease,
    WindowedRelease,
    resolve_release_policy,
)
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import (
    ConfigurationError,
    ScenarioValidationError,
)
from repro.finance import apply_shock, uniform_shock
from repro.graphgen import core_periphery_network
from repro.graphgen.core_periphery import CorePeripheryParams
from repro.mpc.fixedpoint import FixedPointFormat
from repro.privacy.admission import (
    Precharge,
    precharge,
    release_epsilon,
    release_schedule,
)
from repro.service.scenario_ast import validate_scenario

ALL_ENGINES = (
    "plaintext",
    "fixed",
    "async",
    "secure",
    "secure-async",
)

#: Engines whose released values are floats of the plaintext oracle
#: family — their windowed releases are bit-comparable to standalone
#: runs (the secure family's noise stream position differs by design;
#: its *pre-noise* values are compared instead).
FLOAT_FAMILY = ("plaintext", "fixed", "async")

WINDOW_EPSILON = 0.1


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


def run_windowed(engine: str, windows, iterations: int, accountant=None):
    session = make_test().engine(
        engine, release="windowed", windows=windows, window_epsilon=WINDOW_EPSILON
    )
    if accountant is not None:
        session.privacy(accountant=accountant)
    return session.run(iterations=iterations)


# ------------------------------------------------------------ stage parity --


class TestStageParity:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_every_engine_emits_the_same_ordered_stages(self, engine):
        result = make_test().engine(engine).run(iterations=2)
        stages = [
            key for key in result.phases.seconds if key.startswith("stage:")
        ]
        assert stages == [f"stage:{name}" for name in STAGES]

    def test_stage_timings_are_nonnegative(self):
        result = make_test().engine("plaintext").run(iterations=2)
        for name in STAGES:
            assert result.phases.seconds[f"stage:{name}"] >= 0.0

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_windowed_run_repeats_round_stages_per_window(self, engine):
        result = run_windowed(engine, [2, 2], 4)
        stages = [
            key for key in result.phases.seconds if key.startswith("stage:")
        ]
        # PhaseTimer accumulates by key: the order is still the canonical
        # stage order even though rounds..release ran once per window
        assert stages == [f"stage:{name}" for name in STAGES]
        assert result.extras["windows"] == 2.0


# ------------------------------------------------------- windowed releases --


class TestWindowedRelease:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_one_release_record_per_window(self, engine):
        result = run_windowed(engine, [2, 2], 4)
        assert [r.window for r in result.releases] == [0, 1]
        assert [r.end for r in result.releases] == [2, 4]
        assert all(r.epsilon == WINDOW_EPSILON for r in result.releases)
        # the headline fields describe the last window's release
        last = result.releases[-1]
        assert result.aggregate == last.value
        assert result.pre_noise_aggregate == last.pre_noise
        assert result.noise_raw == last.noise_raw

    @pytest.mark.parametrize("engine", FLOAT_FAMILY)
    def test_windows_bit_identical_to_standalone_runs(self, engine):
        split = run_windowed(engine, [2, 2], 4)
        first = run_windowed(engine, [2], 2)
        second = run_windowed(engine, [4], 4)
        assert split.releases[0].value == first.releases[0].value
        assert split.releases[0].noise_raw == first.releases[0].noise_raw
        assert split.releases[1].value == second.releases[0].value
        assert split.releases[1].noise_raw == second.releases[0].noise_raw

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_windowed_pre_noise_matches_oneshot(self, engine):
        windowed = run_windowed(engine, [2, 2], 4)
        oneshot = make_test().engine(engine).run(iterations=4)
        assert windowed.trajectory == oneshot.trajectory
        assert windowed.exact_aggregate == oneshot.exact_aggregate

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_per_window_charges_sum_to_ledger_spent(self, engine):
        accountant = PrivacyAccountant(epsilon_max=4.0)
        result = run_windowed(engine, [1, 2, 1], 4, accountant=accountant)
        charged = sum(r.epsilon for r in result.releases)
        assert accountant.spent == pytest.approx(charged)
        assert result.epsilon == pytest.approx(charged)
        reconciliation = accountant.reconcile()
        assert reconciliation.ok
        assert [c.label for c in accountant.ledger] == [
            "eisenberg-noe-release-w1",
            "eisenberg-noe-release-w2",
            "eisenberg-noe-release-w3",
        ]

    @pytest.mark.parametrize("engine", FLOAT_FAMILY)
    def test_one_window_over_the_run_releases_once_at_the_end(self, engine):
        """``windows=[iterations]`` is the clear engines' one-release
        configuration: one record at the last round, one ledger charge,
        under the one-shot label, and the same rounds as the one-shot run."""
        accountant = PrivacyAccountant(epsilon_max=1.0)
        single = run_windowed(engine, [4], 4, accountant=accountant)
        oneshot = make_test().engine(engine).run(iterations=4)
        assert [(r.window, r.end) for r in single.releases] == [(0, 4)]
        assert single.aggregate == single.releases[0].value
        assert single.trajectory == oneshot.trajectory
        assert single.exact_aggregate == oneshot.exact_aggregate
        assert [c.label for c in accountant.ledger] == ["eisenberg-noe-release"]
        assert accountant.spent == pytest.approx(WINDOW_EPSILON)

    @settings(max_examples=12, deadline=None)
    @given(
        windows=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)
    )
    def test_windowed_schedule_property(self, windows):
        """Any window split of the round schedule charges exactly its
        per-window epsilons, reconciles, and each window's release is
        bit-identical to a standalone windowed run ending at the same
        cumulative round."""
        iterations = sum(windows)
        accountant = PrivacyAccountant(epsilon_max=float(len(windows)))
        split = run_windowed("plaintext", windows, iterations, accountant=accountant)
        assert len(split.releases) == len(windows)
        assert accountant.spent == pytest.approx(
            sum(r.epsilon for r in split.releases)
        )
        assert accountant.reconcile().ok
        for record in split.releases:
            standalone = run_windowed("plaintext", [record.end], record.end)
            assert record.value == standalone.releases[0].value
            assert record.noise_raw == standalone.releases[0].noise_raw

    def test_failed_schedule_refunds_everything(self):
        accountant = PrivacyAccountant(epsilon_max=4.0)
        with pytest.raises(ConfigurationError):
            # windows cover 4 rounds, the run asks for 5: refused before
            # any round executes — and the budget must stay untouched
            run_windowed("plaintext", [2, 2], 5, accountant=accountant)
        assert accountant.spent == 0
        assert accountant.reconcile().ok


class TestGridRelease:
    """Every published number is a fixed-point grid value plus integer
    geometric noise: no engine publishes bits below the LSB."""

    RESOLUTION = FixedPointFormat(16, 8).resolution

    def assert_on_grid(self, record):
        steps = round(record.pre_noise / self.RESOLUTION) + record.noise_raw
        assert record.value == steps * self.RESOLUTION
        assert (record.value / self.RESOLUTION).is_integer()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_every_release_record_is_a_grid_point(self, engine):
        for record in run_windowed(engine, [1, 1], 2).releases:
            self.assert_on_grid(record)

    def test_measured_core_periphery_case(self):
        """Off-grid float aggregates (537.357… and 562.157… LSBs) snap
        before the noise; the circuit-oracle engines were already on the
        grid and publish what they always did."""
        network = apply_shock(
            core_periphery_network(
                CorePeripheryParams(num_banks=8, core_size=2), DeterministicRNG(11)
            ),
            uniform_shock([0, 1], 0.6),
        )
        released = {}
        for engine in ("plaintext", "async", "fixed"):
            result = (
                StressTest(network)
                .program("eisenberg-noe")
                .preset("demo")
                .engine(engine, release="windowed", windows=[1, 1], window_epsilon=0.2)
                .run(iterations=2)
            )
            for record in result.releases:
                self.assert_on_grid(record)
            released[engine] = [r.value / self.RESOLUTION for r in result.releases]
        for engine in ("plaintext", "async"):
            assert released[engine] == [3388.0, 13432.0]
        assert released["fixed"] == [3386.0, 13428.0]


# ---------------------------------------------------------- release policy --


class TestReleasePolicy:
    def test_oneshot_is_the_default(self):
        policy = resolve_release_policy()
        assert isinstance(policy, OneShotRelease)
        assert policy.window_schedule(7) == [7]

    def test_windows_require_windowed_release(self):
        with pytest.raises(ConfigurationError):
            resolve_release_policy("oneshot", windows=[2, 2])
        with pytest.raises(ConfigurationError):
            resolve_release_policy("windowed")
        with pytest.raises(ConfigurationError):
            resolve_release_policy("bogus")

    def test_window_counts_validated(self):
        with pytest.raises(ConfigurationError):
            WindowedRelease(())
        with pytest.raises(ConfigurationError):
            WindowedRelease((2, 0))
        with pytest.raises(ConfigurationError):
            WindowedRelease(tuple([1] * (MAX_WINDOWS + 1)))

    def test_unaffordable_window_epsilon_refused(self):
        # demo preset budget is far below 8 x 1.0
        with pytest.raises(ConfigurationError):
            make_test().engine(
                "plaintext", release="windowed", windows=[1] * 8, window_epsilon=1.0
            ).run(iterations=8)

    def test_policy_object_rejects_redundant_options(self):
        with pytest.raises(ConfigurationError):
            resolve_release_policy(WindowedRelease((2,)), windows=[2])


# ------------------------------------------------------------- convergence --


class TestConvergenceUnification:
    @pytest.mark.parametrize("tolerance", [1e-6, 1e-3, 1e-2])
    def test_plaintext_and_secure_agree_on_stopping_round(self, tolerance):
        plain = make_test().engine("plaintext").run(iterations=6)
        secure = make_test().engine("secure").run(iterations=6)
        assert plain.converged_at(tolerance) == secure.converged_at(tolerance)
        assert plain.converged_at(tolerance) is not None


# --------------------------------------------------------------- admission --


class TestAdmission:
    def test_release_schedule_itemizes_windows(self):
        engine = make_test().engine(
            "plaintext", release="windowed", windows=[2, 2], window_epsilon=0.1
        )
        resolved = engine.resolve(4)
        schedule = release_schedule(resolved.engine, resolved.config, "risk")
        assert schedule == [("risk-w1", 0.1), ("risk-w2", 0.1)]
        assert release_epsilon(resolved.engine, resolved.config) == pytest.approx(0.2)

    def test_non_releasing_engine_has_empty_schedule(self):
        resolved = make_test().engine("plaintext").resolve(2)
        assert release_schedule(resolved.engine, resolved.config, "risk") == []
        assert release_epsilon(resolved.engine, resolved.config) == 0.0

    def test_precharge_is_atomic(self):
        accountant = PrivacyAccountant(epsilon_max=0.25)
        from repro.exceptions import PrivacyBudgetExceeded

        with pytest.raises(PrivacyBudgetExceeded):
            precharge(accountant, [("a-w1", 0.2), ("a-w2", 0.2)])
        # the first window's charge was rolled back with the refusal
        assert accountant.spent == 0
        assert accountant.reconcile().ok

    def test_refund_returns_only_unconfirmed_charges(self):
        accountant = PrivacyAccountant(epsilon_max=1.0)
        admitted = precharge(accountant, [("a-w1", 0.2), ("a-w2", 0.2)])
        assert isinstance(admitted, Precharge)
        assert admitted.epsilon == pytest.approx(0.4)
        admitted.confirm()
        admitted.refund()  # window 1 released; window 2 never did
        assert accountant.spent == pytest.approx(0.2)
        assert accountant.reconcile().ok

    def test_precharge_without_accountant_is_none(self):
        assert precharge(None, [("a", 0.1)]) is None
        assert precharge(PrivacyAccountant(epsilon_max=1.0), []) is None


# ------------------------------------------------------------- scenario AST --


class TestWindowedScenarioAST:
    def doc(self, **engine_options):
        return {
            "version": 1,
            "name": "windowed-wire",
            "network": {
                "generator": "core-periphery",
                "params": {"num_banks": 16, "core_size": 4},
                "seed": 7,
            },
            "program": "eisenberg-noe",
            "engine": {"name": "plaintext", "options": engine_options},
            "epsilon": 0.4,
            "iterations": 4,
        }

    def test_windowed_options_validate(self):
        validated = validate_scenario(
            self.doc(release="windowed", windows=[2, 2], window_epsilon=0.2)
        )
        assert validated.engine_options["windows"] == (2, 2)

    def test_windows_must_sum_to_iterations(self):
        with pytest.raises(ScenarioValidationError):
            validate_scenario(
                self.doc(release="windowed", windows=[2, 3], window_epsilon=0.2)
            )

    def test_windows_require_windowed(self):
        with pytest.raises(ScenarioValidationError):
            validate_scenario(self.doc(windows=[2, 2]))

    def test_auto_iterations_rejected_for_windowed(self):
        doc = self.doc(release="windowed", windows=[2, 2], window_epsilon=0.2)
        doc["iterations"] = "auto"
        with pytest.raises(ScenarioValidationError):
            validate_scenario(doc)
