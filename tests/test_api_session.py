"""The unified StressTest facade: registries, presets, engines, parity.

The contract under test: every registered engine backend executes the same
vertex program through the one ``Engine`` protocol and agrees on the
pre-noise aggregate — ``fixed`` and ``secure`` bit-for-bit (they
evaluate the same circuits), ``plaintext`` within quantization
error. Plus: config presets validate with actionable errors, iteration
auto-detection matches the trajectory, and the top-level names keep
importing without warnings.
"""

import warnings

import pytest

from conftest import execute

import repro
from repro import (
    DStressConfig,
    EisenbergNoeProgram,
    FinancialNetwork,
    RunResult,
    StressTest,
    available_engines,
    available_presets,
    available_programs,
)
from repro.api import (
    Engine,
    get_engine,
    get_program,
    register_engine,
)
from repro.core.convergence import convergence_index, has_converged
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.mpc.fixedpoint import FixedPointFormat


@pytest.fixture(scope="module")
def en_network():
    from repro.finance import Bank

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


@pytest.fixture(scope="module")
def secure_result(en_network):
    """One shared secure run through the facade (expensive: full MPC)."""
    return (
        StressTest(en_network)
        .program("eisenberg-noe")
        .engine("secure")
        .preset("demo")
        .privacy(epsilon=0.5)
        .seed(7)
        .degree_bound(2)
        .run(iterations=3)
    )


# ------------------------------------------------------------- registries --


def test_all_engine_families_registered():
    assert {"plaintext", "fixed", "secure", "async", "secure-async"} <= set(
        available_engines()
    )


def test_engine_aliases_resolve_to_same_backend():
    assert type(get_engine("float")) is type(get_engine("plaintext"))
    assert type(get_engine("dstress")) is type(get_engine("secure"))


def test_unknown_engine_error_lists_registered():
    with pytest.raises(ConfigurationError, match="secure"):
        get_engine("sceure")  # typo


def test_program_registry_and_aliases():
    assert {"eisenberg-noe", "elliott-golub-jackson"} <= set(available_programs())
    assert get_program("en").name == "eisenberg-noe"
    assert get_program("egj").name == "elliott-golub-jackson"
    with pytest.raises(ConfigurationError, match="eisenberg-noe"):
        get_program("eisenberg")


def test_custom_engine_registration_is_addressable(en_network):
    class EchoEngine(Engine):
        name = "test-echo"

        def execute(self, program, graph, iterations, config, accountant=None):
            return RunResult(
                engine=self.name,
                program=program.name,
                aggregate=float(graph.num_vertices),
                trajectory=[float(graph.num_vertices)],
                iterations=iterations,
                wall_seconds=0.0,
            )

    register_engine("test-echo", EchoEngine)
    result = (
        StressTest(en_network).program("en").engine("test-echo").run(iterations=1)
    )
    assert result.engine == "test-echo"
    assert result.aggregate == 4.0
    with pytest.raises(ConfigurationError, match="already registered"):
        register_engine("test-echo", EchoEngine)
    # a refused registration leaves no partial state: the corrected retry works
    with pytest.raises(ConfigurationError, match="already registered"):
        register_engine("test-echo2", EchoEngine, aliases=("secure",))
    register_engine("test-echo2", EchoEngine, aliases=("test-echo2-alias",))
    # replace=True over an alias spelling beats the stale alias on lookup
    class LoudEchoEngine(EchoEngine):
        pass

    register_engine("test-echo2-alias", LoudEchoEngine, replace=True)
    assert type(get_engine("test-echo2-alias")) is LoudEchoEngine
    assert type(get_engine("test-echo2")) is EchoEngine


# ---------------------------------------------------------------- presets --


def test_available_presets():
    assert available_presets() == ["demo", "paper", "production"]


def test_demo_preset_values():
    config = DStressConfig.preset("demo")
    assert config.group.name == "toy-64"
    assert config.block_size == 3
    assert config.output_epsilon == 0.5


def test_paper_preset_matches_evaluation_regime():
    config = DStressConfig.preset("paper")
    assert config.block_size == 8
    assert config.output_epsilon == 0.23


def test_unknown_preset_is_actionable():
    with pytest.raises(ConfigurationError, match="demo, paper, production"):
        DStressConfig.preset("laptop")


def test_preset_overrides_are_validated():
    assert DStressConfig.preset("demo", output_epsilon=0.1).output_epsilon == 0.1
    with pytest.raises(ConfigurationError, match="epsilon"):
        DStressConfig.preset("demo", output_epsilon=-1.0)


def test_with_updates_rejects_unknown_fields():
    config = DStressConfig()
    assert config.with_updates(seed=9).seed == 9
    with pytest.raises(ConfigurationError, match="output_epsilon"):
        config.with_updates(epsilon=0.5)  # the field is called output_epsilon


# ----------------------------------------------------- builder validation --


def test_missing_program_is_actionable(en_network):
    with pytest.raises(ConfigurationError, match="eisenberg-noe"):
        StressTest(en_network).run(iterations=2)


def test_missing_network_is_actionable():
    with pytest.raises(ConfigurationError, match="FinancialNetwork"):
        StressTest().program("en").run(iterations=2)


def test_custom_program_requires_explicit_graph(en_network):
    program = EisenbergNoeProgram(FixedPointFormat(16, 8))
    with pytest.raises(ConfigurationError, match="graph"):
        StressTest(en_network).program(program).run(iterations=2)
    graph = en_network.to_en_graph(degree_bound=2)
    result = StressTest(en_network).program(program).graph(graph).run(iterations=2)
    assert result.aggregate == pytest.approx(4.6667, abs=1e-3)


def test_program_config_format_mismatch_is_actionable(en_network):
    program = EisenbergNoeProgram(FixedPointFormat(20, 10))
    graph = en_network.to_en_graph(degree_bound=2)
    with pytest.raises(ConfigurationError, match="fixed-point format"):
        StressTest(en_network).program(program).graph(graph).run(iterations=2)


def test_preset_and_config_conflict_is_refused(en_network):
    session = (
        StressTest(en_network)
        .program("en")
        .preset("demo")
        .configure(DStressConfig())
    )
    with pytest.raises(ConfigurationError, match="preset"):
        session.run(iterations=2)


def test_bad_iterations_values(en_network):
    session = StressTest(en_network).program("en")
    with pytest.raises(ConfigurationError, match="auto"):
        session.run(iterations="eventually")
    with pytest.raises(ConfigurationError, match="at least 1"):
        session.run(iterations=0)
    with pytest.raises(ConfigurationError, match="positive int"):
        session.run(iterations=2.5)


def test_unknown_config_override_is_actionable(en_network):
    with pytest.raises(ConfigurationError, match="collusion_bound"):
        StressTest(en_network).program("en").configure(colusion_bound=3).run(
            iterations=2
        )


# ------------------------------------------------------- facade execution --


def test_plaintext_facade_matches_direct_engine(en_network):
    direct = execute(
        "plaintext",
        EisenbergNoeProgram(FixedPointFormat(16, 8)),
        en_network.to_en_graph(degree_bound=2),
        3,
    )
    facade = (
        StressTest(en_network)
        .program("eisenberg-noe")
        .engine("plaintext")
        .degree_bound(2)
        .run(iterations=3)
    )
    assert facade.aggregate == direct.aggregate
    assert facade.trajectory == direct.trajectory
    assert facade.final_states == direct.final_states
    assert facade.converged_at() == direct.converged_at()
    assert facade.epsilon is None and not facade.releases_output


def test_auto_iterations_matches_trajectory_convergence(en_network):
    result = (
        StressTest(en_network).program("en").engine("plaintext").run(iterations="auto")
    )
    assert result.converged(tolerance=1e-9)
    # the chosen count is exactly the probe trajectory's settle point
    probe = execute(
        "plaintext", EisenbergNoeProgram(FixedPointFormat(16, 8)), en_network.to_en_graph(), 8
    )
    assert result.iterations == probe.converged_at()


def test_auto_iterations_surfaces_non_convergence(en_network):
    with pytest.raises(ConvergenceError, match="max_iterations"):
        StressTest(en_network).program("en").run(
            iterations="auto", tolerance=0.0, max_iterations=1
        )


def test_network_stress_test_entry_point(en_network):
    session = en_network.stress_test()
    assert isinstance(session, StressTest)
    result = session.program("en").run(iterations=2)
    assert result.program == "eisenberg-noe"


# ---------------------------------------------------------- engine parity --


def test_engine_parity_pre_noise(en_network, secure_result):
    """All engine families compute the same function on the same graph."""
    template = StressTest(en_network).program("en").preset("demo").degree_bound(2)
    floats = template.clone().engine("plaintext").run(iterations=3)
    fixed = template.clone().engine("fixed").run(iterations=3)
    # circuit-evaluating backends agree bit for bit
    assert fixed.exact_aggregate == secure_result.pre_noise_aggregate
    assert fixed.trajectory == secure_result.trajectory
    # float oracle within quantization error of the circuits
    assert floats.aggregate == pytest.approx(fixed.aggregate, abs=0.1)
    # the releasing engine actually noised its headline number
    assert secure_result.noise_raw == round(
        (secure_result.aggregate - secure_result.pre_noise_aggregate) * 2**8
    )


def test_secure_result_shape(secure_result):
    assert secure_result.engine == "secure"
    assert secure_result.releases_output and secure_result.epsilon == 0.5
    assert secure_result.traffic is not None and secure_result.phases is not None
    assert secure_result.extras["transfer_count"] > 0
    assert secure_result.iterations == 3
    # the simulation-only trajectory reaches the pre-noise aggregate
    assert secure_result.trajectory[-1] == secure_result.pre_noise_aggregate
    assert secure_result.converged_at(tolerance=1e-9) is not None
    assert "secure" in secure_result.summary()


# ------------------------------------------------------------- convergence --


def test_convergence_index_semantics():
    assert convergence_index([1.0, 2.0, 2.0]) == 2
    assert convergence_index([1.0, 2.0, 3.0]) is None
    assert convergence_index([]) is None
    assert convergence_index([1.0, 1.5, 1.6], tolerance=0.2) == 2
    assert has_converged([1.0, 2.0, 2.0]) and not has_converged([5.0])
    with pytest.raises(ConfigurationError):
        convergence_index([1.0, 1.0], tolerance=-1.0)


def test_plaintext_run_converged_at(en_network):
    run = execute(
        "plaintext", EisenbergNoeProgram(FixedPointFormat(16, 8)), en_network.to_en_graph(), 8
    )
    settle = run.converged_at()
    assert settle is not None
    assert run.trajectory[settle] == pytest.approx(run.aggregate)


# ---------------------------------------------------------- public imports --


def test_pre_existing_public_imports_unchanged():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none of these may warn
        from repro import (  # noqa: F401
            Bank,
            DStressConfig,
            DistributedGraph,
            DollarPrivacySpec,
            EisenbergNoeProgram,
            ElliottGolubJacksonProgram,
            FinancialNetwork,
            FixedPointFormat,
            NO_OP_MESSAGE,
            PrivacyAccountant,
            ProgramSpec,
            VertexProgram,
            VertexView,
            clearing_vector,
            egj_fixpoint,
        )

    assert repro.__version__ == "1.1.0"
