"""Engine backends: one protocol, five presets over two round bodies.

An :class:`Engine` turns ``(program, graph, iterations, config)`` into a
:class:`~repro.api.result.RunResult`. The clear engines are one
:class:`~repro.core.rounds.RoundLoop` in float or fixed-point
:class:`~repro.core.rounds.Arithmetic`; the secure engines are one
:class:`~repro.core.secure_engine.SecureRun`. A registry name only picks
the arithmetic and who drives the rounds:

=============  ==========================================================
``plaintext``  float arithmetic — the reference oracle
``fixed``      fixed-point arithmetic — clear circuit evaluation
``secure``     the full DStress protocol, window drained in place
``async``      float arithmetic, each communication step's bytes
               conveyed over a transport bus
               (:class:`~repro.api.async_engine.AsyncEngine`)
``secure-async``  the same secure window with its per-block batches
               dispatched over the transport bus, bit-identical to
               ``secure`` (:class:`~repro.api.secure_async.SecureAsyncEngine`)
=============  ==========================================================

All built-ins compute the *same function* pre-noise on the same graph
(the engine-parity tests assert it), so sweeps can trade fidelity for
speed by swapping one string. New backends (remote, ...) implement
:class:`Engine` and call :func:`~repro.api.registry.register_engine`.

Every built-in executes through the shared run lifecycle
(:func:`repro.core.lifecycle.run_lifecycle`): the backend contributes a
:class:`~repro.core.lifecycle.LifecycleCore` with the five stage bodies
(``setup``/``rounds``/``aggregate``/``noise``/``release``) while the
spine owns budget admission, stage timings, the ``run`` trace span, and
release bookkeeping. All engines therefore accept the release options
``release="oneshot"|"windowed"``, ``windows=[...]``, and
``window_epsilon=...`` — windowed continual release publishes one noised
value per round window and charges the accountant per window.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple, Union

from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.config import DStressConfig
from repro.core.engine import plaintext_loop
from repro.core.graph import DistributedGraph
from repro.core.lifecycle import (
    LifecycleCore,
    OneShotRelease,
    ReleasePolicy,
    RunState,
    resolve_release_policy,
    run_lifecycle,
)
from repro.core.program import VertexProgram, compiled_update_circuit
from repro.core.rounds import RoundLoop
from repro.core.secure_engine import SecureRun, check_backend, compile_secure_plans
from repro.crypto.rng import DeterministicRNG
from repro.obs.clock import now as clock_now
from repro.privacy.budget import PrivacyAccountant
from repro.privacy.mechanisms import geometric_release
from repro.simulation.netsim import meter_from_rounds

__all__ = [
    "Engine",
    "PlaintextFloatEngine",
    "PlaintextFixedEngine",
    "SecureDStressEngine",
]


class Engine(ABC):
    """One way of executing a vertex program over a distributed graph."""

    #: Registry name (also stamped on every result this engine produces).
    name: str = "abstract"
    #: Whether :meth:`execute` noises and releases an output — i.e. whether
    #: a run through this engine consumes differential-privacy budget. The
    #: session and batch layers charge the shared accountant based on this.
    #: A windowed release policy forces it on (continual release always
    #: publishes), which :meth:`_configure_release` reflects per instance.
    releases_output: bool = False

    @abstractmethod
    def execute(
        self,
        program: VertexProgram,
        graph: DistributedGraph,
        iterations: int,
        config: DStressConfig,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> RunResult:
        """Run ``program`` for ``iterations`` rounds and normalize the result."""

    def compile_plans(
        self, program: VertexProgram, graph: DistributedGraph, config: DStressConfig
    ) -> None:
        """Compile, into the process-wide plan table
        (:mod:`repro.mpc.plan`), the circuits one run of this engine will
        evaluate. The batch layer calls it in the parent before forking
        its pool so workers inherit the plans; engines that evaluate no
        circuit (the default) have nothing to do."""

    def _configure_release(
        self,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        """Resolve the constructor's release options into a policy.

        Called by every built-in ``__init__``; a policy that forces a
        release (windowed) flips ``releases_output`` on for this instance
        so the admission layers price the run correctly.
        """
        policy = resolve_release_policy(release, windows, window_epsilon)
        self._release_policy = policy
        self.releases_output = bool(type(self).releases_output or policy.forces_release)

    @property
    def release_policy(self) -> ReleasePolicy:
        """When (and at what budget) this engine's runs release output.

        Defaults to one-shot for engines (including third-party ones) that
        never called :meth:`_configure_release`.
        """
        policy = getattr(self, "_release_policy", None)
        return policy if policy is not None else OneShotRelease()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# -------------------------------------------------------- shared helpers --


def _central_release_noise(
    program: VertexProgram,
    config: DStressConfig,
    pre_noise: float,
    epsilon: float,
    end: int,
) -> Tuple[float, int]:
    """Central grid release (plaintext-family engines) through
    :func:`~repro.privacy.mechanisms.geometric_release`.

    The secure engine samples this mechanism inside MPC. The fork is keyed
    by the cumulative release round ``end``, so window ``j`` of any
    windowed schedule draws the same noise as the release at round ``end``
    of every other schedule reaching it — the bit-identity the windowed
    property test pins.
    """
    rng = DeterministicRNG(config.seed).fork(f"windowed-release-{end}")
    return geometric_release(
        pre_noise, program.sensitivity, epsilon, program.fmt.resolution, rng
    )


def _from_plaintext(
    engine_name: str,
    program: VertexProgram,
    loop: RoundLoop,
    iterations: int,
    started: float,
    graph: DistributedGraph,
) -> RunResult:
    """A clear round loop's state as a result in real units, with its
    phase timings and its per-link traffic from the round arithmetic
    (whatever bus carried it), so every engine's RunResult exposes the
    same telemetry shape."""
    decode = loop.arithmetic.decode
    return RunResult(
        engine=engine_name,
        program=program.name,
        aggregate=loop.aggregate(),
        trajectory=list(loop.trajectory),
        iterations=iterations,
        wall_seconds=clock_now() - started,
        # round-synchronous byte profile is exact arithmetic: one
        # fixed-point message per directed edge per routed round
        traffic=meter_from_rounds(graph, iterations, program.fmt.total_bits / 8.0),
        phases=loop.phases,
        final_states={vid: decode(state) for vid, state in loop.rows().items()},
    )


class _CentralNoiseCore(LifecycleCore):
    """Noise stage shared by the plaintext-family cores.

    Expects ``self.program`` / ``self.config`` on the concrete core. The
    default one-shot policy never releases for these engines (``epsilon``
    is ``None`` and the exact value passes through); a windowed policy
    noises each window centrally.
    """

    program: VertexProgram
    config: DStressConfig

    def noise(self, state, pre_noise, epsilon, end):
        if epsilon is None:
            return pre_noise, None
        return _central_release_noise(self.program, self.config, pre_noise, epsilon, end)


# ----------------------------------------------------- plaintext engines --


class _PlaintextCore(_CentralNoiseCore):
    """The clear round loop's stages: a resumable
    :class:`~repro.core.rounds.RoundLoop` in float or fixed arithmetic.

    The async core is this core with its windows' wire events conveyed
    over a bus (:meth:`~repro.core.lifecycle.LifecycleCore.drive`).
    """

    def __init__(self, engine, program, graph, config, fixed: bool = False) -> None:
        self.engine = engine
        self.program = program
        self.graph = graph
        self.config = config
        self.fixed = fixed
        self.loop: Optional[RoundLoop] = None

    def setup(self, state: RunState) -> None:
        self.loop = plaintext_loop(self.program, self.graph, self.fixed, state.phases)

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        self.drive(self.loop.window(rounds))
        state.trajectory = list(self.loop.trajectory)

    def aggregate(self, state: RunState) -> float:
        return self.loop.aggregate()

    def finalize(self, state: RunState, started: float) -> RunResult:
        return _from_plaintext(
            self.engine.name,
            self.program,
            self.loop,
            state.rounds_done,
            started,
            self.graph,
        )


class PlaintextFloatEngine(Engine):
    """The float reference semantics (what a trusted regulator computes)."""

    name = "plaintext"

    def __init__(
        self,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _PlaintextCore(self, program, graph, config)
        return run_lifecycle(self, core, program, config, iterations, accountant)


class PlaintextFixedEngine(Engine):
    """Clear evaluation of the MPC circuits — the secure engine's oracle."""

    name = "fixed"

    def __init__(
        self,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self._configure_release(release, windows, window_epsilon)

    def compile_plans(self, program, graph, config):
        compiled_update_circuit(program, graph.degree_bound)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _PlaintextCore(self, program, graph, config, fixed=True)
        return run_lifecycle(self, core, program, config, iterations, accountant)


# --------------------------------------------------------- secure engine --


class SecureDStressEngine(Engine):
    """The full DStress protocol stack (§3.3–§3.6).

    Every GMW evaluation is a lane batch with an offline/online phase
    split; ``backend`` picks the lanes: ``"scalar"`` (default) one Python
    int per wire, stdlib only (:meth:`GMWEngine.evaluate_batch
    <repro.mpc.gmw.GMWEngine.evaluate_batch>`), ``"bitsliced"`` numpy
    words (:mod:`repro.mpc.bitslice`), faster from about 64 blocks a
    step. Released outputs and metered traffic are bit-identical on both.
    ``buckets=[10,
    100]`` turns on the §3.7 degree buckets: each vertex runs the update
    circuit of the smallest bucket that holds its degree instead of the
    global bound.
    """

    name = "secure"
    releases_output = True

    def __init__(
        self,
        backend: str = "scalar",
        buckets: Optional[Sequence[int]] = None,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.backend = check_backend(backend, "engine 'secure'")
        self.buckets = None if buckets is None else tuple(buckets)
        self._configure_release(release, windows, window_epsilon)

    def compile_plans(self, program, graph, config):
        compile_secure_plans(
            program, config, graph, self.release_policy.epsilon_schedule(config)
        )

    def execute(self, program, graph, iterations, config, accountant=None):
        core = SecureRun(self, program, graph, config, self.buckets)
        return run_lifecycle(self, core, program, config, iterations, accountant)


register_engine("plaintext", PlaintextFloatEngine, aliases=("float", "clear"))
register_engine("fixed", PlaintextFixedEngine, aliases=("plaintext-fixed",))
register_engine("secure", SecureDStressEngine, aliases=("dstress",))
