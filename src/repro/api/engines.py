"""Engine backends: one protocol, three engines over two round bodies.

An :class:`Engine` turns ``(program, graph, iterations, config)`` into a
:class:`~repro.api.result.RunResult`. The clear engines are one
:class:`~repro.core.rounds.RoundLoop` in float or fixed-point
:class:`~repro.core.rounds.Arithmetic`; the secure engine is one
:class:`~repro.core.secure_engine.SecureRun`. Every built-in is a
:class:`BusEngine`: each window's wire events go to a bus (drained in
place on the default memory bus). ``plaintext`` and ``secure`` take the
bus options — ``transport`` picks the bus, ``tasks`` bounds the conveys
in flight; ``fixed`` always runs on the memory bus. A registry name only
picks the arithmetic:

=============  ==========================================================
``plaintext``  float arithmetic — the reference oracle
``fixed``      fixed-point arithmetic — clear circuit evaluation
``secure``     the full DStress protocol, each block batch's bytes
               handed to the bus
=============  ==========================================================

``async`` is a registry alias of ``plaintext``, ``secure-async`` one of
``secure``.

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
from repro.core.rounds import RoundLoop, WindowEvents
from repro.core.secure_engine import SecureRun, check_backend, compile_secure_plans
from repro.core.transport import (
    Transport,
    attach_bus_extras,
    check_transport_spec,
    transport_from_spec,
    wan_totals,
)
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.obs.clock import now as clock_now
from repro.privacy.budget import PrivacyAccountant
from repro.privacy.mechanisms import geometric_release
from repro.simulation.netsim import meter_from_rounds

__all__ = [
    "Engine",
    "BusCore",
    "BusEngine",
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


# ------------------------------------------------------------ bus engines --


class BusCore:
    """The bus lifecycle every built-in core runs under, mixed in ahead of
    the in-process run whose stages it wraps.

    Setup resolves the engine's transport spec, snapshots the bus's WAN
    totals and opens it once for the whole execution; :meth:`drive` hands
    each window to the bus (:meth:`~repro.core.transport.Transport.drive`:
    drained in place on the memory bus, a fresh
    :class:`~repro.core.rounds.RoundScheduler` on every other); finalize
    stamps what the bus saw onto the result and closes an engine-owned
    bus.
    """

    bus: Optional[Transport] = None

    def setup(self, state: RunState) -> None:
        self.bus = transport_from_spec(self.engine.transport, self.config)
        # A caller-supplied Transport instance may be reused across runs;
        # snapshot its totals so the extras below report *this* run.
        self.before = wan_totals(self.bus)
        super().setup(state)
        self.bus.open(self.graph)

    def drive(self, events: WindowEvents) -> None:
        self.bus.drive(events, self.engine.tasks)

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        attach_bus_extras(result, self.bus, self.before)
        self.close()
        return result

    def close(self, error: Optional[BaseException] = None) -> None:
        """Tear down an engine-owned bus (a "tcp" spec owns sockets and an
        io thread); a caller-supplied instance stays open — its mesh may
        span further runs."""
        if self.bus is not None and self.bus is not self.engine.transport:
            self.bus.close(error=error)
            self.bus = None


class BusEngine(Engine):
    """What every built-in engine shares: a run on a bus that closes its
    engine-owned bus however it ends, and the ``tasks`` and ``transport``
    options (which ``fixed`` pins to the memory bus).

    ``tasks`` bounds how many conveys may be in flight at once;
    ``transport`` picks the bus (``"memory"``, ``"wan"``, ``"tcp"``, or a
    :class:`~repro.core.transport.Transport` instance).
    """

    #: The :class:`BusCore` a run drives.
    core: type

    def __init__(
        self,
        tasks: int = 4,
        transport: Union[str, Transport] = "memory",
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        # a positive int (``bool`` is not)
        if isinstance(tasks, bool) or not isinstance(tasks, int) or tasks < 1:
            raise ConfigurationError(
                f"engine {self.name!r}: tasks must be a positive int, got {tasks!r}"
            )
        self.tasks = tasks
        self.transport = check_transport_spec(transport)
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = self.core(self, program, graph, config)
        try:
            return run_lifecycle(self, core, program, config, iterations, accountant)
        except BaseException as exc:
            core.close(error=exc)
            raise


# ----------------------------------------------------- plaintext engines --


class _ClearRun(LifecycleCore):
    """The clear round loop's stages: a resumable
    :class:`~repro.core.rounds.RoundLoop` in the arithmetic
    ``engine.fixed`` picks, each window's wire events (one fixed-point
    word per routed link per communication step) handed to :meth:`drive`.

    The default one-shot policy never releases a clear run (``epsilon``
    is ``None`` and the exact value passes through); a windowed policy
    noises each window centrally.
    """

    loop: RoundLoop

    def __init__(self, engine, program, graph, config) -> None:
        self.engine = engine
        self.program = program
        self.graph = graph
        self.config = config

    def setup(self, state: RunState) -> None:
        self.loop = plaintext_loop(self.program, self.graph, self.engine.fixed, state.phases)

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        self.drive(self.loop.window(rounds))
        state.trajectory = list(self.loop.trajectory)

    def aggregate(self, state: RunState) -> float:
        return self.loop.aggregate()

    def noise(self, state, pre_noise, epsilon, end) -> Tuple[float, Optional[int]]:
        """Central grid release through
        :func:`~repro.privacy.mechanisms.geometric_release` (the secure
        engine samples this mechanism inside MPC). The fork is keyed by
        the cumulative release round ``end``, so window ``j`` of any
        windowed schedule draws the same noise as the release at round
        ``end`` of every other schedule reaching it."""
        if epsilon is None:
            return pre_noise, None
        rng = DeterministicRNG(self.config.seed).fork(f"windowed-release-{end}")
        program = self.program
        return geometric_release(
            pre_noise, program.sensitivity, epsilon, program.fmt.resolution, rng
        )

    def finalize(self, state: RunState, started: float) -> RunResult:
        """The loop's state as a result in real units, with its phase
        timings and its per-link traffic from the round arithmetic
        (whatever bus carried it): one fixed-point message per directed
        edge per routed round."""
        loop, program = self.loop, self.program
        decode = loop.arithmetic.decode
        return RunResult(
            engine=self.engine.name,
            program=program.name,
            aggregate=loop.aggregate(),
            trajectory=list(loop.trajectory),
            iterations=state.rounds_done,
            wall_seconds=clock_now() - started,
            traffic=meter_from_rounds(
                self.graph, state.rounds_done, program.fmt.total_bits / 8.0
            ),
            phases=loop.phases,
            final_states={vid: decode(row) for vid, row in loop.rows().items()},
        )


class _PlaintextCore(BusCore, _ClearRun):
    """:class:`_ClearRun` under the bus lifecycle, as ``_SecureCore`` is
    :class:`~repro.core.secure_engine.SecureRun`."""


class PlaintextFloatEngine(BusEngine):
    """The float reference semantics (what a trusted regulator computes).

    Values are routed in process, so a bus never carries one: it carries
    each communication step's byte volume and pays its link delays
    (``transport="wan"`` for the simulated WAN, ``"tcp"`` or a
    :class:`~repro.core.transport.Transport` instance for real sockets).
    The result is bit-identical on every bus at every ``tasks`` level.
    """

    name = "plaintext"
    core = _PlaintextCore
    #: the arithmetic :class:`_ClearRun` steps
    fixed = False


class PlaintextFixedEngine(BusEngine):
    """Clear evaluation of the MPC circuits — the secure engine's oracle.

    It takes only the release options and runs on the memory bus.
    """

    name = "fixed"
    core = _PlaintextCore
    fixed = True
    tasks = 1
    transport = "memory"

    def __init__(
        self,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self._configure_release(release, windows, window_epsilon)

    def compile_plans(self, program, graph, config):
        compiled_update_circuit(program, graph.degree_bound)


# --------------------------------------------------------- secure engine --


class _SecureCore(BusCore, SecureRun):
    """:class:`~repro.core.secure_engine.SecureRun` under the bus
    lifecycle: setup, the window body, aggregation and noising are the
    run's (the aggregation tree is a final local phase, not a round);
    each window's wire events go to the bus."""


class SecureDStressEngine(BusEngine):
    """The full DStress protocol stack (§3.3–§3.6).

    Every GMW evaluation is a lane batch with an offline/online phase
    split; ``backend`` picks the lanes: ``"scalar"`` (default) one Python
    int per wire, stdlib only (:meth:`GMWEngine.evaluate_batch
    <repro.mpc.gmw.GMWEngine.evaluate_batch>`), ``"bitsliced"`` numpy
    words (:mod:`repro.mpc.bitslice`), faster from about 64 blocks a
    step. Released outputs and metered traffic are bit-identical on both.
    ``buckets=[10, 100]`` turns on the §3.7 degree buckets: each vertex
    runs the update circuit of the smallest bucket that holds its degree
    instead of the global bound. ``transport`` picks the bus the block
    batches are handed to and ``tasks`` bounds the batches in flight
    (:class:`BusEngine`); released outputs are bit-identical on every bus.
    """

    name = "secure"
    releases_output = True
    core = _SecureCore

    def __init__(
        self,
        tasks: int = 4,
        transport: Union[str, Transport] = "memory",
        backend: str = "scalar",
        buckets: Optional[Sequence[int]] = None,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.backend = check_backend(backend, "engine 'secure'")
        self.buckets = None if buckets is None else tuple(buckets)
        super().__init__(tasks, transport, release, windows, window_epsilon)

    def compile_plans(self, program, graph, config):
        compile_secure_plans(
            program, config, graph, self.release_policy.epsilon_schedule(config)
        )


# ``async`` and ``secure-async`` stay names for ``plaintext`` and
# ``secure`` while the benchmark spine's frozen workloads run them
register_engine("plaintext", PlaintextFloatEngine, aliases=("float", "clear", "async"))
register_engine("fixed", PlaintextFixedEngine, aliases=("plaintext-fixed",))
register_engine("secure", SecureDStressEngine, aliases=("dstress", "secure-async"))
