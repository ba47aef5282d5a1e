"""Engine backends: one protocol, seven presets over two round bodies.

An :class:`Engine` turns ``(program, graph, iterations, config)`` into a
:class:`~repro.api.result.RunResult`. The clear engines are one
:class:`~repro.core.rounds.RoundLoop` in float or fixed-point
:class:`~repro.core.rounds.Arithmetic`; the secure engines are one
:meth:`SecureEngine._window <repro.core.secure_engine.SecureEngine._window>`
body. A registry name only picks the arithmetic and who drives the rounds:

=============  ==========================================================
``plaintext``  float arithmetic — the reference oracle
``fixed``      fixed-point arithmetic — clear circuit evaluation
``secure``     the full DStress protocol, window drained in place
``naive-mpc``  the §5.5 monolithic-MPC baseline (computes the same
               function centrally, projects the monolithic GMW cost)
``sharded``    float arithmetic, the superstep fanned across worker
               processes (:class:`~repro.api.sharded.ShardedEngine`)
``async``      float arithmetic as per-vertex asyncio pipelines over a
               transport bus, overlapping computation with deliveries
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
from repro.core.rounds import RoundLoop, WindowEvents
from repro.core.secure_engine import SecureEngine, check_backend, compile_secure_plans
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.obs.clock import now as clock_now
from repro.obs.trace import timed_phase
from repro.privacy.budget import PrivacyAccountant
from repro.privacy.mechanisms import geometric_release
from repro.simulation.naive_baseline import estimate_monolithic_seconds
from repro.simulation.netsim import TrafficMeter, meter_from_rounds

__all__ = [
    "Engine",
    "PlaintextFloatEngine",
    "PlaintextFixedEngine",
    "SecureDStressEngine",
    "NaiveMPCEngine",
    "validate_intra_run_width",
]


def validate_intra_run_width(width, owner: str) -> int:
    """The one rule for what counts as a valid intra-run width.

    Shared by :attr:`Engine.intra_run_width` and the batch planner so the
    two layers can never drift on the rule or the error text.
    """
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ConfigurationError(
            f"engine {owner!r} declared an invalid shard width / task "
            f"concurrency {width!r}; intra-run width must be a positive int"
        )
    return width


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

    def release_label(self, program_name: str) -> str:
        """Audit-ledger label for this engine's releases of ``program_name``."""
        return f"{program_name}-release"

    @property
    def intra_run_width(self) -> int:
        """Widest parallelism one run of this engine deploys internally.

        The batch layer multiplies this into its worker planning so
        ``workers x width`` never oversubscribes the CPU budget. The
        default recognizes the two conventional declarations — process
        ``shards`` (sharded) and asyncio ``tasks`` (async) — and raises
        on an invalid declared value, so every caller (not just the
        batch planner) gets a loud per-engine error rather than a
        nonsensical width. Engines whose ``shards``/``tasks`` attributes
        mean something else should override this property.
        """
        declared = []
        for attr in ("shards", "tasks"):
            value = getattr(self, attr, None)
            if value is None:
                continue
            # any declared value is validated — a non-int declaration
            # (tasks="16") silently meaning width 1 would hide the
            # misdeclaration and defeat the oversubscription cap
            declared.append(validate_intra_run_width(value, self.name))
        return max(declared) if declared else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# -------------------------------------------------------- shared helpers --


def _central_release_noise(
    program: VertexProgram,
    config: DStressConfig,
    pre_noise: float,
    epsilon: float,
    end: int,
    fork_label: Optional[str] = None,
) -> Tuple[float, int]:
    """Central grid release (plaintext-family engines and the naive
    baseline) through :func:`~repro.privacy.mechanisms.geometric_release`.

    The secure engine samples this mechanism inside MPC. The fork is keyed
    by the cumulative release round ``end``, so window ``j`` of any
    windowed schedule draws the same noise as the release at round ``end``
    of every other schedule reaching it — the bit-identity the windowed
    property test pins. ``fork_label`` overrides the key for the naive
    baseline's historical one-shot stream.
    """
    label = fork_label if fork_label is not None else f"windowed-release-{end}"
    rng = DeterministicRNG(config.seed).fork(label)
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
    phase timings and a synthesized per-link traffic meter, so every
    engine's RunResult exposes the same telemetry shape."""
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
        final_states={vid: decode(state) for vid, state in loop.states.items()},
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

    The sharded and async cores are this core with a different driver for
    the same loop (a pooled superstep, per-vertex pipelines over a bus).
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
        self.loop.advance(rounds)
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


class _SecureCore(LifecycleCore):
    """The full protocol's stages, driving :class:`SecureEngine` windows.

    The two classes are designed together: the core walks the engine's
    window/aggregation internals (``_begin_run``/``_window``/
    ``_aggregation_tree``/``_noise_and_reveal``) in transcript order —
    the only order a secure run performs its crypto in. The async variant in
    :mod:`repro.api.secure_async` overrides only :meth:`drive`, handing
    the same window's events to a scheduler over a transport bus.
    """

    def __init__(self, engine, program, graph, config, buckets=None) -> None:
        self.engine = engine
        self.program = program
        self.graph = graph
        self.config = config
        self.buckets = buckets
        self.inner = SecureEngine(program, config, backend=engine.backend)
        self.ctx = None
        self.tree = None

    def setup(self, state: RunState) -> None:
        self.ctx = self.inner._begin_run(
            self.graph, sum(state.windows), self.buckets, phases=state.phases
        )

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        self.drive(self.inner._window(self.ctx, rounds, first))
        state.trajectory = list(self.ctx.trajectory)

    def drive(self, events: WindowEvents) -> None:
        """Consume one window's wire events; in process there is no wire,
        so the bytes (already metered by the window body) go nowhere."""
        for _event in events:
            pass

    def aggregate(self, state: RunState) -> float:
        # the aggregation tree consumes shared randomness, so it runs once
        # per window and hands its root inputs forward to the noise stage
        with timed_phase(self.ctx.phases, "aggregation"):
            self.tree = self.inner._aggregation_tree(self.ctx)
        return self.tree[3] * self.program.fmt.resolution

    def noise(self, state, pre_noise, epsilon, end):
        root_inputs, root_width, _levels, pre_noise_raw = self.tree
        with timed_phase(self.ctx.phases, "aggregation"):
            noisy_raw = self.inner._noise_and_reveal(
                self.ctx, root_inputs, root_width, epsilon
            )
        return noisy_raw * self.program.fmt.resolution, noisy_raw - pre_noise_raw

    def finalize(self, state: RunState, started: float) -> RunResult:
        # a secure run always releases, so the lifecycle stamps the released
        # fields (aggregate / pre-noise / noise / epsilon) from its records
        ctx = self.ctx
        _root_inputs, _root_width, levels, _pre_noise_raw = self.tree
        return RunResult(
            engine=self.engine.name,
            program=self.program.name,
            aggregate=state.releases[-1].value,
            trajectory=list(ctx.trajectory),
            iterations=state.rounds_done,
            wall_seconds=clock_now() - started,
            traffic=ctx.meter,
            phases=ctx.phases,
            extras={
                "transfer_count": float(ctx.transfer_count),
                "gmw_ot_count": float(ctx.total_ots),
                "aggregation_levels": float(levels),
            },
        )


class SecureDStressEngine(Engine):
    """The full DStress protocol stack (§3.3–§3.6).

    ``backend="bitsliced"`` swaps the per-gate GMW loop for the numpy
    lane evaluator with its offline/online phase split
    (:mod:`repro.mpc.bitslice`); released outputs and metered traffic are
    bit-identical to the default ``"scalar"`` backend. ``buckets=[10,
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
        core = _SecureCore(self, program, graph, config, self.buckets)
        return run_lifecycle(self, core, program, config, iterations, accountant)


# -------------------------------------------------------- naive baseline --


class _NaiveCore(_PlaintextCore):
    """The monolithic baseline: fixed-circuit stages + central noise +
    the cubic cost projection."""

    def __init__(self, engine, program, graph, config) -> None:
        super().__init__(engine, program, graph, config, fixed=True)

    def noise(self, state, pre_noise, epsilon, end):
        if epsilon is None:
            return pre_noise, None
        # the historical one-shot noise stream is pinned (seeded results
        # depend on it); windowed releases key their forks by round
        label = (
            "naive-output-noise"
            if self.engine.release_policy.kind == "oneshot"
            else None
        )
        return _central_release_noise(
            self.program, self.config, pre_noise, epsilon, end, fork_label=label
        )

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        if self.engine.estimate_cost:
            parties = min(self.config.block_size, self.engine.max_parties)
            projected, fit = estimate_monolithic_seconds(
                self.graph.num_vertices,
                state.rounds_done,
                self.program.fmt,
                parties=parties,
                sample_sizes=self.engine.sample_sizes,
            )
            result.extras["projected_mpc_seconds"] = projected
            result.extras["fit_coefficient"] = fit.coefficient
        # the monolithic baseline computes centrally: no per-link round
        # traffic exists, but the meter is present (empty) so every
        # engine's RunResult exposes the same key scheme
        result.traffic = TrafficMeter()
        return result


class NaiveMPCEngine(Engine):
    """The §5.5 monolithic-MPC strawman, as an engine backend.

    The baseline computes the *same* DP release as DStress, just as one
    giant circuit among all participants — which is exactly why the paper
    rejects it: the cost is O(N^3) per iteration. Running that circuit for
    real is infeasible beyond a handful of banks even in the paper's
    Wysteria prototype, so this adapter does what §5.5 does:

    * computes the aggregate centrally (the monolithic circuit's output
      equals the reference semantics) and noises it with the same
      two-sided geometric mechanism the DStress aggregation block samples
      in MPC;
    * measures *real* GMW matrix multiplies at small N, fits the cubic,
      and reports the projected monolithic runtime for this graph in
      ``extras["projected_mpc_seconds"]`` (the "287 years" number).

    Set ``estimate_cost=False`` to skip the GMW calibration when only the
    release value matters.
    """

    name = "naive-mpc"
    releases_output = True

    def __init__(
        self,
        estimate_cost: bool = True,
        sample_sizes: Sequence[int] = (2, 3),
        max_parties: int = 3,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.estimate_cost = estimate_cost
        self.sample_sizes = tuple(sample_sizes)
        self.max_parties = max_parties
        self._configure_release(release, windows, window_epsilon)

    def release_label(self, program_name: str) -> str:
        return f"{program_name}-naive-release"

    compile_plans = PlaintextFixedEngine.compile_plans

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _NaiveCore(self, program, graph, config)
        return run_lifecycle(self, core, program, config, iterations, accountant)


register_engine("plaintext", PlaintextFloatEngine, aliases=("float", "clear"))
register_engine("fixed", PlaintextFixedEngine, aliases=("plaintext-fixed",))
register_engine("secure", SecureDStressEngine, aliases=("dstress",))
register_engine("naive-mpc", NaiveMPCEngine, aliases=("naive", "monolithic"))
