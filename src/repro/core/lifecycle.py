"""The shared run lifecycle: one staged spine for every engine backend.

Every DStress execution — float oracle, clear circuit evaluation, the
async variant, and the full secure protocol — walks the same five
stages:

    setup -> rounds -> aggregate -> noise -> release

Before this module each backend hard-coded that shape (and its own copy
of accountant charging, ``timed_phase`` plumbing, and release handling)
into its ``execute``. Now :func:`run_lifecycle` owns the spine and a
backend only supplies a :class:`LifecycleCore` — the five stage bodies —
while a :class:`ReleasePolicy` decides *when* the tail stages run:

* :class:`OneShotRelease` (default) runs rounds once and releases once at
  the end — byte-for-byte the historical behaviour of every engine.
* :class:`WindowedRelease` is continual release (ROADMAP "streaming and
  workload-shaped releases"): the round schedule is split into windows,
  each window ends with its own aggregate/noise/release, the budget is a
  per-window epsilon validated through
  :func:`~repro.privacy.budget.whole_releases`, and the accountant's
  audit ledger records one entry per window.

The :class:`RunState` threading through the stages is resumable: the
round loop's pending outboxes (or the secure engine's share context)
live in the core between windows, so window ``j + 1`` continues the §3.6
schedule exactly where window ``j`` stopped. The resumption contract is
stated (and property-tested) on :func:`~repro.core.rounds.run_rounds`:
a windowed run's pre-noise trajectory is bit-identical to the one-shot
run of the same total length.

Stage timings land in the same :class:`~repro.simulation.netsim.PhaseTimer`
as the engines' fine-grained phases, under ``stage:``-prefixed keys, so
every engine emits the same ordered stage names (the lifecycle parity
test) without renaming any existing phase.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.obs.clock import now as clock_now
from repro.obs.trace import current_recorder, timed_phase
from repro.privacy.admission import Precharge, precharge, release_schedule
from repro.privacy.budget import whole_releases
from repro.simulation.netsim import PhaseTimer

__all__ = [
    "STAGES",
    "ReleasePolicy",
    "OneShotRelease",
    "WindowedRelease",
    "resolve_release_policy",
    "ReleaseRecord",
    "RunState",
    "LifecycleCore",
    "run_lifecycle",
]

#: The stage names, in execution order. ``rounds`` through ``release``
#: repeat once per window under a windowed policy.
STAGES = ("setup", "rounds", "aggregate", "noise", "release")

#: Upper bound on release windows per run: windows are individually
#: charged ledger entries, so an unbounded count would let one scenario
#: flood the audit ledger.
MAX_WINDOWS = 64


# ------------------------------------------------------------- policies --


class ReleasePolicy(ABC):
    """When (and with what budget) the aggregate/noise/release stages run."""

    #: Whether this policy makes an otherwise non-releasing engine (the
    #: plaintext family) noise and release its output: continual release
    #: publishes per-window values, so it always consumes budget.
    forces_release: bool = False

    @abstractmethod
    def window_schedule(self, iterations: int) -> List[int]:
        """Split ``iterations`` computation rounds into release windows."""

    @abstractmethod
    def epsilon_schedule(self, config: Any) -> List[float]:
        """Per-window epsilon, one entry per window (releasing runs only)."""


@dataclass(frozen=True)
class OneShotRelease(ReleasePolicy):
    """Run all rounds, then release once — the historical behaviour."""

    forces_release = False

    def window_schedule(self, iterations: int) -> List[int]:
        return [iterations]

    def epsilon_schedule(self, config: Any) -> List[float]:
        return [config.output_epsilon]


@dataclass(frozen=True)
class WindowedRelease(ReleasePolicy):
    """Continual release: one aggregate/noise/release per round window.

    ``windows`` are the per-window round counts; they must sum to the
    run's ``iterations``. ``epsilon_per_window`` defaults to an even
    split of ``config.output_epsilon`` across the windows; an explicit
    value lets a monitoring schedule spend less than the full budget.
    Either way the schedule must be chargeable under the run budget
    according to :func:`~repro.privacy.budget.whole_releases` — the same
    arithmetic the accountant uses, so admission can never approve a
    schedule the ledger would refuse.
    """

    windows: Tuple[int, ...] = ()
    epsilon_per_window: Optional[float] = None

    forces_release = True

    def __post_init__(self) -> None:
        if not self.windows:
            raise ConfigurationError("windowed release needs at least one window")
        if len(self.windows) > MAX_WINDOWS:
            raise ConfigurationError(
                f"windowed release supports at most {MAX_WINDOWS} windows"
            )
        for rounds in self.windows:
            if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 1:
                raise ConfigurationError(
                    f"every release window needs a positive round count, got {rounds!r}"
                )
        if self.epsilon_per_window is not None and self.epsilon_per_window <= 0:
            raise ConfigurationError("per-window epsilon must be positive")

    def window_schedule(self, iterations: int) -> List[int]:
        total = sum(self.windows)
        if total != iterations:
            raise ConfigurationError(
                f"release windows {list(self.windows)} cover {total} rounds "
                f"but the run executes {iterations}; they must match exactly"
            )
        return list(self.windows)

    def epsilon_schedule(self, config: Any) -> List[float]:
        count = len(self.windows)
        epsilon = (
            self.epsilon_per_window
            if self.epsilon_per_window is not None
            else config.output_epsilon / count
        )
        if whole_releases(config.output_epsilon, epsilon) < count:
            raise ConfigurationError(
                f"{count} windows at epsilon {epsilon} per window exceed the "
                f"run's release budget {config.output_epsilon}"
            )
        return [epsilon] * count


def resolve_release_policy(
    release: Union[str, ReleasePolicy] = "oneshot",
    windows: Optional[Sequence[int]] = None,
    window_epsilon: Optional[float] = None,
) -> ReleasePolicy:
    """The one place engine options become a :class:`ReleasePolicy`.

    Accepts the string options every engine constructor (and the scenario
    AST) exposes, or a ready policy instance for programmatic callers.
    """
    if isinstance(release, ReleasePolicy):
        if windows is not None or window_epsilon is not None:
            raise ConfigurationError(
                "pass windows/window_epsilon through the policy object, "
                "not alongside it"
            )
        return release
    if release == "oneshot":
        if windows is not None or window_epsilon is not None:
            raise ConfigurationError(
                "windows/window_epsilon require release='windowed'"
            )
        return OneShotRelease()
    if release == "windowed":
        if windows is None:
            raise ConfigurationError("release='windowed' requires windows=[...]")
        return WindowedRelease(tuple(windows), window_epsilon)
    raise ConfigurationError(
        f"unknown release policy {release!r}; choose 'oneshot' or 'windowed'"
    )


# ------------------------------------------------------------ run state --


@dataclass
class ReleaseRecord:
    """One published output: what window ``j`` released, and at what cost."""

    window: int
    rounds: int
    end: int
    value: float
    pre_noise: float
    noise_raw: Optional[int]
    epsilon: float


@dataclass
class RunState:
    """The state a run carries across stages (and, windowed, across windows).

    The engine-specific resumption payload — pending outboxes, share
    contexts — lives inside the :class:`LifecycleCore`; this object holds
    the engine-independent bookkeeping the driver and tests read.
    """

    engine: str
    program: str
    windows: List[int]
    rounds_done: int = 0
    window: int = 0
    trajectory: List[float] = field(default_factory=list)
    phases: PhaseTimer = field(default_factory=PhaseTimer)
    releases: List[ReleaseRecord] = field(default_factory=list)


class LifecycleCore(ABC):
    """The five stage bodies a backend plugs into :func:`run_lifecycle`."""

    @abstractmethod
    def setup(self, state: RunState) -> None:
        """Build whatever the round loop needs (graph state, shares, pools)."""

    @abstractmethod
    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        """Advance the §3.6 schedule by ``rounds`` computation steps.

        ``first`` distinguishes the initial window (which starts from the
        freshly initialized state) from resumed ones (which first route
        the pending outboxes of the previous window's last step).
        """

    def drive(self, events: Any) -> None:
        """Consume one window's wire events
        (:data:`~repro.core.rounds.WindowEvents`). In process there is no
        wire, so the bytes go nowhere; a bus core conveys them instead.
        """
        for _event in events:
            pass

    @abstractmethod
    def aggregate(self, state: RunState) -> float:
        """Current pre-noise aggregate of the designated register."""

    def noise(
        self, state: RunState, pre_noise: float, epsilon: Optional[float], end: int
    ) -> Tuple[float, Optional[int]]:
        """Noise the aggregate for release; ``epsilon=None`` means the run
        releases nothing and the exact value passes through untouched."""
        return pre_noise, None

    @abstractmethod
    def finalize(self, state: RunState, started: float) -> Any:
        """Assemble the backend's RunResult from the completed state."""


# --------------------------------------------------------------- driver --


def run_lifecycle(
    engine: Any,
    core: LifecycleCore,
    program: Any,
    config: Any,
    iterations: int,
    accountant: Any = None,
) -> Any:
    """Drive one run through the staged spine.

    Owns everything the backends used to duplicate: the ``run`` trace
    span, wall-clock capture, budget admission (one ledger entry per
    release window, refunded for windows that never released if the run
    fails) and the ``stage:*`` phase timings. Released fields
    (aggregate / pre-noise / noise / epsilon / per-window records) are
    stamped onto the core's result uniformly, so a windowed run reports
    its last window exactly like a one-shot run reports its only one.
    """
    policy = engine.release_policy
    windows = policy.window_schedule(iterations)
    releasing = bool(engine.releases_output)
    schedule = release_schedule(engine, config, f"{program.name}-release")
    recorder = current_recorder()
    with recorder.span("run", engine=engine.name, program=program.name):
        started = clock_now()
        state = RunState(
            engine=engine.name, program=program.name, windows=list(windows)
        )
        admitted: Optional[Precharge] = precharge(accountant, schedule)
        try:
            with timed_phase(state.phases, "stage:setup", span=False):
                core.setup(state)
            for index, rounds in enumerate(windows):
                with timed_phase(state.phases, "stage:rounds", span=False):
                    core.run_window(state, rounds, first=index == 0)
                state.rounds_done += rounds
                with timed_phase(state.phases, "stage:aggregate", span=False):
                    pre_noise = core.aggregate(state)
                epsilon = schedule[index][1] if releasing else None
                with timed_phase(state.phases, "stage:noise", span=False):
                    value, noise_raw = core.noise(
                        state, pre_noise, epsilon, state.rounds_done
                    )
                with timed_phase(state.phases, "stage:release", span=False):
                    if releasing:
                        state.releases.append(
                            ReleaseRecord(
                                window=index,
                                rounds=rounds,
                                end=state.rounds_done,
                                value=value,
                                pre_noise=pre_noise,
                                noise_raw=noise_raw,
                                epsilon=epsilon or 0.0,
                            )
                        )
                        if admitted is not None:
                            admitted.confirm()
                state.window = index + 1
        except BaseException:
            # windows that never released give their pre-charge back; the
            # budget pays for published outputs, not failed attempts
            if admitted is not None:
                admitted.refund()
            raise
        result = core.finalize(state, started)
        if state.releases:
            last = state.releases[-1]
            result.aggregate = last.value
            result.pre_noise_aggregate = last.pre_noise
            result.noise_raw = last.noise_raw
            result.epsilon = sum(eps for _, eps in schedule)
            result.releases = list(state.releases)
            if len(windows) > 1:
                result.extras["windows"] = float(len(windows))
        return result
