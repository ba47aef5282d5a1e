"""The single place in ``src/repro`` allowed to read the system clock.

Every engine, batch worker, and cache times itself through the
module-level :func:`now` / :func:`wall_time` helpers (or through an
explicitly injected :class:`Clock`), never through ``time.perf_counter``
directly — a lint test enforces this. Centralising the clock buys two
things:

* **Injectable time.** Tests swap in a :class:`ManualClock` and get
  bit-stable span durations and phase timings, which is what lets the
  trace-determinism suite assert that telemetry output is reproducible.
* **Trace safety.** Reading a clock can never perturb the deterministic
  RNG or the protocol transcript, because the clock is the only ambient
  state telemetry touches and it is explicitly outside the seeded world.
"""

from __future__ import annotations

import time


class Clock:
    """Monotonic + wall clock pair; the system-backed default."""

    def now(self) -> float:
        """Monotonic seconds for measuring durations."""
        return time.perf_counter()

    def wall(self) -> float:
        """Wall-clock epoch seconds for timestamps (cache metadata)."""
        return time.time()


class ManualClock(Clock):
    """A deterministic clock for tests: every :meth:`now` read returns the
    current value and then advances by ``tick``, so span durations are
    exact and reproducible regardless of machine speed."""

    def __init__(self, start: float = 0.0, tick: float = 1.0) -> None:
        self._now = float(start)
        self.tick = float(tick)

    def now(self) -> float:
        value = self._now
        self._now += self.tick
        return value

    def wall(self) -> float:
        return self.now()

    def advance(self, seconds: float) -> None:
        self._now += float(seconds)


SYSTEM_CLOCK = Clock()


def now() -> float:
    """Monotonic seconds from the ambient system clock."""
    return SYSTEM_CLOCK.now()


def wall_time() -> float:
    """Wall-clock epoch seconds from the ambient system clock."""
    return SYSTEM_CLOCK.wall()
