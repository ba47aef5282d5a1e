"""Structured tracing spans with an ambient, swappable recorder.

The default recorder is a shared :class:`NullRecorder` whose
``span``/``event`` calls are no-ops, so instrumented hot paths cost one
attribute read and a truth test when tracing is off. Enabling tracing is
scoped::

    rec = TraceRecorder()
    with recording(rec):
        test.engine("plaintext", transport="wan").run(iterations=4)
    rec.spans  # -> [SpanRecord, ...]

Design constraints, in order of importance:

* **Determinism.** Spans read only the injected :class:`Clock`; they
  never touch the seeded :class:`DeterministicRNG` or reorder protocol
  work, so a traced run's released outputs are bit-identical to an
  untraced run (asserted across the engine parity matrix).
* **Ambient recorder is a module global, not a ContextVar.** The
  simulated buses run a window on a worker thread's loop when the
  caller already runs one (``Transport.run``), which starts from an
  empty context, and forked cluster children inherit module state; a
  ContextVar would silently drop the recorder in both cases.
* **Span parentage *is* a ContextVar.** ``asyncio`` tasks copy their
  context at creation, so per-task span nesting comes out right even
  with many conveys in flight at once.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.clock import SYSTEM_CLOCK, Clock
from repro.obs.metrics import MetricsRegistry

_ACTIVE_SPAN: ContextVar[Optional[int]] = ContextVar("repro_obs_active_span", default=None)


@dataclass
class SpanRecord:
    """One closed (or still-open) span: a named, timed unit of work."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[Tuple[float, str, Dict[str, Any]]] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "events": [
                {"time": ts, "name": name, "attrs": dict(attrs)}
                for ts, name, attrs in self.events
            ],
        }


class NullRecorder:
    """The default, disabled recorder: every operation is a no-op."""

    enabled = False
    party: Optional[int] = None

    def span(self, name: str, **attrs: Any) -> "nullcontext[None]":
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass


class TraceRecorder:
    """Collects spans and metrics for one run (or one party process)."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None, party: Optional[int] = None) -> None:
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.party = party
        self.spans: List[SpanRecord] = []
        self.metrics = MetricsRegistry()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=_ACTIVE_SPAN.get(),
            name=name,
            start=self.clock.now(),
            attrs=dict(attrs),
        )
        self.spans.append(record)
        token = _ACTIVE_SPAN.set(record.span_id)
        try:
            yield record
        finally:
            _ACTIVE_SPAN.reset(token)
            record.end = self.clock.now()

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to the active span (or record a
        zero-length root event when no span is open)."""
        stamp = self.clock.now()
        active = _ACTIVE_SPAN.get()
        if active is not None:
            for record in reversed(self.spans):
                if record.span_id == active:
                    record.events.append((stamp, name, dict(attrs)))
                    return
        self.spans.append(
            SpanRecord(
                span_id=next(self._ids),
                parent_id=None,
                name=name,
                start=stamp,
                end=stamp,
                attrs=dict(attrs),
            )
        )


#: The disabled recorder's span: one reusable no-op context, so a span
#: on an untraced hot path costs no generator.
_NULL_SPAN: "nullcontext[None]" = nullcontext()
_NULL = NullRecorder()
_RECORDER: Any = _NULL


def current_recorder() -> Any:
    """The ambient recorder: a :class:`TraceRecorder` inside a
    :func:`recording` block, the shared no-op otherwise."""
    return _RECORDER


def set_recorder(recorder: Optional[Any]) -> Any:
    """Install ``recorder`` as the ambient recorder (``None`` restores the
    no-op). Returns the previous recorder so callers can restore it."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder if recorder is not None else _NULL
    return previous


@contextmanager
def recording(recorder: Any) -> Iterator[Any]:
    """Scope ``recorder`` as the ambient recorder for a ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


class timed_phase:
    """``with timed_phase(phases, name):`` times the block into ``phases``
    (a :class:`PhaseTimer` or ``None``) and, when tracing is on, records
    it as a ``phase`` span too.

    This is the one shared code path that fills ``RunResult.phases`` for
    every engine. With ``phases is None`` and tracing off it does nothing
    — zero clock reads on the disabled path. ``span=False`` keeps the
    PhaseTimer accounting but suppresses the span — the lifecycle's
    ``stage:*`` timings use it because a stage envelope span would
    re-parent the per-round spans engines emit inside it, and the
    round→run nesting is part of the traced contract. A class, not a
    generator: it sits on every round of every engine.
    """

    __slots__ = ("phases", "name", "attrs", "span", "_started", "_context", "_record")

    def __init__(self, phases: Any, name: str, span: bool = True, **attrs: Any) -> None:
        self.phases = phases
        self.name = name
        self.span = span
        self.attrs = attrs

    def __enter__(self) -> None:
        self._context = None
        recorder = _RECORDER
        if self.span and recorder.enabled:
            self._context = recorder.span("phase", phase=self.name, **self.attrs)
            self._record = self._context.__enter__()
        elif self.phases is not None:
            self._started = SYSTEM_CLOCK.now()

    def __exit__(self, *exc_info: Any) -> None:
        if self._context is not None:
            self._context.__exit__(*exc_info)
            # span end is stamped on context exit; reuse it so the
            # PhaseTimer and the span agree to the same clock reads
            record = self._record
            if self.phases is not None and record.end is not None:
                self.phases.add(self.name, max(0.0, record.end - record.start))
        elif self.phases is not None:
            self.phases.add(self.name, SYSTEM_CLOCK.now() - self._started)
