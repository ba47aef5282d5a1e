"""``repro.obs`` — run-scoped telemetry: tracing spans, metrics, clock,
trace merge, and versioned export.

Everything here is deterministic-by-construction: telemetry reads only
the injectable :mod:`repro.obs.clock` and never the seeded RNG, so a
traced run's released outputs are bit-identical to an untraced run (the
parity matrix asserts this). The default recorder is a no-op; enable
tracing by scoping a :class:`TraceRecorder`::

    from repro.obs import TraceRecorder, recording

    rec = TraceRecorder()
    with recording(rec):
        result = test.engine("plaintext", transport="wan").run(iterations=4)
    doc = result.export(recorder=rec)   # dstress.obs.run v1
"""

from repro.obs.clock import Clock, ManualClock, SYSTEM_CLOCK, now, wall_time
from repro.obs.metrics import MetricsRegistry, absorb_cache, absorb_gmw
from repro.obs.trace import (
    NullRecorder,
    SpanRecord,
    TraceRecorder,
    current_recorder,
    recording,
    set_recorder,
    timed_phase,
)
from repro.obs.export import (
    BATCH_SCHEMA,
    RUN_SCHEMA,
    SCHEMA_VERSION,
    TIMELINE_SCHEMA,
    export_batch,
    export_ledger,
    export_run,
    validate_export,
)
from repro.obs.merge import load_trace_shard, merge_cluster_trace, merge_shards

__all__ = [
    "Clock",
    "ManualClock",
    "SYSTEM_CLOCK",
    "now",
    "wall_time",
    "MetricsRegistry",
    "absorb_cache",
    "absorb_gmw",
    "NullRecorder",
    "SpanRecord",
    "TraceRecorder",
    "current_recorder",
    "recording",
    "set_recorder",
    "timed_phase",
    "BATCH_SCHEMA",
    "RUN_SCHEMA",
    "SCHEMA_VERSION",
    "TIMELINE_SCHEMA",
    "export_batch",
    "export_ledger",
    "export_run",
    "validate_export",
    "load_trace_shard",
    "merge_cluster_trace",
    "merge_shards",
]
