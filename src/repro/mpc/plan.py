"""Compile once: the process-wide table of sealed, compiled circuits.

A DStress circuit has no data-dependent control flow (§3.1, §3.7), so the
circuit a block evaluates is a pure function of a few scalars — the
program's parameters, the fixed-point format and the degree bound for an
update circuit; the input count, widths and noise parameters for the
aggregation circuits. Building one gate by gate, walking it for its
statistics and scheduling it into stages costs tens of milliseconds; this
table pays that once per distinct circuit per process.

* **Key.** Whatever the caller's builder depends on, as a hashable
  content token. :func:`repro.core.program.compiled_update_circuit` keys
  update circuits by the program token :func:`~repro.api.cache.run_fingerprint`
  uses plus the degree bound; the aggregation circuits below key on their
  scalar arguments. ``key=None`` means "no stable token": built and
  compiled, never published — a cache must only ever err toward a miss.
* **Sealing.** Every circuit handed out is compiled
  (:meth:`~repro.mpc.circuit.Circuit.compile`), hence immutable, so runs
  and threads share one object safely.
* **Threads.** Lookup and publication are single ``OrderedDict``
  operations, atomic under the interpreter lock; there is no lock of our
  own (nothing for a forked child to inherit in a locked state). Two
  threads missing on one key both build; ``setdefault`` publishes the
  first and the other build is dropped, so every caller gets one object.
  The two counters are plain integers like the service's: exact whenever
  compiles do not race, and only ever telemetry.
* **Forks.** Worker processes inherit the parent's table copy-on-write —
  the stage schedule and its index vectors included, since ``compile()``
  builds all of the plan; the batch layer compiles what its payloads need
  before it forks.
* **Size.** :data:`PLAN_TABLE_SIZE` entries, least recently used evicted.
  A constant, not an option: an entry is at most a few megabytes of gate
  tuples, a process sees a handful of distinct shapes (one per program ×
  degree bucket, one per network size and epsilon for the noise circuit),
  and an eviction costs one rebuild — there is nothing to tune.

The rules above are :class:`SealedTable`'s; the §3.4 keys and certificates
live in a second instance of it, keyed by the root seed's stream among
other things (:data:`repro.core.setup.DEPLOYMENTS`). Offline randomness
pools are not cached: they depend on the run's seed and are used once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

from repro.mpc.circuit import Circuit
from repro.mpc.noise_circuit import (
    build_noised_sum_bits_circuit,
    build_partial_sum_circuit,
)
from repro.obs.trace import current_recorder

__all__ = [
    "PLAN_TABLE_SIZE",
    "PLANS",
    "PlanTable",
    "SealedTable",
    "noised_sum_bits_circuit",
    "partial_sum_circuit",
]

PLAN_TABLE_SIZE = 32


class SealedTable:
    """Content key -> sealed value, least recently used out once the
    entries' total weight passes ``bound``; build/hit counters, mirrored
    as ``<metric>.builds`` / ``<metric>.hits`` into the ambient recorder's
    registry, so a traced batch reports exactly what *it* built and reused.
    """

    def __init__(
        self,
        metric: str,
        bound: int,
        weigh: Callable[[Any], int] = lambda value: 1,
        seal: Callable[[Any], Any] = lambda value: None,
    ) -> None:
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._metric = metric
        self._weigh = weigh
        self._seal = seal
        self.bound = bound
        #: values built through this table, published or not
        self.builds = 0
        #: lookups answered without building
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def _mirror(self, event: str) -> None:
        recorder = current_recorder()
        if recorder.enabled:
            recorder.metrics.inc(f"{self._metric}.{event}")

    def get(self, key: Optional[Hashable], build: Callable[[], Any]) -> Any:
        """The value for ``key``, building and sealing it on a miss;
        whatever that raises propagates and publishes nothing."""
        entries = self._entries
        value = None if key is None else entries.get(key)
        if value is not None:
            self.hits += 1
            self._mirror("hits")
            try:
                entries.move_to_end(key)
            except KeyError:  # evicted by a racing publisher; still valid
                pass
            return value
        value = build()
        self._seal(value)
        self.builds += 1
        self._mirror("builds")
        if key is None or self._weigh(value) > self.bound:
            return value
        value = entries.setdefault(key, value)
        while sum(map(self._weigh, list(entries.values()))) > self.bound:
            try:
                entries.popitem(last=False)
            except KeyError:  # a racing publisher already trimmed it
                break
        return value


class PlanTable(SealedTable):
    """Content key -> compiled circuit (``mpc.plan.builds`` / ``.hits``)."""

    def __init__(self) -> None:
        super().__init__("mpc.plan", PLAN_TABLE_SIZE, seal=Circuit.compile)


#: The process-wide table every engine reads.
PLANS = PlanTable()


def noised_sum_bits_circuit(
    num_inputs: int,
    value_bits: int,
    alpha: float,
    magnitude_bits: int,
    precision_bits: int = 16,
) -> Circuit:
    """:func:`~repro.mpc.noise_circuit.build_noised_sum_bits_circuit`,
    compiled once per distinct argument tuple."""
    return PLANS.get(
        ("noised-sum-bits", num_inputs, value_bits, alpha, magnitude_bits, precision_bits),
        lambda: build_noised_sum_bits_circuit(
            num_inputs, value_bits, alpha, magnitude_bits, precision_bits
        ),
    )


def partial_sum_circuit(num_inputs: int, value_bits: int, output_bits: int) -> Circuit:
    """:func:`~repro.mpc.noise_circuit.build_partial_sum_circuit`, compiled
    once per distinct argument tuple."""
    return PLANS.get(
        ("partial-sum", num_inputs, value_bits, output_bits),
        lambda: build_partial_sum_circuit(num_inputs, value_bits, output_bits),
    )
