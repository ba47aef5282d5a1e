"""Persistent scenario cache: a restarted sweep skips engine work AND budget.

The cache exists for the paper's economics, not convenience: every
released stress test costs irreplaceable epsilon from the yearly ``ln 2``
budget (§4.5), so a service that re-runs last quarter's sweep after a
restart must *replay* the released values, not recompute and re-charge
them. This benchmark times three passes of one secure-engine sweep:

* **cold** — empty cache directory: every scenario runs the full MPC
  stack and is charged against a fresh accountant;
* **restart-warm** — a brand-new :class:`PersistentScenarioCache`
  instance on the same directory (what a restarted process sees): zero
  engine executions, zero epsilon charged, all hits served from disk;
* **hot** — the same instance again: hits served from the in-process
  memory tier, the price today's memory-only cache charges.

Correctness rides along: all three passes must release bit-identical
values, and both warm passes must report zero misses and zero epsilon.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the sweep so CI exercises
the full disk path — store, restart, disk hits, memory hits — in seconds.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro import Bank, FinancialNetwork, PrivacyAccountant, Scenario, StressTest
from repro.api import PersistentScenarioCache
from tables import emit_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
NUM_SCENARIOS = 2 if SMOKE else 4
ITERATIONS = 2 if SMOKE else 3
EPSILON = 0.1


def _network() -> FinancialNetwork:
    network = FinancialNetwork()
    network.add_bank(Bank(0, cash=2.0))
    network.add_bank(Bank(1, cash=1.0))
    network.add_bank(Bank(2, cash=1.0))
    network.add_bank(Bank(3, cash=0.5))
    network.add_debt(0, 1, 4.0)
    network.add_debt(0, 2, 2.0)
    network.add_debt(1, 3, 3.0)
    network.add_debt(2, 3, 1.0)
    return network


def _template():
    return (
        StressTest(_network())
        .program("eisenberg-noe")
        .engine("secure")
        .preset("demo")
        .privacy(epsilon=EPSILON)
        .degree_bound(2)
    )


def _scenarios():
    return [
        Scenario(f"shock-{i}", seed=100 + i, iterations=ITERATIONS)
        for i in range(NUM_SCENARIOS)
    ]


def _sweep(template, cache):
    # time the whole call: fingerprinting and cache lookups happen in the
    # batch prelude, which batch.wall_seconds deliberately excludes
    accountant = PrivacyAccountant()
    started = time.perf_counter()
    batch = template.run_many(_scenarios(), accountant=accountant, cache=cache)
    elapsed = time.perf_counter() - started
    assert all(o.ok for o in batch), batch.summary()
    return batch, accountant, elapsed


def test_restarted_sweep_skips_engine_work_and_epsilon(benchmark):
    cache_dir = tempfile.mkdtemp(prefix="repro-diskcache-bench-")
    try:
        template = _template()
        cold_cache = PersistentScenarioCache(cache_dir)
        cold, cold_acc, cold_s = _sweep(template, cold_cache)

        # a NEW instance on the same directory = a restarted process
        warm_cache = PersistentScenarioCache(cache_dir)
        warm, warm_acc, warm_s = _sweep(template, warm_cache)
        hot, hot_acc, hot_s = _sweep(template, warm_cache)

        # the whole point: zero executions, zero fresh epsilon, same bits
        assert (warm.cache_hits, warm.cache_misses) == (NUM_SCENARIOS, 0)
        assert (hot.cache_hits, hot.cache_misses) == (NUM_SCENARIOS, 0)
        assert warm_acc.spent == 0.0 and hot_acc.spent == 0.0
        assert warm.aggregates() == cold.aggregates() == hot.aggregates()
        assert warm_cache.disk_hits >= NUM_SCENARIOS
        assert warm_cache.memory_hits >= NUM_SCENARIOS  # the hot pass
        # one file per entry, and nothing else left in the directory
        files = os.listdir(cache_dir)
        assert len(files) == NUM_SCENARIOS and all(f.endswith(".json") for f in files)
        entry_bytes = warm_cache.total_bytes() // NUM_SCENARIOS

        rows = []
        for label, batch, accountant, seconds in (
            ("cold (empty dir)", cold, cold_acc, cold_s),
            ("restart-warm (disk)", warm, warm_acc, warm_s),
            ("hot (memory tier)", hot, hot_acc, hot_s),
        ):
            rows.append(
                [
                    label,
                    batch.cache_misses,
                    batch.cache_hits,
                    f"{accountant.spent:g}",
                    f"{seconds:.4f}",
                    f"{(cold_s / max(seconds, 1e-9)):.0f}x",
                ]
            )
        emit_table(
            "Persistent scenario cache - restarted sweep vs cold sweep",
            [
                "pass",
                "engine runs",
                "cache hits",
                "epsilon charged",
                "wall [s]",
                "speedup",
            ],
            rows,
            [
                f"{NUM_SCENARIOS} secure-engine scenarios (demo preset), "
                f"{ITERATIONS} rounds each, smoke={SMOKE}",
                "restart-warm constructs a fresh cache object on the same "
                "directory: the process-restart shape",
                "released values verified bit-identical across all passes "
                "before timing",
                f"one <fingerprint>.json per entry, {entry_bytes} bytes each "
                "(version + identity + created stamp + dstress.obs.run document)",
            ],
        )

        benchmark.pedantic(
            lambda: _sweep(template, PersistentScenarioCache(cache_dir)),
            rounds=2,
            iterations=1,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
