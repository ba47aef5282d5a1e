"""The persistent on-disk scenario cache and fingerprint edge cases.

The disk tier's contract mirrors the memory cache's, plus survival: a
sweep re-run in a *fresh process* pointed at the same directory must
perform zero engine executions and zero epsilon charges, bit-identically.
Everything that can go wrong on disk — torn writes, corrupted entries,
format-version skew, byte-cap eviction, concurrent writers — must read
as a miss and a recompute, never as corruption or a wrong hit.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro import PrivacyAccountant, Scenario, StressTest
from repro.api import Engine, PersistentScenarioCache, RunResult, run_fingerprint
from repro.api import diskcache as diskcache_mod
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.finance import apply_shock, uniform_shock
from repro.graphgen import CorePeripheryParams, core_periphery_network

SEED = 123


@pytest.fixture(scope="module")
def network():
    net = core_periphery_network(
        CorePeripheryParams(num_banks=10, core_size=3), DeterministicRNG(11)
    )
    return apply_shock(net, uniform_shock(range(0, 3), 0.9, "core-shock"))


@pytest.fixture
def template(network):
    return StressTest(network).program("eisenberg-noe").seed(SEED)


def _fp(tag) -> str:
    return hashlib.sha256(repr(tag).encode()).hexdigest()


def _result(value: float, padding: int = 0) -> RunResult:
    return RunResult(
        engine="test",
        program="test-program",
        aggregate=value,
        trajectory=[value, value],
        iterations=2,
        wall_seconds=0.0,
        extras={f"pad-{i}": float(i) for i in range(padding)},
    )


# ----------------------------------------------------- fingerprint edges --


class TokenEngine(Engine):
    """Engine whose constructor attributes become fingerprint inputs."""

    name = "token-probe"

    def __init__(self, **attrs) -> None:
        self.__dict__.update(attrs)

    def execute(self, program, graph, iterations, config, accountant=None):
        raise AssertionError("fingerprint probes never execute")


def _engine_fingerprint(template, **attrs):
    session = template.clone().engine(TokenEngine(**attrs))
    return run_fingerprint(session.resolve(2, label="probe"))


def test_fingerprint_separates_positive_and_negative_zero(template):
    # -0.0 == 0.0 in float arithmetic, but downstream code may branch on
    # the sign bit; the cache errs toward a miss and keeps them distinct
    assert _engine_fingerprint(template, x=0.0) != _engine_fingerprint(template, x=-0.0)


def test_fingerprint_separates_bool_from_int_options(template):
    # True == 1 and hash(True) == hash(1), but an engine option True and
    # an engine option 1 may configure different behaviors
    assert _engine_fingerprint(template, flag=True) != _engine_fingerprint(
        template, flag=1
    )
    assert _engine_fingerprint(template, flag=False) != _engine_fingerprint(
        template, flag=0
    )


def test_fingerprint_nan_tolerance_is_stable(template):
    # NaN != NaN, but two runs resolved with a NaN tolerance are the same
    # run: the token is repr-based, so the fingerprint must be stable
    one = run_fingerprint(
        template.clone().resolve("auto", tolerance=float("nan"), label="a")
    )
    two = run_fingerprint(
        template.clone().resolve("auto", tolerance=float("nan"), label="b")
    )
    assert one is not None and one == two
    plain = run_fingerprint(template.clone().resolve("auto", tolerance=1e-6, label="a"))
    assert one != plain


def test_fingerprint_mixed_type_sets_are_order_independent(template):
    elements = [1, "a", 2.5, (3, 4), b"bytes", None]
    forward = _engine_fingerprint(template, payload=set(elements))
    backward = _engine_fingerprint(template, payload=set(reversed(elements)))
    assert forward is not None and forward == backward


def test_fingerprint_mixed_type_dicts_are_order_independent(template):
    forward = _engine_fingerprint(
        template, payload={"b": 1, "a": (2, 3), 7: "x", (1, 2): None}
    )
    backward = _engine_fingerprint(
        template, payload={(1, 2): None, 7: "x", "a": (2, 3), "b": 1}
    )
    assert forward is not None and forward == backward
    changed = _engine_fingerprint(
        template, payload={"b": 1, "a": (2, 3), 7: "y", (1, 2): None}
    )
    assert forward != changed


# ------------------------------------------------- disk store unit tests --


def test_store_and_lookup_survive_an_instance_restart(tmp_path):
    first = PersistentScenarioCache(tmp_path)
    first.store(_fp("a"), _result(1.5))
    assert len(first) == 1
    # a brand-new instance (fresh memory tier) hits from disk
    second = PersistentScenarioCache(tmp_path)
    hit = second.lookup(_fp("a"))
    assert hit is not None and hit.aggregate == 1.5
    assert second.hits == 1 and second.disk_hits == 1 and second.memory_hits == 0
    # the same instance now serves repeats from memory
    again = second.lookup(_fp("a"))
    assert again is not None and second.memory_hits == 1
    # hits are isolated copies: vandalism must not poison the next hit
    again.trajectory.clear()
    third = second.lookup(_fp("a"))
    assert third.trajectory == [1.5, 1.5]


def test_lookup_of_unknown_fingerprint_misses(tmp_path):
    cache = PersistentScenarioCache(tmp_path)
    assert cache.lookup(_fp("nope")) is None
    assert cache.lookup(None) is None  # unfingerprintable runs always miss
    assert (cache.hits, cache.misses) == (0, 2)


def _entry(tmp_path, tag) -> Path:
    return tmp_path / (_fp(tag) + ".json")


def test_corrupted_entry_reads_as_miss_and_is_discarded(tmp_path):
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    cache.store(_fp("a"), _result(1.0))
    _entry(tmp_path, "a").write_bytes(b"not a cache entry at all")
    assert cache.lookup(_fp("a")) is None
    assert len(cache) == 0  # the remains were cleaned up, not retried forever


def test_truncated_entry_reads_as_miss(tmp_path):
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    cache.store(_fp("a"), _result(1.0))
    whole = _entry(tmp_path, "a").read_bytes()
    _entry(tmp_path, "a").write_bytes(whole[: len(whole) // 2])
    assert cache.lookup(_fp("a")) is None
    assert len(cache) == 0


def test_version_bump_reads_as_miss(tmp_path, monkeypatch):
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    cache.store(_fp("a"), _result(1.0))
    monkeypatch.setattr(
        diskcache_mod, "DISK_FORMAT_VERSION", diskcache_mod.DISK_FORMAT_VERSION + 1
    )
    stale_reader = PersistentScenarioCache(tmp_path, memory_tier=False)
    assert stale_reader.lookup(_fp("a")) is None
    # and a fresh store under the new version works
    stale_reader.store(_fp("a"), _result(2.0))
    assert stale_reader.lookup(_fp("a")).aggregate == 2.0


def test_wrong_payload_type_reads_as_miss(tmp_path):
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    cache.store(_fp("a"), _result(1.0))
    # a well-formed entry whose result is not a run document must not be
    # handed out as a result
    entry = json.loads(_entry(tmp_path, "a").read_bytes())
    entry["result"] = {"not": "a RunResult"}
    _entry(tmp_path, "a").write_text(json.dumps(entry))
    assert cache.lookup(_fp("a")) is None


def test_entry_stored_under_another_fingerprint_reads_as_miss(tmp_path):
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    cache.store(_fp("a"), _result(1.0))
    os.replace(_entry(tmp_path, "a"), _entry(tmp_path, "b"))
    assert cache.lookup(_fp("b")) is None


def test_memory_hits_never_touch_the_disk(tmp_path):
    # the hot path's cost contract is one deep copy: a memory-tier hit
    # must not refresh the entry's LRU stamp (no system call per hit on a
    # hot sweep)
    cache = PersistentScenarioCache(tmp_path)
    cache.store(_fp("a"), _result(1.0))
    before = _entry(tmp_path, "a").stat()
    assert cache.lookup(_fp("a")) is not None
    assert cache.memory_hits == 1
    after = _entry(tmp_path, "a").stat()
    assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)


def test_lru_stamp_is_the_injectable_wall_clock(tmp_path, monkeypatch):
    # eviction order must be decided by repro.obs.clock, not by whatever
    # the kernel stamped the file with: tests (and replayed traces) own time
    stamps = iter([1000.0, 2000.0, 3000.0])
    monkeypatch.setattr(diskcache_mod, "wall_time", lambda: next(stamps))
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    cache.store(_fp("a"), _result(1.0))
    cache.store(_fp("b"), _result(2.0))
    assert _entry(tmp_path, "a").stat().st_mtime == 1000.0
    assert cache.lookup(_fp("a")) is not None  # a disk hit refreshes it
    assert _entry(tmp_path, "a").stat().st_mtime == 3000.0
    assert _entry(tmp_path, "b").stat().st_mtime == 2000.0
    assert json.loads(_entry(tmp_path, "a").read_bytes())["created_at"] == 1000.0


def test_format_one_leftovers_are_swept_unopened(tmp_path):
    # a directory written by the two-file format: payloads are unlinked at
    # init without being read, sidecars read as version-skew misses
    payload = tmp_path / (_fp("old") + ".pkl")
    payload.write_bytes(b"whatever a v1 writer left here")
    sidecar = _entry(tmp_path, "old")
    sidecar.write_text(
        json.dumps({"version": 1, "fingerprint": _fp("old"), "payload_bytes": 30})
    )
    cache = PersistentScenarioCache(tmp_path)
    assert not payload.exists()
    assert cache.lookup(_fp("old")) is None
    assert not sidecar.exists() and len(cache) == 0


def test_memory_tier_serves_hits_after_disk_vanishes(tmp_path):
    cache = PersistentScenarioCache(tmp_path)
    cache.store(_fp("a"), _result(3.25))
    for path in tmp_path.iterdir():
        path.unlink()
    hit = cache.lookup(_fp("a"))
    assert hit is not None and hit.aggregate == 3.25
    assert cache.memory_hits == 1 and cache.disk_hits == 0


def test_lru_eviction_under_byte_cap(tmp_path):
    probe = PersistentScenarioCache(tmp_path / "probe")
    probe.store(_fp("size"), _result(0.0))
    entry_bytes = probe.total_bytes()
    assert entry_bytes > 0

    cache = PersistentScenarioCache(
        tmp_path / "store", max_bytes=int(entry_bytes * 2.5), memory_tier=False
    )
    cache.store(_fp("a"), _result(1.0))
    cache.store(_fp("b"), _result(2.0))
    assert cache.evictions == 0 and len(cache) == 2
    # touch 'a' so 'b' becomes the least recently used
    assert cache.lookup(_fp("a")) is not None
    cache.store(_fp("c"), _result(3.0))
    assert cache.evictions == 1 and cache.evicted_bytes > 0
    assert cache.lookup(_fp("b")) is None  # the LRU entry went
    assert cache.lookup(_fp("a")).aggregate == 1.0
    assert cache.lookup(_fp("c")).aggregate == 3.0
    assert cache.total_bytes() <= cache.max_bytes
    stats = cache.stats()
    assert stats["evictions"] == 1 and stats["entries"] == 2


def test_oversized_entry_is_rejected_without_flushing_the_store(tmp_path):
    probe = PersistentScenarioCache(tmp_path / "probe")
    probe.store(_fp("size"), _result(0.0))
    entry_bytes = probe.total_bytes()

    cache = PersistentScenarioCache(
        tmp_path / "store", max_bytes=int(entry_bytes * 2.5)
    )
    cache.store(_fp("a"), _result(1.0))
    cache.store(_fp("b"), _result(2.0))
    # an entry that can never fit must not evict the ones that do — and a
    # rejection is not an eviction: no bytes left the disk
    cache.store(_fp("huge"), _result(3.0, padding=5000))
    assert (cache.rejections, cache.evictions, cache.evicted_bytes) == (1, 0, 0)
    assert cache.lookup(_fp("huge")) is None  # memory tier skipped too
    assert cache.lookup(_fp("a")).aggregate == 1.0
    assert cache.lookup(_fp("b")).aggregate == 2.0
    assert cache.stats()["rejections"] == 1


def test_under_cap_entry_survives_its_own_eviction_walk(tmp_path):
    # an entry between the low-water mark and the cap fits, so the walk
    # its store triggers may evict everything EXCEPT it — otherwise a
    # sweep with one large result would get zero persistence and re-burn
    # epsilon on every restart
    small_probe = PersistentScenarioCache(tmp_path / "p1")
    small_probe.store(_fp("s"), _result(1.0))
    big_probe = PersistentScenarioCache(tmp_path / "p2")
    big_probe.store(_fp("b"), _result(2.0, padding=100))
    big_bytes = big_probe.total_bytes()

    cache = PersistentScenarioCache(
        tmp_path / "store", max_bytes=int(big_bytes * 1.05), memory_tier=False
    )
    cache.store(_fp("small"), _result(1.0))
    cache.store(_fp("big"), _result(2.0, padding=100))  # ~95% of the cap
    assert cache.lookup(_fp("big")) is not None  # the newcomer survived
    assert cache.lookup(_fp("small")) is None  # the LRU entry made room
    assert cache.evictions == 1
    assert cache.total_bytes() <= cache.max_bytes


def test_eviction_cap_validation(tmp_path):
    with pytest.raises(ConfigurationError, match="max_bytes"):
        PersistentScenarioCache(tmp_path, max_bytes=0)
    with pytest.raises(ConfigurationError, match="max_bytes"):
        PersistentScenarioCache(tmp_path, max_bytes=True)


def test_clear_removes_entries_and_tmp_files(tmp_path):
    cache = PersistentScenarioCache(tmp_path)
    cache.store(_fp("a"), _result(1.0))
    (tmp_path / ".tmp-999-dead").write_bytes(b"leftover")
    cache.clear()
    assert len(cache) == 0
    assert list(tmp_path.iterdir()) == []
    assert cache.lookup(_fp("a")) is None


def test_stale_tmp_files_are_swept_on_init(tmp_path):
    (tmp_path / ".tmp-999-dead").write_bytes(b"leftover from a crash")
    PersistentScenarioCache(tmp_path)
    assert not list(tmp_path.glob(".tmp-*"))


# ------------------------------------------------ crash / concurrency --


def _store_forever(directory: str) -> None:
    cache = PersistentScenarioCache(directory)
    index = 0
    while True:
        cache.store(_fp(("kill", index)), _result(float(index), padding=200))
        index += 1


def test_sigkilled_writer_never_leaves_a_torn_entry(tmp_path):
    ctx = multiprocessing.get_context("fork")
    writer = ctx.Process(target=_store_forever, args=(str(tmp_path),))
    writer.start()
    time.sleep(0.4)
    os.kill(writer.pid, signal.SIGKILL)
    writer.join()

    # restart: stale tmp files are swept, and EVERY entry file must
    # decode (an entry is one atomic replace, so a kill at any point
    # leaves a whole entry or none)
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    assert not list(tmp_path.glob(".tmp-*"))
    entries = list(tmp_path.glob("*.json"))
    assert entries, "writer should have landed at least one entry"
    for entry in entries:
        fingerprint = entry.name[: -len(".json")]
        hit = cache.lookup(fingerprint)
        assert hit is not None, f"torn entry {fingerprint}"


def _store_range(directory: str, start: int, count: int) -> None:
    cache = PersistentScenarioCache(directory)
    for index in range(start, start + count):
        cache.store(_fp(("concurrent", index % 8)), _result(float(index % 8)))


def test_concurrent_writers_on_one_directory_stay_consistent(tmp_path):
    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(target=_store_range, args=(str(tmp_path), base, 40))
        for base in (0, 4)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join()
        assert writer.exitcode == 0
    cache = PersistentScenarioCache(tmp_path, memory_tier=False)
    assert len(cache) == 8
    for index in range(8):
        hit = cache.lookup(_fp(("concurrent", index)))
        assert hit is not None and hit.aggregate == float(index)


# ------------------------------------------------- batch-layer behavior --


def _scenarios(count=3, epsilon=0.1):
    return [
        Scenario(
            f"s{i}",
            engine="fixed",
            engine_options={"release": "windowed", "windows": [2]},
            epsilon=epsilon,
            seed=i,
            iterations=2,
        )
        for i in range(count)
    ]


def test_cache_path_argument_builds_persistent_cache(template, tmp_path):
    cache_dir = tmp_path / "cache"
    first = template.run_many(_scenarios(), cache=str(cache_dir))
    assert (first.cache_hits, first.cache_misses) == (0, 3)
    assert cache_dir.is_dir() and len(list(cache_dir.glob("*.json"))) == 3
    # a second batch through a NEW cache object (fresh memory tier,
    # same directory) is all hits — the in-process-restart shape
    second = template.run_many(_scenarios(), cache=cache_dir)  # PathLike works too
    assert (second.cache_hits, second.cache_misses) == (3, 0)
    for i in range(3):
        assert second.by_name(f"s{i}").cached
        assert (
            second.by_name(f"s{i}").result.aggregate
            == first.by_name(f"s{i}").result.aggregate
        )


def test_a_cache_tier_endpoint_is_refused_not_made_a_directory(
    template, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigurationError, match="cache tier was removed"):
        template.run_many(_scenarios(), cache="tcp://127.0.0.1:7200")
    assert list(tmp_path.iterdir()) == []


def test_a_streaming_batch_refuses_a_cache_tier_endpoint_too(
    template, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigurationError, match="cache tier was removed"):
        list(template.run_many_iter(_scenarios(), cache="tcp://127.0.0.1:7200"))
    assert list(tmp_path.iterdir()) == []


def test_streaming_batch_accepts_cache_path(template, tmp_path):
    cache_dir = str(tmp_path / "cache")
    list(template.run_many_iter(_scenarios(), cache=cache_dir))
    outcomes = list(template.run_many_iter(_scenarios(), cache=cache_dir))
    assert all(o.cached for o in outcomes)


def _sweep_in_fresh_process(network, cache_dir: str, out_path: str) -> None:
    """One full sweep as a separate process would run it: fresh memory
    tier, fresh accountant — only the cache directory is shared."""
    accountant = PrivacyAccountant()
    template = StressTest(network).program("eisenberg-noe").seed(SEED)
    batch = template.run_many(_scenarios(), accountant=accountant, cache=cache_dir)
    Path(out_path).write_text(
        json.dumps(
            {
                "aggregates": batch.aggregates(),
                "cached": {o.name: o.cached for o in batch},
                "hits": batch.cache_hits,
                "misses": batch.cache_misses,
                "epsilon_charged": batch.epsilon_charged,
                "spent": accountant.spent,
            }
        )
    )


def test_sweep_survives_a_process_restart(network, tmp_path):
    """The acceptance bar: the second process performs zero engine
    executions and zero epsilon charges, and releases identical values."""
    ctx = multiprocessing.get_context("fork")
    cache_dir = str(tmp_path / "cache")
    reports = {}
    for label in ("cold", "warm"):
        out = tmp_path / f"{label}.json"
        proc = ctx.Process(
            target=_sweep_in_fresh_process, args=(network, cache_dir, str(out))
        )
        proc.start()
        proc.join()
        assert proc.exitcode == 0
        reports[label] = json.loads(out.read_text())
    cold, warm = reports["cold"], reports["warm"]
    assert (cold["hits"], cold["misses"]) == (0, 3)
    assert cold["epsilon_charged"] == pytest.approx(0.3)
    assert cold["spent"] == pytest.approx(0.3)
    # the restarted process: all hits, no executions, no fresh budget
    assert (warm["hits"], warm["misses"]) == (3, 0)
    assert all(warm["cached"].values())
    assert warm["epsilon_charged"] == 0.0
    assert warm["spent"] == 0.0
    # bit-identical releases (JSON round-trips floats exactly)
    assert warm["aggregates"] == cold["aggregates"]


def test_over_cap_store_evicts_lru_but_keeps_sweep_bit_identical(template, tmp_path):
    reference = {
        o.name: o.result.aggregate for o in template.run_many(_scenarios(4))
    }
    probe = PersistentScenarioCache(tmp_path / "probe")
    template.run_many(_scenarios(1), cache=probe)
    entry_bytes = probe.total_bytes()

    # room for only ~2 of the 4 entries: the sweep still completes and
    # matches the uncapped reference bit for bit, evicting as it goes
    capped = PersistentScenarioCache(
        tmp_path / "capped", max_bytes=int(entry_bytes * 2.5), memory_tier=False
    )
    cold = template.run_many(_scenarios(4), cache=capped)
    assert capped.evictions > 0
    assert capped.total_bytes() <= capped.max_bytes
    assert {o.name: o.result.aggregate for o in cold} == reference

    rerun_cache = PersistentScenarioCache(
        tmp_path / "capped", max_bytes=int(entry_bytes * 2.5), memory_tier=False
    )
    warm = template.run_many(_scenarios(4), cache=rerun_cache)
    # the surviving entries hit; the evicted ones recompute — identically
    assert warm.cache_hits > 0 and warm.cache_misses > 0
    assert {o.name: o.result.aggregate for o in warm} == reference
