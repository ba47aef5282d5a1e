"""Persistent on-disk scenario cache: sweeps survive process restarts.

The in-memory :class:`~repro.api.cache.ScenarioCache` dies with the
process, but the workload it serves — a regulator re-running the same
quarterly sweeps under a hard yearly ``ln 2`` budget (§4.5) — lives for
years. :class:`PersistentScenarioCache` is the drop-in disk-backed tier:
``run_many(..., cache="path/to/dir")`` keys entries by the same
content-based :func:`~repro.api.cache.run_fingerprint` digests, so a
restarted service (or a colleague's process pointed at a shared
directory) replays previously-released results with **zero engine
executions and zero fresh epsilon charges**.

Layout and guarantees:

* **One file per entry.** Each fingerprint owns ``<fp>.json``: format
  version, fingerprint, engine/program identity, created stamp and the
  result's ``dstress.obs.run`` document
  (:meth:`~repro.api.result.RunResult.to_doc`). A result the schema
  cannot hold is not persisted — it lives in the memory tier only.
* **Atomic writes.** The file lands via tmpfile + fsync +
  :func:`os.replace` in the cache directory, so a worker killed
  mid-write can never leave a torn entry — only a stale ``.tmp-*`` file,
  swept on the next init.
* **Versioned format, err toward miss.** A file that is not JSON, not a
  valid document, written for another fingerprint or under a different
  :data:`DISK_FORMAT_VERSION` is treated as a miss and discarded; a
  wrong hit is the one failure mode a result cache must never have.
* **Two tiers.** An in-process memory tier (plain dict of golden copies)
  fronts the disk tier, so hot sweeps pay one structural copy per hit
  (:func:`~repro.api.cache.clone_result`) — exactly what the memory-only
  cache costs — and the disk is only read the first time each entry is
  seen by this process.
* **LRU eviction under a byte cap.** ``max_bytes`` bounds the entry
  bytes on disk; the least-recently-used entries go first. An entry's
  LRU stamp is its file's mtime, set from the injectable
  :func:`~repro.obs.clock.wall_time` on every store and disk hit —
  memory-tier hits deliberately skip it to keep the hot path free of
  system calls — and evictions are counted on the instance
  (``evictions`` / ``evicted_bytes``, see :meth:`stats`).
* **Cross-process safety.** Atomic replace + tolerate-vanishing-files
  reads mean two concurrent sweeps (or ``workers>1`` batches) sharing a
  directory can interleave freely: the worst interleaving costs a miss
  and a recompute, never corruption or a wrong hit.

Nothing in the directory is ever executed: reading an entry parses JSON
into a fixed whitelist of result classes. A writer is still trusted for
*content* — it can file a well-formed wrong result under a fingerprint —
so share the directory only between parties allowed to publish.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.api.cache import ScenarioCacheBase, clone_result
from repro.api.result import RunResult
from repro.exceptions import ConfigurationError, ResultFormatError
from repro.obs.clock import wall_time

__all__ = ["PersistentScenarioCache", "DISK_FORMAT_VERSION"]

#: Version stamped into every entry. Bump it whenever the entry layout,
#: the result document or the fingerprint inputs change incompatibly:
#: entries from other versions read as misses, never as wrong hits.
DISK_FORMAT_VERSION = 2

_ENTRY_SUFFIX = ".json"
_V1_PAYLOAD_SUFFIX = ".pkl"
_TMP_PREFIX = ".tmp-"

#: Eviction empties the store down to this fraction of ``max_bytes``
#: rather than stopping exactly at the cap, so a store arriving at a
#: full cache buys headroom for many further stores instead of pushing
#: the next store straight back into a full directory walk.
_EVICTION_LOW_WATER = 0.9


class PersistentScenarioCache(ScenarioCacheBase):
    """A two-tier (memory → disk) fingerprint → :class:`RunResult` store.

    Drop-in wherever a :class:`~repro.api.cache.ScenarioCache` is
    accepted; ``run_batch`` / ``StressTest.run_many`` also build one
    directly from ``cache="path/to/dir"``. The directory is created on
    demand and may be shared between processes.

    Parameters
    ----------
    directory:
        Where entries live. Everything this cache writes stays inside it.
    max_bytes:
        Optional hard cap on the total entry bytes kept on disk;
        exceeding it evicts least-recently-used entries after every
        store. A single entry larger than the cap is rejected outright
        (memory tier included, counted on ``rejections``) — it alone, so
        it can never flush smaller already-paid-for entries out of the
        store (a hard budget, not advisory).
    memory_tier:
        Keep an in-process dict of entries already seen, so repeat hits
        cost one :func:`~repro.api.cache.clone_result` copy instead of a
        disk read. Unbounded, like the memory-only cache; disable for
        many-gigabyte sweeps.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        max_bytes: Optional[int] = None,
        memory_tier: bool = True,
    ) -> None:
        super().__init__()
        if max_bytes is not None and (isinstance(max_bytes, bool) or max_bytes < 1):
            raise ConfigurationError("max_bytes must be a positive int (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._memory: Optional[Dict[str, RunResult]] = {} if memory_tier else None
        #: Telemetry beyond the base hit/miss counters: which tier served
        #: each hit, and what eviction has cost so far. Cumulative over
        #: the instance's lifetime (batch-refusal rollbacks adjust only
        #: the shared ``hits``/``misses``).
        self.memory_hits = 0
        self.disk_hits = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.rejections = 0
        self._sweep_leftovers()
        # running entry-byte estimate, seeded from disk once: the
        # common under-cap store must not pay a directory walk. Stores
        # add to it, eviction walks resync it from disk; another
        # process's concurrent writes are invisible until our own next
        # walk, so a shared directory enforces the cap per writer (it can
        # transiently exceed the cap by the other writers' in-flight
        # bytes — never by ours).
        self._approx_bytes = self.total_bytes() if max_bytes is not None else 0

    # ------------------------------------------------------------ protocol --

    def _fetch(self, fingerprint: str) -> Optional[RunResult]:
        if self._memory is not None and fingerprint in self._memory:
            clone = clone_result(self._memory[fingerprint])
            if clone is not None:
                # no mtime touch here: the hot path must cost exactly one
                # clone_result copy (the entry's stamp was refreshed when
                # this process first read or wrote it, which bounds the
                # LRU staleness at the process lifetime)
                self.memory_hits += 1
                return clone
            del self._memory[fingerprint]  # uncopyable entry: evict
        path = self._path(fingerprint)
        try:
            raw = path.read_bytes()
        except OSError:
            return None  # plain miss: nothing to clean up
        result = _decode_entry(fingerprint, raw)
        if result is None:
            # corruption or version skew: discard so it isn't re-tried
            # forever. Racing a writer that replaced the file since the
            # read costs that entry — a later miss, never a wrong hit.
            _unlink_quietly(path)
            return None
        self.disk_hits += 1
        now = wall_time()
        try:
            os.utime(path, (now, now))  # the LRU stamp
        except OSError:
            pass  # a lost touch only skews eviction order, never correctness
        if self._memory is not None:
            # keep the decoded object as the golden copy; hand out a clone
            self._memory[fingerprint] = result
            return clone_result(result)
        return result

    def _persist(self, fingerprint: str, result: RunResult) -> None:
        # encoding isolates the disk copy by itself, so a memory_tier=False
        # store never copies; only the memory tier needs its own clone
        try:
            document = result.to_doc()
        except ResultFormatError:
            self._remember(fingerprint, result)
            return  # outside the schema: memory-tier entry only (if any)
        now = wall_time()
        payload = json.dumps(
            {
                "version": DISK_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "engine": result.engine,
                "program": result.program,
                "created_at": now,
                "result": document,
            },
            allow_nan=False,
            separators=(",", ":"),
        ).encode("utf-8")
        if self.max_bytes is not None and len(payload) > self.max_bytes:
            # an entry that can never fit under the cap must not enter the
            # LRU walk at all — as the batch's newest entry it would sort
            # last and push every smaller (still-valid, already-paid-for)
            # entry out before evicting itself. It is rejected outright,
            # memory tier included, and counted apart from evictions so
            # evicted_bytes reflects only bytes that actually left disk.
            self.rejections += 1
            return
        self._remember(fingerprint, result)
        try:
            self._atomic_write(self._path(fingerprint), payload, now)
        except OSError:
            return  # a full/readonly/raced disk costs persistence, not the run
        if self.max_bytes is not None:
            self._approx_bytes += len(payload)
            if self._approx_bytes > self.max_bytes:
                self._evict_to_cap(protect=fingerprint)

    def clear(self) -> None:
        if self._memory is not None:
            self._memory.clear()
        for path in self._entry_paths():
            _unlink_quietly(path)
        self._sweep_leftovers()
        self._approx_bytes = 0

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    # ----------------------------------------------------------- telemetry --

    def total_bytes(self) -> int:
        """Entry bytes currently on disk."""
        return sum(size for _used_at, _fingerprint, size in self._walk())

    def stats(self) -> Dict[str, int]:
        """One snapshot of the cache's telemetry counters and footprint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "rejections": self.rejections,
            "entries": len(self),
            "disk_bytes": self.total_bytes(),
        }

    # ----------------------------------------------------------- internals --

    def _remember(self, fingerprint: str, result: RunResult) -> None:
        """Keep a private golden copy in the memory tier (if enabled)."""
        if self._memory is not None:
            clone = clone_result(result)
            if clone is not None:
                self._memory[fingerprint] = clone

    def _path(self, fingerprint: str) -> Path:
        return self.directory / (fingerprint + _ENTRY_SUFFIX)

    def _entry_paths(self) -> Iterator[Path]:
        return self.directory.glob("*" + _ENTRY_SUFFIX)

    def _walk(self) -> Iterator[Tuple[float, str, int]]:
        """``(LRU stamp, fingerprint, bytes)`` per entry — one ``stat``
        each; entries another process evicts mid-walk are skipped."""
        for path in self._entry_paths():
            try:
                status = path.stat()
            except OSError:
                continue
            yield status.st_mtime, path.name[: -len(_ENTRY_SUFFIX)], status.st_size

    def _atomic_write(self, path: Path, data: bytes, stamp: float) -> None:
        """Write ``data`` to ``path`` so readers see old-or-new, never
        torn, with ``stamp`` as its mtime (the entry's LRU stamp)."""
        tmp = self.directory / f"{_TMP_PREFIX}{os.getpid()}-{uuid.uuid4().hex}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.utime(tmp, (stamp, stamp))
            os.replace(tmp, path)
        finally:
            _unlink_quietly(tmp)

    def _evict_to_cap(self, protect: Optional[str] = None) -> None:
        """Full eviction walk: resync the byte estimate from disk, then
        evict oldest-used entries until the cap holds. Only reached when
        the running estimate crosses the cap (rare), so its directory
        walk is off the common store path.

        ``protect`` exempts the entry whose store triggered this walk: it
        fit under the cap (oversized ones were rejected before writing),
        so the walk must never sacrifice it to reach the low-water mark —
        a sweep whose single result sits between the mark and the cap
        would otherwise get zero persistence, re-charging epsilon on
        every restart."""
        if self.max_bytes is None:
            return
        entries = sorted(self._walk())  # oldest first; fingerprint breaks ties
        total = sum(size for _used_at, _fingerprint, size in entries)
        if total > self.max_bytes:
            # evict down to a low-water mark, not just under the cap —
            # at steady state an exactly-at-cap store would otherwise
            # cross the cap (and pay this whole walk) on every store
            target = int(self.max_bytes * _EVICTION_LOW_WATER)
            for _used_at, fingerprint, size in entries:
                if total <= target:
                    break
                if fingerprint == protect:
                    continue
                _unlink_quietly(self._path(fingerprint))
                self.evictions += 1
                self.evicted_bytes += size
                total -= size
        self._approx_bytes = total

    def _sweep_leftovers(self) -> None:
        """Remove tmp files left by crashed writers, and format-1 pickle
        payloads (unlinked unopened; their sidecars read as version-skew
        misses). Racing a *live* writer's tmp at worst turns its store
        into a no-op (a miss later), which is the direction a cache is
        allowed to err."""
        for pattern in (_TMP_PREFIX + "*", "*" + _V1_PAYLOAD_SUFFIX):
            for path in self.directory.glob(pattern):
                _unlink_quietly(path)


def _decode_entry(fingerprint: str, raw: bytes) -> Optional[RunResult]:
    """The result inside one entry file, or ``None`` for anything that is
    not a current-version entry for ``fingerprint``."""
    try:
        entry = json.loads(raw)
    except (ValueError, RecursionError):
        return None
    if (
        not isinstance(entry, dict)
        or entry.get("version") != DISK_FORMAT_VERSION
        or entry.get("fingerprint") != fingerprint
    ):
        return None
    try:
        return RunResult.from_doc(entry.get("result"))
    except ResultFormatError:
        return None


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass
