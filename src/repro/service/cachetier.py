"""The networked cache tier: fleet-shared release deduplication.

A :class:`CacheTierServer` fronts any
:class:`~repro.api.cache.ScenarioCacheBase` (typically the on-disk
:class:`~repro.api.diskcache.PersistentScenarioCache`) over the same
JSON-lines protocol the service speaks, and
:class:`RemoteScenarioCache` is the matching client-side
:class:`~repro.api.cache.ScenarioCacheBase` adapter — plug it into a
:class:`~repro.service.server.StressTestService`, ``run_batch``, or a
session, and a *fleet* of replicas shares one release store keyed by
notarized fingerprint: the first replica to release a scenario pays the
engine run and the epsilon; every other replica answers from the tier.

Results cross the wire as their ``dstress.obs.run`` document
(:meth:`RunResult.to_doc`), a JSON object inside the JSON line, and both
ends decode it through the whitelisting :meth:`RunResult.from_doc`: a
peer can hand the tier a malformed payload (an error line) or a
well-formed wrong result (so expose the port only to replicas allowed to
publish), but never code.

Failure semantics follow the cache's prime directive — *only err toward
miss*. By default the remote cache is **tolerant**: an unreachable or
crashed tier turns every lookup into a miss and every store into a
no-op (the replica recomputes; correctness is untouched, only dedup is
lost). ``strict=True`` converts those faults into
:class:`~repro.exceptions.ServiceUnavailableError` for deployments that
would rather fail loudly than quietly forfeit deduplication.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.api.cache import ScenarioCacheBase
from repro.api.result import RunResult
from repro.exceptions import ConfigurationError, ResultFormatError, ServiceError
from repro.obs.trace import current_recorder
from repro.service.client import ServiceClient
from repro.service.lineserver import JsonLinesServer

__all__ = ["CacheTierServer", "RemoteScenarioCache"]

_MAX_LINE_BYTES = 64 * 1024 * 1024  # per-node traffic tables are chunky


class CacheTierServer(JsonLinesServer):
    """Serve one :class:`ScenarioCacheBase` to the fleet.

    Ops: ``ping``, ``lookup`` (fingerprint → payload or miss), ``store``
    (fingerprint + payload), ``stats``, ``clear``, ``shutdown``. Every
    response is a typed JSON line; a malformed request gets an error
    line, never silence.
    """

    def __init__(
        self,
        backing: ScenarioCacheBase,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_line_bytes: int = _MAX_LINE_BYTES,
        name: str = "dstress-cachetier",
    ) -> None:
        super().__init__(host, port, max_line_bytes=max_line_bytes, name=name)
        self.backing = backing
        self.counters.update(lookups=0, hits=0, stores=0)
        self._ops.update(
            lookup=self._lookup, store=self._store, stats=self._stats, clear=self._clear
        )

    async def _stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._ok(
            op="stats",
            counters=dict(self.counters),
            entries=len(self.backing),
            hits=self.backing.hits,
            misses=self.backing.misses,
        )

    async def _clear(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.backing.clear()
        return self._ok(op="clear")

    def _fingerprint_of(self, request: Dict[str, Any]) -> Optional[str]:
        fingerprint = request.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            return None
        return fingerprint

    async def _lookup(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fingerprint = self._fingerprint_of(request)
        if fingerprint is None:
            return self._malformed("lookup requires a non-empty string 'fingerprint'")
        self.counters["lookups"] += 1
        with current_recorder().span("cachetier.lookup", fingerprint=fingerprint[:16]):
            result = self.backing.lookup(fingerprint)
        if result is None:
            return self._ok(op="lookup", hit=False)
        try:
            payload = result.to_doc()
        except ResultFormatError:
            # outside the schema: err toward miss, never a broken payload
            return self._ok(op="lookup", hit=False)
        self.counters["hits"] += 1
        return self._ok(op="lookup", hit=True, payload=payload)

    async def _store(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fingerprint = self._fingerprint_of(request)
        if fingerprint is None:
            return self._malformed("store requires a non-empty string 'fingerprint'")
        try:
            result = RunResult.from_doc(request.get("payload"))
        except ResultFormatError as exc:
            return self._malformed(f"store payload does not decode to a RunResult: {exc}")
        self.counters["stores"] += 1
        with current_recorder().span("cachetier.store", fingerprint=fingerprint[:16]):
            self.backing.store(fingerprint, result)
        return self._ok(op="store", stored=True)


class RemoteScenarioCache(ScenarioCacheBase):
    """A :class:`ScenarioCacheBase` whose storage lives across a socket.

    Drop-in anywhere a cache is accepted — ``run_batch(cache=...)``
    (including the ``"tcp://host:port"`` shorthand), a
    :class:`~repro.service.server.StressTestService`, or a session.
    Entries arrive already isolated (they were decoded off the wire),
    so no extra copy is made.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        strict: bool = False,
    ) -> None:
        super().__init__()
        self.strict = strict
        self._client = ServiceClient(
            host, port, timeout=timeout, max_line_bytes=_MAX_LINE_BYTES
        )

    @classmethod
    def from_endpoint(cls, endpoint: str) -> "RemoteScenarioCache":
        """The cache behind a ``tcp://host:port`` (or bare ``host:port``)
        endpoint string; an empty host means loopback."""
        host, sep, port = endpoint.removeprefix("tcp://").rpartition(":")
        if not sep or not port.isdigit():
            raise ConfigurationError(
                f"cache endpoint {endpoint!r} is not tcp://host:port"
            )
        return cls(host or "127.0.0.1", int(port))

    # ----------------------------------------------------------- plumbing --

    @property
    def endpoint(self) -> str:
        return f"tcp://{self._client.host}:{self._client.port}"

    def close(self) -> None:
        self._client.close()

    def _call(self, body: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One request; tolerant mode maps any fault to ``None`` (miss)."""
        try:
            response = self._client.request(body)
            response.raise_for_status()
            return response.body
        except ServiceError:
            if self.strict:
                raise
            return None

    # ------------------------------------------------------ cache protocol --

    def _fetch(self, fingerprint: str) -> Optional[RunResult]:
        body = self._call({"op": "lookup", "fingerprint": fingerprint})
        if body is None or not body.get("hit"):
            return None
        try:
            return RunResult.from_doc(body.get("payload"))
        except ResultFormatError:
            return None

    def _persist(self, fingerprint: str, result: RunResult) -> None:
        try:
            payload = result.to_doc()
        except ResultFormatError:
            return
        self._call({"op": "store", "fingerprint": fingerprint, "payload": payload})

    def clear(self) -> None:
        self._call({"op": "clear"})

    def __len__(self) -> int:
        body = self._call({"op": "stats"})
        if body is None:
            return 0
        entries = body.get("entries")
        return int(entries) if isinstance(entries, int) else 0
