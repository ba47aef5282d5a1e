""":class:`StressTestService` — the long-running stress-test server.

Newline-delimited JSON over asyncio TCP: one request object per line,
one response object per line (the service sibling of the
:mod:`repro.net.wire` length-prefix rule: the receiver always knows
where a message ends, so garbage is rejected at the line). Ops:
``ping``, ``submit``, ``stats``, ``shutdown``.

A ``submit`` carries a scenario document (see
:mod:`repro.service.scenario_ast`) and walks four gates, all on the
event-loop thread so their composition is atomic with respect to every
other in-flight request:

1. **Notarize.** Whitelist-validate, canonicalize, resolve, fingerprint.
   A malformed or unwhitelisted document gets a typed ``rejected``
   response before anything is built further or charged. The network is
   built once per network spec per process
   (:data:`~repro.service.scenario_ast.GRAPHS`), so a fresh document over a
   known network costs validation and two small tokens; and the last
   notarizations are kept by canonical text, so a re-submit costs a
   lookup. Neither rebuilds on the thread every client waits behind.
2. **Single-flight.** If an identical scenario (same notarized
   fingerprint) is already executing, this request *joins* it: no second
   engine run, no second charge — N concurrent identical requests cost
   one run and one epsilon, and all N get bit-identical responses.
3. **Cache.** A fingerprint already released is answered from the
   cache with zero compute and zero charge — re-publishing an
   already-released value consumes no fresh privacy.
4. **Admission.** A releasing scenario atomically pre-charges the shared
   :class:`~repro.privacy.budget.PrivacyAccountant` *before* it is
   scheduled (the PR-5 pre-charge/refund machinery: `charge` either
   records the draw or raises, there is no check-then-charge gap).
   Over budget ⇒ typed ``over-budget`` response, books untouched. A run
   that subsequently *fails* refunds its pre-charge — nothing was
   released, so nothing was spent — and answers with a typed ``error``.

Execution happens in ``max_workers`` persistent worker **processes**
(:func:`repro.api.pool.create_executor`: forked in :meth:`start` before
the listener binds, gone when this process is) — engines are pure
Python, threads would share one interpreter lock. What crosses the hop,
pickled over a pipe to a forked child: the notarized ``ResolvedRun`` out,
the ``RunResult`` and the worker's plan-table counters back. The gates,
the accountant, the cache, the counters and the response encoding stay
here; a worker gets ``accountant=None`` and never sees the cache.

Every response is typed from the :class:`~repro.exceptions.ServiceError`
taxonomy — rejected / over-budget / malformed / failed — **never a
hang**: any exception a handler can raise is mapped onto a response
line, and a connection that sends garbage gets an error line, not
silence. A worker that dies mid-run costs every run in flight a typed
error and an exact refund; the pool is rebuilt for the next submit.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.api.cache import ScenarioCacheBase
from repro.api.pool import create_executor
from repro.api.session import ResolvedRun, execute_resolved
from repro.exceptions import (
    DStressError,
    PrivacyBudgetExceeded,
    ScenarioValidationError,
    ServiceProtocolError,
)
from repro.mpc.plan import PLANS
from repro.obs.export import encode_run_fields
from repro.obs.trace import current_recorder
from repro.privacy.admission import precharge, release_schedule
from repro.privacy.budget import PrivacyAccountant
from repro.service.client import SERVICE_PROTOCOL_VERSION
from repro.service.scenario_ast import NotarizedScenario, canonical_json, notarize

__all__ = ["StressTestService", "SERVICE_PROTOCOL_VERSION", "result_payload"]

#: Longest request line the service reads unless told otherwise.
DEFAULT_MAX_LINE_BYTES = 1024 * 1024
#: Notarizations a service remembers (each holds one resolved network).
_NOTARIZED_KEPT = 64

Handler = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]

#: What a release response carries of a result: the published values and
#: their provenance, not the run's telemetry. ``releases`` because under
#: continual release the per-window outputs ARE the product — a windowed
#: submission's client sees every published value, not just the final one.
_PAYLOAD_FIELDS = (
    "engine", "program", "aggregate", "pre_noise_aggregate", "noise_raw",
    "trajectory", "iterations", "epsilon", "extras", "releases",
)  # fmt: skip


def result_payload(result: Any) -> Dict[str, Any]:
    """The JSON-safe, bit-comparable essence of a released run result: a
    key projection of its ``dstress.obs.run`` document.

    Floats survive JSON round-trips exactly (``repr``-based encoding), so
    two payloads comparing equal means the underlying releases are
    bit-identical — the same contract :func:`repro.net.cluster` uses for
    cluster summaries.
    """
    return encode_run_fields(result, _PAYLOAD_FIELDS)


def _run_in_worker(resolved: ResolvedRun) -> Tuple[Any, int, int]:
    """Worker entry point: the run, and this worker's ``PLANS`` build/hit deltas."""
    builds, hits = PLANS.builds, PLANS.hits
    result = execute_resolved(resolved, accountant=None)
    return result, PLANS.builds - builds, PLANS.hits - hits


class StressTestService:
    """The standing service: submit notarized scenarios, get releases.

    Parameters
    ----------
    accountant:
        The shared privacy budget every admitted release draws from.
        ``None`` runs without admission control (demo/plaintext fleets).
    cache:
        A :class:`~repro.api.cache.ScenarioCacheBase` fronting released
        results — the in-memory cache or the on-disk
        :class:`~repro.api.diskcache.PersistentScenarioCache`.
    max_workers:
        Worker processes, i.e. the bound on concurrently-executing engine
        runs. Further admitted requests queue on the executor (admission
        happens first, so budget semantics are unaffected by queueing order).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        accountant: Optional[PrivacyAccountant] = None,
        cache: Optional[ScenarioCacheBase] = None,
        max_workers: int = 2,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        name: str = "dstress-service",
    ) -> None:
        if max_workers < 1:
            raise ServiceProtocolError("max_workers must be at least 1")
        self.host = host
        self.port = port
        self.name = name
        #: Longest request line read (the JSON-lines analogue of the wire
        #: layer's frame cap: refused before allocation balloons).
        self.max_line_bytes = max_line_bytes
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed = asyncio.Event()
        #: open connection handlers, cancelled at shutdown so a client
        #: holding its connection open cannot orphan a task.
        self._connections: "set[asyncio.Task[None]]" = set()
        self.accountant = accountant
        self.cache = cache
        self._max_workers = max_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        #: circuits compiled / reused, summed over the workers' runs
        self._plans = {"builds": 0, "hits": 0}
        #: canonical document text -> its notarization, most recent last
        self._notarized: Dict[str, NotarizedScenario] = {}
        #: fingerprint -> future resolving to the shared response body;
        #: the single-flight table.
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "malformed": 0,
            "admitted": 0,
            "rejected": 0,
            "over_budget": 0,
            "deduped": 0,
            "cache_hits": 0,
            "engine_runs": 0,
            "failed": 0,
        }
        self._ops: Dict[str, Handler] = {
            "ping": self._ping,
            "shutdown": self._shutdown_op,
            "stats": self._stats,
            "submit": self._submit,
        }

    # ---------------------------------------------------------- lifecycle --

    async def start(self) -> int:
        """Fork the workers, then bind and serve; returns the bound port."""
        # workers first: forked before there is a socket to inherit
        self._executor = create_executor(self._max_workers)
        try:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.host,
                self.port,
                limit=self.max_line_bytes,
            )
        except BaseException:
            self._executor.shutdown()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_until_closed(self) -> None:
        """Block until :meth:`close` (or a ``shutdown`` op) is called."""
        try:
            await self._closed.wait()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
            # let in-flight runs finish: their futures answer joined waiters
            pending = [f for f in self._inflight.values() if not f.done()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
        finally:
            self._executor.shutdown(wait=True)

    async def close(self) -> None:
        self._closed.set()

    # --------------------------------------------------------- connection --

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        self._malformed(
                            f"request line exceeds {self.max_line_bytes} bytes"
                        ),
                    )
                    break
                if not line:
                    break
                response = await self._dispatch_line(line)
                await self._send(writer, response)
                if response.get("op") == "shutdown":
                    self._closed.set()
                    break
        except asyncio.CancelledError:
            pass  # deliberate shutdown cancellation: close quietly
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, body: Dict[str, Any]) -> None:
        writer.write(json.dumps(body, allow_nan=False).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        self.counters["requests"] += 1
        try:
            request = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            return self._malformed(f"request is not valid JSON: {exc}")
        if not isinstance(request, dict) or not isinstance(request.get("op"), str):
            return self._malformed("request must be an object with a string 'op'")
        handler = self._ops.get(request["op"])
        if handler is None:
            return self._malformed(
                f"unknown op {request['op']!r}; supported: {', '.join(self._ops)}"
            )
        try:
            with current_recorder().span("service.request", op=request["op"]):
                return await handler(request)
        except DStressError as exc:
            return self._error_body(type(exc).__name__, str(exc))

    # ----------------------------------------------------------- envelope --

    def _ok(self, **fields: Any) -> Dict[str, Any]:
        body = {"ok": True, "version": SERVICE_PROTOCOL_VERSION}
        body.update(fields)
        return body

    def _error_body(
        self, error: str, message: str, status: str = "error"
    ) -> Dict[str, Any]:
        return {
            "ok": False,
            "version": SERVICE_PROTOCOL_VERSION,
            "status": status,
            "error": error,
            "message": message,
        }

    def _malformed(self, message: str) -> Dict[str, Any]:
        self.counters["malformed"] += 1
        return self._error_body("ServiceProtocolError", message)

    async def _ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._ok(op="ping", server=self.name)

    async def _shutdown_op(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._ok(op="shutdown")

    async def _stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._stats_body()

    def _stats_body(self) -> Dict[str, Any]:
        body = self._ok(op="stats", counters=dict(self.counters))
        if self.accountant is not None:
            body["budget"] = {
                "epsilon_max": self.accountant.epsilon_max,
                "spent": self.accountant.spent,
                "remaining": self.accountant.remaining,
                "period": self.accountant.period,
            }
        if self.cache is not None:
            body["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        body["plans"] = dict(self._plans)
        body["inflight"] = len(self._inflight)
        return body

    # ------------------------------------------------------------- submit --

    def _notarize(self, doc: Any) -> NotarizedScenario:
        try:
            text = canonical_json(doc)
        except (ScenarioValidationError, RecursionError):
            return notarize(doc)  # no key for it: the notary words the refusal
        notarized = self._notarized.pop(text, None) or notarize(doc)
        self._notarized[text] = notarized
        if len(self._notarized) > _NOTARIZED_KEPT:
            del self._notarized[next(iter(self._notarized))]
        return notarized

    async def _submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        doc = request.get("scenario")
        metrics = current_recorder().metrics if current_recorder().enabled else None
        # Gate 1: notarize. Bounded by the whitelist caps, so validation
        # on the loop thread cannot be weaponized into a stall.
        try:
            notarized = self._notarize(doc)
        except ScenarioValidationError as exc:
            self.counters["rejected"] += 1
            if metrics is not None:
                metrics.inc("service.rejected")
            return self._error_body(
                "ScenarioValidationError", str(exc), status="rejected"
            )

        # Gate 2: single-flight. Everything from here to the future being
        # installed runs without an await, so two identical requests can
        # never both reach the charge.
        existing = self._inflight.get(notarized.fingerprint)
        if existing is not None:
            self.counters["deduped"] += 1
            if metrics is not None:
                metrics.inc("service.deduped")
            body = dict(await asyncio.shield(existing))
            body["deduped"] = True
            return body

        # Gate 3: the released-results cache.
        if self.cache is not None:
            prior = self.cache.lookup(notarized.fingerprint)
            if prior is not None:
                self.counters["cache_hits"] += 1
                if metrics is not None:
                    metrics.inc("service.cache_hits")
                return self._release_body(notarized, prior, cached=True)

        # Gate 4: admission — atomic pre-charge before scheduling, itemized
        # (one ledger line per release window) by the shared
        # repro.privacy.admission authority the engine lifecycle and the
        # batch layer also charge through.
        charge = None
        if self.accountant is not None and notarized.releases:
            try:
                charge = precharge(
                    self.accountant,
                    release_schedule(
                        notarized.resolved.engine,
                        notarized.resolved.config,
                        notarized.name,
                    ),
                    fingerprint=notarized.fingerprint,
                )
            except PrivacyBudgetExceeded as exc:
                self.counters["over_budget"] += 1
                if metrics is not None:
                    metrics.inc("service.over_budget")
                return self._error_body(
                    "PrivacyBudgetExceeded", str(exc), status="over-budget"
                )
        self.counters["admitted"] += 1
        if metrics is not None:
            metrics.inc("service.admitted")

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._inflight[notarized.fingerprint] = future
        try:
            body = await self._execute(notarized, charge)
            future.set_result(body)
        except BaseException as exc:  # pragma: no cover - defensive re-raise
            future.set_exception(exc)
            future.exception()  # consumed: joined waiters re-raise their own
            raise
        finally:
            self._inflight.pop(notarized.fingerprint, None)
        return body

    async def _execute(
        self, notarized: NotarizedScenario, charge: Any
    ) -> Dict[str, Any]:
        """Run the engine in a worker process; store or refund afterwards."""
        metrics = current_recorder().metrics if current_recorder().enabled else None
        loop = asyncio.get_running_loop()
        self.counters["engine_runs"] += 1
        executor = self._executor
        try:
            result, builds, hits = await loop.run_in_executor(
                executor, _run_in_worker, notarized.resolved
            )
            self._plans["builds"] += builds
            self._plans["hits"] += hits
            # encoded here, not at send time: a result the response cannot
            # carry (ResultFormatError) is a failed release like any other
            body = self._release_body(notarized, result, cached=False)
        except Exception as exc:  # not only DStressError: never hang the waiters
            self.counters["failed"] += 1
            if metrics is not None:
                metrics.inc("service.failed")
            if charge is not None:
                # the release never happened: the pre-charge goes back
                charge.refund()
            if isinstance(exc, DStressError):
                return self._error_body(type(exc).__name__, str(exc))
            if isinstance(exc, BrokenProcessPool) and executor is self._executor:
                # a worker died: every run in flight lands here, the first rebuilds
                executor.shutdown(wait=True)
                self._executor = create_executor(self._max_workers)
            return self._error_body("ServiceError", f"engine crashed: {exc}")
        if self.cache is not None:
            self.cache.store(notarized.fingerprint, result)
        return body

    def _release_body(
        self, notarized: NotarizedScenario, result: Any, cached: bool
    ) -> Dict[str, Any]:
        return self._ok(
            op="submit",
            status="released",
            name=notarized.name,
            fingerprint=notarized.fingerprint,
            digest=notarized.digest,
            cached=cached,
            deduped=False,
            epsilon_charged=0.0 if cached else notarized.epsilon,
            result=result_payload(result),
        )
