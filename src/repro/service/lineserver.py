""":class:`JsonLinesServer` — the framing both service-layer servers share.

Newline-delimited JSON over asyncio TCP: one request object per line,
one response object per line (the service sibling of the
:mod:`repro.net.wire` length-prefix rule: the receiver always knows
where a message ends, so garbage is rejected at the line). The base owns
the socket lifecycle, the framing and the typed-error envelope; a
subclass adds its op table. Every request gets a response line — a
malformed one, or a handler raising a
:class:`~repro.exceptions.DStressError`, a typed error, never silence.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Dict, Optional

from repro.exceptions import DStressError

__all__ = ["JsonLinesServer", "Handler", "SERVICE_PROTOCOL_VERSION"]

#: Version stamped into every response; clients refuse a mismatch.
SERVICE_PROTOCOL_VERSION = 1

Handler = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]


class JsonLinesServer:
    """Socket lifecycle + JSON-lines framing + typed-error envelope.

    ``ping`` and ``shutdown`` are built in; subclasses add their own ops
    to :attr:`_ops` (``op name -> async handler(request) -> body``) and
    their own counters to :attr:`counters`.
    """

    def __init__(self, host: str, port: int, *, max_line_bytes: int, name: str) -> None:
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
        self.counters: Dict[str, int] = {"requests": 0, "malformed": 0}
        self._ops: Dict[str, Handler] = {
            "ping": self._ping,
            "shutdown": self._shutdown_op,
        }

    # ---------------------------------------------------------- lifecycle --

    async def start(self) -> int:
        """Bind and start serving; returns the actually-bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_line_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_until_closed(self) -> None:
        """Block until :meth:`close` (or a ``shutdown`` op) is called."""
        await self._closed.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._drain()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def close(self) -> None:
        self._closed.set()

    async def _drain(self) -> None:
        """Let work already admitted finish before connections are cut."""

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
            return await self._call(handler, request)
        except DStressError as exc:
            return self._error_body(type(exc).__name__, str(exc))

    async def _call(self, handler: Handler, request: Dict[str, Any]) -> Dict[str, Any]:
        return await handler(request)

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
