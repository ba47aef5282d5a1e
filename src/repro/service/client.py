""":class:`ServiceClient` — the synchronous stress-test service client.

One TCP connection, JSON-lines both ways (the mirror of
:class:`~repro.service.server.StressTestService`). The client is
deliberately dumb: it serializes a request object, reads one response
line, and wraps it in a :class:`ServiceResponse` whose
:meth:`~ServiceResponse.raise_for_status` maps the server's typed
refusals back onto the :mod:`repro.exceptions` taxonomy — so a caller
that ignores the transport entirely still sees the same
:class:`~repro.exceptions.ScenarioValidationError` /
:class:`~repro.exceptions.PrivacyBudgetExceeded` it would get from the
in-process API. Network failures surface as
:class:`~repro.exceptions.ServiceUnavailableError`, never raw
``OSError``.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exceptions import (
    PrivacyBudgetExceeded,
    ScenarioValidationError,
    ServiceError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from repro.service.lineserver import SERVICE_PROTOCOL_VERSION

__all__ = ["ServiceClient", "ServiceResponse"]

_STATUS_EXCEPTIONS = {
    "rejected": ScenarioValidationError,
    "over-budget": PrivacyBudgetExceeded,
}

_ERROR_EXCEPTIONS = {
    "ScenarioValidationError": ScenarioValidationError,
    "PrivacyBudgetExceeded": PrivacyBudgetExceeded,
    "ServiceProtocolError": ServiceProtocolError,
    "ServiceUnavailableError": ServiceUnavailableError,
}


@dataclass(frozen=True)
class ServiceResponse:
    """One parsed response line from the service."""

    body: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.body.get("ok"))

    @property
    def status(self) -> str:
        return str(self.body.get("status", ""))

    @property
    def error(self) -> Optional[str]:
        value = self.body.get("error")
        return None if value is None else str(value)

    @property
    def message(self) -> str:
        return str(self.body.get("message", ""))

    @property
    def cached(self) -> bool:
        return bool(self.body.get("cached"))

    @property
    def deduped(self) -> bool:
        return bool(self.body.get("deduped"))

    @property
    def fingerprint(self) -> Optional[str]:
        value = self.body.get("fingerprint")
        return None if value is None else str(value)

    @property
    def epsilon_charged(self) -> float:
        return float(self.body.get("epsilon_charged", 0.0))

    @property
    def result(self) -> Optional[Dict[str, Any]]:
        value = self.body.get("result")
        return value if isinstance(value, dict) else None

    def raise_for_status(self) -> "ServiceResponse":
        """Re-raise a refusal as its library exception; returns ``self``
        on success so calls chain (``submit(...).raise_for_status()``)."""
        if self.ok:
            return self
        exc_cls = _STATUS_EXCEPTIONS.get(self.status)
        if exc_cls is None:
            exc_cls = _ERROR_EXCEPTIONS.get(self.error or "", ServiceError)
        raise exc_cls(self.message or f"service refused request ({self.status})")


class ServiceClient:
    """Synchronous JSON-lines client for one service (or cache) endpoint.

    Usable as a context manager; the connection is opened lazily on the
    first request and a dead connection is re-dialed once per request
    before giving up with :class:`ServiceUnavailableError`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        max_line_bytes: int = 1024 * 1024,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_line_bytes = max_line_bytes
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    # ---------------------------------------------------------- lifecycle --

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ServiceUnavailableError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from exc
        sock.settimeout(self.timeout)
        self._sock = sock
        self._buffer = b""
        return sock

    # ------------------------------------------------------------ request --

    def request(self, body: Dict[str, Any]) -> ServiceResponse:
        """Send one request object, read one response line."""
        payload = json.dumps(body, allow_nan=False).encode("utf-8") + b"\n"
        for attempt in (0, 1):
            sock = self._connect()
            try:
                sock.sendall(payload)
                line = self._read_line(sock)
                break
            except (OSError, EOFError) as exc:
                self.close()
                if attempt == 1:
                    raise ServiceUnavailableError(
                        f"service at {self.host}:{self.port} dropped the "
                        f"connection: {exc}"
                    ) from exc
        try:
            parsed = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ServiceProtocolError(
                f"service response is not valid JSON: {exc}"
            ) from exc
        if not isinstance(parsed, dict):
            raise ServiceProtocolError("service response is not an object")
        version = parsed.get("version")
        if version != SERVICE_PROTOCOL_VERSION:
            raise ServiceProtocolError(
                f"service protocol version mismatch: got {version!r}, "
                f"expected {SERVICE_PROTOCOL_VERSION}"
            )
        return ServiceResponse(parsed)

    def _read_line(self, sock: socket.socket) -> bytes:
        while b"\n" not in self._buffer:
            if len(self._buffer) > self.max_line_bytes:
                raise ServiceProtocolError(
                    f"service response line exceeds {self.max_line_bytes} bytes"
                )
            chunk = sock.recv(65536)
            if not chunk:
                raise EOFError("connection closed mid-response")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    # ---------------------------------------------------------------- ops --

    def ping(self) -> ServiceResponse:
        return self.request({"op": "ping"}).raise_for_status()

    def stats(self) -> ServiceResponse:
        return self.request({"op": "stats"}).raise_for_status()

    def submit(self, scenario: Dict[str, Any]) -> ServiceResponse:
        """Submit a scenario document. Returns the raw typed response;
        call :meth:`ServiceResponse.raise_for_status` to turn refusals
        into exceptions."""
        return self.request({"op": "submit", "scenario": scenario})

    def shutdown(self) -> ServiceResponse:
        """Ask the server to stop accepting connections and exit."""
        return self.request({"op": "shutdown"})
