"""Exception hierarchy for the DStress reproduction.

Every error raised by this library derives from :class:`DStressError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class DStressError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(DStressError):
    """A cryptographic operation failed or was used incorrectly."""


class DecryptionError(CryptoError):
    """A ciphertext could not be decrypted (e.g. dlog table miss)."""


class ProtocolError(DStressError):
    """A protocol message violated the expected format or ordering."""


class CircuitError(DStressError):
    """A boolean circuit was malformed or evaluated incorrectly."""


class OfflinePoolExhaustedError(ProtocolError):
    """A lane GMW online phase asked for per-gate randomness the
    offline phase never provisioned (wrong circuit, wrong instance count,
    or a pool consumed twice).

    The offline/online split (see DESIGN.md "Lane GMW") sizes the OT-mask
    pools exactly from the compiled plan's AND count, the one
    :class:`repro.mpc.cost.Bill` reads; running dry therefore means a
    provisioning *bug*, and the engine must fail loudly rather than
    silently fall back to drawing fresh scalar randomness — a fallback
    would both desynchronize the deterministic transcript and hide the
    mis-sizing."""


class PrivacyBudgetExceeded(DStressError):
    """An operation would exceed the remaining differential privacy budget."""


class SensitivityError(DStressError):
    """A program declared an invalid or missing sensitivity bound."""


class ConfigurationError(DStressError):
    """Invalid runtime configuration (block size, degree bound, ...)."""


class SealedGraphError(ConfigurationError):
    """A sealed :class:`~repro.core.graph.DistributedGraph` — one shared
    through a table, so every run that found it reads the same graph —
    was asked to add a vertex or an edge."""


class ConvergenceError(DStressError):
    """An iterative solver failed to converge within its iteration bound."""


class ResultFormatError(DStressError):
    """A :class:`~repro.api.result.RunResult` does not fit the
    ``dstress.obs.run`` document, or a document does not decode to one
    (unknown schema, version, field or type; a non-finite float). Caches
    read it as "uncacheable" / "miss", the service as a failed release."""


class TransportError(DStressError):
    """A message-bus delivery fault: a dropped, duplicated, or timed-out
    round message (see :mod:`repro.core.transport`).

    **The transport failure taxonomy** (this class and its subclasses) is
    the one place every socket/bus failure mode maps onto. The contract
    shared by all buses — in-memory, simulated WAN, fault-injecting, and
    the real-socket :class:`~repro.net.transport.TcpTransport` — is that a
    round which cannot complete raises one of these, naming the scenario
    (where known), the directed link, and the round index. **Never a
    hang.**

    ============================  =========================================
    failure mode                  raised class
    ============================  =========================================
    dropped / duplicated message  :class:`TransportError` (injected chaos)
    garbage or malformed header   :class:`WireFormatError`
    truncated frame buffer        :class:`WireFormatError`
    oversized frame declared      :class:`FrameTooLargeError`
    version / session mismatch    :class:`HandshakeError`
    connect refused / timed out   :class:`PeerConnectError`
    ECONNRESET / EPIPE            :class:`PeerDisconnectedError`
    EOF mid-frame (partial read)  :class:`PeerDisconnectedError`
    gather / barrier timeout      :class:`TransportTimeoutError`
    ============================  =========================================
    """


class WireFormatError(TransportError):
    """A frame on the wire violated the framed protocol: bad magic bytes,
    unsupported protocol version, unknown message kind, a payload shorter
    than its declared length (truncated buffer), or fields that do not
    parse. Decoders raise this instead of over-reading or blocking."""


class FrameTooLargeError(WireFormatError):
    """A frame header declared a payload larger than the configured
    ``max_frame_bytes`` — refused before any allocation, so a corrupt or
    hostile length prefix cannot balloon memory or stall the read loop."""


class HandshakeError(TransportError):
    """The versioned HELLO exchange failed: protocol-version mismatch,
    wrong session id (two clusters crossing wires), or a party id outside
    the announced mesh."""


class PeerConnectError(TransportError):
    """A peer could not be dialed (or never dialed us) within the connect
    timeout, after the configured retries with backoff."""


class PeerDisconnectedError(TransportError):
    """An established peer connection died: connection reset, broken
    pipe, or EOF in the middle of a frame. Gathers and conveys that
    depended on the dead peer raise this instead of hanging."""


class TransportTimeoutError(TransportError):
    """An I/O wait (round gather, handshake read, barrier) exceeded the
    configured timeout while the connection itself stayed up."""


class ServiceError(DStressError):
    """A failure in the long-running stress-test service layer
    (:mod:`repro.service`).

    **The service failure taxonomy**: every way a submitted scenario can
    be refused or a service conversation can fail maps onto one of these
    named classes (or :class:`PrivacyBudgetExceeded` for admission-control
    refusals), and every refusal travels the wire as a *typed response* —
    the server never answers a bad request with silence or a hang.

    ============================  =========================================
    failure mode                  raised class
    ============================  =========================================
    malformed / unwhitelisted AST :class:`ScenarioValidationError`
    admission over budget         :class:`PrivacyBudgetExceeded`
    bad request / response line   :class:`ServiceProtocolError`
    server unreachable / died     :class:`ServiceUnavailableError`
    engine failed server-side     :class:`ServiceError` (names the cause)
    ============================  =========================================
    """


class ScenarioValidationError(ServiceError):
    """A submitted scenario JSON document failed the strict whitelist
    validation (:mod:`repro.service.scenario_ast`): unknown keys, an
    unwhitelisted generator/engine/program/option, an out-of-bounds
    parameter, or a value of the wrong type. Raised *before* anything is
    built or charged — a rejected document never touches an engine or the
    privacy accountant."""


class ServiceProtocolError(ServiceError):
    """A service conversation violated the JSON-lines protocol: a line
    that is not valid JSON, not an object, missing/unknown ``op``, an
    oversized line, or a response the client cannot interpret."""


class ServiceUnavailableError(ServiceError):
    """The service could not be reached, or the connection died
    mid-conversation. Client-side only — the sync client raises this instead of leaking raw ``OSError``/``EOFError``."""
