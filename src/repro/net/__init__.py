"""Real-socket networking for DStress: framed TCP between genuine peers.

The rest of the repository models the paper's WAN deployment — the
simulated WAN bus delays deliveries by a link model, but every byte stays
in one process. This package is the real thing: a length-prefixed, typed
wire protocol (:mod:`repro.net.wire`), a peer/connection manager that
dials the full mesh with retry and maps every socket failure onto the
named :class:`~repro.exceptions.TransportError` taxonomy
(:mod:`repro.net.peer`), a :class:`~repro.net.transport.TcpTransport`
implementing the full :class:`~repro.core.transport.Transport` protocol
over asyncio TCP streams, and a process launcher
(:mod:`repro.net.cluster`) that spawns one OS process per party on
localhost so ``engine="async"`` and ``engine="secure-async"`` run
genuinely multi-process — bit-identical to the in-memory bus.
"""

from repro.net.cluster import ClusterOutcome, ClusterRun, run_scenario_cluster
from repro.net.peer import PeerAddress
from repro.net.transport import TcpTransport
from repro.net.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Frame,
    MessageKind,
    decode_frame,
    encode_frame,
)

__all__ = [
    "ClusterOutcome",
    "ClusterRun",
    "DEFAULT_MAX_FRAME_BYTES",
    "Frame",
    "MessageKind",
    "PROTOCOL_VERSION",
    "PeerAddress",
    "TcpTransport",
    "decode_frame",
    "encode_frame",
    "run_scenario_cluster",
]
