"""Per-layer metrics: the declared names, and the probes that measure them.

Every number here is taken from outside the program — by timing calls
into a layer's public functions, or by reading what a public result
already exposes (``RunResult.phases`` / ``traffic`` / ``extras``). A
workload reports the layers it exercises; the others read 0 for it, which
is also what that layer contributed to that workload.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.api.cache import run_fingerprint
from repro.api.diskcache import PersistentScenarioCache
from repro.crypto.elgamal import CountingGroup, ExponentialElGamal
from repro.crypto.keys import SchnorrSigner
from repro.crypto.ot import SimulatedObliviousTransfer
from repro.crypto.ot_extension import IKNPOTExtension
from repro.crypto.rng import DeterministicRNG
from repro.mpc.bitslice import BitslicedGMWEngine
from repro.mpc.circuit import layerize
from repro.mpc.gmw import GMWEngine
from repro.net.wire import Frame, MessageKind, decode_frame, encode_frame
from repro.privacy.admission import precharge
from repro.privacy.budget import PrivacyAccountant
from repro.service.scenario_ast import notarize
from repro.sharing import share_value
from repro.transfer.certificates import build_certificate, generate_member_keys
from repro.transfer.protocol import MessageTransferProtocol

from benchmarks.spine.harness import CheckFailed, median

#: Per-layer metric name -> unit, grouped by the layer (a package of
#: ``src/repro``) it attributes cost to. ``bench.*`` describes the
#: measurement itself.
PER_LAYER: Dict[str, str] = {
    "crypto.modexp_us.g64": "us",
    "crypto.modexp_us.g256": "us",
    "crypto.modexp_count": "count",
    "crypto.rng_mb_per_s": "MB/s",
    "crypto.otext_us_per_ot": "us",
    "mpc.circuit_build_s": "s",
    "mpc.and_gates": "count",
    "mpc.and_depth": "count",
    "mpc.gmw_offline_s": "s",
    "mpc.gmw_online_s": "s",
    "mpc.bitslice_kand_per_s": "kAND/s",
    "mpc.scalar_kand_per_s": "kAND/s",
    "mpc.ot_count": "count",
    "transfer.execute_ms.g64": "ms",
    "transfer.execute_ms.g256": "ms",
    "transfer.execute_modexps": "count",
    "transfer.count": "count",
    "core.stage_setup_s": "s",
    "core.stage_rounds_s": "s",
    "core.stage_noise_s": "s",
    "core.computation_s": "s",
    "core.communication_s": "s",
    "core.lifecycle_self_s": "s",
    "engine.plaintext_s": "s",
    "engine.async_s": "s",
    "engine.fixed_s": "s",
    "engine.secure_scalar_s": "s",
    "engine.secure_async_s": "s",
    "privacy.precharge_us": "us",
    "privacy.ledger_entries": "count",
    "api.resolve_ms": "ms",
    "api.fingerprint_ms": "ms",
    "api.cache_store_ms": "ms",
    "api.cache_lookup_ms": "ms",
    "api.cache_entry_bytes": "bytes",
    "api.batch_overhead_s": "s",
    "service.notarize_ms": "ms",
    "service.ping_ms": "ms",
    "service.response_bytes": "bytes",
    "service.reject_ms": "ms",
    "service.miss_solo_ms": "ms",
    "service.overhead_ms": "ms",
    "service.contention_ms": "ms",
    "service.hit_ms_p95": "ms",
    "service.miss_ms": "ms",
    "service.miss_ms_p95": "ms",
    "service.release_per_s": "1/s",
    "net.codec_mb_per_s": "MB/s",
    "net.spawn_mesh_s": "s",
    "net.cluster_overhead_s": "s",
    "net.wire_frames": "count",
    "obs.trace_overhead_ratio": "ratio",
    "obs.spans_per_run": "count",
    "obs.export_ms": "ms",
    "bench.cal_s": "s",
    "bench.cal_spread": "ratio",
    "bench.fail_share": "ratio",
}

#: Seconds each micro-probe samples for (at least ``min_calls`` calls).
PROBE_SECONDS = 0.15

#: Block size of the demo preset (collusion bound 2) — the transfer and
#: GMW probes run at the block size the workloads run at.
BLOCK_SIZE = 3


def per_call(fn: Callable[[], Any], min_calls: int = 5) -> float:
    """Median seconds of one ``fn()`` call, sampled for :data:`PROBE_SECONDS`."""
    samples: List[float] = []
    stop_at = time.perf_counter() + PROBE_SECONDS
    while len(samples) < min_calls or time.perf_counter() < stop_at:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples)


# ------------------------------------------------------------------ crypto --


def modexp_us(group: Any) -> float:
    """Microseconds per ``group.exp`` with a full-width exponent."""
    rng = DeterministicRNG(f"spine-modexp-{group.name}")
    base = group.power_of_g(group.random_scalar(rng))
    exponents = [group.random_scalar(rng) for _ in range(200)]

    def batch() -> None:
        for exponent in exponents:
            group.exp(base, exponent)

    return per_call(batch) / len(exponents) * 1e6


def rng_mb_per_s() -> float:
    rng = DeterministicRNG("spine-rng")
    chunk = 1 << 18
    return chunk / 1e6 / per_call(lambda: rng.randbytes(chunk))


def otext_us_per_ot() -> float:
    """IKNP extension, offline ``ensure`` plus online ``transfer``, per OT."""
    count = 1024

    def batch() -> None:
        rng = DeterministicRNG("spine-otext")
        extension = IKNPOTExtension(SimulatedObliviousTransfer(), batch_size=count)
        extension.ensure(count, rng)
        for index in range(count):
            if extension.transfer(b"\x00", b"\x01", index & 1, rng) != bytes([index & 1]):
                raise CheckFailed("OT extension returned the wrong message")

    return per_call(batch, min_calls=3) / count * 1e6


def transfer_execute(group: Any, message_bits: int) -> Tuple[float, int]:
    """One §3.5 transfer at the demo block size: (milliseconds, real
    exponentiations counted by a :class:`CountingGroup`)."""
    counting = CountingGroup(group)
    rng = DeterministicRNG(f"spine-transfer-{group.name}")
    elgamal = ExponentialElGamal(counting, dlog_half_width=300)
    signer = SchnorrSigner(counting)
    members = [generate_member_keys(elgamal, message_bits, rng) for _ in range(BLOCK_SIZE)]
    neighbor_key = counting.random_scalar(rng)
    certificate = build_certificate(
        elgamal, signer, signer.keygen(rng), 0, 0, members, neighbor_key, rng
    )
    protocol = MessageTransferProtocol(elgamal, message_bits, noise_alpha=0.4)
    message = rng.randbits(message_bits)
    shares = share_value(message, message_bits, BLOCK_SIZE, rng)
    exps: List[int] = []

    def once() -> None:
        counting.reset()
        result = protocol.execute(shares, certificate, neighbor_key, members, rng)
        exps.append(counting.exp_count)
        if result.reconstruct(message_bits) != message:
            raise CheckFailed("transfer did not deliver the message it was given")

    seconds = per_call(once, min_calls=3)
    return seconds * 1e3, exps[-1]


# --------------------------------------------------------------------- mpc --


def circuit_build(program: Any, degree_bound: int) -> Dict[str, float]:
    """Build + layerize + cost the vertex circuit, as every run does."""
    built: List[Any] = []

    def once() -> None:
        circuit = program.build_update_circuit(degree_bound)
        layerize(circuit)
        built.append(circuit.stats())

    seconds = per_call(once, min_calls=3)
    return {
        "mpc.circuit_build_s": seconds,
        "mpc.and_gates": float(built[-1].and_gates),
        "mpc.and_depth": float(built[-1].and_depth),
    }


def gmw_kand_per_s(circuit: Any, bitsliced: bool) -> float:
    """Thousand AND-gate instances per second on the workload's vertex
    circuit: one full 64-instance lane word bit-sliced, 8 instances through
    the (much slower) scalar oracle. Parity of the two is asserted first."""
    instances = 64 if bitsliced else 8
    scalar = GMWEngine(BLOCK_SIZE)
    share_rng = DeterministicRNG("spine-gmw-shares")
    batch = [
        {
            name: scalar.share_input(share_rng.randbits(len(bus)), len(bus), share_rng)
            for name, bus in circuit.input_buses.items()
        }
        for _ in range(instances)
    ]
    sliced = BitslicedGMWEngine(BLOCK_SIZE)
    lanes = sliced.evaluate_batch(circuit, batch[:2], DeterministicRNG("spine-gmw-eval"))
    oracle_rng = DeterministicRNG("spine-gmw-eval")
    for lane, shares in zip(lanes, batch[:2]):
        if lane.output_shares != scalar.evaluate(circuit, shares, oracle_rng).output_shares:
            raise CheckFailed("bit-sliced GMW disagrees with the scalar oracle")

    def once() -> None:
        rng = DeterministicRNG("spine-gmw-eval")
        if bitsliced:
            sliced.evaluate_batch(circuit, batch, rng)
        else:
            for shares in batch:
                scalar.evaluate(circuit, shares, rng)

    seconds = per_call(once, min_calls=2)
    return circuit.stats().and_gates * instances / seconds / 1e3


# ----------------------------------------------------------- privacy / api --


def precharge_us() -> float:
    """Microseconds to admit and confirm one release on a fresh ledger."""
    calls = 50

    def batch() -> None:
        accountant = PrivacyAccountant(epsilon_max=1.0)
        for index in range(calls):
            precharge(accountant, [(f"probe-{index}", 1e-6)], fingerprint="probe").confirm()

    return per_call(batch) / calls * 1e6


def resolve_and_fingerprint(session: Any, iterations: int) -> Dict[str, float]:
    resolved = session.resolve(iterations)
    return {
        "api.resolve_ms": per_call(lambda: session.resolve(iterations)) * 1e3,
        "api.fingerprint_ms": per_call(lambda: run_fingerprint(resolved)) * 1e3,
    }


def cache_store_lookup(result: Any, directory: Path) -> Dict[str, float]:
    """Disk-cache write, and read through a fresh instance (no memory tier),
    of one secure ``RunResult``."""
    writer = PersistentScenarioCache(directory)
    keys: List[str] = []

    def store() -> None:
        keys.append(f"{len(keys):064x}")
        writer.store(keys[-1], result)

    store_s = per_call(store)
    reader = PersistentScenarioCache(directory, memory_tier=False)
    cursor = itertools.cycle(keys)

    def lookup() -> None:
        if reader.lookup(next(cursor)) is None:
            raise CheckFailed("disk cache lost an entry it had just stored")

    lookup_s = per_call(lookup)
    return {
        "api.cache_store_ms": store_s * 1e3,
        "api.cache_lookup_ms": lookup_s * 1e3,
        "api.cache_entry_bytes": writer.total_bytes() / len(keys),
    }


def notarize_ms(document: Dict[str, Any]) -> float:
    return per_call(lambda: notarize(document)) * 1e3


# --------------------------------------------------------------------- net --


def codec_mb_per_s() -> float:
    """``encode_frame`` -> ``decode_frame`` over an OT-batch sized payload."""
    frame = Frame(MessageKind.GMW_BATCH, src=0, dst=1, round_index=1, pad_len=1 << 18)

    def once() -> None:
        decoded, _ = decode_frame(encode_frame(frame))
        if decoded.pad_len != frame.pad_len:
            raise CheckFailed("wire codec did not round-trip a frame")

    return frame.pad_len / 1e6 / per_call(once)


# --------------------------------------------------- reading public results --

_PHASE_METRICS = {
    "mpc.gmw_offline_s": "gmw-offline",
    "mpc.gmw_online_s": "gmw-online",
    "core.stage_setup_s": "stage:setup",
    "core.stage_rounds_s": "stage:rounds",
    "core.stage_noise_s": "stage:noise",
    "core.computation_s": "computation",
    "core.communication_s": "communication",
}


def phase_layers(ops: Iterable[Iterable[Any]]) -> Dict[str, float]:
    """What the ``RunResult``s of the primary operation expose — phase
    seconds, the lifecycle's own share, the exact work counters — summed
    over one operation's results, median over the operations seen."""
    per_op = [_phase_sums(results) for results in ops]
    return {name: median([sums[name] for sums in per_op]) for name in per_op[0]}


def _phase_sums(results: Iterable[Any]) -> Dict[str, float]:
    out = {name: 0.0 for name in _PHASE_METRICS}
    out.update(
        {
            "core.lifecycle_self_s": 0.0,
            "mpc.ot_count": 0.0,
            "transfer.count": 0.0,
            "crypto.modexp_count": 0.0,
        }
    )
    for result in results:
        seconds = result.phases.seconds if result.phases is not None else {}
        for name, phase in _PHASE_METRICS.items():
            out[name] += seconds.get(phase, 0.0)
        staged = sum(value for phase, value in seconds.items() if phase.startswith("stage:"))
        out["core.lifecycle_self_s"] += max(0.0, result.wall_seconds - staged)
        out["mpc.ot_count"] += result.extras.get("gmw_ot_count", 0.0)
        out["transfer.count"] += result.extras.get("transfer_count", 0.0)
        if result.traffic is not None:
            out["crypto.modexp_count"] += result.traffic.summary()["total_exponentiations"]
    return out
