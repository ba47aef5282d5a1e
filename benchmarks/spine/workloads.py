"""The six workloads: what runs, on which inputs, and how it is checked.

Input *shapes* (bank counts, topology, iteration counts, group sizes) are
fixed per workload, so the cost of an operation does not move with
``--seed``; the seed decides the balance sheets, the shocks and every
protocol seed, so the released bits do. README.md records why each size
was chosen.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro import DStressConfig, PrivacyAccountant, Scenario, StressTest
from repro.api.diskcache import PersistentScenarioCache
from repro.crypto.group import GROUP_256, TOY_GROUP_64
from repro.crypto.rng import DeterministicRNG
from repro.finance.network import Bank, FinancialNetwork
from repro.finance.scenarios import apply_shock, uniform_shock
from repro.graphgen import (
    CorePeripheryParams,
    RandomNetworkParams,
    core_periphery_network,
    random_network,
)
from repro.net.cluster import run_scenario_cluster
from repro.obs import TraceRecorder
from repro.service.client import ServiceClient
from repro.service.scenario_ast import build_session, validate_scenario
from repro.service.server import result_payload

from benchmarks.spine import layers
from benchmarks.spine.harness import (
    OP_DEADLINE_S,
    ROOT,
    CheckFailed,
    Workload,
    deadline,
    median,
    percentile,
)

#: Seeds the generators' *topology* draws for every workload and every
#: ``--seed``: the graph shape is part of the workload's size.
TOPOLOGY_SEED = 11

PROGRAM = "eisenberg-noe"


# ------------------------------------------------------------------ inputs --


def _reseeded(shape: FinancialNetwork, seed: int, label: str) -> FinancialNetwork:
    """``shape``'s banks and contracts with seed-derived amounts (+-10 %)."""
    rng = DeterministicRNG(f"spine-{label}-{seed}")
    network = FinancialNetwork()
    for bank_id in shape.bank_ids():
        bank = shape.banks[bank_id]
        network.add_bank(Bank(bank_id, cash=bank.cash * (0.9 + 0.2 * rng.random())))
    for debt in shape.debts:
        network.add_debt(debt.debtor, debt.creditor, debt.amount * (0.9 + 0.2 * rng.random()))
    return network


def core_periphery(num_banks: int, core_size: int, seed: int) -> FinancialNetwork:
    shape = core_periphery_network(
        CorePeripheryParams(num_banks=num_banks, core_size=core_size),
        DeterministicRNG(TOPOLOGY_SEED),
    )
    return _reseeded(shape, seed, f"cp{num_banks}")


def shocked(network: FinancialNetwork) -> FinancialNetwork:
    """The core shock that makes the aggregate shortfall non-zero."""
    return apply_shock(network, uniform_shock([0, 1], 0.6))


def demo_config(seed: int, **overrides: Any) -> DStressConfig:
    return DStressConfig.preset("demo", seed=seed, **overrides)


def session(network: FinancialNetwork, config: DStressConfig) -> StressTest:
    return StressTest(network).program(PROGRAM).configure(config)


def released_bits(result: Any) -> Tuple[Any, ...]:
    """Everything a release publishes, for bit-identity comparisons."""
    return (
        result.aggregate,
        result.pre_noise_aggregate,
        result.noise_raw,
        tuple(result.trajectory),
    )


# -------------------------------------------- secure_gmw / secure_transfer --


class SecureRelease(Workload):
    """One ``StressTest.run`` on the bit-sliced secure engine per op; the
    floor is the plaintext engine on the same network and iterations."""

    iterations = 1
    floor_reps = 20
    group = TOY_GROUP_64

    def network(self) -> FinancialNetwork:
        raise NotImplementedError

    def boot(self) -> None:
        config = demo_config(self.seed, output_epsilon=0.5, group=self.group)
        template = session(self.network(), config)
        self.secure = template.clone().engine("secure", backend="bitsliced")
        self.plain = template.clone().engine("plaintext")
        self.fixed = template.clone().engine("fixed")
        self.result: Any = None

    def step(self, rep: int, traced: bool = False) -> None:
        result = self.timed("op", lambda: self.secure.run(iterations=self.iterations))
        if result is not None:
            if self.result is not None:
                self.expect_same(
                    f"rep {rep} release", released_bits(result), released_bits(self.result)
                )
            self.result = result
            self.op_results.append([result])
        for _ in range(self.floor_reps):
            self.timed("floor", lambda: self.plain.run(iterations=self.iterations))

    def verify(self) -> None:
        if self.result is None:
            raise CheckFailed("no secure release completed")
        reference = self.fixed.run(iterations=self.iterations).aggregate
        if self.result.pre_noise_aggregate != reference:
            raise CheckFailed(
                f"secure pre-noise aggregate {self.result.pre_noise_aggregate!r} "
                f"!= fixed engine {reference!r}"
            )
        self.raise_mismatches()

    def traffic_mb(self) -> float:
        return self.result.traffic.mean_node_bytes_sent() / 1e6

    def layers(self) -> Dict[str, float]:
        out = layers.phase_layers(self.op_results)
        resolved = self.secure.resolve(self.iterations)
        bound = resolved.graph.degree_bound
        out.update(layers.circuit_build(resolved.program, bound))
        tag = "g64" if self.group is TOY_GROUP_64 else "g256"
        out[f"crypto.modexp_us.{tag}"] = layers.modexp_us(self.group)
        execute_ms, modexps = layers.transfer_execute(
            self.group, resolved.config.fmt.total_bits
        )
        out[f"transfer.execute_ms.{tag}"] = execute_ms
        out["transfer.execute_modexps"] = float(modexps)
        recorder = TraceRecorder()
        out["obs.export_ms"] = (
            layers.per_call(lambda: self.result.export(recorder)) * 1e3
        )
        return out


class SecureGmw(SecureRelease):
    name = "secure_gmw"

    def network(self) -> FinancialNetwork:
        return core_periphery(12, 2, self.seed)

    def layers(self) -> Dict[str, float]:
        out = super().layers()
        resolved = self.secure.resolve(self.iterations)
        circuit = resolved.program.build_update_circuit(resolved.graph.degree_bound)
        out["mpc.bitslice_kand_per_s"] = layers.gmw_kand_per_s(circuit, True)
        out["crypto.rng_mb_per_s"] = layers.rng_mb_per_s()
        out["crypto.otext_us_per_ot"] = layers.otext_us_per_ot()
        return out


class SecureTransfer(SecureRelease):
    name = "secure_transfer"
    group = GROUP_256

    def network(self) -> FinancialNetwork:
        shape = random_network(
            RandomNetworkParams(num_banks=4, mean_degree=3.0),
            DeterministicRNG(TOPOLOGY_SEED),
        )
        return _reseeded(shape, self.seed, "random4")


# ----------------------------------------------------------- engine_matrix --

#: key, engine, options, banks, core, iterations — each row sized to take
#: roughly 0.15-0.35 s: no engine's share of the pass is negligible, and a
#: run of ``run_seconds`` still sees the whole matrix a dozen times.
MATRIX_ROWS: List[Tuple[str, str, Dict[str, Any], int, int, int]] = [
    ("plaintext", "plaintext", {}, 256, 32, 32),
    ("async", "async", {"tasks": 2, "transport": "memory"}, 128, 16, 16),
    ("fixed", "fixed", {}, 8, 2, 4),
    ("secure_scalar", "secure", {"backend": "scalar"}, 3, 2, 1),
    (
        "secure_async",
        "secure-async",
        {"backend": "bitsliced", "tasks": 2, "transport": "memory"},
        6,
        2,
        1,
    ),
]
_SECURE_ROWS = ("secure_scalar", "secure_async")


class EngineMatrix(Workload):
    """One pass = one run of each of five engines; ``op_s`` is the sum of
    the per-engine medians. The floor is the plaintext engine on the two
    secure rows' networks."""

    name = "engine_matrix"
    floor_reps = 10

    def boot(self) -> None:
        config = demo_config(self.seed)
        self.rows: Dict[str, Tuple[StressTest, int]] = {}
        self.templates: Dict[str, StressTest] = {}
        for key, engine, options, banks, core, iterations in MATRIX_ROWS:
            template = session(shocked(core_periphery(banks, core, self.seed)), config)
            self.templates[key] = template
            self.rows[key] = (template.clone().engine(engine, **options), iterations)
        self.results: Dict[str, Any] = {}

    def _run(self, key: str, engine: Optional[str] = None, **options: Any) -> Any:
        run, iterations = self.rows[key]
        if engine is not None:
            run = self.templates[key].clone().engine(engine, **options)
        return run.run(iterations=iterations)

    def step(self, rep: int, traced: bool = False) -> None:
        # the async row books task *waiting* as "communication" (tens of
        # seconds summed over tasks), which is not wall time: its phases
        # stay out of the per-layer sums
        phased: List[Any] = []
        self.op_results.append(phased)
        for key in self.rows:
            result = self.timed(key, partial(self._run, key))
            if result is None:
                continue
            if key != "async":
                phased.append(result)
            if key in self.results:
                self.expect_same(
                    f"rep {rep} {key}",
                    released_bits(result),
                    released_bits(self.results[key]),
                )
            self.results[key] = result
        for _ in range(self.floor_reps):
            self.timed(
                "floor", lambda: [self._run(key, "plaintext") for key in _SECURE_ROWS]
            )

    def verify(self) -> None:
        missing = [key for key in self.rows if key not in self.results]
        if missing:
            raise CheckFailed(f"engines never completed: {missing}")
        for key, result in self.results.items():
            if not result.exact_aggregate > 0.0:
                raise CheckFailed(f"{key}: the shocked network shows no shortfall")
        # the float drivers agree bit for bit, as do the two secure backends
        self.expect_same(
            "plaintext vs async",
            released_bits(self._run("async", "plaintext")),
            released_bits(self.results["async"]),
        )
        self.expect_same(
            "secure scalar vs secure-async bitsliced",
            released_bits(
                self._run(
                    "secure_scalar",
                    "secure-async",
                    backend="bitsliced",
                    tasks=2,
                    transport="memory",
                )
            ),
            released_bits(self.results["secure_scalar"]),
        )
        for key in _SECURE_ROWS:
            self.expect_same(
                f"{key} pre-noise vs fixed",
                self.results[key].pre_noise_aggregate,
                self._run(key, "fixed").aggregate,
            )
        self.raise_mismatches()

    def op_seconds(self) -> float:
        return sum(median(self.times[key]) for key in self.rows)

    def traffic_mb(self) -> float:
        return sum(r.traffic.mean_node_bytes_sent() for r in self.results.values()) / 1e6

    def layers(self) -> Dict[str, float]:
        out = layers.phase_layers(self.op_results)
        for key in self.rows:
            out[f"engine.{key}_s"] = median(self.times[key])
        resolved = self.rows["secure_scalar"][0].resolve(1)
        bound = resolved.graph.degree_bound
        out.update(layers.circuit_build(resolved.program, bound))
        circuit = resolved.program.build_update_circuit(bound)
        out["mpc.scalar_kand_per_s"] = layers.gmw_kand_per_s(circuit, False)
        out["crypto.otext_us_per_ot"] = layers.otext_us_per_ot()
        return out


# ------------------------------------------------------------- batch_sweep --


class BatchSweep(Workload):
    """Cold ``run_many`` of 8 distinct-shock secure scenarios into a fresh
    disk cache (the op), then the identical call against the same cache
    object (the floor), which answers from its memory tier. Replaying
    through a new object on the directory instead costs eight fsync'd
    sidecar touches and little else: over ten runs that median followed
    the disk's state (8.5 -> 13 ms), not the program, so the disk read
    side is the per-layer ``api.cache_lookup_ms``."""

    name = "batch_sweep"
    banks = 5
    scenarios_per_sweep = 8
    epsilon = 0.01
    iterations = 1
    workers = 2
    floor_reps = 10

    def boot(self) -> None:
        base = core_periphery(self.banks, 2, self.seed)
        rng = DeterministicRNG(f"spine-sweep-{self.seed}")
        self.template = session(base, demo_config(self.seed)).engine(
            "secure", backend="bitsliced"
        )
        self.scenarios = [
            Scenario(
                name=f"shock-{index}",
                network=apply_shock(
                    base, uniform_shock([index % self.banks], 0.2 + 0.6 * rng.random())
                ),
                epsilon=self.epsilon,
                iterations=self.iterations,
            )
            for index in range(self.scenarios_per_sweep)
        ]
        self.cold: Any = None
        self.ledger_entries = 0

    def _sweep(self, accountant: PrivacyAccountant, cache: PersistentScenarioCache) -> Any:
        batch = self.template.run_many(
            self.scenarios, workers=self.workers, accountant=accountant, cache=cache
        )
        if batch.failures:
            raise CheckFailed(f"scenario failed: {batch.failures[0].error}")
        return batch

    def step(self, rep: int, traced: bool = False) -> None:
        cache_dir = self.workdir.fresh("sweep-cache")
        cache = PersistentScenarioCache(cache_dir)
        accountant = PrivacyAccountant(epsilon_max=10.0)
        try:
            cold = self.timed("op", lambda: self._sweep(accountant, cache))
            if cold is None:
                return
            bits = [released_bits(outcome.result) for outcome in cold]
            if any(outcome.cached for outcome in cold):
                self.mismatches.append(f"rep {rep}: a cold outcome came from the cache")
            if not math.isclose(cold.epsilon_charged, self.scenarios_per_sweep * self.epsilon):
                self.mismatches.append(f"rep {rep}: cold charged {cold.epsilon_charged!r}")
            if self.cold is not None:
                self.expect_same(
                    f"rep {rep} cold sweep",
                    bits,
                    [released_bits(outcome.result) for outcome in self.cold],
                )
            self.cold = cold
            self.op_results.append([outcome.result for outcome in cold])
            for _ in range(self.floor_reps):
                warm = self.timed("floor", lambda: self._sweep(accountant, cache))
                if warm is None:
                    continue
                if not all(outcome.cached for outcome in warm) or warm.epsilon_charged != 0.0:
                    self.mismatches.append(f"rep {rep}: warm replay ran or charged something")
                self.expect_same(
                    f"rep {rep} warm replay",
                    [released_bits(outcome.result) for outcome in warm],
                    bits,
                )
            if not accountant.reconcile().ok:
                self.mismatches.append(f"rep {rep}: accountant ledger does not reconcile")
            self.ledger_entries = len(accountant.ledger)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def verify(self) -> None:
        if self.cold is None:
            raise CheckFailed("no cold sweep completed")
        self.raise_mismatches()

    def traffic_mb(self) -> float:
        return sum(o.result.traffic.mean_node_bytes_sent() for o in self.cold) / 1e6

    def layers(self) -> Dict[str, float]:
        results = [outcome.result for outcome in self.cold]
        out = layers.phase_layers(self.op_results)
        resolved = self.template.resolve(self.iterations)
        out.update(
            layers.circuit_build(resolved.program, resolved.graph.degree_bound)
        )
        out.update(
            layers.resolve_and_fingerprint(self.template, self.iterations)
        )
        cache_dir = self.workdir.fresh("probe-cache")
        try:
            out.update(layers.cache_store_lookup(results[0], cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        out["api.batch_overhead_s"] = self.cold.wall_seconds - (
            sum(self.cold.scenario_seconds.values()) / self.cold.workers
        )
        out["privacy.precharge_us"] = layers.precharge_us()
        out["privacy.ledger_entries"] = float(self.ledger_entries)
        return out


# ------------------------------------------------------------- service_mix --


class ServiceMix(Workload):
    """A real ``python -m repro.service`` subprocess and two closed-loop
    clients. Each client repeats one block: a fresh secure submit,
    re-submits of it answered from the release cache (the floor),
    plaintext submits, and invalid documents. The op is one block on both
    clients at once: how the two fresh runs interleave under the server's
    interpreter lock moves each one's latency a lot and the block's wall
    hardly at all. Closed loop, because each analyst waits for their
    release before asking again."""

    name = "service_mix"
    clients = 2
    hits = 10
    plain = 3
    invalid = 3
    epsilon = 0.001
    solo_submits = 3

    def boot(self) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.workdir.path)
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--workers", "2", "--budget", "1000"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            cwd=str(ROOT),
        )
        with deadline(OP_DEADLINE_S):
            announce = self.proc.stdout.readline().split()
        if len(announce) != 2 or announce[0] != "LISTENING":
            raise CheckFailed(f"service did not announce a port: {announce!r}")
        self.port = int(announce[1])
        self.connections = [
            ServiceClient(port=self.port, timeout=OP_DEADLINE_S) for _ in range(self.clients)
        ]
        self.sent = {"fresh": 0, "hit": 0, "plain": 0, "invalid": 0}
        self.wire_bytes = 0
        self.sample: Optional[Tuple[Dict[str, Any], Dict[str, Any]]] = None

    def _document(self, kind: str, client: int, rep: int, index: int = 0) -> Dict[str, Any]:
        serial = (rep * self.clients + client) * 10 + index
        document: Dict[str, Any] = {
            "version": 1,
            "name": f"{kind}-{serial}",
            "program": PROGRAM,
            "preset": "demo",
            "shock": {"targets": [0, 1], "severity": 0.6},
            "seed": self.seed * 100_000 + serial,
        }
        if kind == "plain":
            document["network"] = {
                "generator": "core-periphery",
                "params": {"num_banks": 64, "core_size": 8},
                "seed": TOPOLOGY_SEED,
            }
            document["engine"] = {"name": "plaintext"}
            document["iterations"] = 8
        else:
            document["network"] = {
                "generator": "random",
                "params": {"num_banks": 5},
                "seed": TOPOLOGY_SEED,
            }
            document["engine"] = {"name": "secure", "options": {"backend": "bitsliced"}}
            document["iterations"] = 1
            document["epsilon"] = self.epsilon
        if kind == "invalid":
            document["unknown_key"] = True
        return document

    def _submit(self, client: int, kind: str, document: Dict[str, Any]) -> Any:
        """One request; raises unless the typed response is the expected one."""
        response = self.connections[client].submit(document)
        with self._lock:
            self.sent[kind] += 1
            self.wire_bytes += len(json.dumps({"op": "submit", "scenario": document}))
            self.wire_bytes += len(json.dumps(response.body)) + 2
        if kind == "invalid":
            if response.status != "rejected":
                raise CheckFailed(f"invalid document was {response.status!r}, not rejected")
        elif response.status != "released" or response.cached != (kind == "hit"):
            raise CheckFailed(
                f"{kind} submit came back {response.status!r} cached={response.cached}: "
                f"{response.message}"
            )
        return response

    def _block(self, client: int, rep: int) -> None:
        fresh = self._document("fresh", client, rep)
        response = self.timed("miss", lambda: self._submit(client, "fresh", fresh))
        if response is None:
            return
        if self.sample is None:
            self.sample = (fresh, response.body)
        for _ in range(self.hits):
            hit = self.timed("floor", lambda: self._submit(client, "hit", fresh))
            if hit is not None:
                self.expect_same(f"rep {rep} cached release", hit.result, response.result)
        for index in range(self.plain):
            document = self._document("plain", client, rep, index)
            self.timed("plain", lambda: self._submit(client, "plain", document))
        for index in range(self.invalid):
            document = self._document("invalid", client, rep, index)
            self.timed("reject", lambda: self._submit(client, "invalid", document))

    def step(self, rep: int, traced: bool = False) -> None:
        threads = [
            threading.Thread(target=self._block, args=(client, rep), name=f"client-{client}")
            for client in range(self.clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            # every request is bounded by its socket timeout, so is the block
            thread.join()
        self.times["op"].append(time.perf_counter() - started)

    def reset_samples(self) -> None:
        super().reset_samples()
        self.wire_bytes = 0

    def solo(self) -> None:
        """Fresh submits from one client with the service otherwise idle,
        and the same documents run directly in this process."""
        for index in range(self.solo_submits):
            document = self._document("fresh", 0, 900_000 + index)
            self.timed("solo", lambda: self._submit(0, "fresh", document))
            run = build_session(validate_scenario(document))
            direct = self.timed("direct", lambda: run.run(iterations=document["iterations"]))
            if direct is not None:
                self.op_results.append([direct])

    def verify(self) -> None:
        if self.sample is None:
            raise CheckFailed("no fresh submit completed")
        stats = self.connections[0].stats().body
        counters = stats["counters"]
        expected = {
            "engine_runs": self.sent["fresh"] + self.sent["plain"],
            "cache_hits": self.sent["hit"],
            "rejected": self.sent["invalid"],
        }
        for key, value in expected.items():
            self.expect_same(f"service counter {key}", counters[key], value)
        if not math.isclose(stats["budget"]["spent"], self.sent["fresh"] * self.epsilon):
            self.mismatches.append(f"service spent {stats['budget']['spent']!r}")
        document, body = self.sample
        direct = build_session(validate_scenario(document)).run(
            iterations=document["iterations"]
        )
        self.expect_same(
            "service response vs direct run",
            body["result"],
            json.loads(json.dumps(result_payload(direct))),
        )
        self.raise_mismatches()

    def shutdown(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        self.proc = None
        try:
            if proc.poll() is None and hasattr(self, "port"):
                self.connections[0].shutdown()
            proc.wait(timeout=10.0)
        except Exception:  # boundary: whatever went wrong, the process must go
            proc.kill()
            proc.wait(timeout=10.0)
        finally:
            for connection in getattr(self, "connections", []):
                connection.close()
            proc.stdout.close()

    def traffic_mb(self) -> float:
        """Request plus response bytes one client moves per block."""
        return self.wire_bytes / (len(self.times["op"]) * self.clients) / 1e6

    def layers(self) -> Dict[str, float]:
        ms = 1e3
        self.solo()
        miss = median(self.times["miss"]) * ms
        solo = median(self.times["solo"]) * ms
        document, body = self.sample
        out = layers.phase_layers(self.op_results)
        out.update(
            {
                "service.notarize_ms": layers.notarize_ms(document),
                "service.ping_ms": layers.per_call(self.connections[0].ping) * ms,
                "service.response_bytes": float(len(json.dumps(body)) + 1),
                "service.reject_ms": median(self.times["reject"]) * ms,
                "service.miss_solo_ms": solo,
                "service.overhead_ms": solo - median(self.times["direct"]) * ms,
                "service.contention_ms": miss - solo,
                "service.hit_ms_p95": percentile(self.times["floor"], 0.95) * ms,
                "service.miss_ms": miss,
                "service.miss_ms_p95": percentile(self.times["miss"], 0.95) * ms,
                "service.release_per_s": self.clients / median(self.times["op"]),
                "privacy.precharge_us": layers.precharge_us(),
                "privacy.ledger_entries": float(self.sent["fresh"]),
            }
        )
        return out


# ------------------------------------------------------------- tcp_cluster --


class TcpCluster(Workload):
    """``run_scenario_cluster`` with two party processes over loopback TCP
    (three processes on two cores would measure the scheduler). The floor
    is the same cluster running the crypto-free ``async`` engine: fork,
    HELLO mesh and shutdown barrier only."""

    name = "tcp_cluster"
    parties = 2
    iterations = 1
    engine_options = {"backend": "bitsliced"}
    floor_reps = 3

    def boot(self) -> None:
        network = core_periphery(10, 3, self.seed)
        # the protocol seed places block members on parties, which decides
        # how many bytes cross the wire: it is part of the workload's shape
        config = demo_config(TOPOLOGY_SEED)
        self.build = lambda party_id: session(network, config)
        self.outcomes: Any = None

    def _cluster(self, engine: str, options: Dict[str, Any], trace_dir: Optional[str]) -> Any:
        outcomes = run_scenario_cluster(
            self.build,
            num_parties=self.parties,
            engine=engine,
            engine_options=options,
            iterations=self.iterations,
            timeout=OP_DEADLINE_S / 2,
            trace_dir=trace_dir,
        )
        bad = [o for o in outcomes if not o.ok]
        if bad or len(outcomes) != self.parties:
            raise CheckFailed(f"party failed: {bad[0].status} {bad[0].error_message}")
        return outcomes

    def step(self, rep: int, traced: bool = False) -> None:
        trace_dir = str(self.workdir.fresh("cluster-trace")) if traced else None
        try:
            outcomes = self.timed(
                "op", lambda: self._cluster("secure-async", self.engine_options, trace_dir)
            )
        finally:
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        if outcomes is not None:
            self.outcomes = outcomes
        for _ in range(self.floor_reps):
            self.timed("floor", lambda: self._cluster("async", {}, None))

    def _in_memory(self) -> Any:
        return self.build(0).engine("secure-async", **self.engine_options).run(
            iterations=self.iterations
        )

    def verify(self) -> None:
        if self.outcomes is None:
            raise CheckFailed("no cluster run completed")
        reference = released_bits(self._in_memory())
        for outcome in self.outcomes:
            summary = outcome.summary
            self.expect_same(
                f"party {outcome.party_id} vs in-memory run",
                (
                    summary["aggregate"],
                    summary["pre_noise_aggregate"],
                    summary["noise_raw"],
                    tuple(summary["trajectory"]),
                ),
                reference,
            )
        self.raise_mismatches()

    def traffic_mb(self) -> float:
        return self.outcomes[0].summary["extras"]["wire_bytes_sent"] / 1e6

    def layers(self) -> Dict[str, float]:
        for _ in range(3):
            result = self.timed("memory", self._in_memory)
            if result is not None:
                self.op_results.append([result])
        out = layers.phase_layers(self.op_results)
        out.update(
            {
                "net.codec_mb_per_s": layers.codec_mb_per_s(),
                "net.spawn_mesh_s": median(self.times["floor"]),
                "net.cluster_overhead_s": median(self.times["op"])
                - median(self.times["memory"]),
                "net.wire_frames": self.outcomes[0].summary["extras"]["wire_frames_sent"],
            }
        )
        return out


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (SecureGmw, SecureTransfer, EngineMatrix, BatchSweep, ServiceMix, TcpCluster)
}
