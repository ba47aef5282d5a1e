"""The naive monolithic-MPC baseline (§5.5).

The obvious alternative to DStress is to run the whole systemic-risk
computation as one giant MPC: the closed form of Eisenberg-Noe essentially
raises an N x N matrix to the I-th power, so the paper wrote a Wysteria
matrix-multiply and measured 1.8 min (N=10) to 40 min (N=25), then
extrapolated O(N^3) to "about 287 years" at N = 1750 — the motivation for
DStress's whole architecture.

We reproduce the same pipeline: build a fixed-point matrix-multiply
circuit, evaluate it under our GMW engine for small N, fit the cubic, and
extrapolate. (Data-dependent sparsity cannot be exploited because the
matrix is private, as the paper notes.) It is a benchmark fixture, not an
engine: ``benchmarks/bench_naive_mpc.py`` and
``examples/scalability_projection.py`` call :func:`fit_naive_baseline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.rng import DeterministicRNG
from repro.obs.clock import now as clock_now
from repro.exceptions import ConfigurationError
from repro.mpc.circuit import Circuit
from repro.mpc.fixedpoint import FixedPointBuilder, FixedPointFormat
from repro.mpc.gmw import GMWEngine
from repro.mpc.plan import PLANS

__all__ = [
    "matrix_multiply_circuit",
    "measure_matmul_seconds",
    "NaiveBaselineFit",
    "fit_naive_baseline",
]


def matrix_multiply_circuit(n: int, fmt: FixedPointFormat) -> Circuit:
    """Fixed-point N x N matrix multiply as a Boolean circuit.

    Inputs ``a_i_j`` and ``b_i_j``; outputs ``c_i_j`` with
    ``c[i][j] = sum_k a[i][k] * b[k][j]`` (N^3 multipliers — the O(N^3)
    the baseline extrapolation rests on).
    """
    if n < 1:
        raise ConfigurationError("matrix dimension must be positive")
    builder = FixedPointBuilder(fmt)
    a = [[builder.fx_input(f"a_{i}_{j}") for j in range(n)] for i in range(n)]
    b = [[builder.fx_input(f"b_{i}_{j}") for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            acc = builder.fx_const(0.0)
            for k in range(n):
                acc = builder.fx_add(acc, builder.fx_mul(a[i][k], b[k][j]))
            builder.output_bus(f"c_{i}_{j}", acc)
    return builder.circuit


def measure_matmul_seconds(
    n: int,
    fmt: FixedPointFormat,
    parties: int = 3,
    rng: DeterministicRNG | None = None,
) -> Tuple[float, int]:
    """Evaluate one N x N matrix multiply under GMW; returns (seconds,
    AND-gate count)."""
    rng = rng if rng is not None else DeterministicRNG("naive-baseline")
    # a fit re-measures the same few sizes: compile each once
    circuit = PLANS.get(("matmul", n, fmt), lambda: matrix_multiply_circuit(n, fmt))
    engine = GMWEngine(parties)
    shares = {}
    for name, wires in circuit.input_buses.items():
        value = fmt.to_unsigned(fmt.encode(rng.random()))
        shares[name] = engine.share_input(value, len(wires), rng)
    started = clock_now()
    engine.evaluate(circuit, shares, rng)
    elapsed = clock_now() - started
    return elapsed, circuit.stats().and_gates


@dataclass(frozen=True)
class NaiveBaselineFit:
    """Cubic fit ``seconds = coefficient * N^3`` for one matrix multiply."""

    coefficient: float
    sample_points: List[Tuple[int, float]]

    def seconds_for_multiply(self, n: int) -> float:
        return self.coefficient * n**3

    def seconds_end_to_end(self, n: int, iterations: int) -> float:
        """Raising the matrix to the I-th power costs I-1 multiplies (the
        paper's ``(1750/25)^3 * 40 min * 11``)."""
        return self.seconds_for_multiply(n) * max(1, iterations - 1)

    def years_end_to_end(self, n: int, iterations: int) -> float:
        return self.seconds_end_to_end(n, iterations) / (365.25 * 24 * 3600)


def fit_naive_baseline(
    sizes: Sequence[int],
    fmt: FixedPointFormat,
    parties: int = 3,
) -> NaiveBaselineFit:
    """Measure matrix multiplies at the given sizes and fit the cubic.

    Least squares on ``t = c * N^3`` (zero intercept): the paper's own
    extrapolation method.
    """
    samples = []
    for n in sizes:
        seconds, _ = measure_matmul_seconds(n, fmt, parties)
        samples.append((n, seconds))
    numerator = sum(t * n**3 for n, t in samples)
    denominator = sum(n**6 for n, _ in samples)
    return NaiveBaselineFit(coefficient=numerator / denominator, sample_points=samples)
