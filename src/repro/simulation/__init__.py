"""Deployment simulation: traffic metering, cost model, projections."""

from repro.simulation.estimator import DeploymentEstimate, ScalabilityEstimator
from repro.simulation.naive_baseline import (
    NaiveBaselineFit,
    fit_naive_baseline,
    matrix_multiply_circuit,
    measure_matmul_seconds,
)
from repro.simulation.netsim import NodeStats, PhaseTimer, TrafficMeter
from repro.simulation.timing import (
    PAPER_COST_CONSTANTS,
    CostConstants,
    measure_cost_constants,
)

__all__ = [
    "CostConstants",
    "DeploymentEstimate",
    "NaiveBaselineFit",
    "NodeStats",
    "PAPER_COST_CONSTANTS",
    "PhaseTimer",
    "ScalabilityEstimator",
    "TrafficMeter",
    "fit_naive_baseline",
    "matrix_multiply_circuit",
    "measure_cost_constants",
    "measure_matmul_seconds",
]
