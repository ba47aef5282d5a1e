"""MPC substrate: Boolean circuits, GMW protocol, in-MPC noise sampling."""

from repro.mpc.builder import CircuitBuilder
from repro.mpc.circuit import Circuit, CircuitStats, Gate, GateOp
from repro.mpc.cost import Bill, bill_for
from repro.mpc.fixedpoint import FixedPointBuilder, FixedPointFormat
from repro.mpc.gmw import GMWEngine, GMWResult, GMWTraffic

__all__ = [
    "Bill",
    "Circuit",
    "CircuitBuilder",
    "CircuitStats",
    "FixedPointBuilder",
    "FixedPointFormat",
    "GMWEngine",
    "GMWResult",
    "GMWTraffic",
    "Gate",
    "GateOp",
    "bill_for",
]
