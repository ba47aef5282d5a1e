"""Tests for the traffic meter, cost model and projections."""

import pytest

from repro.finance import EisenbergNoeProgram
from repro.mpc.fixedpoint import FixedPointFormat
from repro.simulation import (
    PAPER_COST_CONSTANTS,
    CostConstants,
    ScalabilityEstimator,
    TrafficMeter,
    fit_naive_baseline,
    matrix_multiply_circuit,
    measure_cost_constants,
)
from repro.simulation.netsim import PhaseTimer


class TestTrafficMeter:
    def test_record_send_double_entry(self):
        meter = TrafficMeter()
        meter.record_send(1, 2, 100)
        assert meter.node(1).bytes_sent == 100
        assert meter.node(2).bytes_received == 100
        assert meter.total_bytes_sent == 100

    def test_summary_fields(self):
        meter = TrafficMeter()
        meter.record_send(1, 2, 100)
        meter.record_send(2, 1, 50)
        summary = meter.summary()
        assert summary["nodes"] == 2
        assert summary["total_bytes_sent"] == 150
        assert summary["max_node_bytes_sent"] == 100
        assert meter.mean_node_bytes_sent() == 75

    def test_empty_meter(self):
        meter = TrafficMeter()
        assert meter.total_bytes_sent == 0
        assert meter.max_node_bytes_sent() == 0

    def test_phase_timer(self):
        timer = PhaseTimer()
        timer.add("compute", 1.5)
        timer.add("compute", 0.5)
        timer.add("transfer", 1.0)
        assert timer.seconds["compute"] == 2.0


class TestCostConstants:
    def test_measured_constants_positive(self):
        constants = measure_cost_constants(gmw_parties=2, sample_and_gates=16)
        assert constants.seconds_per_ot > 0
        assert constants.seconds_per_exp > 0

    def test_paper_constants_documented(self):
        assert "paper" in PAPER_COST_CONSTANTS.label
        assert PAPER_COST_CONSTANTS.seconds_per_exp == pytest.approx(7e-4)


class TestEstimator:
    @pytest.fixture
    def estimator(self):
        program = EisenbergNoeProgram(FixedPointFormat(16, 8))
        return ScalabilityEstimator(
            program, PAPER_COST_CONSTANTS, collusion_bound=19, element_bytes=97
        )

    def test_paper_headline_magnitudes(self, estimator):
        """§5.5: N=1750, D=100 runs in about five hours with sub-GB-range
        per-node traffic. Our projection must land in that regime."""
        estimate = estimator.estimate(num_nodes=1750, degree_bound=100, iterations=11)
        assert 1.5 < estimate.hours_total < 10.0
        assert 300 < estimate.traffic_per_node_mb < 3000

    def test_time_grows_with_degree(self, estimator):
        times = [
            estimator.estimate(1750, degree, 11).seconds_total
            for degree in (10, 40, 70, 100)
        ]
        assert times == sorted(times)

    def test_traffic_linear_in_degree(self, estimator):
        t10 = estimator.estimate(1750, 10, 11).traffic_per_node_bytes
        t100 = estimator.estimate(1750, 100, 11).traffic_per_node_bytes
        assert 5 < t100 / t10 < 12

    def test_time_grows_with_iterations(self, estimator):
        """Figure 6's N-dependence comes through I = log2 N."""
        fast = estimator.estimate(100, 10, 7)
        slow = estimator.estimate(2000, 10, 11)
        assert slow.seconds_total > fast.seconds_total

    def test_transfer_time_linear_in_k(self):
        program = EisenbergNoeProgram(FixedPointFormat(16, 8))
        times = []
        for k in (7, 19):
            est = ScalabilityEstimator(program, PAPER_COST_CONSTANTS, collusion_bound=k)
            times.append(est.transfer_seconds())
        # §5.2: 285 ms at block 8 to 610 ms at block 20 — about 2.1x.
        assert times[1] / times[0] == pytest.approx(20 / 8, rel=0.25)

    def test_transfer_time_paper_magnitude(self):
        """§5.2 reports 285-610 ms per transfer; the paper-regime constants
        should reproduce that range."""
        program = EisenbergNoeProgram(FixedPointFormat(12, 6))
        est = ScalabilityEstimator(program, PAPER_COST_CONSTANTS, collusion_bound=19)
        assert 0.2 < est.transfer_seconds() < 1.2


class TestNaiveBaseline:
    def test_matmul_circuit_correct(self):
        fmt = FixedPointFormat(12, 4)
        circuit = matrix_multiply_circuit(2, fmt)
        inputs = {}
        a = [[1.0, 2.0], [0.5, 1.0]]
        b = [[2.0, 0.0], [1.0, 1.0]]
        for i in range(2):
            for j in range(2):
                inputs[f"a_{i}_{j}"] = fmt.to_unsigned(fmt.encode(a[i][j]))
                inputs[f"b_{i}_{j}"] = fmt.to_unsigned(fmt.encode(b[i][j]))
        out = circuit.evaluate(inputs)
        expected = [[4.0, 2.0], [2.0, 1.0]]
        for i in range(2):
            for j in range(2):
                got = fmt.decode(fmt.from_unsigned(out[f"c_{i}_{j}"]))
                assert got == pytest.approx(expected[i][j], abs=0.15)

    def test_and_count_cubic(self):
        fmt = FixedPointFormat(8, 2)
        ands = [matrix_multiply_circuit(n, fmt).stats().and_gates for n in (2, 4)]
        assert ands[1] / ands[0] == pytest.approx(8, rel=0.2)

    def test_fit_and_extrapolate(self):
        fmt = FixedPointFormat(8, 2)
        fit = fit_naive_baseline([2, 3], fmt, parties=2)
        assert fit.coefficient > 0
        # The §5.5 extrapolation, whatever the box: the zero-intercept cubic
        # lies between the measured points' own t / N^3, and N = 1750 over
        # 12 iterations is the paper's (1750/25)^3 * 11 multiplies at N = 25.
        per_cube = [seconds / n**3 for n, seconds in fit.sample_points]
        assert min(per_cube) <= fit.coefficient <= max(per_cube)
        year = 365.25 * 24 * 3600
        assert fit.years_end_to_end(1750, 12) * year == pytest.approx(
            70**3 * 11 * fit.seconds_for_multiply(25)
        )
        # And monotone in N.
        assert fit.seconds_for_multiply(25) > fit.seconds_for_multiply(10)
