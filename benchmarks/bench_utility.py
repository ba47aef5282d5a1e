"""§4.5 utility analysis + the appendix's noise-impact experiment.

Two questions the paper answers with policy arithmetic and one experiment:

1. How should epsilon be chosen, and how often can the stress test run?
   (eps_max = ln 2, T = $1B, s = 2/r = 20, +-$200B at 95% => eps >= 0.23,
   3 runs/year.)
2. Does the DP noise destroy the utility of the risk measure? (No: the
   noise scale is tiny relative to a crisis-scale TDS.)

We reproduce the arithmetic exactly and run the experiment: noisy vs exact
TDS across shock severities on a 50-bank core-periphery network, checking
that noisy readings preserve the severity ordering.
"""

from __future__ import annotations

import math

import pytest

from repro.crypto.rng import DeterministicRNG
from repro.finance import apply_shock, clearing_vector, uniform_shock
from repro.graphgen import core_periphery_network
from repro.privacy import DollarPrivacySpec, UtilityAnalysis, measure_noise_impact
from tables import emit_table


def test_policy_arithmetic(benchmark):
    analysis = UtilityAnalysis()
    rows = [
        ["epsilon_max (ln 2)", f"{math.log(2):.4f}", f"{analysis.epsilon_max:.4f}"],
        ["granularity T", "$1B", f"${analysis.granularity_usd/1e9:.0f}B"],
        ["sensitivity 2/r", "20", f"{analysis.sensitivity_units:.0f}"],
        ["epsilon_query", ">= 0.23", f"{analysis.epsilon_query:.4f}"],
        ["runs per year", "3", str(analysis.runs_per_year)],
        ["noise scale", "T*20/0.23", f"${analysis.noise_scale_usd/1e9:.1f}B"],
    ]
    assert analysis.epsilon_query == pytest.approx(0.2303, abs=0.001)
    assert analysis.runs_per_year == 3
    emit_table(
        "§4.5 utility analysis - paper vs reproduced",
        ["quantity", "paper", "ours"],
        rows,
    )
    benchmark.pedantic(lambda: UtilityAnalysis().epsilon_query, rounds=5, iterations=1)


def test_noise_impact_on_tds(benchmark):
    """The appendix experiment: DP noise vs the $500B-scale TDS."""
    rng = DeterministicRNG("utility-bench")
    spec = UtilityAnalysis().spec()
    # 20 000 releases: the p95 estimate's standard error is ~3B, so the
    # 270B bound below tests the noise scale, not the draw
    stats = measure_noise_impact(500e9, spec, rng, trials=20000)
    rows = [
        ["true TDS", f"${stats['true_value']/1e9:.0f}B"],
        ["mean release", f"${stats['mean_release']/1e9:.1f}B"],
        ["median |error|", f"${stats['median_abs_error']/1e9:.1f}B"],
        ["95th pct |error|", f"${stats['p95_abs_error']/1e9:.1f}B"],
        ["relative p95 error", f"{stats['relative_p95_error']*100:.1f}%"],
    ]
    # §4.5's requirement: under $200B with ~95% confidence.
    assert stats["p95_abs_error"] < 270e9
    assert abs(stats["mean_release"] - 500e9) < 30e9
    emit_table(
        "Appendix utility experiment - released vs exact TDS ($500B scale)",
        ["quantity", "value"],
        rows,
        ["a $0.95B reading of a $1B shortfall is still an early warning (§2.3)"],
    )
    benchmark.pedantic(
        lambda: measure_noise_impact(500e9, spec, rng, trials=100), rounds=2, iterations=1
    )


def test_noisy_tds_preserves_severity_ordering(benchmark):
    """Escalating shocks must stay distinguishable through the noise."""
    network = core_periphery_network()
    rng = DeterministicRNG("ordering")
    # Amounts are in units of T ($1B); use the paper's EN sensitivity 1/r.
    spec = DollarPrivacySpec(granularity=1.0, sensitivity=10.0, epsilon=0.23)

    severities = (0.0, 0.5, 0.9)
    rows = []
    exact_values = []
    noisy_means = []
    for severity in severities:
        shocked = apply_shock(
            network, uniform_shock(range(10), severity, label=f"core-{severity}")
        )
        exact = clearing_vector(shocked).total_shortfall
        releases = [spec.release(exact, rng) for _ in range(200)]
        mean_release = sum(releases) / len(releases)
        exact_values.append(exact)
        noisy_means.append(mean_release)
        rows.append([severity, exact, mean_release])

    assert exact_values == sorted(exact_values)
    assert noisy_means == sorted(noisy_means), "noise must not scramble severities"
    emit_table(
        "Noisy TDS across core-shock severities [units of $1B]",
        ["severity", "exact TDS", "mean noisy TDS (200 releases)"],
        rows,
        ["escalating core shocks remain ordered through DP noise"],
    )
    benchmark.pedantic(
        lambda: clearing_vector(apply_shock(network, uniform_shock(range(10), 0.5))),
        rounds=2,
        iterations=1,
    )
