"""Differential privacy: mechanisms, budgets, dollar-DP, edge privacy."""

from repro.privacy.admission import (
    Precharge,
    precharge,
    release_epsilon,
    release_schedule,
)
from repro.privacy.budget import DEFAULT_EPSILON_MAX, BudgetCharge, PrivacyAccountant
from repro.privacy.dollar import DEFAULT_GRANULARITY_USD, DollarPrivacySpec
from repro.privacy.edge_privacy import (
    EdgePrivacyAnalysis,
    alpha_max_for_failure_budget,
    dlog_table_entries,
    failure_probability,
    mechanism_alpha,
    per_iteration_epsilon,
    total_transfers,
    transfer_sensitivity,
)
from repro.privacy.mechanisms import (
    geometric_alpha,
    geometric_release,
    geometric_sample,
    two_sided_geometric_cdf,
    two_sided_geometric_sample,
)
from repro.privacy.utility import (
    UtilityAnalysis,
    epsilon_for_precision,
    measure_noise_impact,
    runs_per_year,
)

__all__ = [
    "BudgetCharge",
    "DEFAULT_EPSILON_MAX",
    "DEFAULT_GRANULARITY_USD",
    "DollarPrivacySpec",
    "EdgePrivacyAnalysis",
    "Precharge",
    "PrivacyAccountant",
    "UtilityAnalysis",
    "alpha_max_for_failure_budget",
    "dlog_table_entries",
    "epsilon_for_precision",
    "failure_probability",
    "geometric_alpha",
    "geometric_release",
    "geometric_sample",
    "measure_noise_impact",
    "mechanism_alpha",
    "per_iteration_epsilon",
    "precharge",
    "release_epsilon",
    "release_schedule",
    "runs_per_year",
    "total_transfers",
    "transfer_sensitivity",
    "two_sided_geometric_cdf",
    "two_sided_geometric_sample",
]
