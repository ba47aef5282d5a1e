"""Batch scenario sweep: one session, many shocks, one privacy budget.

The regulator's real workload (§2, §4.5): compare several shock scenarios
on the interbank network, releasing one differentially private total
dollar shortfall per scenario, without ever exceeding the yearly ln 2
budget. The unified session API turns that into one ``run_many`` call:

* scenarios are resolved and budget-checked *before* any MPC runs —
  an over-budget batch is refused whole;
* the resolved runs fan across forked worker processes;
* results come back in input order, bit-reproducible across runs and
  worker counts.

The sweep below runs the first four scenarios through the full secure
engine (demo parameters) and shows that the fifth would be refused: five
releases at epsilon 0.16 do not fit in ln 2 ≈ 0.693.

Run: python examples/batch_scenarios.py
"""

from repro import (
    Bank,
    FinancialNetwork,
    PrivacyAccountant,
    Scenario,
    StressTest,
)
from repro.exceptions import PrivacyBudgetExceeded
from repro.finance import apply_shock, uniform_shock


def build_network() -> FinancialNetwork:
    """Four banks with a cascading default when bank 0 is shocked."""
    network = FinancialNetwork()
    network.add_bank(Bank(0, cash=2.0))
    network.add_bank(Bank(1, cash=1.0))
    network.add_bank(Bank(2, cash=1.0))
    network.add_bank(Bank(3, cash=0.5))
    network.add_debt(0, 1, 4.0)
    network.add_debt(0, 2, 2.0)
    network.add_debt(1, 3, 3.0)
    network.add_debt(2, 3, 1.0)
    return network


def main() -> None:
    network = build_network()
    accountant = PrivacyAccountant()  # eps_max = ln 2 (§4.5)
    epsilon = 0.16

    template = (
        StressTest(network)
        .program("eisenberg-noe")
        .engine("secure")
        .preset("demo")
        .privacy(epsilon=epsilon)
        .degree_bound(2)
    )

    scenarios = [
        Scenario(name="baseline", seed=11),
        Scenario(
            name="bank-0 reserves -50%",
            network=apply_shock(network, uniform_shock([0], 0.5)),
            seed=12,
        ),
        Scenario(
            name="bank-0 wiped out",
            network=apply_shock(network, uniform_shock([0], 1.0)),
            seed=13,
        ),
        Scenario(
            name="system-wide -25%",
            network=apply_shock(network, uniform_shock(range(4), 0.25)),
            seed=14,
        ),
    ]

    batch = template.run_many(scenarios, workers=2, accountant=accountant)

    print(
        f"{'scenario':24s} {'released TDS':>13s} {'exact (sim)':>12s} "
        f"{'rounds':>7s} {'seconds':>8s}"
    )
    print("-" * 69)
    for outcome in batch:
        result = outcome.result
        print(
            f"{outcome.name:24s} {result.aggregate:13.3f} "
            f"{result.pre_noise_aggregate:12.3f} "
            f"{result.iterations:7d} {outcome.seconds:8.2f}"
        )
    print("-" * 69)
    print(batch.summary())
    print(
        "note: the Laplace scale s/eps = 10/0.16 ≈ 62 units dwarfs this toy "
        "network's TDS —\nthe paper's networks measure shortfalls in the "
        "hundreds of units, where the same\nnoise is a few percent."
    )
    print(
        f"budget: spent {accountant.spent:.3f} of {accountant.epsilon_max:.3f}; "
        f"remaining {accountant.remaining:.3f}"
    )

    # A fifth release would overrun the yearly budget — refused up front,
    # before a single MPC round runs.
    try:
        template.run_many([Scenario(name="one-too-many", seed=15)],
                          accountant=accountant)
    except PrivacyBudgetExceeded as exc:
        print(f"\nfifth release refused: {exc}")


if __name__ == "__main__":
    main()
