"""Elliott-Golub-Jackson contagion through equity cross-holdings.

The second model from §4: banks hold fractions of each other's equity, a
falling valuation discounts every holder's books, and crossing a failure
threshold triggers a discontinuous penalty — modelling distress (rating
downgrades) rather than formal bankruptcy.

This example runs the EGJ vertex program through the full DStress secure
engine on a small cross-holdings ring and shows the released, noised TDS
alongside the (simulation-only) exact fixpoint, plus the §3.6 execution
anatomy: per-phase timings and per-node traffic.

Run: python examples/egj_contagion.py
"""

from repro import StressTest
from repro.core.program import compiled_update_circuit
from repro.finance import (
    Bank,
    FinancialNetwork,
    apply_shock,
    egj_fixpoint,
    egj_sensitivity,
    uniform_shock,
)


def build_network() -> FinancialNetwork:
    """Five banks in a cross-holdings ring with one fragile member."""
    network = FinancialNetwork()
    specs = [
        # (base assets, original valuation, failure threshold, penalty)
        (2.0, 12.0, 6.0, 3.0),   # bank 0: thin primitive assets
        (7.0, 12.0, 6.0, 3.0),
        (8.0, 14.0, 7.0, 3.5),
        (6.5, 11.0, 5.5, 2.5),
        (9.0, 15.0, 7.5, 4.0),
    ]
    for bank_id, (base, orig, threshold, penalty) in enumerate(specs):
        network.add_bank(
            Bank(bank_id, base_assets=base, orig_value=orig, threshold=threshold, penalty=penalty)
        )
    for bank_id in range(5):
        network.add_holding(holder=(bank_id + 1) % 5, issuer=bank_id, fraction=0.35)
        network.add_holding(holder=(bank_id + 2) % 5, issuer=bank_id, fraction=0.15)
    return network


def main() -> None:
    iterations = 5
    network = apply_shock(build_network(), uniform_shock([0], 0.9, "asset crash"))

    exact = egj_fixpoint(network, iterations)
    print("exact EGJ fixpoint (simulation-only oracle)")
    print(f"  valuations: { {b: round(v, 2) for b, v in exact.values.items()} }")
    print(f"  distressed: {exact.distressed}")
    print(f"  exact TDS:  {exact.total_shortfall:.3f}")

    session = (
        network.stress_test()
        .program("elliott-golub-jackson")
        .engine("secure")
        .preset("demo")
        .privacy(epsilon=0.5)
        .seed(99)
        .degree_bound(2)
    )
    result = session.run(iterations=iterations)
    # the update circuit is a property of (program, format, degree bound),
    # not of a run: every block evaluates this many AND gates per step, and
    # the run above already compiled it into the process-wide plan table
    spec = session.resolve(iterations=iterations)
    circuit = compiled_update_circuit(spec.program, spec.graph.degree_bound)

    print("\nDStress secure execution")
    print(f"  released TDS:        {result.aggregate:.3f}")
    print(f"  sensitivity (2/r):   {egj_sensitivity():.0f}")
    print(f"  AND gates per step:  {circuit.stats().and_gates:,}")
    print("  phase seconds:")
    for phase, seconds in result.phases.seconds.items():
        print(f"    {phase:15s} {seconds:7.2f}")
    busiest = max(result.traffic.node_ids, key=lambda n: result.traffic.node(n).bytes_sent)
    print(
        f"  busiest node: #{busiest} sent "
        f"{result.traffic.node(busiest).bytes_sent / 1e6:.2f} MB"
    )


if __name__ == "__main__":
    main()
