"""The I-880 design sweep and its time/revenue Pareto front.

Sixty design points (three capacity splits, twenty toll prices) each get an
equilibrium, an average travel time T, and a toll revenue R. The authority
wants T small and R large; the Pareto front is the set of designs where
improving one objective must worsen the other.

The sweep is one batch of numpy columns (``table.avg_time``,
``table.revenue``, ...); ``table.outcome(i)`` gives point ``i`` as an
``EquilibriumOutcome``. The front is the positions of its points in the
batch, and ``table.take(front)`` is the batch of those points.
"""

import numpy as np

from hotlane import i880_config, pareto_front, solve_batch

def main() -> None:
    config = i880_config()
    table = solve_batch(*config.design_grid(), config.population, config.bpr)
    print(f"swept {len(table)} design points")

    front = table.take(pareto_front(table))
    print(f"Pareto front has {len(front)} points (min T first):\n")
    print(f"{'tau':>5} {'rho':>5} {'regime':>6} {'toll share':>11} {'T (min)':>10} {'R ($/min)':>10}")
    for point in map(front.outcome, range(len(front))):
        print(
            f"{point.design.tau:>5} {point.design.rho:>5} {point.regime.value:>6} "
            f"{point.shares.toll:>11.6f} {point.avg_time:>10.4f} {point.revenue:>10.4f}"
        )

    best_time = table.outcome(int(np.argmin(table.avg_time)))
    best_revenue = table.outcome(int(np.argmax(table.revenue)))
    print(f"\nfastest design: tau={best_time.design.tau}, rho={best_time.design.rho} "
          f"(T={best_time.avg_time:.4f} min)")
    print(f"highest revenue: tau={best_revenue.design.tau}, rho={best_revenue.design.rho} "
          f"(R={best_revenue.revenue:.4f} $/min)")


if __name__ == "__main__":
    main()
