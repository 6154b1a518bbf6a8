"""How the equilibrium responds to widening the HOT allocation.

At a fixed toll, growing rho shifts capacity from the ordinary lanes to the
HOT lanes. The scan reports the observed direction of each equilibrium
column rather than asserting any; only the regime boundary is guaranteed to
move one way (a design in Regime B stays in B as rho grows).
"""

from hotlane import BprParams, PopulationParams, comparative_statics_scan

POP = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0)
BPR = BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=140.0)
RHO_GRID = [0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85]


def main() -> None:
    for tau in (0.5, 3.0):
        rows, flags = comparative_statics_scan(tau, RHO_GRID, 2.5, POP, BPR)
        print(f"tau = {tau}")
        print(f"{'rho':>6} {'regime':>6} {'toll':>10} {'pool':>10} {'ordinary':>10} {'gap (min)':>10}")
        for row in map(rows.outcome, range(len(rows))):
            print(
                f"{row.rho:>6} {row.regime.value:>6} {row.shares.toll:>10.6f} "
                f"{row.shares.pool:>10.6f} {row.shares.ordinary:>10.6f} {row.gap:>10.6f}"
            )
        for column, flag in flags.items():
            print(f"  {column}: {flag}")
        print()


if __name__ == "__main__":
    main()
