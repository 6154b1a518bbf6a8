"""Tour of the three equilibrium regimes.

Every design point lands in exactly one regime:

* A1 - the toll is high relative to the time it saves; HOT users all
  carpool, and the pool share balances a triangle of the type rectangle.
* A2 - carpooling is so cheap (low max disutility) that even a toll above
  the max disutility leaves the HOT lane full of carpools.
* B  - the toll is cheap enough that travelers with high values of time
  and high carpool disutility pay it.

The script solves one point per regime and shows that the solved shares
reproduce themselves through the best-response region areas, which is the
equilibrium condition.
"""

from hotlane import BprParams, DesignParams, PopulationParams, solve
from hotlane.population import region_measures_at_gap

I880_POP = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0)
I880_BPR = BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=140.0)

# A steeper congestion curve and a narrow disutility range reach Regime A2,
# which the mild I-880 calibration cannot.
STEEP_BPR = BprParams(a=1.0, b=4.0, t_free=22.0, v_cap=140.0)
NARROW_POP = PopulationParams(demand=115.0, beta_max=2.0, gamma_max=1.0)

CASES = [
    ("I-880, expensive toll", DesignParams(rho=0.25, tau=4.0, occupancy=2.5), I880_POP, I880_BPR),
    ("I-880, cheap toll, wide HOT", DesignParams(rho=0.75, tau=0.5, occupancy=2.5), I880_POP, I880_BPR),
    ("steep curve, narrow disutility", DesignParams(rho=0.7, tau=1.5, occupancy=3.0), NARROW_POP, STEEP_BPR),
]


def main() -> None:
    for name, design, pop, bpr in CASES:
        out = solve(design, pop, bpr)
        measured = region_measures_at_gap(out.gap, design.tau, pop)
        consistency = max(
            abs(measured.toll - out.shares.toll),
            abs(measured.pool - out.shares.pool),
            abs(measured.ordinary - out.shares.ordinary),
        )
        print(f"{name} (tau={design.tau}, rho={design.rho}, A={design.occupancy})")
        print(f"  regime {out.regime.value}")
        print(
            f"  shares: toll={out.shares.toll:.6f} pool={out.shares.pool:.6f} "
            f"ordinary={out.shares.ordinary:.6f}"
        )
        print(f"  latency gap {out.gap:.4f} min, flows (ordinary, hot) = "
              f"({out.flows[0]:.1f}, {out.flows[1]:.1f}) veh/min")
        print(f"  fixed-point residual {out.residual:.2e} in {out.iterations} root-finding steps")
        print(f"  region-measure self-consistency gap {consistency:.2e}")
        print()


if __name__ == "__main__":
    main()
