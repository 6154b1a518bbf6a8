"""Cross-checking the closed-form solver against the brute-force oracle.

The solver uses the regime equations; the oracle knows nothing about them.
It drops four million agent types on a grid, lets each best-respond, and
brackets the latency gap until a grid labeling reproduces itself, or until
the bracket ends are two adjacent labelings that the equilibrium falls
between. Each labeling knows the range of gaps it holds on, so most points
take two labelings. Agreement between the two is a strong end-to-end check
of the whole model.
"""

from hotlane import BprParams, DesignParams, OracleConfig, PopulationParams, oracle_equilibrium, solve

POP = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0)
BPR = BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=140.0)

POINTS = [(0.25, 1.0), (0.5, 5.0), (0.75, 0.5), (0.75, 1.0), (0.75, 10.0)]


def main() -> None:
    cfg = OracleConfig()  # 2000 x 2000 agents
    print(f"oracle grid: {cfg.grid_n} x {cfg.grid_n} agent types\n")
    print(f"{'tau':>5} {'rho':>5} {'regime':>6} {'solver pool':>12} {'oracle pool':>12} {'max-norm dist':>14}")
    for rho, tau in POINTS:
        design = DesignParams(rho=rho, tau=tau, occupancy=2.5)
        out = solve(design, POP, BPR)
        oracle_shares, iterations = oracle_equilibrium(design, POP, BPR, cfg)
        distance = max(
            abs(out.shares.toll - oracle_shares.toll),
            abs(out.shares.pool - oracle_shares.pool),
            abs(out.shares.ordinary - oracle_shares.ordinary),
        )
        print(
            f"{tau:>5} {rho:>5} {out.regime.value:>6} {out.shares.pool:>12.6f} "
            f"{oracle_shares.pool:>12.6f} {distance:>14.3e}  ({iterations} grid labelings)"
        )


if __name__ == "__main__":
    main()
