#!/usr/bin/env python3
"""Desk-scale schedule-independence experiment.

Balances one fixed random layered network under many stochastic schedules,
plus the convex oracle, and writes a CSV of per-run outcomes together with a
summary of the pairwise weight discrepancies.  The runs go through
``run_balancing_many`` as one batch.

    python scripts/schedule_independence.py --runs 1000 --out out/schedule_independence
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import balancekit as bk


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="3,6,6,2", help="layer sizes, comma separated")
    ap.add_argument("--runs", type=int, default=1000)
    ap.add_argument("--cost", default="l2")
    ap.add_argument("--tol", type=float, default=1e-18)
    ap.add_argument("--max-steps", type=int, default=300_000)
    ap.add_argument("--net-seed", type=int, default=424242)
    ap.add_argument("--out", default="out/schedule_independence")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sizes = [int(s) for s in args.sizes.split(",")]
    net = bk.make_layered(sizes, seed=args.net_seed, bias_init="uniform")
    cost = bk.parse_cost(args.cost)
    r0 = bk.network_cost(net, cost)

    schedules = [
        bk.Schedule("stochastic", seed=seed, deficit_tol=args.tol, max_steps=args.max_steps)
        for seed in range(args.runs)
    ]
    runs = bk.run_balancing_many(net, schedules, cost)
    rows = ["seed,steps,r_final,converged"]
    for seed, (_, trace) in enumerate(runs):
        r_final = trace.r_series[-1] if trace.r_series else r0
        rows.append(f"{seed},{len(trace.steps)},{r_final!r},{int(trace.converged)}")
    (out / "runs.csv").write_text("\n".join(rows) + "\n")

    stack = np.stack([final.weights() for final, _ in runs])
    spread_vec = stack.max(axis=0) - stack.min(axis=0)
    sol = bk.solve_convex(net, cost)
    oracle = bk.apply_multipliers(net, sol.multipliers).weights()
    summary = {
        "runs": args.runs,
        "r_initial": r0,
        "r_star": sol.r_star,
        "max_elementwise_spread": float(spread_vec.max()),
        "pairwise_frobenius_bound": float(np.linalg.norm(spread_vec)),
        "max_vs_oracle": float(np.max(np.abs(stack - oracle[None, :]))),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
