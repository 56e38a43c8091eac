#!/usr/bin/env python3
"""Desk-scale schedule-independence experiment.

Balances one fixed random layered network under many stochastic schedules,
and against the convex oracle, as one ``balancekit verify-uniqueness`` run
(``net.json``, ``manifest.json``, ``runs.csv``, ``report.json``, ``oracle.json``),
and projects its report into ``summary.json``.  Returns the command's exit code.

    python scripts/schedule_independence.py --runs 1000 --out out/schedule_independence
"""

import argparse
import json
import sys
from pathlib import Path

from balancekit import cli, netgraph

KEPT = ("r_initial", "r_star", "pairwise_frobenius_bound", "max_vs_oracle")  # under the report's names


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
    for stale in ("report.json", "summary.json"):  # a run that stops early writes neither
        (out / stale).unlink(missing_ok=True)
    sizes = [int(s) for s in args.sizes.split(",")]
    netgraph.save(netgraph.make_layered(sizes, seed=args.net_seed, bias_init="uniform"), out / "net.json")
    code = cli.main([
        "verify-uniqueness", "--net", str(out / "net.json"), "--cost", args.cost,
        "--n-schedules", str(args.runs), "--tol", repr(args.tol),
        "--max-steps", str(args.max_steps), "--out", str(out),
    ])
    report = json.loads((out / "report.json").read_text()) if (out / "report.json").exists() else {}
    if not report:  # refused, not converged or the oracle failed
        return code
    summary = {"runs": report["n_schedules"], "max_elementwise_spread": report["max_pairwise"],
               **{key: report[key] for key in KEPT}}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
