#!/usr/bin/env python3
"""Training-improvement comparison on the concentric-circles task.

Trains the toy 2-5-1 classifier under several balancing regimes over a seed
sweep as one ``balancekit train`` run.  Besides that command's outputs
(``config.json`` here, ``manifest.json``, ``aggregate.csv`` and per arm and
seed ``metrics.csv``, ``network.json`` and ``manifest.json``) it writes
``curves.csv``: per arm and epoch, the mean/std test accuracy and the mean
deficit over the seeds, plot-ready.  Returns the exit code of ``train``.

    python scripts/circles_training.py --seeds 0,1,2,3,4,5,6,7 --out out/circles_training
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from balancekit import cli

# the columns of aggregate.csv that curves.csv keeps, under its own header
CURVES = ("arm", "epoch", "mean_test_accuracy", "std_test_accuracy", "mean_deficit")
HEADER = "arm,epoch,mean_accuracy,std_accuracy,mean_deficit"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2,3,4,5,6,7")
    ap.add_argument("--epochs", type=int, default=1000)
    ap.add_argument("--lr", type=float, default=0.01)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--arms", default="none,full_at_start,partial_each_epoch")
    ap.add_argument("--out", default="out/circles_training")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {
        "net": {"layers": [2, 5, 1], "output_activation": "logistic", "bias_init": "uniform"},
        "data": {"kind": "circles", "n": args.n, "noise": args.noise, "data_seed": 100,
                 "test_fraction": 0.25},
        "train": {"learning_rate": args.lr, "batch_size": 8, "epochs": args.epochs,
                  "loss": "binary_cross_entropy", "balance": {"tol": 1e-12}},
        "arms": args.arms.split(","),
        "seeds": [int(s) for s in args.seeds.split(",")],
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    code = cli.main(["train", "--config", str(out / "config.json"), "--out", str(out)])
    if code == 1:  # no aggregate.csv was written
        return code

    with open(out / "aggregate.csv", newline="") as fh:
        rows = [[row[c] for c in CURVES] for row in csv.DictReader(fh)]
    (out / "curves.csv").write_text("\n".join([HEADER] + [",".join(r) for r in rows]) + "\n")
    finals = {arm: acc for arm, _, acc, *_ in rows}  # each arm's last row
    for arm, acc in finals.items():
        print(f"{arm}: final mean test accuracy {float(acc):.4f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
