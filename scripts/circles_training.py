#!/usr/bin/env python3
"""Training-improvement comparison on the concentric-circles task.

Trains the toy 2-5-1 classifier under several balancing regimes over a seed
sweep and writes per-epoch mean/std test accuracy per arm, plot-ready.

    python scripts/circles_training.py --seeds 0,1,2,3,4,5,6,7 --out out/circles_training
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import balancekit as bk


def run_arm(arm, seed, train, test, epochs, lr):
    net = bk.make_layered([2, 5, 1], hidden_activation=bk.RELU,
                          output_activation=bk.LOGISTIC_UNIT, seed=seed,
                          bias_init="uniform")
    cfg = bk.TrainConfig(lr, 8, epochs, "binary_cross_entropy",
                         balance=bk.BalanceMode(arm, tol=1e-12), seed=seed)
    _, rows = bk.sgd_train(net, train, test, cfg)
    return rows


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
    seeds = [int(s) for s in args.seeds.split(",")]
    arms = args.arms.split(",")
    data = bk.make_concentric_circles(args.n, args.noise, seed=100)
    k = args.n // 4
    test = bk.Dataset(data.inputs[:k], data.targets[:k], "test")
    train = bk.Dataset(data.inputs[k:], data.targets[k:], "train")

    lines = ["arm,epoch,mean_accuracy,std_accuracy,mean_deficit"]
    finals = {}
    for arm in arms:
        per_seed = [run_arm(arm, s, train, test, args.epochs, args.lr) for s in seeds]
        for e in range(args.epochs + 1):
            acc = np.array([rows[e].test_accuracy for rows in per_seed])
            def_ = np.array([rows[e].network_deficit for rows in per_seed])
            lines.append(
                f"{arm},{e},{float(acc.mean())!r},{float(acc.std())!r},{float(def_.mean())!r}"
            )
        finals[arm] = float(np.mean([rows[-1].test_accuracy for rows in per_seed]))
    (out / "curves.csv").write_text("\n".join(lines) + "\n")
    for arm, acc in finals.items():
        print(f"{arm}: final mean test accuracy {acc:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
