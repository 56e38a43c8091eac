"""The experiment scripts, run in-process at tiny sizes."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import balancekit as bk

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


@pytest.mark.parametrize("cost", ["l2", "0.015*l1+1.0*l2"])
def test_schedule_independence(tmp_path, cost):
    out = tmp_path / "si"
    code = _script("schedule_independence").main(["--runs", "5", "--cost", cost, "--out", str(out)])
    assert code == 0
    assert _header(out / "runs.csv") == ["seed", "steps", "r_final", "converged"]
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["seed"]) for r in rows] == list(range(5))
    assert all(r["converged"] == "1" for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "runs", "r_initial", "r_star", "max_elementwise_spread", "pairwise_frobenius_bound",
        "max_vs_oracle",
    }
    assert summary["runs"] == 5 and summary["max_elementwise_spread"] < 1e-6
    assert summary["max_vs_oracle"] < 1e-6
    assert isinstance(summary["r_star"], float) and summary["r_star"] <= summary["r_initial"]


def test_schedule_independence_projects_the_batch_and_the_oracle(tmp_path):
    # the reference is the experiment's own computation: one batch of stochastic runs,
    # their per-edge spread and the convex oracle
    out = tmp_path / "si"
    assert _script("schedule_independence").main(["--runs", "5", "--out", str(out)]) == 0
    net = bk.make_layered([3, 6, 6, 2], seed=424242, bias_init="uniform")
    cost = bk.l2()
    r0 = bk.network_cost(net, cost)
    schedules = [bk.Schedule("stochastic", seed=s, deficit_tol=1e-18, max_steps=300_000) for s in range(5)]
    runs = bk.run_balancing_many(net, schedules, cost)
    rows = ["seed,steps,r_final,converged"] + [
        f"{s},{len(t.units)},{t.r_series[-1] if t.r_series else r0!r},{int(t.converged)}"
        for s, (_, t) in enumerate(runs)
    ]
    assert (out / "runs.csv").read_text() == "\n".join(rows) + "\n"
    stack = np.stack([final.weights() for final, _ in runs])
    spread = stack.max(axis=0) - stack.min(axis=0)
    sol = bk.solve_convex(net, cost)
    oracle = bk.apply_multipliers(net, sol.multipliers).weights()
    summary = {
        "runs": 5, "r_initial": r0, "r_star": sol.r_star,
        "max_elementwise_spread": float(spread.max()),
        "pairwise_frobenius_bound": float(np.linalg.norm(spread)),
        "max_vs_oracle": float(np.max(np.abs(stack - oracle[None, :]))),
    }
    assert (out / "summary.json").read_text() == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    # and it is a verify-uniqueness run
    assert json.loads((out / "manifest.json").read_text())["command"] == "verify-uniqueness"
    assert (out / "net.json").exists() and (out / "oracle.json").exists()


def test_schedule_independence_nonconvergence_exits_two_without_a_summary(tmp_path):
    out = tmp_path / "si"
    script = _script("schedule_independence")
    assert script.main(["--runs", "3", "--out", str(out)]) == 0  # a summary a failed rerun must not leave
    assert script.main(["--runs", "5", "--max-steps", "5", "--tol", "1e-30", "--out", str(out)]) == 2
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["steps"], r["converged"]) for r in rows] == [(str(s), "5", "0") for s in range(5)]
    assert not (out / "summary.json").exists() and not (out / "report.json").exists()


@pytest.mark.parametrize("args, code", [(["--cost", "l3"], 1), (["--sizes", "2,1"], 0), (["--runs", "1"], 1)],
                         ids=["unknown cost", "nothing to balance", "one run"])
def test_schedule_independence_without_a_summary(tmp_path, capsys, args, code):
    out = tmp_path / "si"
    assert _script("schedule_independence").main(["--runs", "5", *args, "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_circles_training(tmp_path):
    out = tmp_path / "ct"
    code = _script("circles_training").main(
        ["--seeds", "0,1", "--epochs", "3", "--n", "80", "--out", str(out)]
    )
    assert code == 0
    assert _header(out / "curves.csv") == [
        "arm", "epoch", "mean_accuracy", "std_accuracy", "mean_deficit",
    ]
    with open(out / "curves.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["arm"], int(r["epoch"])) for r in rows] == [
        (arm, e) for arm in ("none", "full_at_start", "partial_each_epoch") for e in range(4)
    ]
    # the script is a `balancekit train` run: its outputs are there, and curves.csv
    # projects aggregate.csv
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train" and {"python", "numpy"} <= set(manifest)
    for arm in ("none", "full_at_start", "partial_each_epoch"):
        for seed in (0, 1):
            run = out / arm / f"seed_{seed}"
            with open(run / "metrics.csv", newline="") as fh:
                assert len(list(csv.DictReader(fh))) == 3 + 1
            assert (run / "network.json").exists() and (run / "manifest.json").exists()
    with open(out / "aggregate.csv", newline="") as fh:
        aggregate = list(csv.DictReader(fh))
    assert [list(r.values()) for r in rows] == [
        [a[c] for c in ("arm", "epoch", "mean_test_accuracy", "std_test_accuracy", "mean_deficit")]
        for a in aggregate
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_circles_training_divergence_exits_two_with_the_first_rows(tmp_path):
    out = tmp_path / "ct"
    code = _script("circles_training").main(
        ["--seeds", "0,1", "--epochs", "3", "--n", "80", "--lr", "1e300", "--out", str(out)]
    )
    assert code == 2
    with open(out / "curves.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["arm"], r["epoch"]) for r in rows] == [
        (arm, "0") for arm in ("none", "full_at_start", "partial_each_epoch")
    ]
    run = json.loads((out / "none" / "seed_0" / "manifest.json").read_text())
    assert run["note"] == "non-finite weights at epoch 1"
