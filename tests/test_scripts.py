"""The experiment scripts, run in-process at tiny sizes."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

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
