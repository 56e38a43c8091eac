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
        "max_vs_oracle", "oracle_note",
    }
    assert summary["runs"] == 5 and summary["max_elementwise_spread"] < 1e-6
    if cost == "l2":
        assert summary["max_vs_oracle"] < 1e-6 and summary["oracle_note"] is None
    else:
        # the convex oracle covers one-term costs only
        assert summary["max_vs_oracle"] is None and summary["r_star"] is None
        assert "single power term" in summary["oracle_note"]


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
