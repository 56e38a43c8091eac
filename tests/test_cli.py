import json

import numpy as np
import pytest

import balancekit as bk
from balancekit import cli
from balancekit.cli import main
from conftest import chain


def _load(path):
    """A JSON output of the CLI, read strictly: the bare NaN and Infinity are not JSON."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.fixture
def chain_net_path(tmp_path):
    p = tmp_path / "net.json"
    bk.netgraph.save(chain([2.0, 1.0, 1.0]), p)
    return p


@pytest.fixture
def layered_net_path(tmp_path):
    p = tmp_path / "layered.json"
    net = bk.make_layered([2, 4, 3, 2], seed=7, bias_init="uniform")
    bk.netgraph.save(net, p)
    return p


def test_balance_chain_matches_oracle(tmp_path, chain_net_path):
    out = tmp_path / "out"
    code = main([
        "balance", "--net", str(chain_net_path), "--cost", "l2",
        "--schedule", "stochastic:3", "--tol", "1e-18", "--out", str(out),
    ])
    assert code == 0
    summary = _load(out / "summary.json")
    net = bk.netgraph.load(chain_net_path)
    sol = bk.solve_convex(net, bk.l2())
    assert abs(summary["r_after"] - sol.r_star) <= 1e-6 * sol.r_star
    assert (out / "balanced.json").exists()
    assert (out / "trace.csv").exists()
    assert (out / "manifest.json").exists()


def test_balance_already_balanced_makes_no_steps(tmp_path, chain_net_path):
    first = tmp_path / "first"
    main(["balance", "--net", str(chain_net_path), "--cost", "l2",
          "--schedule", "sequential", "--tol", "1e-20", "--out", str(first)])
    second = tmp_path / "second"
    code = main(["balance", "--net", str(first / "balanced.json"), "--cost", "l2",
                 "--schedule", "sequential", "--tol", "1e-12", "--out", str(second)])
    assert code == 0
    summary = _load(second / "summary.json")
    assert summary["steps"] == 0


def test_balance_unreadable_path_exits_one(tmp_path):
    code = main(["balance", "--net", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1


def test_balance_nonconvergence_exits_two(tmp_path, layered_net_path):
    out = tmp_path / "o"
    code = main(["balance", "--net", str(layered_net_path), "--tol", "1e-20",
                 "--max-steps", "2", "--out", str(out)])
    assert code == 2


def test_verify_uniqueness_small(tmp_path, layered_net_path):
    out = tmp_path / "u"
    code = main(["verify-uniqueness", "--net", str(layered_net_path), "--cost", "l2",
                 "--n-schedules", "3", "--tol", "1e-18", "--out", str(out)])
    assert code == 0
    report = _load(out / "report.json")
    assert report["max_pairwise"] < 1e-6
    assert report["max_vs_oracle"] < 1e-6
    oracle = _load(out / "oracle.json")
    assert set(oracle) == {
        "r_star", "lambda_per_unit", "grad_norm", "iterations", "constraint_residuals",
    }
    assert oracle["grad_norm"] <= 1e-10
    net = bk.netgraph.load(layered_net_path)
    assert len(oracle["constraint_residuals"]) == len(net.edges)
    assert report["max_constraint_residual"] <= 1e-9
    assert report["max_run_manifold_residual"] <= 1e-9
    assert report["r_initial"] == bk.network_cost(net, bk.l2())
    # the L2 norm of the per-edge spread lies between its maximum and sqrt(E) times that
    assert report["max_pairwise"] <= report["pairwise_frobenius_bound"]
    assert report["pairwise_frobenius_bound"] <= len(net.edges) ** 0.5 * report["max_pairwise"]
    rows = _runs(out)
    assert [r["seed"] for r in rows] == ["0", "1", "2"]
    assert all(r["converged"] == "1" and int(r["steps"]) > 0 for r in rows)
    assert all(abs(float(r["r_final"]) - report["r_star"]) <= 1e-9 * report["r_star"] for r in rows)


def test_verify_uniqueness_relative_keys_do_not_see_a_power_of_two_scale(tmp_path):
    # the criterion-4 net under L2: a run is equivariant under a power-of-two weight scale
    net = bk.make_layered([3, 6, 6, 2], seed=424242, bias_init="uniform")
    reports = {}
    for k in (0, -60, -20, 20, 60):
        p = tmp_path / f"net{k}.json"
        bk.netgraph.save(net.replace_weights(net.w * 2.0**k), p)
        code = main(["verify-uniqueness", "--net", str(p), "--n-schedules", "12",
                     "--out", str(tmp_path / f"u{k}")])
        report = reports[k] = _load(tmp_path / f"u{k}" / "report.json")
        # the exit code still gates the absolute keys
        assert code == (0 if max(report["max_pairwise"], report["max_vs_oracle"]) < 1e-6 else 2)
    base = reports.pop(0)
    assert 0.0 < base["max_pairwise_rel"] < 1e-6 and 0.0 < base["max_vs_oracle_rel"] < 1e-6
    for k, report in reports.items():
        for key in ("max_pairwise_rel", "max_vs_oracle_rel"):
            assert abs(report[key] - base[key]) <= 1e-12, (k, key)
        assert report["max_pairwise"] == base["max_pairwise"] * 2.0**k
        # the oracle's normalization rounds differently at each scale: its weights move in
        # their last bits, on weights of order 1
        assert abs(report["max_vs_oracle"] - base["max_vs_oracle"] * 2.0**k) <= 1e-14 * 2.0**k


def _runs(out):
    """The rows of a verify-uniqueness runs.csv, after checking its header."""
    lines = (out / "runs.csv").read_text().splitlines()
    assert lines[0] == "seed,steps,r_final,converged"
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_verify_uniqueness_visible_only_net(tmp_path):
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(1, bk.OUTPUT, bk.IDENTITY)]
    net = bk.Network(units, [bk.Edge(0, 1, 2.0)])
    p = tmp_path / "trivial.json"
    bk.netgraph.save(net, p)
    out = tmp_path / "u"
    code = main(["verify-uniqueness", "--net", str(p), "--n-schedules", "2",
                 "--out", str(out)])
    assert code == 0
    report = _load(out / "report.json")
    assert "note" in report


def test_verify_uniqueness_names_the_lowest_nonconverging_seed(tmp_path, layered_net_path, capsys):
    out = tmp_path / "u"
    code = main(["verify-uniqueness", "--net", str(layered_net_path), "--n-schedules", "3",
                 "--seed", "7", "--tol", "1e-20", "--max-steps", "5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.strip() == "schedule with seed 7 did not converge"
    assert not (out / "report.json").exists()
    # the per-run rows are written before the convergence gate
    assert [(r["seed"], r["steps"], r["converged"]) for r in _runs(out)] == [
        (str(s), "5", "0") for s in (7, 8, 9)
    ]


def test_verify_uniqueness_removes_an_earlier_runs_report(tmp_path, layered_net_path):
    out = tmp_path / "u"
    args = ["verify-uniqueness", "--net", str(layered_net_path), "--out", str(out)]
    assert main([*args, "--tol", "1e-18"]) == 0
    assert (out / "report.json").exists() and (out / "oracle.json").exists()
    assert main([*args, "--tol", "1e-20", "--max-steps", "5"]) == 2
    # a passing report beside the rows of a failed run would misreport it
    assert not (out / "report.json").exists() and not (out / "oracle.json").exists()
    assert [(r["steps"], r["converged"]) for r in _runs(out)] == [("5", "0")] * 10


def test_verify_uniqueness_oracle_failure_exits_two_without_a_traceback(tmp_path, capsys):
    # weights spread over hundreds of e-folds: both runs converge, the oracle's line search fails
    net = bk.make_layered([3, 6, 6, 2], seed=11, bias_init="uniform")
    rng = np.random.default_rng(11)
    lo = -rng.uniform(50, 300)
    p = tmp_path / "scaled.json"
    bk.netgraph.save(net.replace_weights(net.weights() * np.exp(rng.uniform(lo, 150, size=len(net.edges)))), p)
    out = tmp_path / "u"
    code = main(["verify-uniqueness", "--net", str(p), "--n-schedules", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("convex oracle failed: ") and err.count("\n") == 1 and "Traceback" not in err
    assert [r["converged"] for r in _runs(out)] == ["1", "1"]
    assert (out / "manifest.json").exists()
    assert not (out / "report.json").exists() and not (out / "oracle.json").exists()


def test_verify_uniqueness_invalid_net_exits_one_before_writing(tmp_path, capsys):
    doc = json.loads(bk.serialize(chain([2.0, 1.0])))
    doc["edges"].append({"from": 1, "to": 7, "weight": 1.0})
    p = tmp_path / "dangling.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "u"
    code = main(["verify-uniqueness", "--net", str(p), "--out", str(out)])
    assert code == 1
    assert "unknown unit" in capsys.readouterr().err
    assert not out.exists()


def _train_config(tmp_path, epochs=2, arms=None, cost="0.01*l2"):
    cfg = {
        "net": {"layers": [2, 4, 1], "hidden_activation": "relu",
                "output_activation": "logistic", "bias": True, "bias_init": "uniform"},
        "data": {"kind": "circles", "n": 80, "noise": 0.05,
                 "test_fraction": 0.25, "data_seed": 0},
        "train": {"learning_rate": 0.05, "batch_size": 8, "epochs": epochs,
                  "loss": "binary_cross_entropy", "cost": cost},
        "seeds": [1, 2],
    }
    if arms:
        cfg["arms"] = arms
    else:  # next to arms, a balance kind has no effect and is refused
        cfg["train"]["balance"] = {"kind": "none"}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_train_two_arms_aggregate(tmp_path):
    cfg = _train_config(tmp_path, epochs=2, arms=["none", "full_at_start"])
    out = tmp_path / "t"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    agg = (out / "aggregate.csv").read_text().strip().split("\n")
    assert agg[0].startswith("arm,epoch,")
    arms = {line.split(",")[0] for line in agg[1:]}
    assert arms == {"none", "full_at_start"}
    assert (out / "none" / "seed_1" / "metrics.csv").exists()
    assert (out / "full_at_start" / "seed_2" / "network.json").exists()


def test_train_builds_the_data_once_per_command(tmp_path, monkeypatch):
    calls = []
    build = cli._build_data
    monkeypatch.setattr(cli, "_build_data", lambda spec: calls.append(spec) or build(spec))
    cfg = _train_config(tmp_path, epochs=1, arms=["none", "partial_each_epoch"])
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 1


def test_main_runs_the_command_function_the_module_holds(tmp_path, monkeypatch, chain_net_path):
    assert cli._parser() is cli._parser()  # built once
    seen = []
    monkeypatch.setattr(cli, "cmd_balance", lambda args: seen.append(args.net) or 0)
    assert main(["balance", "--net", str(chain_net_path), "--out", str(tmp_path / "o")]) == 0
    assert seen == [str(chain_net_path)]


def test_train_zero_epochs_single_row(tmp_path):
    cfg = _train_config(tmp_path, epochs=0)
    out = tmp_path / "t"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "none" / "seed_1" / "metrics.csv").read_text().strip().split("\n")
    assert len(rows) == 2  # header + the single evaluation row


def test_train_bad_cost_string_names_token(tmp_path, capsys):
    cfg = _train_config(tmp_path, cost="l3")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
    assert code == 1
    assert "l3" in capsys.readouterr().err


def _set(section, key, value):
    """The malform that sets ``key`` of ``section`` (None: the top level) to ``value``."""
    def malform(cfg):
        (cfg[section] if section else cfg)[key] = value
        return cfg
    return malform


@pytest.mark.parametrize(
    "malform, names",
    [
        (lambda cfg: {**cfg, "seeds": []}, "'seeds'"),
        (lambda cfg: {k: v for k, v in cfg.items() if k != "train"}, "'train'"),
        (lambda cfg: [cfg], "train config"),
        (lambda cfg: {**cfg, "data": {"kind": "csv"}}, "'train'"),
        (_set("train", "epochs", None), "'train' field 'epochs'"),
        (_set("train", "learning_rate", None), "'train' field 'learning_rate'"),
        (_set("data", "noise", [1]), "'data' field 'noise'"),
        (_set("net", "bias", "false"), "'net' field 'bias'"),
        (_set("train", "epochs", 2.7), "'train' field 'epochs'"),
        (_set("train", "batch_size", "8"), "'train' field 'batch_size'"),
        (_set("net", "layers", [2, 4.5, 1]), "'net' field 'layers'"),
        (_set(None, "seeds", [1, "2"]), "train config field 'seeds'"),
        (_set(None, "arms", [1]), "train config field 'arms'"),
    ],
    ids=["empty seeds", "no train", "a list", "csv without paths", "null epochs",
         "null learning rate", "list noise", "string bias", "fractional epochs",
         "string batch size", "fractional layer size", "string seed", "number arm"],
)
def test_train_malformed_config_exits_one_without_a_traceback(tmp_path, capsys, malform, names):
    cfg = _train_config(tmp_path)
    cfg.write_text(json.dumps(malform(json.loads(cfg.read_text()))))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_train_reproducible_bytes(tmp_path):
    cfg = _train_config(tmp_path, epochs=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", str(cfg), "--out", str(out_a)])
    main(["train", "--config", str(cfg), "--out", str(out_b)])
    for rel in ("none/seed_1/metrics.csv", "none/seed_1/network.json", "aggregate.csv"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_two_with_partial_metrics(tmp_path):
    cfg = {
        "net": {"layers": [2, 4, 1], "hidden_activation": "relu",
                "output_activation": "identity", "bias": True, "bias_init": "uniform"},
        "data": {"kind": "circles", "n": 60, "noise": 0.05,
                 "test_fraction": 0.25, "data_seed": 0},
        "train": {"learning_rate": 1e9, "batch_size": 8, "epochs": 4,
                  "loss": "squared_error", "cost": None, "balance": {"kind": "none"}},
        "seeds": [0],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "t"
    assert main(["train", "--config", str(p), "--out", str(out)]) == 2
    metrics = (out / "none" / "seed_0" / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) >= 2  # header plus at least the initial evaluation row
    run_manifest = _load(out / "none" / "seed_0" / "manifest.json")
    assert "non-finite" in run_manifest["note"]


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = _train_config(tmp_path, epochs=1)
    out = tmp_path / "t"
    monkeypatch.setenv("BALANCEKIT_SEED", "42")
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "none" / "seed_42").is_dir()
    assert not (out / "none" / "seed_1").exists()


def _write_samples(path, fn, n):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for k in range(n + 1):
            x = k / n
            fh.write(f"{float(x)!r},{float(fn(x))!r}\n")


def test_approx_constant_and_line(tmp_path):
    p = tmp_path / "const.csv"
    _write_samples(p, lambda x: 2.5, 4)
    out = tmp_path / "a"
    assert main(["approx", "--samples", str(p), "--epsilon", "0.5",
                 "--grid", "501", "--out", str(out)]) == 0
    report = _load(out / "report.json")
    assert report["max_interpolation_error"] == 0.0

    p = tmp_path / "line.csv"
    _write_samples(p, lambda x: x, 1)
    out = tmp_path / "b"
    assert main(["approx", "--samples", str(p), "--epsilon", "0.5", "--n", "1",
                 "--grid", "501", "--out", str(out)]) == 0
    report = _load(out / "report.json")
    assert report["max_interpolation_error"] <= 1e-15


def test_approx_rejects_uneven_knots(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n0.0,0.0\n0.7,1.0\n1.0,0.0\n")
    code = main(["approx", "--samples", str(p), "--epsilon", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 1


def test_partial_sequential_and_layer_schedules_write_the_same_bytes(tmp_path):
    # on a layered net the partial pass order, the default sequential cycle and the
    # layer cycle are one list
    net_path = tmp_path / "c4.json"
    bk.netgraph.save(bk.make_layered([3, 6, 6, 2], seed=424242, bias_init="uniform"), net_path)
    outputs = []
    for schedule in ("partial", "sequential", "layer"):
        out = tmp_path / schedule
        assert main(["balance", "--net", str(net_path), "--schedule", schedule, "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("trace.csv", "balanced.json", "summary.json")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_balance_mixed_cost_of_the_readme_converges(tmp_path):
    p = tmp_path / "c4.json"
    bk.netgraph.save(bk.make_layered([3, 6, 6, 2], seed=424242, bias_init="uniform"), p)
    out = tmp_path / "o"
    code = main(["balance", "--net", str(p), "--cost", "0.015*l1+1.0*l2",
                 "--max-steps", "300", "--out", str(out)])
    assert code == 0
    summary = _load(out / "summary.json")
    assert summary["converged"] and summary["steps"] <= 300
    assert summary["final_deficit"] <= 1e-8 * summary["r_before"] ** 2


@pytest.mark.parametrize("cost", ["l2", "0.015*l1+1.0*l2"])
def test_balance_of_a_net_whose_costs_overflow_exits_two(tmp_path, capsys, cost):
    net = bk.make_layered([3, 6, 6, 2], seed=0)
    p = tmp_path / "big.json"
    bk.netgraph.save(net.replace_weights(net.w * 1e200), p)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["balance", "--net", str(p), "--cost", cost, "--out", str(out)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = _load(out / "summary.json")
    assert summary["converged"] is False and summary["steps"] == 0
    assert summary["r_before"] is None and summary["final_deficit"] is None
    _load(out / "manifest.json")
    assert summary["notes"] == ["no step taken: the starting deficit is nan, not finite"]


def test_verify_uniqueness_mixed_cost_of_the_readme(tmp_path):
    p = tmp_path / "c4.json"
    bk.netgraph.save(bk.make_layered([3, 6, 6, 2], seed=424242, bias_init="uniform"), p)
    out = tmp_path / "u"
    code = main(["verify-uniqueness", "--net", str(p), "--cost", "0.015*l1+1.0*l2",
                 "--n-schedules", "12", "--out", str(out)])
    assert code == 0
    report = _load(out / "report.json")
    assert report["max_pairwise"] < 1e-6 and report["max_vs_oracle"] < 1e-6
    # no worse than with the bisection lambda* (3.24e-08 and 3.45e-08) beyond 1e-12
    assert report["max_pairwise"] <= 3.241125712261095e-08 + 1e-12
    assert report["max_vs_oracle"] <= 3.452972241468899e-08 + 1e-12
    oracle = _load(out / "oracle.json")
    assert oracle["r_star"] == report["r_star"] and oracle["grad_norm"] <= 1e-10
    assert report["max_run_manifold_residual"] <= 1e-9


def test_balance_edge_to_unknown_unit_exits_one(tmp_path, capsys):
    doc = json.loads(bk.serialize(chain([2.0, 1.0])))
    doc["edges"].append({"from": 1, "to": 7, "weight": 1.0})
    p = tmp_path / "dangling.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = main(["balance", "--net", str(p), "--out", str(out)])
    assert code == 1
    assert "unknown unit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"units": [1]}', '{"edges": [{"from": "x", "to": 1, "weight": 1}]}',
                                  '{"unroll_steps": "a"}', "[]"])
def test_balance_malformed_document_exits_one(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code = main(["balance", "--net", str(p), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_every_manifest_records_the_python_and_numpy_versions(tmp_path, chain_net_path, layered_net_path):
    import platform

    import numpy as np

    samples = tmp_path / "line.csv"
    _write_samples(samples, lambda x: x, 2)
    commands = {
        "balance": ["--net", str(chain_net_path)],
        "verify-uniqueness": ["--net", str(layered_net_path), "--n-schedules", "2"],
        "train": ["--config", str(_train_config(tmp_path, epochs=1))],
        "approx": ["--samples", str(samples), "--epsilon", "0.5", "--grid", "11"],
    }
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    for command, args in commands.items():
        out = tmp_path / command
        assert main([command, *args, "--out", str(out)]) == 0
        manifests = [out / "manifest.json"]
        if command == "train":
            manifests += [out / "none" / f"seed_{s}" / "manifest.json" for s in (1, 2)]
        for path in manifests:
            manifest = _load(path)
            assert {k: manifest.get(k) for k in versions} == versions, (command, path)


def _extreme_net(tmp_path, scale=1.0, edge=None):
    """The 3-6-6-2 net (seed 0) with every weight scaled, plus an optional extra edge (src, dst, w)."""
    net = bk.make_layered([3, 6, 6, 2], seed=0)
    doc = json.loads(bk.serialize(net.replace_weights(net.weights() * scale)))
    if edge:
        doc["edges"].append(dict(zip(("from", "to", "weight"), edge)))
    p = tmp_path / "extreme.json"
    p.write_text(json.dumps(doc))
    return p


def _no_step_taken(out, note):
    summary = _load(out / "summary.json")
    assert summary["converged"] is False and summary["steps"] == 0
    assert summary["notes"] == [f"no step taken: {note}"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_balance_huge_weights_exit_without_a_traceback(tmp_path, capsys):
    # a cost of about 1e200 overflows the squared-cost tolerance of the engine
    p = _extreme_net(tmp_path, 1e100)
    out = tmp_path / "o"
    code = main(["balance", "--net", str(p), "--out", str(out)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    _no_step_taken(out, "the starting deficit is inf, not finite")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale, edge, squared", [
    (1e-120, None, "0.0"),  # the squared cost underflows to 0, and so does the deficit
    (1.0, (0, 15, 1e160), "inf"),  # an input->output edge: the cost is inf, the deficit finite
])
def test_balance_whose_squared_cost_is_out_of_range_exits_two(tmp_path, capsys, scale, edge, squared):
    p = _extreme_net(tmp_path, scale, edge)
    out = tmp_path / "o"
    code = main(["balance", "--net", str(p), "--schedule", "sequential", "--tol", "1e-12",
                 "--out", str(out)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    _no_step_taken(out, f"the squared starting cost {squared} is not a positive normal float")


def test_balance_deficit_leaves_out_a_dead_sided_unit(tmp_path, capsys):
    net = bk.make_layered([3, 4, 2], seed=3, bias_init="uniform")
    w = net.weights()
    w[net.structure.dst == 3] = 0.0  # every incoming weight of hidden unit 3
    p = tmp_path / "dead.json"
    bk.netgraph.save(net.replace_weights(w), p)
    out = tmp_path / "o"
    assert main(["balance", "--net", str(p), "--schedule", "sequential", "--tol", "1e-12",
                 "--out", str(out)]) == 0
    summary = _load(out / "summary.json")
    assert summary["notes"] == ["unit 3 skipped: all-zero incoming or outgoing side"]
    assert summary["converged"] is True
    assert summary["final_deficit"] <= 1e-12 * summary["r_before"] ** 2


def test_balance_tiny_weights_under_the_readme_cost_still_converge(tmp_path):
    # the l1 term keeps the squared cost in range at x1e-120
    p = _extreme_net(tmp_path, 1e-120)
    out = tmp_path / "o"
    code = main(["balance", "--net", str(p), "--cost", "0.015*l1+1.0*l2",
                 "--schedule", "sequential", "--tol", "1e-12", "--out", str(out)])
    assert code == 0
    summary = _load(out / "summary.json")
    assert summary["converged"] is True and summary["steps"] == 101
    assert summary["final_deficit"] <= 1e-12 * summary["r_before"] ** 2


@pytest.mark.parametrize("fraction", [2.0, 1.0, 0.99, 0.0, -0.5])
def test_train_refuses_a_test_fraction_that_leaves_a_part_empty(tmp_path, capsys, fraction):
    p = _train_config(tmp_path, epochs=1)
    cfg = json.loads(p.read_text())
    cfg["data"].update(n=40, test_fraction=fraction)
    p.write_text(json.dumps(cfg))
    out = tmp_path / "t"
    assert main(["train", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'data' field 'test_fraction'" in err
    assert not out.exists()


@pytest.mark.parametrize("malform, names", [
    (_set("train", "epochs", -1), "epochs must be >= 0"),
    (_set(None, "arms", ["none", "bogus"]), "unknown balance mode 'bogus'"),
    (_set("data", "kind", "csv"), "missing.csv"),
    (_set("net", "layers", [2, 4, 3]), "target width does not match the output layer"),
    (_set("net", "hidden_activation", {"kind": "bipu", "C": 1.0, "D": 0.0, "c": 0.5}),
     "bipu exponent 0.5 < 1 cannot be gradient-trained"),
    (_set("net", "bias_init", "unifrom"), "bias_init must be 'zeros' or 'uniform', got 'unifrom'"),
], ids=["negative epochs", "unknown second arm", "missing csv", "target width", "bipu below one",
        "misspelt bias_init"])
def test_train_refuses_before_writing_anything(tmp_path, capsys, malform, names):
    p = _train_config(tmp_path, epochs=1)
    cfg = malform(json.loads(p.read_text()))
    cfg["data"].update(n=40, train=str(tmp_path / "missing.csv"), test=str(tmp_path / "missing.csv"))
    p.write_text(json.dumps(cfg))
    out = tmp_path / "t"
    assert main(["train", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("malform, names", [
    (_set(None, "arm", ["none"]), "train config key 'arm'"),
    (_set("train", "bach_size", 4), "'train' key 'bach_size'"),
    (_set("data", "noize", 0.1), "'data' key 'noize'"),
    (_set("net", "bias_int", "uniform"), "'net' key 'bias_int'"),
    (lambda cfg: {**cfg, "arms": ["none"]}, "'balance' key 'kind'"),
    (_set("train", "balance", {"kind": "none", "tole": 1e-9}), "'balance' key 'tole'"),
    (_set("net", "hidden_activation", {"kind": "bilu", "a": 1.0, "b": 0.5, "c": 2.0}),
     "'net' field 'hidden_activation' key 'c'"),
    (_set("data", "train", "train.csv"), "'data' key 'train'"),
], ids=["top level", "train", "data", "net", "balance kind next to arms", "balance",
        "activation", "key of another data kind"])
def test_train_refuses_a_key_it_does_not_read(tmp_path, capsys, malform, names):
    p = _train_config(tmp_path, epochs=1)
    p.write_text(json.dumps(malform(json.loads(p.read_text()))))
    out = tmp_path / "t"
    assert main(["train", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{names} is not read" in err and err.count("\n") == 1
    assert not out.exists()


def test_approx_refuses_a_grid_below_one_before_writing(tmp_path, capsys):
    p = tmp_path / "line.csv"
    _write_samples(p, lambda x: x, 2)
    for grid in ("0", "-3"):
        out = tmp_path / f"a{grid}"
        assert main(["approx", "--samples", str(p), "--epsilon", "0.5", f"--grid={grid}",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--grid" in err
        assert not out.exists()
    out = tmp_path / "a1"
    assert main(["approx", "--samples", str(p), "--epsilon", "0.5", "--grid", "1",
                 "--out", str(out)]) == 0
    assert _load(out / "report.json")["grid_points"] == 1


@pytest.mark.parametrize("command, args", [
    ("balance", ["--schedule", "bogus"]),
    ("verify-uniqueness", ["--n-schedules", "1"]),
    ("train", []),
    ("approx", ["--grid", "0"]),
], ids=["balance", "verify-uniqueness", "train", "approx"])
def test_a_refused_command_leaves_no_output_directory(tmp_path, capsys, chain_net_path, command, args):
    samples = tmp_path / "line.csv"
    _write_samples(samples, lambda x: x, 2)
    cfg = _train_config(tmp_path, epochs=-1)
    inputs = {
        "balance": ["--net", str(chain_net_path)],
        "verify-uniqueness": ["--net", str(chain_net_path)],
        "train": ["--config", str(cfg)],
        "approx": ["--samples", str(samples), "--epsilon", "0.5"],
    }
    out = tmp_path / "o"
    assert main([command, *inputs[command], *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
