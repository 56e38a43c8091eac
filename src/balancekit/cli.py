"""Command-line driver: balancing runs, uniqueness checks, training, approximation.

Exit codes: 0 success, 1 usage, I/O or arithmetic failure (weights beyond the
float range, say), 2 non-convergence or divergence.
All randomness flows from one per-run seed recorded in the manifest; the
environment variable BALANCEKIT_SEED overrides it (for ``balance``, over the
N of ``stochastic:N`` too, which overrides ``--seed``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .activations import (
    ActivationSpec,
    IDENTITY,
    LOGISTIC_UNIT,
    RELU,
    TANH_UNIT,
    activation_from_json,
    construct_universal_approximator,
    leaky_relu,
    max_slice_jump,
)
from .balancing import Schedule, network_deficit, run_balancing, run_balancing_many, trace_to_csv
from .manifold import ConvexSolverError, apply_multipliers, fit_multipliers_many, solve_convex
from .netgraph import forward, load, make_layered, save
from .regularizer import network_cost, parse_cost
from .training import (
    BalanceMode,
    Dataset,
    TrainConfig,
    TrainingDiverged,
    check_trainable,
    load_csv,
    load_idx,
    make_concentric_circles,
    metrics_to_csv,
    sgd_train,
)

_ACTIVATIONS = {
    "relu": RELU,
    "identity": IDENTITY,
    "tanh": TANH_UNIT,
    "logistic": LOGISTIC_UNIT,
    "leaky_relu": leaky_relu(),
}


def _activation(spec, where: str) -> ActivationSpec:
    if isinstance(spec, str):
        try:
            return _ACTIVATIONS[spec]
        except KeyError:
            raise ValueError(f"unknown activation name {spec!r}") from None
    spec = _Spec(spec, where)
    activation = activation_from_json(spec)
    spec.refuse_unread()
    return activation


def _env_seed(default):
    """The integer in BALANCEKIT_SEED when it is set and not empty, else ``default``."""
    env = os.environ.get("BALANCEKIT_SEED")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"BALANCEKIT_SEED must be an integer, got {env!r}") from None


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, obj):
    """Write ``obj`` as strict JSON: a non-finite float reads null."""
    # json spells them NaN/Infinity; reading that back with those constants as
    # None keeps every other value (floats print as their exact repr)
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strict, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


_VERSIONS = {"numpy": np.__version__, "python": platform.python_version()}


def _manifest(out: Path, command: str, params: dict):
    _write_json(out / "manifest.json", {
        "command": command, "params": params, "version": __version__, **_VERSIONS,
    })


def _parse_schedule(text: str, seed: int, tol: float, max_steps: int) -> Schedule:
    """The schedule ``text`` names; its seed is BALANCEKIT_SEED, else the N of
    ``stochastic:N``, else ``seed``."""
    # the layer cycle and a partial pass's order are the default sequential cycle
    kinds = {"stochastic": "stochastic", "sequential": "sequential", "layer": "sequential",
             "layer-tied": "layer_tied", "partial": "sequential"}
    kind, colon, given = text.partition(":")
    if kind not in kinds or (colon and kind != "stochastic"):
        raise ValueError(f"unknown schedule {text!r}")
    if colon:
        try:
            seed = int(given)
        except ValueError:
            raise ValueError(f"schedule {text!r}: the seed after 'stochastic:' "
                             "must be an integer") from None
    return Schedule(kinds[kind], seed=_env_seed(seed), deficit_tol=tol, max_steps=max_steps)


# -- balance -----------------------------------------------------------------


def cmd_balance(args) -> int:
    net = load(args.net)
    cost = parse_cost(args.cost)
    schedule = _parse_schedule(args.schedule, args.seed, args.tol, args.max_steps)
    r_before = network_cost(net, cost)
    final, trace = run_balancing(net, schedule, cost)  # checks the structure first
    out = _out_dir(args.out)
    save(final, out / "balanced.json")
    (out / "trace.csv").write_text(trace_to_csv(trace), encoding="utf-8")
    summary = {
        "r_before": r_before,
        "r_after": network_cost(final, cost),
        "steps": len(trace.units),
        "final_deficit": network_deficit(final, cost),
        "converged": trace.converged,
        "notes": trace.notes,
    }
    _write_json(out / "summary.json", summary)
    _manifest(out, "balance", {
        "net": str(args.net), "cost": args.cost, "schedule": args.schedule,
        "tol": args.tol, "max_steps": args.max_steps, "seed": schedule.seed,
    })
    return 0 if trace.converged else 2


# -- verify-uniqueness -------------------------------------------------------


def cmd_verify_uniqueness(args) -> int:
    if args.n_schedules < 2:
        raise ValueError("need at least 2 schedules to compare")
    net = load(args.net)
    cost = parse_cost(args.cost)
    seed = _env_seed(args.seed)
    schedules = [
        Schedule("stochastic", seed=seed + k, deficit_tol=args.tol, max_steps=args.max_steps)
        for k in range(args.n_schedules)
    ]
    runs = run_balancing_many(net, schedules, cost)  # checks the structure first
    out = _out_dir(args.out)
    for name in ("report.json", "oracle.json"):  # each exists only if this run wrote it
        (out / name).unlink(missing_ok=True)
    _manifest(out, "verify-uniqueness", {
        "net": str(args.net), "cost": args.cost, "n_schedules": args.n_schedules,
        "tol": args.tol, "max_steps": args.max_steps, "seed": seed,
    })
    r_initial = network_cost(net, cost)
    rows = ["seed,steps,r_final,converged"]
    for k, (_, trace) in enumerate(runs):
        r_final = trace.r_series[-1] if trace.r_series else r_initial
        rows.append(f"{seed + k},{len(trace.units)},{r_final!r},{int(trace.converged)}")
    (out / "runs.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    for k, (_, trace) in enumerate(runs):
        if not trace.converged:
            print(f"schedule with seed {seed + k} did not converge", file=sys.stderr)
            return 2
    stack = np.stack([final.weights() for final, _ in runs])
    spread = stack.max(axis=0) - stack.min(axis=0)
    max_pairwise = float(spread.max())
    # how far any run strayed from a pure rescaling of the input
    fits = fit_multipliers_many([final for final, _ in runs], net)
    max_run_residual = float(max(np.max(np.abs(residual), initial=0.0) for _, residual in fits))

    try:
        solution = solve_convex(net, cost)
    except ConvexSolverError as exc:
        print(f"convex oracle failed: {exc}", file=sys.stderr)
        return 2
    oracle = apply_multipliers(net, solution.multipliers).weights()
    max_vs_oracle = float(np.max(np.abs(stack - oracle[None, :])))
    # the same comparisons relative to each weight's size: differences of log|w|, nonzero edges
    live = net.w != 0.0
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(stack[:, live]))
        log_oracle = np.log(np.abs(oracle[live]))
    max_vs_oracle_rel = float(np.max(np.abs(logs - log_oracle), initial=0.0))
    max_pairwise_rel = float(np.max(logs.max(axis=0) - logs.min(axis=0), initial=0.0))
    _write_json(out / "oracle.json", {
        "r_star": solution.r_star,
        "lambda_per_unit": {str(u): v for u, v in sorted(solution.multipliers.lambda_per_unit.items())},
        "grad_norm": solution.grad_norm,
        "iterations": solution.iterations,
        "constraint_residuals": solution.constraint_residuals,
    })
    report = {
        "n_schedules": args.n_schedules,
        "r_initial": r_initial,
        "max_pairwise": max_pairwise,
        "pairwise_frobenius_bound": float(np.linalg.norm(spread)),
        "max_vs_oracle": max_vs_oracle,
        "max_pairwise_rel": max_pairwise_rel,
        "max_vs_oracle_rel": max_vs_oracle_rel,
        "r_star": solution.r_star,
        "oracle_grad_norm": solution.grad_norm,
        "oracle_iterations": solution.iterations,
        "max_constraint_residual": max((abs(r) for r in solution.constraint_residuals), default=0.0),
        "max_run_manifold_residual": max_run_residual,
    }
    _write_json(out / "report.json", report)
    ok = max_pairwise < 1e-6 and max_vs_oracle < 1e-6
    print(f"max pairwise discrepancy: {max_pairwise:.3e}")
    print(f"max run-vs-oracle discrepancy: {max_vs_oracle:.3e}")
    return 0 if ok else 2


# -- train -------------------------------------------------------------------


_NEEDED = object()  # the default of a key that must be given


def _typed(value, kind, what):
    """``value`` if it is a ``kind``, else a ValueError naming ``what`` and the type it got.

    A JSON bool is not an int or a float, and an int is a float.
    """
    if not isinstance(value, (int, float) if kind is float else kind) or (
        isinstance(value, bool) and kind in (int, float)
    ):
        raise ValueError(f"{what} must be {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


class _Spec(dict):
    """A JSON object of a train config: a missing key is a ValueError that names it.

    It records the keys its readers read, so that a key no reader took
    (misspelt, or of no effect where it stands) can be refused.
    """

    def __init__(self, value, where: str):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
        super().__init__(value)
        self.where = where
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __missing__(self, key):
        raise ValueError(f"{self.where} needs {key!r}")

    def refuse_unread(self):
        """Raise a ValueError naming the first key that no reader read."""
        unread = [key for key in self if key not in self.read]
        if unread:
            raise ValueError(f"{self.where} key {unread[0]!r} is not read: "
                             "misspelt, or of no effect here")

    def get(self, key, type, default=_NEEDED):
        """The value of ``key``, checked to be a ``type`` (see ``_typed``); ``[t]`` is a list of t.

        A missing key reads as ``default``, and a key without one must be
        given; a null reads as None where that is the default.
        """
        if key not in self and default is not _NEEDED:
            return default
        value, what = self[key], f"{self.where} field {key!r}"
        if value is None and default is None:
            return None
        if isinstance(type, list):
            return [_typed(v, type[0], f"{what} entry") for v in _typed(value, list, what)]
        return _typed(value, type, what)


def _build_net(spec: dict, seed: int):
    if "path" in spec:
        return load(spec.get("path", str))
    if "layers" not in spec:
        raise ValueError("net config needs either 'path' or 'layers'")
    return make_layered(
        spec.get("layers", [int]),
        hidden_activation=_activation(spec.get("hidden_activation", object, "relu"),
                                      "'net' field 'hidden_activation'"),
        output_activation=_activation(spec.get("output_activation", object, "identity"),
                                      "'net' field 'output_activation'"),
        bias=spec.get("bias", bool, True),
        seed=spec.get("init_seed", int, seed),
        bias_init=spec.get("bias_init", str, "zeros"),
    )


def _build_data(spec: dict):
    kind = spec.get("kind", str, None)
    if kind == "circles":
        data = make_concentric_circles(
            spec.get("n", int, 500), spec.get("noise", float, 0.1), spec.get("data_seed", int, 0)
        )
        frac = spec.get("test_fraction", float, 0.3)
        n_test = round(data.n_samples * frac) if math.isfinite(frac) else 0
        if not 1 <= n_test < data.n_samples:
            raise ValueError(f"{spec.where} field 'test_fraction' must leave one of the "
                             f"{data.n_samples} rows to test on and one to train on, got {frac!r}")
        test = Dataset(data.inputs[:n_test], data.targets[:n_test], name="circles-test")
        train = Dataset(data.inputs[n_test:], data.targets[n_test:], name="circles-train")
        return train, test
    if kind == "csv":
        label = spec.get("label_column", str, "label")
        return load_csv(spec.get("train", str), label), load_csv(spec.get("test", str), label)
    if kind == "idx":
        return (
            load_idx(spec.get("train_images", str), spec.get("train_labels", str), name="train"),
            load_idx(spec.get("test_images", str), spec.get("test_labels", str), name="test"),
        )
    raise ValueError(f"unknown dataset kind {kind!r}")


def _train_config(spec: dict, bal: dict, balance_kind: str, seed: int) -> TrainConfig:
    bal_cost = bal.get("cost", str, None)
    mode = BalanceMode(
        kind=balance_kind,
        tol=bal.get("tol", float, 1e-8),
        cost=parse_cost(bal_cost) if bal_cost else None,
    )
    cost = spec.get("cost", str, None)
    return TrainConfig(
        learning_rate=spec.get("learning_rate", float),
        batch_size=spec.get("batch_size", int, 16),
        epochs=spec.get("epochs", int, 10),
        loss=spec.get("loss", str),
        cost=parse_cost(cost) if cost else None,
        balance=mode,
        seed=seed,
    )


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = _Spec(json.load(fh), "train config")
    train_spec = _Spec(config["train"], "'train'")
    seeds = config.get("seeds", [int], [0])
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    env_seed = _env_seed(None)
    if env_seed is not None:
        seeds = [env_seed]
    if not seeds:
        raise ValueError(f"'seeds' must be a non-empty list, got {seeds!r}")
    bal_spec = _Spec(train_spec.get("balance", dict, {}), "'balance'")
    arms = config.get("arms", [str], None) or [bal_spec.get("kind", str, "none")]
    # the data, every run's net and config are read and checked before --out is created,
    # with every refusal sgd_train makes before its first epoch
    data_spec, net_spec = _Spec(config["data"], "'data'"), _Spec(config["net"], "'net'")
    train_data, test_data = _build_data(data_spec)
    jobs = []
    for arm in arms:
        for seed in seeds:
            net, cfg = _build_net(net_spec, seed), _train_config(train_spec, bal_spec, arm, seed)
            check_trainable(net, train_data, cfg.loss)
            jobs.append((arm, seed, net, cfg))
    for spec in (config, train_spec, bal_spec, data_spec, net_spec):
        spec.refuse_unread()
    out = _out_dir(args.out)
    _manifest(out, "train", {"config": str(args.config), "seeds": seeds, "arms": arms})

    diverged = False
    per_arm_rows = {}
    for arm, seed, net, cfg in jobs:
        run_dir = _out_dir(out / arm / f"seed_{seed}")
        note = ""
        try:
            final, rows = sgd_train(net, train_data, test_data, cfg)
        except TrainingDiverged as exc:
            rows = exc.metrics
            final = exc.network
            note = str(exc)
            diverged = True
        (run_dir / "metrics.csv").write_text(metrics_to_csv(rows), encoding="utf-8")
        save(final, run_dir / "network.json")
        _write_json(run_dir / "manifest.json", {
            "arm": arm, "seed": seed, "epochs_completed": rows[-1].epoch if rows else 0,
            "note": note, **_VERSIONS,
        })
        per_arm_rows.setdefault(arm, []).append(rows)

    lines = [
        "arm,epoch,mean_train_loss,std_train_loss,mean_test_accuracy,std_test_accuracy,"
        "mean_deficit,std_deficit,mean_frobenius_norm,std_frobenius_norm"
    ]
    for arm in arms:
        runs = per_arm_rows[arm]
        depth = min(len(r) for r in runs)
        for k in range(depth):
            cols = []
            for attr in ("train_loss", "test_accuracy", "network_deficit", "frobenius_norm"):
                vals = np.array([getattr(r[k], attr) for r in runs])
                cols += [repr(float(vals.mean())), repr(float(vals.std()))]
            lines.append(f"{arm},{runs[0][k].epoch}," + ",".join(cols))
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 2 if diverged else 0


# -- approx ------------------------------------------------------------------


def _read_samples(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if lineno == 1 and any(c.strip().lower() in ("x", "y") for c in cells):
                continue
            if len(cells) < 2:
                raise ValueError(f"{path}: line {lineno}: need two columns x,y")
            try:
                rows.append((float(cells[0]), float(cells[1])))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric sample") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two samples")
    return rows


def cmd_approx(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    samples = _read_samples(args.samples)
    if args.n is not None and len(samples) != args.n + 1:
        raise ValueError(f"expected N+1={args.n + 1} samples, file has {len(samples)}")
    net = construct_universal_approximator(samples, args.epsilon)
    out = _out_dir(args.out)
    save(net, out / "network.json")

    n_slices = len(samples) - 1
    xs = np.linspace(0.0, 1.0, args.grid)
    ys = forward(net, xs[:, None])[:, 0]
    knots_x = np.array([x for x, _ in samples])
    knots_y = np.array([y for _, y in samples])
    lin = np.interp(xs, knots_x, knots_y)
    report = {
        "n": n_slices,
        "epsilon": args.epsilon,
        "max_slice_jump": max_slice_jump(samples),
        "max_interpolation_error": float(np.max(np.abs(ys - lin))),
        "grid_points": int(args.grid),
    }
    _write_json(out / "report.json", report)
    _manifest(out, "approx", {
        "samples": str(args.samples), "epsilon": args.epsilon,
        "n": n_slices, "grid": int(args.grid),
    })
    print(f"max grid error vs interpolant: {report['max_interpolation_error']:.3e}")
    return 0


# -- argument plumbing -------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="balancekit")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("balance", help="balance a network under a weight cost")
    b.add_argument("--net", required=True)
    b.add_argument("--cost", default="l2")
    b.add_argument("--schedule", default="stochastic")
    b.add_argument("--tol", type=float, default=1e-8)
    b.add_argument("--max-steps", type=int, default=100_000)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func="cmd_balance")

    v = sub.add_parser("verify-uniqueness", help="many stochastic runs vs the convex oracle")
    v.add_argument("--net", required=True)
    v.add_argument("--cost", default="l2")
    v.add_argument("--n-schedules", type=int, default=10)
    v.add_argument("--tol", type=float, default=1e-16)
    v.add_argument("--max-steps", type=int, default=200_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", required=True)
    v.set_defaults(func="cmd_verify_uniqueness")

    t = sub.add_parser("train", help="train per a JSON config, with seed sweeps")
    t.add_argument("--config", required=True)
    t.add_argument("--seeds", default="")
    t.add_argument("--out", required=True)
    t.set_defaults(func="cmd_train")

    a = sub.add_parser("approx", help="build the piecewise-linear interpolating network")
    a.add_argument("--samples", required=True)
    a.add_argument("--epsilon", type=float, required=True)
    a.add_argument("--n", type=int, default=None)
    a.add_argument("--grid", type=int, default=10_000)
    a.add_argument("--out", required=True)
    a.set_defaults(func="cmd_approx")
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # by name at call time: the parser is built once, and outlives a replaced command function
        return globals()[args.func](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
