"""The benchmark's four workloads: replicate, certify, train and cli.

Each workload builds its inputs from the workload seed when it is
constructed, and ``rounds()`` then yields rounds of ops without end.  An op
is a ``(label, callable)`` pair; the callable calls into the library and
checks what comes back.  It raises ``Unsuccessful`` when the program itself
reports failure (no convergence, divergence, a non-zero exit code) and
``WrongOutput`` when the program claims success with a wrong answer.

Every library call goes through a module attribute (``m.balancing.run_balancing``)
looked up at call time, so the traced run sees the benchmark's own calls.
Seed 0 reproduces the fixtures of the acceptance tests: the criterion-4 net
with schedule seeds 0, 1, 2, ..., the criterion-8 circles data and nets, and
the criterion-10 sine samples.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

PRESERVE_RTOL = 1e-9  # criterion 1: relative change of the network function
ORACLE_ATOL = 1e-6  # verify-uniqueness: engine weights against the convex oracle
CRITERION4_NET_SEED = 424242


class Unsuccessful(Exception):
    """The program reported that it did not do the job."""


class WrongOutput(Exception):
    """The program reported success, but its output fails the check."""


def _preserved(m, before, after, probes, what):
    """Raise WrongOutput unless ``after`` computes the same function as ``before``."""
    for x in probes:
        y0 = m.netgraph.forward(before, x)
        y1 = m.netgraph.forward(after, x)
        gap = float(np.max(np.abs(y1 - y0)) / (1e-12 + np.max(np.abs(y0))))
        if not gap <= PRESERVE_RTOL:
            raise WrongOutput(f"{what} changed the network function by {gap:.2e} (relative)")


def _criterion4_net(m):
    return m.netgraph.make_layered([3, 6, 6, 2], seed=CRITERION4_NET_SEED, bias_init="uniform")


class Replicate:
    """Stochastic L2 balancing of the criterion-4 net, one schedule seed per op.

    The first op solves the convex program once; every balancing run is
    checked against its optimum.
    """

    name = "replicate"

    def __init__(self, m, seed, workdir):
        self.m = m
        self.net = _criterion4_net(m)
        self.cost = m.regularizer.l2()
        self.r0 = m.regularizer.network_cost(self.net, self.cost)
        self.next_seed = seed * 1_000_000
        self.oracle = None

    def rounds(self):
        yield [("oracle", self.solve), ("balance", self.balance)]
        while True:
            yield [("balance", self.balance)]

    def solve(self):
        m = self.m
        sol = m.manifold.solve_convex(self.net, self.cost)
        balanced = m.manifold.apply_multipliers(self.net, sol.multipliers)
        residual = max((abs(r) for r in sol.constraint_residuals), default=0.0)
        if not residual <= 1e-9:
            raise WrongOutput(f"oracle violates a manifold constraint by {residual:.2e}")
        if not sol.r_star < self.r0:
            raise WrongOutput(f"oracle cost {sol.r_star!r} is not below the initial {self.r0!r}")
        self.oracle = balanced.weights()

    def balance(self):
        m = self.m
        seed = self.next_seed
        self.next_seed += 1
        sched = m.balancing.Schedule("stochastic", seed=seed, deficit_tol=1e-18, max_steps=300_000)
        out, trace = m.balancing.run_balancing(self.net, sched, self.cost)
        if not trace.converged:
            raise Unsuccessful(f"schedule seed {seed} did not converge")
        if self.oracle is None:
            raise WrongOutput("no oracle solution to check against")
        gap = float(np.max(np.abs(out.weights() - self.oracle)))
        if not gap < ORACLE_ATOL:
            raise WrongOutput(f"schedule seed {seed} ends {gap:.2e} from the oracle")


class Certify:
    """Full certification pass over a wide 32-64-64-10 net (6,922 edges), L2.

    One op: JSON round trip, layer-independent balancing to 1e-16,
    layer-tied balancing, the convex oracle and its multipliers, and a
    function-preservation check with ``netgraph.forward`` on a fixed probe
    batch before and after each rebalancing.
    """

    name = "certify"
    N_PROBES = 8

    def __init__(self, m, seed, workdir):
        self.m = m
        self.net = m.netgraph.make_layered([32, 64, 64, 10], seed=seed, bias_init="uniform")
        self.cost = m.regularizer.l2()
        self.probes = np.random.default_rng(seed).normal(size=(self.N_PROBES, 32))

    def rounds(self):
        while True:
            yield [("certify", self.certify)]

    def certify(self):
        m = self.m
        net = m.netgraph.deserialize(m.netgraph.serialize(self.net))
        if net != self.net:
            raise WrongOutput("JSON round trip changed the network")
        runs = {}
        for kind in ("layer_independent", "layer_tied"):
            sched = m.balancing.Schedule(kind, deficit_tol=1e-16, max_steps=100_000)
            runs[kind], trace = m.balancing.run_balancing(net, sched, self.cost)
            if not trace.converged:
                raise Unsuccessful(f"{kind} balancing did not converge")
        sol = m.manifold.solve_convex(net, self.cost)
        oracle = m.manifold.apply_multipliers(net, sol.multipliers)
        gap = float(np.max(np.abs(runs["layer_independent"].weights() - oracle.weights())))
        if not gap < ORACLE_ATOL:
            raise WrongOutput(f"layer-independent balancing ends {gap:.2e} from the oracle")
        r0 = m.regularizer.network_cost(net, self.cost)
        r1 = m.regularizer.network_cost(runs["layer_independent"], self.cost)
        if not r1 < r0:
            raise WrongOutput(f"balancing raised the cost from {r0!r} to {r1!r}")
        for what, after in (*runs.items(), ("oracle", oracle)):
            _preserved(m, net, after, self.probes, what)


class Train:
    """Circles training (criterion 8): one op is one epoch of one arm.

    The arms ``none``, ``full_at_start`` and ``partial_each_epoch`` take
    turns, each training a fresh 2-5-1 net for ``EPISODE`` epochs; an epoch is
    one ``sgd_train`` call with ``epochs=1`` that carries the weights on.
    """

    name = "train"
    ARMS = ("none", "full_at_start", "partial_each_epoch")
    EPISODE = 20
    N_NETS = 8

    def __init__(self, m, seed, workdir):
        self.m = m
        data = m.training.make_concentric_circles(500, 0.05, seed=100 + seed)
        self.test = m.training.Dataset(data.inputs[:150], data.targets[:150], "test")
        self.train = m.training.Dataset(data.inputs[150:], data.targets[150:], "train")
        self.net_seeds = [self.N_NETS * seed + k for k in range(self.N_NETS)]
        self.nets = [
            m.netgraph.make_layered(
                [2, 5, 1], hidden_activation=m.activations.RELU,
                output_activation=m.activations.LOGISTIC_UNIT, seed=s, bias_init="uniform",
            )
            for s in self.net_seeds
        ]

    def rounds(self):
        episode = 0
        while True:
            for arm in self.ARMS:
                k = episode % self.N_NETS
                state = {"net": self.nets[k], "seed": self.net_seeds[k]}
                for epoch in range(self.EPISODE):
                    yield [(arm, lambda arm=arm, epoch=epoch, state=state: self.epoch(arm, epoch, state))]
            episode += 1

    def epoch(self, arm, epoch, state):
        m = self.m
        kind = "none" if arm == "full_at_start" and epoch > 0 else arm
        cfg = m.training.TrainConfig(
            0.05, 8, 1, "binary_cross_entropy",
            balance=m.training.BalanceMode(kind, tol=1e-12), seed=1000 * state["seed"] + epoch,
        )
        try:
            net, rows = m.training.sgd_train(state["net"], self.train, self.test, cfg)
        except m.training.TrainingDiverged as exc:
            raise Unsuccessful(str(exc)) from None
        values = [
            v for r in rows
            for v in (r.train_loss, r.test_accuracy, r.network_deficit, r.frobenius_norm)
        ]
        if len(rows) != 2 or not all(math.isfinite(v) for v in values):
            raise WrongOutput(f"{arm} epoch {epoch}: metrics rows missing or not finite")
        state["net"] = net


class Cli:
    """One round of the CLI commands through ``cli.main(argv)``, on fixture files written at set-up.

    The op is one command.  The mixed-cost ``balance`` keeps the README's
    own cost string; at the seed commit it always stops at ``--max-steps``
    with exit code 2, which counts as one failed op per round.
    """

    name = "cli"
    N_SLICES = 64
    TRAIN_EPOCHS = 1
    N_SCHEDULES = 12  # stochastic runs of the criterion-4 net per round: replicate's op, twelve times
    MIXED_COST = "0.015*l1+1.0*l2"
    MIXED_MAX_STEPS = 300

    def __init__(self, m, seed, workdir):
        self.m = m
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        ng = m.netgraph
        # criterion 10's sine, shifted by a seed-derived phase
        phase = (seed * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0
        n = self.N_SLICES
        lines = ["x,y"] + [
            f"{k / n!r},{math.sin(2.0 * math.pi * (k / n + phase))!r}" for k in range(n + 1)
        ]
        self.samples = self.dir / "samples.csv"
        self.samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.rnet = ng.make_recurrent(
            2, 6, 1, output_activation=m.activations.LOGISTIC_UNIT, self_loops=True, seed=seed
        )
        self.rnet_path = self.dir / "recurrent.json"
        ng.save(self.rnet, self.rnet_path)
        self.c4 = _criterion4_net(m)
        self.c4_path = self.dir / "criterion4.json"
        ng.save(self.c4, self.c4_path)
        rng = np.random.default_rng(seed)
        self.rnet_probes = rng.normal(size=(4, 2))
        self.c4_probes = rng.normal(size=(4, 3))
        config = {
            "net": {"path": str(self.rnet_path)},
            "data": {"kind": "circles", "n": 500, "noise": 0.05, "data_seed": 100 + seed},
            "train": {
                "learning_rate": 0.05, "batch_size": 8, "epochs": self.TRAIN_EPOCHS,
                "loss": "binary_cross_entropy",
            },
            "arms": ["partial_each_epoch"],
            "seeds": [seed],
        }
        self.config = self.dir / "train.json"
        self.config.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        self.counts = None  # the traced run points this at its counters for cli.bytes_written

    def rounds(self):
        k = 0
        while True:
            s = str(self.seed * 1_000_000 + self.N_SCHEDULES * k)
            yield [
                ("balance", self._op(
                    ["balance", "--net", str(self.rnet_path), "--schedule", f"stochastic:{s}"],
                    self._balance_check(self.rnet, self.rnet_probes))),
                ("train", self._op(["train", "--config", str(self.config)], self._check_train)),
                ("verify-uniqueness", self._op(
                    ["verify-uniqueness", "--net", str(self.c4_path),
                     "--n-schedules", str(self.N_SCHEDULES), "--seed", s],
                    self._check_uniqueness)),
                ("balance-mixed", self._op(
                    ["balance", "--net", str(self.c4_path), "--cost", self.MIXED_COST,
                     "--schedule", f"stochastic:{s}", "--max-steps", str(self.MIXED_MAX_STEPS)],
                    self._balance_check(self.c4, self.c4_probes))),
                ("approx", self._op(
                    ["approx", "--samples", str(self.samples), "--epsilon", "0.1",
                     "--n", str(self.N_SLICES)],
                    self._check_approx)),
            ]
            k += 1

    def _op(self, argv, check):
        def run():
            out = self.dir / "out"
            shutil.rmtree(out, ignore_errors=True)
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.m.cli.main(argv + ["--out", str(out)])
            if self.counts is not None:
                self.counts["cli.bytes_written"] += sum(
                    p.stat().st_size for p in out.rglob("*") if p.is_file()
                )
            message = captured.getvalue().strip().replace("\n", " | ")
            check(code, out, message)

        return run

    @staticmethod
    def _exit_zero(code, message):
        if code != 0:
            raise Unsuccessful(f"exit code {code}: {message}")

    def _balance_check(self, net, probes):
        def check(code, out, message):
            summary_path = out / "summary.json"
            if code != 0 and summary_path.is_file():
                summary = json.loads(summary_path.read_text(encoding="utf-8"))
                message = f"converged={summary['converged']} after {summary['steps']} steps"
            self._exit_zero(code, message)
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            if not summary["converged"] or not summary["r_after"] <= summary["r_before"]:
                raise WrongOutput(f"balance exited 0 with summary {summary}")
            balanced = self.m.netgraph.load(out / "balanced.json")
            _preserved(self.m, net, balanced, probes, "balance")

        return check

    def _check_train(self, code, out, message):
        self._exit_zero(code, message)
        path = out / "partial_each_epoch" / f"seed_{self.seed}" / "metrics.csv"
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.TRAIN_EPOCHS + 1:
            raise WrongOutput(f"train wrote {len(rows)} metrics rows")
        if not all(math.isfinite(float(v)) for r in rows for v in r.values()):
            raise WrongOutput("train wrote a non-finite metric")
        if not (out / "aggregate.csv").is_file():
            raise WrongOutput("train wrote no aggregate.csv")

    def _check_uniqueness(self, code, out, message):
        self._exit_zero(code, message)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        worst = max(report["max_pairwise"], report["max_vs_oracle"])
        if report["n_schedules"] != self.N_SCHEDULES or not worst < ORACLE_ATOL:
            raise WrongOutput(f"verify-uniqueness report {report}")

    def _check_approx(self, code, out, message):
        self._exit_zero(code, message)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        # the constructed net is the piecewise-linear interpolant itself
        if report["grid_points"] != 10_000 or not report["max_interpolation_error"] <= 1e-9:
            raise WrongOutput(f"approx report {report}")
        net = self.m.netgraph.load(out / "network.json")
        if len(net.hidden_ids) != self.N_SLICES:
            raise WrongOutput(f"approx net has {len(net.hidden_ids)} hidden units")


WORKLOADS = {w.name: w for w in (Replicate, Certify, Train, Cli)}
