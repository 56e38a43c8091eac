"""The library functions the traced run wraps, and the per-layer metrics built from their spans.

A function is wrapped where it is defined and in every module that imports
it by name, because each caller looks the name up in its own module at call
time: ``training`` reaches ``balancing.run_balancing`` through the module,
while ``cli`` holds ``run_balancing`` as one of its own globals.  A span is
named after the defining layer, whichever module the call went through.
"""

from __future__ import annotations

import math

from tracing import summarize

LAYERS = ("netgraph", "activations", "regularizer", "balancing", "manifold", "training", "cli")


def _balance_run(counts, result, args, kwargs):
    trace = result[1]
    counts["balancing.steps"] += len(trace.steps)
    counts["balancing.converged"] += bool(trace.converged)


def _balance_pass(counts, result, args, kwargs):
    counts["balancing.steps"] += len(result[1].steps)


def _newton(counts, result, args, kwargs):
    counts["manifold.newton_iters"] += result.iterations


def _epochs(counts, rows, args, kwargs):
    train = args[1] if len(args) > 1 else kwargs["train"]
    config = args[3] if len(args) > 3 else kwargs["config"]
    epochs = max(len(rows) - 1, 0)  # row 0 is the state before the first epoch
    counts["training.epochs"] += epochs
    counts["training.minibatches"] += epochs * math.ceil(train.n_samples / config.batch_size)


def _trained(counts, result, args, kwargs):
    _epochs(counts, result[1], args, kwargs)


def _diverged(counts, exc, args, kwargs):
    rows = getattr(exc, "metrics", None)
    if rows is not None:  # TrainingDiverged carries the rows of the finished epochs
        counts["training.diverged"] += 1
        _epochs(counts, rows, args, kwargs)


def _json_out(counts, result, args, kwargs):
    counts["netgraph.json_bytes"] += len(result)


def _json_in(counts, result, args, kwargs):
    counts["netgraph.json_bytes"] += len(args[0] if args else kwargs["text"])


def _exit_code(counts, result, args, kwargs):
    counts["cli.exit_nonzero"] += result != 0


# (defining module, function, span name, on_return, on_error, modules importing it by name)
FUNCTIONS = (
    ("netgraph", "forward", "netgraph.forward", None, None, ("cli",)),
    ("netgraph", "serialize", "netgraph.serialize", _json_out, None, ()),
    ("netgraph", "deserialize", "netgraph.deserialize", _json_in, None, ()),
    ("netgraph", "make_layered", "netgraph.make_layered", None, None, ("cli",)),
    ("netgraph", "make_recurrent", "netgraph.make_recurrent", None, None, ()),
    ("netgraph", "frobenius_norm", "netgraph.frobenius_norm", None, None, ()),
    ("activations", "construct_universal_approximator",
     "activations.construct_universal_approximator", None, None, ("cli",)),
    ("regularizer", "network_cost", "regularizer.network_cost", None, None, ("balancing", "cli")),
    ("balancing", "run_balancing", "balancing.run_balancing", _balance_run, None, ("cli",)),
    ("balancing", "partial_balance_pass", "balancing.partial_balance_pass", _balance_pass, None, ()),
    ("balancing", "network_deficit", "balancing.network_deficit", None, None, ("cli",)),
    ("balancing", "trace_to_csv", "balancing.trace_to_csv", None, None, ("cli",)),
    ("manifold", "solve_convex", "manifold.solve_convex", _newton, None, ("cli",)),
    ("manifold", "apply_multipliers", "manifold.apply_multipliers", None, None, ("cli",)),
    ("training", "sgd_train", "training.sgd_train", _trained, _diverged, ("cli",)),
    ("training", "make_concentric_circles", "training.make_concentric_circles", None, None, ("cli",)),
    ("cli", "main", "cli.main", _exit_code, None, ()),
    ("cli", "cmd_balance", "cli.balance", None, None, ()),
    ("cli", "cmd_verify_uniqueness", "cli.verify-uniqueness", None, None, ()),
    ("cli", "cmd_train", "cli.train", None, None, ()),
    ("cli", "cmd_approx", "cli.approx", None, None, ()),
)


def targets(mods):
    """Install list for ``Tracer.install``; ``mods`` holds one module per layer name."""
    out = []
    for home, attr, name, on_return, on_error, importers in FUNCTIONS:
        for where in (home,) + importers:
            out.append((getattr(mods, where), attr, name, on_return, on_error))
    return out


# (metric name, unit, better) of the traced run, in report order.
PER_LAYER = (
    ("balancing.self_s", "s", "lower"),
    ("balancing.run_balancing.self_s", "s", "lower"),
    ("balancing.run_balancing.calls", "count", "higher"),
    ("balancing.steps", "count", "higher"),
    ("balancing.step_us", "us", "lower"),
    ("balancing.converged_ratio", "ratio", "higher"),
    ("balancing.partial_balance_pass.self_s", "s", "lower"),
    ("balancing.network_deficit.self_s", "s", "lower"),
    ("balancing.network_deficit.calls", "count", "higher"),
    ("balancing.trace_to_csv.self_s", "s", "lower"),
    ("manifold.self_s", "s", "lower"),
    ("manifold.solve_convex.self_s", "s", "lower"),
    ("manifold.solve_convex.calls", "count", "higher"),
    ("manifold.newton_iters", "count", "lower"),
    ("manifold.newton_iter_ms", "ms", "lower"),
    ("manifold.apply_multipliers.self_s", "s", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.sgd_train.self_s", "s", "lower"),
    ("training.sgd_train.calls", "count", "higher"),
    ("training.epochs", "count", "higher"),
    ("training.minibatches", "count", "higher"),
    ("training.minibatch_us", "us", "lower"),
    ("training.diverged", "count", "lower"),
    ("netgraph.self_s", "s", "lower"),
    ("netgraph.forward.self_s", "s", "lower"),
    ("netgraph.forward.calls", "count", "higher"),
    ("netgraph.forward.sample_us", "us", "lower"),
    ("netgraph.serialize.self_s", "s", "lower"),
    ("netgraph.deserialize.self_s", "s", "lower"),
    ("netgraph.json_bytes", "bytes", "lower"),
    ("netgraph.make_layered.self_s", "s", "lower"),
    ("regularizer.self_s", "s", "lower"),
    ("regularizer.network_cost.self_s", "s", "lower"),
    ("regularizer.network_cost.calls", "count", "higher"),
    ("activations.self_s", "s", "lower"),
    ("activations.construct_universal_approximator.self_s", "s", "lower"),
    ("activations.construct_universal_approximator.calls", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "higher"),
    ("cli.exit_nonzero", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.balance.busy_s", "s", "lower"),
    ("cli.verify-uniqueness.busy_s", "s", "lower"),
    ("cli.train.busy_s", "s", "lower"),
    ("cli.approx.busy_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.setup_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer(spans, counts):
    """Values of the span- and count-based ``PER_LAYER`` metrics.

    ``<layer>.self_s`` sums the self time of every span of that layer, so the
    seven layers plus ``bench.self_s`` (the benchmark's own work inside its
    op and set-up spans) add up to ``trace.op_s + trace.setup_s``; the
    remainder is reported as ``trace.unaccounted_s``.
    """
    by_name = summarize(spans)

    def get(name, field):
        return by_name.get(name, {}).get(field, 0)

    v = {}
    for layer in LAYERS + ("bench",):
        v[f"{layer}.self_s"] = sum(e["self_s"] for n, e in by_name.items() if n.split(".")[0] == layer)
    for name in by_name:
        v[f"{name}.self_s"] = get(name, "self_s")
        v[f"{name}.calls"] = get(name, "calls")
        v[f"{name}.busy_s"] = get(name, "busy_s")
    stepping = get("balancing.run_balancing", "self_s") + get("balancing.partial_balance_pass", "self_s")
    v["balancing.steps"] = counts["balancing.steps"]
    v["balancing.step_us"] = _per(stepping, counts["balancing.steps"], 1e6)
    v["balancing.converged_ratio"] = _per(counts["balancing.converged"], get("balancing.run_balancing", "calls"))
    v["manifold.newton_iters"] = counts["manifold.newton_iters"]
    v["manifold.newton_iter_ms"] = _per(get("manifold.solve_convex", "self_s"), counts["manifold.newton_iters"], 1e3)
    v["training.epochs"] = counts["training.epochs"]
    v["training.minibatches"] = counts["training.minibatches"]
    v["training.minibatch_us"] = _per(get("training.sgd_train", "self_s"), counts["training.minibatches"], 1e6)
    v["training.diverged"] = counts["training.diverged"]
    v["netgraph.forward.sample_us"] = _per(get("netgraph.forward", "self_s"), get("netgraph.forward", "calls"), 1e6)
    v["netgraph.json_bytes"] = counts["netgraph.json_bytes"]
    v["cli.exit_nonzero"] = counts["cli.exit_nonzero"]
    v["cli.bytes_written"] = counts["cli.bytes_written"]
    v["trace.op_s"] = get("bench.op", "busy_s")
    v["trace.setup_s"] = get("bench.setup", "busy_s")
    v["trace.unaccounted_s"] = v["trace.op_s"] + v["trace.setup_s"] - sum(
        v[f"{layer}.self_s"] for layer in LAYERS + ("bench",)
    )
    v["trace.spans"] = len(spans)
    v["trace.ops"] = get("bench.op", "calls")
    return v
