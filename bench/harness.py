"""Closed-loop timing of a workload, the end-to-end statistics, and the traced run.

The loop runs whole rounds of ops, one after another in one thread, until
the requested seconds have passed and at least ``MIN_ROUNDS`` rounds are
done; each op starts when the previous one ends.  Latency covers the library
calls and the output checks of one op.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import sys
import types
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import layers
from tracing import END, START, Tracer
from workloads import Unsuccessful, WrongOutput

SETUP_REPEATS = 11
TAIL_BEYOND = 10
# Every op kind of a round then has at least 2 * TAIL_BEYOND + 1 samples, so
# the tail percentile falls inside the slowest kind, no further out than its
# median, however slow the host is.
MIN_ROUNDS = 2 * TAIL_BEYOND + 1


@dataclass
class Phase:
    """Outcome of one timed loop."""

    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def attempted(self):
        return len(self.latencies)


def tail(latencies, beyond=TAIL_BEYOND):
    """Highest-percentile latency with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``; the percentile is the
    share of samples at or below the value.  With too few samples for the
    rule, the smallest sample is returned and ``samples_beyond`` says how
    many lie above it.
    """
    xs = sorted(latencies)
    if not xs:
        raise ValueError("no samples")
    k = max(len(xs) - beyond - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def run_ops(workload, seconds, between=None, times=0):
    """Run ``workload``'s rounds for at least ``seconds`` and ``MIN_ROUNDS``, stopping at a round boundary.

    ``between()``, when given, runs ``times`` times between rounds, at moments
    spread evenly over the ``seconds``; it is not part of any op.
    """
    phase = Phase()
    done = 0
    t0 = perf_counter()
    for k, ops in enumerate(workload.rounds()):
        elapsed = perf_counter() - t0
        while done < times and elapsed >= (done + 1) * seconds / (times + 1):
            between()
            done += 1
        if k >= MIN_ROUNDS and elapsed >= seconds:
            break
        run_round(ops, phase)
    return phase


def run_round(ops, phase, tracer=None):
    """Run one round of ops into ``phase``; with a tracer, each op is a ``bench.op`` span."""
    t0 = perf_counter()
    for label, op in ops:
        if tracer is None:
            start = perf_counter()
            outcome = attempt(op)
            phase.latencies.append(perf_counter() - start)
        else:
            tracer.op = phase.attempted
            with tracer.span("bench.op") as rec:
                outcome = attempt(op)
            phase.latencies.append(rec[END] - rec[START])
        if outcome is not None:
            wrong, reason = outcome
            phase.failed += 1
            phase.wrong += wrong
            phase.reasons[f"{label}: {reason}"] += 1
    phase.wall_s += perf_counter() - t0


def attempt(op):
    """Run one op; None on success, else ``(wrong_output, reason)``."""
    try:
        op()
    except WrongOutput as exc:
        return True, f"wrong output: {exc}"
    except Unsuccessful as exc:
        return False, str(exc)
    except Exception as exc:  # the loop must go on; the reason is reported
        return False, f"{type(exc).__name__}: {exc}"
    return None


def import_library(fresh):
    """Import the balancekit modules; ``fresh`` drops cached ones first."""
    if fresh:
        for name in [n for n in sys.modules if n == "balancekit" or n.startswith("balancekit.")]:
            del sys.modules[name]
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"balancekit.{layer}") for layer in layers.LAYERS}
    )


def timed_run(workload_cls, seed, workdir, seconds):
    """The untraced run: ``SETUP_REPEATS`` timed set-ups and ``seconds`` of ops.

    One set-up is a fresh import of balancekit (NumPy is already imported)
    plus building the workload's inputs.  The first set-up builds the
    workload the ops use; the others run between rounds, spread over the
    timed seconds, so that the median set-up time samples the same stretch
    of the host's speed as the ops do.  After each of them the modules the
    ops use are put back in ``sys.modules``, where the library's own
    function-level imports look.  Returns the median set-up time and the
    phase of the ops.
    """
    times = []

    def setup():
        gc.collect()
        start = perf_counter()
        workload = workload_cls(import_library(fresh=True), seed, workdir / f"setup{len(times)}")
        times.append(perf_counter() - start)
        return workload

    workload = setup()
    in_use = {n: m for n, m in sys.modules.items() if n == "balancekit" or n.startswith("balancekit.")}

    def later_setup():
        setup()
        sys.modules.update(in_use)

    phase = run_ops(workload, seconds, later_setup, SETUP_REPEATS - 1)
    return statistics.median(times), phase


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


END_TO_END_UNITS = {"ops_per_s": "1/s", "op_tail_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}


def end_to_end(setup_s, phase):
    """The end-to-end metric values (units in ``END_TO_END_UNITS``) and notes on them.

    The median op latency is a note, not a metric: where the host's speed
    switches between two levels, a run's median jumps from one level to the
    other as the share of slow time passes one half (see README.md).
    """
    ok = phase.attempted - phase.failed
    value, pct, beyond = tail(phase.latencies)
    metrics = {
        "ops_per_s": ok / phase.wall_s,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    notes = [
        f"op_p50_ms = {statistics.median(phase.latencies) * 1e3:.6g} ms (median op latency)",
        f"op_tail_ms is p{pct:.1f} of {phase.attempted} ops, {beyond} beyond it",
        f"failed_frac = {phase.failed}/{phase.attempted} = {phase.failed / phase.attempted:.4f}",
    ]
    return metrics, notes


def traced(workload_cls, seed, workdir, seconds, spans_path):
    """Traced run: returns (per-layer values, untraced phase, traced phase).

    The inputs are built inside a ``bench.setup`` span with every layer
    function wrapped.  Rounds then alternate between untraced and traced, so
    that both halves see the same machine and the difference in their rates
    is the tracing overhead.
    """
    mods = import_library(fresh=False)
    tracer = Tracer()
    plain, phase = Phase(), Phase()
    tracer.install(layers.targets(mods))
    try:
        with tracer.span("bench.setup"):
            workload = workload_cls(mods, seed, workdir)
    finally:
        tracer.restore()
    t0 = perf_counter()
    for k, ops in enumerate(workload.rounds()):
        if phase.attempted and perf_counter() - t0 >= seconds:
            break
        if k % 2 == 0:
            run_round(ops, plain)
            continue
        tracer.install(layers.targets(mods))
        workload.counts = tracer.counts
        try:
            run_round(ops, phase, tracer)
        finally:
            tracer.restore()
            workload.counts = None
    tracer.write(spans_path)
    values = layers.per_layer(tracer.spans, tracer.counts)
    values["trace.untraced_ops_per_s"] = plain.attempted / plain.wall_s
    values["trace.traced_ops_per_s"] = phase.attempted / phase.wall_s
    values["trace.overhead"] = values["trace.untraced_ops_per_s"] / values["trace.traced_ops_per_s"] - 1.0
    return values, plain, phase
