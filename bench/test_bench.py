"""Tests of the benchmark's own machinery.  Run with ``python3 -m pytest bench``."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Replicate  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = harness.tail([float(x) for x in range(100, 0, -1)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    value, pct, beyond = harness.tail(list(range(20)))
    assert (value, beyond) == (9, 10)
    assert pct == pytest.approx(50.0)


def test_tail_with_too_few_samples_states_how_many_lie_beyond():
    assert harness.tail(list(range(11))) == (0, pytest.approx(100 / 11), 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span("parent", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a
        _span("a.child", 2.0, 3.0, 1),  # nested one level deeper
        _span("c", 9.0, 12.0, 0),  # runs past its parent; clipped
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_spans_nest_and_self_times_add_up():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap(inner, "netgraph.inner")
    wrapped_outer = tracer.wrap(outer, "balancing.outer")
    with tracer.span("bench.op"):
        assert wrapped_outer() == 2
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.op", "balancing.outer", "netgraph.inner", "netgraph.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    values = layers.per_layer(tracer.spans, tracer.counts)
    assert values["netgraph.inner.calls"] == 2
    assert values["trace.unaccounted_s"] == pytest.approx(0.0, abs=1e-12)


@pytest.fixture
def mods():
    return harness.import_library(fresh=False)


def test_wrong_output_counts_as_failed_op(mods, tmp_path, monkeypatch):
    workload = Replicate(mods, 0, tmp_path)
    rounds = workload.rounds()
    phase = harness.Phase()
    harness.run_round(next(rounds), phase)
    assert (phase.attempted, phase.failed, phase.wrong) == (2, 0, 0)

    real = mods.balancing.run_balancing

    def off_by_a_little(net, schedule, cost):
        out, trace = real(net, schedule, cost)
        return out.replace_weights(out.weights() * (1.0 + 1e-4)), trace

    monkeypatch.setattr(mods.balancing, "run_balancing", off_by_a_little)
    harness.run_round(next(rounds), phase)
    assert (phase.attempted, phase.failed, phase.wrong) == (3, 1, 1)
    [reason] = phase.reasons
    assert reason.startswith("balance: wrong output")


def test_setups_spread_over_the_run_put_back_the_modules_the_ops_use(tmp_path, monkeypatch):
    built = []
    real = harness.import_library
    monkeypatch.setattr(harness, "import_library", lambda fresh: built.append(real(fresh)) or built[-1])
    setup_s, phase = harness.timed_run(Replicate, 0, tmp_path, 0.5)
    assert len(built) == harness.SETUP_REPEATS
    assert sys.modules["balancekit.balancing"] is built[0].balancing
    assert setup_s > 0 and phase.attempted > harness.MIN_ROUNDS and phase.failed == 0


def test_traced_run_restores_every_wrapped_attribute(mods, tmp_path):
    targets = layers.targets(mods)
    before = [(module, attr, getattr(module, attr)) for module, attr, *_ in targets]
    assert len({(id(module), attr) for module, attr, _ in before}) == len(before)
    values, plain, phase = harness.traced(Replicate, 0, tmp_path / "work", 0.05, tmp_path / "spans.jsonl")
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} left wrapped"
    assert plain.attempted and phase.attempted
    assert values["balancing.run_balancing.calls"] >= 1
    assert values["trace.unaccounted_s"] == pytest.approx(0.0, abs=1e-9)
    assert (tmp_path / "spans.jsonl").is_file()


def test_failed_install_restores_what_it_wrapped(mods):
    forward = mods.netgraph.forward
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([
            (mods.netgraph, "forward", "netgraph.forward", None, None),
            (mods.netgraph, "no_such_function", "netgraph.none", None, None),
        ])
    assert mods.netgraph.forward is forward


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
