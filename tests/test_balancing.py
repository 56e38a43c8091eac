import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit import balancing
from balancekit.balancing import trace_to_csv
from balancekit.regularizer import CostSpec, weight_cost
from conftest import (
    chain,
    forward_gap,
    golden_lambda,
    random_layered,
    recurrent_bipu,
    star_neuron,
)


def _unit_objective(net, i, cost, c=1.0):
    """Independent 1-D objective in the scaling factor for golden search."""
    w_in = [e.weight for e in net._in[i] if e.src != i]
    w_out = [e.weight for e in net._out[i] if e.dst != i]

    def obj(lam):
        return sum(weight_cost(cost, lam * w) for w in w_in) + sum(
            weight_cost(cost, w / lam**c) for w in w_out
        )

    return obj


# -- scaling -----------------------------------------------------------------


def test_scale_identity():
    net = chain([2.0, 3.0])
    assert bk.scale_neuron(net, 1, 1.0) == net


def test_scale_arithmetic():
    net, hid = star_neuron([2.0], [4.0])
    scaled = bk.scale_neuron(net, hid, 2.0)
    assert [e.weight for e in scaled.edges] == [4.0, 2.0]


def test_scale_bipu_exponent(rng):
    net, hid = star_neuron([1.0], [8.0], activation=bk.bipu(1.0, 0.5, 2.0))
    scaled = bk.scale_neuron(net, hid, 2.0)
    assert [e.weight for e in scaled.edges] == [2.0, 2.0]
    assert forward_gap(net, scaled, rng, n_probes=50) <= 1e-9


def test_scale_rejections():
    net = chain([1.0, 1.0])
    with pytest.raises(ValueError):
        bk.scale_neuron(net, 1, -2.0)
    with pytest.raises(ValueError):
        bk.scale_neuron(net, 0, 2.0)
    tanh_net = chain([1.0, 1.0], hidden_activation=bk.TANH_UNIT)
    with pytest.raises(ValueError):
        bk.scale_neuron(tanh_net, 1, 2.0)
    assert bk.scale_neuron(tanh_net, 1, 2.0, allow_nonhomogeneous=True).edges[0].weight == 2.0


def test_scaling_commutes(rng):
    net = random_layered(rng, n_layers=4)
    h1, h2 = net.hidden_ids[0], net.hidden_ids[-1]
    a = bk.scale_neuron(bk.scale_neuron(net, h1, 3.0), h2, 0.2)
    b = bk.scale_neuron(bk.scale_neuron(net, h2, 0.2), h1, 3.0)
    assert np.array_equal(a.weights(), b.weights())


def test_scaling_composes_multiplicatively(rng):
    net = random_layered(rng)
    h = net.hidden_ids[0]
    a = bk.scale_neuron(bk.scale_neuron(net, h, 2.5), h, 1.7)
    b = bk.scale_neuron(net, h, 2.5 * 1.7)
    assert np.max(np.abs(a.weights() - b.weights())) <= 1e-12 * np.max(np.abs(b.weights()))


def test_scaling_preserves_signs_and_zeros(rng):
    net = random_layered(rng)
    w = net.weights()
    w[3] = 0.0
    net = net.replace_weights(w)
    out = net
    for h in net.hidden_ids:
        out = bk.scale_neuron(out, h, float(rng.uniform(0.01, 100.0)))
    assert np.array_equal(np.sign(out.weights()), np.sign(w))
    assert np.array_equal(out.weights() == 0.0, w == 0.0)


# -- optimal scaling factor ---------------------------------------------------


def test_lambda_is_one_when_balanced():
    net, hid = star_neuron([1.0], [1.0])
    assert bk.optimal_lambda(net, hid, bk.l2()) == 1.0


def test_lambda_matches_golden_search_l2():
    net, hid = star_neuron([2.0], [1.0, 1.0])
    lam = bk.optimal_lambda(net, hid, bk.l2())
    assert abs(lam - 0.8408964152537145) <= 1e-12
    lam_search = golden_lambda(_unit_objective(net, hid, bk.l2()))
    assert abs(lam - lam_search) <= 1e-9


def test_lambda_bipu_closed_form():
    net, hid = star_neuron([1.0], [1.0], activation=bk.bipu(1.0, 0.0, 2.0))
    lam = bk.optimal_lambda(net, hid, bk.l2())
    assert abs(lam - 2.0 ** (1.0 / 6.0)) <= 1e-12
    lam_search = golden_lambda(_unit_objective(net, hid, bk.l2(), c=2.0))
    assert abs(lam - lam_search) <= 1e-7 * lam


def test_lambda_ignores_uniform_coefficient():
    net, hid = star_neuron([2.0, -0.3], [1.0, 0.4, 0.2])
    for p in (0.5, 1.0, 2.0, 3.0):
        assert bk.optimal_lambda(net, hid, bk.lp(p)) == bk.optimal_lambda(net, hid, bk.lp(p, 7.0))


def test_lambda_mixed_cost_by_bisection():
    net, hid = star_neuron([2.0, 0.5], [1.0, -1.5])
    cost = CostSpec(((1.0, 0.4), (2.0, 1.0)))
    lam = bk.optimal_lambda(net, hid, cost)
    lam_search = golden_lambda(_unit_objective(net, hid, cost))
    assert abs(lam - lam_search) <= 1e-7 * lam


def test_lambda_degenerate_side():
    net, hid = star_neuron([0.0], [1.0])
    with pytest.raises(bk.DegenerateUnitError):
        bk.optimal_lambda(net, hid, bk.l2())


# -- balancing a neuron -------------------------------------------------------


def test_balance_neuron_example_l2():
    net, hid = star_neuron([2.0], [1.0, 1.0])
    out, rep = bk.balance_neuron(net, hid, bk.l2())
    w = out.weights()
    assert abs(w[0] - 1.6817928305074290) <= 1e-9
    assert abs(w[1] - 1.1892071150027210) <= 1e-9
    assert abs(w[2] - 1.1892071150027210) <= 1e-9
    assert abs(w[0] ** 2 - (w[1] ** 2 + w[2] ** 2)) <= 1e-9
    assert abs(w[0] ** 2 - 2.8284271247461903) <= 1e-6
    assert abs(rep.delta_r - 0.34314575050761975) <= 1e-10
    assert abs(rep.delta_r - (rep.r_before - rep.r_after)) <= 1e-10


def test_balance_neuron_example_l1():
    net, hid = star_neuron([3.0], [1.0, 1.0])
    out, rep = bk.balance_neuron(net, hid, bk.l1())
    assert abs(rep.lambda_star - math.sqrt(2.0 / 3.0)) <= 1e-12
    w = out.weights()
    assert abs(abs(w[0]) - math.sqrt(6.0)) <= 1e-9
    assert abs(abs(w[0]) - (abs(w[1]) + abs(w[2]))) <= 1e-9


def test_balance_drop_matches_closed_form(rng):
    # reported decrease equals (sqrt(in) - sqrt(out))^2 for one power term
    for p in (0.5, 1.0, 2.0, 3.0):
        cost = bk.lp(p)
        net, hid = star_neuron(rng.uniform(0.2, 2, 3), rng.uniform(0.2, 2, 2))
        a = sum(weight_cost(cost, e.weight) for e in net._in[hid])
        b = sum(weight_cost(cost, e.weight) for e in net._out[hid])
        _, rep = bk.balance_neuron(net, hid, cost)
        assert abs(rep.delta_r - (math.sqrt(a) - math.sqrt(b)) ** 2) <= 1e-10


def test_balance_is_idempotent(rng):
    net = random_layered(rng)
    h = net.hidden_ids[1]
    once, _ = bk.balance_neuron(net, h, bk.lp(1.5))
    assert abs(bk.optimal_lambda(once, h, bk.lp(1.5)) - 1.0) <= 1e-12


def test_bipu_balance_equation(rng):
    net, hid = star_neuron([1.3, -0.4], [0.9, 2.0], activation=bk.bipu(1.0, 0.2, 3.0))
    out, _ = bk.balance_neuron(net, hid, bk.l2())
    a = sum(e.weight**2 for e in out._in[hid])
    b = sum(e.weight**2 for e in out._out[hid])
    assert abs(a - 3.0 * b) <= 1e-9 * max(a, 1.0)
    assert forward_gap(net, out, rng, n_probes=20) <= 1e-9


# -- deficits -----------------------------------------------------------------


def test_neuron_deficit_values():
    net, hid = star_neuron([2.0], [1.0, 1.0])
    assert bk.neuron_deficit(net, hid, bk.l2()) == 4.0
    balanced, _ = bk.balance_neuron(net, hid, bk.l2())
    assert bk.neuron_deficit(balanced, hid, bk.l2()) <= 1e-12


def test_deficit_zero_after_balancing_many(rng):
    for _ in range(10):
        net = random_layered(rng)
        for h in net.hidden_ids:
            out, _ = bk.balance_neuron(net, h, bk.l2())
            assert bk.neuron_deficit(out, h, bk.l2()) <= 1e-12 * max(
                1.0, bk.network_cost(net, bk.l2()) ** 2
            )


def test_network_deficit_sums_units(rng):
    net = random_layered(rng)
    total = sum(bk.neuron_deficit(net, h, bk.l2()) for h in net.hidden_ids)
    assert abs(bk.network_deficit(net, bk.l2()) - total) <= 1e-12 * max(1.0, total)


def test_network_deficit_skips_sigmoidal_units():
    net = chain([2.0, 1.0], hidden_activation=bk.TANH_UNIT)
    assert bk.network_deficit(net, bk.l2()) == 0.0
    assert bk.neuron_deficit(net, 1, bk.l2()) == 9.0


# -- tied subsets -------------------------------------------------------------


def test_tied_single_unit_reduces_to_balance():
    net, hid = star_neuron([2.0], [1.0, 1.0])
    a, rep_a = bk.balance_subset_tied(net, [hid], bk.l2())
    b, rep_b = bk.balance_neuron(net, hid, bk.l2())
    assert np.array_equal(a.weights(), b.weights())
    assert rep_a.lambda_star == rep_b.lambda_star


def _two_unit_layer(in_w, out_w):
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [
        bk.Edge(0, 1, in_w[0]),
        bk.Edge(0, 2, in_w[1]),
        bk.Edge(1, 3, out_w[0]),
        bk.Edge(2, 3, out_w[1]),
    ]
    return bk.Network(units, edges)


def test_tied_layer_aggregate_balance():
    net = _two_unit_layer([2.0, 2.0], [1.0, 1.0])  # aggregate in 8, out 2
    out, rep = bk.balance_subset_tied(net, [1, 2], bk.l2())
    assert abs(rep.lambda_star - (2.0 / 8.0) ** 0.25) <= 1e-12
    w = out.weights()
    assert abs((w[0] ** 2 + w[1] ** 2) - 4.0) <= 1e-9
    assert abs((w[2] ** 2 + w[3] ** 2) - 4.0) <= 1e-9


def test_tied_opposed_units_stay_unbalanced():
    net = _two_unit_layer([2.0, 1.0], [1.0, 2.0])  # aggregates equal, units not
    out, rep = bk.balance_subset_tied(net, [1, 2], bk.l2())
    assert rep.lambda_star == 1.0
    assert np.array_equal(out.weights(), net.weights())
    assert bk.neuron_deficit(out, 1, bk.l2()) > 1.0


def test_tied_rejects_internal_edges_and_mixed_exponents():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [bk.Edge(0, 1, 1.0), bk.Edge(1, 2, 1.0), bk.Edge(2, 3, 1.0)]
    with pytest.raises(ValueError, match="connects"):
        bk.balance_subset_tied(bk.Network(units, edges), [1, 2], bk.l2())

    mixed = _two_unit_layer([1.0, 1.0], [1.0, 1.0])
    units = list(mixed.units)
    units[2] = bk.Unit(2, bk.HIDDEN, bk.bipu(1, 0, 2))
    mixed = bk.Network(units, mixed.edges)
    with pytest.raises(ValueError, match="exponent"):
        bk.balance_subset_tied(mixed, [1, 2], bk.l2())


# -- passes and runs ----------------------------------------------------------


def test_partial_pass_on_balanced_net_is_identity(rng):
    net = random_layered(rng)
    sched = bk.Schedule("sequential", deficit_tol=1e-24, max_steps=100_000)
    balanced, trace0 = bk.run_balancing(net, sched, bk.l2())
    assert trace0.converged
    again, trace = bk.partial_balance_pass(balanced, bk.l2())
    assert np.max(np.abs(again.weights() - balanced.weights())) <= 1e-10


def test_partial_pass_chain_behavior():
    net = chain([4.0, 1.0, 1.0])
    out, trace = bk.partial_balance_pass(net, bk.l2())
    assert bk.network_cost(out, bk.l2()) < bk.network_cost(net, bk.l2())
    # balancing the later unit re-unbalances the first one
    assert bk.neuron_deficit(out, 1, bk.l2()) > 1e-6
    assert trace.r_series == sorted(trace.r_series, reverse=True)


def test_iterated_passes_reach_fixed_point():
    net = chain([4.0, 1.0, 1.0])
    current = net
    for _ in range(200):
        current, _ = bk.partial_balance_pass(current, bk.l2())
    assert bk.network_deficit(current, bk.l2()) < 1e-8
    sched = bk.Schedule("stochastic", seed=1, deficit_tol=1e-24, max_steps=100_000)
    fixed, _ = bk.run_balancing(net, sched, bk.l2())
    assert np.max(np.abs(current.weights() - fixed.weights())) <= 1e-6


def test_run_balancing_balanced_input_is_noop(rng):
    net = random_layered(rng)
    sched = bk.Schedule("sequential", deficit_tol=1e-20, max_steps=100_000)
    balanced, _ = bk.run_balancing(net, sched, bk.l2())
    again, trace = bk.run_balancing(balanced, sched, bk.l2())
    assert len(trace.steps) == 0
    assert again == balanced


def test_run_balancing_chain_matches_oracle():
    net = chain([2.0, 1.0, 1.0])
    sched = bk.Schedule("stochastic", seed=7, deficit_tol=1e-24, max_steps=100_000)
    out, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.converged
    target = 2.0 ** (1.0 / 3.0)
    assert np.max(np.abs(np.abs(out.weights()) - target)) <= 1e-6
    sol = bk.solve_convex(net, bk.l2())
    oracle = bk.apply_multipliers(net, sol.multipliers)
    assert np.max(np.abs(out.weights() - oracle.weights())) <= 1e-6


def test_run_balancing_seed_independence(rng):
    net = random_layered(rng)
    outs = []
    for seed in (1, 2):
        sched = bk.Schedule("stochastic", seed=seed, deficit_tol=1e-20, max_steps=200_000)
        out, trace = bk.run_balancing(net, sched, bk.l2())
        assert trace.converged
        outs.append(out.weights())
    assert np.max(np.abs(outs[0] - outs[1])) <= 1e-6


def test_run_balancing_is_deterministic_per_seed(rng):
    net = random_layered(rng)
    sched = bk.Schedule("stochastic", seed=11, deficit_tol=1e-18, max_steps=200_000)
    a, ta = bk.run_balancing(net, sched, bk.l2())
    b, tb = bk.run_balancing(net, sched, bk.l2())
    assert np.array_equal(a.weights(), b.weights())
    assert [r.unit for r in ta.steps] == [r.unit for r in tb.steps]


def test_run_balancing_reports_nonconvergence(rng):
    net = random_layered(rng)
    sched = bk.Schedule("stochastic", seed=0, deficit_tol=1e-20, max_steps=3)
    _, trace = bk.run_balancing(net, sched, bk.l2())
    assert not trace.converged
    assert any("max_steps" in note for note in trace.notes)


def test_run_balancing_skips_degenerate_units():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [
        bk.Edge(0, 1, 2.0),
        bk.Edge(1, 3, 1.0),
        bk.Edge(0, 2, 1.0),
        bk.Edge(2, 3, 0.0),
    ]
    net = bk.Network(units, edges)
    out, trace = bk.run_balancing(
        net, bk.Schedule("sequential", deficit_tol=1e-20, max_steps=1000), bk.l2()
    )
    assert any("unit 2 skipped" in note for note in trace.notes)
    assert trace.converged
    assert out.edges[3].weight == 0.0


def test_layer_schedules_reach_same_fixed_point(rng):
    net = random_layered(rng, n_layers=4)
    results = []
    for kind in ("layer_independent", "sequential", "partial_pass"):
        sched = bk.Schedule(kind, deficit_tol=1e-20, max_steps=200_000)
        out, trace = bk.run_balancing(net, sched, bk.l2())
        assert trace.converged, kind
        results.append(out.weights())
    for other in results[1:]:
        assert np.max(np.abs(results[0] - other)) <= 1e-6


def test_layer_tied_reaches_aggregate_balance(rng):
    net = random_layered(rng, n_layers=4)
    sched = bk.Schedule("layer_tied", deficit_tol=1e-22, max_steps=200_000)
    out, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.converged
    from balancekit.netgraph import hidden_layers

    for part in hidden_layers(out):
        inset = set(part)
        a = sum(e.weight**2 for e in out.edges if e.dst in inset)
        b = sum(e.weight**2 for e in out.edges if e.src in inset)
        assert abs(a - b) <= 1e-9 * max(1.0, a)
    # the tied fixed point equalizes aggregates, not individual units
    assert bk.network_cost(out, bk.l2()) <= bk.network_cost(net, bk.l2())


def test_force_balancing_sigmoidal_units():
    net = chain([3.0, 1.0], hidden_activation=bk.TANH_UNIT)
    same, trace = bk.run_balancing(net, bk.Schedule("sequential", max_steps=10), bk.l2())
    assert same == net
    assert any("nothing to balance" in n for n in trace.notes)
    out, trace = bk.run_balancing(
        net,
        bk.Schedule("sequential", deficit_tol=1e-20, max_steps=1000),
        bk.l2(),
        allow_nonhomogeneous=True,
    )
    assert trace.converged
    w = out.weights()
    assert abs(abs(w[0]) - abs(w[1])) <= 1e-9


# -- non-commutativity and order properties -----------------------------------


def test_balancing_does_not_commute_but_converges_to_same_point():
    net = chain([4.0, 1.0, 9.0])
    ab = bk.balance_neuron(bk.balance_neuron(net, 1, bk.l2())[0], 2, bk.l2())[0]
    ba = bk.balance_neuron(bk.balance_neuron(net, 2, bk.l2())[0], 1, bk.l2())[0]
    assert np.max(np.abs(ab.weights() - ba.weights())) > 1e-3

    sched_a = bk.Schedule("sequential", order=(1, 2), deficit_tol=1e-24, max_steps=100_000)
    sched_b = bk.Schedule("sequential", order=(2, 1), deficit_tol=1e-24, max_steps=100_000)
    fa, _ = bk.run_balancing(net, sched_a, bk.l2())
    fb, _ = bk.run_balancing(net, sched_b, bk.l2())
    assert np.max(np.abs(fa.weights() - fb.weights())) <= 1e-8


def test_disjoint_units_balance_in_any_order():
    net = _two_unit_layer([2.0, 0.7], [1.0, 1.3])
    ab = bk.balance_neuron(bk.balance_neuron(net, 1, bk.l2())[0], 2, bk.l2())[0]
    ba = bk.balance_neuron(bk.balance_neuron(net, 2, bk.l2())[0], 1, bk.l2())[0]
    assert np.array_equal(ab.weights(), ba.weights())


def test_function_preserved_along_random_op_sequences(rng):
    for _ in range(10):
        net = random_layered(rng)
        current = net
        for _ in range(8):
            h = int(rng.choice(current.hidden_ids))
            if rng.random() < 0.5:
                lam = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
                current = bk.scale_neuron(current, h, lam)
            else:
                current, _ = bk.balance_neuron(current, h, bk.l2())
        assert forward_gap(net, current, rng, n_probes=10) <= 1e-9


def test_function_preserved_for_bipu_sequences(rng):
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY)]
    units += [
        bk.Unit(1, bk.HIDDEN, bk.bipu(1.0, 0.3, 2.0)),
        bk.Unit(2, bk.HIDDEN, bk.bipu(0.7, -0.2, 3.0)),
        bk.Unit(3, bk.HIDDEN, bk.bilu(0.1, 1.0)),
    ]
    units.append(bk.Unit(4, bk.OUTPUT, bk.IDENTITY))
    edges = [
        bk.Edge(0, 1, 0.8),
        bk.Edge(0, 2, -0.5),
        bk.Edge(1, 2, 0.6),
        bk.Edge(1, 3, 1.1),
        bk.Edge(2, 3, -0.9),
        bk.Edge(2, 4, 0.5),
        bk.Edge(3, 4, 1.4),
    ]
    net = bk.Network(units, edges)
    current = net
    for _ in range(12):
        h = int(rng.choice([1, 2, 3]))
        if rng.random() < 0.5:
            current = bk.scale_neuron(current, h, float(rng.uniform(0.5, 2.0)))
        else:
            current, _ = bk.balance_neuron(current, h, bk.lp(1.5))
    assert forward_gap(net, current, rng, n_probes=10) <= 1e-9


def test_trace_is_monotone_and_accounts_for_total_drop(rng):
    net = random_layered(rng)
    sched = bk.Schedule("stochastic", seed=5, deficit_tol=1e-18, max_steps=200_000)
    out, trace = bk.run_balancing(net, sched, bk.l2())
    r = trace.r_series
    assert all(b <= a + 1e-12 for a, b in zip(r, r[1:]))
    total = sum(rep.delta_r for rep in trace.steps)
    r0 = bk.network_cost(net, bk.l2())
    assert abs(total - (r0 - r[-1])) <= 1e-9 * max(1.0, r0)


def test_trace_csv_format(rng):
    net = random_layered(rng)
    sched = bk.Schedule("stochastic", seed=0, deficit_tol=1e-14, max_steps=10_000)
    _, trace = bk.run_balancing(net, sched, bk.l2())
    csv = trace_to_csv(trace)
    lines = csv.strip().split("\n")
    assert lines[0] == "step,unit,lambda_star,delta_r,r_after,deficit_after"
    assert len(lines) == len(trace.steps) + 1
    cells = lines[1].split(",")
    float(cells[2]), float(cells[3]), float(cells[4]), float(cells[5])


# -- the unified step: rule, deficit and stop test ----------------------------

MIXED = bk.parse_cost("0.015*l1+1.0*l2")


def _criterion4_net():
    return bk.make_layered([3, 6, 6, 2], seed=424242, bias_init="uniform")


def test_schedule_rejects_bad_stop_criteria():
    for tol in (-1e-8, float("nan")):
        with pytest.raises(ValueError, match="deficit_tol"):
            bk.Schedule("stochastic", deficit_tol=tol)
    with pytest.raises(ValueError, match="max_steps"):
        bk.Schedule("sequential", max_steps=-1)
    assert bk.Schedule("sequential", deficit_tol=0.0, max_steps=0).max_steps == 0


def test_mixed_cost_runs_converge():
    # at the optimum sum_t p_t (A_t - c B_t) vanishes, sum_t (A_t - c B_t) does not,
    # so only the p-weighted deficit can meet the tolerance
    net = _criterion4_net()
    for seed in range(10):
        sched = bk.Schedule("stochastic", seed=seed, deficit_tol=1e-8, max_steps=300)
        out, trace = bk.run_balancing(net, sched, MIXED)
        assert trace.converged, seed
        for h in out.hidden_ids:
            assert abs(bk.optimal_lambda(out, h, MIXED) - 1.0) <= 1e-3


def test_mixed_cost_lambda_at_extreme_scales():
    # the L2 optimum is 1.19e9 and the L1 one 1.41e9: far outside [1e-8, 1e8]
    w_in, w_out = [1e-9], [1e9, 1e9]
    net, hid = star_neuron(w_in, w_out)
    lam = bk.optimal_lambda(net, hid, MIXED)

    def objective(lam):
        return sum(weight_cost(MIXED, lam * w) for w in w_in) + sum(
            weight_cost(MIXED, w / lam) for w in w_out
        )

    lam_search = golden_lambda(objective, lo=1e8, hi=1e10)
    assert abs(lam - lam_search) <= 1e-7 * lam
    assert 2.0**0.25 * 1e9 <= lam <= 2.0**0.5 * 1e9


def test_mixed_cost_lambda_with_a_self_loop():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.bipu(1.0, 0.5, 2.0)),
        bk.Unit(2, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [bk.Edge(0, 1, 0.7), bk.Edge(1, 1, 1.3), bk.Edge(1, 2, -2.0)]
    net = bk.Network(units, edges, recurrent=True)
    lam = bk.optimal_lambda(net, 1, MIXED)

    def objective(lam):
        return (
            weight_cost(MIXED, lam * 0.7)
            + weight_cost(MIXED, lam ** (1.0 - 2.0) * 1.3)
            + weight_cost(MIXED, lam**-2.0 * 2.0)
        )

    assert abs(lam - golden_lambda(objective)) <= 1e-7 * lam


def test_unit_schedule_trace_ends_at_the_network_deficit(rng):
    for kind in ("stochastic", "sequential", "partial_pass", "layer_independent"):
        for cost in (bk.l2(), bk.lp(1.5), MIXED):
            net = random_layered(rng)
            sched = bk.Schedule(kind, seed=3, deficit_tol=1e-12, max_steps=20_000)
            out, trace = bk.run_balancing(net, sched, cost)
            assert trace.converged, (kind, cost)
            fresh = bk.network_deficit(out, cost)
            assert abs(trace.deficit_series[-1] - fresh) <= 1e-12 * fresh
            assert fresh <= 1e-12 * bk.network_cost(net, cost) ** 2


def test_layer_tied_trace_ends_at_the_aggregate_gap(rng):
    from balancekit.netgraph import hidden_layers

    for cost in (bk.l2(), MIXED):
        net = random_layered(rng, n_layers=4)
        sched = bk.Schedule("layer_tied", deficit_tol=1e-14, max_steps=10_000)
        out, trace = bk.run_balancing(net, sched, cost)
        assert trace.converged
        p_max = max(p for p, _ in cost.terms)
        total = 0.0
        for part in hidden_layers(out):
            inset = set(part)
            gap = sum(
                p / p_max * beta * abs(e.weight) ** p * ((e.dst in inset) - (e.src in inset))
                for e in out.edges
                for p, beta in cost.terms
            )
            total += gap * gap
        # each gap is a difference of sums of size r, so it is known to about 1e-16 r
        r = bk.network_cost(out, cost)
        assert abs(math.sqrt(trace.deficit_series[-1]) - math.sqrt(total)) <= 1e-13 * r
        assert trace.deficit_series[-1] <= 1e-14 * bk.network_cost(net, cost) ** 2


_EXPONENTS = (0.5, 1.0, 1.5, 2.0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_hidden=st.integers(2, 5),
    exponents=st.lists(st.sampled_from(_EXPONENTS), min_size=5, max_size=5),
    cost=st.sampled_from([bk.l2(), bk.l1(), bk.lp(1.5), MIXED]),
)
def test_recurrent_self_loop_operations_preserve_function(seed, n_hidden, exponents, cost):
    """Self-loops pick up lam**(1-c); with c != 1 that factor is not 1."""
    rng = np.random.default_rng(seed)
    net = recurrent_bipu(seed, n_hidden, exponents)
    current = net
    for _ in range(6):
        h = int(rng.choice(net.hidden_ids))
        if rng.random() < 0.5:
            current = bk.scale_neuron(current, h, float(np.exp(rng.uniform(-2.0, 2.0))))
        else:
            current, _ = bk.balance_neuron(current, h, cost)
    assert forward_gap(net, current, rng, n_probes=5) <= 1e-9
    sched = bk.Schedule("stochastic", seed=seed, deficit_tol=1e-12, max_steps=300)
    balanced, trace = bk.run_balancing(net, sched, cost)
    assert bk.network_cost(balanced, cost) <= bk.network_cost(net, cost) * (1 + 1e-12)
    assert forward_gap(net, balanced, rng, n_probes=5) <= 1e-9


# -- the batched engine --------------------------------------------------------

_KINDS = ("stochastic", "sequential", "partial_pass", "layer_independent", "layer_tied")


def _net_with_dead_unit(seed, recurrent):
    """A random layered net, or a recurrent one with self-loops and BiPU units,
    with the outgoing side of one hidden unit zeroed so every run skips it."""
    rng = np.random.default_rng(seed)
    if recurrent:
        base = bk.make_recurrent(2, int(rng.integers(3, 6)), 2, self_loops=True, seed=seed)
        units = [
            bk.Unit(u.id, u.role, bk.bipu(1.0, -0.5, float(rng.choice(_EXPONENTS))))
            if u.role == bk.HIDDEN
            else u
            for u in base.units
        ]
        net = bk.Network(units, base.edges, recurrent=True, unroll_steps=base.unroll_steps)
    else:
        net = random_layered(rng)
    dead = int(rng.choice(net.hidden_ids))
    w = net.weights()
    w[[k for k, e in enumerate(net.edges) if e.src == dead and e.dst != dead]] = 0.0
    return net.replace_weights(w), dead


def _batch(net, dead, recurrent, kinds, seed):
    """Schedules of the given kinds; the first starts converged, the second stops
    at max_steps and the third names the dead unit and an input in its order."""
    hidden = list(net.hidden_ids)
    schedules = []
    for k, kind in enumerate(kinds):
        partition = None
        if recurrent and kind.startswith("layer"):
            # recurrent nets have no layers, and their self-loops rule out tied subsets
            kind, partition = "layer_independent", (tuple(hidden[::2]), tuple(hidden[1::2]))
        tol, max_steps, order = 1e-16, 80, None
        if k == 0:
            tol = 1e3
        elif k == 1:
            tol, max_steps = 0.0, 3
        elif k == 2:
            kind, order = "sequential", tuple(reversed(hidden)) + (dead, net.input_ids[0])
        schedules.append(bk.Schedule(kind, seed=seed + k, order=order, partition=partition,
                                     deficit_tol=tol, max_steps=max_steps))
    return schedules


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    recurrent=st.booleans(),
    cost=st.sampled_from([bk.l2(), bk.lp(1.5), MIXED]),
    size=st.sampled_from([1, 2, 13]),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=13, max_size=13),
)
@example(seed=3, recurrent=False, cost=MIXED, size=13, kinds=["stochastic"] * 13)
@example(seed=4, recurrent=True, cost=bk.lp(1.5), size=13, kinds=["stochastic"] * 13)
def test_run_balancing_many_is_the_one_schedule_runs(seed, recurrent, cost, size, kinds):
    net, dead = _net_with_dead_unit(seed, recurrent)
    schedules = _batch(net, dead, recurrent, kinds[:size], seed)
    many = bk.run_balancing_many(net, schedules, cost)
    assert len(many) == size
    for schedule, (out, trace) in zip(schedules, many):
        ref, ref_trace = bk.run_balancing(net, schedule, cost)
        assert out.weights().tobytes() == ref.weights().tobytes()
        assert _bits(list(map(astuple, trace.steps))) == _bits(list(map(astuple, ref_trace.steps)))
        assert _bits(trace.r_series) == _bits(ref_trace.r_series)
        assert _bits(trace.deficit_series) == _bits(ref_trace.deficit_series)
        assert trace.notes == ref_trace.notes
        assert trace.converged == ref_trace.converged
        # each step starts from the cost the previous one left
        r_after = [rep.r_after for rep in trace.steps]
        assert r_after == trace.r_series
        assert [rep.r_before for rep in trace.steps[1:]] == r_after[:-1]
        assert all(rep.delta_r == rep.r_before - rep.r_after for rep in trace.steps)
        if trace.steps:
            assert trace.steps[0].r_before == pytest.approx(bk.network_cost(net, cost), rel=1e-12)
        assert f"unit {dead} skipped: all-zero incoming or outgoing side" in trace.notes
    if size > 1:
        assert many[0][1].steps == [] and many[0][1].converged
        assert len(many[1][1].steps) == 3 and not many[1][1].converged
    if size > 2:
        assert f"unit {dead} skipped in order: not balanceable" in many[2][1].notes


def test_stochastic_draws_continue_the_one_at_a_time_stream():
    net = _criterion4_net()
    sched = bk.Schedule("stochastic", seed=5, deficit_tol=1e-18, max_steps=300_000)
    _, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.converged and len(trace.steps) > balancing._DRAW_CHUNK
    rng = np.random.default_rng(5)
    hidden = net.hidden_ids
    drawn = [hidden[int(rng.integers(len(hidden)))] for _ in trace.steps]
    assert [r.unit for r in trace.steps] == drawn


def test_criterion4_schedules_in_one_batch_keep_their_step_counts():
    net = _criterion4_net()
    schedules = [
        bk.Schedule("stochastic", seed=seed, deficit_tol=1e-18, max_steps=300_000)
        for seed in range(12)
    ]
    runs = bk.run_balancing_many(net, schedules, bk.l2())
    assert all(trace.converged for _, trace in runs)
    assert [len(trace.steps) for _, trace in runs] == [
        393, 361, 339, 362, 350, 423, 384, 368, 421, 462, 452, 393,
    ]
