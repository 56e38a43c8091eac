import functools
import math
import re
from dataclasses import astuple, replace
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, target
from hypothesis import strategies as st

import balancekit as bk
from balancekit import balancing
from balancekit.balancing import trace_to_csv
from balancekit.netgraph import hidden_layers, topological_order
from balancekit.regularizer import CostSpec, weight_cost
from conftest import (
    chain,
    forward_gap,
    golden_lambda,
    net_with_dead_unit,
    random_layered,
    recurrent_bipu,
    reference_bisect_log_lambda,
    reference_partial_balance_pass,
    reference_row_bounds,
    reference_run_balancing_many,
    reference_run_batch,
    reference_set_edges,
    reference_trace_to_csv,
    star_neuron,
)


def _unit_objective(net, i, cost, c=1.0):
    """Independent 1-D objective in the scaling factor for golden search."""
    w_in = [e.weight for e in bk.in_edges(net, i) if e.src != i]
    w_out = [e.weight for e in bk.out_edges(net, i) if e.dst != i]

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("net, lam", [
    (chain([2.0, 1.0]), math.inf),
    (chain([2.0, 1.0]), math.nan),
    (chain([1e200, 1.0]), 1e200),
    (star_neuron([1.0], [1.0], activation=bk.bipu(1.0, 0.5, 2.0))[0], 1e200),
], ids=["inf factor", "nan factor", "weight overflows", "factor power overflows"])
def test_scale_neuron_refuses_a_factor_that_leaves_a_weight_non_finite(net, lam):
    with pytest.raises(ValueError, match=f"unit 1: scaling factor.*{re.escape(repr(lam))}"):
        bk.scale_neuron(net, 1, lam)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, lam", [([1e-200, 1.0], 1e-200), ([1.0, 1e-200], 1e200)],
                         ids=["incoming side", "outgoing side"])
def test_scale_neuron_refuses_a_factor_that_makes_a_weight_vanish(weights, lam):
    # the result would leave the unit a dead side: a run would skip it, and the fit
    # would not take the result as a rescaling of the net
    with pytest.raises(ValueError, match=f"^unit 1: scaling factor {re.escape(repr(lam))} "
                                         "makes a nonzero weight vanish$"):
        bk.scale_neuron(chain(weights), 1, lam)


def test_one_set_operations_refuse_a_non_homogeneous_unit():
    net = chain([3.0, 1.0], hidden_activation=bk.TANH_UNIT)
    for op in (lambda: bk.scale_neuron(net, 1, 2.0), lambda: bk.optimal_lambda(net, 1, bk.l2()),
               lambda: bk.balance_neuron(net, 1, bk.l2()),
               lambda: bk.balance_subset_tied(net, [1], bk.l2())):
        with pytest.raises(ValueError, match="unit 1 has a non-homogeneous activation$"):
            op()


def _off_path_net():
    """chain([1, 1]) with a hidden unit 3 fed by the input and feeding nothing: a
    finding that is not fatal to the graph walks, but that a run refuses."""
    base = chain([1.0, 1.0])
    return bk.Network([*base.units, bk.Unit(3, bk.HIDDEN, bk.RELU)],
                      [*base.edges, bk.Edge(0, 3, 1.0)])


_GATED = {
    "scale_neuron": lambda net: bk.scale_neuron(net, 1, 2.0),
    "optimal_lambda": lambda net: bk.optimal_lambda(net, 1, bk.l2()),
    "balance_neuron": lambda net: bk.balance_neuron(net, 1, bk.l2()),
    "balance_subset_tied": lambda net: bk.balance_subset_tied(net, [1], bk.l2()),
    "neuron_deficit": lambda net: bk.neuron_deficit(net, 1, bk.l2()),
    "network_deficit": lambda net: bk.network_deficit(net, bk.l2()),
    "partial_balance_pass": lambda net: bk.partial_balance_pass(net, bk.l2()),
    "run_balancing": lambda net: bk.run_balancing(net, bk.Schedule("sequential"), bk.l2()),
    "solve_convex": lambda net: bk.solve_convex(net, bk.l2()),
    "fit_multipliers": lambda net: bk.fit_multipliers(net, net),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", list(_GATED))
@pytest.mark.parametrize("net, names", [
    (chain([math.inf, 1.0]), "edge (0->1): non-finite weight inf"),
    (chain([1.0, math.nan]), "edge (1->2): non-finite weight nan"),
    (_off_path_net(), "hidden unit 3 lies on no input->output path"),
], ids=["inf weight", "nan weight", "off-path unit"])
def test_every_entry_refuses_the_nets_a_run_refuses(entry, net, names):
    with pytest.raises(ValueError) as refused:
        _GATED[entry](net)
    assert str(refused.value) == "invalid network: " + names


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


@pytest.mark.parametrize("recurrent", [False, True])
def test_scale_neuron_is_the_one_unit_multiplier_assignment(rng, recurrent):
    if recurrent:  # ReLU, with self-loops
        base = bk.make_recurrent(2, 5, 2, self_loops=True, seed=int(rng.integers(2**31)))
        net = base.replace_weights(np.where(base.w == 0.0, 0.3, base.w))
    else:
        net = random_layered(rng, activation=bk.RELU)
    s = net.structure
    for h in net.hidden_ids:
        for lam in np.exp(rng.uniform(-3.0, 3.0, size=4)).tolist():
            got = bk.scale_neuron(net, h, lam).weights()
            want = bk.apply_multipliers(net, bk.MultiplierAssignment({h: lam})).weights()
            assert got.tobytes() == want.tobytes()
            into, out = (s.dst == h) & (s.src != h), (s.src == h) & (s.dst != h)
            assert np.array_equal(got[into], net.w[into] * lam)
            # the edges that do not touch h, and a self-loop (lam**(1 - c) with c = 1), keep their bits
            assert np.array_equal(got[~into & ~out], net.w[~into & ~out])
            # w * (1 / lam) rounds twice, w / lam once: within three half-ulps (2**-53 each)
            assert np.allclose(got[out], net.w[out] / lam, rtol=4e-16, atol=0.0)


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
        a = sum(weight_cost(cost, e.weight) for e in bk.in_edges(net, hid))
        b = sum(weight_cost(cost, e.weight) for e in bk.out_edges(net, hid))
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
    a = sum(e.weight**2 for e in bk.in_edges(out, hid))
    b = sum(e.weight**2 for e in bk.out_edges(out, hid))
    assert abs(a - 3.0 * b) <= 1e-9 * max(a, 1.0)
    assert forward_gap(net, out, rng, n_probes=20) <= 1e-9


def test_single_set_reports_are_the_one_step_run_reports():
    # the report's costs are the engine's, so they match a run's trace bit for bit
    net = _criterion4_net()
    for h in net.hidden_ids:
        _, report = bk.balance_neuron(net, h, bk.l2())
        sched = bk.Schedule("sequential", order=(h,), max_steps=1, deficit_tol=0.0)
        (step,) = bk.run_balancing(net, sched, bk.l2())[1].steps
        assert _bits(astuple(report)) == _bits(astuple(step)), h
    layer = hidden_layers(net)[0]
    _, report = bk.balance_subset_tied(net, layer, bk.l2())
    sched = bk.Schedule("layer_tied", partition=(layer,), max_steps=1, deficit_tol=0.0)
    (step,) = bk.run_balancing(net, sched, bk.l2())[1].steps
    assert _bits(astuple(report)) == _bits(astuple(step))


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
    for kind in ("layer_independent", "sequential"):
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
    for steps in (-1, 1.5, 2.9):
        with pytest.raises(ValueError, match="max_steps"):
            bk.Schedule("sequential", max_steps=steps)
    with pytest.raises(ValueError, match="seed"):
        bk.Schedule("stochastic", seed=2.5)
    assert bk.Schedule("sequential", deficit_tol=0.0, max_steps=0).max_steps == 0
    sched = bk.Schedule("stochastic", seed=np.int64(4), max_steps=np.int64(3))
    assert type(sched.max_steps) is int and sched.max_steps == 3 and type(sched.seed) is int


@pytest.mark.parametrize("kind, field, value", [
    ("stochastic", "order", (99,)),
    ("layer_tied", "order", (1,)),
    ("layer_independent", "order", (1,)),
    ("sequential", "partition", ((99,),)),
    ("stochastic", "partition", ((1,),)),
])
def test_schedule_refuses_a_field_its_kind_does_not_read(kind, field, value):
    with pytest.raises(ValueError, match=f"schedule kind '{kind}' does not read '{field}'"):
        bk.Schedule(kind, **{field: value})


def test_mixed_cost_runs_converge():
    # at the optimum sum_t p_t (A_t - c B_t) vanishes, sum_t (A_t - c B_t) does not,
    # so only the p-weighted deficit can meet the tolerance
    net = _criterion4_net()
    steps = []
    for seed in range(10):
        sched = bk.Schedule("stochastic", seed=seed, deficit_tol=1e-8, max_steps=300)
        out, trace = bk.run_balancing(net, sched, MIXED)
        assert trace.converged, seed
        steps.append(len(trace.units))
        for h in out.hidden_ids:
            assert abs(bk.optimal_lambda(out, h, MIXED) - 1.0) <= 1e-3
    # pinned: a change of lambda* that moves a count must name its cause
    assert steps == [138, 149, 112, 134, 121, 168, 150, 102, 159, 203]


@pytest.mark.parametrize("kind", ["sequential", "stochastic", "layer_independent", "layer_tied"])
def test_a_run_whose_starting_deficit_is_not_finite_takes_no_step(kind):
    # x1e200: every L2 edge cost overflows to inf and the starting gap is nan
    net = bk.make_layered([3, 6, 6, 2], seed=0)
    big = net.replace_weights(net.w * 1e200)
    sched = bk.Schedule(kind, deficit_tol=1e-12, max_steps=2_000)
    with np.errstate(over="ignore", invalid="ignore"):
        out, trace = bk.run_balancing(big, sched, bk.l2())
    assert not trace.converged and trace.units == []
    assert trace.notes == ["no step taken: the starting deficit is nan, not finite"]
    assert out.w.tobytes() == big.w.tobytes()


def test_a_partial_pass_whose_starting_deficit_is_not_finite_takes_no_step():
    net = bk.make_layered([3, 6, 6, 2], seed=0)
    big = net.replace_weights(net.w * 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        out, trace = bk.partial_balance_pass(big, bk.l2())
    assert not trace.converged and trace.units == []
    assert trace.notes == ["no step taken: the starting deficit is nan, not finite"]
    assert out.w.tobytes() == big.w.tobytes()


def test_an_infinite_starting_deficit_is_not_within_an_infinite_tolerance():
    # the hidden unit's incoming cost overflows, its outgoing one does not: the deficit
    # and r_initial**2 are both inf
    net = chain([1e200, 1.0])
    with np.errstate(over="ignore"):
        out, trace = bk.run_balancing(net, bk.Schedule("sequential"), bk.l2())
    assert trace.r_initial == math.inf and not trace.converged and trace.units == []
    assert trace.notes == ["no step taken: the starting deficit is inf, not finite"]
    assert out.w.tobytes() == net.w.tobytes()


_POW2_NET = bk.make_layered([3, 6, 6, 2], seed=0)
_POW2_SCHEDULE = bk.Schedule("sequential", deficit_tol=1e-12, max_steps=2_000)


@functools.cache
def _unscaled_run(cost):
    final, trace = bk.run_balancing(_POW2_NET, _POW2_SCHEDULE, bk.parse_cost(cost))
    assert trace.converged
    return final.w, len(trace.units)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(k=st.integers(-1060, 1019), cost=st.sampled_from(["l1", "l2", "lp:3"]))
@example(k=-399, cost="l2")  # about x1e-120: the squared cost underflows to 0
@example(k=332, cost="l2")  # about x1e100: the starting deficit overflows
@example(k=-200, cost="lp:3")  # the cubed costs sum to about 2**-600, whose square underflows
def test_a_power_of_two_weight_scale_balances_the_same_run_or_takes_no_step(k, cost):
    # a one-term cost takes the same lambda* on 2**k * W, so a run either follows
    # the unscaled one, bit for bit, or takes no step and says why
    w0 = _POW2_NET.w
    with np.errstate(over="ignore", under="ignore"):
        w = np.ldexp(w0, k)
    assume(np.isfinite(w).all() and np.array_equal(np.ldexp(w, -k), w0))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        final, trace = bk.run_balancing(_POW2_NET.replace_weights(w), _POW2_SCHEDULE,
                                        bk.parse_cost(cost))
    if trace.converged:
        want, steps = _unscaled_run(cost)
        assert len(trace.units) == steps
        assert final.w.tobytes() == np.ldexp(want, k).tobytes()
    else:
        assert trace.units == [] and len(trace.notes) == 1
        assert trace.notes[0].startswith("no step taken: ")
        assert final.w.tobytes() == w.tobytes()


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


def _exact_phi(cost, sums, c, t):
    """lam * R'(lam) at log lam = t (a Decimal), from the exact exponents p e, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        for (p, _), row in zip(cost.terms, sums):
            for e, s in zip(balancing._exponents(c), row):
                if s != 0.0 and e != 0.0:
                    pe = Decimal(p) * Decimal(e)
                    total += pe * Decimal(s) * (pe * t).exp()
        return total


_SIDE_LOG10 = st.floats(-150.0, 150.0)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.floats(0.5, 4.0), _SIDE_LOG10, _SIDE_LOG10, st.none() | _SIDE_LOG10),
        min_size=2, max_size=3,
    ),
    c=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_newton_log_lambda_is_the_bisection(terms, c):
    # side sums log-uniform over 1e-150..1e150 per term, the inside sum zero or not
    cost = CostSpec(tuple((p, 1.0) for p, *_ in terms))
    sums = [[10.0**a, 10.0**b, 0.0 if s is None else 10.0**s, 0.0] for _, a, b, s in terms]
    try:
        ref = reference_bisect_log_lambda(cost, sums, c)
    except bk.DegenerateUnitError:
        ref = None
    with mock.patch.object(balancing, "_log_ratio", side_effect=balancing._log_ratio) as spy:
        try:
            t = balancing._solve_log_lambda(cost, sums, c)
        except bk.DegenerateUnitError:
            t = None
    # the largest count shows under --hypothesis-show-statistics
    target(float(spy.call_count), label="log-ratio evaluations")
    assert spy.call_count <= 30
    assert (t is None) == (ref is None)
    if t is None:
        return
    # past |t| = 64 the bisection cannot close its 1e-14 bracket (one ulp is wider) and its
    # sums carry the rounding of p e t, so the two agree to 1e-13 of max(|t|, 1)
    assert abs(t - ref) <= 1e-13 * max(1.0, abs(ref))
    # below |t| = 1 the exponents' rounding is absolute, so ulps are counted at 1
    ulps = 4 * Decimal(math.ulp(max(abs(t), 1.0)))
    below, above = (_exact_phi(cost, sums, c, Decimal(t) + d) for d in (-ulps, ulps))
    assert below <= 0 <= above


def test_unit_schedule_trace_ends_at_the_network_deficit(rng):
    # and on nets with a dead-sided unit: the network deficit leaves out what no run balances
    seeds = iter(range(100))
    for kind in ("stochastic", "sequential", "layer_independent"):
        for cost in (bk.l2(), bk.lp(1.5), MIXED):
            nets = [random_layered(rng), net_with_dead_unit(next(seeds), False)[0]]
            nets.append(net_with_dead_unit(next(seeds), True)[0])
            for net in nets:
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

_KINDS = ("stochastic", "sequential", "layer_independent", "layer_tied")


def _batch(net, dead, recurrent, kinds, seed):
    """Schedules of the given kinds; the first starts converged, the second stops
    at max_steps and the third names the dead unit and an input in its order.

    The second balances one unit: ``layer_independent`` through a one-unit
    partition, any other kind as a ``sequential`` run.  Its deficit keeps the
    gaps of the units it leaves alone, so with two or more balanceable units
    it cannot reach an exact zero in its three steps.  (A ``layer_tied`` run's
    deficit counts only the parts it balances, so it could.)
    """
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
            unit = next(h for h in hidden if h != dead)
            if kind == "layer_independent":
                partition = ((unit,),)
            else:
                kind, order = "sequential", (unit,)
            tol, max_steps = 0.0, 3
        elif k == 2:
            kind, partition = "sequential", None
            order = tuple(reversed(hidden)) + (dead, net.input_ids[0])
        schedules.append(bk.Schedule(kind, seed=seed + k, order=order, partition=partition,
                                     deficit_tol=tol, max_steps=max_steps))
    return schedules


def _bits(values):
    return np.array(values, dtype=float).tobytes()


_TIED_FOURTH = ["stochastic"] * 3 + ["layer_tied"] + ["stochastic"] * 9


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    recurrent=st.booleans(),
    cost=st.sampled_from([bk.l2(), bk.lp(1.5), MIXED]),
    size=st.sampled_from([1, 2, 3, 13]),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=13, max_size=13),
)
@example(seed=3, recurrent=False, cost=MIXED, size=13, kinds=["stochastic"] * 13)
@example(seed=4, recurrent=True, cost=bk.lp(1.5), size=13, kinds=["stochastic"] * 13)
# on the first three nets a layer_tied run ends on an exact zero gap after one step, a
# correct early stop that the fourth schedule takes; seed 27's net has one balanceable
# unit, on which the second schedule ends on an exact zero after two steps
@example(seed=30630, recurrent=False, cost=bk.l2(), size=4, kinds=_TIED_FOURTH)
@example(seed=65, recurrent=False, cost=bk.l2(), size=4, kinds=_TIED_FOURTH)
@example(seed=113, recurrent=False, cost=bk.l2(), size=4, kinds=_TIED_FOURTH)
@example(seed=27, recurrent=False, cost=bk.l2(), size=4, kinds=_TIED_FOURTH)
def test_run_balancing_many_is_the_one_schedule_runs(seed, recurrent, cost, size, kinds):
    net, dead = net_with_dead_unit(seed, recurrent)
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
        # over a net's only balanceable unit a run can end on an exact zero gap: see
        # test_a_run_over_one_unit_can_end_on_an_exact_zero_gap
        if len(balancing._balanceable(net)[0]) > 1:
            assert len(many[1][1].steps) == 3 and not many[1][1].converged
    if size > 2:
        assert f"unit {dead} skipped in order: not balanceable" in many[2][1].notes


def test_a_run_over_one_unit_can_end_on_an_exact_zero_gap():
    """Seed 27's net has one balanceable unit, so every schedule balances it alone;
    balanced twice under L2 it has a gap of exactly 0.0, a correct early stop."""
    net, dead = net_with_dead_unit(27, False)
    assert balancing._balanceable(net)[0] == [5] and dead == 4
    for kind in _KINDS:
        _, trace = bk.run_balancing(net, bk.Schedule(kind, deficit_tol=0.0, max_steps=3), bk.l2())
        assert trace.units == [5, 5] and trace.converged and trace.deficit_series[-1] == 0.0


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


# -- one run path: runs grouped by the sets they balance -----------------------


def _mixed_batch(net, dead, recurrent, draw):
    """Schedules of every kind with drawn tolerances, caps, orders and tied partitions."""
    hidden = list(net.hidden_ids)
    layers = bk.netgraph.hidden_layers(net) if not recurrent else None
    schedules = []
    for _ in range(draw(st.integers(1, 13))):
        kind = draw(st.sampled_from(_KINDS))
        partition = order = None
        if recurrent and kind.startswith("layer"):
            kind, partition = "layer_independent", (tuple(hidden[::2]), tuple(hidden[1::2]))
        elif kind.startswith("layer") and draw(st.booleans()):
            # each layer split in two: tied subsets with no edge inside
            partition = tuple(half for layer in layers for half in (layer[::2], layer[1::2]))
        if kind == "sequential" and draw(st.booleans()):
            order = tuple(draw(st.permutations(hidden))) + (dead, net.input_ids[0])
        schedules.append(bk.Schedule(
            kind, seed=draw(st.integers(0, 99)), order=order, partition=partition,
            deficit_tol=draw(st.sampled_from([1e3, 0.0, 1e-12, 1e-16])),
            max_steps=draw(st.integers(1, 300)),
        ))
    return schedules


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    recurrent=st.booleans(),
    cost=st.sampled_from([bk.l2(), bk.lp(1.5), MIXED]),
    data=st.data(),
)
def test_run_balancing_many_matches_the_per_kind_paths(seed, recurrent, cost, data):
    net, dead = net_with_dead_unit(seed, recurrent)
    schedules = _mixed_batch(net, dead, recurrent, data.draw)
    many = bk.run_balancing_many(net, schedules, cost)
    ref = reference_run_balancing_many(net, schedules, cost)
    for (out, trace), (ref_out, ref_trace) in zip(many, ref, strict=True):
        assert out.weights().tobytes() == ref_out.weights().tobytes()
        assert trace.units == ref_trace.units
        for col in ("lambdas", "r_series", "deficit_series"):
            assert _bits(getattr(trace, col)) == _bits(getattr(ref_trace, col)), col
        assert _bits([trace.r_initial]) == _bits([ref_trace.r_initial])
        assert trace.notes == ref_trace.notes
        assert trace.converged == ref_trace.converged


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), recurrent=st.booleans(), data=st.data())
def test_engine_tables_are_the_per_set_scans(seed, recurrent, data):
    net, _ = net_with_dead_unit(seed, recurrent)  # recurrent nets carry self-loops
    w = net.weights()
    w[data.draw(st.lists(st.integers(0, w.size - 1), max_size=4))] = 0.0
    net = net.replace_weights(w)
    hidden = list(net.hidden_ids)
    # single units, or the hidden units dealt into disjoint groups, edges inside allowed
    groups = data.draw(st.lists(st.integers(0, 3), min_size=len(hidden), max_size=len(hidden)))
    grouped = [tuple(u for u, g in zip(hidden, groups) if g == k) for k in range(4)]
    for sets in ([(u,) for u in hidden], [part for part in grouped if part]):
        eng = balancing._Engine(net, bk.l2(), sets)
        src, dst = net.structure.src, net.structure.dst
        scans = [reference_set_edges(src, dst, units) for units in sets]
        for k, (sel, side) in enumerate(scans):
            real = eng._side[k] != balancing._PAD
            assert real.sum() == sel.size
            assert eng._edge[k][real].tolist() == sel.tolist()
            assert eng._side[k][real].tolist() == side.tolist()
        assert eng._sel.tolist() == [e for sel, _ in scans for e in sel.tolist()]


def _balanced_criterion4_net():
    net = _criterion4_net()
    sched = bk.Schedule("layer_independent", deficit_tol=1e-30, max_steps=100_000)
    return bk.run_balancing(net, sched, bk.l2())[0]


def test_tied_run_starts_on_its_own_gap():
    net = _balanced_criterion4_net()
    for u in range(3, 9):
        net = bk.scale_neuron(net, u, 1.0001)
    r = bk.network_cost(net, bk.l2())
    gap = 0.0
    for part in bk.netgraph.hidden_layers(net):
        inset = set(part)
        gap += sum(e.weight**2 * ((e.dst in inset) - (e.src in inset)) for e in net.edges) ** 2
    assert bk.network_deficit(net, bk.l2()) / r**2 == pytest.approx(2.79e-9, rel=1e-2)
    assert gap / r**2 == pytest.approx(1.62e-8, rel=1e-2)
    sched = bk.Schedule("layer_tied", deficit_tol=1e-8, max_steps=1000)
    # judged by the single-unit deficit, the run took no step
    (_, old), = reference_run_balancing_many(net, [sched], bk.l2())
    assert old.converged and not old.units
    _, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.converged and trace.units
    assert trace.deficit_series[-1] <= 1e-8 * r**2


def test_tied_partition_is_checked_on_a_balanced_net():
    net = _balanced_criterion4_net()
    sched = bk.Schedule("layer_tied", partition=((3, 9),), deficit_tol=1e-8)
    (_, old), = reference_run_balancing_many(net, [sched], bk.l2())
    assert old.converged and not old.units
    with pytest.raises(ValueError, match=r"edge \(3->9\) connects two units of tied subset \[3, 9\]"):
        bk.run_balancing(net, sched, bk.l2())


def test_tied_subsets_must_be_disjoint():
    net = _balanced_criterion4_net()
    partition = ((3, 4, 5, 6), (5, 6, 7, 8), (9, 10, 11, 12, 13, 14))
    with pytest.raises(ValueError, match=r"\bunit 5\b"):
        bk.run_balancing(net, bk.Schedule("layer_tied", partition=partition), bk.l2())


# -- the partial pass as a capped run, and traces kept as columns ---------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    recurrent=st.booleans(),
    cost=st.sampled_from([bk.l2(), bk.lp(1.5), MIXED]),
    zeros=st.lists(st.integers(0, 2**16), max_size=3),
    picks=st.none() | st.lists(st.integers(0, 2**16), max_size=12),
)
@example(seed=0, recurrent=False, cost=MIXED, zeros=[], picks=None)
@example(seed=1, recurrent=True, cost=bk.lp(1.5), zeros=[5], picks=[0, 1, 2, 3, 3])
def test_partial_pass_is_the_unit_by_unit_loop(seed, recurrent, cost, zeros, picks):
    net, dead = net_with_dead_unit(seed, recurrent)
    w = net.weights()
    w[[k % w.size for k in zeros]] = 0.0
    net = net.replace_weights(w)
    order = None
    if picks is not None:
        # hidden units, the dead one and visible ones, which the pass skips with a note
        pool = net.hidden_ids + net.input_ids + net.output_ids
        order = [pool[k % len(pool)] for k in picks] + [dead, net.output_ids[0]]
    out, trace = bk.partial_balance_pass(net, cost, order)
    ref, reports, r_series, deficit_series, notes = reference_partial_balance_pass(net, cost, order)
    assert out.weights().tobytes() == ref.weights().tobytes()
    assert trace.units == [rep.unit for rep in reports]
    assert _bits(trace.lambdas) == _bits([rep.lambda_star for rep in reports])
    if reports:
        assert _bits([trace.r_initial]) == _bits([reports[0].r_before])
    _same_rows(net, bk.Schedule("sequential", order=order), trace, r_series, deficit_series)
    assert trace.notes == [note.replace(" in pass:", " in order:") for note in notes]
    assert trace.converged


@pytest.mark.parametrize(
    "run",
    [
        lambda net: bk.partial_balance_pass(net, bk.l2()),
        lambda net: bk.run_balancing(net, bk.Schedule("sequential"), bk.l2()),
    ],
    ids=["partial_balance_pass", "run_balancing"],
)
def test_runs_reject_a_non_finite_weight(run):
    net = bk.make_layered([2, 3, 1], seed=0)
    w = net.weights()
    w[0] = np.nan
    with pytest.raises(ValueError, match=r"invalid network: edge \(0->2\): non-finite weight nan"):
        run(net.replace_weights(w))


_CSV_CASES = {
    "no step": lambda net: bk.run_balancing(net, bk.Schedule("sequential", deficit_tol=1e3), bk.l2()),
    "max_steps": lambda net: bk.run_balancing(
        net, bk.Schedule("stochastic", seed=2, deficit_tol=0.0, max_steps=300), MIXED
    ),
    "converged": lambda net: bk.run_balancing(
        net, bk.Schedule("sequential", deficit_tol=1e-14, max_steps=100_000), bk.lp(1.5)
    ),
    "layer_tied": lambda net: bk.run_balancing(
        net, bk.Schedule("layer_tied", deficit_tol=1e-14, max_steps=100_000), bk.l2()
    ),
    "partial pass": lambda net: bk.partial_balance_pass(net, MIXED),
}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_trace_csv_is_the_report_by_report_writer(case):
    _, trace = _CSV_CASES[case](_criterion4_net())
    assert {"no step": not trace.units, "max_steps": not trace.converged}.get(case, trace.converged)
    assert trace_to_csv(trace) == reference_trace_to_csv(trace)


# -- blocks: edge-disjoint sets of a cycle balanced from one gather --------------

_TOLS = [1e3, 0.0, 1e-12, 1e-16, 1e-30]


def _block_batch(net, dead, recurrent, draw):
    """Schedules of every kind: orders that interleave layers and repeat units, layer
    partitions that are whole, split or interleaved, caps that cut blocks, and families
    of runs on one cycle that differ only in their stop criteria."""
    hidden = list(net.hidden_ids)
    steps = st.integers(1, 12) | st.integers(13, 400)
    layers = bk.netgraph.hidden_layers(net) if not recurrent else [hidden[::2], hidden[1::2]]
    schedules = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(_KINDS))
        partition = order = None
        if recurrent and kind == "layer_tied":
            kind = "layer_independent"  # self-loops rule out tied subsets
        if kind == "layer_independent":
            partition = draw(st.sampled_from([
                None if not recurrent else tuple(map(tuple, layers)),
                tuple(half for layer in layers for half in (layer[::2], layer[1::2])),
                (tuple(draw(st.permutations(hidden))),),
            ]))
        elif kind == "layer_tied" and draw(st.booleans()):
            partition = tuple(half for layer in layers for half in (layer[::2], layer[1::2]))
        if kind == "sequential" and draw(st.booleans()):
            order = draw(st.lists(st.sampled_from(hidden + [dead]), min_size=1, max_size=16))
        schedules.append(bk.Schedule(
            kind, seed=draw(st.integers(0, 99)), order=order, partition=partition,
            deficit_tol=draw(st.sampled_from(_TOLS)), max_steps=draw(steps),
        ))
    cyclic = [s for s in schedules if s.kind != "stochastic"]
    if cyclic and draw(st.booleans()):
        family = draw(st.sampled_from(cyclic))
        schedules += [
            replace(family, deficit_tol=draw(st.sampled_from(_TOLS)), max_steps=draw(steps))
            for _ in range(draw(st.integers(1, 4)))
        ]
    return schedules


def _same_runs(runs, ref_runs, net=None, schedules=None):
    """Every column bit for bit; given the runs' ``net`` and ``schedules``, the cost and
    deficit columns as ``_same_rows`` holds them to the one-set steps'."""
    for k, ((out, trace), (ref_out, ref_trace)) in enumerate(zip(runs, ref_runs, strict=True)):
        assert out.weights().tobytes() == ref_out.weights().tobytes()
        assert trace.units == ref_trace.units
        assert _bits(trace.lambdas) == _bits(ref_trace.lambdas)
        if schedules is None:
            for col in ("r_series", "deficit_series"):
                assert _bits(getattr(trace, col)) == _bits(getattr(ref_trace, col)), col
        else:
            _same_rows(net, schedules[k], trace, ref_trace.r_series, ref_trace.deficit_series)
        assert _bits([trace.r_initial]) == _bits([ref_trace.r_initial])
        assert trace.notes == ref_trace.notes
        assert trace.converged == ref_trace.converged


def _same_rows(net, schedule, trace, r_series, deficit_series):
    """The cost and deficit columns of a run of ``schedule`` against the one-set steps':
    bit for bit on the last row of each block and of the run, and within
    ``_Engine._rows``' bound on every other row."""
    assert len(trace.r_series) == len(trace.deficit_series) == len(r_series)
    bounds = reference_row_bounds(net, schedule, trace.r_initial, r_series, deficit_series)
    for t, (exact, r_bound, root_bound) in enumerate(bounds):
        row, ref = (trace.r_series[t], trace.deficit_series[t]), (r_series[t], deficit_series[t])
        if exact:
            assert _bits(row) == _bits(ref), t
        else:
            assert abs(row[0] - ref[0]) <= r_bound, t
            assert abs(math.sqrt(row[1]) - math.sqrt(ref[1])) <= root_bound, t


def _one_set_steps(run, *args):
    """``run(*args)`` with every run stepped one set at a time (see ``reference_run_batch``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(balancing, "_run_batch", reference_run_batch)
        return run(*args)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    recurrent=st.booleans(),
    cost=st.sampled_from([bk.l2(), bk.lp(1.5), MIXED]),
    data=st.data(),
)
def test_block_steps_are_the_one_set_steps(seed, recurrent, cost, data):
    net, dead = net_with_dead_unit(seed, recurrent)
    schedules = _block_batch(net, dead, recurrent, data.draw)
    many = bk.run_balancing_many(net, schedules, cost)
    _same_runs(many, _one_set_steps(bk.run_balancing_many, net, schedules, cost), net, schedules)
    pool = net.hidden_ids + net.input_ids
    order = data.draw(st.none() | st.lists(st.sampled_from(pool), max_size=16))
    passes = [bk.partial_balance_pass(net, cost, order)]
    _same_runs(passes, [_one_set_steps(bk.partial_balance_pass, net, cost, order)],
               net, [bk.Schedule("sequential", order=order)])


def test_runs_share_a_batch_only_when_they_share_sets_and_cycle(monkeypatch):
    net = _criterion4_net()
    hidden = list(net.hidden_ids)
    schedules = [bk.Schedule("stochastic", seed=seed, max_steps=50) for seed in range(3)]
    schedules += [bk.Schedule("layer_independent", max_steps=steps) for steps in (5, 50)]
    schedules += [
        bk.Schedule("sequential", order=hidden[::-1], max_steps=50),
        bk.Schedule("layer_tied", max_steps=50),
    ]
    batches = []
    run_batch = balancing._run_batch

    def spy(eng, runs):
        batches.append([trace for *_, trace in runs])
        # every run of a batch splits its steps into the same blocks
        assert len({picks(0, 32)[1].tobytes() for picks, *_ in runs}) == 1
        return run_batch(eng, runs)

    monkeypatch.setattr(balancing, "_run_batch", spy)
    runs = bk.run_balancing_many(net, schedules, bk.l2())
    position = {id(trace): i for i, (_, trace) in enumerate(runs)}
    assert sorted(sorted(position[id(trace)] for trace in batch) for batch in batches) == [
        [0, 1, 2], [3, 4], [5], [6],
    ]


def test_runs_on_one_cycle_step_one_engine_row(monkeypatch):
    net = _criterion4_net()
    hidden = list(net.hidden_ids)
    schedules = [bk.Schedule("stochastic", seed=seed, max_steps=steps)
                 for seed, steps in [(0, 30), (1, 100_000), (2, 75)]]
    schedules += [bk.Schedule("layer_independent", deficit_tol=tol, max_steps=steps)
                  for tol, steps in [(0.0, 5), (1e-3, 100_000), (1e-9, 100_000), (1e-18, 40)]]
    schedules += [bk.Schedule("sequential", order=hidden[::-1], deficit_tol=tol, max_steps=steps)
                  for tol, steps in [(1e-6, 100_000), (0.0, 30)]]
    schedules += [bk.Schedule("layer_tied", max_steps=50)]
    batches, rows = [], []  # per batch: its runs' traces, and the rows of each block it begins
    run_batch, begin = balancing._run_batch, balancing._Engine.begin

    def spy_batch(eng, runs):
        batches.append([trace for *_, trace in runs])
        rows.append([])
        return run_batch(eng, runs)

    def spy_begin(eng, blocks):
        rows[-1].append(blocks.shape[0])
        return begin(eng, blocks)

    monkeypatch.setattr(balancing, "_run_batch", spy_batch)
    monkeypatch.setattr(balancing._Engine, "begin", spy_begin)
    many = bk.run_balancing_many(net, schedules, bk.l2())
    kind = {id(trace): s.kind for s, (_, trace) in zip(schedules, many)}
    assert sorted(len(batch) for batch in batches) == [1, 2, 3, 4]
    for batch, begun in zip(batches, rows):
        if kind[id(batch[0])] == "stochastic":
            # one row per live run: every stochastic step begins a block of one set
            assert begun == [sum(len(trace.units) > t for trace in batch)
                             for t in range(max(len(trace.units) for trace in batch))]
        else:
            assert set(begun) == {1}
    monkeypatch.undo()
    _same_runs(many, _one_set_steps(bk.run_balancing_many, net, schedules, bk.l2()), net, schedules)


def test_replicas_that_leave_mid_block_keep_the_one_set_steps():
    # the criterion-4 net's layers are blocks of 6 sets; caps and tolerances stop the
    # runs of one batch at different steps inside them
    net = _criterion4_net()
    schedules = [
        bk.Schedule("layer_independent", deficit_tol=tol, max_steps=steps)
        for tol, steps in [(0.0, 1), (0.0, 4), (1e-18, 7), (1e-2, 100_000), (1e-3, 100_000),
                           (1e-9, 100_000), (1e-18, 100_000)]
    ]
    for cost in (bk.l2(), MIXED):
        many = bk.run_balancing_many(net, schedules, cost)
        assert [len(trace.units) for _, trace in many] == [1, 4, 7, 9, 17, 71, 154]
        _same_runs(many, _one_set_steps(bk.run_balancing_many, net, schedules, cost), net, schedules)


_CERTIFY_STEPS = {
    "layer_independent": 1454, "sequential": 1454, "layer_tied": 26,
}


def _certify_net():
    return bk.make_layered([32, 64, 64, 10], seed=0, bias_init="uniform")


def test_certify_net_step_counts_and_bits():
    net = _certify_net()
    for kind, n_steps in _CERTIFY_STEPS.items():
        sched = bk.Schedule(kind, deficit_tol=1e-16, max_steps=100_000)
        run = bk.run_balancing(net, sched, bk.l2())
        assert len(run[1].units) == n_steps and run[1].converged, kind
        _same_runs([run], [_one_set_steps(bk.run_balancing, net, sched, bk.l2())], net, [sched])


def test_criterion4_cyclic_step_counts():
    net = _criterion4_net()
    for cost in (bk.l2(), bk.lp(1.5), MIXED):
        for kind in ("sequential", "layer_independent"):
            _, trace = bk.run_balancing(net, bk.Schedule(kind, deficit_tol=1e-18), cost)
            assert len(trace.units) == 154 and trace.converged, (cost, kind)


def test_layer_independent_is_the_sequential_cycle_over_its_partition():
    net = bk.make_recurrent(2, 6, 1, self_loops=True, seed=3)
    net = net.replace_weights(np.where(net.w == 0.0, 0.2, net.w))
    hidden = net.hidden_ids
    # an input unit in the partition is noted as sequential notes a unit no run balances
    split = ((0,) + tuple(hidden[::2]), tuple(hidden[1::2]))
    for partition, order in ((None, None), (split, sum(split, ()))):
        kw = dict(deficit_tol=1e-14, max_steps=5_000)
        layer = bk.Schedule("layer_independent", partition=partition, **kw)
        assert layer == bk.Schedule("sequential", order=order, **kw)
        for cost in (bk.l2(), MIXED):
            # a recurrent net has no layers: the default cycle takes its units by id
            runs = [bk.run_balancing(net, layer, cost),
                    bk.run_balancing(net, bk.Schedule("sequential", order=order, **kw), cost)]
            _same_runs(runs[:1], runs[1:])
            assert runs[0][1].converged
            assert ("unit 0 skipped in order: not balanceable" in runs[0][1].notes) == (order is not None)


def test_a_layer_sweep_solves_each_layer_once(monkeypatch):
    calls = []
    solve = balancing._Engine._lambda

    def counted(self, ks, sums):
        calls.append(len(ks))
        return solve(self, ks, sums)

    monkeypatch.setattr(balancing._Engine, "_lambda", counted)
    sched = bk.Schedule("layer_independent", deficit_tol=1e-16, max_steps=100_000)
    _, trace = bk.run_balancing(_certify_net(), sched, bk.l2())
    assert len(trace.units) == 1454
    # one lambda* computation per visited layer of 64 units, not one per step
    assert len(calls) <= 24 and sum(calls) < 1454 + 64


def test_a_block_raises_only_at_the_step_that_reaches_a_degenerate_set():
    # unit 2's incoming cost underflows to 0.0: it is balanceable, but has no optimum
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(1, bk.HIDDEN, bk.RELU),
             bk.Unit(2, bk.HIDDEN, bk.RELU), bk.Unit(3, bk.OUTPUT, bk.IDENTITY)]
    edges = [bk.Edge(0, 1, 2.0), bk.Edge(1, 3, 0.5), bk.Edge(0, 2, 1e-170), bk.Edge(2, 3, 1.0)]
    net = bk.Network(units, edges)
    sched = bk.Schedule("layer_independent", deficit_tol=1e-12, max_steps=1)
    _, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.units == [1] and trace.lambdas == [0.5] and not trace.converged
    with pytest.raises(balancing.DegenerateUnitError, match="all-zero incoming or outgoing side"):
        bk.run_balancing(net, bk.Schedule("layer_independent", max_steps=2), bk.l2())


# -- a block's rows: its fresh start plus increments, fresh where a run may stop --

_CONTRACT_COSTS = [bk.l1(), bk.l2(), bk.lp(3.0), MIXED]


def _contract_net(shape, seed, sizes):
    if shape == "layered":
        return bk.make_layered(sizes, seed=seed, bias_init="uniform")
    if shape == "recurrent":
        return bk.make_recurrent(2, sizes[1], 1, self_loops=True, seed=seed)
    return recurrent_bipu(seed, sizes[1], (0.5, 1.0, 2.0))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.sampled_from(["layered", "recurrent", "recurrent_bipu"]),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 9), min_size=3, max_size=4),
    cost=st.sampled_from(_CONTRACT_COSTS),
    data=st.data(),
)
# one hidden layer, a block of two: a tol-0 run ends on an exact zero deficit at the
# first step of the second pass, inside its block
@example(shape="layered", seed=295, sizes=[1, 2, 1], cost=bk.l2(), data=None)
@example(shape="layered", seed=142, sizes=[1, 2, 2], cost=bk.l1(), data=None)
def test_block_rows_are_the_one_set_rows_within_the_bound(shape, seed, sizes, cost, data):
    net = _contract_net(shape, seed, sizes)
    hidden = list(net.hidden_ids)
    if data is None:
        family, runs = bk.Schedule("sequential", deficit_tol=0.0, max_steps=60), []
    else:
        kind = data.draw(st.sampled_from(["sequential", "order", "split", "layer_tied"]))
        layers = hidden_layers(net) if shape == "layered" else [hidden[::2], hidden[1::2]]
        split = tuple(tuple(half) for layer in layers for half in (layer[::2], layer[1::2]) if half)
        if kind == "layer_tied" and shape != "layered":
            kind = "split"  # self-loops rule out tied subsets
        family = {
            "sequential": bk.Schedule("sequential"),
            "order": bk.Schedule("sequential", order=data.draw(
                st.lists(st.sampled_from(hidden), min_size=1, max_size=20))),
            "split": bk.Schedule("layer_independent", partition=split),
            "layer_tied": bk.Schedule("layer_tied", partition=data.draw(st.sampled_from([None, split]))),
        }[kind]
        # caps that land inside blocks, and runs on one cycle that differ in their stops
        caps = st.integers(1, 40) | st.integers(41, 600)
        tols = st.sampled_from([0.0, 1e-18, 1e-12, 1e3])
        runs = [(data.draw(tols), data.draw(caps)) for _ in range(data.draw(st.integers(1, 4)))]
    schedules = [replace(family, deficit_tol=tol, max_steps=cap) for tol, cap in runs] or [family]
    many = bk.run_balancing_many(net, schedules, cost)
    _same_runs(many, _one_set_steps(bk.run_balancing_many, net, schedules, cost), net, schedules)
    for schedule, run in zip(schedules, many):
        _same_runs([run], [bk.run_balancing(net, schedule, cost)])
    if data is None:
        assert len(many[0][1].units) == 3 and many[0][1].converged


def test_a_layer_sweep_reduces_afresh_once_per_block(monkeypatch):
    fresh, stepping = [], []
    run_batch, deficit = balancing._run_batch, balancing._Engine.deficit

    def counted_batch(eng, runs):
        stepping.append(True)
        try:
            return run_batch(eng, runs)
        finally:
            stepping.pop()

    def counted(self):
        fresh.extend(stepping)
        return deficit(self)

    monkeypatch.setattr(balancing, "_run_batch", counted_batch)
    monkeypatch.setattr(balancing._Engine, "deficit", counted)
    # layers of 64 and of 6 units; at tol 0 a run on its rounding plateau could stop on
    # any row by the first test of next_fresh, but the later sets' gaps rule that out
    for net, tol, cap, n_steps in ((_certify_net(), 1e-16, 100_000, 1454),
                                   (_criterion4_net(), 1e-18, 100_000, 154),
                                   (_criterion4_net(), 0.0, 2_000, 2_000)):
        fresh.clear()
        sched = bk.Schedule("layer_independent", deficit_tol=tol, max_steps=cap)
        _, trace = bk.run_balancing(net, sched, bk.l2())
        assert len(trace.units) == n_steps and trace.converged == (tol > 0.0)
        # one fresh reduction at each block's end, and one at the run's last row, which
        # finds its stop; stepping one set at a time reduces once per step
        rows = reference_row_bounds(net, sched, trace.r_initial, trace.r_series, trace.deficit_series)
        assert len(fresh) == sum(exact for exact, *_ in rows) < n_steps / 5


def test_the_85k_edge_sweep_keeps_its_steps_and_bits():
    net = bk.make_layered([64, 256, 256, 10], seed=0, bias_init="uniform")
    sched = bk.Schedule("sequential", deficit_tol=1e-16, max_steps=100_000)
    out, trace = bk.run_balancing(net, sched, bk.l2())
    assert len(trace.units) == 5738 and trace.converged
    ref, ref_trace = _one_set_steps(bk.run_balancing, net, sched, bk.l2())
    assert out.weights().tobytes() == ref.weights().tobytes()
    assert trace.units == ref_trace.units and _bits(trace.lambdas) == _bits(ref_trace.lambdas)
    _same_rows(net, sched, trace, ref_trace.r_series, ref_trace.deficit_series)


def test_a_pass_with_nothing_to_balance_notes_it_as_a_run_does():
    shallow = bk.make_layered([2, 3, 1], seed=0)
    w = shallow.weights()
    w[[k for k, e in enumerate(shallow.edges) if e.src in shallow.hidden_ids]] = 0.0
    dead = shallow.replace_weights(w)  # every hidden unit has a dead outgoing side
    for net, order in ((_criterion4_net(), []), (bk.make_layered([2, 1], seed=0), None),
                       (dead, None), (dead, dead.hidden_ids)):
        out, trace = bk.partial_balance_pass(net, bk.l2(), order)
        _, run = bk.run_balancing(net, bk.Schedule("sequential", order=order), bk.l2())
        assert out is net and not trace.units and trace.converged
        assert trace.notes == run.notes and trace.notes[-1] == "nothing to balance"


# -- one input-to-output order: the default cycle is the layer cycle -------------


def _skip_dag(seed):
    """A feedforward net with skip edges whose hidden ids are not in input-to-output order.

    Every hidden unit lies on an input->output path; some have a
    non-homogeneous activation, which runs do not balance.
    """
    rng = np.random.default_rng(seed)
    n_in, n_hid, n_out = int(rng.integers(1, 4)), int(rng.integers(2, 9)), int(rng.integers(1, 3))
    acts = [bk.RELU, bk.leaky_relu(0.3), bk.bipu(1.0, -0.5, 2.0), bk.TANH_UNIT]
    units = [bk.Unit(k, bk.INPUT, bk.IDENTITY) for k in range(n_in)]
    units += [bk.Unit(n_in + k, bk.HIDDEN, acts[rng.integers(len(acts))]) for k in range(n_hid)]
    units += [bk.Unit(len(units) + k, bk.OUTPUT, bk.IDENTITY) for k in range(n_out)]
    # one input-to-output order of the units: inputs, hidden ids shuffled, outputs
    seq = list(range(n_in)) + (n_in + rng.permutation(n_hid)).tolist() + [u.id for u in units[-n_out:]]
    pairs = {(seq[a], seq[b]) for a in range(len(seq)) for b in range(max(a + 1, n_in), len(seq))
             if rng.random() < 0.3}
    for j in range(n_in, n_in + n_hid):  # an edge in from an earlier unit, one out to a later one
        pairs |= {(seq[rng.integers(j)], seq[j]), (seq[j], seq[rng.integers(j + 1, len(seq))])}
    pairs = sorted(pairs)
    sizes = rng.uniform(0.3, 1.5, len(pairs)) * rng.choice([-1.0, 1.0], len(pairs))
    edges = [bk.Edge(a, b, float(w)) for (a, b), w in zip(pairs, sizes)]
    return bk.Network(units, [edges[k] for k in rng.permutation(len(edges))])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), cost=st.sampled_from([bk.l2(), bk.lp(1.5), MIXED]))
def test_the_default_cycle_is_the_layer_cycle(seed, cost):
    net = _skip_dag(seed)
    order = topological_order(net)
    position = {u: k for k, u in enumerate(order)}
    assert sorted(order) == list(range(len(net.units)))
    assert all(position[e.src] < position[e.dst] for e in net.edges)
    hidden = set(net.hidden_ids)
    assert [u for u in order if u in hidden] == [u for layer in hidden_layers(net) for u in layer]
    (seq, a), (lay, b) = (
        bk.run_balancing(net, bk.Schedule(kind, deficit_tol=1e-14, max_steps=2_000), cost)
        for kind in ("sequential", "layer_independent")
    )
    assert seq.w.tobytes() == lay.w.tobytes()
    for column in ("units", "lambdas", "r_series", "deficit_series"):
        assert _bits(getattr(a, column)) == _bits(getattr(b, column)), column
    assert (a.r_initial, a.notes, a.converged) == (b.r_initial, b.notes, b.converged)


def test_the_default_cycle_takes_the_layers_in_order():
    # 0 -> 1 -> 2 -> 4 and 0 -> 3 -> 4: by id, a walk that takes each unit once its
    # sources are done visits the hidden units 1, 2, 3; the layers are [1, 3], [2]
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(4, bk.OUTPUT, bk.IDENTITY)]
    units += [bk.Unit(k, bk.HIDDEN, bk.RELU) for k in (1, 2, 3)]
    edges = [bk.Edge(0, 1, 2.0), bk.Edge(1, 2, 0.5), bk.Edge(2, 4, 3.0),
             bk.Edge(0, 3, 0.25), bk.Edge(3, 4, 1.5)]
    net = bk.Network(units, edges)
    assert topological_order(net) == [0, 1, 3, 2, 4]
    assert hidden_layers(net) == [[1, 3], [2]]
    sched = bk.Schedule("sequential", deficit_tol=0.0, max_steps=6)
    assert bk.run_balancing(net, sched, bk.l2())[1].units == [1, 3, 2, 1, 3, 2]
    assert bk.partial_balance_pass(net, bk.l2())[1].units == [1, 3, 2]
