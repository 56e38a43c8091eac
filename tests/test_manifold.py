import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.manifold import (
    Constraint,
    SelfConsistentConfig,
    UnidentifiableUnitError,
    constraint_residual,
)
from balancekit.regularizer import CostSpec
from conftest import chain, golden_lambda, random_layered, recurrent_bipu, star_neuron


def _diamond():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [
        bk.Edge(0, 1, 1.0),
        bk.Edge(0, 2, 0.5),
        bk.Edge(1, 3, -1.0),
        bk.Edge(2, 3, 2.0),
    ]
    return bk.Network(units, edges)


def _induced_config(net, loglam):
    """Per-edge logs induced by per-unit log multipliers (source exponent applied)."""
    c = net.structure.exponent
    L = {}
    for e in net.edges:
        if e.weight != 0.0:
            L[(e.src, e.dst)] = loglam.get(e.dst, 0.0) - c[e.src] * loglam.get(e.src, 0.0)
    return SelfConsistentConfig(L)


# -- constraints ---------------------------------------------------------------


def test_chain_has_single_path_constraint():
    net = chain([1.0, 1.0, 1.0])
    cons = bk.enumerate_constraints(net)
    assert cons == [Constraint("path", (0, 1, 2, 3))]


def test_diamond_emits_both_paths():
    cons = bk.enumerate_constraints(_diamond())
    assert Constraint("path", (0, 1, 3)) in cons
    assert Constraint("path", (0, 2, 3)) in cons
    assert len(cons) == 2


def test_recurrent_cycle_constraint():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.HIDDEN, bk.RELU),
        bk.Unit(4, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [
        bk.Edge(0, 1, 1.0),
        bk.Edge(1, 2, 1.0),
        bk.Edge(2, 3, 1.0),
        bk.Edge(3, 1, 1.0),
        bk.Edge(3, 4, 1.0),
    ]
    net = bk.Network(units, edges, recurrent=True)
    cons = bk.enumerate_constraints(net)
    cycles = [c for c in cons if c.kind == "cycle"]
    assert len(cycles) == 1
    cyc = cycles[0].units
    assert cyc[0] == cyc[-1]
    assert set(cyc) == {1, 2, 3}


def test_constraints_of_the_benchmark_nets_are_pinned():
    # layered: the lowest-id input, or else the bias unit (listed after every
    # hidden unit of the first layer), then the lowest-id unit of each later layer
    for sizes, seed in (([32, 64, 64, 10], 0), ([3, 6, 6, 2], 424242)):
        net = bk.make_layered(sizes, seed=seed, bias_init="uniform")
        first, second = bk.netgraph.hidden_layers(net)
        bias, out = net.bias_ids[0], net.output_ids[0]
        want = [Constraint("path", (0, h, second[0], out)) for h in first]
        want += [Constraint("path", (bias, h, out)) for h in second]
        assert bk.enumerate_constraints(net) == want
    # recurrent, with self-loops: 6 paths and 31 cycles, pinned by a digest
    net = bk.make_recurrent(2, 6, 1, output_activation=bk.LOGISTIC_UNIT, self_loops=True, seed=0)
    tuples = [(c.kind, c.units) for c in bk.enumerate_constraints(net)]
    assert len(tuples) == 37
    digest = hashlib.sha256(repr(tuples).encode()).hexdigest()
    assert digest == "301625d45de5eac48a46e592795388d6523dcbaa4d37c976f01996e2bc339440"


def test_uncovered_hidden_unit_is_rejected():
    net = chain([1.0, 0.0, 1.0])  # zero edge cuts unit 1 off the nonzero graph
    with pytest.raises(ValueError, match="unit 1"):
        bk.enumerate_constraints(net)


# -- self-consistency -----------------------------------------------------------


def test_zero_config_is_consistent(rng):
    net = random_layered(rng)
    ok, lam = bk.is_self_consistent(_induced_config(net, {}), net)
    assert ok
    assert all(v == 1.0 for v in lam.lambda_per_unit.values())


def test_chain_telescoping_recovers_multiplier():
    net = chain([1.0, 1.0])
    cfg = SelfConsistentConfig({(0, 1): math.log(2.0), (1, 2): -math.log(2.0)})
    ok, lam = bk.is_self_consistent(cfg, net)
    assert ok
    assert abs(lam.lambda_per_unit[1] - 2.0) <= 1e-12


def test_perturbed_diamond_reports_conflict():
    net = _diamond()
    loglam = {1: 0.4, 2: -0.2}
    cfg = _induced_config(net, loglam)
    ok, _ = bk.is_self_consistent(cfg, net)
    assert ok
    cfg.l_per_edge[(1, 3)] += 0.1
    ok, msg = bk.is_self_consistent(cfg, net)
    assert not ok
    assert "unit 3" in msg


def test_manifold_is_linear(rng):
    net = random_layered(rng)
    for _ in range(5):
        la = {h: float(rng.normal()) for h in net.hidden_ids}
        lb = {h: float(rng.normal()) for h in net.hidden_ids}
        t = 0.37
        mix = {h: t * la[h] + (1 - t) * lb[h] for h in net.hidden_ids}
        for cfg in (la, lb, mix):
            ok, _ = bk.is_self_consistent(_induced_config(net, cfg), net)
            assert ok


def test_missing_edge_entry_is_an_error():
    net = chain([1.0, 1.0])
    with pytest.raises(ValueError, match="missing"):
        bk.is_self_consistent(SelfConsistentConfig({(0, 1): 0.0}), net)


# -- projecting runs -------------------------------------------------------------


def test_projection_of_noop_is_zero(rng):
    net = random_layered(rng)
    cfg = bk.project_balancing_run(net, net)
    assert all(v == 0.0 for v in cfg.l_per_edge.values())


def test_projection_of_single_scaling():
    net = chain([1.0, 1.0])
    scaled = bk.scale_neuron(net, 1, 2.0)
    cfg = bk.project_balancing_run(scaled, net)
    assert abs(cfg.l_per_edge[(0, 1)] - math.log(2.0)) <= 1e-12
    assert abs(cfg.l_per_edge[(1, 2)] + math.log(2.0)) <= 1e-12


def test_projection_rejects_sign_flips():
    net = chain([1.0, 1.0])
    flipped = net.replace_weights([-1.0, 1.0])
    with pytest.raises(ValueError, match="sign"):
        bk.project_balancing_run(flipped, net)


def test_full_run_projects_onto_the_manifold(rng):
    net = random_layered(rng)
    sched = bk.Schedule("stochastic", seed=3, deficit_tol=1e-18, max_steps=200_000)
    out, trace = bk.run_balancing(net, sched, bk.lp(1.0))
    assert trace.converged
    cfg = bk.project_balancing_run(out, net)
    ok, lam = bk.is_self_consistent(cfg, net, tol=1e-7)
    assert ok
    # intermediate states are scalings too, so they stay on the manifold
    mid, _ = bk.run_balancing(
        net, bk.Schedule("stochastic", seed=3, deficit_tol=1e-18, max_steps=7), bk.lp(1.0)
    )
    ok, _ = bk.is_self_consistent(bk.project_balancing_run(mid, net), net, tol=1e-7)
    assert ok


# -- the convex oracle ------------------------------------------------------------


def test_oracle_on_balanced_net_returns_identity(rng):
    net = random_layered(rng)
    sched = bk.Schedule("sequential", deficit_tol=1e-24, max_steps=200_000)
    balanced, _ = bk.run_balancing(net, sched, bk.l2())
    sol = bk.solve_convex(balanced, bk.l2())
    assert all(abs(v - 1.0) <= 1e-7 for v in sol.multipliers.lambda_per_unit.values())
    assert abs(sol.r_star - bk.network_cost(balanced, bk.l2())) <= 1e-9 * sol.r_star


def test_oracle_single_unit_example():
    net, hid = star_neuron([2.0], [1.0, 1.0])
    sol = bk.solve_convex(net, bk.l2())
    assert abs(sol.multipliers.lambda_per_unit[hid] - 0.8408964152537145) <= 1e-9
    assert abs(sol.r_star - 2.0 * math.sqrt(8.0)) <= 1e-9
    lam_search = golden_lambda(
        lambda lam: 4.0 * lam**2 + 2.0 / lam**2
    )
    assert abs(sol.multipliers.lambda_per_unit[hid] - lam_search) <= 1e-7


def test_oracle_matches_balancing_on_random_nets(rng):
    net = random_layered(rng, n_layers=5)
    sol = bk.solve_convex(net, bk.l2())
    sched = bk.Schedule("stochastic", seed=1, deficit_tol=1e-20, max_steps=300_000)
    out, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.converged
    assert abs(sol.r_star - bk.network_cost(out, bk.l2())) <= 1e-6 * sol.r_star
    cfg = bk.project_balancing_run(out, net)
    ok, lam = bk.is_self_consistent(cfg, net, tol=1e-6)
    assert ok
    for u, v in lam.lambda_per_unit.items():
        assert abs(v - sol.multipliers.lambda_per_unit[u]) <= 1e-6


def test_oracle_optimum_is_balanced_and_optimal(rng):
    net = random_layered(rng)
    p = 1.5
    sol = bk.solve_convex(net, bk.lp(p))
    induced = bk.apply_multipliers(net, sol.multipliers)
    for h in net.hidden_ids:
        a = sum(abs(e.weight) ** p for e in induced._in[h])
        b = sum(abs(e.weight) ** p for e in induced._out[h])
        assert abs(a - b) <= 1e-8 * max(1.0, a)
    # strict convexity: random unit-scale perturbations of the log multipliers lose
    free = sorted(net.hidden_ids)
    base = np.array([math.log(sol.multipliers.lambda_per_unit[u]) for u in free])
    for _ in range(100):
        delta = rng.normal(size=len(free))
        delta *= 1e-3 / np.linalg.norm(delta)
        lam = {u: math.exp(l) for u, l in zip(free, base + delta)}
        perturbed = bk.apply_multipliers(net, bk.MultiplierAssignment(lam))
        assert bk.network_cost(perturbed, bk.lp(p)) >= sol.r_star - 1e-12 * sol.r_star


def test_oracle_dimension_accounting(rng):
    # free variables = hidden units; the rescaling map is injective on them
    net = random_layered(rng, n_layers=4)
    free = [u for u in net.hidden_ids]
    rows = []
    for e in net.edges:
        row = np.zeros(len(free))
        if e.dst in free:
            row[free.index(e.dst)] += 1.0
        if e.src in free:
            row[free.index(e.src)] -= 1.0
        rows.append(row)
    T = np.array(rows)
    assert np.linalg.matrix_rank(T) == len(free)

    # width-1 chain: edge count minus largest layer equals the hidden count
    net = chain([1.0, 2.0, 3.0, 4.0])
    assert len(net.edges) - 1 == len(net.hidden_ids)


def test_oracle_residuals_and_report_fields(rng):
    net = random_layered(rng)
    sol = bk.solve_convex(net, bk.l2())
    assert sol.grad_norm <= 1e-10
    assert sol.iterations >= 1
    assert max(abs(r) for r in sol.constraint_residuals) <= 1e-9


def test_oracle_bipu_constraints(rng):
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY)]
    units += [
        bk.Unit(1, bk.HIDDEN, bk.bipu(1.0, 0.4, 2.0)),
        bk.Unit(2, bk.HIDDEN, bk.bipu(1.0, -0.3, 3.0)),
        bk.Unit(3, bk.HIDDEN, bk.RELU),
    ]
    units.append(bk.Unit(4, bk.OUTPUT, bk.IDENTITY))
    edges = [
        bk.Edge(0, 1, 0.9),
        bk.Edge(0, 3, 0.4),
        bk.Edge(1, 2, 1.2),
        bk.Edge(1, 3, -0.8),
        bk.Edge(2, 4, 0.6),
        bk.Edge(3, 4, 1.1),
    ]
    net = bk.Network(units, edges)
    for p in (1.0, 2.0):
        sol = bk.solve_convex(net, bk.lp(p))
        sched = bk.Schedule("stochastic", seed=9, deficit_tol=1e-22, max_steps=300_000)
        out, trace = bk.run_balancing(net, sched, bk.lp(p))
        assert trace.converged
        oracle_net = bk.apply_multipliers(net, sol.multipliers)
        assert np.max(np.abs(out.weights() - oracle_net.weights())) <= 1e-6
        cfg = bk.project_balancing_run(out, net)
        for con in bk.enumerate_constraints(net):
            assert abs(constraint_residual(net, con, cfg)) <= 1e-6


def test_oracle_recurrent_with_cycles(rng):
    net = bk.make_recurrent(2, 4, 1, hidden_activation=bk.leaky_relu(0.2),
                            self_loops=True, seed=4, bias=False)
    w = net.weights()
    w[np.abs(w) < 1e-2] = 0.05
    net = net.replace_weights(w)
    sol = bk.solve_convex(net, bk.l2())
    sched = bk.Schedule("stochastic", seed=2, deficit_tol=1e-22, max_steps=300_000)
    out, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.converged
    assert np.max(np.abs(out.weights() - bk.apply_multipliers(net, sol.multipliers).weights())) <= 1e-6
    cfg = bk.project_balancing_run(out, net)
    ok, _ = bk.is_self_consistent(cfg, net, tol=1e-6)
    assert ok


def test_oracle_requires_anchoring():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.HIDDEN, bk.RELU),
        bk.Unit(4, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [
        bk.Edge(0, 1, 1.0),
        bk.Edge(1, 4, 1.0),
        bk.Edge(2, 3, 1.0),
        bk.Edge(3, 2, 0.5),
        bk.Edge(0, 2, 0.0),  # only zero weights tie 2,3 to the anchored part
        bk.Edge(3, 4, 0.0),
    ]
    net = bk.Network(units, edges, recurrent=True)
    with pytest.raises(UnidentifiableUnitError, match="2"):
        bk.solve_convex(net, bk.l2())


_COST_TERMS = st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.01, 10.0))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    recurrent=st.booleans(),
    n_hidden=st.integers(2, 5),
    exponents=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=5, max_size=5),
    terms=st.lists(_COST_TERMS, min_size=1, max_size=2),
)
def test_oracle_agrees_with_the_engine_on_every_cost(seed, recurrent, n_hidden, exponents, terms):
    if recurrent:
        net = recurrent_bipu(seed, n_hidden, exponents)
    else:
        net = random_layered(np.random.default_rng(seed))
    cost = CostSpec(tuple(terms))
    sol = bk.solve_convex(net, cost)
    sched = bk.Schedule("stochastic", seed=seed, deficit_tol=1e-18, max_steps=300_000)
    out, trace = bk.run_balancing(net, sched, cost)
    assert trace.converged
    oracle = bk.apply_multipliers(net, sol.multipliers).weights()
    assert np.max(np.abs(out.weights() - oracle)) <= 1e-6 * np.max(np.abs(net.weights()))
    assert sol.r_star <= bk.network_cost(out, cost) * (1 + 1e-12)


def test_newton_takes_few_iterations_on_random_nets():
    # near the optimum the full step's decrease is below the objective's
    # rounding; the line search must take it rather than creep by ulp steps
    worst = 0
    for seed in range(300):
        net = bk.make_layered([3, 5, 4, 2], seed=seed, bias_init="uniform")
        for cost in ("l1", "l2", "lp:3", "lp:0.5"):
            sol = bk.solve_convex(net, bk.parse_cost(cost))
            worst = max(worst, sol.iterations)
    assert worst <= 12


_LOG_MAX, _LOG_TINY = math.log(sys.float_info.max), math.log(sys.float_info.min)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-500, 500),
    p=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
@example(seed=0, k=500, p=3.0)
@example(seed=0, k=-500, p=3.0)
def test_oracle_is_scale_free(seed, k, p):
    """Scaling every weight by s = 2**k leaves the multipliers and scales r* by s**p."""
    net = random_layered(np.random.default_rng(seed))
    cost = bk.lp(p)
    ref = bk.solve_convex(net, cost)
    sol = bk.solve_convex(net.replace_weights(net.weights() * 2.0**k), cost)
    for u, lam in ref.multipliers.lambda_per_unit.items():
        assert abs(sol.multipliers.lambda_per_unit[u] - lam) <= 1e-10 * lam
    assert not math.isnan(sol.r_star)
    log_r = p * k * math.log(2.0) + math.log(ref.r_star)
    if _LOG_TINY + 1e-9 < log_r < _LOG_MAX - 1e-9:
        assert abs(sol.r_star - math.exp(log_r)) <= 1e-12 * math.exp(log_r)
    elif log_r > _LOG_MAX:
        assert sol.r_star == math.inf
    elif log_r < _LOG_TINY:
        assert 0.0 <= sol.r_star < sys.float_info.min


# -- tied layers ------------------------------------------------------------------


def test_tied_closed_form_symmetric_case():
    assert bk.tied_layer_closed_form([3.0, 3.0, 3.0]) == [1.0, 1.0, 1.0]


def test_tied_closed_form_matches_iterated_balancing():
    # two 1x1 matrices with entries 2 and 1 (squared norms 4 and 1)
    net = chain([2.0, 1.0])
    current = net
    for _ in range(100):
        current, _ = bk.balance_subset_tied(current, [1], bk.l2())
    m1 = current.edges[0].weight / net.edges[0].weight
    m2 = current.edges[1].weight / net.edges[1].weight
    closed = bk.tied_layer_closed_form([4.0, 1.0])
    assert abs(closed[0] - m1) <= 1e-12
    assert abs(closed[1] - m2) <= 1e-12
    assert abs(closed[0] - math.sqrt(0.5)) <= 1e-12
    assert abs(closed[1] - math.sqrt(2.0)) <= 1e-12


def test_tied_closed_form_three_layers_vs_run():
    # squared norms 1, 4, 9 realized by a 1-1-1-1 chain with weights 1, 2, 3
    net = chain([1.0, 2.0, 3.0])
    sched = bk.Schedule(
        "layer_tied", partition=((1,), (2,)), deficit_tol=1e-26, max_steps=100_000
    )
    out, trace = bk.run_balancing(net, sched, bk.l2())
    assert trace.converged
    got = [b.weight / a.weight for a, b in zip(net.edges, out.edges)]
    closed = bk.tied_layer_closed_form([1.0, 4.0, 9.0])
    assert max(abs(a - b) for a, b in zip(got, closed)) <= 1e-8
    prod = closed[0] * closed[1] * closed[2]
    assert abs(prod - 1.0) <= 1e-12
    scaled = [m * m * n for m, n in zip(closed, [1.0, 4.0, 9.0])]
    assert max(scaled) - min(scaled) <= 1e-9


def test_tied_closed_form_rejects_zero_norm():
    with pytest.raises(ValueError):
        bk.tied_layer_closed_form([1.0, 0.0])
