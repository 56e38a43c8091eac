import hashlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.manifold import UnidentifiableUnitError, _Manifold
from balancekit.regularizer import CostSpec
from conftest import (
    chain,
    golden_lambda,
    net_with_dead_unit,
    random_layered,
    recurrent_bipu,
    reference_constraint_residual,
    reference_constraints,
    reference_log_ratios,
    star_neuron,
)


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


def _unanchored():
    """A recurrent net whose units 2 and 3 reach the visible units only through zero edges."""
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
    return bk.Network(units, edges, recurrent=True)


def _rescaled(net, loglam):
    """``net`` with unit u multiplied by exp(loglam[u]) (every other unit by 1)."""
    lam = {u: math.exp(l) for u, l in loglam.items()}
    return bk.apply_multipliers(net, bk.MultiplierAssignment(lam))


def _fitted_logs(assignment, units):
    return np.array([math.log(assignment.lambda_per_unit[u]) for u in units])


def _cli_recurrent_net():
    """The recurrent 2-6-1 net with self-loops that the CLI benchmark balances."""
    return bk.make_recurrent(2, 6, 1, output_activation=bk.LOGISTIC_UNIT, self_loops=True, seed=0)


# -- the path/cycle reference ---------------------------------------------------


def test_chain_has_single_path_constraint():
    net = chain([1.0, 1.0, 1.0])
    assert reference_constraints(net) == [("path", (0, 1, 2, 3))]


def test_diamond_emits_both_paths():
    cons = reference_constraints(_diamond())
    assert ("path", (0, 1, 3)) in cons
    assert ("path", (0, 2, 3)) in cons
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
    cycles = [units for kind, units in reference_constraints(net) if kind == "cycle"]
    assert len(cycles) == 1
    cyc = cycles[0]
    assert cyc[0] == cyc[-1]
    assert set(cyc) == {1, 2, 3}


def test_constraints_of_the_benchmark_nets_are_pinned():
    # layered: the lowest-id input, or else the bias unit (listed after every
    # hidden unit of the first layer), then the lowest-id unit of each later layer
    for sizes, seed in (([32, 64, 64, 10], 0), ([3, 6, 6, 2], 424242)):
        net = bk.make_layered(sizes, seed=seed, bias_init="uniform")
        first, second = bk.netgraph.hidden_layers(net)
        bias, out = net.bias_ids[0], net.output_ids[0]
        want = [("path", (0, h, second[0], out)) for h in first]
        want += [("path", (bias, h, out)) for h in second]
        assert reference_constraints(net) == want
    # recurrent, with self-loops: 6 paths and 31 cycles, pinned by a digest
    tuples = reference_constraints(_cli_recurrent_net())
    assert len(tuples) == 37
    digest = hashlib.sha256(repr(tuples).encode()).hexdigest()
    assert digest == "301625d45de5eac48a46e592795388d6523dcbaa4d37c976f01996e2bc339440"


def test_uncovered_hidden_unit_is_rejected():
    net = chain([1.0, 0.0, 1.0])  # zero edge cuts unit 1 off the nonzero graph
    with pytest.raises(ValueError, match="unit 1"):
        reference_constraints(net)
    # each hidden unit has a dead side, so no run moves it and the oracle pins
    # both: there is nothing to solve
    assert not net.movable.any()
    sol = bk.solve_convex(net, bk.l2())
    assert sol.iterations == 0
    assert list(sol.multipliers.lambda_per_unit.values()) == [1.0] * 4
    assert "nothing to balance" in bk.run_balancing(net, bk.Schedule("sequential"), bk.l2())[1].notes


# -- fitting runs to the manifold ---------------------------------------------


def test_zero_log_ratios_fit_unit_multipliers(rng):
    net = random_layered(rng)
    for final in (net, _rescaled(net, {h: 0.0 for h in net.hidden_ids})):
        lam, residual = bk.fit_multipliers(final, net)
        assert all(v == 1.0 for v in lam.lambda_per_unit.values())
        assert residual.shape == net.w.shape and not residual.any()


def test_chain_telescoping_recovers_multiplier():
    net = chain([1.0, 1.0])
    lam, residual = bk.fit_multipliers(chain([2.0, 0.5]), net)
    assert abs(lam.lambda_per_unit[1] - 2.0) <= 1e-12
    assert np.max(np.abs(residual)) <= 1e-15


def test_fit_of_a_single_scaling():
    net = chain([1.0, 1.0])
    lam, residual = bk.fit_multipliers(bk.scale_neuron(net, 1, 2.0), net)
    assert abs(lam.lambda_per_unit[1] - 2.0) <= 1e-12
    assert lam.lambda_per_unit[0] == lam.lambda_per_unit[2] == 1.0
    assert np.max(np.abs(residual)) <= 1e-15


def test_perturbed_diamond_edge_has_the_largest_residual():
    net = _diamond()
    final = _rescaled(net, {1: 0.4, 2: -0.2})
    _, residual = bk.fit_multipliers(final, net)
    assert np.max(np.abs(residual)) <= 1e-15
    w = final.weights()
    w[2] *= math.exp(0.1)  # edge (1->3)
    _, residual = bk.fit_multipliers(final.replace_weights(w), net)
    # unit 1 has one edge in and one out, so the fit splits the stray log
    # between (0->1) and (1->3) evenly; the path through unit 2 stays clean
    assert abs(abs(residual[2]) - 0.05) <= 1e-12
    assert abs(residual[2]) >= np.max(np.abs(residual)) * (1 - 1e-12)
    assert np.max(np.abs(residual[[1, 3]])) <= 1e-15


@pytest.mark.parametrize("which", ["criterion-4 l2", "criterion-4 mixed", "cli recurrent"])
def test_fit_names_every_edge_perturbed_alone(which):
    if which == "cli recurrent":
        net, cost = _cli_recurrent_net(), bk.l2()
    else:
        net = bk.make_layered([3, 6, 6, 2], seed=424242, bias_init="uniform")
        cost = bk.parse_cost("l2" if which.endswith("l2") else "0.015*l1+1.0*l2")
    balanced = bk.apply_multipliers(net, bk.solve_convex(net, cost).multipliers).weights()
    live = np.flatnonzero(net.w != 0.0)
    for k in live:
        w = balanced.copy()
        w[k] *= 1.001
        _, residual = bk.fit_multipliers(net.replace_weights(w), net)
        assert np.argmax(np.abs(residual)) == k
        assert abs(residual[k]) >= 8e-4


def test_manifold_is_linear(rng):
    net = random_layered(rng)
    free = sorted(net.hidden_ids)
    for _ in range(5):
        la = {h: float(rng.normal()) for h in free}
        lb = {h: float(rng.normal()) for h in free}
        t = 0.37
        mix = {h: t * la[h] + (1 - t) * lb[h] for h in free}
        fitted = {}
        for name, loglam in (("a", la), ("b", lb), ("mix", mix)):
            lam, residual = bk.fit_multipliers(_rescaled(net, loglam), net)
            assert np.max(np.abs(residual)) <= 1e-12
            fitted[name] = _fitted_logs(lam, free)
        assert np.max(np.abs(t * fitted["a"] + (1 - t) * fitted["b"] - fitted["mix"])) <= 1e-12


@pytest.mark.parametrize(
    "weights, match",
    [
        ([-1.0, 1.0], r"edge \(0->1\) flipped sign"),
        ([1.0, 0.0], r"edge \(1->2\) flipped sign or vanished"),
        ([1.0, math.nan], r"edge \(1->2\): weight ratio nan is not finite"),
        ([math.inf, 1.0], r"edge \(0->1\): weight ratio inf is not finite"),
    ],
)
def test_fit_rejects_what_no_rescaling_does(weights, match):
    net = chain([1.0, 1.0])
    with pytest.raises(ValueError, match=match):
        bk.fit_multipliers(net.replace_weights(weights), net)


def test_fit_rejects_a_weight_that_appears_or_another_edge_list():
    net = chain([1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match=r"edge \(1->2\) went from zero to nonzero"):
        bk.fit_multipliers(chain([1.0, 1.0, 1.0]), net)
    with pytest.raises(ValueError, match="same edge list"):
        bk.fit_multipliers(chain([1.0, 1.0]), net)


def test_full_run_projects_onto_the_manifold(rng):
    net = random_layered(rng)
    sched = bk.Schedule("stochastic", seed=3, deficit_tol=1e-18, max_steps=200_000)
    out, trace = bk.run_balancing(net, sched, bk.lp(1.0))
    assert trace.converged
    _, residual = bk.fit_multipliers(out, net)
    assert np.max(np.abs(residual)) <= 1e-9
    # intermediate states are scalings too, so they stay on the manifold
    mid, _ = bk.run_balancing(
        net, bk.Schedule("stochastic", seed=3, deficit_tol=1e-18, max_steps=7), bk.lp(1.0)
    )
    _, residual = bk.fit_multipliers(mid, net)
    assert np.max(np.abs(residual)) <= 1e-9


def test_fitting_many_runs_at_once_fits_each(rng):
    net = random_layered(rng)
    finals = [_rescaled(net, {h: float(rng.normal()) for h in net.hidden_ids}) for _ in range(3)]
    w = finals[1].weights()
    w[0] *= 1.01
    finals[1] = finals[1].replace_weights(w)
    fits = bk.fit_multipliers_many(finals, net)
    assert len(fits) == 3
    for final, (lam, residual) in zip(finals, fits):
        one_lam, one_residual = bk.fit_multipliers(final, net)
        for u, v in one_lam.lambda_per_unit.items():
            assert abs(lam.lambda_per_unit[u] - v) <= 1e-12 * v
        assert np.max(np.abs(residual - one_residual)) <= 1e-14
    assert np.argmax(np.abs(fits[1][1])) == 0
    assert bk.fit_multipliers_many([], net) == []


def test_fitting_many_runs_names_the_first_bad_run():
    net = chain([1.0, 1.0])
    finals = [chain([2.0, 0.5]), chain([2.0, -0.5]), chain([-1.0, 1.0])]
    with pytest.raises(ValueError, match=r"edge \(1->2\) flipped sign"):
        bk.fit_multipliers_many(finals, net)


def test_fit_requires_anchoring():
    net = _unanchored()
    with pytest.raises(UnidentifiableUnitError, match="2"):
        bk.fit_multipliers(net, net)


_EXPONENTS = st.sampled_from([0.5, 1.0, 1.5, 2.0])


def _manifold_net(seed, recurrent, n_hidden, exponents):
    if recurrent:
        return recurrent_bipu(seed, n_hidden, exponents)
    return random_layered(np.random.default_rng(seed), activation=bk.bipu(1.0, -0.5, exponents[0]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    recurrent=st.booleans(),
    n_hidden=st.integers(2, 5),
    exponents=st.lists(_EXPONENTS, min_size=5, max_size=5),
)
def test_fit_recovers_multipliers_and_agrees_with_the_references(seed, recurrent, n_hidden, exponents):
    net = _manifold_net(seed, recurrent, n_hidden, exponents)
    free = np.flatnonzero(net.structure.free).tolist()
    rng = np.random.default_rng(seed)
    # (a) weights rescaled by random per-unit log multipliers: the fit recovers them
    loglam = dict(zip(free, rng.uniform(-2.0, 2.0, len(free)).tolist()))
    final = _rescaled(net, loglam)
    lam, residual = bk.fit_multipliers(final, net)
    want = np.array([loglam[u] for u in free])
    assert np.max(np.abs(_fitted_logs(lam, free) - want)) <= 1e-12
    bound = 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(residual)) <= bound
    log_ratios = reference_log_ratios(final, net)
    for constraint in reference_constraints(net):
        assert abs(reference_constraint_residual(net, constraint, log_ratios)) <= bound
    # (b) arbitrary per-edge logs: the residual is the dense least-squares one
    m = _Manifold(net)
    L = rng.normal(size=m.src.size)
    A = np.zeros((m.src.size, m.n))
    rows = np.arange(m.src.size)
    np.add.at(A, (rows, m.dst), 1.0)
    np.add.at(A, (rows, m.src), -m.csrc)
    A = A[:, free]
    x = np.linalg.lstsq(A, L, rcond=None)[0]
    _, residual = m.fit(L)
    assert not residual[0][~m.live].any()
    assert np.max(np.abs(residual[0][m.live] - (A @ x - L))) <= 1e-12


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
    lam, residual = bk.fit_multipliers(out, net)
    assert np.max(np.abs(residual)) <= 1e-9
    for u, v in lam.lambda_per_unit.items():
        assert abs(v - sol.multipliers.lambda_per_unit[u]) <= 1e-6


def test_oracle_optimum_is_balanced_and_optimal(rng):
    net = random_layered(rng)
    p = 1.5
    sol = bk.solve_convex(net, bk.lp(p))
    induced = bk.apply_multipliers(net, sol.multipliers)
    for h in net.hidden_ids:
        a = sum(abs(e.weight) ** p for e in bk.in_edges(induced, h))
        b = sum(abs(e.weight) ** p for e in bk.out_edges(induced, h))
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
    assert len(sol.constraint_residuals) == len(net.edges)
    assert max(abs(r) for r in sol.constraint_residuals) <= 1e-9
    # a zero edge keeps its slot in the edge-list layout, at 0.0
    w = net.weights()
    w[0] = 0.0  # every unit of a fully connected layered net keeps a path
    sol = bk.solve_convex(net.replace_weights(w), bk.l2())
    assert len(sol.constraint_residuals) == len(net.edges)
    assert sol.constraint_residuals[0] == 0.0
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
        lam, _ = bk.fit_multipliers(out, net)
        for u, v in lam.lambda_per_unit.items():
            assert abs(v - sol.multipliers.lambda_per_unit[u]) <= 1e-6
        log_ratios = reference_log_ratios(out, net)
        for con in reference_constraints(net):
            assert abs(reference_constraint_residual(net, con, log_ratios)) <= 1e-6


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
    lam, residual = bk.fit_multipliers(out, net)
    assert np.max(np.abs(residual)) <= 1e-9
    for u, v in lam.lambda_per_unit.items():
        assert abs(v - sol.multipliers.lambda_per_unit[u]) <= 1e-6


def test_oracle_requires_anchoring():
    with pytest.raises(UnidentifiableUnitError, match="2"):
        bk.solve_convex(_unanchored(), bk.l2())


def _drift():
    """A recurrent net whose cycle 1 <-> 2 is fed only through a zero edge from the input."""
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [bk.Edge(0, 1, 0.0), bk.Edge(1, 2, 1.5), bk.Edge(2, 1, 0.5), bk.Edge(2, 3, 2.0)]
    return bk.Network(units, edges, recurrent=True)


def test_a_cycle_fed_only_through_zero_edges_has_one_refusal():
    net = _drift()
    # both units move, but scaling them together by lam < 1 lowers the cost without
    # end: a run drifts, and the cost has no minimum to certify
    out, trace = bk.run_balancing(net, bk.Schedule("sequential", max_steps=2000), bk.l2())
    assert net.movable.tolist() == [False, True, True, False]
    assert not trace.converged and abs(out.w[3]) < 0.1
    message = "units [1, 2] lie on no path of nonzero edges between units that do not move"
    for entry in (lambda: bk.solve_convex(net, bk.l2()), lambda: bk.fit_multipliers(net, net)):
        with pytest.raises(UnidentifiableUnitError, match=f"^{re.escape(message)}$"):
            entry()


_PROBE_COSTS = (bk.l1(), bk.l2(), bk.lp(3.0), bk.parse_cost("0.015*l1+1.0*l2"))


def _sparsified(seed):
    """A random layered net with 20-60% of its weights zeroed."""
    rng = np.random.default_rng(seed)
    net = random_layered(rng)
    w = net.weights()
    w[rng.choice(w.size, round(rng.uniform(0.2, 0.6) * w.size), replace=False)] = 0.0
    return net.replace_weights(w)


def _certify(net, cost):
    """The oracle certifies ``net``, pins what no run moves, and agrees with a converged run."""
    sol = bk.solve_convex(net, cost)
    assert sol.grad_norm <= 1e-10
    lam = sol.multipliers.lambda_per_unit
    assert all(lam[u] == 1.0 for u in np.flatnonzero(~net.movable).tolist())
    sched = bk.Schedule("sequential", deficit_tol=1e-28, max_steps=100_000)
    out, trace = bk.run_balancing(net, sched, cost)
    assert trace.converged
    live = net.w != 0.0
    oracle = bk.apply_multipliers(net, sol.multipliers).w
    assert np.max(np.abs(np.log(out.w[live] / oracle[live])), initial=0.0) <= 1e-6
    assert np.max(np.abs(bk.fit_multipliers(out, net)[1])) <= 1e-12


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["dead layered", "dead recurrent", "sparsified"]),
    cost=st.sampled_from(_PROBE_COSTS),
)
def test_the_oracle_certifies_the_nets_a_run_balances(seed, family, cost):
    # a dead-sided unit, which every run skips, or a live unit off the nonzero
    # input->output paths: the oracle moves exactly the units a run moves
    if family == "sparsified":
        net = _sparsified(seed)
    else:
        net = net_with_dead_unit(seed, family == "dead recurrent")[0]
    _certify(net, cost)


def test_the_oracle_certifies_every_dead_unit_net_of_the_engine_tests():
    for seed in range(40):
        for recurrent in (False, True):
            net, dead = net_with_dead_unit(seed, recurrent)
            assert not net.movable[dead]
            for cost in _PROBE_COSTS:
                _certify(net, cost)


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
