"""The level-scheduled evaluator: batched ``forward`` and the training view.

Batches are checked row by row against one-row calls and against the
independent scalar evaluators, across block boundaries, on layered nets,
general DAGs with skip edges and mixed activations within a level, and
recurrent nets with and without self-loops.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.activations import activate
from balancekit.netgraph import ROW_BLOCK, evaluation_plan, hidden_layers
from balancekit.training import _Compiled
from conftest import reference_forward

ACTIVATIONS = [
    bk.RELU,
    bk.leaky_relu(0.2),
    bk.IDENTITY,
    bk.TANH_UNIT,
    bk.LOGISTIC_UNIT,
    bk.bipu(1.0, -0.5, 1.0),
    bk.bipu(0.5, 0.3, 2.0),
]
BATCH_SIZES = [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 1000]
RTOL = 1e-12


def _close(got, want):
    return np.max(np.abs(got - want), initial=0.0) <= RTOL * max(
        1.0, np.max(np.abs(want), initial=0.0)
    )


def _with_activations(net, rng):
    """The same net with a random activation on every hidden and output unit."""
    units = [
        u if u.role in (bk.INPUT, bk.BIAS) else bk.Unit(u.id, u.role, ACTIVATIONS[rng.integers(len(ACTIVATIONS))])
        for u in net.units
    ]
    return bk.Network(units, net.edges, net.recurrent, net.unroll_steps)


def random_dag(rng):
    """Feedforward net over a random order: skip edges, outputs at several depths,
    outputs feeding later units, and now and then a unit with no incoming edge."""
    n_in, n_mid = int(rng.integers(1, 4)), int(rng.integers(2, 9))
    n_out = int(rng.integers(1, 3))
    roles = rng.permutation([bk.OUTPUT] * n_out + [bk.HIDDEN] * (n_mid - n_out))
    units = [bk.Unit(k, bk.INPUT, bk.IDENTITY) for k in range(n_in)]
    units.append(bk.Unit(n_in, bk.BIAS, bk.IDENTITY))
    for k, role in enumerate(roles):
        units.append(bk.Unit(n_in + 1 + k, str(role), bk.IDENTITY))
    edges = []
    for dst in range(n_in + 1, len(units)):
        for src in range(dst):
            if rng.random() < 0.55:
                edges.append(bk.Edge(src, dst, float(rng.uniform(-1.2, 1.2))))
    order = rng.permutation(len(edges))
    return _with_activations(bk.Network(units, [edges[k] for k in order]), rng)


def random_layered_mixed(rng):
    sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
    net = bk.make_layered(sizes, seed=int(rng.integers(2**31)), bias_init="uniform")
    return _with_activations(net, rng)


def random_recurrent(rng, self_loops):
    net = bk.make_recurrent(
        int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 3)),
        self_loops=self_loops, unroll_steps=int(rng.integers(1, 5)),
        seed=int(rng.integers(2**31)),
    )
    w = net.weights() + rng.uniform(-0.3, 0.3, len(net.edges))  # nonzero biases too
    return _with_activations(net.replace_weights(w), rng)


def reference_recurrent_forward(net, x):
    """Scalar synchronous updates from a zero hidden state, edge-list order."""
    vals = {u.id: 0.0 for u in net.units}
    for i, v in zip(net.input_ids, x):
        vals[i] = float(v)
    for b in net.bias_ids:
        vals[b] = 1.0

    def pre(u, state):
        return sum(e.weight * state[e.src] for e in net.edges if e.dst == u)

    for _ in range(net.unroll_steps):
        vals = {**vals, **{h: activate(net.unit(h).activation, pre(h, vals)) for h in net.hidden_ids}}
    return np.array([activate(net.unit(o).activation, pre(o, vals)) for o in net.output_ids])


BUILDERS = {
    "layered": random_layered_mixed,
    "dag": random_dag,
    "recurrent": lambda rng: random_recurrent(rng, self_loops=False),
    "recurrent-self-loops": lambda rng: random_recurrent(rng, self_loops=True),
}


def _reference(net, x):
    return reference_recurrent_forward(net, x) if net.recurrent else reference_forward(net, x)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(BUILDERS)),
    rows=st.sampled_from(BATCH_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_matches_rows_and_reference(kind, rows, seed):
    rng = np.random.default_rng(seed)
    net = BUILDERS[kind](rng)
    X = rng.normal(size=(rows, len(net.input_ids)))
    Y = bk.forward(net, X)
    assert Y.shape == (rows, len(net.output_ids))
    for r in range(rows):
        assert _close(Y[r], bk.forward(net, X[r]))
    # the scalar oracle on the block edges and a spread of other rows
    checked = {0, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, rows - 1} | set(range(0, rows, 97))
    for r in sorted(k for k in checked if 0 <= k < rows):
        assert _close(Y[r], _reference(net, X[r]))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(BUILDERS)), seed=st.integers(0, 2**32 - 1))
def test_training_view_matches_forward(kind, seed):
    rng = np.random.default_rng(seed)
    net = BUILDERS[kind](rng)
    X = rng.normal(size=(ROW_BLOCK + 3, len(net.input_ids)))
    comp = _Compiled(net)
    acts, _, _ = comp.forward(X)
    assert _close(acts[:, comp.outputs], bk.forward(net, X))


def test_mixed_level_is_one_block_per_activation_group():
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(1, bk.BIAS, bk.IDENTITY)]
    units += [bk.Unit(2 + k, bk.HIDDEN, act) for k, act in enumerate(ACTIVATIONS)]
    out = 2 + len(ACTIVATIONS)
    units.append(bk.Unit(out, bk.OUTPUT, bk.IDENTITY))
    edges = [bk.Edge(0, h, 0.3 * h - 1.0) for h in range(2, out)]
    edges += [bk.Edge(1, h, 0.1) for h in range(2, out)]
    edges += [bk.Edge(h, out, 1.0 / h) for h in range(2, out)]
    net = bk.Network(units, edges)
    plan = evaluation_plan(net)
    assert [list(level.units) for level in plan.levels] == [list(range(2, out)), [out]]
    assert len(plan.levels[0].groups) == len(ACTIVATIONS)
    assert plan.weights[0].shape == (2, len(ACTIVATIONS))
    X = np.linspace(-2.0, 2.0, 41)[:, None]
    Y = bk.forward(net, X)
    for x, y in zip(X, Y):
        assert _close(y, reference_forward(net, x))


def test_levels_follow_longest_path_depth():
    net = random_dag(np.random.default_rng(3))
    plan = evaluation_plan(net)
    seen = set(net.input_ids) | set(net.bias_ids)
    for level in plan.levels:
        assert set(level.srcs.tolist()) <= seen
        seen |= set(level.units.tolist())
    assert seen == {u.id for u in net.units}
    assert evaluation_plan(net) is plan
    layered = bk.make_layered([2, 3, 4, 1], seed=0)
    plan = evaluation_plan(layered)
    assert [sorted(level.units.tolist()) for level in plan.levels[:-1]] == hidden_layers(layered)


def test_recurrent_plan_repeats_the_hidden_level():
    net = bk.make_recurrent(2, 3, 1, self_loops=True, unroll_steps=4, seed=1)
    plan = evaluation_plan(net)
    assert plan.schedule == (0, 0, 0, 0, 1)
    assert list(plan.levels[0].units) == net.hidden_ids


@pytest.mark.parametrize("shape", [(3, 2), (3, 4), (0, 1)])
def test_batch_of_wrong_width_raises(shape):
    net = bk.make_layered([3, 4, 2], seed=0)
    with pytest.raises(ValueError, match="expected 3 input values"):
        bk.forward(net, np.zeros(shape))


def test_input_of_three_dimensions_raises():
    net = bk.make_layered([2, 4, 2], seed=0)
    with pytest.raises(ValueError):
        bk.forward(net, np.zeros((2, 1, 2)))


def test_gradient_matches_finite_differences_on_general_dags():
    rng = np.random.default_rng(11)
    smooth = [bk.TANH_UNIT, bk.LOGISTIC_UNIT, bk.IDENTITY, bk.bipu(0.5, 0.3, 2.0)]
    for _ in range(6):
        net = random_dag(rng)
        units = [
            u if u.role in (bk.INPUT, bk.BIAS) else bk.Unit(u.id, u.role, smooth[rng.integers(4)])
            for u in net.units
        ]
        net = bk.Network(units, net.edges)
        X = rng.normal(size=(5, len(net.input_ids)))
        T = rng.normal(size=(5, len(net.output_ids)))
        got = bk.gradients(net, (X, T), "squared_error")
        comp = _Compiled(net)
        w0 = comp.w.copy()
        h = 1e-6
        for k, e in enumerate(net.edges):
            comp.w = w0.copy()
            comp.w[k] += h
            up = comp.loss_only("squared_error", X, T)
            comp.w = w0.copy()
            comp.w[k] -= h
            dn = comp.loss_only("squared_error", X, T)
            fd = (up - dn) / (2 * h)
            assert abs(fd - got[(e.src, e.dst)]) <= 1e-5 * max(1.0, abs(fd))


def test_long_batch_memory_is_blocked():
    # criterion 10's net: 64 ReLU slices of a sine
    n = 64
    samples = [(k / n, float(np.sin(2 * np.pi * k / n))) for k in range(n + 1)]
    net = bk.construct_universal_approximator(samples, epsilon=0.1)
    X = np.linspace(0.0, 1.0, 100_000)[:, None]
    bk.forward(net, X[:10])  # compile the plan outside the measurement
    tracemalloc.start()
    try:
        Y = bk.forward(net, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Y.shape == (100_000, 1)
    # measured: 1.3 MiB, of which 0.8 MB is the result itself; the whole
    # batch evaluated at once peaks at 157 MiB
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cyclic_feedforward_net_raises():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [bk.Edge(0, 1, 1.0), bk.Edge(1, 2, 1.0), bk.Edge(2, 1, 1.0), bk.Edge(2, 3, 1.0)]
    net = bk.Network(units, edges)
    with pytest.raises(ValueError, match="cycle"):
        bk.forward(net, [1.0])
    with pytest.raises(ValueError, match="cycle"):
        hidden_layers(net)
