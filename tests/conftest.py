"""Shared test helpers: independent oracles kept deliberately separate from
the library code paths they check."""

import math

import numpy as np
import pytest

import balancekit as bk
from balancekit.activations import activate
from balancekit.regularizer import weight_cost


def golden_min(f, lo, hi, iters=140):
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def golden_lambda(objective, lo=1e-4, hi=1e4, iters=140):
    """Golden-section search for the best scaling factor, on a log axis."""
    t = golden_min(lambda t: objective(math.exp(t)), math.log(lo), math.log(hi), iters)
    return math.exp(t)


def reference_forward(net, x):
    """Hand-rolled memoized evaluator; sums incoming edges in edge-list order."""
    vals = {}
    for i, v in zip(net.input_ids, x):
        vals[i] = float(v)
    for b in net.bias_ids:
        vals[b] = 1.0

    def value(u):
        if u in vals:
            return vals[u]
        s = 0.0
        for e in net.edges:
            if e.dst == u:
                s += e.weight * value(e.src)
        vals[u] = activate(net.unit(u).activation, s)
        return vals[u]

    return np.array([value(o) for o in net.output_ids])


def reference_network_cost(net, spec):
    """Sum of ``weight_cost`` over ``net.edges``, one edge at a time in edge-list order."""
    total = 0.0
    for e in net.edges:
        total += weight_cost(spec, e.weight)
    return total


def min_norm_hull_point(G):
    """Minimum-norm point of the convex hull of the rows of ``G``.

    Projects (0, ..., 0, 1) onto the cone spanned by the rows with a 1
    appended, a non-negative least-squares problem: for weights u >= 0 the
    residual is |G^T u|^2 + (1 - sum u)^2, and writing u = s * lam with lam
    on the simplex shows that lam = u / sum(u) minimizes |G^T lam| exactly.
    """
    from scipy.optimize import nnls

    G = np.atleast_2d(np.asarray(G, dtype=float))
    A = np.vstack([G.T, np.ones(G.shape[0])])
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    u, _ = nnls(A, b)
    return G.T @ (u / u.sum())


def star_neuron(in_weights, out_weights, activation=None):
    """inputs -> one hidden unit -> outputs, with the given weights."""
    activation = activation or bk.RELU
    n_in, n_out = len(in_weights), len(out_weights)
    units = [bk.Unit(k, bk.INPUT, bk.IDENTITY) for k in range(n_in)]
    hid = n_in
    units.append(bk.Unit(hid, bk.HIDDEN, activation))
    units += [bk.Unit(hid + 1 + k, bk.OUTPUT, bk.IDENTITY) for k in range(n_out)]
    edges = [bk.Edge(k, hid, float(w)) for k, w in enumerate(in_weights)]
    edges += [bk.Edge(hid, hid + 1 + k, float(w)) for k, w in enumerate(out_weights)]
    return bk.Network(units, edges), hid


def chain(weights, hidden_activation=None):
    """input -> hidden -> ... -> hidden -> output with the given edge weights."""
    hidden_activation = hidden_activation or bk.RELU
    n = len(weights) + 1
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY)]
    units += [bk.Unit(k, bk.HIDDEN, hidden_activation) for k in range(1, n - 1)]
    units.append(bk.Unit(n - 1, bk.OUTPUT, bk.IDENTITY))
    edges = [bk.Edge(k, k + 1, float(w)) for k, w in enumerate(weights)]
    return bk.Network(units, edges)


def random_layered(rng, n_layers=None, widths=(2, 5), activation=None, bias=True):
    """Random fully connected layered net with nonzero weights."""
    if n_layers is None:
        n_layers = int(rng.integers(3, 6))
    sizes = [int(rng.integers(widths[0], widths[1] + 1)) for _ in range(n_layers)]
    net = bk.make_layered(
        sizes,
        hidden_activation=activation or bk.leaky_relu(0.3),
        bias=bias,
        seed=int(rng.integers(2**31)),
        bias_init="uniform",
    )
    # keep every weight clearly nonzero so no unit degenerates
    w = net.weights()
    w = np.where(np.abs(w) < 1e-3, 1e-3 * np.sign(w) + (w == 0) * 1e-3, w)
    return net.replace_weights(w)


def recurrent_bipu(seed, n_hidden, exponents):
    """A 2-n_hidden-2 recurrent net with self-loops whose hidden unit with
    position k in the unit list gets a BiPU of exponent exponents[k % len]."""
    base = bk.make_recurrent(2, n_hidden, 2, self_loops=True, seed=seed)
    units = [
        bk.Unit(u.id, u.role, bk.bipu(1.0, -0.5, exponents[k % len(exponents)]))
        if u.role == bk.HIDDEN
        else u
        for k, u in enumerate(base.units)
    ]
    return bk.Network(units, base.edges, recurrent=True, unroll_steps=base.unroll_steps)


def forward_gap(net_a, net_b, rng, n_probes=10):
    """Largest relative output discrepancy over random probe inputs."""
    worst = 0.0
    for _ in range(n_probes):
        x = rng.normal(size=len(net_a.input_ids))
        ya = bk.forward(net_a, x)
        yb = bk.forward(net_b, x)
        gap = np.max(np.abs(ya - yb)) / (1e-12 + np.max(np.abs(ya)))
        worst = max(worst, float(gap))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
