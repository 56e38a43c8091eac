import numpy as np
import pytest

import balancekit as bk
from balancekit.regularizer import edge_costs
from balancekit.training import (
    _Compiled,
    _prepare_targets,
    metrics_to_csv,
)
from conftest import chain, random_layered


def _total_loss(comp, loss, X, t, cost):
    value = comp.loss_only(loss, X, t)
    if cost is not None:
        value += float(np.sum(edge_costs(cost, comp.w)[0]))
    return value


def _fd_check(net, loss, X, T, cost, tol=1e-5, h=1e-6):
    got = bk.gradients(net, (X, T), loss, cost)
    comp = _Compiled(net)
    t = _prepare_targets(loss, T, len(comp.outputs))
    w0 = comp.w.copy()
    for k, e in enumerate(net.edges):
        comp.w = w0.copy()
        comp.w[k] += h
        up = _total_loss(comp, loss, X, t, cost)
        comp.w = w0.copy()
        comp.w[k] -= h
        dn = _total_loss(comp, loss, X, t, cost)
        fd = (up - dn) / (2 * h)
        assert abs(fd - got[(e.src, e.dst)]) <= tol * max(1.0, abs(fd))


# -- gradients ----------------------------------------------------------------


def test_zero_network_zero_targets_has_zero_data_gradient():
    net = chain([0.0, 0.0], hidden_activation=bk.IDENTITY)
    g = bk.gradients(net, (np.array([[1.0], [2.0]]), np.zeros((2, 1))), "squared_error")
    assert set(g.values()) == {0.0}


def test_single_linear_unit_gradient():
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(1, bk.OUTPUT, bk.IDENTITY)]
    w = 1.7
    net = bk.Network(units, [bk.Edge(0, 1, w)])
    g = bk.gradients(net, (np.array([[2.0]]), np.array([[0.0]])), "squared_error")
    assert abs(g[(0, 1)] - 4.0 * w) <= 1e-12


def test_gradients_match_finite_differences(rng):
    # margins away from the hinge keep central differences valid
    net = random_layered(rng, n_layers=3, activation=bk.leaky_relu(0.2))
    X = rng.normal(size=(6, len(net.input_ids))) + 0.5
    T = rng.integers(0, len(net.output_ids), 6)
    _fd_check(net, "cross_entropy", X, T, bk.l2(0.01))

    net = random_layered(rng, n_layers=3, activation=bk.TANH_UNIT)
    X = rng.normal(size=(6, len(net.input_ids)))
    T = rng.normal(size=(6, len(net.output_ids)))
    _fd_check(net, "squared_error", X, T, bk.l1(0.05))


def test_gradients_recurrent_match_finite_differences(rng):
    net = bk.make_recurrent(
        2, 3, 1,
        hidden_activation=bk.TANH_UNIT,
        output_activation=bk.LOGISTIC_UNIT,
        self_loops=True,
        seed=5,
    )
    X = rng.normal(size=(4, 2))
    T = rng.integers(0, 2, 4)
    _fd_check(net, "binary_cross_entropy", X, T, bk.l2(0.02))


def test_gradient_rejects_fractional_cost_exponents(rng):
    net = random_layered(rng, n_layers=3)
    X = rng.normal(size=(3, len(net.input_ids)))
    T = rng.integers(0, len(net.output_ids), 3)
    with pytest.raises(ValueError, match="p < 1"):
        bk.gradients(net, (X, T), "cross_entropy", bk.lp(0.5))


def test_gradient_rejects_sub_linear_power_units():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.bipu(1.0, 0.0, 0.5)),
        bk.Unit(2, bk.OUTPUT, bk.IDENTITY),
    ]
    net = bk.Network(units, [bk.Edge(0, 1, 1.0), bk.Edge(1, 2, 1.0)])
    with pytest.raises(ValueError, match="bipu"):
        bk.gradients(net, (np.array([[1.0]]), np.array([[1.0]])), "squared_error")


# -- sgd_train ----------------------------------------------------------------


def _circles_split(n=120, noise=0.05, seed=0):
    data = bk.make_concentric_circles(n, noise, seed=seed)
    k = n // 4
    test = bk.Dataset(data.inputs[:k], data.targets[:k], "test")
    train = bk.Dataset(data.inputs[k:], data.targets[k:], "train")
    return train, test


def _toy_net(seed=3):
    return bk.make_layered(
        [2, 5, 1],
        hidden_activation=bk.RELU,
        output_activation=bk.LOGISTIC_UNIT,
        seed=seed,
        bias_init="uniform",
    )


def test_zero_learning_rate_keeps_weights():
    train, test = _circles_split()
    net = _toy_net()
    cfg = bk.TrainConfig(0.0, 16, 3, "binary_cross_entropy", seed=0)
    out, rows = bk.sgd_train(net, train, test, cfg)
    assert np.array_equal(out.weights(), net.weights())
    assert len({r.train_loss for r in rows}) == 1


def test_training_rejects_an_edge_to_an_unknown_unit():
    train, test = _circles_split()
    net = _toy_net()
    net = bk.Network(net.units, net.edges + (bk.Edge(2, 12, 1.0),))
    cfg = bk.TrainConfig(0.1, 16, 1, "binary_cross_entropy", seed=0)
    with pytest.raises(ValueError, match="unknown unit"):
        bk.sgd_train(net, train, test, cfg)


def test_zero_epochs_emits_single_row():
    train, test = _circles_split()
    cfg = bk.TrainConfig(0.1, 16, 0, "binary_cross_entropy", seed=0)
    _, rows = bk.sgd_train(_toy_net(), train, test, cfg)
    assert len(rows) == 1 and rows[0].epoch == 0


def test_training_is_deterministic_per_seed():
    train, test = _circles_split()
    cfg = bk.TrainConfig(0.05, 8, 5, "binary_cross_entropy", cost=bk.l2(0.01), seed=7)
    a, rows_a = bk.sgd_train(_toy_net(), train, test, cfg)
    b, rows_b = bk.sgd_train(_toy_net(), train, test, cfg)
    assert np.array_equal(a.weights(), b.weights())
    assert metrics_to_csv(rows_a) == metrics_to_csv(rows_b)


def test_balance_pass_preserves_training_loss():
    train, test = _circles_split()
    cfg = bk.TrainConfig(0.05, 8, 3, "binary_cross_entropy", seed=1)
    net, _ = bk.sgd_train(_toy_net(), train, test, cfg)
    comp = _Compiled(net)
    t = _prepare_targets("binary_cross_entropy", train.targets, 1)
    before = comp.loss_only("binary_cross_entropy", train.inputs, t)
    balanced, _ = bk.partial_balance_pass(net, bk.l2())
    comp2 = _Compiled(balanced)
    after = comp2.loss_only("binary_cross_entropy", train.inputs, t)
    assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


def test_full_balance_at_start_zeroes_deficit():
    train, test = _circles_split()
    cfg = bk.TrainConfig(
        0.05, 8, 0, "binary_cross_entropy",
        balance=bk.BalanceMode("full_at_start", tol=1e-20), seed=1,
    )
    _, rows = bk.sgd_train(_toy_net(), train, test, cfg)
    assert rows[0].network_deficit <= 1e-10


def test_partial_balancing_drives_ratios_to_one():
    train, test = _circles_split(n=200)
    cfg = bk.TrainConfig(
        0.05, 8, 60, "binary_cross_entropy",
        balance=bk.BalanceMode("partial_each_epoch"), seed=2,
    )
    out, rows = bk.sgd_train(_toy_net(), train, test, cfg)
    for h in out.hidden_ids:
        cin = sum(e.weight**2 for e in bk.in_edges(out, h))
        cout = sum(e.weight**2 for e in bk.out_edges(out, h))
        assert abs((cin / cout) ** 0.5 - 1.0) < 0.05


def test_full_balance_each_epoch_keeps_deficit_tiny():
    train, test = _circles_split()
    cfg = bk.TrainConfig(
        0.05, 8, 3, "binary_cross_entropy",
        balance=bk.BalanceMode("full_each_epoch", tol=1e-18), seed=2,
    )
    _, rows = bk.sgd_train(_toy_net(), train, test, cfg)
    for row in rows[1:]:
        assert row.network_deficit <= 1e-8


def test_balancing_cost_may_differ_from_training_cost():
    # L2-regularized steps interleaved with passes that balance the L1 cost
    train, test = _circles_split()
    cfg = bk.TrainConfig(
        0.05, 8, 5, "binary_cross_entropy", cost=bk.l2(0.01),
        balance=bk.BalanceMode("partial_each_epoch", cost=bk.l1()), seed=2,
    )
    out, _ = bk.sgd_train(_toy_net(), train, test, cfg)
    for h in out.hidden_ids:
        cin = sum(abs(e.weight) for e in bk.in_edges(out, h))
        cout = sum(abs(e.weight) for e in bk.out_edges(out, h))
        assert abs(cin - cout) <= 1e-9 * max(1.0, cin)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_partial_passes_leave_a_net_whose_costs_overflow_as_it_is():
    # zero inputs and targets: the loss and its gradient stay 0 at any weight scale
    net = bk.make_layered([3, 6, 6, 2], seed=0)
    big = net.replace_weights(net.w * 1e200)
    data = bk.Dataset(np.zeros((16, 3)), np.zeros((16, 2)), "zeros")
    cfg = bk.TrainConfig(
        0.05, 8, 2, "squared_error", balance=bk.BalanceMode("partial_each_epoch"), seed=0
    )
    out, rows = bk.sgd_train(big, data, data, cfg)
    assert len(rows) == 3 and not np.isnan(out.w).any()
    assert out.w.tobytes() == big.w.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_partial_metrics():
    train, test = _circles_split()
    net = bk.make_layered([2, 4, 1], hidden_activation=bk.RELU,
                          output_activation=bk.IDENTITY, seed=0, bias_init="uniform")
    cfg = bk.TrainConfig(1e9, 8, 5, "squared_error", seed=0)
    with pytest.raises(bk.TrainingDiverged) as info:
        bk.sgd_train(net, train, test, cfg)
    assert len(info.value.metrics) >= 1


def test_regularized_descent_reaches_balance_on_smooth_task(rng):
    # linear units are in the homogeneous class and keep the loss smooth, so
    # plain descent genuinely reaches a stationary point
    net = bk.make_layered([3, 5, 4, 2], hidden_activation=bk.IDENTITY,
                          output_activation=bk.IDENTITY, seed=8, bias_init="uniform")
    X = rng.normal(size=(40, 3))
    T = np.stack([np.sin(X[:, 0]) + 0.3 * X[:, 1], 0.5 * X[:, 2] - 0.2 * X[:, 0]], axis=1)
    cost = bk.l2(0.01)
    comp = _Compiled(net)
    t = _prepare_targets("squared_error", T, 2)
    d0 = bk.network_deficit(net, bk.l2())
    gn = np.inf
    for _ in range(60_000):
        _, g = comp.gradient("squared_error", X, t, cost)
        gn = float(np.max(np.abs(g)))
        if gn < 1e-5:
            break
        comp.w -= 0.2 * g
    assert gn < 1e-5
    assert bk.network_deficit(comp.network(), bk.l2()) < 1e-4 * d0


def test_unregularized_sgd_breaks_a_balanced_start():
    data = bk.make_concentric_circles(200, 0.3, seed=0)
    train = bk.Dataset(data.inputs, data.targets, "c")
    net = bk.make_layered([2, 16, 16, 1], hidden_activation=bk.RELU,
                          output_activation=bk.LOGISTIC_UNIT, seed=6, bias_init="uniform")
    d_reference = bk.network_deficit(net, bk.l2())
    balanced, _ = bk.run_balancing(
        net, bk.Schedule("sequential", deficit_tol=1e-24, max_steps=200_000), bk.l2()
    )
    cfg = bk.TrainConfig(0.05, 4, 50, "binary_cross_entropy", cost=None, seed=1)
    _, rows = bk.sgd_train(balanced, train, train, cfg)
    assert rows[0].network_deficit <= 1e-10
    assert max(r.network_deficit for r in rows) > 1e-2 * d_reference


def test_recurrent_training_learns_and_balances(rng):
    # classify whether the mean of two inputs is positive, through the
    # recurrent block; balancing passes must not move the loss
    net = bk.make_recurrent(2, 4, 1, hidden_activation=bk.RELU,
                            output_activation=bk.LOGISTIC_UNIT, seed=3, bias=True)
    X = rng.normal(size=(80, 2))
    y = (X.mean(axis=1) > 0).astype(int)
    data = bk.Dataset(X, y, "seq")
    cfg = bk.TrainConfig(0.05, 8, 40, "binary_cross_entropy",
                         balance=bk.BalanceMode("partial_each_epoch"), seed=4)
    out, rows = bk.sgd_train(net, data, data, cfg)
    assert rows[-1].train_loss < rows[0].train_loss
    assert rows[-1].test_accuracy >= 0.8


# -- datasets -----------------------------------------------------------------


def test_circles_noise_free_points_sit_on_radii():
    data = bk.make_concentric_circles(4, 0.0, seed=1)
    r = np.linalg.norm(data.inputs, axis=1)
    want = np.where(data.targets == 0, 1.0, 2.0)
    assert np.max(np.abs(r - want)) <= 1e-12


def test_circles_classes_balanced():
    data = bk.make_concentric_circles(501, 0.05, seed=2)
    counts = np.bincount(data.labels)
    assert abs(int(counts[0]) - int(counts[1])) <= 1


@pytest.mark.slow
def test_circles_not_linearly_separable_but_learnable():
    train, test = _circles_split(n=500, noise=0.05, seed=3)
    linear = bk.make_layered([2, 1], output_activation=bk.LOGISTIC_UNIT,
                             seed=0, bias_init="uniform")
    cfg = bk.TrainConfig(0.05, 8, 200, "binary_cross_entropy", seed=0)
    _, rows = bk.sgd_train(linear, train, test, cfg)
    assert rows[-1].test_accuracy <= 0.7

    cfg = bk.TrainConfig(0.01, 8, 1000, "binary_cross_entropy", seed=0)
    _, rows = bk.sgd_train(_toy_net(seed=0), train, test, cfg)
    assert rows[-1].test_accuracy >= 0.95


def test_stratified_subsample_identity_and_tiny_fractions(rng):
    X = rng.normal(size=(1000, 3))
    y = np.repeat(np.arange(10), 100)
    data = bk.Dataset(X, y, "ten")
    full = bk.stratified_subsample(data, 1.0, seed=0)
    assert np.array_equal(full.inputs, data.inputs)

    tiny = bk.stratified_subsample(data, 0.01, seed=0)
    assert tiny.n_samples == 10
    assert np.array_equal(np.bincount(tiny.labels), np.ones(10, dtype=int))


def test_stratified_subsample_mnist_sized_counts(rng):
    y = np.repeat(np.arange(10), 6000)
    data = bk.Dataset(np.zeros((60_000, 1)), y, "big")
    sub = bk.stratified_subsample(data, 0.01, seed=1)
    assert sub.n_samples == 600
    assert np.array_equal(np.bincount(sub.labels), np.full(10, 60))


def test_stratified_subsample_rejects_empty_classes(rng):
    data = bk.Dataset(np.zeros((20, 1)), np.repeat([0, 1], 10), "small")
    with pytest.raises(ValueError, match="class"):
        bk.stratified_subsample(data, 0.01, seed=0)


# -- file formats -------------------------------------------------------------


def _write_idx(path, array, code, dims):
    import struct

    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, code, len(dims)]))
        fh.write(struct.pack(">" + "I" * len(dims), *dims))
        fh.write(array)


def test_read_idx_exact_bytes(tmp_path):
    p = tmp_path / "t.idx"
    _write_idx(p, bytes([1, 2, 3, 4]), 0x08, (2, 2))
    got = bk.read_idx(p)
    assert got.shape == (2, 2)
    assert got.tolist() == [[1, 2], [3, 4]]


def test_load_idx_scales_bytes_to_unit_interval(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    _write_idx(img, bytes([0, 255, 128, 64]), 0x08, (2, 2))
    _write_idx(lab, bytes([1, 0]), 0x08, (2,))
    data = bk.load_idx(img, lab)
    assert data.inputs.shape == (2, 2)
    assert data.inputs.max() == 1.0 and data.inputs.min() == 0.0
    assert data.labels.tolist() == [1, 0]


def test_read_idx_reports_byte_offsets(tmp_path):
    p = tmp_path / "bad.idx"
    with open(p, "wb") as fh:
        fh.write(bytes([0, 0, 0x08, 2, 0, 0, 0, 2]))  # truncated dims
    with pytest.raises(ValueError, match="byte"):
        bk.read_idx(p)
    with open(p, "wb") as fh:
        fh.write(bytes([9, 9, 0x08, 1]))
    with pytest.raises(ValueError, match="magic"):
        bk.read_idx(p)


def test_csv_round_trip(tmp_path, rng):
    data = bk.Dataset(rng.normal(size=(7, 3)), rng.integers(0, 3, 7), "t")
    p = tmp_path / "d.csv"
    bk.save_csv(data, p)
    back = bk.load_csv(p)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.targets, data.targets)


def test_csv_three_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
    data = bk.load_csv(p)
    assert data.n_samples == 3
    assert data.inputs.shape == (3, 2)


def test_csv_reports_malformed_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,label\n1,0\n1,2,3\n")
    with pytest.raises(ValueError, match="line 3"):
        bk.load_csv(p)
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="label"):
        bk.load_csv(p)
