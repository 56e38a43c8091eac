"""Backpropagation, SGD with optional weight costs, balancing interleaving,
datasets and instrumentation.

Training works directly on the graph representation: a small compiled view
holds the weights in one array and runs batches through the network's
``netgraph.EvaluationPlan``, the evaluator ``netgraph.forward`` uses: one
matrix product per level forward, one with the transposed block backward.
Recurrent networks are differentiated through the unrolled synchronous
updates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import balancing, netgraph
from .activations import BIPU, LOGISTIC, derivative_array
from .netgraph import Network
from .regularizer import CostSpec, l2
from .regularizer import derivative_array as cost_derivative_array

LOSSES = ("squared_error", "cross_entropy", "binary_cross_entropy")


class TrainingDiverged(RuntimeError):
    """Loss or weights became non-finite; carries the partial metrics."""

    def __init__(self, message, metrics, network):
        super().__init__(message)
        self.metrics = metrics
        self.network = network


@dataclass
class Dataset:
    """Row-aligned inputs and targets.

    ``targets`` is either a 1-D integer label vector, a 2-D float matrix, or
    None for unlabeled data.
    """

    inputs: np.ndarray
    targets: np.ndarray | None
    name: str = ""

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D (samples x features) array")
        if self.targets is not None:
            self.targets = np.asarray(self.targets)
            if self.targets.shape[0] != self.inputs.shape[0]:
                raise ValueError("inputs and targets disagree on the number of rows")

    @property
    def n_samples(self):
        return self.inputs.shape[0]

    @property
    def labels(self):
        if self.targets is None or self.targets.ndim != 1:
            raise ValueError(f"dataset {self.name!r} has no class labels")
        return self.targets.astype(np.int64)


@dataclass(frozen=True)
class BalanceMode:
    """What balancing to interleave with training.

    kind: "none", "full_at_start", "partial_each_epoch" or "full_each_epoch".
    ``cost`` is the balancing cost (default L2) and may differ from the
    training regularizer; ``tol`` is the stop tolerance of full balancing.
    """

    kind: str = "none"
    tol: float = 1e-8
    cost: CostSpec | None = None
    allow_nonhomogeneous: bool = False

    def __post_init__(self):
        kinds = ("none", "full_at_start", "partial_each_epoch", "full_each_epoch")
        if self.kind not in kinds:
            raise ValueError(f"unknown balance mode {self.kind!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    loss: str
    cost: CostSpec | None = None
    balance: BalanceMode = field(default_factory=BalanceMode)
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


@dataclass
class MetricsRow:
    epoch: int
    train_loss: float
    test_accuracy: float
    network_deficit: float
    frobenius_norm: float


# -- compiled batch evaluation ----------------------------------------------


def _check_bipu(net: Network):
    for u in net.units:
        act = u.activation
        if act.kind == BIPU and act.c < 1.0:
            raise ValueError(f"unit {u.id}: bipu exponent {act.c} < 1 cannot be gradient-trained")


class _Compiled:
    def __init__(self, net: Network):
        self.net = net
        _check_bipu(net)
        self.plan = netgraph.evaluation_plan(net)
        self.w = net.weights()
        self.outputs = net.output_ids
        self.out_groups = netgraph.activation_groups(
            [net.unit(o).activation for o in self.outputs]
        )
        # where the loss enters the backward pass: level -> (output columns of
        # the level, their positions in the output list)
        out_pos = {o: j for j, o in enumerate(self.outputs)}
        self.loss_cols = {}
        for k, level in enumerate(self.plan.levels):
            cols = [c for c, u in enumerate(level.units) if u in out_pos]
            if cols:
                outs = [out_pos[level.units[c]] for c in cols]
                self.loss_cols[k] = (np.array(cols), np.array(outs))

    def network(self) -> Network:
        return self.net.replace_weights(self.w)

    def forward(self, X):
        """Unit-indexed activations and pre-activations of a batch.

        The third value, the blocks and the per-level records, is what
        ``gradient`` backpropagates through.
        """
        blocks = self.plan.blocks(self.w)
        records = []
        acts = self.plan.run(blocks, X, records)
        pres = np.zeros_like(acts)
        for k, _, pre in records:
            pres[:, self.plan.levels[k].units] = pre
        return acts, pres, (blocks, records)

    def loss_and_delta(self, loss, acts, pres, targets):
        """Mean batch loss and dL/d(pre-activation) for the output units."""
        nb = acts.shape[0]
        Y = acts[:, self.outputs]
        if loss == "squared_error":
            diff = Y - targets
            value = 0.5 * float(np.sum(diff * diff)) / nb
            dact = diff / nb
        elif loss == "cross_entropy":
            z = Y - Y.max(axis=1, keepdims=True)
            e = np.exp(z)
            P = e / e.sum(axis=1, keepdims=True)
            value = -float(np.sum(targets * np.log(np.maximum(P, 1e-300)))) / nb
            dact = (P - targets) / nb
        else:  # binary_cross_entropy
            eps = 1e-12
            Yc = np.clip(Y, eps, 1.0 - eps)
            value = -float(np.sum(targets * np.log(Yc) + (1.0 - targets) * np.log(1.0 - Yc))) / nb
            if all(spec.kind == LOGISTIC for spec, _ in self.out_groups):
                # the logistic derivative cancels the cross-entropy quotient
                return value, (Y - targets) / nb
            dact = (Yc - targets) / (Yc * (1.0 - Yc)) / nb
        slopes = netgraph.by_activation(self.out_groups, derivative_array, pres[:, self.outputs])
        return value, dact * slopes

    def loss_only(self, loss, X, targets):
        acts, pres, _ = self.forward(X)
        value, _ = self.loss_and_delta(loss, acts, pres, targets)
        return value

    def gradient(self, loss, X, targets, cost: CostSpec | None):
        """Gradient of mean batch loss (+ full weight cost) per edge."""
        acts, pres, (blocks, records) = self.forward(X)
        value, out_delta = self.loss_and_delta(loss, acts, pres, targets)
        d_vals = np.zeros_like(acts)  # dL/d(unit value) at this point of the schedule
        g_flat = np.zeros(self.plan.block_size)
        g_blocks = self.plan.split(g_flat)
        for step in range(len(records) - 1, -1, -1):
            k, S, pre = records[step]
            level = self.plan.levels[k]
            if step == len(records) - 1:  # nothing downstream of the last level
                delta = np.zeros_like(pre)
            else:
                delta = netgraph.by_activation(level.groups, derivative_array, pre)
                delta *= d_vals[:, level.units]
            if k in self.loss_cols:
                cols, outs = self.loss_cols[k]
                delta[:, cols] += out_delta[:, outs]
            g_blocks[k] += S.T @ delta
            if step:
                # the level overwrote its units; their earlier values reach
                # the loss only through the sources it read
                d_vals[:, level.units] = 0.0
                d_vals[:, level.srcs] += delta @ blocks[k].T
        g = self.plan.edge_values(g_flat)
        if cost is not None:
            g += cost_derivative_array(cost, self.w)
        return value, g


def _prepare_targets(loss, targets, n_outputs):
    targets = np.asarray(targets)
    if loss == "binary_cross_entropy":
        t = targets.astype(float)
        if t.ndim == 1:
            t = t[:, None]
        if t.shape[1] != n_outputs:
            raise ValueError("target width does not match the output layer")
        return t
    if targets.ndim == 1:
        if n_outputs == 1:
            return targets.astype(float)[:, None]
        onehot = np.zeros((targets.shape[0], n_outputs))
        labels = targets.astype(np.int64)
        if labels.min() < 0 or labels.max() >= n_outputs:
            raise ValueError("class labels outside the output range")
        onehot[np.arange(labels.shape[0]), labels] = 1.0
        return onehot
    t = targets.astype(float)
    if t.shape[1] != n_outputs:
        raise ValueError("target width does not match the output layer")
    return t


def gradients(net: Network, batch, loss: str, cost: CostSpec | None = None) -> dict:
    """Per-edge gradient of the mean batch loss plus the weight cost.

    ``batch`` is an (inputs, targets) pair.  The BiLU kink at zero uses the
    x >= 0 slope; cost terms need p >= 1.
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    X, targets = batch
    X = np.asarray(X, dtype=float)
    comp = _Compiled(net)
    t = _prepare_targets(loss, targets, len(comp.outputs))
    _, g = comp.gradient(loss, X, t, cost)
    s = net.structure
    return {(a, b): gk for a, b, gk in zip(s.src.tolist(), s.dst.tolist(), g.tolist())}


def check_trainable(net: Network, train: Dataset, loss: str) -> np.ndarray:
    """``train``'s targets as ``sgd_train`` fits them, after every check it makes before its
    first epoch: a ValueError on a structural problem (``netgraph.check_structure``), a BiPU
    exponent below 1, or targets that do not fit the output layer."""
    netgraph.check_structure(net)
    _check_bipu(net)
    return _prepare_targets(loss, train.targets, len(net.output_ids))


def _accuracy(comp, loss, X, targets_raw):
    acts, _, _ = comp.forward(X)
    Y = acts[:, comp.outputs]
    targets_raw = np.asarray(targets_raw)
    if Y.shape[1] == 1:
        pred = (Y[:, 0] >= 0.5).astype(np.int64)
        truth = np.round(targets_raw.reshape(-1)).astype(np.int64)
        return float(np.mean(pred == truth))
    pred = Y.argmax(axis=1)
    if targets_raw.ndim == 1:
        truth = targets_raw.astype(np.int64)
    else:
        truth = targets_raw.argmax(axis=1)
    return float(np.mean(pred == truth))


_DEFICIT_COST = l2()


def sgd_train(net: Network, train: Dataset, test: Dataset, config: TrainConfig):
    """Minibatch SGD with optional balancing; returns (network, metrics rows).

    A metrics row is emitted for the initial state (epoch 0, after any
    full-at-start balancing) and after every epoch; the deficit column always
    measures the L2 balance deficit.  Raises TrainingDiverged, carrying the
    collected metrics, as soon as the loss or a weight stops being finite.
    What ``check_trainable`` refuses raises ValueError before any work.
    """
    t_train = check_trainable(net, train, config.loss)
    mode = config.balance
    bal_cost = mode.cost if mode.cost is not None else l2()

    def rebalance(net, partial=False):
        """``net`` after one partial pass, or after a sequential run to the mode's tolerance."""
        if partial:
            return balancing.partial_balance_pass(
                net, bal_cost, allow_nonhomogeneous=mode.allow_nonhomogeneous
            )[0]
        sched = balancing.Schedule("sequential", deficit_tol=mode.tol, max_steps=200_000)
        return balancing.run_balancing(net, sched, bal_cost, mode.allow_nonhomogeneous)[0]

    if mode.kind in ("full_at_start", "full_each_epoch"):
        net = rebalance(net)

    comp = _Compiled(net)
    rng = np.random.default_rng(config.seed)
    metrics = []

    def snapshot(epoch):
        current = comp.network()
        row = MetricsRow(
            epoch=epoch,
            train_loss=comp.loss_only(config.loss, train.inputs, t_train),
            test_accuracy=_accuracy(comp, config.loss, test.inputs, test.targets),
            network_deficit=balancing.network_deficit(current, _DEFICIT_COST),
            frobenius_norm=netgraph.frobenius_norm(current),
        )
        metrics.append(row)
        return row

    snapshot(0)
    n = train.n_samples
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            value, g = comp.gradient(config.loss, train.inputs[idx], t_train[idx], config.cost)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", metrics, comp.network()
                )
            comp.w -= config.learning_rate * g
            if not np.all(np.isfinite(comp.w)):
                raise TrainingDiverged(
                    f"non-finite weights at epoch {epoch}", metrics, comp.network()
                )
        if mode.kind in ("partial_each_epoch", "full_each_epoch"):
            comp.w = rebalance(comp.network(), mode.kind == "partial_each_epoch").weights()
        snapshot(epoch)
    return comp.network(), metrics


def metrics_to_csv(rows) -> str:
    out = ["epoch,train_loss,test_accuracy,deficit,frobenius_norm"]
    for r in rows:
        out.append(
            f"{r.epoch},{r.train_loss!r},{r.test_accuracy!r},"
            f"{r.network_deficit!r},{r.frobenius_norm!r}"
        )
    return "\n".join(out) + "\n"


# -- datasets ----------------------------------------------------------------


def make_concentric_circles(n: int, noise: float, seed: int = 0) -> Dataset:
    """Two rings (radius 1 and 2) with Gaussian radial noise, balanced classes."""
    if n < 2:
        raise ValueError("need at least two samples")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    n_inner = n // 2
    labels = np.array([0] * n_inner + [1] * (n - n_inner), dtype=np.int64)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    radii = np.where(labels == 0, 1.0, 2.0) + noise * rng.normal(0.0, 1.0, n)
    X = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    perm = rng.permutation(n)
    return Dataset(X[perm], labels[perm], name="circles")


def stratified_subsample(data: Dataset, fraction: float, seed: int = 0) -> Dataset:
    """Per-class subsample with counts proportional to ``fraction`` (within 1)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    labels = data.labels
    rng = np.random.default_rng(seed)
    keep = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        k = int(np.floor(idx.shape[0] * fraction + 0.5))
        if k == 0:
            raise ValueError(f"fraction {fraction} leaves no samples for class {cls}")
        keep.append(rng.choice(idx, size=k, replace=False))
    keep = np.sort(np.concatenate(keep))
    return Dataset(data.inputs[keep], data.targets[keep], name=f"{data.name}[{fraction}]")


_IDX_DTYPES = {
    0x08: ">u1",
    0x09: ">i1",
    0x0B: ">i2",
    0x0C: ">i4",
    0x0D: ">f4",
    0x0E: ">f8",
}


def read_idx(path) -> np.ndarray:
    """Parse one IDX file (big-endian magic header) into an array, unscaled."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise ValueError(f"{path}: truncated IDX header at byte {len(data)}")
    if data[0] != 0 or data[1] != 0:
        raise ValueError(f"{path}: bad IDX magic at byte 0: {data[:2]!r}")
    code, ndim = data[2], data[3]
    if code not in _IDX_DTYPES:
        raise ValueError(f"{path}: unknown IDX type code {code:#x} at byte 2")
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise ValueError(f"{path}: truncated IDX dimensions at byte {len(data)}")
    dims = struct.unpack_from(">" + "I" * ndim, data, 4)
    dtype = np.dtype(_IDX_DTYPES[code])
    expected = int(np.prod(dims)) * dtype.itemsize
    if len(data) - header_end != expected:
        raise ValueError(
            f"{path}: IDX payload has {len(data) - header_end} bytes at byte "
            f"{header_end}, expected {expected}"
        )
    return np.frombuffer(data, dtype=dtype, count=int(np.prod(dims)), offset=header_end).reshape(
        dims
    )


def load_idx(images_path, labels_path=None, name: str = "idx") -> Dataset:
    """Build a dataset from IDX files; unsigned bytes scale to [0, 1]."""
    imgs = read_idx(images_path)
    X = imgs.reshape(imgs.shape[0], -1).astype(float)
    if imgs.dtype == np.dtype(">u1"):
        X /= 255.0
    targets = None
    if labels_path is not None:
        labels = read_idx(labels_path)
        if labels.ndim != 1:
            raise ValueError(f"{labels_path}: label file must be one-dimensional")
        targets = labels.astype(np.int64)
    return Dataset(X, targets, name=name)


def load_csv(path, label_column: str = "label") -> Dataset:
    """Load a headed CSV with one label column; all other columns are floats."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    offset = 0
    header = None
    label_i = None
    feats = []
    labels = []
    for lineno, line in enumerate(lines, start=1):
        text = line.decode("utf-8").strip("\r")
        if text.strip():
            cells = text.split(",")
            if header is None:
                header = [c.strip() for c in cells]
                if label_column not in header:
                    raise ValueError(
                        f"{path}: header at byte 0 has no column {label_column!r}"
                    )
                label_i = header.index(label_column)
            else:
                if len(cells) != len(header):
                    raise ValueError(
                        f"{path}: line {lineno} (byte {offset}) has {len(cells)} cells, "
                        f"expected {len(header)}"
                    )
                try:
                    row = [float(c) for k, c in enumerate(cells) if k != label_i]
                    lab = float(cells[label_i])
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno} (byte {offset}) has a non-numeric cell"
                    ) from None
                feats.append(row)
                labels.append(lab)
        offset += len(line) + 1
    if header is None:
        raise ValueError(f"{path}: empty file (no header at byte 0)")
    labels = np.array(labels)
    if labels.size and np.all(labels == np.floor(labels)):
        targets = labels.astype(np.int64)
    else:
        targets = labels
    return Dataset(np.array(feats, dtype=float).reshape(len(feats), -1), targets, name=str(path))


def save_csv(data: Dataset, path, label_column: str = "label") -> None:
    if data.targets is None or data.targets.ndim != 1:
        raise ValueError("save_csv needs a dataset with a 1-D target column")
    cols = [f"f{k}" for k in range(data.inputs.shape[1])] + [label_column]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row, lab in zip(data.inputs, data.targets):
            cells = [repr(float(v)) for v in row]
            cells.append(str(int(lab)) if np.issubdtype(data.targets.dtype, np.integer) else repr(float(lab)))
            fh.write(",".join(cells) + "\n")
