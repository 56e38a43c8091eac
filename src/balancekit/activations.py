"""Activation functions with positive-scaling structure: BiLU, BiPU, sigmoidal.

BiLU units (two half-lines through the origin) are exactly the activations
satisfying f(lam * x) = lam * f(x) for lam > 0; BiPU units satisfy
f(lam * x) = lam**c * f(x).  The scaling exponent returned by
``homogeneity_exponent`` is what every balancing operation keys on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BILU = "bilu"
BIPU = "bipu"
TANH = "tanh"
LOGISTIC = "logistic"

_KINDS = (BILU, BIPU, TANH, LOGISTIC)


@dataclass(frozen=True)
class ActivationSpec:
    """A unit nonlinearity.

    kind "bilu":     slope ``a`` for x < 0, slope ``b`` for x >= 0.
    kind "bipu":     C * x**c for x >= 0, D * |x|**c for x < 0; c > 0 so
                     the function is continuous at 0.
    kind "tanh" / "logistic": the usual sigmoids, no parameters.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    C: float = 0.0
    D: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == BIPU and not self.c > 0:
            raise ValueError("bipu exponent c must be > 0")


def bilu(a: float, b: float) -> ActivationSpec:
    return ActivationSpec(BILU, a=float(a), b=float(b))


def bipu(C: float, D: float, c: float) -> ActivationSpec:
    return ActivationSpec(BIPU, C=float(C), D=float(D), c=float(c))


RELU = bilu(0.0, 1.0)
IDENTITY = bilu(1.0, 1.0)
TANH_UNIT = ActivationSpec(TANH)
LOGISTIC_UNIT = ActivationSpec(LOGISTIC)


def leaky_relu(eps: float = 0.01) -> ActivationSpec:
    return bilu(eps, 1.0)


def activate(spec: ActivationSpec, x: float) -> float:
    """Evaluate the activation at a scalar point (exact piecewise formula)."""
    x = float(x)
    if spec.kind == BILU:
        return spec.b * x if x >= 0.0 else spec.a * x
    if spec.kind == BIPU:
        if x >= 0.0:
            return spec.C * x**spec.c
        return spec.D * abs(x) ** spec.c
    if spec.kind == TANH:
        return math.tanh(x)
    # logistic, numerically stable on both tails
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def activation_derivative(spec: ActivationSpec, x: float) -> float:
    """df/dx at x; the BiLU kink at 0 uses the x >= 0 slope."""
    x = float(x)
    if spec.kind == BILU:
        return spec.b if x >= 0.0 else spec.a
    if spec.kind == BIPU:
        c = spec.c
        if x > 0.0:
            return spec.C * c * x ** (c - 1.0)
        if x < 0.0:
            return -spec.D * c * abs(x) ** (c - 1.0)
        if c > 1.0:
            return 0.0
        if c == 1.0:
            return spec.C
        raise ValueError("bipu derivative unbounded at 0 for c < 1")
    if spec.kind == TANH:
        t = math.tanh(x)
        return 1.0 - t * t
    s = activate(spec, x)
    return s * (1.0 - s)


def activate_array(spec: ActivationSpec, x):
    """Vectorized ``activate`` over a numpy array."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    if spec.kind == BILU:
        return np.where(x >= 0.0, spec.b, spec.a) * x
    if spec.kind == BIPU:
        return np.where(x >= 0.0, spec.C, spec.D) * np.abs(x) ** spec.c
    if spec.kind == TANH:
        return np.tanh(x)
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: stable on both tails
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def derivative_array(spec: ActivationSpec, x):
    """Vectorized ``activation_derivative``; BiPU requires c >= 1."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    if spec.kind == BILU:
        return np.where(x >= 0.0, spec.b, spec.a)
    if spec.kind == BIPU:
        c = spec.c
        if c < 1.0:
            raise ValueError("bipu derivative unbounded at 0 for c < 1")
        a = np.abs(x)
        at0 = spec.C if c == 1.0 else 0.0
        with np.errstate(invalid="ignore"):
            d = np.where(x > 0.0, spec.C, -spec.D) * c * a ** (c - 1.0)
        return np.where(x == 0.0, at0, d)
    if spec.kind == TANH:
        t = np.tanh(x)
        return 1.0 - t * t
    s = activate_array(spec, x)
    return s * (1.0 - s)


def homogeneity_exponent(spec: ActivationSpec):
    """Positive-scaling exponent c with f(lam*x) = lam**c * f(x), or None."""
    if spec.kind == BILU:
        return 1.0
    if spec.kind == BIPU:
        return spec.c
    return None


def activation_to_json(spec: ActivationSpec) -> dict:
    if spec.kind == BILU:
        return {"kind": BILU, "a": spec.a, "b": spec.b}
    if spec.kind == BIPU:
        return {"kind": BIPU, "C": spec.C, "D": spec.D, "c": spec.c}
    return {"kind": spec.kind}


def activation_from_json(doc: dict) -> ActivationSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("activation document must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == BILU:
            return bilu(doc["a"], doc["b"])
        if kind == BIPU:
            return bipu(doc["C"], doc["D"], doc["c"])
    except KeyError as exc:
        raise ValueError(f"activation {kind!r} is missing parameter {exc.args[0]!r}") from None
    if kind in (TANH, LOGISTIC):
        return ActivationSpec(kind)
    raise ValueError(f"unknown activation kind {kind!r}")


def max_slice_jump(samples) -> float:
    """Largest |f(x_k) - f(x_{k-1})| between consecutive samples.

    This is the achieved approximation bound of the constructed network:
    shrink it below the target epsilon by increasing N.
    """
    ys = [float(y) for _, y in samples]
    if len(ys) < 2:
        raise ValueError("need at least two samples")
    return max(abs(ys[k] - ys[k - 1]) for k in range(1, len(ys)))


def construct_universal_approximator(samples, epsilon: float):
    """Single-hidden-layer ReLU network interpolating equispaced samples on [0, 1].

    ``samples`` holds the N+1 pairs (k/N, f(k/N)).  Each hidden unit k is a
    ReLU fed by the input with weight 1 and by the bias source with weight
    -(k-1)/N, so it switches on at knot k-1; its output weight is the slope
    change of the interpolant at that knot.  The network therefore equals the
    piecewise-linear interpolant of the samples everywhere on [0, 1]: exact at
    the knots and affine inside each slice.  The sup error against the sampled
    function is bounded by ``max_slice_jump(samples)``, which the caller
    drives below ``epsilon`` by choosing N.
    """
    from . import netgraph

    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    pts = [(float(x), float(y)) for x, y in samples]
    n_slices = len(pts) - 1
    if n_slices < 1:
        raise ValueError("need at least two samples (N >= 1)")
    for k, (x, _) in enumerate(pts):
        if abs(x - k / n_slices) > 1e-9:
            raise ValueError(
                f"sample {k}: x={x!r} is not at the equispaced knot {k}/{n_slices}"
            )

    ys = [y for _, y in pts]
    slopes = [(ys[k] - ys[k - 1]) * n_slices for k in range(1, n_slices + 1)]

    units = [
        netgraph.Unit(0, netgraph.INPUT, IDENTITY),
        netgraph.Unit(1, netgraph.BIAS, IDENTITY),
    ]
    edges = []
    out_id = n_slices + 2
    prev_slope = 0.0
    for k in range(1, n_slices + 1):
        hid = k + 1
        units.append(netgraph.Unit(hid, netgraph.HIDDEN, RELU))
        edges.append(netgraph.Edge(0, hid, 1.0))
        edges.append(netgraph.Edge(1, hid, -(k - 1) / n_slices))
        edges.append(netgraph.Edge(hid, out_id, slopes[k - 1] - prev_slope))
        prev_slope = slopes[k - 1]
    units.append(netgraph.Unit(out_id, netgraph.OUTPUT, IDENTITY))
    edges.append(netgraph.Edge(1, out_id, ys[0]))
    return netgraph.Network(units, edges)
