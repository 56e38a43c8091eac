import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.activations import (
    activate_array,
    activation_from_json,
    activation_to_json,
    derivative_array,
    max_slice_jump,
)
from conftest import activate


def _at(spec, x):
    """``activate_array`` at one point."""
    return float(activate_array(spec, np.array([x]))[0])


def test_relu_negative_branch():
    assert _at(bk.bilu(0, 1), -3.0) == 0.0


def test_squared_rectifier():
    assert _at(bk.bipu(1, 0, 2), 3.0) == 9.0


def test_bipu_negative_branch_uses_magnitude():
    assert _at(bk.bipu(0.0, 2.0, 3.0), -2.0) == 16.0


def test_zero_maps_to_zero():
    for spec in (bk.bilu(0.3, 1.7), bk.bipu(1.0, -2.0, 0.5)):
        assert _at(spec, 0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1e3, 1e3, allow_nan=False),
    lam=st.floats(1e-3, 1e3, allow_nan=False),
)
def test_bilu_positive_homogeneity(x, lam):
    spec = bk.bilu(0.1, 1.0)
    left = _at(spec, lam * x)
    right = lam * _at(spec, x)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-10, 10, allow_nan=False),
    lam=st.floats(0.1, 10, allow_nan=False),
    c=st.floats(0.5, 3.0, allow_nan=False),
)
def test_bipu_power_homogeneity(x, lam, c):
    spec = bk.bipu(1.3, -0.4, c)
    left = _at(spec, lam * x)
    right = lam**c * _at(spec, x)
    assert abs(left - right) <= 1e-10 * max(1.0, abs(right))


def test_homogeneity_exponents():
    assert bk.homogeneity_exponent(bk.bilu(0, 1)) == 1.0
    assert bk.homogeneity_exponent(bk.bipu(1, 1, 3)) == 3.0
    assert bk.homogeneity_exponent(bk.TANH_UNIT) is None
    assert bk.homogeneity_exponent(bk.LOGISTIC_UNIT) is None


def test_derivatives_match_finite_differences(rng):
    # central differences of the scalar reference against the array derivative
    specs = [bk.bilu(0.2, 1.4), bk.bipu(1.1, -0.6, 2.0), bk.TANH_UNIT, bk.LOGISTIC_UNIT]
    h = 1e-6
    for spec in specs:
        x = rng.uniform(0.2, 3.0, 20) * np.where(rng.random(20) < 0.5, 1.0, -1.0)
        fd = np.array([(activate(spec, v + h) - activate(spec, v - h)) / (2 * h) for v in x])
        assert np.all(np.abs(fd - derivative_array(spec, x)) <= 1e-6 * np.maximum(1.0, np.abs(fd)))
    # and the scalar reference against the array activation, within a few rounding units
    x = np.linspace(-3.0, 3.0, 61)
    for spec in specs:
        want = np.array([activate(spec, v) for v in x.tolist()])
        assert np.all(np.abs(activate_array(spec, x) - want) <= 4 * np.spacing(np.abs(want)))


def test_bipu_requires_positive_exponent():
    with pytest.raises(ValueError):
        bk.bipu(1, 1, 0.0)


def test_activation_json_round_trip():
    for spec in (bk.bilu(-0.5, 2.0), bk.bipu(1.0, 0.0, 2.5), bk.TANH_UNIT, bk.LOGISTIC_UNIT):
        assert activation_from_json(activation_to_json(spec)) == spec
    with pytest.raises(ValueError, match="missing parameter"):
        activation_from_json({"kind": "bilu", "a": 1.0})


# -- interpolating network ---------------------------------------------------


def _dense_eval(net, xs):
    return np.array([bk.forward(net, [x])[0] for x in xs])


def test_approximator_constant_function():
    samples = [(k / 4, 2.5) for k in range(5)]
    net = bk.construct_universal_approximator(samples, epsilon=0.1)
    hidden_out = [e.weight for e in net.edges if net.unit(e.src).role == bk.HIDDEN]
    assert all(w == 0.0 for w in hidden_out)
    xs = np.linspace(0, 1, 501)
    assert np.max(np.abs(_dense_eval(net, xs) - 2.5)) == 0.0


def test_approximator_identity_line():
    net = bk.construct_universal_approximator([(0.0, 0.0), (1.0, 1.0)], epsilon=0.1)
    assert len(net.hidden_ids) == 1
    out_w = [e.weight for e in net.edges if net.unit(e.src).role == bk.HIDDEN]
    assert out_w == [1.0]
    xs = np.linspace(0, 1, 101)
    assert np.max(np.abs(_dense_eval(net, xs) - xs)) <= 1e-15


def test_approximator_interpolates_knots(rng):
    n = 16
    ys = rng.normal(size=n + 1)
    samples = [(k / n, ys[k]) for k in range(n + 1)]
    net = bk.construct_universal_approximator(samples, epsilon=10.0)
    for k in range(n + 1):
        assert abs(bk.forward(net, [k / n])[0] - ys[k]) <= 1e-9


def test_approximator_affine_inside_slices(rng):
    n = 8
    ys = rng.normal(size=n + 1)
    net = bk.construct_universal_approximator([(k / n, ys[k]) for k in range(n + 1)], 10.0)
    for k in range(n):
        xs = np.linspace(k / n + 1e-6, (k + 1) / n - 1e-6, 33)
        vals = _dense_eval(net, xs)
        second = np.diff(vals, 2)
        assert np.max(np.abs(second)) <= 1e-8


def test_approximator_sine_error_bounded_by_slice_oscillation():
    n = 64
    samples = [(k / n, math.sin(2 * math.pi * k / n)) for k in range(n + 1)]
    net = bk.construct_universal_approximator(samples, epsilon=0.1)
    xs = np.linspace(0.0, 1.0, 10_000)
    errs = np.abs(_dense_eval(net, xs) - np.sin(2 * np.pi * xs))
    # widest oscillation of the target inside any single slice
    osc = 0.0
    for k in range(n):
        grid = np.sin(2 * np.pi * np.linspace(k / n, (k + 1) / n, 200))
        osc = max(osc, float(grid.max() - grid.min()))
    assert float(np.max(errs)) <= osc


def test_approximator_rejects_bad_knots():
    with pytest.raises(ValueError, match="knot"):
        bk.construct_universal_approximator([(0.0, 1.0), (0.7, 1.0), (1.0, 1.0)], 0.1)
    with pytest.raises(ValueError):
        bk.construct_universal_approximator([(0.0, 1.0)], 0.1)
    with pytest.raises(ValueError):
        bk.construct_universal_approximator([(0.0, 1.0), (1.0, 2.0)], 0.0)


def test_max_slice_jump():
    assert max_slice_jump([(0, 0.0), (0.5, 2.0), (1, 1.5)]) == 2.0
