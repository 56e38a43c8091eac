
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.regularizer import (
    CostSpec,
    cost_derivative,
    format_cost,
    parse_cost,
    weight_cost,
)
from conftest import chain, reference_network_cost


def test_weight_cost_values():
    assert weight_cost(bk.l2(), 2.0) == 4.0
    assert weight_cost(bk.l1(0.5), -3.0) == 1.5
    assert weight_cost(CostSpec(((2.0, 1.0), (1.0, 1.0))), 2.0) == 6.0


def test_network_cost_empty_and_simple():
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(1, bk.OUTPUT, bk.IDENTITY)]
    assert bk.network_cost(bk.Network(units, []), bk.l2()) == 0.0
    net = chain([1.0, -1.0, 2.0])
    assert bk.network_cost(net, bk.l2()) == 6.0


def test_network_cost_matches_sorted_accumulation(rng):
    net = bk.make_layered([5, 10, 10, 4], seed=1, bias_init="uniform")
    assert len(net.edges) >= 200
    spec = bk.lp(1.5)
    got = bk.network_cost(net, spec)
    mags = sorted(abs(e.weight) for e in net.edges)
    want = 0.0
    for m in mags:
        want += m**1.5
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("text", ["l1", "l2", "lp:3", "lp:0.5", "0.015*l1+1.0*l2"])
def test_network_cost_is_the_edge_by_edge_sum_bit_for_bit(rng, text):
    spec = parse_cost(text)
    nets = [bk.make_layered([5, 10, 10, 4], seed=1, bias_init="uniform"), chain([0.0, -0.0, 3.0])]
    for _ in range(5):
        net = bk.make_layered([4, 9, 3], seed=int(rng.integers(2**31)), bias_init="uniform")
        scale = np.exp(rng.uniform(-30.0, 30.0, size=net.w.size))
        nets.append(net.replace_weights(net.w * scale))
    for net in nets:
        assert bk.network_cost(net, spec).hex() == reference_network_cost(net, spec).hex()


def test_cost_derivative_values():
    assert cost_derivative(bk.l2(), 3.0) == 6.0
    assert cost_derivative(bk.l1(), -2.0) == -1.0
    assert cost_derivative(bk.l2(), 0.0) == 0.0


def test_cost_derivative_matches_finite_difference():
    spec = bk.l2()
    w, h = 1.7, 1e-5
    fd = (weight_cost(spec, w + h) - weight_cost(spec, w - h)) / (2 * h)
    assert abs(fd - cost_derivative(spec, w)) <= 1e-7

    spec = CostSpec(((1.0, 0.5), (2.5, 2.0)))
    fd = (weight_cost(spec, w + h) - weight_cost(spec, w - h)) / (2 * h)
    assert abs(fd - cost_derivative(spec, w)) <= 1e-6


def test_cost_derivative_undefined_at_zero_for_small_p():
    with pytest.raises(ValueError, match="undefined"):
        cost_derivative(bk.l1(), 0.0)
    with pytest.raises(ValueError, match="undefined"):
        cost_derivative(bk.lp(0.5), 0.0)


@settings(max_examples=200, deadline=None)
@given(w=st.floats(-1e6, 1e6, allow_nan=False))
def test_cost_depends_on_magnitude_only(w):
    spec = CostSpec(((0.7, 0.3), (2.0, 1.0)))
    assert weight_cost(spec, w) == weight_cost(spec, -w)


@settings(max_examples=100, deadline=None)
@given(
    mags=st.lists(st.floats(1e-6, 1e3, allow_nan=False), min_size=2, max_size=8, unique=True)
)
def test_cost_strictly_increasing_in_magnitude(mags):
    spec = CostSpec(((1.5, 0.5), (3.0, 0.25)))
    mags = sorted(mags)
    costs = [weight_cost(spec, m) for m in mags]
    assert all(a < b for a, b in zip(costs, costs[1:]))


@settings(max_examples=200, deadline=None)
@given(w=st.floats(-1e3, 1e3, allow_nan=False).filter(lambda w: w != 0.0))
def test_weight_times_derivative_nonnegative(w):
    spec = CostSpec(((1.0, 0.4), (2.0, 1.0)))
    assert w * cost_derivative(spec, w) >= 0.0


def test_parse_cost_forms():
    assert parse_cost("l2") == bk.l2()
    assert parse_cost("l1") == bk.l1()
    assert parse_cost("lp:3") == bk.lp(3.0)
    assert parse_cost("0.015*l1+1.0*l2") == CostSpec(((1.0, 0.015), (2.0, 1.0)))
    assert parse_cost(format_cost(bk.lp(0.5, 0.25))) == bk.lp(0.5, 0.25)


def test_parse_cost_names_bad_token():
    with pytest.raises(ValueError, match="l3"):
        parse_cost("l3")
    with pytest.raises(ValueError, match="x\\*l2"):
        parse_cost("x*l2")
    with pytest.raises(ValueError):
        parse_cost("lp:abc")


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        CostSpec(())
    with pytest.raises(ValueError):
        CostSpec(((0.0, 1.0),))
    with pytest.raises(ValueError):
        CostSpec(((2.0, -1.0),))
