import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.regularizer import (
    CostSpec,
    derivative_array,
    format_cost,
    parse_cost,
    term_costs,
)
from conftest import chain, reference_network_cost, weight_cost


def _costs(spec, ws):
    """Per-weight cost of each of ``ws``: the sum of ``term_costs``."""
    return sum(term_costs(spec, np.array(ws, dtype=float))).tolist()


def test_weight_cost_values():
    assert _costs(bk.l2(), [2.0, -3.0]) == [4.0, 9.0]
    assert _costs(bk.l1(0.5), [2.0, -3.0]) == [1.0, 1.5]
    terms = term_costs(CostSpec(((2.0, 1.0), (1.0, 1.0))), np.array([2.0, -3.0]))
    assert [t.tolist() for t in terms] == [[4.0, 9.0], [2.0, 3.0]]


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


def _pairwise_depth(n):
    """Most roundings one addend meets in NumPy's pairwise sum of n floats.

    Below 8 addends the sum runs in order; up to 128, eight accumulators take
    every eighth addend, meet in a three-level tree, and the n % 8 addends left
    are added one by one; above 128 the array is split in two at half its
    length, rounded down to a multiple of 8, and the halves' sums are added.
    """
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 - 1 + 3 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


@pytest.mark.parametrize("text", ["l1", "l2", "lp:3", "lp:0.5", "0.015*l1+1.0*l2"])
def test_network_cost_is_the_exact_sum_within_its_rounding_bound(rng, text):
    """``network_cost`` lies within a bound derived from its roundings of the exactly
    rounded sum of Python powers (``reference_network_cost``).

    With u = 2**-53 and gamma_m = m u / (1 - m u), an edge's cost meets m =
    d + T + 2 roundings: the power (within one ulp, so two roundings), the
    coefficient, the T - 1 additions of the T terms and the d of NumPy's
    pairwise sum over the E edges (``_pairwise_depth``).  Each reference value
    meets three (power and coefficient) and the exactly rounded sum one.  So
    |cost - reference| <= (gamma_m + gamma_4) / (1 - gamma_4) * reference.
    C's pow is documented within one ulp; NumPy 2.4's AVX-512 power measured
    at most 0.62 ulp against the exact cube and square of 3,000 random weights.
    """
    spec = parse_cost(text)
    nets = [bk.make_layered([5, 10, 10, 4], seed=1, bias_init="uniform"), chain([0.0, -0.0, 3.0])]
    for _ in range(5):
        net = bk.make_layered([4, 9, 3], seed=int(rng.integers(2**31)), bias_init="uniform")
        scale = np.exp(rng.uniform(-30.0, 30.0, size=net.w.size))
        nets.append(net.replace_weights(net.w * scale))
    u = 2.0**-53

    def gamma(m):
        return m * u / (1.0 - m * u)

    for net in nets:
        want = reference_network_cost(net, spec)
        m = _pairwise_depth(net.w.size) + len(spec.terms) + 2
        bound = (gamma(m) + gamma(4)) / (1.0 - gamma(4)) * want
        assert abs(bk.network_cost(net, spec) - want) <= bound


def test_cost_derivative_values():
    assert derivative_array(bk.l2(), [3.0, 0.0]).tolist() == [6.0, 0.0]
    assert derivative_array(bk.l1(), [-2.0]).tolist() == [-1.0]


def test_cost_derivative_matches_finite_difference():
    spec = bk.l2()
    w, h = 1.7, 1e-5
    fd = (weight_cost(spec, w + h) - weight_cost(spec, w - h)) / (2 * h)
    assert abs(fd - derivative_array(spec, [w])[0]) <= 1e-7

    spec = CostSpec(((1.0, 0.5), (2.5, 2.0)))
    fd = (weight_cost(spec, w + h) - weight_cost(spec, w - h)) / (2 * h)
    assert abs(fd - derivative_array(spec, [w])[0]) <= 1e-6


def test_cost_derivative_undefined_at_zero_for_small_p():
    # |w| has no derivative at 0: gradients take the subgradient 0 there
    assert derivative_array(bk.l1(), [0.0, -0.0]).tolist() == [0.0, 0.0]
    # below p = 1 it is unbounded near 0, so such a term is refused everywhere
    with pytest.raises(ValueError, match="p < 1"):
        derivative_array(bk.lp(0.5), [0.0])
    with pytest.raises(ValueError, match="p < 1"):
        derivative_array(CostSpec(((2.0, 1.0), (0.5, 1.0))), [1.0])


@settings(max_examples=200, deadline=None)
@given(w=st.floats(-1e6, 1e6, allow_nan=False))
def test_cost_depends_on_magnitude_only(w):
    spec = CostSpec(((0.7, 0.3), (2.0, 1.0)))
    a, b = _costs(spec, [w, -w])
    assert a == b


@settings(max_examples=100, deadline=None)
@given(
    mags=st.lists(st.floats(1e-6, 1e3, allow_nan=False), min_size=2, max_size=8, unique=True)
)
def test_cost_strictly_increasing_in_magnitude(mags):
    spec = CostSpec(((1.5, 0.5), (3.0, 0.25)))
    costs = _costs(spec, sorted(mags))
    assert all(a < b for a, b in zip(costs, costs[1:]))


@settings(max_examples=200, deadline=None)
@given(w=st.floats(-1e3, 1e3, allow_nan=False).filter(lambda w: w != 0.0))
def test_weight_times_derivative_nonnegative(w):
    spec = CostSpec(((1.0, 0.4), (2.0, 1.0)))
    assert w * derivative_array(spec, [w])[0] >= 0.0


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
