import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.netgraph import hidden_layers, topological_order
from conftest import chain, forward_gap, random_layered, reference_forward


def test_identity_chain_passes_value_through():
    net = chain([1.0, 1.0], hidden_activation=bk.IDENTITY)
    assert bk.forward(net, [0.7])[0] == 0.7


def test_relu_kills_negative_preactivation():
    net = chain([-1.0, 5.0], hidden_activation=bk.RELU)
    assert bk.forward(net, [1.0])[0] == 0.0


def test_forward_matches_reference_evaluator(rng):
    for _ in range(4):
        net = random_layered(rng, n_layers=4)
        for _ in range(5):
            x = rng.normal(size=len(net.input_ids))
            got = bk.forward(net, x)
            want = reference_forward(net, x)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_forward_is_deterministic(rng):
    net = random_layered(rng)
    x = rng.normal(size=len(net.input_ids))
    a = bk.forward(net, x)
    b = bk.forward(net, x)
    assert np.array_equal(a, b)


def _relabel(net, perm):
    units = [bk.Unit(perm[u.id], u.role, u.activation) for u in net.units]
    edges = [bk.Edge(perm[e.src], perm[e.dst], e.weight) for e in net.edges]
    return bk.Network(units, edges, net.recurrent, net.unroll_steps)


def test_forward_independent_of_unit_labelling(rng):
    for _ in range(5):
        net = random_layered(rng, n_layers=3)
        n = len(net.units)
        perm = {old: new for old, new in zip(range(n), rng.permutation(n))}
        other = _relabel(net, perm)

        x = rng.normal(size=len(net.input_ids))
        # inputs/outputs are read in id order, which the relabelling permutes
        old_in = net.input_ids
        new_in = other.input_ids
        x_other = np.empty_like(x)
        for xi, u in zip(x, old_in):
            x_other[new_in.index(perm[u])] = xi
        ya = bk.forward(net, x)
        yb = bk.forward(other, x_other)
        yb_back = np.empty_like(yb)
        new_out = other.output_ids
        for k, o in enumerate(net.output_ids):
            yb_back[k] = yb[new_out.index(perm[o])]
        assert np.max(np.abs(ya - yb_back)) <= 1e-12 * max(1.0, np.max(np.abs(ya)))


def test_forward_homogeneous_under_hidden_scaling(rng):
    hits = 0
    while hits < 100:
        net = random_layered(rng)
        lam = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        h = int(rng.choice(net.hidden_ids))
        scaled = bk.scale_neuron(net, h, lam)
        assert forward_gap(net, scaled, rng, n_probes=1) <= 1e-9
        hits += 1


def test_input_dimension_checked():
    net = chain([1.0, 1.0])
    with pytest.raises(ValueError):
        bk.forward(net, [1.0, 2.0])


def test_in_out_edges_chain():
    net = chain([2.0, 3.0])
    assert [(e.src, e.dst) for e in bk.in_edges(net, 1)] == [(0, 1)]
    assert [(e.src, e.dst) for e in bk.out_edges(net, 1)] == [(1, 2)]
    assert bk.in_edges(net, 0) == []
    with pytest.raises(KeyError):
        bk.in_edges(net, 99)


def test_in_out_edges_match_full_scan(rng):
    net = random_layered(rng)
    for u in [x.id for x in net.units]:
        want_in = {(e.src, e.dst) for e in net.edges if e.dst == u}
        want_out = {(e.src, e.dst) for e in net.edges if e.src == u}
        assert {(e.src, e.dst) for e in bk.in_edges(net, u)} == want_in
        assert {(e.src, e.dst) for e in bk.out_edges(net, u)} == want_out
        srcs = [e.src for e in bk.in_edges(net, u)]
        assert srcs == sorted(srcs)


def test_validate_accepts_minimal_chain():
    assert bk.validate(chain([1.0, 1.0])) == []


def test_validate_flags_dead_hidden_unit():
    net = chain([1.0, 0.0])
    problems = bk.validate(net)
    assert any("unit 1" in p and "outgoing" in p for p in problems)


def test_validate_flags_cycle_in_feedforward():
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    edges = [
        bk.Edge(0, 1, 1.0),
        bk.Edge(1, 2, 1.0),
        bk.Edge(2, 1, 1.0),
        bk.Edge(2, 3, 1.0),
    ]
    problems = bk.validate(bk.Network(units, edges))
    assert any("cycle" in p for p in problems)


def test_validate_flags_duplicates_and_bad_ids():
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(2, bk.OUTPUT, bk.IDENTITY)]
    problems = bk.validate(bk.Network(units, []))
    assert any("dense" in p for p in problems)

    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(1, bk.OUTPUT, bk.IDENTITY)]
    edges = [bk.Edge(0, 1, 1.0), bk.Edge(0, 1, 2.0)]
    problems = bk.validate(bk.Network(units, edges))
    assert any("duplicate" in p for p in problems)


def test_serialize_round_trip(rng):
    net = random_layered(rng)
    assert bk.deserialize(bk.serialize(net)) == net


def test_serialize_preserves_bit_patterns():
    net = chain([0.1, 1.0 / 3.0])
    back = bk.deserialize(bk.serialize(net))
    for a, b in zip(net.edges, back.edges):
        assert struct.pack("<d", a.weight) == struct.pack("<d", b.weight)


def test_deserialize_reports_missing_activation():
    doc = {
        "version": 1,
        "recurrent": False,
        "unroll_steps": 3,
        "units": [{"id": 0, "role": "input"}],
        "edges": [],
    }
    with pytest.raises(bk.NetworkFormatError, match="unit 0"):
        bk.deserialize(json.dumps(doc))


def test_deserialize_reports_json_position():
    with pytest.raises(bk.NetworkFormatError, match="line"):
        bk.deserialize('{"version": 1,,}')


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"units": [1]}, "list of objects"),
        ({"units": {"id": 0}}, "list of objects"),
        ({"units": [{"id": None, "role": "input", "activation": {"kind": "tanh"}}]}, "unit id"),
        ({"units": [{"id": 0, "role": 3, "activation": {"kind": "tanh"}}]}, "role"),
        ({"units": [{"id": 0, "role": "hidden", "activation": {"kind": "bilu", "a": [], "b": 1}}]},
         "unit 0"),
        ({"edges": [{"from": "x", "to": 1, "weight": 1.0}]}, "'from'"),
        ({"edges": [{"from": 0, "to": 1.5, "weight": 1.0}]}, "'to'"),
        ({"edges": [{"from": 0, "to": 1, "weight": 10**400}]}, "float range"),
        ({"edges": [7]}, "list of objects"),
        ({"unroll_steps": "a"}, "unroll_steps"),
        ({"recurrent": "false"}, "recurrent"),
    ],
)
def test_deserialize_rejects_malformed_fields(doc, match):
    with pytest.raises(bk.NetworkFormatError, match=match):
        bk.deserialize(json.dumps(doc))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_UNIT = st.fixed_dictionaries(
    {},
    optional={
        "id": _JSON | st.integers(0, 4),
        "role": _JSON | st.sampled_from(["input", "hidden", "output", "bias-source"]),
        "activation": _JSON
        | st.fixed_dictionaries({"kind": st.sampled_from(["bilu", "bipu", "tanh", "logistic"])},
                                optional={k: _JSON for k in ("a", "b", "C", "D", "c")}),
    },
)
_EDGE = st.fixed_dictionaries(
    {}, optional={"from": _JSON | st.integers(0, 4), "to": _JSON | st.integers(0, 4), "weight": _JSON}
)
_DOCUMENT = st.fixed_dictionaries(
    {},
    optional={
        "version": _JSON,
        "recurrent": _JSON,
        "unroll_steps": _JSON,
        "units": _JSON | st.lists(_UNIT | _JSON, max_size=5),
        "edges": _JSON | st.lists(_EDGE | _JSON, max_size=5),
    },
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_JSON | _DOCUMENT)
def test_deserialize_gives_a_network_or_a_format_error(doc):
    try:
        net = bk.deserialize(json.dumps(doc))
    except bk.NetworkFormatError:
        return
    assert isinstance(net, bk.Network)
    bk.validate(net)


def test_validate_survives_an_edge_to_an_unknown_unit():
    net = chain([1.0, 1.0])
    net = bk.Network(net.units, net.edges + (bk.Edge(1, 7, 1.0),))
    problems = bk.validate(net)
    assert any("unknown unit" in p for p in problems)
    assert bk.netgraph.structural_problems(net) == problems


def test_recurrent_forward_matches_hand_rolled_updates():
    net = bk.make_recurrent(
        2, 3, 1,
        hidden_activation=bk.RELU,
        output_activation=bk.IDENTITY,
        self_loops=True,
        unroll_steps=3,
        seed=9,
    )
    x = np.array([0.4, -1.2])
    vals = {u.id: 0.0 for u in net.units}
    for i, v in zip(net.input_ids, x):
        vals[i] = v
    for b in net.bias_ids:
        vals[b] = 1.0
    for _ in range(3):
        nxt = dict(vals)
        for h in net.hidden_ids:
            s = sum(e.weight * vals[e.src] for e in net.edges if e.dst == h)
            nxt[h] = max(0.0, s)
        vals = nxt
    want = []
    for o in net.output_ids:
        want.append(sum(e.weight * vals[e.src] for e in net.edges if e.dst == o))
    got = bk.forward(net, x)
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


def test_topological_order_and_layers():
    net = chain([1.0, 1.0, 1.0])
    assert topological_order(net) == [0, 1, 2, 3]
    net = bk.make_layered([2, 3, 4, 1], seed=0)
    layers = hidden_layers(net)
    assert [len(l) for l in layers] == [3, 4]
