import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import balancekit as bk
from balancekit.netgraph import evaluation_plan, hidden_layers, topological_order
from balancekit.training import _Compiled
from conftest import (
    chain,
    forward_gap,
    random_layered,
    reference_after_cycles,
    reference_depth,
    reference_deserialize,
    reference_forward,
    reference_serialize,
    same_network,
)


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


def test_validate_and_runs_agree_on_a_unit_fed_only_by_its_self_loop():
    # a self-loop counts on neither side, so unit 1's incoming side is dead
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
    ]
    weights = {(0, 1): 0.0, (1, 1): 0.5, (0, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0, (2, 1): 0.0}
    net = bk.Network(units, [bk.Edge(a, b, w) for (a, b), w in weights.items()], recurrent=True)
    assert bk.validate(net) == ["hidden unit 1 has no nonzero incoming weight"]
    _, trace = bk.run_balancing(net, bk.Schedule("sequential"), bk.l2())
    assert trace.notes[0] == "unit 1 skipped: all-zero incoming or outgoing side"


def test_movable_is_the_free_units_with_a_nonzero_weight_on_each_side():
    # unit 1 is fed by its self-loop alone, unit 2 is tanh, and unit 3 has two live sides
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(1, bk.HIDDEN, bk.RELU),
             bk.Unit(2, bk.HIDDEN, bk.TANH_UNIT), bk.Unit(3, bk.HIDDEN, bk.RELU),
             bk.Unit(4, bk.OUTPUT, bk.IDENTITY)]
    weights = {(0, 1): 0.0, (1, 1): 0.5, (1, 4): 1.0, (0, 2): 1.0, (2, 4): 1.0, (0, 3): 1.0,
               (3, 4): 2.0}
    net = bk.Network(units, [bk.Edge(a, b, w) for (a, b), w in weights.items()], recurrent=True)
    assert net.movable.tolist() == [False, False, False, True, False]
    assert net.movable is net.movable and not net.movable.flags.writeable
    assert bk.balancing._balanceable(net)[0] == [3]


def _input_hidden_hidden_output_bias(edges):
    """Input 0, ReLU hidden units 1 and 2, output 3 and bias source 4, with ``edges`` (src, dst, w)."""
    units = [
        bk.Unit(0, bk.INPUT, bk.IDENTITY),
        bk.Unit(1, bk.HIDDEN, bk.RELU),
        bk.Unit(2, bk.HIDDEN, bk.RELU),
        bk.Unit(3, bk.OUTPUT, bk.IDENTITY),
        bk.Unit(4, bk.BIAS, bk.IDENTITY),
    ]
    return bk.Network(units, [bk.Edge(*e) for e in edges])


def test_a_hidden_unit_fed_by_the_bias_alone_lies_on_a_path():
    # the structural check and the oracle both start their walks at the inputs and the bias
    net = _input_hidden_hidden_output_bias(
        [(0, 1, 1.5), (1, 3, 0.5), (4, 2, 2.0), (2, 3, 0.25), (4, 1, 0.3)]
    )
    assert bk.validate(net) == []
    solution = bk.solve_convex(net, bk.l2())
    final, trace = bk.run_balancing(net, bk.Schedule("sequential", deficit_tol=1e-20), bk.l2())
    assert trace.converged and trace.units
    oracle = bk.apply_multipliers(net, solution.multipliers).weights()
    assert np.max(np.abs(final.weights() - oracle)) <= 1e-9
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    assert np.max(np.abs(bk.forward(final, x) - bk.forward(net, x))) <= 1e-12


def test_a_hidden_unit_with_no_path_to_an_output_is_flagged():
    net = _input_hidden_hidden_output_bias(
        [(0, 1, 1.5), (1, 3, 0.5), (4, 2, 2.0), (0, 2, 1.0), (4, 1, 0.3)]
    )
    problem = "hidden unit 2 lies on no input->output path"
    assert problem in bk.validate(net)  # and "no nonzero outgoing weight"
    with pytest.raises(ValueError, match=problem):
        bk.run_balancing(net, bk.Schedule("sequential"), bk.l2())


@pytest.mark.parametrize("bad", [4.5, "4", None, np.float64(4.0)])
def test_make_layered_refuses_a_layer_size_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match=re.escape(f"layer sizes must be integers, got {bad!r}")):
        bk.make_layered([2, bad, 1])
    # NumPy integers are integers
    assert len(bk.make_layered([np.int64(2), np.int32(4), 1]).hidden_ids) == 4


@pytest.mark.parametrize("bias_init", ["unifrom", "Zeros", None])
def test_make_layered_refuses_a_bias_init_it_would_ignore(bias_init):
    with pytest.raises(ValueError, match=re.escape(f"bias_init must be 'zeros' or 'uniform', "
                                                   f"got {bias_init!r}")):
        bk.make_layered([2, 3, 1], bias_init=bias_init)


@pytest.mark.parametrize("sizes, message", [
    ((2, 4.5, 1), "n_hidden must be an integer, got 4.5"),
    ((2, "3", 1), "n_hidden must be an integer, got '3'"),
    ((2, -1, 1), "n_hidden must be at least 1, got -1"),
    ((0, 3, 1), "n_inputs must be at least 1, got 0"),
    ((2, 3, 1.0), "n_outputs must be an integer, got 1.0"),
])
def test_make_recurrent_refuses_a_size_that_is_not_a_positive_integer(sizes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bk.make_recurrent(*sizes)
    # NumPy integers are integers
    assert len(bk.make_recurrent(np.int64(2), np.int32(3), 1).hidden_ids) == 3


def test_unroll_steps_must_be_an_integer():
    with pytest.raises(ValueError, match=re.escape("unroll_steps must be an integer, got 2.7")):
        bk.make_recurrent(2, 3, 1, unroll_steps=2.7)
    net = bk.make_recurrent(2, 3, 1)
    with pytest.raises(ValueError, match=re.escape("unroll_steps must be an integer, got 2.7")):
        bk.Network(net.units, net.edges, True, 2.7)
    assert bk.Network(net.units, net.edges, True, np.int64(2)).unroll_steps == 2


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


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
def test_depth_is_the_longest_path_and_a_cycle_finding_names_the_units_on_or_after_one(n, data):
    # a DAG with skip edges in a random unit order, plus up to two edges that point back
    # (or loop on one unit) and may close cycles
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ahead = [(min(p), max(p)) for p in data.draw(st.lists(pair, max_size=3 * n)) if p[0] != p[1]]
    back = [(max(p), min(p)) for p in data.draw(st.lists(pair, max_size=2))]
    perm = data.draw(st.permutations(range(n)))
    edges = sorted({(perm[a], perm[b]) for a, b in ahead + back})
    src, dst = [a for a, _ in edges], [b for _, b in edges]
    units = [bk.Unit(i, bk.HIDDEN, bk.RELU) for i in range(n)]
    structure = bk.netgraph.Structure(units, src, dst)
    net = bk.Network(units, [bk.Edge(a, b, 1.0) for a, b in edges])
    found = [p for p in bk.validate(net) if "cycle" in p]
    want = reference_depth(n, src, dst)
    if want is None:
        with pytest.raises(ValueError, match="directed cycle; no topological order"):
            structure.depth
        left = reference_after_cycles(n, src, dst)
        assert found == [f"non-recurrent network contains a cycle; units {left} lie on or after one"]
    else:
        assert structure.depth.tolist() == want
        assert list(structure.order) == sorted(range(n), key=lambda u: (want[u], u))
        assert found == []


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


_GOOD_EDGE = {"from": 0, "to": 1, "weight": 0.5}


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
        # a bad record after good ones: the message names its index
        ({"edges": [_GOOD_EDGE, {"from": 0, "to": 1, "weight": True}]},
         "edge record 1: weight must be a number"),
        ({"edges": [_GOOD_EDGE, _GOOD_EDGE, {"from": 2**63, "to": 1, "weight": 1.0}]},
         "edge record 2: 'from' must be a 64-bit integer, got 9223372036854775808"),
        ({"edges": [_GOOD_EDGE, {"from": 0, "to": 1, "weight": 10**400}]},
         "edge record 1: weight out of float range"),
        ({"edges": [_GOOD_EDGE, _GOOD_EDGE, _GOOD_EDGE, {"from": 0, "weight": 1.0}]},
         "edge record 3: missing 'to'"),
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


# -- the document codec against the record-by-record reference ----------------

_ACTIVATIONS = st.sampled_from([
    bk.IDENTITY, bk.RELU, bk.leaky_relu(0.3), bk.bilu(-0.5, 2.0),
    bk.bipu(1.0, -0.5, 2.0), bk.bipu(0.25, 3.0, 0.5), bk.TANH_UNIT, bk.LOGISTIC_UNIT,
])
_SPECIAL_WEIGHTS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1.7976931348623157e308,
    -1.7976931348623157e308, 3.0, -2.0, 1e16, 1e22, 1e-5, 0.1,
])


@st.composite
def _document_nets(draw):
    """A layered net with skip edges, a recurrent net with self-loops, or a net with no edges."""
    kind = draw(st.sampled_from(["layered", "recurrent", "no edges"]))
    n = draw(st.integers(1, 8))
    units = [
        bk.Unit(i, draw(st.sampled_from(bk.netgraph.ROLES)), draw(_ACTIVATIONS)) for i in range(n)
    ]
    pairs = [(a, b) for a in range(n) for b in range(n) if a < b or kind == "recurrent"]
    if kind == "no edges" or not pairs:
        return bk.Network(units, [], kind == "recurrent")
    picked = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = [bk.Edge(a, b, draw(st.floats(width=64) | _SPECIAL_WEIGHTS)) for a, b in picked]
    return bk.Network(units, edges, kind == "recurrent", draw(st.integers(1, 5)))


def _reordered(value):
    """``value`` with the keys of every object in it in reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [_reordered(v) for v in value]
    return value


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(net=_document_nets())
def test_serialize_is_byte_identical_to_the_json_encoder(net):
    text = bk.serialize(net)
    assert text == reference_serialize(net)
    assert same_network(bk.deserialize(text), net)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(net=_document_nets())
def test_deserialize_accepts_any_layout_and_key_order(net):
    doc = json.loads(reference_serialize(net))
    float_ends = dict(doc, edges=[
        dict(rec, to=float(rec["to"])) if k % 2 else dict(rec, **{"from": float(rec["from"])})
        for k, rec in enumerate(doc["edges"])
    ])
    for text in (
        json.dumps(doc),
        json.dumps(_reordered(doc), indent=4),
        json.dumps(float_ends, indent=2),
    ):
        got = bk.deserialize(text)
        assert same_network(got, net)
        assert same_network(got, reference_deserialize(text))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


_ODD_ENDS = st.floats() | st.sampled_from(
    [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, -(2.0**63), 2.0**63, 0.5, 3.0, True, False, None, "1"]
)
_ODD_WEIGHTS = st.integers() | st.sampled_from(
    [10**400, -(10**400), 2**64, -0.0, math.nan, True, False, None, "1", [1.0]]
)


@st.composite
def _edge_lists(draw):
    """Well-formed edge records, and one to three inserted anywhere that each differ in one field."""
    good = st.fixed_dictionaries(
        {"from": st.integers(0, 4), "to": st.integers(0, 4), "weight": st.floats()}
    )
    records = draw(st.lists(good, max_size=6))
    for _ in range(draw(st.integers(1, 3))):
        rec = draw(good)
        key = draw(st.sampled_from(["from", "to", "weight"]))
        if draw(st.integers(0, 9)) == 0:
            del rec[key]
        else:
            rec[key] = draw(_ODD_WEIGHTS if key == "weight" else _ODD_ENDS)
        records.insert(draw(st.integers(0, len(records))), rec)
    return records


def _same_outcome(text):
    got, want = _outcome(bk.deserialize, text), _outcome(reference_deserialize, text)
    if isinstance(want, bk.Network):
        assert isinstance(got, bk.Network) and same_network(got, want)
    else:
        assert got == want


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_JSON | _DOCUMENT)
def test_deserialize_matches_the_record_by_record_parser(doc):
    _same_outcome(json.dumps(doc))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edges=_edge_lists())
def test_deserialize_reports_the_first_odd_edge_record_as_the_record_by_record_parser(edges):
    _same_outcome(json.dumps({"edges": edges}))


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
    with pytest.raises(ValueError, match="directed cycle; no topological order"):
        topological_order(bk.make_recurrent(1, 2, 1))


# -- malformed networks: every graph walk raises the documented ValueError ----


def _malformed(case):
    """A small net with one structural defect that leaves the graph with no well-defined walk."""
    inp, out = bk.Unit(0, bk.INPUT, bk.IDENTITY), bk.Unit(3, bk.OUTPUT, bk.IDENTITY)
    hidden = [bk.Unit(1, bk.HIDDEN, bk.RELU), bk.Unit(2, bk.HIDDEN, bk.RELU)]
    edges = [bk.Edge(0, 1, 1.5), bk.Edge(1, 2, -0.5), bk.Edge(2, 3, 2.0)]
    if case == "dangling edge":
        edges.append(bk.Edge(2, 7, 1.0))
    elif case == "non-dense ids":
        out = bk.Unit(5, bk.OUTPUT, bk.IDENTITY)
        edges[-1] = bk.Edge(2, 5, 2.0)
    elif case == "duplicate edge":
        edges.append(bk.Edge(1, 2, 0.25))
    else:  # feed-forward cycle
        edges.append(bk.Edge(2, 1, 0.75))
    return bk.Network([inp, *hidden, out], edges)


_ENTRY_POINTS = {
    "forward": lambda net: bk.forward(net, [0.5]),
    "hidden_layers": hidden_layers,
    "gradients": lambda net: bk.gradients(net, (np.ones((1, 1)), np.ones((1, 1))), "squared_error"),
    "topological_order": topological_order,
    "solve_convex": lambda net: bk.solve_convex(net, bk.l2()),
    "fit_multipliers": lambda net: bk.fit_multipliers(net, net),
    "fit_multipliers_many": lambda net: bk.fit_multipliers_many([net], net),
    "partial_balance_pass": lambda net: bk.partial_balance_pass(net, bk.l2()),
    "network_deficit": lambda net: bk.network_deficit(net, bk.l2()),
}


@pytest.mark.parametrize("case", ["dangling edge", "non-dense ids", "duplicate edge", "feed-forward cycle"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_graph_walks_reject_malformed_networks_with_value_error(entry, case):
    net = _malformed(case)
    structural = bk.netgraph.structural_problems(net)
    assert structural and bk.validate(net)[: len(structural)] == structural
    with pytest.raises(ValueError, match="invalid network"):
        _ENTRY_POINTS[entry](net)


# -- the array-backed network against the old edge-list definitions ----------


def _old_serialize(units, edges, recurrent, unroll_steps):
    doc = {
        "version": 1,
        "recurrent": recurrent,
        "unroll_steps": unroll_steps,
        "units": [
            {"id": u.id, "role": u.role, "activation": bk.activations.activation_to_json(u.activation)}
            for u in sorted(units, key=lambda u: u.id)
        ],
        "edges": [{"from": e.src, "to": e.dst, "weight": e.weight} for e in edges],
    }
    return json.dumps(doc, indent=2)


_WEIGHTS = st.floats(allow_nan=False, width=64)


@st.composite
def _nets(draw):
    """(units, edges, recurrent): a DAG with skip edges, a recurrent net with
    self-loops, or a malformed net (ids not dense, unknown ends, duplicates, cycles)."""
    kind = draw(st.sampled_from(["dag", "recurrent", "malformed"]))
    n = draw(st.integers(1, 7))
    if kind == "malformed":
        ids = sorted(draw(st.sets(st.integers(-2, 9), min_size=1, max_size=7)))
    else:
        ids = list(range(n))
    roles = [draw(st.sampled_from(bk.netgraph.ROLES)) for _ in ids]
    units = [bk.Unit(i, r, bk.IDENTITY if r in (bk.INPUT, bk.BIAS) else bk.RELU) for i, r in zip(ids, roles)]
    if kind == "dag":
        pairs = [(a, b) for a in ids for b in ids if a < b]
    elif kind == "recurrent":
        pairs = [(a, b) for a in ids for b in ids]
    else:
        ends = ids + [-3, 11]
        pairs = [(a, b) for a in ends for b in ends]
    if not pairs:
        return units, [], False
    picked = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=kind != "malformed"))
    edges = [bk.Edge(a, b, draw(_WEIGHTS)) for a, b in picked]
    return units, edges, kind == "recurrent"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_nets(), data=st.data())
def test_views_match_the_edge_list_definitions(spec, data):
    units, edges, recurrent = spec
    net = bk.Network(units, edges, recurrent)
    assert net.edges == tuple(edges)
    assert [e.weight for e in net.edges] == [float(e.weight) for e in edges]
    for u in units:
        into = sorted((e for e in edges if e.dst == u.id), key=lambda e: e.src)
        out_of = sorted((e for e in edges if e.src == u.id), key=lambda e: e.dst)
        assert bk.in_edges(net, u.id) == into
        assert bk.out_edges(net, u.id) == out_of
    text = bk.serialize(net)
    assert text == _old_serialize(units, edges, recurrent, 3)

    copies = [
        bk.Network(units, edges, recurrent),
        bk.deserialize(text),
        net.replace_weights(net.weights()),
    ]
    for other in copies:
        assert other == net
        assert bk.serialize(other) == text

    # == against the old field-by-field comparison, on variants of the net
    variants = [bk.Network(units, edges, not recurrent), bk.Network(units, edges[::-1], recurrent)]
    if edges:
        k = data.draw(st.integers(0, len(edges) - 1))
        w = net.weights()
        w[k] = data.draw(_WEIGHTS)
        variants.append(net.replace_weights(w))
    for other in variants:
        old = (
            net.units == other.units
            and tuple(edges) == other.edges
            and net.recurrent == other.recurrent
            and net.unroll_steps == other.unroll_steps
        )
        assert (net == other) == old


def test_results_share_the_input_structure_and_plan():
    net = bk.make_layered([3, 5, 4, 2], seed=4, bias_init="uniform")
    plan = evaluation_plan(net)
    h = net.hidden_ids[0]
    schedules = [bk.Schedule("stochastic", seed=s, deficit_tol=1e-10) for s in range(2)]
    comp = _Compiled(net)
    comp.w *= 1.5
    results = [
        net.replace_weights(net.weights() * 2.0),
        bk.scale_neuron(net, h, 3.0),
        bk.balance_neuron(net, h, bk.l2())[0],
        *(out for out, _ in bk.run_balancing_many(net, schedules, bk.l2())),
        bk.apply_multipliers(net, bk.solve_convex(net, bk.l2()).multipliers),
        comp.network(),
    ]
    for result in results:
        assert result.structure is net.structure
        assert evaluation_plan(result) is plan
        assert not result.w.flags.writeable
