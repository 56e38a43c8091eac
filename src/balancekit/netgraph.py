"""Directed weighted networks of heterogeneous units and their evaluation.

A network is a list of units (input / output / hidden / bias-source) plus a
list of weighted edges, at most one per ordered pair.  Biases are ordinary
edges leaving a single bias-source unit clamped to one, so they take part in
every scaling operation with no special casing.  Networks are treated as
immutable: all operations build new ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .activations import (
    ActivationSpec,
    IDENTITY,
    RELU,
    activate_array,
    activation_from_json,
    activation_to_json,
)

INPUT = "input"
OUTPUT = "output"
HIDDEN = "hidden"
BIAS = "bias-source"
ROLES = (INPUT, OUTPUT, HIDDEN, BIAS)
VISIBLE_ROLES = (INPUT, OUTPUT, BIAS)

DOCUMENT_VERSION = 1

# Rows per evaluation block of a batched ``forward``: bounds its working set,
# so a long batch costs memory in proportion to its outputs only.
ROW_BLOCK = 256


class NetworkFormatError(ValueError):
    """Raised when a network document cannot be parsed."""


@dataclass(frozen=True)
class Unit:
    id: int
    role: str
    activation: ActivationSpec


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    weight: float


class Network:
    """Units + edges with cached adjacency; do not mutate after construction."""

    def __init__(self, units, edges, recurrent: bool = False, unroll_steps: int = 3):
        self.units = tuple(sorted(units, key=lambda u: u.id))
        self.edges = tuple(edges)
        self.recurrent = bool(recurrent)
        self.unroll_steps = int(unroll_steps)
        self._by_id = {u.id: u for u in self.units}
        self._in = {u.id: [] for u in self.units}
        self._out = {u.id: [] for u in self.units}
        for e in self.edges:
            if e.src in self._out:
                self._out[e.src].append(e)
            if e.dst in self._in:
                self._in[e.dst].append(e)
        for es in self._in.values():
            es.sort(key=lambda e: e.src)
        for es in self._out.values():
            es.sort(key=lambda e: e.dst)
        self._topo = None
        self._plan = None

    # -- basic queries -------------------------------------------------

    def unit(self, i: int) -> Unit:
        try:
            return self._by_id[i]
        except KeyError:
            raise KeyError(f"unknown unit {i}") from None

    def has_unit(self, i: int) -> bool:
        return i in self._by_id

    def ids_with_role(self, role: str):
        return [u.id for u in self.units if u.role == role]

    @property
    def input_ids(self):
        return self.ids_with_role(INPUT)

    @property
    def output_ids(self):
        return self.ids_with_role(OUTPUT)

    @property
    def hidden_ids(self):
        return self.ids_with_role(HIDDEN)

    @property
    def bias_ids(self):
        return self.ids_with_role(BIAS)

    def is_visible(self, i: int) -> bool:
        return self.unit(i).role in VISIBLE_ROLES

    def weights(self) -> np.ndarray:
        return np.array([e.weight for e in self.edges], dtype=float)

    def replace_weights(self, new_weights) -> "Network":
        new_weights = np.asarray(new_weights, dtype=float)
        if new_weights.shape != (len(self.edges),):
            raise ValueError("weight vector length must match the edge list")
        edges = [Edge(e.src, e.dst, w) for e, w in zip(self.edges, new_weights.tolist())]
        return Network(self.units, edges, self.recurrent, self.unroll_steps)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.units == other.units
            and self.edges == other.edges
            and self.recurrent == other.recurrent
            and self.unroll_steps == other.unroll_steps
        )

    def __repr__(self):
        kind = "recurrent" if self.recurrent else "feedforward"
        return f"Network({len(self.units)} units, {len(self.edges)} edges, {kind})"


def in_edges(net: Network, i: int):
    """Edges ending at unit i, ordered by source id."""
    net.unit(i)
    return list(net._in[i])


def out_edges(net: Network, i: int):
    """Edges leaving unit i, ordered by target id."""
    net.unit(i)
    return list(net._out[i])


def topological_order(net: Network):
    """Unit ids in dependency order (Kahn, ascending-id tie-break)."""
    if net._topo is not None:
        return net._topo
    indeg = {u.id: 0 for u in net.units}
    for e in net.edges:
        indeg[e.dst] += 1
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        inserted = False
        for e in net._out[u]:
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                ready.append(e.dst)
                inserted = True
        if inserted:
            ready.sort()
    if len(order) != len(net.units):
        raise ValueError("network contains a directed cycle; no topological order")
    net._topo = order
    return order


def validate(net: Network) -> list:
    """Return a list of invariant violations (empty iff the network is valid).

    The structural problems of ``structural_problems`` come first, then the
    hidden units with an all-zero incoming or outgoing side, which a run can
    skip but a valid network should not have.
    """
    problems = structural_problems(net)
    for h in net.hidden_ids:
        if not any(e.weight != 0.0 for e in net._in[h]):
            problems.append(f"hidden unit {h} has no nonzero incoming weight")
        if not any(e.weight != 0.0 for e in net._out[h]):
            problems.append(f"hidden unit {h} has no nonzero outgoing weight")
    return problems


def check_structure(net: Network) -> None:
    """Raise ValueError listing the network's structural problems, if it has any."""
    problems = structural_problems(net)
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))


def structural_problems(net: Network) -> list:
    """Violations that make a network unusable: ids, roles, edges, cycles and paths."""
    problems = []
    ids = [u.id for u in net.units]
    if ids != list(range(len(ids))):
        problems.append(f"unit ids must be dense 0..{len(ids) - 1}, got {ids}")
        return problems
    for u in net.units:
        if u.role not in ROLES:
            problems.append(f"unit {u.id}: unknown role {u.role!r}")
    if len(net.bias_ids) > 1:
        problems.append(f"more than one bias-source unit: {net.bias_ids}")
    if net.unroll_steps < 1:
        problems.append(f"unroll_steps must be >= 1, got {net.unroll_steps}")

    seen = set()
    dangling = False
    for e in net.edges:
        if not (net.has_unit(e.src) and net.has_unit(e.dst)):
            problems.append(f"edge ({e.src}->{e.dst}) references an unknown unit")
            dangling = True
            continue
        if (e.src, e.dst) in seen:
            problems.append(f"duplicate edge ({e.src}->{e.dst})")
        seen.add((e.src, e.dst))
        if not math.isfinite(e.weight):
            problems.append(f"edge ({e.src}->{e.dst}): non-finite weight {e.weight!r}")
        if net.unit(e.dst).role in (INPUT, BIAS):
            problems.append(
                f"edge ({e.src}->{e.dst}) feeds a clamped {net.unit(e.dst).role} unit"
            )
        if net.recurrent and net.unit(e.src).role == OUTPUT:
            problems.append(
                f"edge ({e.src}->{e.dst}) leaves an output unit of a recurrent network"
            )
        if e.src == e.dst and not net.recurrent:
            problems.append(f"self-loop on unit {e.src} in a non-recurrent network")

    # the graph walks below assume every edge ends at a known unit
    if not net.recurrent and not dangling:
        try:
            topological_order(net)
        except ValueError:
            cyc = _find_cycle_units(net)
            problems.append(f"non-recurrent network contains a cycle through units {cyc}")
        else:
            from_input = _reachable(net, net.input_ids, forward=True)
            to_output = _reachable(net, net.output_ids, forward=False)
            for h in net.hidden_ids:
                if h not in from_input or h not in to_output:
                    problems.append(f"hidden unit {h} lies on no input->output path")
    return problems


def _reachable(net, start_ids, forward=True):
    seen = set(start_ids)
    frontier = list(start_ids)
    adj = net._out if forward else net._in
    while frontier:
        u = frontier.pop()
        for e in adj[u]:
            v = e.dst if forward else e.src
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _find_cycle_units(net):
    # iterative DFS with colors; returns some cycle's unit ids for diagnostics
    WHITE, GREY, BLACK = 0, 1, 2
    color = {u.id: WHITE for u in net.units}
    parent = {}
    for root in color:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(net._out[root]))]
        color[root] = GREY
        while stack:
            u, it = stack[-1]
            advanced = False
            for e in it:
                v = e.dst
                if color[v] == WHITE:
                    color[v] = GREY
                    parent[v] = u
                    stack.append((v, iter(net._out[v])))
                    advanced = True
                    break
                if color[v] == GREY:
                    cyc = [v, u]
                    w = u
                    while w != v and w in parent:
                        w = parent[w]
                        cyc.append(w)
                    return sorted(set(cyc))
            if not advanced:
                color[u] = BLACK
                stack.pop()
    return []


def _edge_ends(net: Network):
    """Source and target unit ids of the edges, as two integer arrays."""
    count = len(net.edges)
    src = np.fromiter((e.src for e in net.edges), dtype=np.int64, count=count)
    dst = np.fromiter((e.dst for e in net.edges), dtype=np.int64, count=count)
    return src, dst


def _depths(net: Network, src, dst) -> np.ndarray:
    """Longest-path depth of every unit from the units with no incoming edge.

    Relaxes every edge at once until nothing changes: a DAG settles within
    one pass per unit, a cycle never does.
    """
    n = len(net.units)
    depth = np.zeros(n, dtype=np.int64)
    for _ in range(n + 1):
        nxt = np.zeros(n, dtype=np.int64)
        np.maximum.at(nxt, dst, depth[src] + 1)
        if np.array_equal(nxt, depth):
            return depth
        depth = nxt
    raise ValueError("network contains a directed cycle; no topological order")


def activation_groups(specs):
    """(spec, column positions) per distinct activation, in order of first use.

    The positions are None when one activation covers every column.
    """
    cols = {}
    for k, spec in enumerate(specs):
        cols.setdefault(spec, []).append(k)
    if len(cols) == 1:
        return ((specs[0], None),)
    return tuple((spec, np.array(ks, dtype=np.int64)) for spec, ks in cols.items())


def by_activation(groups, fn, x):
    """Apply ``fn(spec, columns)`` to the columns of ``x`` group by group."""
    if len(groups) == 1 and groups[0][1] is None:
        return fn(groups[0][0], x)
    out = np.empty_like(x)
    for spec, cols in groups:
        out[:, cols] = fn(spec, x[:, cols])
    return out


class Level:
    """Units evaluated together: one weight block, one matmul.

    ``block[r, c]`` is the weight from unit ``srcs[r]`` into unit ``units[c]``;
    ``groups`` comes from ``activation_groups``.
    """

    __slots__ = ("units", "srcs", "groups")

    def __init__(self, units: np.ndarray, srcs: np.ndarray, groups: tuple):
        self.units = units
        self.srcs = srcs
        self.groups = groups


class EvaluationPlan:
    """A network's evaluation schedule, compiled once from its edge list.

    Feedforward networks group their non-clamped units by longest-path depth
    (the depth ``hidden_layers`` uses), so every source of a level lies in an
    earlier level or is clamped.  Recurrent networks have one hidden level,
    applied once per unrolled step, then the output level.  Applying a level
    gathers its sources, multiplies by its dense weight block and makes one
    activation call per distinct activation; since the sources are gathered
    before the level writes, a hidden step is a synchronous update.
    """

    def __init__(self, net: Network):
        self.n_units = len(net.units)
        self.n_edges = len(net.edges)
        self.inputs = np.array(net.input_ids, dtype=np.int64)
        self.bias = np.array(net.bias_ids, dtype=np.int64)
        self.outputs = np.array(net.output_ids, dtype=np.int64)
        src, dst = _edge_ends(net)
        if net.recurrent:
            groups = [net.hidden_ids, net.output_ids]
            steps = [net.unroll_steps, 1]
        else:
            clamped = set(net.input_ids) | set(net.bias_ids)
            depth = _depths(net, src, dst)
            by_depth = {}
            for u in net.units:
                if u.id not in clamped:
                    by_depth.setdefault(int(depth[u.id]), []).append(u.id)
            groups = [by_depth[d] for d in sorted(by_depth)]
            steps = [1] * len(groups)
        level_of = np.full(self.n_units, -1, dtype=np.int64)
        col_of = np.zeros(self.n_units, dtype=np.int64)
        levels, schedule = [], []
        for units, repeat in zip(groups, steps):
            if units:
                level_of[units] = len(levels)
                col_of[units] = np.arange(len(units))
                schedule += [len(levels)] * repeat
                levels.append(units)
        # edge k lands at flat position pos[j] of the concatenated blocks, k = sel[j]
        sel_parts, pos_parts, self.shapes, self.levels = [], [], [], []
        offset = 0
        for k, units in enumerate(levels):
            sel = np.flatnonzero(level_of[dst] == k)
            srcs = np.unique(src[sel])
            rows = np.searchsorted(srcs, src[sel])
            sel_parts.append(sel)
            pos_parts.append(offset + rows * len(units) + col_of[dst[sel]])
            self.shapes.append((offset, srcs.size, len(units)))
            offset += srcs.size * len(units)
            specs = [net.unit(u).activation for u in units]
            self.levels.append(
                Level(np.array(units, dtype=np.int64), srcs, activation_groups(specs))
            )
        self.schedule = tuple(schedule)
        self.block_size = offset
        self.sel = np.concatenate(sel_parts) if sel_parts else np.zeros(0, dtype=np.int64)
        self.pos = np.concatenate(pos_parts) if pos_parts else np.zeros(0, dtype=np.int64)
        self.weights = self.blocks(net.weights())

    def split(self, flat):
        """Per-level block views of one flat array laid out like ``blocks``."""
        return [flat[o : o + r * c].reshape(r, c) for o, r, c in self.shapes]

    def blocks(self, w):
        """Dense per-level weight blocks scattered from an edge-weight vector.

        Parallel edges between the same two units add up.
        """
        flat = np.bincount(self.pos, weights=w[self.sel], minlength=self.block_size)
        return self.split(flat)

    def edge_values(self, flat):
        """Per-edge values gathered from a flat block layout (0 off the plan)."""
        out = np.zeros(self.n_edges)
        out[self.sel] = flat[self.pos]
        return out

    def run(self, blocks, X, records=None):
        """Unit-indexed values of the rows of ``X`` (one input vector per row).

        When ``records`` is a list, each level application appends
        ``(level index, gathered sources, pre-activations)`` to it.
        """
        vals = np.zeros((X.shape[0], self.n_units))
        vals[:, self.inputs] = X
        vals[:, self.bias] = 1.0
        for k in self.schedule:
            level = self.levels[k]
            S = vals[:, level.srcs]
            pre = S @ blocks[k]
            vals[:, level.units] = by_activation(level.groups, activate_array, pre)
            if records is not None:
                records.append((k, S, pre))
        return vals


def evaluation_plan(net: Network) -> EvaluationPlan:
    """The network's evaluation plan, compiled on first use and cached."""
    if net._plan is None:
        net._plan = EvaluationPlan(net)
    return net._plan


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the network on one input vector or on a batch of them.

    A 1-D ``x`` is one input vector and gives a 1-D output vector; a 2-D
    ``x`` of shape (rows, n_inputs) gives (rows, n_outputs).  Input units are
    clamped to the given values (ordered by unit id), the bias-source unit to
    1.  Feedforward networks are evaluated level by level in dependency
    order; recurrent networks start from a zero hidden state, apply
    ``unroll_steps`` synchronous hidden updates, then compute the outputs.
    Each level's pre-activations are one matrix product, so results are
    deterministic per build.  Batches are evaluated ``ROW_BLOCK`` rows at a
    time, which keeps the memory of a long batch to its outputs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise ValueError(f"expected a 1-D input vector or a 2-D batch, got {x.ndim} dimensions")
    rows = x if x.ndim == 2 else x.reshape(1, -1)
    n_in = len(net.input_ids)
    if rows.shape[1] != n_in:
        raise ValueError(f"expected {n_in} input values, got {rows.shape[1]}")
    plan = evaluation_plan(net)
    out = np.empty((rows.shape[0], plan.outputs.size))
    for start in range(0, rows.shape[0], ROW_BLOCK):
        block = rows[start : start + ROW_BLOCK]
        out[start : start + ROW_BLOCK] = plan.run(plan.weights, block)[:, plan.outputs]
    return out if x.ndim == 2 else out[0]


def frobenius_norm(net: Network) -> float:
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(net.weights() ** 2)))


# -- document format -------------------------------------------------------


def serialize(net: Network) -> str:
    """Render the network as a JSON document; weights keep full binary64 precision."""
    doc = {
        "version": DOCUMENT_VERSION,
        "recurrent": net.recurrent,
        "unroll_steps": net.unroll_steps,
        "units": [
            {"id": u.id, "role": u.role, "activation": activation_to_json(u.activation)}
            for u in net.units
        ],
        "edges": [{"from": e.src, "to": e.dst, "weight": e.weight} for e in net.edges],
    }
    return json.dumps(doc, indent=2)


def _whole_number(value, what):
    """An integer document field; integral floats count, booleans and strings do not."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise NetworkFormatError(f"{what} must be an integer, got {value!r}")


def _records(doc, key):
    """The objects listed under ``key``, one (index, object) pair at a time."""
    records = doc.get(key, [])
    if not isinstance(records, list):
        raise NetworkFormatError(f"{key!r} must be a list of objects")
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise NetworkFormatError(f"{key!r} must be a list of objects, item {k} is {rec!r}")
        yield k, rec


def deserialize(text: str) -> Network:
    """Parse a network document; every malformed document raises NetworkFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("network document must be a JSON object")
    units = []
    for _, rec in _records(doc, "units"):
        if "id" not in rec:
            raise NetworkFormatError(f"unit record without an id: {rec!r}")
        uid = _whole_number(rec["id"], "unit id")
        if "role" not in rec:
            raise NetworkFormatError(f"unit {uid}: missing role")
        if not isinstance(rec["role"], str):
            raise NetworkFormatError(f"unit {uid}: role must be a string")
        if "activation" not in rec:
            raise NetworkFormatError(f"unit {uid}: missing activation")
        try:
            act = activation_from_json(rec["activation"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise NetworkFormatError(f"unit {uid}: {exc}") from None
        units.append(Unit(uid, rec["role"], act))
    edges = []
    for k, rec in _records(doc, "edges"):
        for fieldname in ("from", "to", "weight"):
            if fieldname not in rec:
                raise NetworkFormatError(f"edge record {k}: missing {fieldname!r}")
        w = rec["weight"]
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise NetworkFormatError(f"edge record {k}: weight must be a number")
        try:
            w = float(w)
        except OverflowError:
            raise NetworkFormatError(f"edge record {k}: weight out of float range") from None
        src = _whole_number(rec["from"], f"edge record {k}: 'from'")
        dst = _whole_number(rec["to"], f"edge record {k}: 'to'")
        edges.append(Edge(src, dst, w))
    recurrent = doc.get("recurrent", False)
    if not isinstance(recurrent, bool):
        raise NetworkFormatError(f"'recurrent' must be true or false, got {recurrent!r}")
    unroll_steps = _whole_number(doc.get("unroll_steps", 3), "'unroll_steps'")
    return Network(units, edges, recurrent=recurrent, unroll_steps=unroll_steps)


def save(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))
        fh.write("\n")


def load(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


# -- builders ---------------------------------------------------------------


def make_layered(
    sizes,
    hidden_activation: ActivationSpec = RELU,
    output_activation: ActivationSpec = IDENTITY,
    bias: bool = True,
    seed: int = 0,
    bias_init: str = "zeros",
) -> Network:
    """Fully connected layered network with seeded uniform initialization.

    Weights between consecutive layers are drawn uniformly from [-r, r] with
    r = sqrt(6 / (fan_in + fan_out)); bias edges start at zero unless
    ``bias_init="uniform"``.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("need at least two layers with positive sizes")
    rng = np.random.default_rng(seed)
    layers = []
    next_id = 0
    for li, size in enumerate(sizes):
        role = INPUT if li == 0 else OUTPUT if li == len(sizes) - 1 else HIDDEN
        act = (
            IDENTITY
            if role == INPUT
            else output_activation
            if role == OUTPUT
            else hidden_activation
        )
        layer = [Unit(next_id + k, role, act) for k in range(size)]
        next_id += size
        layers.append(layer)
    units = [u for layer in layers for u in layer]
    bias_unit = None
    if bias:
        bias_unit = Unit(next_id, BIAS, IDENTITY)
        units.append(bias_unit)

    edges = []
    for lower, upper in zip(layers[:-1], layers[1:]):
        r = math.sqrt(6.0 / (len(lower) + len(upper)))
        w = rng.uniform(-r, r, size=(len(lower), len(upper)))
        for i, u in enumerate(lower):
            for j, v in enumerate(upper):
                edges.append(Edge(u.id, v.id, float(w[i, j])))
    if bias:
        for layer in layers[1:]:
            if bias_init == "uniform":
                r = math.sqrt(6.0 / (1 + len(layer)))
                bw = rng.uniform(-r, r, size=len(layer))
            else:
                bw = np.zeros(len(layer))
            for v, w in zip(layer, bw):
                edges.append(Edge(bias_unit.id, v.id, float(w)))
    return Network(units, edges)


def make_recurrent(
    n_inputs: int,
    n_hidden: int,
    n_outputs: int,
    hidden_activation: ActivationSpec = RELU,
    output_activation: ActivationSpec = IDENTITY,
    bias: bool = True,
    self_loops: bool = False,
    unroll_steps: int = 3,
    seed: int = 0,
) -> Network:
    """Fully connected recurrent block: inputs -> hidden <-> hidden -> outputs."""
    rng = np.random.default_rng(seed)
    units = []
    inputs = list(range(n_inputs))
    hidden = list(range(n_inputs, n_inputs + n_hidden))
    outputs = list(range(n_inputs + n_hidden, n_inputs + n_hidden + n_outputs))
    units += [Unit(i, INPUT, IDENTITY) for i in inputs]
    units += [Unit(i, HIDDEN, hidden_activation) for i in hidden]
    units += [Unit(i, OUTPUT, output_activation) for i in outputs]
    bias_id = None
    if bias:
        bias_id = n_inputs + n_hidden + n_outputs
        units.append(Unit(bias_id, BIAS, IDENTITY))

    edges = []

    def block(srcs, dsts, allow_self):
        r = math.sqrt(6.0 / (len(srcs) + len(dsts)))
        for s in srcs:
            for d in dsts:
                if s == d and not allow_self:
                    continue
                edges.append(Edge(s, d, float(rng.uniform(-r, r))))

    block(inputs, hidden, False)
    block(hidden, hidden, self_loops)
    block(hidden, outputs, False)
    if bias:
        for d in hidden + outputs:
            edges.append(Edge(bias_id, d, 0.0))
    return Network(units, edges, recurrent=True, unroll_steps=unroll_steps)


def hidden_layers(net: Network):
    """Hidden units grouped by longest-path depth from the inputs (feedforward)."""
    if net.recurrent:
        raise ValueError("layer structure is only defined for feedforward networks")
    depth = _depths(net, *_edge_ends(net))
    groups = {}
    for h in net.hidden_ids:
        groups.setdefault(int(depth[h]), []).append(h)
    return [sorted(groups[d]) for d in sorted(groups)]
