"""Directed weighted networks of heterogeneous units and their evaluation.

A network is a list of units (input / output / hidden / bias-source) plus a
list of weighted edges, at most one per ordered pair.  Biases are ordinary
edges leaving a single bias-source unit clamped to one, so they take part in
every scaling operation with no special casing.

A ``Network`` is an immutable ``Structure`` (the units and the edge ends,
with everything that depends on them alone) plus a read-only float64 weight
array.  Scaling and balancing change weights, never the graph, so every
operation returns new weights on the shared structure, and the structural
check, the depths (the input-to-output order) and the evaluation plan run
once per structure.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .activations import (
    ActivationSpec,
    IDENTITY,
    RELU,
    activate_array,
    activation_from_json,
    activation_to_json,
    homogeneity_exponent,
)

INPUT = "input"
OUTPUT = "output"
HIDDEN = "hidden"
BIAS = "bias-source"
ROLES = (INPUT, OUTPUT, HIDDEN, BIAS)

DOCUMENT_VERSION = 1

# Rows per evaluation block of a batched ``forward``: bounds its working set,
# so a long batch costs memory in proportion to its outputs only.  At 128 rows
# a block's arrays on a 67-unit net stay under glibc's 128 KiB mmap threshold,
# so a long process does not map and fault them afresh for every block.
ROW_BLOCK = 128


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integer(value, must: str) -> int:
    """``value`` as an int if it is an integer (NumPy ones included), else a ValueError
    that says what it ``must`` be and what it got."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{must}, got {value!r}") from None


def reachable(n_units: int, src, dst, start) -> np.ndarray:
    """Mask of the units reachable from the units ``start`` along the edges src[k] -> dst[k]."""
    seen = np.zeros(n_units, dtype=bool)
    seen[np.asarray(start, dtype=np.int64)] = True
    frontier = seen.copy()
    while frontier.any():
        step = np.zeros(n_units, dtype=bool)
        step[dst[frontier[src]]] = True
        frontier = step & ~seen
        seen |= frontier
    return seen


def off_path(role_ids: dict, n_units: int, src, dst) -> list:
    """The hidden units on no path src[k] -> dst[k] from an input or the bias source to an output.

    ``role_ids`` maps each role to its unit ids, as ``Structure.role_ids`` does.
    """
    on_path = reachable(n_units, src, dst, role_ids[INPUT] + role_ids[BIAS])
    on_path &= reachable(n_units, dst, src, role_ids[OUTPUT])
    return [h for h in role_ids[HIDDEN] if not on_path[h]]


class Structure:
    """A network's units and edge ends, and everything that depends on them alone.

    ``units`` are sorted by id; ``src`` and ``dst`` hold the edge ends in
    edge-list order.  Per-unit arrays are indexed by position in ``units``,
    which is the unit id whenever the ids are dense, as the structural check
    requires.  Everything derived is computed on first use and kept, so each
    structure is checked and compiled at most once however many weight
    vectors share it.
    """

    def __init__(self, units, src, dst, recurrent: bool = False, unroll_steps: int = 3):
        self.units = tuple(sorted(units, key=lambda u: u.id))
        self.src = _frozen(np.array(src, dtype=np.int64))
        self.dst = _frozen(np.array(dst, dtype=np.int64))
        self.recurrent = bool(recurrent)
        self.unroll_steps = _integer(unroll_steps, "unroll_steps must be an integer")
        self.by_id = {u.id: u for u in self.units}
        self.role_ids = {role: [] for role in ROLES}
        for u in self.units:
            self.role_ids.setdefault(u.role, []).append(u.id)

    @cached_property
    def exponent(self) -> np.ndarray:
        """Per unit: the homogeneity exponent of its activation, 1.0 where it has none."""
        cs = [homogeneity_exponent(u.activation) for u in self.units]
        return _frozen(np.array([1.0 if c is None else c for c in cs], dtype=float))

    @cached_property
    def free(self) -> np.ndarray:
        """Per unit: whether rescaling moves it (a hidden unit with a homogeneity exponent)."""
        flags = [u.role == HIDDEN and homogeneity_exponent(u.activation) is not None
                 for u in self.units]
        return _frozen(np.array(flags, dtype=bool))

    @cached_property
    def _findings(self) -> list:
        """(fatal, message) per structural problem, in report order.

        A fatal problem (ids that are not dense, an edge to an unknown unit, a
        duplicate edge, a cycle in a feedforward network) leaves the graph
        with no well-defined walk; the others make it unusable for balancing
        and training only.
        """
        ids = [u.id for u in self.units]
        n = len(ids)
        if ids != list(range(n)):
            return [(True, f"unit ids must be dense 0..{n - 1}, got {ids}")]
        found = [(False, f"unit {u.id}: unknown role {u.role!r}")
                 for u in self.units if u.role not in ROLES]
        if len(self.role_ids[BIAS]) > 1:
            found.append((False, f"more than one bias-source unit: {self.role_ids[BIAS]}"))
        if self.unroll_steps < 1:
            found.append((False, f"unroll_steps must be >= 1, got {self.unroll_steps}"))

        src, dst = self.src, self.dst
        known = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
        s, d = np.where(known, src, 0), np.where(known, dst, 0)
        duplicate = known.copy()
        kept = np.flatnonzero(known)
        duplicate[kept[np.unique(s[kept] * n + d[kept], return_index=True)[1]]] = False
        # one spare slot, so the stand-in end 0 of an unknown end exists even with no units
        roles = [u.role for u in self.units] + [None]
        clamped = known & np.array([r in (INPUT, BIAS) for r in roles], dtype=bool)[d]
        leaves = known & np.array([r == OUTPUT for r in roles], dtype=bool)[s] & self.recurrent
        loop = known & (src == dst) & (not self.recurrent)
        for k in np.flatnonzero(~known | duplicate | clamped | leaves | loop).tolist():
            edge = f"edge ({src[k]}->{dst[k]})"
            if not known[k]:
                found.append((True, f"{edge} references an unknown unit"))
                continue
            if duplicate[k]:
                found.append((True, f"duplicate {edge}"))
            if clamped[k]:
                found.append((False, f"{edge} feeds a clamped {self.units[dst[k]].role} unit"))
            if leaves[k]:
                found.append((False, f"{edge} leaves an output unit of a recurrent network"))
            if loop[k]:
                found.append((True, f"self-loop on unit {src[k]} in a non-recurrent network"))

        # the graph walks below assume every edge ends at a known unit
        if not self.recurrent and known.all():
            if left := np.flatnonzero(self._rounds < 0).tolist():
                found.append((True, f"non-recurrent network contains a cycle; units {left} "
                                    "lie on or after one"))
            else:
                found += [(False, f"hidden unit {h} lies on no input->output path")
                          for h in off_path(self.role_ids, n, src, dst)]
        return found

    def check(self) -> None:
        """Raise ValueError listing the fatal structural problems, if there are any.

        Every graph walk (evaluation, layers, order, constraints, deficits)
        runs this first.
        """
        fatal = [message for is_fatal, message in self._findings if is_fatal]
        if fatal:
            raise ValueError("invalid network: " + "; ".join(fatal))

    @cached_property
    def _rounds(self) -> np.ndarray:
        """Per unit: the round in which peeling removes it, -1 for a unit never removed.

        Each round removes every unit with no incoming edge from a unit still
        present (Kahn), so a unit's round is its longest-path depth from the
        units with no incoming edge.  The units never removed are every unit
        on a cycle or downstream of one.
        """
        n = len(self.units)
        rounds = np.full(n, -1, dtype=np.int64)
        present = np.ones(n, dtype=bool)
        for r in range(n):
            fed = np.bincount(self.dst[present[self.src]], minlength=n) > 0
            peel = present & ~fed
            if not peel.any():
                break
            rounds[peel] = r
            present &= fed
        return _frozen(rounds)

    @cached_property
    def depth(self) -> np.ndarray:
        """Longest-path depth of every unit from the units with no incoming edge (``_rounds``)."""
        if (self._rounds < 0).any():
            raise ValueError("network contains a directed cycle; no topological order")
        return self._rounds

    @cached_property
    def order(self) -> tuple:
        """Unit ids from the inputs toward the outputs: by ``depth``, then by id."""
        return tuple(np.argsort(self.depth, kind="stable").tolist())

    @cached_property
    def plan(self) -> "EvaluationPlan":
        return EvaluationPlan(self)


class Network:
    """A ``Structure`` plus a read-only float64 weight array ``w``, one weight per edge.

    ``edges``, one ``Edge`` record per edge, is built on first read.  Do not
    mutate a network; ``replace_weights`` makes a new one on the same
    structure.
    """

    def __init__(self, units, edges, recurrent: bool = False, unroll_steps: int = 3):
        edges = tuple(edges)
        self.structure = Structure(
            units, [e.src for e in edges], [e.dst for e in edges], recurrent, unroll_steps
        )
        self.w = _frozen(np.array([e.weight for e in edges], dtype=float))

    @classmethod
    def _on(cls, structure: Structure, w: np.ndarray) -> "Network":
        """The network with weight array ``w`` (taken over, not copied) on ``structure``."""
        net = cls.__new__(cls)
        net.structure = structure
        net.w = _frozen(w)
        return net

    @property
    def units(self):
        return self.structure.units

    @property
    def recurrent(self) -> bool:
        return self.structure.recurrent

    @property
    def unroll_steps(self) -> int:
        return self.structure.unroll_steps

    @cached_property
    def edges(self):
        s = self.structure
        return tuple(map(Edge, s.src.tolist(), s.dst.tolist(), self.w.tolist()))

    # -- basic queries -------------------------------------------------

    def unit(self, i: int) -> Unit:
        try:
            return self.structure.by_id[i]
        except KeyError:
            raise KeyError(f"unknown unit {i}") from None

    def ids_with_role(self, role: str):
        return list(self.structure.role_ids.get(role, ()))

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

    def weights(self) -> np.ndarray:
        return self.w.copy()

    def replace_weights(self, new_weights) -> "Network":
        """A network with a copy of ``new_weights`` on this network's structure."""
        w = np.array(new_weights, dtype=float)
        if w.shape != self.w.shape:
            raise ValueError("weight vector length must match the edge list")
        return Network._on(self.structure, w)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        a, b = self.structure, other.structure
        same = a is b or (
            (a.units, a.recurrent, a.unroll_steps) == (b.units, b.recurrent, b.unroll_steps)
            and np.array_equal(a.src, b.src)
            and np.array_equal(a.dst, b.dst)
        )
        return same and np.array_equal(self.w, other.w)

    def __repr__(self):
        kind = "recurrent" if self.recurrent else "feedforward"
        return f"Network({len(self.units)} units, {self.w.size} edges, {kind})"


def _edges_at(net: Network, i: int, end, other):
    """Edges whose ``end`` is unit i, ordered by their ``other`` end, ties in edge-list order."""
    net.unit(i)
    k = np.flatnonzero(end == i)
    return [net.edges[j] for j in k[np.argsort(other[k], kind="stable")].tolist()]


def in_edges(net: Network, i: int):
    """Edges ending at unit i, ordered by source id."""
    return _edges_at(net, i, net.structure.dst, net.structure.src)


def out_edges(net: Network, i: int):
    """Edges leaving unit i, ordered by target id."""
    return _edges_at(net, i, net.structure.src, net.structure.dst)


def topological_order(net: Network):
    """Unit ids from the inputs toward the outputs: by longest-path depth, then by id."""
    net.structure.check()
    return list(net.structure.order)


def validate(net: Network) -> list:
    """Return a list of invariant violations (empty iff the network is valid).

    The structural problems of ``structural_problems`` come first, then the
    hidden units with a dead incoming or outgoing side (see ``_dead_sides``),
    which a run skips but a valid network should not have.
    """
    problems = structural_problems(net)
    hidden = net.hidden_ids
    dead_in, dead_out = _dead_sides(net, hidden)
    for h, no_in, no_out in zip(hidden, dead_in.tolist(), dead_out.tolist()):
        if no_in:
            problems.append(f"hidden unit {h} has no nonzero incoming weight")
        if no_out:
            problems.append(f"hidden unit {h} has no nonzero outgoing weight")
    return problems


def _dead_sides(net: Network, ids):
    """Per unit of ``ids``: whether its incoming side is dead, and whether its outgoing side is.

    A side is dead when it has no nonzero edge; self-loops count on neither side.
    """
    s = net.structure
    live = (net.w != 0.0) & (s.src != s.dst)
    return ~np.isin(ids, s.dst[live]), ~np.isin(ids, s.src[live])


def check_structure(net: Network) -> None:
    """Raise ValueError listing the network's structural problems, if it has any."""
    problems = structural_problems(net)
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))


def structural_problems(net: Network) -> list:
    """Violations that make a network unusable: ids, roles, edges, cycles, paths and weights.

    The structure's problems come first, then one entry per non-finite weight.
    """
    s = net.structure
    bad = np.flatnonzero(~np.isfinite(net.w))
    return [message for _, message in s._findings] + [
        f"edge ({s.src[k]}->{s.dst[k]}): non-finite weight {w!r}"
        for k, w in zip(bad.tolist(), net.w[bad].tolist())
    ]


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
    """A structure's evaluation schedule, compiled once from its edge list.

    Feedforward networks group their non-clamped units by longest-path depth
    (the depth ``hidden_layers`` uses), so every source of a level lies in an
    earlier level or is clamped.  Recurrent networks have one hidden level,
    applied once per unrolled step, then the output level.  Applying a level
    gathers its sources, multiplies by its dense weight block and makes one
    activation call per distinct activation; since the sources are gathered
    before the level writes, a hidden step is a synchronous update.
    """

    def __init__(self, structure: Structure):
        ids = structure.role_ids
        self.n_units = len(structure.units)
        self.n_edges = structure.src.size
        self.inputs = np.array(ids[INPUT], dtype=np.int64)
        self.bias = np.array(ids[BIAS], dtype=np.int64)
        self.outputs = np.array(ids[OUTPUT], dtype=np.int64)
        src, dst = structure.src, structure.dst
        if structure.recurrent:
            groups = [ids[HIDDEN], ids[OUTPUT]]
            steps = [structure.unroll_steps, 1]
        else:
            units = np.setdiff1d(np.arange(self.n_units), np.concatenate([self.inputs, self.bias]))
            depth = structure.depth[units]
            groups = [units[depth == d].tolist() for d in np.unique(depth)]
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
            specs = [structure.by_id[u].activation for u in units]
            self.levels.append(
                Level(np.array(units, dtype=np.int64), srcs, activation_groups(specs))
            )
        self.schedule = tuple(schedule)
        self.block_size = offset
        self.sel = np.concatenate(sel_parts) if sel_parts else np.zeros(0, dtype=np.int64)
        self.pos = np.concatenate(pos_parts) if pos_parts else np.zeros(0, dtype=np.int64)

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
    """The plan of the network's structure, compiled on first use and shared.

    Raises ValueError on a fatal structural problem (see ``Structure.check``).
    """
    net.structure.check()
    return net.structure.plan


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
    blocks = plan.blocks(net.w)
    out = np.empty((rows.shape[0], plan.outputs.size))
    for start in range(0, rows.shape[0], ROW_BLOCK):
        block = rows[start : start + ROW_BLOCK]
        out[start : start + ROW_BLOCK] = plan.run(blocks, block)[:, plan.outputs]
    return out if x.ndim == 2 else out[0]


def frobenius_norm(net: Network) -> float:
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(net.w**2)))


# -- document format -------------------------------------------------------


# One edge record as ``json.dumps(doc, indent=2)`` lays it out inside the document.
_EDGE_RECORD = '    {\n      "from": %s,\n      "to": %s,\n      "weight": %s\n    }'


def serialize(net: Network) -> str:
    """Render the network as a JSON document; weights keep full binary64 precision.

    The text is exactly ``json.dumps(doc, indent=2)`` of the document.  The
    edge records, nearly all of a large document, are rendered from the edge
    arrays with one fixed template rather than by ``json``'s pure-Python
    indenting encoder.
    """
    s = net.structure
    doc = {
        "version": DOCUMENT_VERSION,
        "recurrent": net.recurrent,
        "unroll_steps": net.unroll_steps,
        "units": [
            {"id": u.id, "role": u.role, "activation": activation_to_json(u.activation)}
            for u in net.units
        ],
        "edges": [],
    }
    text = json.dumps(doc, indent=2)
    if not s.src.size:
        return text
    # str(float) is float.__repr__, json's spelling of a finite float; json.dumps
    # spells the rest NaN, Infinity and -Infinity
    weights = net.w.tolist()
    if not np.isfinite(net.w).all():
        weights = list(map(json.dumps, weights))
    records = ",\n".join(map(_EDGE_RECORD.__mod__, zip(s.src.tolist(), s.dst.tolist(), weights)))
    # "edges" is the last key, so the text ends in its empty list: '[]\n}'
    return text[:-4] + "[\n" + records + "\n  ]\n}"


def _whole_number(value, what):
    """A 64-bit integer document field; integral floats count, booleans and strings do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is int and -(2**63) <= value < 2**63:
        return value
    raise NetworkFormatError(f"{what} must be a 64-bit integer, got {value!r}")


def _records(doc, key):
    """The objects listed under ``key``, one (index, object) pair at a time."""
    records = doc.get(key, [])
    if not isinstance(records, list):
        raise NetworkFormatError(f"{key!r} must be a list of objects")
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise NetworkFormatError(f"{key!r} must be a list of objects, item {k} is {rec!r}")
        yield k, rec


def _check_edge_records(doc) -> None:
    """Raise NetworkFormatError naming the first malformed edge record, if there is one."""
    for k, rec in _records(doc, "edges"):
        for fieldname in ("from", "to", "weight"):
            if fieldname not in rec:
                raise NetworkFormatError(f"edge record {k}: missing {fieldname!r}")
        w = rec["weight"]
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise NetworkFormatError(f"edge record {k}: weight must be a number")
        try:
            float(w)
        except OverflowError:
            raise NetworkFormatError(f"edge record {k}: weight out of float range") from None
        _whole_number(rec["from"], f"edge record {k}: 'from'")
        _whole_number(rec["to"], f"edge record {k}: 'to'")


def _edge_arrays(doc):
    """The document's edge ends (int64) and weights (float64), checked in bulk.

    Every end must be an int and every weight an int or a float, and each
    field converts with one ``np.array`` call.  Only when that fails does
    ``_check_edge_records`` walk the records, to report the first bad one;
    if it finds none, some ends are integral floats, which convert exactly.
    """
    records = doc.get("edges", [])
    try:
        if isinstance(records, list):
            src = [r["from"] for r in records]
            dst = [r["to"] for r in records]
            w = [r["weight"] for r in records]
            ends = set(map(type, src)) | set(map(type, dst))
            if ends <= {int} and set(map(type, w)) <= {int, float}:
                return np.array(src, np.int64), np.array(dst, np.int64), np.array(w, np.float64)
    except (TypeError, KeyError, OverflowError):
        pass
    _check_edge_records(doc)
    # every record passed, so the bulk check failed on integral-float ends alone
    return np.array(src, np.int64), np.array(dst, np.int64), np.array(w, np.float64)


def deserialize(text: str) -> Network:
    """Parse a network document; every malformed document raises NetworkFormatError.

    Any JSON layout and key order is accepted.
    """
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
    src, dst, w = _edge_arrays(doc)
    recurrent = doc.get("recurrent", False)
    if not isinstance(recurrent, bool):
        raise NetworkFormatError(f"'recurrent' must be true or false, got {recurrent!r}")
    unroll_steps = _whole_number(doc.get("unroll_steps", 3), "'unroll_steps'")
    return Network._on(Structure(units, src, dst, recurrent, unroll_steps), w)


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
    ``bias_init="uniform"``.  Each size must be an integer (NumPy ones
    included) and ``bias_init`` one of "zeros" and "uniform"; anything else
    is a ``ValueError`` naming it.
    """
    sizes = [_integer(size, "layer sizes must be integers") for size in sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("need at least two layers with positive sizes")
    if bias_init not in ("zeros", "uniform"):
        raise ValueError(f"bias_init must be 'zeros' or 'uniform', got {bias_init!r}")
    rng = np.random.default_rng(seed)
    units, layers = [], []
    for li, size in enumerate(sizes):
        role = INPUT if li == 0 else OUTPUT if li == len(sizes) - 1 else HIDDEN
        act = (
            IDENTITY
            if role == INPUT
            else output_activation
            if role == OUTPUT
            else hidden_activation
        )
        layers.append(np.arange(len(units), len(units) + size))
        units += [Unit(int(i), role, act) for i in layers[-1]]
    bias_id = len(units)
    if bias:
        units.append(Unit(bias_id, BIAS, IDENTITY))

    src, dst, w = [], [], []
    for lower, upper in zip(layers[:-1], layers[1:]):
        r = math.sqrt(6.0 / (len(lower) + len(upper)))
        w.append(rng.uniform(-r, r, size=(len(lower), len(upper))).ravel())
        src.append(np.repeat(lower, len(upper)))
        dst.append(np.tile(upper, len(lower)))
    if bias:
        for layer in layers[1:]:
            if bias_init == "uniform":
                r = math.sqrt(6.0 / (1 + len(layer)))
                w.append(rng.uniform(-r, r, size=len(layer)))
            else:
                w.append(np.zeros(len(layer)))
            src.append(np.full(len(layer), bias_id))
            dst.append(layer)
    structure = Structure(units, np.concatenate(src), np.concatenate(dst))
    return Network._on(structure, np.concatenate(w))


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
    """Fully connected recurrent block: inputs -> hidden <-> hidden -> outputs.

    Each of the three sizes must be an integer (NumPy ones included) of at
    least 1; anything else is a ``ValueError`` naming it.
    """
    names = ("n_inputs", "n_hidden", "n_outputs")
    sizes = [_integer(size, f"{name} must be an integer")
             for name, size in zip(names, (n_inputs, n_hidden, n_outputs))]
    for name, size in zip(names, sizes):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    n_inputs, n_hidden, n_outputs = sizes
    rng = np.random.default_rng(seed)
    inputs = np.arange(n_inputs)
    hidden = np.arange(n_inputs, n_inputs + n_hidden)
    outputs = np.arange(n_inputs + n_hidden, n_inputs + n_hidden + n_outputs)
    units = [Unit(int(i), INPUT, IDENTITY) for i in inputs]
    units += [Unit(int(i), HIDDEN, hidden_activation) for i in hidden]
    units += [Unit(int(i), OUTPUT, output_activation) for i in outputs]
    src, dst, w = [], [], []

    def block(srcs, dsts, allow_self):
        r = math.sqrt(6.0 / (len(srcs) + len(dsts)))
        s, d = np.repeat(srcs, len(dsts)), np.tile(dsts, len(srcs))
        keep = (s != d) | allow_self
        src.append(s[keep])
        dst.append(d[keep])
        w.append(rng.uniform(-r, r, size=int(keep.sum())))

    block(inputs, hidden, False)
    block(hidden, hidden, self_loops)
    block(hidden, outputs, False)
    if bias:
        bias_id = len(units)
        units.append(Unit(bias_id, BIAS, IDENTITY))
        src.append(np.full(n_hidden + n_outputs, bias_id))
        dst.append(np.concatenate([hidden, outputs]))
        w.append(np.zeros(n_hidden + n_outputs))
    structure = Structure(units, np.concatenate(src), np.concatenate(dst), True, unroll_steps)
    return Network._on(structure, np.concatenate(w))


def hidden_layers(net: Network):
    """Hidden units grouped by longest-path depth from the inputs (feedforward)."""
    if net.recurrent:
        raise ValueError("layer structure is only defined for feedforward networks")
    net.structure.check()
    hidden = np.array(net.hidden_ids, dtype=np.int64)
    depth = net.structure.depth[hidden]
    return [hidden[depth == d].tolist() for d in np.unique(depth)]
