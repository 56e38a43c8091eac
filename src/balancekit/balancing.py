"""Scaling and balancing of neurons, subsets and layers, plus the run engine.

Scaling a hidden unit multiplies its incoming weights by lam and its outgoing
weights by lam**-c (c the unit's homogeneity exponent), which leaves the
network function unchanged.  Balancing picks the lam that minimizes the
unit's contribution to an additive weight cost; iterating balancing over the
units drives the whole network to the unique cost-minimizing weights in its
rescaling equivalence class.

Every operation applies one rule to a unit set S, either a single unit or a
tied subset sharing one factor and one exponent c: edge e is multiplied by
lam**([dst in S] - c [src in S]).  An edge with both ends in S, such as the
self-loop of a recurrent unit, picks up lam**(1-c), which is still
function-preserving and which for c = 1 means it never changes and drops out
of every balance computation.

Runs of several schedules on one network that balance the same sets in the
same way share one engine (``run_balancing_many``): stochastic runs advance
in lockstep, one weight row each, and the runs on one cycle are one stepping,
each a prefix of it; a single run is the batch of one.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .activations import homogeneity_exponent
from .manifold import MultiplierAssignment, apply_multipliers
from .netgraph import HIDDEN, Network, _dead_sides, check_structure, hidden_layers
from .regularizer import CostSpec, edge_costs, term_costs
from .regularizer import network_cost  # noqa: F401  (bench/layers.py traces this name)

_LOG_LIMIT = 700.0  # |log lam| beyond which lam**p overflows for any sensible p
_LN2 = math.log(2.0)


class DegenerateUnitError(ValueError):
    """Unit with an all-zero incoming or outgoing side: no finite optimum."""


@dataclass(frozen=True, slots=True)
class BalanceReport:
    unit: int
    lambda_star: float
    r_before: float
    r_after: float
    delta_r: float


@dataclass
class BalanceTrace:
    """Step-by-step record of a balancing run, kept as one column per quantity.

    Step k balanced ``units[k]`` (for tied-layer runs, the smallest unit of the
    subset) by ``lambdas[k]``; ``r_series[k]`` and ``deficit_series[k]`` hold
    the total cost and the summed balance deficit of the balanced unit sets
    after it (for tied-layer runs the sets are the subsets, so the deficit is
    the aggregate per-subset gap, the quantity those moves can actually drive
    to zero).  There is one row per step even where the engine solved a
    whole block of edge-disjoint sets at once, in the one row that all runs
    on a cycle share: each step writes one set, and its cost and deficit are
    summed afresh from the weights after it, so the columns are those of
    balancing one set at a time, one run alone.  ``r_initial`` is the
    cost before the first step.  The costs are the engine's (NumPy powers,
    pairwise row sums; see ``regularizer.edge_costs``), so ``network_cost`` of the
    result can differ from ``r_series[-1]`` in the last bits.  ``steps``
    builds one ``BalanceReport`` per step from the columns on every read.
    ``notes`` collects skipped units and other annotations; ``converged``
    reports whether the stop criterion was met within the step budget.
    """

    units: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    r_series: list = field(default_factory=list)
    deficit_series: list = field(default_factory=list)
    r_initial: float = 0.0
    notes: list = field(default_factory=list)
    converged: bool = True

    def _rows(self):
        """Per step: unit, lambda*, cost before, cost after, deficit after."""
        r_before = [self.r_initial] + self.r_series[:-1]
        return zip(self.units, self.lambdas, r_before, self.r_series, self.deficit_series)

    @property
    def steps(self):
        return [BalanceReport(u, lam, r0, r, r0 - r) for u, lam, r0, r, _ in self._rows()]


@dataclass(frozen=True)
class Schedule:
    """Order in which units are balanced, plus the stop criterion.

    kind is one of "stochastic" (uniform draws with replacement from numpy's
    seeded PCG64 generator), "sequential" (cycle ``order``, by default the
    hidden layers; a recurrent net's units by id), "layer_independent"
    (rewritten here to the "sequential" cycle over the partition's units)
    and "layer_tied" (cycle the partition, by default the hidden layers, one
    shared factor per subset; the subsets must be disjoint).
    The run stops, or takes no step, when the summed deficit of the sets it
    balances (the per-subset gap for "layer_tied", else the single-unit
    deficit) falls below ``deficit_tol * r_initial**2`` (the deficit is
    quadratic in the cost, so normalizing by the squared initial cost makes
    the tolerance dimensionless) or after ``max_steps`` single balancing
    operations.  Where ``r_initial**2`` is not a positive normal float
    (``r_initial`` outside about [1.49e-154, 1.34e154]) no tolerance is
    sound: the run takes no step and comes back not converged, with a note.
    ``seed`` and ``max_steps`` must be integers (NumPy ones
    included); anything else is a ``ValueError`` naming the field.
    """

    kind: str = "stochastic"
    seed: int = 0
    order: tuple = None
    partition: tuple = None
    deficit_tol: float = 1e-8
    max_steps: int = 100_000

    def __post_init__(self):
        kinds = ("stochastic", "sequential", "layer_independent", "layer_tied")
        if self.kind not in kinds:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("seed", "max_steps"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not self.deficit_tol >= 0.0:
            raise ValueError(f"deficit_tol must be >= 0, got {self.deficit_tol!r}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps!r}")
        if self.order is not None:
            object.__setattr__(self, "order", tuple(int(u) for u in self.order))
        if self.partition is not None:
            object.__setattr__(
                self, "partition", tuple(tuple(int(u) for u in part) for part in self.partition)
            )
        if self.kind == "layer_independent":
            order = None if self.partition is None else tuple(chain.from_iterable(self.partition))
            for name, value in (("kind", "sequential"), ("order", order), ("partition", None)):
                object.__setattr__(self, name, value)


# -- the rescaling rule --------------------------------------------------------

_PAD = 3  # side code of a padding slot in the per-set edge table


def _set_edges(src, dst, sets, n_units):
    """(set, edge, side) entries of the edges touching each of the disjoint unit sets.

    The entries are ordered by set, then by edge; the side is 0 into the set,
    1 out of it, 2 with both ends in it.  Unit ids must be dense, below ``n_units``.
    """
    members = np.fromiter(chain.from_iterable(sets), np.int64)
    member_set = np.repeat(np.arange(len(sets)), [len(units) for units in sets])
    owner = np.full(n_units, -1, dtype=np.int64)
    owner[members] = member_set
    shared = members[owner[members] != member_set]
    if shared.size:
        raise ValueError(f"unit {shared[0]} lies in more than one of the sets balanced together")
    head, tail = owner[dst], owner[src]
    # an edge enters its head's set, and leaves its tail's set when that is another one
    into, outof = np.flatnonzero(head >= 0), np.flatnonzero(tail >= 0)
    outof = outof[tail[outof] != head[outof]]
    k, edge = np.concatenate([head[into], tail[outof]]), np.concatenate([into, outof])
    side = np.concatenate([np.where(tail[into] == head[into], 2, 0), np.ones(outof.size, np.int64)])
    order = np.argsort(k * src.size + edge, kind="stable")  # unique keys; stable sorts them fastest
    return k[order], edge[order], side[order]


def _exponents(c):
    """Exponent of lam per side code, [dst in S] - c [src in S]: into, out of, inside S, padding."""
    return (1.0, -c, 1.0 - c, 0.0)


def _scaled_sum(terms, t):
    """sum_i m_i 2**(k_i + a_i t) over ``terms`` (m_i, k_i, a_i), split as 2**top times the
    rest: returns the integer top, the sum divided by 2**top and its t-derivative divided
    the same way.

    k_i and top are integers, so the only rounding in an exponent is that of
    a_i t, and nothing overflows at any scale.
    """
    top = math.floor(max([k + a * t for _, k, a in terms]))
    s = ds = 0.0
    for m, k, a in terms:
        v = m * 2.0 ** (k - top + a * t)
        s += v
        ds += a * v
    return top, s, ds


def _log_ratio(pos, neg, t):
    """log2(P / N) at t = log lam and its t-derivative, where lam * R'(lam) = P - N.

    P and N sum the positive and the negative terms of lam * R'(lam); the
    ratio has the sign of P - N, and its log is nearly linear in t wherever
    one term of each side dominates.  The derivative is positive.
    """
    top_p, s_p, d_p = _scaled_sum(pos, t)
    top_n, s_n, d_n = _scaled_sum(neg, t)
    return (top_p - top_n) + math.log2(s_p / s_n), d_p / s_p - d_n / s_n


def _solve_log_lambda(cost, sums, c):
    """Cost-minimizing log lam of one set from its per-term side sums (terms x 4 floats).

    The objective's derivative in t = log lam is lam * R'(lam) = sum over
    terms and sides of p e S exp(p e t) (e the side's exponent of lam, S the
    sum), strictly increasing in t.  Each sum is kept as a mantissa and an
    exact power of two (``math.frexp``).  The bracket starts around the
    per-term closed forms and widens until it changes sign; then a
    safeguarded Newton iteration (Press et al., Numerical Recipes, rtsafe)
    narrows it by the sign at each iterate and takes its midpoint where the
    step leaves it.  The steps are taken on ``_log_ratio``, which has the
    root and the sign of lam * R'(lam) but is nearly linear in t far from
    the root, where a step on lam * R'(lam) itself moves by about 1 / (p e).
    The solve stops once the step is within a few ulps of the largest
    exponent a t.  The padding sums and the inside sums of c = 1 are zero,
    so they drop out.
    """
    exps = _exponents(c)
    pos, neg, guesses = [], [], []
    for (p, _), row in zip(cost.terms, sums):
        for e, s in zip(exps, row):
            if s != 0.0 and e != 0.0:
                m, k = math.frexp(s)
                (pos if e > 0.0 else neg).append((abs(p * e) * m, k, p * e / _LN2))
        into, outof = row[0], row[1]
        if into > 0.0 and outof > 0.0:
            guess = (math.log(c) + math.log(outof) - math.log(into)) / (p * (c + 1.0))
            if math.isfinite(guess):
                guesses.append(guess)
    slope = max([abs(a) for _, _, a in pos + neg])
    lo, hi = (min(guesses), max(guesses)) if guesses else (0.0, 0.0)
    g_lo, d_lo = _log_ratio(pos, neg, lo)
    width = 1.0
    while g_lo > 0.0 and lo > -_LOG_LIMIT:
        lo, width = lo - width, 2.0 * width
        g_lo, d_lo = _log_ratio(pos, neg, lo)
    g_hi, d_hi = (g_lo, d_lo) if hi == lo else _log_ratio(pos, neg, hi)
    width = 1.0
    while g_hi < 0.0 and hi < _LOG_LIMIT:
        hi, width = hi + width, 2.0 * width
        g_hi, d_hi = _log_ratio(pos, neg, hi)
    if not g_lo <= 0.0 <= g_hi:
        raise DegenerateUnitError("no bracketed optimum within the floating-point range")
    t, g, dg = (lo, g_lo, d_lo) if -g_lo <= g_hi else (hi, g_hi, d_hi)
    while True:
        step = g / dg
        tol = 4.0 * math.ulp(1.0 + slope * abs(t)) / dg
        if abs(step) <= tol:
            return t - step
        if hi - lo <= tol:
            return t
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        g, dg = _log_ratio(pos, neg, t)
        if g < 0.0:
            lo = t
        else:
            hi = t


class _Engine:
    """Array-backed balancing state of R replicas of one network under one family of unit sets.

    The state is one flat array of R blocks, one per replica, each holding
    the replica's E + 1 weights, its E + 1 edge costs, its signed gap terms
    (one per (set, edge) entry) and a dummy slot; the last weight and cost
    belong to a dummy edge held at zero.  Set k owns row k of a padded
    (n_sets, max_degree) table of the edges touching it and of their side
    codes (into, out of, inside, padding); padding slots point at the dummy
    edge and scale by lam**0.  The positions are replica 0's; replica r's
    lie ``r`` blocks further on.

    The replicas step in lockstep; only stochastic runs take several, as
    the runs on one cycle share one.  ``begin(blocks)`` solves row r of the
    (R, size) array ``blocks``, sets that share no edge, in replica r from
    the current weights, with one gather, one ``bincount`` of side sums,
    lam* (the closed form for all rows at once, a Newton solve in log lam
    row by row where it does not apply) and one product, so each set gets
    the factor it would get once the sets before it are written.  It writes
    the first set of every row (one scatter of weights, one of edge costs
    and gap terms).  A block of several sets comes only in one replica,
    which keeps its later sets for ``advance`` to write one by one;
    stochastic picks are blocks of one set, solved and written at once.

    The gap term of an entry is the edge's p-weighted cost (see
    ``regularizer.edge_costs``) times the set's exponent of lam on it (1 into the set,
    -c out of it, 1 - c inside); a write refreshes the entries of its edges
    in the sets at both ends.  ``deficit()`` is, per replica, the sum over
    sets of their squared gap sum_{u in set} in_u - c out_u, still reduced
    afresh from the terms of the current weights, with one segment sum and
    no gather.  The engine starts with one replica of ``net``;
    ``select(rows)`` replicates it or drops the replicas that are done.
    """

    def __init__(self, net, cost, sets):
        self.net = net
        self.cost = cost
        self.src, self.dst = net.structure.src, net.structure.dst
        n_edges = self.src.size
        w = np.zeros((1, n_edges + 1))
        w[0, :n_edges] = net.w
        ec, q = edge_costs(cost, w)
        self.r = self.r_init = ec[:, :n_edges].sum(axis=1)

        k, edge, side = _set_edges(self.src, self.dst, sets, len(net.structure.units))
        n_sets = len(sets)
        self.unit = np.array([units[0] for units in sets], dtype=np.int64)
        self.c = net.structure.exponent[self.unit]
        sizes = np.bincount(k, minlength=n_sets)
        starts = np.cumsum(sizes) - sizes
        slot = np.arange(k.size) - starts[k]  # position of each entry in its set's row
        self._edge = np.full((n_sets, sizes.max(initial=0)), n_edges, dtype=np.int64)
        self._side = np.full(self._edge.shape, _PAD, dtype=np.int64)
        self._edge[k, slot], self._side[k, slot] = edge, side
        power = np.empty((n_sets, 4))  # lam exponent per side code
        power[:, 0], power[:, 1], power[:, 2], power[:, 3] = _exponents(self.c)
        self._power = power.reshape(-1)[self._side + 4 * np.arange(n_sets)[:, None]]
        self._sel, self._sign, self._slot = edge, power[k, side], (k, slot)
        # each set's entries are contiguous; a set with no edge has no gap
        self._starts = starts[sizes > 0]

        single = cost.single_term
        # the closed form's exponent, and whether every set takes it whatever the weights
        # (a set with no edge inside has S = 0 exactly)
        self._root = None if single is None else 1.0 / (single[0] * (self.c + 1.0))
        self._all_closed = single is not None and not ((side == 2) & (self.c[k] != 1.0)).any()
        self._block = 2 * (n_edges + 1) + k.size + 1
        self._bins = np.zeros((1, 1), dtype=np.int64)  # bincount bin offset per solved row
        self._writes = None
        self._hold(np.concatenate((w[0], ec[0], q[0].take(edge) * self._sign, [0.0])))

    def _hold(self, state):
        """Take ``state``, one block per replica."""
        n_edges = self.src.size
        blocks = state.reshape(-1, self._block)
        self._state, self._w = state, blocks[:, :n_edges + 1]
        self._ec_real = blocks[:, n_edges + 1:2 * n_edges + 1]
        self._terms = blocks[:, 2 * (n_edges + 1):-1]
        # each replica's state offset, none to add for one
        self._offset = None if len(blocks) == 1 else np.arange(0, state.size, self._block)[:, None]

    def _tables(self):
        """Per slot, in replica 0's block: where a write puts the edge's cost and its gap
        terms in the set itself and in the set at the edge's other end, the same after the
        edge's own position, and the factors that turn the edge's p-weighted cost into the
        three values (1 and the two exponents of lam on it).  Padding, and a missing second
        entry, go to the dummy edge and the dummy slot.  Built on the first write (the
        deficit needs none of them) and kept in ``_writes``.
        """
        n_sets, width = self._edge.shape
        n_edges, n = self.src.size, self._sel.size
        k, slot = self._slot
        terms_at = 2 * (n_edges + 1)
        places = np.empty((n_sets, 3, width), dtype=np.int64)
        places[:, 0] = self._edge + (n_edges + 1)
        places[:, 1:] = terms_at + n
        places[k, 1, slot] = np.arange(terms_at, terms_at + n)
        factors = np.zeros((n_sets, 3, width))
        factors[:, 0], factors[:, 1] = 1.0, self._power
        if n_sets > 1:  # in one set, every edge has one entry
            by_edge = np.argsort(self._sel, kind="stable")
            pair = np.flatnonzero(self._sel[by_edge[1:]] == self._sel[by_edge[:-1]])
            first, second = by_edge[pair], by_edge[pair + 1]
            for one, other in ((first, second), (second, first)):
                places[k[one], 2, slot[one]] = terms_at + other
                factors[k[one], 2, slot[one]] = self._sign[other]
        places = places.reshape(n_sets, 3 * width)
        self._writes = places, np.concatenate((self._edge, places), axis=1), factors
        return self._writes

    @property
    def w(self):
        return self._w[:, :-1]

    def _codes(self, ks):
        """Bin of each slot of set ``ks[j]`` in one ``bincount`` over the rows: 4 j + side code."""
        codes = self._side.take(ks, axis=0)
        if len(ks) > 1:
            if self._bins.size < len(ks):
                self._bins = np.arange(0, 4 * len(ks), 4)[:, None]
            codes = codes + self._bins[:len(ks)]
        return codes.ravel()

    def _side_sums(self, codes, cost_at, w):
        """Per-term side sums (rows, terms, 4) from the slots' bins, cost positions and weights.

        Bin 3 of each row collects the padding.  One-term costs read the
        sums off the maintained edge costs.
        """
        n = len(w)
        if self._root is not None:
            return np.bincount(codes, self._state.take(cost_at).ravel(), 4 * n).reshape(n, 1, 4)
        sums = [np.bincount(codes, t.ravel(), 4 * n).reshape(n, 4) for t in term_costs(self.cost, w)]
        return np.stack(sums, axis=1)

    def _lambda(self, ks, sums):
        """Cost-minimizing factor of set ``ks[i]`` in replica i, from its side sums.

        The objective in lam is sum_t A_t lam**p + B_t lam**(-p c) + S_t lam**(p(1-c)).
        A single power term without an inside contribution has the closed form
        (c * B / A) ** (1 / (p (c + 1))), computed for all rows at once; any
        other row goes to ``_solve_log_lambda``.
        """
        tot = sums[:, 0] if sums.shape[1] == 1 else sums.sum(axis=1)
        if tot[:, :2].min() <= 0.0:
            raise DegenerateUnitError("unit has an all-zero incoming or outgoing side")
        c = self.c.take(ks)
        if self._root is None:
            lam, solve = np.empty(len(ks)), np.ones(len(ks), dtype=bool)
        else:
            lam = (c * tot[:, 1] / tot[:, 0]) ** self._root.take(ks)
            if self._all_closed:
                return lam
            solve = (c != 1.0) & (tot[:, 2] != 0.0)
        # a Newton solve takes a few steps on a handful of terms, its bracket
        # search a different number per row: Python floats, one row at a time
        rows = np.flatnonzero(solve)
        for row, row_sums, row_c in zip(rows.tolist(), sums[rows].tolist(), c[rows].tolist()):
            lam[row] = math.exp(_solve_log_lambda(self.cost, row_sums, row_c))
        return lam

    def _solve(self, ks):
        """lam* of set ``ks[r, j]`` in replica r, from the current weights, row by row, and
        what a write takes: the state positions of the sets' weights, their new weights, the
        positions of their edge costs and gap terms, and those."""
        places, _, factors = self._writes or self._tables()
        ks = ks.ravel()
        at, rest_at = self._edge.take(ks, axis=0), places.take(ks, axis=0)
        if self._offset is not None:  # one set per replica
            at, rest_at = at + self._offset, rest_at + self._offset
        w = self._state.take(at)
        lam = self._lambda(ks, self._side_sums(self._codes(ks), rest_at[:, :w.shape[1]], w))
        factors = factors.take(ks, axis=0)  # 1, then the exponents of lam in the two sets
        w = w * lam[:, None] ** factors[:, 1]
        ec, q = edge_costs(self.cost, w)
        rest = q[:, None] * factors
        if ec is not q:
            rest[:, 0] = ec
        return lam, at, w, rest_at, rest.reshape(ks.size, -1)

    def begin(self, blocks):
        """Solve the block ``blocks[r]`` of each replica r and write its first set; returns the
        first sets' factors and how many sets of each block were solved.

        The sets of a block must share no edge, so a set's solution is the
        one it would get once the sets before it are written; the sets after
        the first are kept for ``advance``.  When some set has no optimum,
        only the first set of each block is solved, so the error comes at
        the step that reaches that set.
        """
        size = blocks.shape[1]
        try:
            solved = self._solve(blocks)
        except DegenerateUnitError:
            if size == 1:
                raise
            return self.begin(blocks[:, :1])
        lam, at, w, rest_at, rest = solved
        if size > 1:  # one replica
            self._kept = np.concatenate((w[1:], rest[1:]), axis=1)
            self._kept_lam, self._kept_sets, self._next = lam[1:], blocks[0, 1:], 0
            lam, at, w, rest_at, rest = (a[:1] for a in solved)
        self._state[at] = w
        self._state[rest_at] = rest
        self.r = np.add.reduce(self._ec_real, axis=1)
        return lam, size

    def advance(self):
        """Write the next kept set of the one replica; returns its factor, shape (1,)."""
        j = self._next
        self._next = j + 1
        self._state[self._writes[1][self._kept_sets[j]]] = self._kept[j]
        self.r = np.add.reduce(self._ec_real, axis=1)
        return self._kept_lam[j:j + 1]

    def deficit(self):
        """Per replica: the summed squared balance gap of the sets, from the current weights."""
        gaps = np.add.reduceat(self._terms, self._starts, axis=1)
        return np.einsum("ij,ij->i", gaps, gaps)

    def blocks(self, cycle):
        """Steps left to the end of its block from each position of ``cycle``.

        A block is a maximal run of consecutive sets of the cycle that share
        no edge; a set shares its edges with itself, so a repeat starts a new
        block.
        """
        starts = [0]
        touched = np.zeros(self.src.size + 1, dtype=bool)  # edges of the block so far
        for p, edges in enumerate(self._edge[cycle]):
            if touched[edges].any():
                starts.append(p)
                touched[:] = False
            touched[edges] = True
            touched[-1] = False  # the dummy edge of the padding
        bounds = np.array(starts + [len(cycle)])
        return np.repeat(bounds[1:], np.diff(bounds)) - np.arange(len(cycle))

    def select(self, rows):
        """Keep the replicas ``rows`` picks: a mask, or indices that may repeat a replica."""
        self.r = self.r[rows]
        self._hold(self._state.reshape(-1, self._block)[rows].ravel())

    def to_network(self):
        return self.net.replace_weights(self.w[0])


# -- single-unit and single-set operations --------------------------------------


def _unit_exponent(net, i, allow_nonhomogeneous):
    unit = net.unit(i)
    if unit.role != HIDDEN:
        raise ValueError(f"unit {i} is {unit.role}; only hidden units can be scaled")
    c = homogeneity_exponent(unit.activation)
    if c is None:
        if not allow_nonhomogeneous:
            raise ValueError(
                f"unit {i} has a non-homogeneous activation; pass allow_nonhomogeneous=True to force"
            )
        c = 1.0
    return c


def _check_tied(net, units):
    """Reject a tied set that mixes exponents or has an edge inside it."""
    s = net.structure
    exponents = np.unique(s.exponent[list(units)]).tolist()
    if len(exponents) != 1:
        raise ValueError(f"tied subset {sorted(units)} mixes homogeneity exponents {exponents}")
    _, edge, side = _set_edges(s.src, s.dst, [units], len(s.units))
    inside = edge[side == 2]
    if inside.size:
        k = inside[0]
        raise ValueError(
            f"edge ({s.src[k]}->{s.dst[k]}) connects two units of tied subset {sorted(units)}"
        )


def _balance_set(net, units, cost):
    """Balance one set from ``net``; the report's costs are the engine's, as in a run's trace."""
    eng = _Engine(net, cost, [units])
    lam = float(eng.begin(np.zeros((1, 1), dtype=np.int64))[0][0])
    r_before, r_after = float(eng.r_init[0]), float(eng.r[0])
    return eng.to_network(), BalanceReport(units[0], lam, r_before, r_after, r_before - r_after)


def scale_neuron(net, i, lam, allow_nonhomogeneous=False) -> Network:
    """Multiply unit i's incoming weights by lam and its outgoing by lam**-c: the one-unit
    ``apply_multipliers``, as scalings commute."""
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"scaling factor must be > 0, got {lam}")
    _unit_exponent(net, i, allow_nonhomogeneous)
    return apply_multipliers(net, MultiplierAssignment({i: lam}))


def optimal_lambda(net, i, cost: CostSpec, allow_nonhomogeneous=False) -> float:
    """The unique scaling factor of unit i that minimizes the weight cost."""
    _unit_exponent(net, i, allow_nonhomogeneous)
    return float(_Engine(net, cost, [(i,)]).begin(np.zeros((1, 1), dtype=np.int64))[0][0])


def balance_neuron(net, i, cost: CostSpec, allow_nonhomogeneous=False):
    """Scale unit i by its optimal factor; returns (new network, report)."""
    _unit_exponent(net, i, allow_nonhomogeneous)
    return _balance_set(net, (i,), cost)


def balance_subset_tied(net, units, cost: CostSpec, allow_nonhomogeneous=False):
    """Balance a set of units with one shared scaling factor.

    All units must share the same homogeneity exponent and there may be no
    edges inside the set (that includes self-loops).  The shared factor
    equalizes the aggregate incoming and outgoing cost of the set; individual
    units need not end up balanced.
    """
    units = tuple(sorted(set(int(u) for u in units)))
    if not units:
        raise ValueError("empty unit set")
    for u in units:
        _unit_exponent(net, u, allow_nonhomogeneous)
    _check_tied(net, units)
    return _balance_set(net, units, cost)


def neuron_deficit(net, i, cost: CostSpec) -> float:
    """Squared gap between incoming and (exponent-weighted) outgoing cost.

    Zero exactly when the unit satisfies its balance equation.  Self-loop
    edges appear in both sums, so for exponent 1 they cancel identically.
    Term t of a multi-term cost is weighted by p_t / max p (see ``regularizer.edge_costs``).
    """
    unit = net.unit(i)
    if unit.role != HIDDEN:
        raise ValueError(f"unit {i} is {unit.role}; deficit is defined for hidden units")
    return float(_Engine(net, cost, [(i,)]).deficit()[0])


def network_deficit(net, cost: CostSpec) -> float:
    """Sum of deficits over the units a run balances (hidden, with a homogeneity exponent and
    a nonzero weight on each side); no run can balance a unit with a dead side."""
    net.structure.check()
    eligible, _ = _balanceable(net, False)
    return float(_Engine(net, cost, [(h,) for h in eligible]).deficit()[0])


# -- passes and runs -------------------------------------------------------------

_DRAW_CHUNK = 256  # picks drawn (stochastic) or tiled (cyclic) per engine row at a time


def _balanceable(net, allow_nonhomogeneous):
    """Hidden units a run may balance, plus notes on those skipped for a dead side."""
    hidden = [h for h in net.hidden_ids if net.structure.free[h] or allow_nonhomogeneous]
    dead = np.logical_or(*_dead_sides(net, hidden)).tolist()
    notes = [f"unit {h} skipped: all-zero incoming or outgoing side" for h, d in zip(hidden, dead) if d]
    return [h for h, d in zip(hidden, dead) if not d], notes


def _default_cycle(net, index):
    """Set indices of the balanceable units, layer by layer from the inputs (recurrent: by id)."""
    units = index if net.recurrent else chain.from_iterable(hidden_layers(net))
    return [index[u] for u in units if u in index]


def _order_cycle(order, index, notes):
    """Set indices of an explicit unit order; notes each unit in it that a run cannot balance."""
    order = [int(u) for u in order]
    notes.extend(f"unit {u} skipped in order: not balanceable" for u in order if u not in index)
    return [index[u] for u in order if u in index]


def _take_no_step(traces, why):
    """Mark each of ``traces`` unconverged, with a note saying why its run takes no step."""
    for trace in traces:
        trace.converged = False
        trace.notes.append(f"no step taken: {why}")


def _finite_start(eng, traces):
    """The engine's starting deficit, or None when it is not finite.

    Then an edge cost overflows: no tolerance is met and no step is sound, so
    each of ``traces`` is marked unconverged with a note, and its run takes
    no step.
    """
    gap = float(eng.deficit()[0])
    if math.isfinite(gap):
        return gap
    _take_no_step(traces, f"the starting deficit is {gap!r}, not finite")
    return None


def partial_balance_pass(net, cost, order=None, allow_nonhomogeneous=False):
    """Balance each unit exactly once, by default in the default "sequential" cycle's order.

    One pass lowers the total cost monotonically but generally leaves earlier
    units unbalanced again once their downstream neighbours move.  It is a
    cyclic run capped at one step per listed unit that never stops early,
    unless its starting deficit is not finite: then it takes no step and
    returns ``net``, not converged, with a note.
    """
    check_structure(net)
    eligible, notes = _balanceable(net, allow_nonhomogeneous)
    eng = _Engine(net, cost, [(u,) for u in eligible])
    trace = BalanceTrace(r_initial=float(eng.r_init[0]), notes=notes)
    if _finite_start(eng, [trace]) is None:
        return net, trace
    index = {u: k for k, u in enumerate(eligible)}
    cycle = _default_cycle(net, index) if order is None else _order_cycle(order, index, notes)
    (w,), _ = _run_batch(eng, [(_cyclic_picks(eng, cycle), -math.inf, len(cycle), trace)])
    return net.replace_weights(w), trace


def _stochastic_picks(seed, n):
    """Uniform draws from a seeded PCG64; a chunk of k continues the one-at-a-time stream.

    Every draw is a block of one.
    """
    rng = np.random.default_rng(seed)
    return lambda t, k: (rng.integers(n, size=k), np.ones(k, dtype=np.int64))


def _cyclic_picks(eng, cycle):
    """Steps through ``cycle`` over and over, split once into blocks (see ``_Engine.blocks``);
    a block drawn in a chunk of k picks ends with the chunk at the latest."""
    cycle = np.asarray(cycle, dtype=np.int64)
    left = eng.blocks(cycle)

    def picks(t, k):
        at = np.arange(t, t + k) % cycle.size
        return cycle[at], np.minimum(left[at], np.arange(k, 0, -1))

    return picks


def _run_batch(eng, runs):
    """Step the rows of ``eng`` in lockstep until each run meets its tolerance or its step cap.

    ``runs[i]`` is (picks, tol_abs, max_steps, trace): picks(t, k) returns the
    set indices of steps t .. t + k - 1 and, for each, the steps left to the
    end of its block, a run of consecutive sets that share no edge that ends
    by step t + k (1 for a set that is a block of its own).  Stochastic runs
    step one engine row each, one set per step.  Runs on one cycle share its
    picks and one row, since a cycle is deterministic: a run stops at the
    first step where the row's deficit meets its tolerance, or at its cap,
    with the row's weights then and its columns so far.  A block's first
    step solves all of its sets from one gather and writes the first
    (``_Engine.begin``), its later steps write the sets it kept
    (``_Engine.advance``): each step writes the bits that solving its set
    afresh would, and the deficit is reduced afresh after it, so the stop
    test and the logged columns do not depend on the blocks.  Fills in the
    step columns of each trace; returns the final weights of each run, and
    whether each run met its tolerance.
    """
    picks_of = [run[0] for run in runs]
    tol = np.array([run[1] for run in runs])
    cap = np.array([run[2] for run in runs])
    shared = len(eng.w) < len(runs)  # one row stepped for all the runs
    ids = np.arange(len(runs))  # live runs
    lead = ids[:len(eng.w)]  # the run that logs each engine row
    finals = [None] * len(runs)
    met = np.zeros(len(runs), dtype=bool)
    n_steps = np.zeros(len(runs), dtype=np.int64)
    log, steps = [], []  # per step, then per chunk: (lead, set, lam, r after, deficit after)
    done = np.zeros(len(runs), dtype=bool)
    min_cap, block_end = min(cap.tolist(), default=0), 0  # block_end: the step the block ends at
    t = 0
    while True:
        if t >= min_cap or np.count_nonzero(done):
            stop = done | (cap <= t)
            for row in np.flatnonzero(stop):
                finals[ids[row]] = eng.w[0 if shared else row].copy()
            met[ids[stop]], n_steps[ids[stop]] = done[stop], t
            go = ~stop
            ids, tol, cap = ids[go], tol[go], cap[go]
            if not ids.size:
                break
            if not shared:
                eng.select(go)
                if t % _DRAW_CHUNK:
                    picks = picks[go]
            lead, min_cap = ids[:len(eng.w)], int(cap.min())
        j = t % _DRAW_CHUNK
        if j == 0:
            drawn = [picks_of[i](t, _DRAW_CHUNK) for i in lead]
            picks = np.array([ks for ks, _ in drawn])
            left = drawn[0][1].tolist()  # the same for every run
        if t < block_end:
            lam = eng.advance()
        else:
            lam, size = eng.begin(picks[:, j:j + left[j]])
            block_end = t + size
        deficit = eng.deficit()  # (1,) on a shared row, against every live run's tolerance
        log.append((lead, picks[:, j], lam, eng.r, deficit))
        t += 1
        if t % _DRAW_CHUNK == 0:
            steps.append([np.concatenate(col) for col in zip(*log)])
            log = []
        done = deficit <= tol

    if log:
        steps.append([np.concatenate(col) for col in zip(*log)])
    if steps:
        # drop the chunks once sorted: kept, they would add to the peak while the lists are built
        ids, *columns = zip(*steps)
        del steps
        # a shared row's lead only moves on to later runs, so its log stays in step order
        order = np.argsort(np.concatenate(ids), kind="stable")
        sets, lam, r_after, deficit = (np.concatenate(col)[order] for col in columns)
        units = eng.unit.take(sets)
        del columns
        ends = n_steps if shared else np.cumsum(n_steps)
        for (*_, trace), s, e in zip(runs, (ends - n_steps).tolist(), ends.tolist()):
            trace.units, trace.lambdas = units[s:e].tolist(), lam[s:e].tolist()
            trace.r_series, trace.deficit_series = r_after[s:e].tolist(), deficit[s:e].tolist()
    return finals, met.tolist()


def run_balancing_many(net, schedules, cost: CostSpec, allow_nonhomogeneous=False):
    """Run every schedule on ``net``: ``[run_balancing(net, s, cost) for s in schedules]``.

    Runs that balance the same unit sets (the disjoint subsets of a
    ``layer_tied`` partition, else the single units) in the same way (all
    stochastic, or all on one cycle) form one batch on one engine.  It holds
    one weight row per stochastic run, and one row for all the runs on a
    cycle, each of which is a prefix of that row's stepping; each run starts
    and stops on its own sets' deficit.
    """
    schedules = list(schedules)
    check_structure(net)
    eligible, notes = _balanceable(net, allow_nonhomogeneous)
    singles = tuple((u,) for u in eligible)
    eng = _Engine(net, cost, singles)
    r_init = float(eng.r_init[0])
    traces = [BalanceTrace(r_initial=r_init, notes=list(notes)) for _ in schedules]
    results = [(net, trace) for trace in traces]  # what a run that takes no step returns
    if not eligible:
        for trace in traces:
            trace.notes.append("nothing to balance")
        return results
    start = float(eng.deficit()[0])
    r_sq = r_init * r_init  # inf, where ** would raise, past the float range
    if math.isfinite(start) and not sys.float_info.min <= r_sq < math.inf:
        # the tolerances scale with r_sq: out of range they read 0 or inf, and a
        # run would stop on a deficit that underflows or on none at all
        _take_no_step(traces, f"the squared starting cost {r_sq!r} is not a positive normal float")
        return results
    index = {u: k for k, u in enumerate(eligible)}
    # (unit sets, cycle or None if drawn) -> runs on them: (schedule index, tol_abs)
    families = {}
    for i, (schedule, trace) in enumerate(zip(schedules, traces)):
        tol_abs = schedule.deficit_tol * r_sq
        sets, cycle = singles, None
        if schedule.kind != "layer_tied" and math.isfinite(start) and start <= tol_abs:
            continue  # before the order is read, so a converged run adds no note
        if schedule.kind == "sequential":
            order = schedule.order
            cycle = _default_cycle(net, index) if order is None else _order_cycle(order, index, trace.notes)
        elif schedule.kind == "layer_tied":
            partition = schedule.partition
            if partition is None:
                partition = hidden_layers(net)
            parts = [tuple(sorted(u for u in part if u in index)) for part in partition]
            sets = tuple(part for part in parts if part)
            for part in sets:
                _check_tied(net, part)
            cycle = range(len(sets))
        if cycle is not None and not cycle:
            trace.notes.append("nothing to balance")
            continue
        key = sets, None if cycle is None else tuple(cycle)
        families.setdefault(key, []).append((i, tol_abs))

    spare = {singles: eng}  # an engine serves one batch: its steps rewrite its weights
    for (sets, cycle), runs in families.items():
        batch = spare.pop(sets) if sets in spare else _Engine(net, cost, sets)
        gap = _finite_start(batch, [traces[i] for i, _ in runs])
        if gap is None:
            continue
        runs = [(i, tol_abs) for i, tol_abs in runs if gap > tol_abs]
        cyclic = None if cycle is None else _cyclic_picks(batch, cycle)
        if cyclic is None:  # one row per stochastic run; runs on one cycle share one
            batch.select(np.zeros(len(runs), dtype=np.int64))
        specs = [
            (cyclic or _stochastic_picks(schedules[i].seed, len(sets)), tol_abs,
             schedules[i].max_steps, traces[i])
            for i, tol_abs in runs
        ]
        for (i, _), w, ok in zip(runs, *_run_batch(batch, specs)):
            results[i] = (net.replace_weights(w), traces[i])
            if not ok:
                traces[i].converged = False
                traces[i].notes.append(f"stopped after max_steps={schedules[i].max_steps}")
    return results


def run_balancing(net, schedule: Schedule, cost: CostSpec, allow_nonhomogeneous=False):
    """Iterate balancing per the schedule until the deficit tolerance or step cap.

    Returns the rebalanced network and a BalanceTrace; a run that exhausts
    ``max_steps`` comes back with ``trace.converged`` False instead of raising.
    This is the one-schedule case of ``run_balancing_many``.
    """
    return run_balancing_many(net, [schedule], cost, allow_nonhomogeneous)[0]


def trace_to_csv(trace: BalanceTrace) -> str:
    return "step,unit,lambda_star,delta_r,r_after,deficit_after\n" + "".join(
        f"{k},{u},{lam!r},{r0 - r!r},{r!r},{d!r}\n" for k, (u, lam, r0, r, d) in enumerate(trace._rows())
    )
