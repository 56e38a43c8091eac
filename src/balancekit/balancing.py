"""Scaling and balancing of neurons, subsets and layers, plus the run engine.

Scaling a hidden unit multiplies its incoming weights by lam and its outgoing
weights by lam**-c (c the unit's homogeneity exponent), which leaves the
network function unchanged.  Balancing picks the lam that minimizes the
unit's contribution to an additive weight cost; iterating balancing over the
units drives the whole network to the unique cost-minimizing weights in its
rescaling equivalence class.  Every entry takes only a net ``check_structure``
passes, and rescales only the units ``Structure.free`` marks.

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
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .manifold import MultiplierAssignment, apply_multipliers
from .netgraph import HIDDEN, Network, check_structure, hidden_layers
from .regularizer import CostSpec, edge_costs, term_costs
from .regularizer import network_cost  # noqa: F401  (bench/layers.py traces this name)

_LOG_LIMIT = 700.0  # |log lam| beyond which lam**p overflows for any sensible p
_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon


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
    on a cycle share.  The units, lambdas and weights are those of balancing
    one set at a time, one run alone, and so are the cost and the deficit
    on the last row of each block (every row of a stochastic run) and on
    the run's last row, which are summed afresh from the weights.  Inside a
    block they are the block's start plus the changes of its sets, within
    a few rounding units of the cost of those sums (see ``_Engine._rows``);
    a run's columns are the same in any batch.  ``r_initial`` is the
    cost before the first step.  ``steps`` builds one ``BalanceReport``
    per step from the columns on every read.
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
    deficit) is at most ``deficit_tol * r_initial**2`` (the deficit is
    quadratic in the cost, so normalizing by the squared initial cost makes
    the tolerance dimensionless) or after ``max_steps`` single balancing
    operations.  Where ``r_initial**2`` is not a positive normal float
    (``r_initial`` outside about [1.49e-154, 1.34e154]) no tolerance is
    sound: the run takes no step and comes back not converged, with a note.
    ``seed`` and ``max_steps`` must be integers (NumPy ones
    included); anything else is a ``ValueError`` naming the field.  So is an
    ``order`` or a ``partition`` given to a kind that does not read it.
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
        for name, readers in (("order", ("sequential",)),
                              ("partition", ("layer_tied", "layer_independent"))):
            if getattr(self, name) is not None and self.kind not in readers:
                raise ValueError(f"schedule kind {self.kind!r} does not read {name!r}, "
                                 f"only {' and '.join(map(repr, readers))}")
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
    the factor it would get once the sets before it are written.  A block
    of one set per replica (every stochastic pick) is written at once: one
    scatter of weights, one of edge costs and gap terms, and the cost
    summed afresh.  A block of several sets comes only in one replica: it
    is kept, the cost and deficit after each of its sets are computed from
    its start and the sets' increments (``_rows``), and ``write`` writes a
    stretch of it, with the same two scatters, and reduces the deficit
    afresh (and the cost, at the block's end).

    The gap term of an entry is the edge's p-weighted cost (see
    ``regularizer.edge_costs``) times the set's exponent of lam on it (1 into the set,
    -c out of it, 1 - c inside); a write refreshes the entries of its edges
    in the sets at both ends.  ``deficit()`` is, per replica, the sum over
    sets of their squared gap sum_{u in set} in_u - c out_u, reduced
    afresh from the terms of the current weights, with one segment sum and
    no gather; it keeps the gaps as the next block's start.  The engine
    starts with one replica of ``net``; ``select(rows)`` replicates it or
    drops the replicas that are done.
    """

    def __init__(self, net, cost, sets):
        self.net = net
        self.cost = cost
        self.src, self.dst = net.structure.src, net.structure.dst
        n_edges = self.src.size
        w = np.zeros((1, n_edges + 1))
        w[0, :n_edges] = net.w

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
        self._spread = 1.0 + float(np.abs(self.c).max(initial=0.0))  # bounds |exponent| on an edge

        single = cost.single_term
        # the closed form's exponent, and whether every set takes it whatever the weights
        # (a set with no edge inside has S = 0 exactly)
        self._root = None if single is None else 1.0 / (single[0] * (self.c + 1.0))
        self._all_closed = single is not None and not ((side == 2) & (self.c[k] != 1.0)).any()
        self._block = 2 * (n_edges + 1) + k.size + 1
        self._bins = np.zeros((1, 1), dtype=np.int64)  # bincount bin offset per solved row
        self._writes = None
        self._gaps = None  # the gaps of the last fresh deficit, while no write has come after it
        # a cost past the float range is inf, and its gap term on a self-loop of c = 1 nan
        with np.errstate(over="ignore", invalid="ignore"):
            ec, q = edge_costs(cost, w)
            self._hold(np.concatenate((w[0], ec[0], q[0].take(edge) * self._sign, [0.0])))
        self.r = self.r_init = ec[:, :n_edges].sum(axis=1)

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
        terms in the set itself and in the set at the edge's other end, the factors that
        turn the edge's p-weighted cost into the three values (1 and the two exponents of
        lam on it), and the gaps the two terms add to.  Padding, and a missing second
        entry, go to the dummy edge and the dummy slot, which holds 0.0 and adds to gap 0.
        Built on the first write (the deficit needs none of them) and kept in ``_writes``.
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
        gap_of = np.append(np.searchsorted(self._starts, np.arange(n), side="right") - 1, 0)
        self._writes = places, gap_of.take(places[:, width:] - terms_at), factors
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
        """Solve the block ``blocks[r]`` of each replica r; returns the sets' factors and how
        many sets of each block were solved.

        The sets of a block must share no edge, so a set's solution is the
        one it would get once the sets before it are written.  A block of one
        set per replica is written at once, and the cost reduced afresh.  A
        block of several sets comes only in one replica; it is kept, its rows
        computed (``_rows``), and ``write`` writes it.  When some set has no
        optimum, only the first set of each block is solved, so the error
        comes at the step that reaches that set.
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
            self._kept = blocks[0], at, w, rest_at, rest
            self._rows()
            return lam, size
        self._state[at] = w
        self._state[rest_at] = rest
        self._gaps = None
        self.fresh_cost()
        return lam, size

    def _rows(self):
        """The cost and the deficit after each set of the kept block, as ``rows``: the
        block's fresh start values plus the increments of the sets up to it.

        A set's increments are its slots' new values minus their old ones:
        its edges' costs (summed, the change in r) and its edges' gap terms
        (one ``bincount`` into a (block, gaps) array for all sets).  With
        eps = 2**-52, E edges, d the most slots of a set, b the block's
        size, n the sets with an edge, c the largest |exponent| and r_0 the
        fresh cost at the block's start, row i lies from the fresh values
        r, D of the same weights within

            |r_i - r| <= (ceil(log2 E) + d + b + 30) eps (r_0 + r)
            |sqrt(D_i) - sqrt(D)| <= (3 d + b + 4) (1 + c) eps (r_0 + r) + (n + 1) eps sqrt(D).

        The first sums the roundings on any path of NumPy's pairwise sum of
        the costs (at most ceil(log2 E) + 25, twice: at the start and in the
        fresh r), of a slot's difference, its set's sum and the ``cumsum``
        over the rows, against the costs the slots held and hold (at most
        r_0 + r).  The second does so for each gap, against the sizes of
        its terms (segment sums of at most d terms, at the start and
        fresh, and the ``bincount`` and ``cumsum``), summed over the gaps:
        an edge has at most two gap terms, each at most (1 + c) times its
        cost, so the sizes add up to at most 2 (1 + c) (r_0 + r).  The
        last term is the relative rounding of the two sums of n squares.
        The constants cover the second-order terms, and the gap between r
        and r_i, which ``next_fresh`` reads in its place.
        """
        if self._gaps is None:
            self.deficit()
        self._start = r_0, start = float(self.r[0]), self._gaps[0]  # kept: writes replace both
        ks, _, _, rest_at, rest = self._kept
        size, width, n_gaps = ks.size, self._edge.shape[1], start.size
        delta = rest - self._state.take(rest_at)
        r = r_0 + np.cumsum(np.add.reduce(delta[:, :width], axis=1))
        bins = self._writes[1].take(ks, axis=0)
        bins += np.arange(0, size * n_gaps, n_gaps)[:, None]
        steps = np.bincount(bins.ravel(), delta[:, width:].ravel(), size * n_gaps)
        gaps = start + np.cumsum(steps.reshape(size, n_gaps), axis=0)
        self.rows = r, np.einsum("ij,ij->i", gaps, gaps)
        self._near = None, []

    def next_fresh(self, start, tol):
        """The first row from ``start`` of the kept block whose fresh deficit may be at
        most ``tol``, else its last row.

        By ``_rows``' bound, a fresh deficit D <= tol puts the row's sqrt(D_i)
        within sqrt(tol) (1 + (n + 1) eps) plus the bound's first term; the
        square of that, widened by the roundings of computing it, is the
        first test.  It stays near tol for tol >> (eps r)**2, and covers tol
        = 0.  The second: D also sums the squared start gaps of the sets
        still to be written, exactly as they are, so a row whose later sets
        add up to more than tol (widened by the roundings of the two sums)
        cannot meet it, even where the first test cannot tell, as at a
        rounding-level deficit with tol = 0.  The rows that pass are kept
        for the next call with the same ``tol``.
        """
        r, deficit = self.rows
        if self._near[0] != tol:
            near = []
            if tol >= 0.0:
                (r_0, gaps), ks = self._start, self._kept[0]
                n, size, width = gaps.size, ks.size, self._edge.shape[1]
                reach = (3 * width + size + 4) * self._spread * _EPS * (r_0 + r)
                reach += math.sqrt(tol) * (1.0 + (n + 1) * _EPS)
                near = np.flatnonzero(deficit <= reach * reach * (1.0 + 16.0 * _EPS))
                if near.size:
                    # a set's own gap keeps its fresh start value until the set is
                    # written (no other set of the block touches its edges; a set a run
                    # balances has an edge, so its first slot's gap is its own)
                    own = gaps.take(self._writes[1][ks, 0])
                    later = np.append(np.cumsum((own * own)[:0:-1])[::-1], 0.0)
                    near = near[later[near] <= tol * (1.0 + (n + size + 4) * _EPS)]
                near = near.tolist()
            self._near = tol, near
        near = self._near[1]
        k = bisect_left(near, start)
        return near[k] if k < len(near) else len(r) - 1

    def write(self, start, stop):
        """Write the kept sets ``start`` .. ``stop - 1`` (one scatter of weights, one of
        edge costs and gap terms); returns the deficit, reduced afresh.  Once the block
        is written, the cost is too (``fresh_cost``), and the two make its last row."""
        _, at, w, rest_at, rest = self._kept
        self._state[at[start:stop]] = w[start:stop]
        self._state[rest_at[start:stop]] = rest[start:stop]
        deficit = self.deficit()
        if stop == len(at):
            self.rows[0][-1], self.rows[1][-1] = self.fresh_cost()[0], deficit[0]
        return deficit

    def fresh_cost(self):
        """Per replica: the total cost, summed afresh from the current weights."""
        self.r = np.add.reduce(self._ec_real, axis=1)
        return self.r

    def deficit(self):
        """Per replica: the summed squared balance gap of the sets, from the current weights."""
        self._gaps = np.add.reduceat(self._terms, self._starts, axis=1)
        return np.einsum("ij,ij->i", self._gaps, self._gaps)

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
        self.r, self._gaps = self.r[rows], None
        self._hold(self._state.reshape(-1, self._block)[rows].ravel())

    def to_network(self):
        return self.net.replace_weights(self.w[0])


# -- single-unit and single-set operations --------------------------------------


def _check_free(net, units):
    """Refuse a net a run refuses, and any of ``units`` that ``Structure.free`` does not mark."""
    check_structure(net)
    for i in units:
        unit = net.unit(i)
        if unit.role != HIDDEN:
            raise ValueError(f"unit {i} is {unit.role}; only hidden units can be scaled")
        if not net.structure.free[unit.id]:
            raise ValueError(f"unit {i} has a non-homogeneous activation")


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


def scale_neuron(net, i, lam) -> Network:
    """Multiply unit i's incoming weights by lam and its outgoing by lam**-c: the one-unit
    ``apply_multipliers``, as scalings commute.

    lam must be finite and > 0, every scaled weight finite, and every nonzero
    weight still nonzero (a weight that vanishes would change which units
    move); anything else is a ``ValueError`` naming the unit and lam.
    """
    _check_free(net, (i,))
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"unit {i}: scaling factor must be finite and > 0, got {lam!r}")
    with np.errstate(all="ignore"):
        try:
            out = apply_multipliers(net, MultiplierAssignment({i: lam}))
            finite = np.isfinite(out.w).all()
        except OverflowError:  # lam**c past the float range
            finite = False
    if not finite:
        raise ValueError(f"unit {i}: scaling factor {lam!r} makes a weight non-finite")
    if ((out.w == 0.0) & (net.w != 0.0)).any():
        raise ValueError(f"unit {i}: scaling factor {lam!r} makes a nonzero weight vanish")
    return out


def optimal_lambda(net, i, cost: CostSpec) -> float:
    """The unique scaling factor of unit i that minimizes the weight cost."""
    _check_free(net, (i,))
    return float(_Engine(net, cost, [(i,)]).begin(np.zeros((1, 1), dtype=np.int64))[0][0])


def balance_neuron(net, i, cost: CostSpec):
    """Scale unit i by its optimal factor; returns (new network, report)."""
    _check_free(net, (i,))
    return _balance_set(net, (i,), cost)


def balance_subset_tied(net, units, cost: CostSpec):
    """Balance a set of units with one shared scaling factor.

    All units must share the same homogeneity exponent and there may be no
    edges inside the set (that includes self-loops).  The shared factor
    equalizes the aggregate incoming and outgoing cost of the set; individual
    units need not end up balanced.
    """
    units = tuple(sorted(set(int(u) for u in units)))
    if not units:
        raise ValueError("empty unit set")
    _check_free(net, units)
    _check_tied(net, units)
    return _balance_set(net, units, cost)


def neuron_deficit(net, i, cost: CostSpec) -> float:
    """Squared gap between incoming and (exponent-weighted) outgoing cost.

    Zero exactly when the unit satisfies its balance equation.  Self-loop
    edges appear in both sums, so for exponent 1 they cancel identically.
    Term t of a multi-term cost is weighted by p_t / max p (see ``regularizer.edge_costs``);
    c = 1 for a hidden unit whose activation has no exponent.
    """
    check_structure(net)
    unit = net.unit(i)
    if unit.role != HIDDEN:
        raise ValueError(f"unit {i} is {unit.role}; deficit is defined for hidden units")
    return _start_deficit(_Engine(net, cost, [(i,)]))


def network_deficit(net, cost: CostSpec) -> float:
    """Sum of deficits over the units a run balances (``Network.movable``); no run can
    balance a unit with a dead side."""
    check_structure(net)
    eligible, _ = _balanceable(net)
    return _start_deficit(_Engine(net, cost, [(h,) for h in eligible]))


# -- passes and runs -------------------------------------------------------------

_DRAW_CHUNK = 256  # picks drawn (stochastic) or tiled (cyclic) per engine row at a time


def _balanceable(net):
    """Units a run balances (``Network.movable``), plus notes on the ``Structure.free`` ones
    skipped for a dead side."""
    skipped = np.flatnonzero(net.structure.free & ~net.movable).tolist()
    notes = [f"unit {h} skipped: all-zero incoming or outgoing side" for h in skipped]
    return np.flatnonzero(net.movable).tolist(), notes


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


def _start_deficit(eng):
    """The engine's summed deficit before any step.

    Where an edge cost overflows it is inf, or nan where a gap is inf - inf,
    with no warning; a run then takes no step (``_finite_start``).
    """
    with np.errstate(invalid="ignore"):
        return float(eng.deficit()[0])


def _finite_start(gap, traces):
    """Whether the starting deficit ``gap`` is finite.

    Where it is not, an edge cost overflows: no tolerance is met and no step
    is sound, so each of ``traces`` is marked unconverged with a note, and
    its run takes no step.
    """
    if math.isfinite(gap):
        return True
    _take_no_step(traces, f"the starting deficit is {gap!r}, not finite")
    return False


def partial_balance_pass(net, cost, order=None):
    """Balance each unit exactly once, by default in the default "sequential" cycle's order.

    One pass lowers the total cost monotonically but generally leaves earlier
    units unbalanced again once their downstream neighbours move.  It is a
    cyclic run capped at one step per listed unit that never stops early:
    with no unit to balance it notes "nothing to balance", as a run does,
    and where its starting deficit is not finite it takes no step and
    returns ``net``, not converged, with a note.
    """
    check_structure(net)
    eligible, notes = _balanceable(net)
    eng = _Engine(net, cost, [(u,) for u in eligible])
    trace = BalanceTrace(r_initial=float(eng.r_init[0]), notes=notes)
    index = {u: k for k, u in enumerate(eligible)}
    cycle = []
    if eligible:  # as in a run, no unit in an order is noted when none is balanceable
        cycle = _default_cycle(net, index) if order is None else _order_cycle(order, index, notes)
    if not cycle:
        notes.append("nothing to balance")
        return net, trace
    if not _finite_start(_start_deficit(eng), [trace]):
        return net, trace
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
    with the row's weights then and its columns so far.

    A block of one set is solved, written and reduced afresh in its step
    (``_Engine.begin``).  A block of several sets is solved from one gather,
    and its rows (cost and deficit after each step) come from its fresh
    start and its increments (``_Engine._rows``).  It is written in one
    pass (``_Engine.write``), or in several where a step's row must be
    fresh: at the block's last step, at a live run's cap, and where
    ``_Engine.next_fresh`` finds the row's deficit may be at most a live
    run's tolerance.  The weights are those of stepping one set at a time; a run
    stops only on a fresh deficit, and that row, fresh, is its last.  So
    every block-end row and every run's last row is the one-set steps' bit
    for bit, and the other rows lie within ``_Engine._rows``' bound of
    theirs; they do not depend on which rows were reduced afresh, so a run
    logs the same columns in any batch.  Fills in the step columns of each
    trace; returns the final weights of each run, and whether each run met
    its tolerance.
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
    last = {}  # run -> its fresh last row, where it stops inside a block
    top = float(tol.max(initial=-math.inf))  # the live runs' largest tolerance
    log, steps = [], []  # per segment, then per chunk: (lead, set, lam, r after, deficit after)
    done = np.zeros(len(runs), dtype=bool)
    min_cap = min(cap.tolist(), default=0)
    block_start = block_end = 0  # the steps the block being written starts and ends at
    t = 0
    while True:
        if t >= min_cap or np.count_nonzero(done):
            stop = done | (cap <= t)
            if t < block_end:  # a stop inside a block: its row, fresh, is the run's last
                fresh = float(eng.fresh_cost()[0]), float(deficit[0])
                last.update((i, fresh) for i in ids[stop].tolist())
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
            lead, min_cap, top = ids[:len(eng.w)], int(cap.min()), float(tol.max())
        j = t % _DRAW_CHUNK
        if j == 0:
            drawn = [picks_of[i](t, _DRAW_CHUNK) for i in lead]
            picks = np.array([ks for ks, _ in drawn])
            left = drawn[0][1].tolist()  # the same for every run
        if t >= block_end:
            lam, size = eng.begin(picks[:, j:j + left[j]])
            block_start, block_end = t, t + size
        if size == 1:
            deficit = eng.deficit()  # (1,) on a shared row, against every live run's tolerance
            log.append((lead, picks[:, j], lam, eng.r, deficit))
            t += 1
        else:  # one replica: write up to the next position whose row must be fresh
            a = t - block_start
            b = min(eng.next_fresh(a, top) + 1, min_cap - block_start)
            deficit = eng.write(a, b)
            r, d = eng.rows
            log.append((np.repeat(lead, b - a), picks[0, j:j + b - a], lam[a:b], r[a:b], d[a:b]))
            t = block_start + b
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
    for i, (r, d) in last.items():
        runs[i][3].r_series[-1], runs[i][3].deficit_series[-1] = r, d
    return finals, met.tolist()


def run_balancing_many(net, schedules, cost: CostSpec):
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
    eligible, notes = _balanceable(net)
    singles = tuple((u,) for u in eligible)
    eng = _Engine(net, cost, singles)
    r_init = float(eng.r_init[0])
    traces = [BalanceTrace(r_initial=r_init, notes=list(notes)) for _ in schedules]
    results = [(net, trace) for trace in traces]  # what a run that takes no step returns
    if not eligible:
        for trace in traces:
            trace.notes.append("nothing to balance")
        return results
    start = _start_deficit(eng)
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
        if sets in spare:  # its deficit is ``start``: no step has come since
            batch, gap = spare.pop(sets), start
        else:
            batch = _Engine(net, cost, sets)
            gap = _start_deficit(batch)
        if not _finite_start(gap, [traces[i] for i, _ in runs]):
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


def run_balancing(net, schedule: Schedule, cost: CostSpec):
    """Iterate balancing per the schedule until the deficit tolerance or step cap.

    Returns the rebalanced network and a BalanceTrace; a run that exhausts
    ``max_steps`` comes back with ``trace.converged`` False instead of raising.
    This is the one-schedule case of ``run_balancing_many``.
    """
    return run_balancing_many(net, [schedule], cost)[0]


def trace_to_csv(trace: BalanceTrace) -> str:
    return "step,unit,lambda_star,delta_r,r_after,deficit_after\n" + "".join(
        f"{k},{u},{lam!r},{r0 - r!r},{r!r},{d!r}\n" for k, (u, lam, r0, r, d) in enumerate(trace._rows())
    )
