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

Runs of several schedules on one network advance together in one batched
engine (``run_balancing_many``); a single run is the batch of one.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import homogeneity_exponent
from .netgraph import HIDDEN, Network, check_structure, hidden_layers, topological_order
from .regularizer import CostSpec, network_cost

_TINY = 1e-300
_LOG_LIMIT = 700.0  # |log lam| beyond which lam**p overflows for any sensible p


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
    """Step-by-step record of a balancing run.

    ``r_series`` and ``deficit_series`` hold the total cost and the summed
    balance deficit of the balanced unit sets after each step (for tied-layer
    runs the sets are the subsets, so the deficit is the aggregate per-subset
    gap, the quantity those moves can actually drive to zero).  ``notes``
    collects skipped units and other annotations; ``converged`` reports
    whether the stop criterion was met within the step budget.
    """

    steps: list = field(default_factory=list)
    r_series: list = field(default_factory=list)
    deficit_series: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    converged: bool = True


@dataclass(frozen=True)
class Schedule:
    """Order in which units are balanced, plus the stop criterion.

    kind is one of "stochastic" (uniform draws with replacement from numpy's
    seeded PCG64 generator), "sequential" (cycle a fixed order), "partial_pass"
    (cycle the input-to-output order), "layer_independent" (cycle the layer
    partition, balancing each unit on its own) and "layer_tied" (cycle the
    partition, one shared factor per subset).  The run stops when the summed
    deficit falls below ``deficit_tol * r_initial**2`` (the deficit is
    quadratic in the cost, so normalizing by the squared initial cost makes
    the tolerance dimensionless) or after ``max_steps`` single balancing
    operations.
    """

    kind: str = "stochastic"
    seed: int = 0
    order: tuple = None
    partition: tuple = None
    deficit_tol: float = 1e-8
    max_steps: int = 100_000

    def __post_init__(self):
        kinds = ("stochastic", "sequential", "partial_pass", "layer_independent", "layer_tied")
        if self.kind not in kinds:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
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


# -- the rescaling rule --------------------------------------------------------

_PAD = 3  # side code of a padding slot in the per-set edge table


def _set_edges(src, dst, units):
    """Edges touching a unit set, and their side: 0 into it, 1 out of it, 2 both ends in it."""
    if len(units) == 1:
        into, outof = dst == units[0], src == units[0]
    else:
        into, outof = np.isin(dst, units), np.isin(src, units)
    sel = np.flatnonzero(into | outof)
    side = outof[sel].astype(np.int64) + (into[sel] & outof[sel])
    return sel, side


def _exponents(c):
    """Exponent of lam per side, [dst in S] - c [src in S]: into, out of, inside the set."""
    return (1.0, -c, 1.0 - c)


def _factors(lam, c, side):
    """Per-edge factors of scaling a unit set with exponent c by lam."""
    return np.array([lam**e for e in _exponents(c)])[side]


def _edge_costs(cost, w):
    """Per-edge cost, and the same with term t weighted by p_t / max p.

    The weighted sums are the ones that vanish at a set's optimum,
    sum_t p_t (in_t - c out_t) = 0; for a one-term cost they equal the cost.
    """
    a = np.abs(w)
    terms = [(p, a**p if beta == 1.0 else beta * a**p) for p, beta in cost.terms]
    if len(terms) == 1:
        return terms[0][1], terms[0][1]
    p_max = max(p for p, _ in terms)
    return sum(t for _, t in terms), sum((p / p_max) * t for p, t in terms)


def _bisect_log_lambda(cost, sums, c):
    """Cost-minimizing factor of one set from its per-term side sums (terms, 3), by bisection.

    The function bisected is lam * d/dlam of the objective, strictly
    increasing in t = log lam.  The bracket starts around the per-term
    closed forms and widens until the function changes sign.
    """
    ps = np.array([p for p, _ in cost.terms])
    pe = np.outer(ps, _exponents(c))
    nonzero = sums != 0.0
    coef, pe_nonzero = (pe * sums)[nonzero], pe[nonzero]

    def phi(t):
        # lam * R'(lam) at lam = exp(t); strictly increasing, -inf at 0+, +inf at infinity
        return float(np.add.reduce(coef * np.exp(t * pe_nonzero)))

    with np.errstate(divide="ignore"):
        guesses = (math.log(c) + np.log(sums[:, 1]) - np.log(sums[:, 0])) / (ps * (c + 1.0))
    guesses = guesses[np.isfinite(guesses)]
    lo, hi = (float(guesses.min()), float(guesses.max())) if guesses.size else (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        width = 1.0
        while phi(lo) > 0.0 and lo > -_LOG_LIMIT:
            lo, width = lo - width, 2.0 * width
        width = 1.0
        while phi(hi) < 0.0 and hi < _LOG_LIMIT:
            hi, width = hi + width, 2.0 * width
        if not phi(lo) <= 0.0 <= phi(hi):
            raise DegenerateUnitError("no bracketed optimum within the floating-point range")
        for _ in range(200):
            if hi - lo <= 1e-14:
                break
            mid = 0.5 * (lo + hi)
            if phi(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    return math.exp(0.5 * (lo + hi))


class _Engine:
    """Array-backed balancing state of R replicas of one network under one family of unit sets.

    Row i of the (R, E + 1) weight array is replica i; the extra column is a
    dummy weight held at zero.  Set k owns row k of a padded
    (n_sets, max_degree) table of the edges touching it and of their side
    codes (into, out of, inside, padding); padding slots point at the dummy
    column and scale by lam**0.  ``step(ks)`` balances set ``ks[i]`` in
    replica i with one gather, one ``bincount`` of side sums, lam* (the
    closed form for all rows at once, a bisection row by row where it does
    not apply) and one scatter.  ``deficit()`` recomputes, per replica, from the
    current weights, sum over sets of (sum_{u in set} in_u - c out_u)**2,
    where in_u and out_u are p-weighted side costs (see ``_edge_costs``),
    with one segment sum over the (replica, set, edge) entries.
    The engine starts with one replica of ``net``; ``select(rows)``
    replicates it or drops the replicas that are done.
    """

    def __init__(self, net, cost, sets):
        self.net = net
        self.cost = cost
        self.src, self.dst = net.structure.src, net.structure.dst
        n_edges = self.src.size
        self._w = np.zeros((1, n_edges + 1))
        self._w[0, :n_edges] = net.w
        self._ec, self._q = _edge_costs(cost, self._w)
        self.r = self.r_init = self._ec[:, :n_edges].sum(axis=1)

        tables = [_set_edges(self.src, self.dst, units) for units in sets]
        self.unit = np.array([units[0] for units in sets], dtype=np.int64)
        self.c = net.structure.exponent[self.unit]
        width = max((sel.size for sel, _ in tables), default=0)
        self._edge = np.full((len(sets), width), n_edges, dtype=np.int64)
        self._side = np.full((len(sets), width), _PAD, dtype=np.int64)
        for k, (sel, side) in enumerate(tables):
            self._edge[k, : sel.size] = sel
            self._side[k, : side.size] = side
        zero, one = np.zeros(len(sets)), np.ones(len(sets))
        power = np.stack([one, -self.c, one - self.c, zero], axis=1)  # lam exponent per side code
        self._power = np.take_along_axis(power, self._side, axis=1)
        self._sel = np.concatenate([sel for sel, _ in tables] + [np.zeros(0, dtype=np.int64)])
        self._sign = np.concatenate(
            [self._power[k, : sel.size] for k, (sel, _) in enumerate(tables)] + [np.zeros(0)]
        )
        # each set's entries are contiguous; a set with no edge has no gap
        sizes = np.array([sel.size for sel, _ in tables], dtype=np.int64)
        self._starts = (np.cumsum(sizes) - sizes)[sizes > 0]

        single = cost.single_term
        # the closed form's exponent, and whether every set takes it whatever the weights
        # (a set with no edge inside has S = 0 exactly)
        self._root = None if single is None else 1.0 / (single[0] * (self.c + 1.0))
        self._all_closed = single is not None and all(
            c == 1.0 or not (side == 2).any() for c, (_, side) in zip(self.c, tables)
        )
        self._index()

    def _index(self):
        """Per-replica positions in the flattened arrays, for the replicas in play."""
        n_rows, width = self._w.shape
        n_sets = len(self.c)
        rows = np.arange(n_rows)
        self._set_rows = rows * n_sets
        slots = (n_rows * n_sets, self._edge.shape[1])
        self._slot_edge = (self._edge + (rows * width)[:, None, None]).reshape(slots)
        self._slot_code = (self._side + 4 * rows[:, None, None]).reshape(slots)
        self._q_ids = (self._sel + (rows * width)[:, None]).ravel()
        self._gap_starts = (self._starts + (rows * self._sel.size)[:, None]).ravel()
        self._signs = np.tile(self._sign, n_rows)
        self._wf, self._ecf, self._qf = self._w.ravel(), self._ec.ravel(), self._q.ravel()
        self._ec_real = self._ec[:, :-1]

    @property
    def w(self):
        return self._w[:, :-1]

    def _side_sums(self, ks):
        """Flat slots of the sets' edges, their weights, and per-term side sums (rows, terms, 4).

        Bin 3 of each row collects the padding.  One-term costs read the
        sums off the maintained edge costs.
        """
        n = len(ks)
        at = self._set_rows + ks
        flat = self._slot_edge.take(at, axis=0)
        codes = self._slot_code.take(at, axis=0).ravel()
        w = self._wf.take(flat)
        if self._root is not None:
            return flat, w, np.bincount(codes, self._ecf.take(flat).ravel(), 4 * n).reshape(n, 1, 4)
        a = np.abs(w).ravel()
        sums = [np.bincount(codes, beta * a**p, 4 * n).reshape(n, 4) for p, beta in self.cost.terms]
        return flat, w, np.stack(sums, axis=1)

    def _lambda(self, ks, sums):
        """Cost-minimizing factor of set ``ks[i]`` in replica i, from its side sums.

        The objective in lam is sum_t A_t lam**p + B_t lam**(-p c) + S_t lam**(p(1-c)).
        A single power term without an inside contribution has the closed form
        (c * B / A) ** (1 / (p (c + 1))), computed for all rows at once; any
        other row goes to ``_bisect_log_lambda``.
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
        # a bisection takes tens of steps whose control flow differs per row;
        # run one row at a time, it costs less than masked array steps
        for row in np.flatnonzero(solve).tolist():
            lam[row] = _bisect_log_lambda(self.cost, sums[row, :, :_PAD], float(c[row]))
        return lam

    def lambda_star(self, ks):
        return self._lambda(ks, self._side_sums(ks)[2])

    def step(self, ks):
        """Scale set ``ks[i]`` of replica i by its optimal factor; returns the factors."""
        flat, w, sums = self._side_sums(ks)
        lam = self._lambda(ks, sums)
        w *= lam[:, None] ** self._power.take(ks, axis=0)
        self._wf[flat] = w
        ec, q = _edge_costs(self.cost, w)
        self._ecf[flat] = ec
        if self._q is not self._ec:
            self._qf[flat] = q
        self.r = self._ec_real.sum(axis=1)
        return lam

    def deficit(self):
        """Per replica: the summed squared balance gap of the sets, from the current weights."""
        gaps = np.add.reduceat(self._qf.take(self._q_ids) * self._signs, self._gap_starts)
        gaps = gaps.reshape(len(self._w), self._starts.size)
        return np.einsum("ij,ij->i", gaps, gaps)

    def select(self, rows):
        """Keep the replicas ``rows`` picks: a mask, or indices that may repeat a replica."""
        shared = self._q is self._ec
        self._w, self._ec, self.r = self._w[rows], self._ec[rows], self.r[rows]
        self._q = self._ec if shared else self._q[rows]
        self._index()

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


def _check_tied(units, exponents, src, dst):
    """Reject a tied set that mixes exponents or has an edge inside it."""
    if len(set(exponents)) != 1:
        raise ValueError(
            f"tied subset {sorted(units)} mixes homogeneity exponents {sorted(set(exponents))}"
        )
    sel, side = _set_edges(src, dst, units)
    inside = sel[side == 2]
    if inside.size:
        k = inside[0]
        raise ValueError(
            f"edge ({src[k]}->{dst[k]}) connects two units of tied subset {sorted(units)}"
        )


def _balance_set(net, units, cost):
    eng = _Engine(net, cost, [units])
    lam = float(eng.step(np.zeros(1, dtype=np.int64))[0])
    new_net = eng.to_network()
    r_before, r_after = network_cost(net, cost), network_cost(new_net, cost)
    return new_net, BalanceReport(units[0], lam, r_before, r_after, r_before - r_after)


def scale_neuron(net, i, lam, allow_nonhomogeneous=False) -> Network:
    """Multiply unit i's incoming weights by lam and its outgoing by lam**-c."""
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"scaling factor must be > 0, got {lam}")
    c = _unit_exponent(net, i, allow_nonhomogeneous)
    sel, side = _set_edges(net.structure.src, net.structure.dst, (i,))
    w = net.weights()
    w[sel] *= _factors(lam, c, side)
    return net.replace_weights(w)


def optimal_lambda(net, i, cost: CostSpec, allow_nonhomogeneous=False) -> float:
    """The unique scaling factor of unit i that minimizes the weight cost."""
    _unit_exponent(net, i, allow_nonhomogeneous)
    return float(_Engine(net, cost, [(i,)]).lambda_star(np.zeros(1, dtype=np.int64))[0])


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
    exponents = [_unit_exponent(net, u, allow_nonhomogeneous) for u in units]
    _check_tied(units, exponents, net.structure.src, net.structure.dst)
    return _balance_set(net, units, cost)


def neuron_deficit(net, i, cost: CostSpec) -> float:
    """Squared gap between incoming and (exponent-weighted) outgoing cost.

    Zero exactly when the unit satisfies its balance equation.  Self-loop
    edges appear in both sums, so for exponent 1 they cancel identically.
    Term t of a multi-term cost is weighted by p_t / max p (see ``_edge_costs``).
    """
    unit = net.unit(i)
    if unit.role != HIDDEN:
        raise ValueError(f"unit {i} is {unit.role}; deficit is defined for hidden units")
    return float(_Engine(net, cost, [(i,)]).deficit()[0])


def network_deficit(net, cost: CostSpec) -> float:
    """Sum of deficits over all hidden units with a homogeneity exponent."""
    net.structure.check()
    sets = [(h,) for h in np.flatnonzero(net.structure.free).tolist()]
    return float(_Engine(net, cost, sets).deficit()[0])


# -- passes and runs -------------------------------------------------------------

_DRAW_CHUNK = 256  # picks drawn (stochastic) or tiled (cyclic) per replica at a time


def _balanceable(net, allow_nonhomogeneous):
    """Hidden units a run may balance, plus notes on those skipped for a dead side."""
    s = net.structure
    n = len(s.units)
    # self-loops count on neither side
    live = (net.w != 0.0) & (s.src != s.dst)
    has_in, has_out = (np.bincount(end[live], minlength=n) > 0 for end in (s.dst, s.src))
    units, notes = [], []
    for h in net.hidden_ids:
        if not (s.free[h] or allow_nonhomogeneous):
            continue
        if has_in[h] and has_out[h]:
            units.append(h)
        else:
            notes.append(f"unit {h} skipped: all-zero incoming or outgoing side")
    return units, notes


def _default_order(net, eligible):
    if net.recurrent:
        return list(eligible)
    eligible = set(eligible)
    return [u for u in topological_order(net) if u in eligible]


def partial_balance_pass(net, cost, order=None, allow_nonhomogeneous=False):
    """Balance each unit exactly once, by default from the inputs toward the outputs.

    One pass lowers the total cost monotonically but generally leaves earlier
    units unbalanced again once their downstream neighbours move.
    """
    net.structure.check()
    eligible, notes = _balanceable(net, allow_nonhomogeneous)
    trace = BalanceTrace(notes=notes)
    eng = _Engine(net, cost, [(u,) for u in eligible])
    index = {u: k for k, u in enumerate(eligible)}
    for u in _default_order(net, eligible) if order is None else [int(u) for u in order]:
        if u not in index:
            trace.notes.append(f"unit {u} skipped in pass: not balanceable")
            continue
        r_before = float(eng.r[0])
        lam = float(eng.step(np.array([index[u]]))[0])
        r_after = float(eng.r[0])
        trace.steps.append(BalanceReport(u, lam, r_before, r_after, r_before - r_after))
        trace.r_series.append(r_after)
        trace.deficit_series.append(float(eng.deficit()[0]))
    return eng.to_network(), trace


def _stochastic_picks(seed, n):
    """Uniform draws from a seeded PCG64; a chunk of k continues the one-at-a-time stream."""
    rng = np.random.default_rng(seed)
    return lambda t, k: rng.integers(n, size=k)


def _cyclic_picks(cycle):
    cycle = np.asarray(cycle, dtype=np.int64)
    return lambda t, k: cycle[np.arange(t, t + k) % cycle.size]


def _run_batch(eng, runs):
    """Step every replica of ``eng`` until it meets its tolerance or its step cap.

    ``runs[i]`` is (picks, tol_abs, max_steps, trace) for engine row i: picks(t, k)
    returns the set indices of steps t .. t + k - 1.  Fills in each trace and
    returns the final weights of each run.
    """
    picks_of = [run[0] for run in runs]
    tol = np.array([run[1] for run in runs])
    cap = np.array([run[2] for run in runs])
    ids = np.arange(len(runs))  # run of each engine row
    finals = [None] * len(runs)
    log, steps = [], []  # per step, then per chunk: (ids, unit, lam, r after, deficit after)
    done = np.zeros(len(runs), dtype=bool)
    stop = cap <= 0
    t = 0
    while True:
        if stop.any():
            for row in np.flatnonzero(stop):
                finals[ids[row]] = eng.w[row].copy()
                if not done[row]:
                    trace = runs[ids[row]][3]
                    trace.converged = False
                    trace.notes.append(f"stopped after max_steps={runs[ids[row]][2]}")
            go = ~stop
            eng.select(go)
            ids, tol, cap = ids[go], tol[go], cap[go]
            if t % _DRAW_CHUNK:
                picks = picks[go]
        if not ids.size:
            break
        if t % _DRAW_CHUNK == 0:
            picks = np.array([picks_of[i](t, _DRAW_CHUNK) for i in ids])
        ks = picks[:, t % _DRAW_CHUNK]
        lam = eng.step(ks)
        deficit = eng.deficit()
        log.append((ids, eng.unit.take(ks), lam, eng.r, deficit))
        t += 1
        if t % _DRAW_CHUNK == 0:
            steps.append([np.concatenate(col) for col in zip(*log)])
            log = []
        done = deficit <= tol
        stop = done | (cap <= t)

    if log:
        steps.append([np.concatenate(col) for col in zip(*log)])
    if not steps:
        return finals
    ids, units, lam, r_after, deficit = (np.concatenate(col) for col in zip(*steps))
    order = np.argsort(ids, kind="stable")
    units, lam, r_after, deficit = units[order], lam[order], r_after[order], deficit[order]
    counts = np.bincount(ids, minlength=len(runs))
    ends = np.cumsum(counts)
    starts = ends - counts
    r_before = np.empty_like(r_after)
    r_before[1:] = r_after[:-1]
    r_before[starts[counts > 0]] = eng.r_init[0]
    delta = r_before - r_after
    r_init = float(eng.r_init[0])
    for (_, _, _, trace), s, e in zip(runs, starts.tolist(), ends.tolist()):
        trace.r_series = r_after[s:e].tolist()
        trace.deficit_series = deficit[s:e].tolist()
        trace.steps = list(
            map(BalanceReport, units[s:e].tolist(), lam[s:e].tolist(),
                [r_init] + trace.r_series[:-1], trace.r_series, delta[s:e].tolist())
        )
    return finals


def run_balancing_many(net, schedules, cost: CostSpec, allow_nonhomogeneous=False):
    """Run every schedule on ``net``: ``[run_balancing(net, s, cost) for s in schedules]``.

    The runs share one engine that holds one weight row per run and advances
    every unfinished run by one step at a time; each run stops on its own
    tolerance or step cap.  ``layer_tied`` runs balance other unit sets, so
    each partition gets its own engine.
    """
    schedules = list(schedules)
    check_structure(net)
    eligible, notes = _balanceable(net, allow_nonhomogeneous)
    traces = [BalanceTrace(notes=list(notes)) for _ in schedules]
    results = [(net, trace) for trace in traces]  # what a run that takes no step returns
    if not eligible:
        for trace in traces:
            trace.notes.append("nothing to balance")
        return results
    eng = _Engine(net, cost, [(u,) for u in eligible])
    r_init, start = float(eng.r_init[0]), float(eng.deficit()[0])
    index = {u: k for k, u in enumerate(eligible)}
    default_cycle = None
    unit_runs, tied_runs = [], {}  # (schedule index, picks, tol_abs); partition -> (index, tol_abs)
    for i, (schedule, trace) in enumerate(zip(schedules, traces)):
        tol_abs = schedule.deficit_tol * max(r_init, _TINY) ** 2
        if start <= tol_abs:
            continue
        if schedule.kind == "stochastic":
            unit_runs.append((i, _stochastic_picks(schedule.seed, len(eligible)), tol_abs))
            continue
        if schedule.kind == "sequential" and schedule.order is not None:
            cycle = []
            for u in schedule.order:
                if u in index:
                    cycle.append(index[u])
                else:
                    trace.notes.append(f"unit {u} skipped in order: not balanceable")
        elif schedule.kind in ("sequential", "partial_pass"):
            if default_cycle is None:
                default_cycle = [index[u] for u in _default_order(net, eligible)]
            cycle = default_cycle
        else:
            partition = schedule.partition
            if partition is None:
                partition = hidden_layers(net)
            parts = [tuple(u for u in part if u in index) for part in partition]
            parts = [part for part in parts if part]
            if schedule.kind == "layer_independent":
                cycle = [index[u] for part in parts for u in part]
            elif parts:
                parts = tuple(tuple(sorted(part)) for part in parts)
                for part in parts:
                    _check_tied(part, [eng.c[index[u]].item() for u in part], eng.src, eng.dst)
                tied_runs.setdefault(parts, []).append((i, tol_abs))
                continue
            else:
                cycle = []
        if not cycle:
            trace.notes.append("nothing to balance")
            continue
        unit_runs.append((i, _cyclic_picks(cycle), tol_abs))

    def run(batch, runs):
        batch.select(np.zeros(len(runs), dtype=np.int64))
        specs = [(picks, tol_abs, schedules[i].max_steps, traces[i]) for i, picks, tol_abs in runs]
        finals = _run_batch(batch, specs)
        for (i, _, _), w in zip(runs, finals):
            results[i] = (net.replace_weights(w), traces[i])

    run(eng, unit_runs)
    for parts, runs in tied_runs.items():
        # tied moves only equalize per-subset aggregates, so the subsets are
        # the sets whose deficit stops the run
        eng = _Engine(net, cost, parts)
        gap = float(eng.deficit()[0])
        cycle = _cyclic_picks(range(len(parts)))
        run(eng, [(i, cycle, tol_abs) for i, tol_abs in runs if gap > tol_abs])
    return results


def run_balancing(net, schedule: Schedule, cost: CostSpec, allow_nonhomogeneous=False):
    """Iterate balancing per the schedule until the deficit tolerance or step cap.

    Returns the rebalanced network and a BalanceTrace; a run that exhausts
    ``max_steps`` comes back with ``trace.converged`` False instead of raising.
    This is the one-schedule case of ``run_balancing_many``.
    """
    return run_balancing_many(net, [schedule], cost, allow_nonhomogeneous)[0]


def trace_to_csv(trace: BalanceTrace) -> str:
    buf = io.StringIO()
    buf.write("step,unit,lambda_star,delta_r,r_after,deficit_after\n")
    for k, rep in enumerate(trace.steps):
        buf.write(
            f"{k},{rep.unit},{rep.lambda_star!r},{rep.delta_r!r},"
            f"{trace.r_series[k]!r},{trace.deficit_series[k]!r}\n"
        )
    return buf.getvalue()
