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
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import homogeneity_exponent
from .netgraph import HIDDEN, Network, _edge_ends, check_structure, hidden_layers, topological_order
from .regularizer import CostSpec, network_cost

_TINY = 1e-300
_LOG_LIMIT = 700.0  # |log lam| beyond which lam**p overflows for any sensible p


class DegenerateUnitError(ValueError):
    """Unit with an all-zero incoming or outgoing side: no finite optimum."""


@dataclass(frozen=True)
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


def _side_sums(cost, w, side):
    """(terms, 3) array: beta * sum |w|**p into, out of and inside a unit set."""
    a = np.abs(w)
    return np.array(
        [np.bincount(side, weights=beta * a**p, minlength=3) for p, beta in cost.terms]
    )


def _edge_costs(cost, w):
    """Per-edge cost, and the same with term t weighted by p_t / max p.

    The weighted sums are the ones that vanish at a set's optimum,
    sum_t p_t (in_t - c out_t) = 0; for a one-term cost they equal the cost.
    """
    a = np.abs(w)
    terms = [(p, beta * a**p) for p, beta in cost.terms]
    total = sum(t for _, t in terms)
    if len(terms) == 1:
        return total, total
    p_max = max(p for p, _ in terms)
    return total, sum((p / p_max) * t for p, t in terms)


def _lambda_star(cost, sums, c):
    """Cost-minimizing scale factor from a set's per-term side sums (see ``_side_sums``).

    The objective in lam is sum_t A_t lam**p + B_t lam**(-p c) + S_t lam**(p(1-c)).
    A single power term without an inside contribution has the closed form
    (c * B / A) ** (1 / (p (c + 1))); anything else is solved by bisection on
    the strictly increasing function lam * d/dlam of the objective, bracketed
    around the per-term closed forms and widened until it changes sign.
    """
    A, B, S = (float(s) for s in np.sum(sums, axis=0))
    if A <= 0.0 or B <= 0.0:
        raise DegenerateUnitError("unit has an all-zero incoming or outgoing side")
    single = cost.single_term
    if single is not None and (S == 0.0 or c == 1.0):
        p, _ = single
        return float((c * B / A) ** (1.0 / (p * (c + 1.0))))

    ps = np.array([p for p, _ in cost.terms])
    pe = np.outer(ps, _exponents(c))
    nonzero = sums != 0.0
    coef, pe_nonzero = (pe * sums)[nonzero], pe[nonzero]

    def phi(t):
        # lam * R'(lam) at lam = exp(t); strictly increasing, -inf at 0+, +inf at infinity
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(coef * np.exp(t * pe_nonzero)))

    with np.errstate(divide="ignore"):
        guesses = (math.log(c) + np.log(sums[:, 1]) - np.log(sums[:, 0])) / (ps * (c + 1.0))
    guesses = guesses[np.isfinite(guesses)]
    lo, hi = (float(guesses.min()), float(guesses.max())) if guesses.size else (0.0, 0.0)
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
    """Array-backed balancing state: edge weights, their costs and the unit sets in play.

    ``use`` fixes the unit sets (one unit each, or tied subsets), ``step(k)``
    balances set k and ``deficit()`` recomputes, from the current weights,
    sum over sets of (sum_{u in set} in_u - c out_u)**2, where in_u and out_u
    are p-weighted side costs (see ``_edge_costs``).
    """

    def __init__(self, net, cost, sets=()):
        self.net = net
        self.cost = cost
        self.src, self.dst = _edge_ends(net)
        self.w = net.weights()
        self.ec, self.q = _edge_costs(cost, self.w)
        self.r = self.r_init = float(np.sum(self.ec))
        self.use(sets)

    def use(self, sets):
        """Make ``sets`` (tuples of unit ids, each with one shared exponent) the sets in play."""
        self.sets = []
        for units in sets:
            c = homogeneity_exponent(self.net.unit(units[0]).activation)
            c = 1.0 if c is None else c
            self.sets.append((units, c) + _set_edges(self.src, self.dst, units))
        empty = np.zeros(0, dtype=np.int64)
        self._sel = np.concatenate([s[2] for s in self.sets] or [empty])
        self._sign = np.concatenate(
            [np.array(_exponents(c))[side] for _, c, _, side in self.sets] or [empty]
        )
        self._set_of = np.repeat(np.arange(len(self.sets)), [s[2].size for s in self.sets])

    def lambda_star(self, k):
        _, c, sel, side = self.sets[k]
        return _lambda_star(self.cost, _side_sums(self.cost, self.w[sel], side), c)

    def step(self, k):
        """Scale set k by its optimal factor and return the report."""
        units, c, sel, side = self.sets[k]
        lam = self.lambda_star(k)
        self.w[sel] *= _factors(lam, c, side)
        self.ec[sel], self.q[sel] = _edge_costs(self.cost, self.w[sel])
        r_before, self.r = self.r, float(np.sum(self.ec))
        return BalanceReport(units[0], lam, r_before, self.r, r_before - self.r)

    def deficit(self):
        gaps = np.bincount(
            self._set_of, weights=self.q[self._sel] * self._sign, minlength=len(self.sets)
        )
        return float(gaps @ gaps)

    def to_network(self):
        return self.net.replace_weights(self.w)


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
    lam = eng.step(0).lambda_star
    new_net = eng.to_network()
    r_before, r_after = network_cost(net, cost), network_cost(new_net, cost)
    return new_net, BalanceReport(units[0], lam, r_before, r_after, r_before - r_after)


def scale_neuron(net, i, lam, allow_nonhomogeneous=False) -> Network:
    """Multiply unit i's incoming weights by lam and its outgoing by lam**-c."""
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"scaling factor must be > 0, got {lam}")
    c = _unit_exponent(net, i, allow_nonhomogeneous)
    sel, side = _set_edges(*_edge_ends(net), (i,))
    w = net.weights()
    w[sel] *= _factors(lam, c, side)
    return net.replace_weights(w)


def optimal_lambda(net, i, cost: CostSpec, allow_nonhomogeneous=False) -> float:
    """The unique scaling factor of unit i that minimizes the weight cost."""
    _unit_exponent(net, i, allow_nonhomogeneous)
    return _Engine(net, cost, [(i,)]).lambda_star(0)


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
    _check_tied(units, exponents, *_edge_ends(net))
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
    return _Engine(net, cost, [(i,)]).deficit()


def network_deficit(net, cost: CostSpec) -> float:
    """Sum of deficits over all hidden units with a homogeneity exponent."""
    sets = [(h,) for h in net.hidden_ids if homogeneity_exponent(net.unit(h).activation) is not None]
    return _Engine(net, cost, sets).deficit()


# -- passes and runs -------------------------------------------------------------


def _balanceable(net, allow_nonhomogeneous):
    """Hidden units a run may balance, plus notes on those skipped for a dead side."""
    units, notes = [], []
    for h in net.hidden_ids:
        if homogeneity_exponent(net.unit(h).activation) is None and not allow_nonhomogeneous:
            continue
        live_in = any(e.weight != 0.0 for e in net._in[h] if e.src != h)
        live_out = any(e.weight != 0.0 for e in net._out[h] if e.dst != h)
        if live_in and live_out:
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
    eligible, notes = _balanceable(net, allow_nonhomogeneous)
    trace = BalanceTrace(notes=notes)
    eng = _Engine(net, cost, [(u,) for u in eligible])
    index = {u: k for k, u in enumerate(eligible)}
    for u in _default_order(net, eligible) if order is None else [int(u) for u in order]:
        if u not in index:
            trace.notes.append(f"unit {u} skipped in pass: not balanceable")
            continue
        trace.steps.append(eng.step(index[u]))
        trace.r_series.append(eng.r)
        trace.deficit_series.append(eng.deficit())
    return eng.to_network(), trace


def run_balancing(net, schedule: Schedule, cost: CostSpec, allow_nonhomogeneous=False):
    """Iterate balancing per the schedule until the deficit tolerance or step cap.

    Returns the rebalanced network and a BalanceTrace; a run that exhausts
    ``max_steps`` comes back with ``trace.converged`` False instead of raising.
    """
    check_structure(net)
    eligible, notes = _balanceable(net, allow_nonhomogeneous)
    trace = BalanceTrace(notes=notes)
    if not eligible:
        trace.notes.append("nothing to balance")
        return net, trace
    eng = _Engine(net, cost, [(u,) for u in eligible])
    tol_abs = schedule.deficit_tol * max(eng.r_init, _TINY) ** 2
    if eng.deficit() <= tol_abs:
        return net, trace

    index = {u: k for k, u in enumerate(eligible)}
    if schedule.kind == "stochastic":
        rng = np.random.default_rng(schedule.seed)
        picks = (int(rng.integers(len(eligible))) for _ in itertools.count())
    else:
        if schedule.kind == "sequential" and schedule.order is not None:
            cycle = []
            for u in schedule.order:
                if u in index:
                    cycle.append(index[u])
                else:
                    trace.notes.append(f"unit {u} skipped in order: not balanceable")
        elif schedule.kind in ("sequential", "partial_pass"):
            cycle = [index[u] for u in _default_order(net, eligible)]
        else:
            partition = schedule.partition
            if partition is None:
                partition = hidden_layers(net)
            parts = [tuple(u for u in part if u in index) for part in partition]
            parts = [part for part in parts if part]
            if schedule.kind == "layer_independent":
                cycle = [index[u] for part in parts for u in part]
            elif parts:
                parts = [tuple(sorted(part)) for part in parts]
                for part in parts:
                    _check_tied(part, [eng.sets[index[u]][1] for u in part], eng.src, eng.dst)
                # tied moves only equalize per-subset aggregates, so the
                # subsets are the sets whose deficit stops the run
                eng.use(parts)
                if eng.deficit() <= tol_abs:
                    return net, trace
                cycle = list(range(len(parts)))
            else:
                cycle = []
        if not cycle:
            trace.notes.append("nothing to balance")
            return net, trace
        picks = itertools.cycle(cycle)

    for k in picks:
        if len(trace.steps) >= schedule.max_steps:
            trace.converged = False
            trace.notes.append(f"stopped after max_steps={schedule.max_steps}")
            break
        trace.steps.append(eng.step(k))
        trace.r_series.append(eng.r)
        trace.deficit_series.append(eng.deficit())
        if trace.deficit_series[-1] <= tol_abs:
            break
    return eng.to_network(), trace


def trace_to_csv(trace: BalanceTrace) -> str:
    buf = io.StringIO()
    buf.write("step,unit,lambda_star,delta_r,r_after,deficit_after\n")
    for k, rep in enumerate(trace.steps):
        buf.write(
            f"{k},{rep.unit},{rep.lambda_star!r},{rep.delta_r!r},"
            f"{trace.r_series[k]!r},{trace.deficit_series[k]!r}\n"
        )
    return buf.getvalue()
