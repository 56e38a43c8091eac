"""Shared test helpers: independent oracles kept deliberately separate from
the library code paths they check."""

import io
import json
import math

import numpy as np
import pytest

import balancekit as bk
from balancekit import balancing, regularizer
from balancekit.activations import (
    BILU,
    BIPU,
    TANH,
    activation_from_json,
    activation_to_json,
)
from balancekit.netgraph import NetworkFormatError, check_structure, hidden_layers


def golden_min(f, lo, hi, iters=140):
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def golden_lambda(objective, lo=1e-4, hi=1e4, iters=140):
    """Golden-section search for the best scaling factor, on a log axis."""
    t = golden_min(lambda t: objective(math.exp(t)), math.log(lo), math.log(hi), iters)
    return math.exp(t)


def weight_cost(spec, w):
    """Cost of one weight on Python floats: beta * |w|**p summed over the terms."""
    a = abs(float(w))
    return sum(beta * a**p for p, beta in spec.terms)


def activate(spec, x):
    """The activation at a scalar point, on Python floats (exact piecewise formula)."""
    x = float(x)
    if spec.kind == BILU:
        return spec.b * x if x >= 0.0 else spec.a * x
    if spec.kind == BIPU:
        if x >= 0.0:
            return spec.C * x**spec.c
        return spec.D * abs(x) ** spec.c
    if spec.kind == TANH:
        return math.tanh(x)
    # logistic, numerically stable on both tails
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def side_weights(net, i):
    """Unit i's incoming and outgoing weights, each ordered by the edge's other end (ties in
    edge-list order); a self-loop is on neither side."""
    s = net.structure
    sides = []
    for end, other in ((s.dst, s.src), (s.src, s.dst)):
        k = np.flatnonzero((end == i) & (other != i))
        sides.append(net.w[k[np.argsort(other[k], kind="stable")]].tolist())
    return sides


def reference_forward(net, x):
    """Hand-rolled memoized evaluator; sums incoming edges in edge-list order."""
    vals = {}
    for i, v in zip(net.input_ids, x):
        vals[i] = float(v)
    for b in net.bias_ids:
        vals[b] = 1.0

    def value(u):
        if u in vals:
            return vals[u]
        s = 0.0
        for e in net.edges:
            if e.dst == u:
                s += e.weight * value(e.src)
        vals[u] = activate(net.unit(u).activation, s)
        return vals[u]

    return np.array([value(o) for o in net.output_ids])


def reference_network_cost(net, spec):
    """beta * |w|**p over every edge and term on Python floats, summed exactly rounded
    (``math.fsum``)."""
    return math.fsum(beta * abs(w) ** p for w in net.w.tolist() for p, beta in spec.terms)


def reference_serialize(net):
    """The network document through ``json.dumps(doc, indent=2)``, edge records included."""
    doc = {
        "version": 1,
        "recurrent": net.recurrent,
        "unroll_steps": net.unroll_steps,
        "units": [
            {"id": u.id, "role": u.role, "activation": activation_to_json(u.activation)}
            for u in net.units
        ],
        "edges": [{"from": e.src, "to": e.dst, "weight": e.weight} for e in net.edges],
    }
    return json.dumps(doc, indent=2)


def _reference_whole_number(value, what):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is int and -(2**63) <= value < 2**63:
        return value
    raise NetworkFormatError(f"{what} must be a 64-bit integer, got {value!r}")


def _reference_records(doc, key):
    records = doc.get(key, [])
    if not isinstance(records, list):
        raise NetworkFormatError(f"{key!r} must be a list of objects")
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise NetworkFormatError(f"{key!r} must be a list of objects, item {k} is {rec!r}")
        yield k, rec


def reference_deserialize(text):
    """Parse a network document one record at a time, building one ``Edge`` per edge record."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("network document must be a JSON object")
    units = []
    for _, rec in _reference_records(doc, "units"):
        if "id" not in rec:
            raise NetworkFormatError(f"unit record without an id: {rec!r}")
        uid = _reference_whole_number(rec["id"], "unit id")
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
        units.append(bk.Unit(uid, rec["role"], act))
    edges = []
    for k, rec in _reference_records(doc, "edges"):
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
        src = _reference_whole_number(rec["from"], f"edge record {k}: 'from'")
        dst = _reference_whole_number(rec["to"], f"edge record {k}: 'to'")
        edges.append(bk.Edge(src, dst, w))
    recurrent = doc.get("recurrent", False)
    if not isinstance(recurrent, bool):
        raise NetworkFormatError(f"'recurrent' must be true or false, got {recurrent!r}")
    unroll_steps = _reference_whole_number(doc.get("unroll_steps", 3), "'unroll_steps'")
    return bk.Network(units, edges, recurrent=recurrent, unroll_steps=unroll_steps)


def _reference_neighbours(net, forward):
    """Per unit id, the ascending ids one nonzero edge away: its targets, or its sources."""
    adj = {u.id: [] for u in net.units}
    for e in net.edges:
        if e.weight != 0.0:
            a, b = (e.src, e.dst) if forward else (e.dst, e.src)
            adj[a].append(b)
    return {u: sorted(vs) for u, vs in adj.items()}


def _reference_bfs_path(adj, start, goal_test):
    """Shortest path from start to any unit u with ``goal_test(u)``, exploring ids in order."""
    if goal_test(start):
        return [start]
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in parent:
                    continue
                parent[v] = u
                if goal_test(v):
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(v)
        frontier = nxt
    return None


def _reference_reach(adj, start):
    """Set of the units reachable from ``start`` along ``adj``, ``start`` included."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def reference_depth(n_units, src, dst):
    """Longest-path depth per unit from the units with no incoming edge, by relaxing every
    edge until nothing changes; None when it still changes after n_units + 1 passes (a cycle)."""
    depth = [0] * n_units
    for _ in range(n_units + 1):
        nxt = [0] * n_units
        for s, d in zip(src, dst):
            nxt[d] = max(nxt[d], depth[s] + 1)
        if nxt == depth:
            return depth
        depth = nxt
    return None


def reference_after_cycles(n_units, src, dst):
    """Sorted units that lie on a directed cycle or are reachable from one."""
    adj = {u: [] for u in range(n_units)}
    for s, d in zip(src, dst):
        adj[s].append(d)
    on_cycle = [u for u in adj if any(u in _reference_reach(adj, v) for v in adj[u])]
    return sorted(set().union(*(_reference_reach(adj, u) for u in on_cycle)))


def reference_constraints(net):
    """The paper's path/cycle statement of the rescaling manifold, as (kind, units) tuples.

    One input-to-output path (over nonzero edges) through each hidden unit;
    for recurrent networks additionally one directed cycle per independent
    cycle of each strongly connected component.  Per-edge logs lie on the
    manifold exactly when every constraint's residual
    (``reference_constraint_residual``) is 0.
    """
    check_structure(net)
    fwd, bwd = _reference_neighbours(net, True), _reference_neighbours(net, False)
    roles = {u.id: u.role for u in net.units}
    paths = []
    for h in sorted(net.hidden_ids):
        back = _reference_bfs_path(bwd, h, lambda u: roles[u] in (bk.INPUT, bk.BIAS))
        fore = _reference_bfs_path(fwd, h, lambda u: roles[u] == bk.OUTPUT)
        if back is None or fore is None:
            raise ValueError(f"hidden unit {h} lies on no input->output path of nonzero edges")
        path = ("path", tuple(reversed(back)) + tuple(fore[1:]))
        if path not in paths:
            paths.append(path)

    cycles = []
    if net.recurrent:
        done = set()
        for root in sorted(fwd):  # each component is rooted at its least unit
            if root in done:
                continue
            scc = sorted(_reference_reach(fwd, root) & _reference_reach(bwd, root))
            done.update(scc)
            sub = {u: [v for v in fwd[u] if v in scc] for u in scc}
            if len(scc) == 1 and root not in fwd[root]:
                continue
            tree_edges = set()
            parent = {root: None}
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in sub[u]:
                        if v not in parent and v != u:
                            parent[v] = u
                            tree_edges.add((u, v))
                            nxt.append(v)
                frontier = nxt
            for u in scc:
                for v in sub[u]:
                    if (u, v) in tree_edges:
                        continue
                    if u == v:
                        cycles.append(("cycle", (u, u)))
                        continue
                    back = _reference_bfs_path(sub, v, u.__eq__)
                    cycles.append(("cycle", (u,) + tuple(back)))
    return paths + cycles


def reference_log_ratios(final_net, initial_net):
    """Per-edge log weight ratios of a run, keyed by (src, dst), over the nonzero edges."""
    return {
        (a.src, a.dst): math.log(b.weight / a.weight)
        for a, b in zip(initial_net.edges, final_net.edges)
        if a.weight != 0.0
    }


def _reference_walk(c, log_ratios, units, l=0.0):
    """Log multiplier at the end of ``units``, walking l <- L[(src, dst)] + c_src * l from ``l``."""
    for src, dst in zip(units, units[1:]):
        l = log_ratios[(src, dst)] + c[src] * l
    return l


def reference_constraint_residual(net, constraint, log_ratios):
    """Signed violation of one (kind, units) constraint by per-edge logs keyed by (src, dst).

    A path starts at an input's log multiplier 0 and must end at the
    output's, 0.  A cycle starts at its first unit's log multiplier, walked
    in from a source along the shortest nonzero path, and must come back to
    it; only when the exponents around the cycle multiply to 1 is that the
    same as walking from 0 back to 0.
    """
    c = net.structure.exponent
    kind, units = constraint
    if kind == "path":
        return _reference_walk(c, log_ratios, units)
    roles = {u.id: u.role for u in net.units}
    back = _reference_bfs_path(
        _reference_neighbours(net, False), units[0], lambda u: roles[u] in (bk.INPUT, bk.BIAS)
    )
    start = _reference_walk(c, log_ratios, back[::-1])
    return _reference_walk(c, log_ratios, units, start) - start


def reference_partial_balance_pass(net, cost, order=None):
    """One pass stepped unit by unit on a one-row engine, with a ``BalanceReport`` built per step.

    Returns the network, the reports, the cost and deficit after each step,
    and the notes; a pass with no unit to balance notes "nothing to balance"
    (and, with no balanceable unit, nothing about the order), as a run does.
    """
    net.structure.check()
    eligible, notes = balancing._balanceable(net)
    eng = balancing._Engine(net, cost, [(u,) for u in eligible])
    index = {u: k for k, u in enumerate(eligible)}
    if order is None:
        order = eligible if net.recurrent else [u for u in net.structure.order if u in index]
    if not eligible:
        order = []
    steps, r_series, deficit_series = [], [], []
    for u in [int(u) for u in order]:
        if u not in index:
            notes.append(f"unit {u} skipped in pass: not balanceable")
            continue
        r_before = float(eng.r[0])
        lam = float(eng.begin(np.array([[index[u]]]))[0][0])
        r_after = float(eng.r[0])
        steps.append(bk.BalanceReport(u, lam, r_before, r_after, r_before - r_after))
        r_series.append(r_after)
        deficit_series.append(float(eng.deficit()[0]))
    if not steps:
        notes.append("nothing to balance")
    return eng.to_network(), steps, r_series, deficit_series, notes


def reference_bisect_log_lambda(cost, sums, c):
    """Cost-minimizing log lam of one set from its per-term side sums (terms, 4), by bisection.

    The function bisected is lam * d/dlam of the objective, summed with NumPy
    exponentials, strictly increasing in t = log lam.  The bracket starts
    around the per-term closed forms and widens until the function changes
    sign; then 200 halvings at most, until it is 1e-14 wide.
    """
    sums = np.asarray(sums, dtype=float)
    ps = np.array([p for p, _ in cost.terms])
    pe = np.outer(ps, balancing._exponents(c))
    nonzero = sums != 0.0
    coef, pe_nonzero = (pe * sums)[nonzero], pe[nonzero]

    def phi(t):
        return float(np.add.reduce(coef * np.exp(t * pe_nonzero)))

    with np.errstate(divide="ignore"):
        guesses = (math.log(c) + np.log(sums[:, 1]) - np.log(sums[:, 0])) / (ps * (c + 1.0))
    guesses = guesses[np.isfinite(guesses)]
    lo, hi = (float(guesses.min()), float(guesses.max())) if guesses.size else (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        width = 1.0
        while phi(lo) > 0.0 and lo > -balancing._LOG_LIMIT:
            lo, width = lo - width, 2.0 * width
        width = 1.0
        while phi(hi) < 0.0 and hi < balancing._LOG_LIMIT:
            hi, width = hi + width, 2.0 * width
        if not phi(lo) <= 0.0 <= phi(hi):
            raise balancing.DegenerateUnitError("no bracketed optimum in the floating-point range")
        for _ in range(200):
            if hi - lo <= 1e-14:
                break
            mid = 0.5 * (lo + hi)
            if phi(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def reference_set_edges(src, dst, units):
    """Edges touching one unit set, one scan of every edge, and their side: 0 in, 1 out, 2 inside."""
    into, outof = np.isin(dst, units), np.isin(src, units)
    sel = np.flatnonzero(into | outof)
    return sel, outof[sel].astype(np.int64) + (into[sel] & outof[sel])


def reference_run_balancing_many(net, schedules, cost):
    """Runs with every schedule skipped when the single-unit deficit starts within its
    tolerance, and each tied partition checked and balanced on an engine of its own.

    Every run is a batch of one on a fresh engine; a tied run runs only when
    its per-subset gap starts above its tolerance.
    """
    schedules = list(schedules)
    check_structure(net)
    eligible, notes = balancing._balanceable(net)
    units = [(u,) for u in eligible]
    eng = balancing._Engine(net, cost, units)
    r_init = float(eng.r_init[0])
    traces = [bk.BalanceTrace(r_initial=r_init, notes=list(notes)) for _ in schedules]
    results = [(net, trace) for trace in traces]
    if not eligible:
        for trace in traces:
            trace.notes.append("nothing to balance")
        return results
    start = float(eng.deficit()[0])
    index = {u: k for k, u in enumerate(eligible)}
    unit_runs, tied_runs = [], []
    for i, (schedule, trace) in enumerate(zip(schedules, traces)):
        tol_abs = schedule.deficit_tol * max(r_init, 1e-300) ** 2
        if start <= tol_abs:
            continue
        if schedule.kind == "stochastic":
            unit_runs.append((i, None, tol_abs))
            continue
        if schedule.kind == "sequential" and schedule.order is not None:
            cycle = balancing._order_cycle(schedule.order, index, trace.notes)
        elif schedule.kind == "sequential":
            cycle = balancing._default_cycle(net, index)
        else:
            partition = schedule.partition
            if partition is None:
                partition = hidden_layers(net)
            parts = [tuple(u for u in part if u in index) for part in partition]
            parts = [part for part in parts if part]
            if parts:
                parts = tuple(tuple(sorted(part)) for part in parts)
                for part in parts:
                    balancing._check_tied(net, part)
                tied_runs.append((i, parts, tol_abs))
                continue
            else:
                cycle = []
        if not cycle:
            trace.notes.append("nothing to balance")
            continue
        unit_runs.append((i, cycle, tol_abs))

    def run(i, sets, cycle, tol_abs):
        eng = balancing._Engine(net, cost, sets)
        if float(eng.deficit()[0]) <= tol_abs:
            return
        if cycle is None:
            picks = balancing._stochastic_picks(schedules[i].seed, len(sets))
        else:
            picks = balancing._cyclic_picks(eng, cycle)
        (w,), (ok,) = balancing._run_batch(eng, [(picks, tol_abs, schedules[i].max_steps, traces[i])])
        results[i] = (net.replace_weights(w), traces[i])
        if not ok:
            traces[i].converged = False
            traces[i].notes.append(f"stopped after max_steps={schedules[i].max_steps}")

    for i, cycle, tol_abs in unit_runs:
        run(i, units, cycle, tol_abs)
    for i, parts, tol_abs in tied_runs:
        run(i, parts, range(len(parts)), tol_abs)
    return results


def _reference_step(eng, k, w, ec, q):
    """Balance set k of a one-row engine state (w, ec, q), each (1, E + 1), in place."""
    edges = eng._edge[k:k + 1]
    codes = eng._side[k]
    wk = w.ravel().take(edges)
    if eng._root is not None:
        sums = np.bincount(codes, ec.ravel().take(edges).ravel(), 4).reshape(1, 1, 4)
    else:
        a = np.abs(wk).ravel()
        sums = np.stack(
            [np.bincount(codes, beta * a**p, 4).reshape(1, 4) for p, beta in eng.cost.terms], axis=1
        )
    lam = eng._lambda(np.array([k]), sums)
    wk *= lam[:, None] ** eng._power[k:k + 1]
    w.ravel()[edges] = wk
    ek, qk = regularizer.edge_costs(eng.cost, wk)
    ec.ravel()[edges] = ek
    if q is not ec:
        q.ravel()[edges] = qk
    return float(lam[0])


def _reference_deficit(eng, q):
    """The summed squared gap of the sets, gathered afresh from every (set, edge) entry."""
    gaps = np.add.reduceat(q.ravel().take(eng._sel) * eng._sign, eng._starts).reshape(1, -1)
    return float(np.einsum("ij,ij->i", gaps, gaps)[0])


def reference_run_batch(eng, runs):
    """``balancing._run_batch`` with every run stepped alone, one set per step.

    Each step gathers its set's edges, solves lambda*, scatters the new
    weights and edge costs, sums the cost and gathers the deficit afresh from
    every (set, edge) entry, as the engine stepped before it balanced blocks.
    """
    finals, met = [], []
    for picks, tol, cap, trace in runs:
        w = eng.w[:1].copy()
        w = np.concatenate([w, np.zeros((1, 1))], axis=1)
        ec, q = regularizer.edge_costs(eng.cost, w)
        done = False
        for t in range(cap):
            k = int(picks(t, 1)[0][0])
            trace.units.append(int(eng.unit[k]))
            trace.lambdas.append(_reference_step(eng, k, w, ec, q))
            trace.r_series.append(float(ec[:, :-1].sum(axis=1)[0]))
            trace.deficit_series.append(_reference_deficit(eng, q))
            done = trace.deficit_series[-1] <= tol
            if done:
                break
        finals.append(w[0, :-1].copy())
        met.append(done)
    return finals, met


def reference_run_sets(net, schedule):
    """The unit sets the engine of a run of ``schedule`` holds, and the run's cycle over
    them as lists of units (None for drawn picks)."""
    eligible, _ = balancing._balanceable(net)
    index = set(eligible)
    if schedule.kind == "layer_tied":
        partition = hidden_layers(net) if schedule.partition is None else schedule.partition
        sets = [tuple(sorted(u for u in part if u in index)) for part in partition]
        sets = [part for part in sets if part]
        return sets, sets
    sets = [(u,) for u in eligible]
    if schedule.kind == "stochastic":
        return sets, None
    if schedule.order is not None:
        order = schedule.order
    else:
        order = eligible if net.recurrent else net.structure.order
    return sets, [(u,) for u in order if u in index]


def reference_row_bounds(net, schedule, r_initial, r_series, deficit_series):
    """Per step of a run of ``schedule`` whose one-set steps logged ``r_series`` and
    ``deficit_series``: whether the engine's row must be those bits (the last step of a
    block, or of the run), and else how far its r and its sqrt(deficit) may lie from them.

    A block is a maximal run of consecutive sets of the cycle, from each pass's
    start, that share no edge, cut where a chunk of picks ends; drawn picks are
    blocks of one.  The bounds are ``_Engine._rows``': with eps = 2**-52, E
    edges, d the most (set, edge) entries of one of the engine's sets, n those
    sets with an edge, c their largest |exponent|, b the block's size and r_0
    the row before the block,
    (ceil(log2 E) + d + b + 30) eps (r_0 + r) on r, and
    (3 d + b + 4) (1 + c) eps (r_0 + r) + (n + 1) eps sqrt(D) on sqrt(D).
    """
    if not r_series:
        return []
    sets, cycle = reference_run_sets(net, schedule)
    s = net.structure
    scans = [reference_set_edges(s.src, s.dst, list(units))[0] for units in sets]
    d = max([sel.size for sel in scans], default=0)
    n = sum(sel.size > 0 for sel in scans)
    c = max([abs(float(s.exponent[u])) for units in sets for u in units], default=0.0)
    log_e = math.ceil(math.log2(max(len(net.edges), 1)))
    n_steps = len(r_series)
    starts = list(range(n_steps + 1))
    if cycle is not None:
        edges = [set(reference_set_edges(s.src, s.dst, list(units))[0].tolist()) for units in cycle]
        cuts, touched = {0}, set()
        for p, on in enumerate(edges):
            if touched & on:
                cuts.add(p)
                touched = set()
            touched |= on
        starts = [t for t in range(n_steps + len(cycle) + balancing._DRAW_CHUNK)
                  if t % len(cycle) in cuts or t % balancing._DRAW_CHUNK == 0]
    eps = np.finfo(float).eps
    rows = []
    for a, b in zip(starts, starts[1:]):
        r_0 = r_initial if a == 0 else r_series[a - 1]
        for t in range(a, min(b, n_steps)):
            r, root = r_series[t], math.sqrt(deficit_series[t])
            exact = t == b - 1 or t == n_steps - 1
            rows.append((exact, (log_e + d + (b - a) + 30) * eps * (r_0 + r),
                         (3 * d + (b - a) + 4) * (1.0 + c) * eps * (r_0 + r) + (n + 1) * eps * root))
        if b >= n_steps:
            break
    return rows


def reference_trace_to_csv(trace):
    """The trace's CSV written one ``BalanceReport`` at a time."""
    buf = io.StringIO()
    buf.write("step,unit,lambda_star,delta_r,r_after,deficit_after\n")
    for k, rep in enumerate(trace.steps):
        buf.write(
            f"{k},{rep.unit},{rep.lambda_star!r},{rep.delta_r!r},"
            f"{trace.r_series[k]!r},{trace.deficit_series[k]!r}\n"
        )
    return buf.getvalue()


def same_network(a, b):
    """``a == b`` with the weights compared bit for bit, except that any NaN matches any NaN."""
    blank = a.replace_weights(np.zeros_like(a.w)), b.replace_weights(np.zeros_like(b.w))
    bits = [np.where(np.isnan(n.w), np.nan, n.w).tobytes() for n in (a, b)]
    return blank[0] == blank[1] and bits[0] == bits[1]


def min_norm_hull_point(G):
    """Minimum-norm point of the convex hull of the rows of ``G``.

    Projects (0, ..., 0, 1) onto the cone spanned by the rows with a 1
    appended, a non-negative least-squares problem: for weights u >= 0 the
    residual is |G^T u|^2 + (1 - sum u)^2, and writing u = s * lam with lam
    on the simplex shows that lam = u / sum(u) minimizes |G^T lam| exactly.
    """
    from scipy.optimize import nnls

    G = np.atleast_2d(np.asarray(G, dtype=float))
    A = np.vstack([G.T, np.ones(G.shape[0])])
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    u, _ = nnls(A, b)
    return G.T @ (u / u.sum())


def star_neuron(in_weights, out_weights, activation=None):
    """inputs -> one hidden unit -> outputs, with the given weights."""
    activation = activation or bk.RELU
    n_in, n_out = len(in_weights), len(out_weights)
    units = [bk.Unit(k, bk.INPUT, bk.IDENTITY) for k in range(n_in)]
    hid = n_in
    units.append(bk.Unit(hid, bk.HIDDEN, activation))
    units += [bk.Unit(hid + 1 + k, bk.OUTPUT, bk.IDENTITY) for k in range(n_out)]
    edges = [bk.Edge(k, hid, float(w)) for k, w in enumerate(in_weights)]
    edges += [bk.Edge(hid, hid + 1 + k, float(w)) for k, w in enumerate(out_weights)]
    return bk.Network(units, edges), hid


def chain(weights, hidden_activation=None):
    """input -> hidden -> ... -> hidden -> output with the given edge weights."""
    hidden_activation = hidden_activation or bk.RELU
    n = len(weights) + 1
    units = [bk.Unit(0, bk.INPUT, bk.IDENTITY)]
    units += [bk.Unit(k, bk.HIDDEN, hidden_activation) for k in range(1, n - 1)]
    units.append(bk.Unit(n - 1, bk.OUTPUT, bk.IDENTITY))
    edges = [bk.Edge(k, k + 1, float(w)) for k, w in enumerate(weights)]
    return bk.Network(units, edges)


def random_layered(rng, n_layers=None, widths=(2, 5), activation=None, bias=True):
    """Random fully connected layered net with nonzero weights."""
    if n_layers is None:
        n_layers = int(rng.integers(3, 6))
    sizes = [int(rng.integers(widths[0], widths[1] + 1)) for _ in range(n_layers)]
    net = bk.make_layered(
        sizes,
        hidden_activation=activation or bk.leaky_relu(0.3),
        bias=bias,
        seed=int(rng.integers(2**31)),
        bias_init="uniform",
    )
    # keep every weight clearly nonzero so no unit degenerates
    w = net.weights()
    w = np.where(np.abs(w) < 1e-3, 1e-3 * np.sign(w) + (w == 0) * 1e-3, w)
    return net.replace_weights(w)


def net_with_dead_unit(seed, recurrent):
    """A random layered net, or a recurrent one with self-loops and BiPU units,
    with the outgoing side of one hidden unit zeroed so every run skips it."""
    rng = np.random.default_rng(seed)
    if recurrent:
        base = bk.make_recurrent(2, int(rng.integers(3, 6)), 2, self_loops=True, seed=seed)
        units = [
            bk.Unit(u.id, u.role, bk.bipu(1.0, -0.5, float(rng.choice((0.5, 1.0, 1.5, 2.0)))))
            if u.role == bk.HIDDEN
            else u
            for u in base.units
        ]
        net = bk.Network(units, base.edges, recurrent=True, unroll_steps=base.unroll_steps)
    else:
        net = random_layered(rng)
    dead = int(rng.choice(net.hidden_ids))
    w = net.weights()
    w[[k for k, e in enumerate(net.edges) if e.src == dead and e.dst != dead]] = 0.0
    return net.replace_weights(w), dead


def recurrent_bipu(seed, n_hidden, exponents):
    """A 2-n_hidden-2 recurrent net with self-loops whose hidden unit with
    position k in the unit list gets a BiPU of exponent exponents[k % len]."""
    base = bk.make_recurrent(2, n_hidden, 2, self_loops=True, seed=seed)
    units = [
        bk.Unit(u.id, u.role, bk.bipu(1.0, -0.5, exponents[k % len(exponents)]))
        if u.role == bk.HIDDEN
        else u
        for k, u in enumerate(base.units)
    ]
    return bk.Network(units, base.edges, recurrent=True, unroll_steps=base.unroll_steps)


def forward_gap(net_a, net_b, rng, n_probes=10):
    """Largest relative output discrepancy over random probe inputs."""
    worst = 0.0
    for _ in range(n_probes):
        x = rng.normal(size=len(net_a.input_ids))
        ya = bk.forward(net_a, x)
        yb = bk.forward(net_b, x)
        gap = np.max(np.abs(ya - yb)) / (1e-12 + np.max(np.abs(ya)))
        worst = max(worst, float(gap))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
