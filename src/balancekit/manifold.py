"""Self-consistent rescaling configurations and the independent convex oracle.

A balancing run multiplies each unit i by some cumulative factor Lambda_i
(visible units stay at 1), so every edge weight gets rescaled by
Lambda_dst / Lambda_src**c_src.  Working with per-edge logs
L = log(Lambda_dst) - c_src * log(Lambda_src) turns the reachable set into a
linear manifold, characterized by weighted zero-sum constraints along
input-to-output paths and directed cycles, and turns the total weight cost
into a strictly convex sum of exponentials.  Minimizing that sum over the
manifold certifies the unique balanced state any fair schedule converges to.

The solver itself is parametrized directly by the per-unit log multipliers of
the hidden homogeneous units (everything else pinned at 0), which sweeps out
exactly the constrained manifold with no constraints left to impose; the
explicit path/cycle constraints remain available for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netgraph import BIAS, INPUT, OUTPUT, Network, neighbours, reachable
from .regularizer import CostSpec


class UnidentifiableUnitError(ValueError):
    """Hidden units whose multipliers are not pinned down by any nonzero path."""


class ConvexSolverError(RuntimeError):
    """Newton failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class Constraint:
    """A zero-sum constraint: kind "path" (input..output) or "cycle" (closed)."""

    kind: str
    units: tuple


@dataclass
class MultiplierAssignment:
    """Per-unit positive multipliers; visible and non-homogeneous units sit at 1."""

    lambda_per_unit: dict


@dataclass
class SelfConsistentConfig:
    """Per-edge log rescaling factors, keyed by (src, dst)."""

    l_per_edge: dict


@dataclass
class ConvexSolution:
    config: SelfConsistentConfig
    multipliers: MultiplierAssignment
    r_star: float
    grad_norm: float
    iterations: int
    constraint_residuals: list


def _bfs_path(adj, start, goal_test):
    """Shortest path from start to any goal unit, exploring ids in order."""
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


def enumerate_constraints(net: Network):
    """Representative constraint set covering every hidden unit.

    One input-to-output path (over nonzero edges) through each hidden unit;
    for recurrent networks additionally one directed cycle per independent
    cycle of each strongly connected component.
    """
    net.structure.check()
    fwd, bwd = neighbours(net, forward=True), neighbours(net, forward=False)
    roles = [u.role for u in net.units]
    paths = []
    seen = set()
    for h in sorted(net.hidden_ids):
        back = _bfs_path(bwd, h, lambda u: roles[u] in (INPUT, BIAS))
        fore = _bfs_path(fwd, h, lambda u: roles[u] == OUTPUT)
        if back is None or fore is None:
            raise ValueError(f"hidden unit {h} lies on no input->output path of nonzero edges")
        path = tuple(reversed(back)) + tuple(fore[1:])
        if path not in seen:
            seen.add(path)
            paths.append(Constraint("path", path))

    cycles = []
    if net.recurrent:
        for scc in _strongly_connected(net):
            inside = set(scc)
            sub = {u: [v for v in fwd[u] if v in inside] for u in scc}
            has_self = any(u in fwd[u] for u in scc)
            if len(scc) == 1 and not has_self:
                continue
            root = min(scc)
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
            for u in sorted(scc):
                for v in sub[u]:
                    if (u, v) in tree_edges:
                        continue
                    if u == v:
                        cycles.append(Constraint("cycle", (u, u)))
                        continue
                    back = _bfs_path(sub, v, lambda x: x == u)
                    cycles.append(Constraint("cycle", (u,) + tuple(back)))
    return paths + cycles


def _propagate(L, c, units, l=0.0):
    """Walk a log multiplier along ``units``: l <- L[(src, dst)] + c_src * l, yielding (dst, l)."""
    for src, dst in zip(units, units[1:]):
        l = L[(src, dst)] + c[src] * l
        yield dst, l


def constraint_residual(net, constraint: Constraint, config: SelfConsistentConfig) -> float:
    """Signed violation of one constraint by a per-edge log configuration.

    Both kinds start at log multiplier 0 (an input, or the cycle's own start)
    and propagate along the units; the residual is the value at the end, which
    a path's output and a closed cycle both require to be 0.
    """
    l = 0.0
    for _, l in _propagate(config.l_per_edge, net.structure.exponent.tolist(), constraint.units):
        pass
    return l


def is_self_consistent(config: SelfConsistentConfig, net: Network, tol: float = 1e-9):
    """Check whether per-edge logs come from per-unit multipliers.

    Propagates log multipliers along the representative constraints (visible
    and non-homogeneous units pinned at 0) and then re-checks every nonzero
    edge.  Returns (True, MultiplierAssignment) or (False, description of the
    first conflicting unit).
    """
    L = config.l_per_edge
    s = net.structure
    c = s.exponent.tolist()
    live = net.w != 0.0
    nonzero = list(zip(s.src[live].tolist(), s.dst[live].tolist()))
    for a, b in nonzero:
        if (a, b) not in L:
            raise ValueError(f"config missing an entry for nonzero edge ({a}->{b})")

    loglam = {u: 0.0 for u in np.flatnonzero(~s.free).tolist()}
    constraints = enumerate_constraints(net)
    for con in constraints:
        units = con.units
        if units[0] not in loglam:
            continue  # cycles are re-walked once path propagation anchors them
        for dst, l in _propagate(L, c, units, loglam[units[0]]):
            if dst in loglam:
                if abs(l - loglam[dst]) > tol:
                    return False, (
                        f"unit {dst}: propagated log multiplier {l!r} conflicts with "
                        f"{loglam[dst]!r}"
                    )
            else:
                loglam[dst] = l
    for a, b in nonzero:
        if a not in loglam or b not in loglam:
            return False, f"unit {b if b not in loglam else a}: multiplier not determined"
        want = loglam[b] - c[a] * loglam[a]
        if abs(L[(a, b)] - want) > tol:
            return False, (
                f"unit {b}: edge ({a}->{b}) log factor {L[(a, b)]!r} "
                f"does not match the recovered multipliers ({want!r})"
            )
    lam = {u.id: math.exp(loglam[u.id]) if u.id in loglam else 1.0 for u in net.units}
    return True, MultiplierAssignment(lam)


def project_balancing_run(final_net: Network, initial_net: Network) -> SelfConsistentConfig:
    """Per-edge log weight ratios of a balancing run's end state vs its start."""
    s0, s1 = initial_net.structure, final_net.structure
    if not (np.array_equal(s0.src, s1.src) and np.array_equal(s0.dst, s1.dst)):
        raise ValueError("networks do not share the same edge list")
    L = {}
    weights = zip(initial_net.w.tolist(), final_net.w.tolist())
    for a, b, (w0, w1) in zip(s0.src.tolist(), s0.dst.tolist(), weights):
        if w0 == 0.0:
            if w1 != 0.0:
                raise ValueError(f"edge ({a}->{b}) went from zero to nonzero; not a rescaling")
            continue
        ratio = w1 / w0
        if ratio <= 0.0:
            raise ValueError(f"edge ({a}->{b}) flipped sign or vanished; not a rescaling")
        L[(a, b)] = math.log(ratio)
    return SelfConsistentConfig(L)


def solve_convex(
    net: Network,
    cost: CostSpec,
    grad_tol: float = 1e-10,
    max_iter: int = 200,
) -> ConvexSolution:
    """Minimize the total weight cost over the rescaling manifold.

    Variables are the log multipliers l of the hidden homogeneous units (every
    other unit stays at 0).  Nonzero edge e and cost term (p_t, beta_t)
    contribute c_te * exp(p_t * z_e) with z_e = l_dst - c_src * l_src and
    c_te = beta_t * |w_e|**p_t, normalized in log domain to sum to 1, so the
    objective starts at 1 at any weight scale.  The objective is smooth and
    strictly convex, so a damped Newton iteration converges in a handful of
    steps; it stops when the gradient sup-norm of the normalized objective
    falls below ``grad_tol`` (an absolute tolerance would sit under the
    floating-point floor for large-cost problems).
    """
    structure = net.structure
    structure.check()
    free = np.flatnonzero(structure.free)
    n = len(structure.units)

    # identifiability: every free unit must reach a pinned unit through
    # nonzero edges (ignoring direction), otherwise its multiplier is free to
    # drift and the program has no minimum.
    live = net.w != 0.0
    src, dst = structure.src[live], structure.dst[live]
    anchored = reachable(n, np.r_[src, dst], np.r_[dst, src], np.flatnonzero(~structure.free))
    lost = np.flatnonzero(structure.free & ~anchored).tolist()
    if lost:
        raise UnidentifiableUnitError(
            f"units {lost} are not connected to any visible unit by nonzero edges"
        )
    constraints = enumerate_constraints(net)

    # log c_te, one row per term, shifted by its logsumexp
    p = np.array([[pt] for pt, _ in cost.terms])
    logc = np.log([[beta] for _, beta in cost.terms]) + p * np.log(np.abs(net.w[live]))
    top = np.max(logc, initial=-np.inf)
    with np.errstate(divide="ignore"):
        log_scale = top + np.log(np.sum(np.exp(logc - top)))
    coeff = np.exp(logc - log_scale)
    csrc = structure.exponent[src]
    # Hessian entries of edge e: (dst, dst) += h, (src, src) += c^2 h,
    # (dst, src) and (src, dst) -= c h, on the flattened n x n matrix
    h_at = np.r_[dst * n + dst, src * n + src, dst * n + src, src * n + dst]
    h_by = np.r_[np.ones_like(csrc), csrc * csrc, -csrc, -csrc]

    def terms(l):
        with np.errstate(over="ignore"):
            return coeff * np.exp(p * (l[dst] - csrc * l[src]))

    l = np.zeros(n)
    grad_norm, iterations = 0.0, 0
    while free.size:  # with no free unit there is nothing to solve: 0 iterations
        iterations += 1
        t = terms(l)
        dz = np.sum(p * t, axis=0)
        g = (np.bincount(dst, dz, n) - np.bincount(src, csrc * dz, n))[free]
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= grad_tol:
            break
        if iterations >= max_iter:
            raise ConvexSolverError(
                f"no convergence after {max_iter} Newton iterations (grad={grad_norm:.3e})"
            )
        hz = np.sum(p * p * t, axis=0)
        H = np.bincount(h_at, np.tile(hz, 4) * h_by, n * n).reshape(n, n)[np.ix_(free, free)]
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + 1e-12 * np.trace(H) * np.eye(free.size), -g)
        # backtrack while the Armijo test fails and the predicted decrease is
        # above the objective's resolution; below it, a step that does not
        # raise the objective is as good as the rounding can tell
        r0 = float(np.sum(t))
        slope = float(g @ step)
        s = 1.0
        trial = l.copy()
        trial[free] += step
        r = float(np.sum(terms(trial)))
        while r > r0 + 1e-4 * s * slope and -s * slope > 1e-12 * r0:
            s *= 0.5
            trial[free] = l[free] + s * step
            r = float(np.sum(terms(trial)))
        if not r <= r0 * (1.0 + 1e-12):
            raise ConvexSolverError(
                "line search failed; weights are too ill-conditioned for the oracle"
            )
        l = trial

    z = l[dst] - csrc * l[src]
    config = SelfConsistentConfig(dict(zip(zip(src.tolist(), dst.tolist()), z.tolist())))
    lam = dict(enumerate(np.exp(l).tolist()))
    residuals = [constraint_residual(net, c, config) for c in constraints]
    with np.errstate(over="ignore", divide="ignore"):
        r_star = float(np.exp(log_scale + np.log(np.sum(terms(l)))))
    return ConvexSolution(
        config, MultiplierAssignment(lam), r_star, grad_norm, iterations, residuals
    )


def apply_multipliers(net: Network, assignment: MultiplierAssignment) -> Network:
    """Rescale every edge by Lambda_dst / Lambda_src**c_src."""
    s = net.structure
    lam = [assignment.lambda_per_unit.get(u.id, 1.0) for u in s.units]
    # per unit, so each power is the Python float one, whatever the edge count
    out_scale = np.array([x**c for x, c in zip(lam, s.exponent.tolist())])
    return net.replace_weights(net.w * (np.array(lam)[s.dst] / out_scale[s.src]))


def tied_layer_closed_form(layer_norms) -> list:
    """Per-matrix multipliers of the tied-layer balanced state (L2 cost).

    ``layer_norms`` holds the squared Frobenius norms n_i of the N consecutive
    inter-layer matrices.  Minimizing sum_i M_i**2 * n_i subject to
    prod M_i = 1 gives M_i = (prod_k n_k)**(1/(2N)) / sqrt(n_i): the scaled
    matrices all share the same norm and the multipliers multiply to one.
    """
    norms = [float(n) for n in layer_norms]
    if not norms:
        raise ValueError("need at least one layer norm")
    for k, n in enumerate(norms):
        if not n > 0.0:
            raise ValueError(f"layer {k}: squared norm must be > 0, got {n}")
    logs = [math.log(n) for n in norms]
    mean = sum(logs) / len(logs)
    return [math.exp(0.5 * (mean - l)) for l in logs]


def _strongly_connected(net):
    """Strongly connected components over the nonzero edges, each sorted, ordered by least unit."""
    structure = net.structure
    live = net.w != 0.0
    src, dst = structure.src[live], structure.dst[live]
    n = len(structure.units)
    components, done = [], np.zeros(n, dtype=bool)
    for u in range(n):
        if not done[u]:
            component = reachable(n, src, dst, [u]) & reachable(n, dst, src, [u])
            done |= component
            components.append(np.flatnonzero(component).tolist())
    return components
