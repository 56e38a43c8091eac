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
from .regularizer import CostSpec, weight_cost


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


def _path_coefficients(net, units):
    """Weight of each edge's L in the path's zero-sum constraint.

    Propagating log Lambda along the path multiplies earlier contributions by
    the exponents of the interior units they pass through, so edge k carries
    the product of exponents of units k..n-1.
    """
    c = net.structure.exponent.tolist()
    n = len(units) - 1
    coeffs = []
    for k in range(1, n + 1):
        acc = 1.0
        for m in range(k, n):
            acc *= c[units[m]]
        coeffs.append(acc)
    return coeffs


def constraint_residual(net, constraint: Constraint, config: SelfConsistentConfig) -> float:
    """Signed violation of one constraint by a per-edge log configuration."""
    units = constraint.units
    L = config.l_per_edge
    if constraint.kind == "path":
        coeffs = _path_coefficients(net, units)
        total = 0.0
        for k in range(1, len(units)):
            total += coeffs[k - 1] * L[(units[k - 1], units[k])]
        return total
    # cycle: propagate around once and compare with the starting value 0
    c = net.structure.exponent.tolist()
    l = 0.0
    for k in range(1, len(units)):
        src, dst = units[k - 1], units[k]
        l = L[(src, dst)] + c[src] * l
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
        l = loglam[units[0]]
        for k in range(1, len(units)):
            src, dst = units[k - 1], units[k]
            l = L[(src, dst)] + c[src] * l
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

    Variables are the log multipliers of the hidden homogeneous units; each
    nonzero edge contributes coeff * exp(p * (l_dst - c_src * l_src)).  The
    objective is smooth and strictly convex, so a damped Newton iteration
    converges in a handful of steps; it stops when the gradient sup-norm of
    the objective normalized by its initial value falls below ``grad_tol``
    (an absolute tolerance would sit under the floating-point floor for
    large-cost problems).
    """
    structure = net.structure
    structure.check()
    free = np.flatnonzero(structure.free).tolist()
    nfree = len(free)

    # identifiability: every free unit must reach a pinned unit through
    # nonzero edges (ignoring direction), otherwise its multiplier is free to
    # drift and the program has no minimum.
    live = net.w != 0.0
    a, b = structure.src[live], structure.dst[live]
    pinned = np.flatnonzero(~structure.free)
    anchored = reachable(len(structure.units), np.r_[a, b], np.r_[b, a], pinned)
    lost = [u for u in free if not anchored[u]]
    if lost:
        raise UnidentifiableUnitError(
            f"units {lost} are not connected to any visible unit by nonzero edges"
        )

    single = cost.single_term
    if single is None:
        raise ValueError("the convex program is defined for a single power term")
    p = single[0]
    constraints = enumerate_constraints(net)

    # the nonzero edges, ordered by (src, dst)
    nz = np.flatnonzero(live)
    nz = nz[np.lexsort((structure.dst[nz], structure.src[nz]))]
    src, dst = structure.src[nz], structure.dst[nz]
    edges = list(zip(src.tolist(), dst.tolist()))
    coeff = np.array([weight_cost(cost, w) for w in net.w[nz].tolist()])
    scale = float(np.sum(coeff)) if len(coeff) else 1.0
    if scale > 0.0:
        coeff = coeff / scale
    else:
        scale = 1.0
    csrc = structure.exponent[src]
    col_of = np.full(len(structure.units), -1, dtype=np.int64)
    col_of[free] = np.arange(nfree)
    dst_col, src_col = col_of[dst], col_of[src]

    def z_of(l):
        ld = np.where(dst_col >= 0, l[np.maximum(dst_col, 0)], 0.0)
        ls = np.where(src_col >= 0, l[np.maximum(src_col, 0)], 0.0)
        return ld - csrc * ls

    def objective(l):
        with np.errstate(over="ignore"):
            return float(np.sum(coeff * np.exp(p * z_of(l))))

    l = np.zeros(nfree)
    if nfree == 0:
        r = objective(l) * scale
        config = SelfConsistentConfig({e: 0.0 for e in edges})
        lam = {u.id: 1.0 for u in net.units}
        residuals = [constraint_residual(net, c, config) for c in constraints]
        return ConvexSolution(config, MultiplierAssignment(lam), r, 0.0, 0, residuals)

    grad_norm = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        t = coeff * np.exp(p * z_of(l))
        g = np.zeros(nfree)
        np.add.at(g, dst_col[dst_col >= 0], p * t[dst_col >= 0])
        sel = src_col >= 0
        np.add.at(g, src_col[sel], -p * csrc[sel] * t[sel])
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= grad_tol:
            break
        H = np.zeros((nfree, nfree))
        for k in range(len(edges)):
            tk = p * p * t[k]
            a = dst_col[k]
            b = src_col[k]
            if a >= 0:
                H[a, a] += tk
            if b >= 0:
                H[b, b] += tk * csrc[k] * csrc[k]
            if a >= 0 and b >= 0:
                H[a, b] -= tk * csrc[k]
                H[b, a] -= tk * csrc[k]
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + 1e-12 * np.trace(H) * np.eye(nfree), -g)
        r0 = float(np.sum(t))
        slope = float(g @ step)
        s = 1.0
        accepted = False
        for _ in range(80):
            trial = l + s * step
            if np.array_equal(trial, l):
                break  # damping stopped moving the iterate; fall through
            if objective(trial) <= r0 + 1e-4 * s * slope:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            # near the optimum the certifiable decrease falls below the
            # floating-point resolution of the objective; the undamped Newton
            # step still contracts the gradient, so take it if it is safe
            if objective(l + step) <= r0 * (1.0 + 1e-12):
                s = 1.0
            else:
                raise ConvexSolverError(
                    "line search failed; weights are too ill-conditioned for the oracle"
                )
        l = l + s * step
    else:
        raise ConvexSolverError(
            f"no convergence after {max_iter} Newton iterations (grad={grad_norm:.3e})"
        )

    z = z_of(l)
    config = SelfConsistentConfig({e: float(zz) for e, zz in zip(edges, z)})
    lam = {}
    for u in net.units:
        lam[u.id] = float(math.exp(l[col_of[u.id]])) if col_of[u.id] >= 0 else 1.0
    residuals = [constraint_residual(net, c, config) for c in constraints]
    return ConvexSolution(
        config,
        MultiplierAssignment(lam),
        objective(l) * scale,
        grad_norm,
        iterations,
        residuals,
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
