"""The rescaling manifold: fitting runs to it, and the independent convex oracle.

A balancing run multiplies each unit i by some cumulative factor Lambda_i
(visible units stay at 1), so every edge weight gets rescaled by
Lambda_dst / Lambda_src**c_src.  Working with per-edge logs
L = log(Lambda_dst) - c_src * log(Lambda_src) turns the reachable set into a
linear manifold: the range of the edge-unit incidence operator A, with
A[e, dst] = 1 and A[e, src] = -c_src over the nonzero edges and the units a
run moves (``Network.movable``), every other unit pinned at log multiplier 0.  The
paper states the same manifold as weighted zero-sum constraints along
input-to-output paths and directed cycles.  The total weight cost becomes a
strictly convex sum of exponentials, and minimizing it over the manifold
certifies the unique balanced state any fair schedule converges to.

The solver is parametrized directly by the per-unit log multipliers, which
sweeps out exactly the manifold with no constraints left to impose.  A run is
certified by the least-squares fit of its per-edge log weight ratios onto the
manifold (``fit_multipliers``): the residual vanishes exactly when the run
stayed on it, and otherwise points at the edges that strayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netgraph import Network, check_structure, reachable
from .regularizer import CostSpec

_GRAD_TOL = 1e-10  # Newton stops at this gradient sup-norm of the normalized objective
_MAX_ITER = 200  # Newton iterations before the solve gives up


class UnidentifiableUnitError(ValueError):
    """Hidden units whose multipliers are not pinned down by any nonzero path."""


class ConvexSolverError(RuntimeError):
    """Newton failed to reach the gradient tolerance."""


@dataclass
class MultiplierAssignment:
    """Per-unit positive multipliers; visible and non-homogeneous units sit at 1."""

    lambda_per_unit: dict


@dataclass
class ConvexSolution:
    multipliers: MultiplierAssignment
    r_star: float
    grad_norm: float
    iterations: int
    constraint_residuals: list  # A l - z of the optimum, per edge as fit_multipliers lays it out


class _Manifold:
    """A network's rescaling manifold, as arrays over its nonzero edges.

    ``src``, ``dst`` and ``csrc`` hold the ends and the source exponent of
    each nonzero edge (``live`` marks them in the edge list); ``free`` holds
    the ``Network.movable`` units, whose log multiplier may move.  Raises what
    ``check_structure`` does, and ``UnidentifiableUnitError`` when a free unit
    lies on no path of nonzero edges between pinned units.  Where each lies on
    one, only d = 0 has (A d)_e <= 0 on every edge (walk in from both ends), so
    the fit and the oracle's optimum are unique.
    """

    def __init__(self, net: Network):
        check_structure(net)
        structure = net.structure
        self.n = n = len(structure.units)
        self.free = np.flatnonzero(net.movable)
        self.live = net.w != 0.0
        self.src, self.dst = src, dst = structure.src[self.live], structure.dst[self.live]
        pinned = np.flatnonzero(~net.movable)
        lost = np.flatnonzero(~(reachable(n, src, dst, pinned) & reachable(n, dst, src, pinned)))
        if lost.size:
            raise UnidentifiableUnitError(f"units {lost.tolist()} lie on no path of nonzero edges "
                                          "between units that do not move")
        self.csrc = csrc = structure.exponent[src]
        # entries of edge e in A^T diag(h) A: (dst, dst) += h, (src, src) += c^2 h,
        # (dst, src) and (src, dst) -= c h, on the flattened n x n matrix
        self.h_at = np.concatenate((dst * n + dst, src * n + src, dst * n + src, src * n + dst))
        self.h_by = np.concatenate((np.ones_like(csrc), csrc * csrc, -csrc, -csrc))

    def image(self, l):
        """A l: the per-edge logs of the per-unit log multipliers ``l`` (one row per run)."""
        return l[..., self.dst] - self.csrc * l[..., self.src]

    def adjoint(self, y):
        """A^T y over the free units."""
        n = self.n
        return (np.bincount(self.dst, y, n) - np.bincount(self.src, self.csrc * y, n))[self.free]

    def gram(self, h):
        """A^T diag(h) A over the free units."""
        n, free = self.n, self.free
        return np.bincount(self.h_at, np.tile(h, 4) * self.h_by, n * n).reshape(n, n)[np.ix_(free, free)]

    def fit(self, L):
        """Least-squares fit of per-edge logs ``L`` (one row per run): log multipliers l, A l - L.

        Solves the normal equations (A^T A) l = A^T L, which the path test makes
        positive definite, for every row at once.  The residual is laid out
        over the whole edge list, 0.0 on the zero-weight edges.
        """
        L = np.atleast_2d(L)
        l = np.zeros((len(L), self.n))
        rhs = np.array([self.adjoint(y) for y in L]).reshape(len(L), self.free.size)
        l[:, self.free] = np.linalg.solve(self.gram(np.ones(L.shape[1])), rhs.T).T
        residual = np.zeros((len(L), self.live.size))
        residual[:, self.live] = self.image(l) - L
        return l, residual


def fit_multipliers(final_net: Network, initial_net: Network):
    """Certify one run: ``fit_multipliers_many([final_net], initial_net)[0]``."""
    return fit_multipliers_many([final_net], initial_net)[0]


def fit_multipliers_many(final_nets, initial_net: Network) -> list:
    """Certify runs: fit each one's per-edge log weight ratios onto the rescaling manifold.

    Returns one ``(MultiplierAssignment, residual)`` per run, the residual
    A l - L one float per edge in edge-list order (0.0 on zero-weight edges).
    A run that only rescaled units has a residual at rounding level; ``argmax``
    of its absolute value names the edge that strays most.  The runs share
    one normal matrix and one solve.  Raises ``ValueError`` when the nets do
    not share one edge list, naming the first edge of the first run whose
    weight flips sign, vanishes or appears or whose ratio is not finite, and
    raises on ``initial_net`` what ``solve_convex`` raises on a net.
    """
    final_nets = list(final_nets)
    s0 = initial_net.structure
    for s1 in (final_net.structure for final_net in final_nets):
        if not (np.array_equal(s0.src, s1.src) and np.array_equal(s0.dst, s1.dst)):
            raise ValueError("networks do not share the same edge list")
    m = _Manifold(initial_net)
    w0 = initial_net.w
    w1 = np.array([final_net.w for final_net in final_nets]).reshape(-1, w0.size)
    with np.errstate(all="ignore"):
        ratio = np.divide(w1, w0, out=np.ones_like(w1), where=m.live)
    bad = np.argwhere((~m.live & (w1 != 0.0)) | ~np.isfinite(ratio) | ~(ratio > 0.0))
    if bad.size:
        run, k = bad[0].tolist()
        edge = f"edge ({s0.src[k]}->{s0.dst[k]})"
        if not m.live[k]:
            raise ValueError(f"{edge} went from zero to nonzero; not a rescaling")
        if not math.isfinite(ratio[run, k]):
            raise ValueError(f"{edge}: weight ratio {float(ratio[run, k])!r} is not finite")
        raise ValueError(f"{edge} flipped sign or vanished; not a rescaling")
    l, residual = m.fit(np.log(ratio[:, m.live]))
    return [(MultiplierAssignment(dict(enumerate(row))), res)
            for row, res in zip(np.exp(l).tolist(), residual)]


def solve_convex(net: Network, cost: CostSpec) -> ConvexSolution:
    """Minimize the total weight cost over the rescaling manifold.

    Variables are the log multipliers l of the hidden homogeneous units (every
    other unit stays at 0).  Nonzero edge e and cost term (p_t, beta_t)
    contribute c_te * exp(p_t * z_e) with z_e = l_dst - c_src * l_src and
    c_te = beta_t * |w_e|**p_t, normalized in log domain to sum to 1, so the
    objective starts at 1 at any weight scale.  The objective is smooth and
    strictly convex, so a damped Newton iteration converges in a handful of
    steps; it stops when the gradient sup-norm of the normalized objective
    falls below ``_GRAD_TOL`` (an absolute tolerance would sit under the
    floating-point floor for large-cost problems), and raises
    ``ConvexSolverError`` after ``_MAX_ITER`` iterations without.  The
    ``constraint_residuals`` are the manifold fit's residual of the optimum's
    per-edge logs z, laid out as ``fit_multipliers`` lays out its residual.
    Raises ``ValueError`` on a net a run refuses (``check_structure``), and
    ``UnidentifiableUnitError`` where ``fit_multipliers`` does (see ``_Manifold``).
    """
    m = _Manifold(net)
    free = m.free

    # log c_te, one row per term, shifted by its logsumexp
    p = np.array([[pt] for pt, _ in cost.terms])
    logc = np.log([[beta] for _, beta in cost.terms]) + p * np.log(np.abs(net.w[m.live]))
    top = np.max(logc, initial=-np.inf)
    with np.errstate(divide="ignore"):
        log_scale = top + np.log(np.sum(np.exp(logc - top)))
    coeff = np.exp(logc - log_scale)

    def terms(l):
        with np.errstate(over="ignore"):
            return coeff * np.exp(p * m.image(l))

    l = np.zeros(m.n)
    grad_norm, iterations = 0.0, 0
    while free.size:  # with no free unit there is nothing to solve: 0 iterations
        iterations += 1
        t = terms(l)
        g = m.adjoint(np.sum(p * t, axis=0))
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= _GRAD_TOL:
            break
        if iterations >= _MAX_ITER:
            raise ConvexSolverError(
                f"no convergence after {_MAX_ITER} Newton iterations (grad={grad_norm:.3e})"
            )
        H = m.gram(np.sum(p * p * t, axis=0))
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

    _, residual = m.fit(m.image(l))
    lam = dict(enumerate(np.exp(l).tolist()))
    with np.errstate(over="ignore", divide="ignore"):
        r_star = float(np.exp(log_scale + np.log(np.sum(terms(l)))))
    return ConvexSolution(MultiplierAssignment(lam), r_star, grad_norm, iterations, residual[0].tolist())


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

