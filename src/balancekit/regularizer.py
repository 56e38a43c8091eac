"""Additive weight costs: sums of beta * |w|**p terms and their derivatives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostSpec:
    """Cost per weight: sum over terms of beta * |w|**p, each p > 0, beta > 0."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(p), float(beta)) for p, beta in self.terms)
        if not terms:
            raise ValueError("cost needs at least one (p, beta) term")
        for p, beta in terms:
            if not p > 0.0:
                raise ValueError(f"exponent p must be > 0, got {p}")
            if not beta > 0.0:
                raise ValueError(f"coefficient beta must be > 0, got {beta}")
        object.__setattr__(self, "terms", terms)

    @property
    def single_term(self):
        """(p, beta) when the cost has exactly one term, else None."""
        return self.terms[0] if len(self.terms) == 1 else None


def lp(p: float, beta: float = 1.0) -> CostSpec:
    return CostSpec(((p, beta),))


def l1(beta: float = 1.0) -> CostSpec:
    return lp(1.0, beta)


def l2(beta: float = 1.0) -> CostSpec:
    return lp(2.0, beta)


L1 = l1()
L2 = l2()


def term_costs(spec: CostSpec, w) -> list:
    """beta * |w|**p of each term, one array per term, over an array of weights."""
    a = np.abs(w)
    return [a**p if beta == 1.0 else beta * a**p for p, beta in spec.terms]


def edge_costs(spec: CostSpec, w):
    """Per-edge cost, and the same with term t weighted by p_t / max p.

    The weighted sums are the ones that vanish at a set's optimum,
    sum_t p_t (in_t - c out_t) = 0; for a one-term cost they are the cost itself.
    """
    terms = term_costs(spec, w)
    if len(terms) == 1:
        return terms[0], terms[0]
    p_max = max(p for p, _ in spec.terms)
    return sum(terms), sum((p / p_max) * t for (p, _), t in zip(spec.terms, terms))


def network_cost(net, spec: CostSpec) -> float:
    """Sum of weight costs over all edges: the engine's per-edge costs and its pairwise sum.

    So it is a run's ``r_initial`` bit for bit, and the last ``r_series`` row
    of a run that took a step on the weights it returns.  A cost past the
    float range is inf.
    """
    with np.errstate(over="ignore"):
        return float(np.add.reduce(edge_costs(spec, net.w)[0]))


def derivative_array(spec: CostSpec, w) -> np.ndarray:
    """d/dw of the cost of each weight; at w = 0 with p = 1 uses the 0 subgradient.

    Terms with p < 1 are rejected: their derivative is unbounded near zero and
    they have no place in a gradient path.
    """
    if any(p < 1.0 for p, _ in spec.terms):
        raise ValueError("cost terms with p < 1 cannot be used in gradients")
    w = np.asarray(w, dtype=float)
    a = np.abs(w)
    s = np.sign(w)
    total = np.zeros_like(a)
    for p, beta in spec.terms:
        if p == 1.0:
            total += beta * s
        else:
            total += beta * p * s * a ** (p - 1.0)
    return total


# -- text form used by the CLI: "l2", "0.5*l1", "lp:3", "0.015*l1+1.0*l2" ----


def parse_cost(text: str) -> CostSpec:
    terms = []
    for raw in text.split("+"):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty cost term in {text!r}")
        beta = 1.0
        body = token
        if "*" in token:
            head, body = token.split("*", 1)
            try:
                beta = float(head)
            except ValueError:
                raise ValueError(f"bad cost coefficient in term {token!r}") from None
        body = body.strip()
        if body == "l1":
            p = 1.0
        elif body == "l2":
            p = 2.0
        elif body.startswith("lp:"):
            try:
                p = float(body[3:])
            except ValueError:
                raise ValueError(f"bad exponent in cost term {token!r}") from None
        else:
            raise ValueError(f"unrecognized cost term {token!r}")
        terms.append((p, beta))
    return CostSpec(tuple(terms))


def format_cost(spec: CostSpec) -> str:
    parts = []
    for p, beta in spec.terms:
        body = "l1" if p == 1.0 else "l2" if p == 2.0 else f"lp:{p!r}"
        parts.append(body if beta == 1.0 else f"{beta!r}*{body}")
    return "+".join(parts)
