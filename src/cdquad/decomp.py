"""Anchored decomposition machinery.

Anchored components of groups of coordinate sets, by inclusion-exclusion or
an integrand's analytic hook, alternating sums over active-set families, and
the worst-case squared bias bound of a family, which each convergence-study
row reports.  Product-type weights enter only through their singleton
sequence and order factors (weights._ProductFamily).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .weights import (
    ProductWeights,
    Truncation,
    WeightModel,
    _ProductFamily,
    esym,
)

CoordSet = frozenset[int]

#: inclusion-exclusion over 2^{|u|} evaluations; refuse beyond this
ORDER_CAP = 20


@dataclass(frozen=True)
class Anchor:
    """Constant anchor a = (a, a, ...)."""

    value: float = 0.5

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("anchor must lie in [0, 1]")


@dataclass
class BlackBoxIntegrand:
    """A function of countably many variables, queried at points that differ
    from the anchor in finitely many coordinates.

    evaluator(sets, x, anchor_value) takes K sorted coordinate tuples of one
    size d (1-based coordinates) and points x of shape (K, N, d): column i
    of row k sits at coordinate sets[k][i] and every other coordinate at
    anchor_value.  It returns the values of f at those points, broadcastable
    to (K, N); a constant may return a scalar.  For example,
    f(x) = sum_{j >= 1} (x_j - 1/2) / j^2 is

        def evaluator(sets, x, av):
            w = 1.0 / np.asarray(sets, dtype=np.float64)[:, None, :] ** 2
            # the coordinates at the anchor add (av - 1/2) sum_j 1/j^2
            return ((x - 0.5) * w).sum(axis=2) + (av - 0.5) * (np.pi**2 / 6 - w.sum(axis=2))
    """

    evaluator: Callable
    # optional analytic anchored components of a group of sets, with the
    # evaluator's signature and the (K, N) values of f_{u,a} as its result,
    # in place of the 2^|u| inclusion-exclusion where they have a closed form
    anchored: Callable | None = None


def anchored_component(f: BlackBoxIntegrand, sets, a: Anchor, x) -> np.ndarray:
    """The anchored components f_{u,a} of a group of K coordinate sets of one
    size d, at points x of shape (K, N, d) whose column i holds coordinate
    sorted(sets[k])[i] of set k: the (K, N) values, row k those of
    f_{sets[k],a}, the sum over v subseteq u of (-1)^{|u minus v|} f(x_v; a).

    With the analytic hook (BlackBoxIntegrand.anchored) that is one hook
    call.  Without it, the inclusion-exclusion makes one evaluator call per
    subset of the d columns, for the whole group, by |v| and then in
    combinations order; an evaluator error is a RuntimeError that names the
    call's coordinate tuples.
    """
    sets = [tuple(sorted(frozenset(s))) for s in sets]
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 3 or len(pts) != len(sets) or any(len(s) != pts.shape[2] for s in sets):
        raise ValueError(f"a group of {len(sets)} sets needs points of shape "
                         f"(K, N, |u|) with K = {len(sets)} and one size |u|, got {pts.shape}")
    d = pts.shape[2]
    if d > ORDER_CAP:
        raise ValueError(f"|u| = {d} exceeds the inclusion-exclusion cap {ORDER_CAP}")
    if f.anchored is not None:
        return f.anchored(sets, pts, a.value)
    total = None
    for k in range(d + 1):
        sign = (-1) ** (d - k)
        for cols in combinations(range(d), k):
            sub = [tuple(s[i] for i in cols) for s in sets]
            try:
                term = np.broadcast_to(np.asarray(
                    f.evaluator(sub, pts[:, :, list(cols)], a.value), dtype=np.float64), pts.shape[:2])
            except Exception as exc:
                raise RuntimeError(f"integrand failed on coordinate subsets {sub}") from exc
            if total is None:
                total = sign * term
            else:
                total += sign * term
    return total


def alt_sum_S(Q, u) -> int:
    """S_{Q,u} = sum over v in Q with v subseteq u of (-1)^{|v|}."""
    u = frozenset(u)
    return sum((-1) ** len(v) for v in Q if frozenset(v) <= u)


def _alt_sum_in(Q: set, u: CoordSet) -> int:
    """alt_sum_S for a set Q of frozensets: looks up the subsets of u in Q,
    or scans Q where it holds fewer sets than u has subsets."""
    if 2 ** len(u) > len(Q):
        return alt_sum_S(Q, u)
    items = sorted(u)
    return sum((-1) ** k for k in range(len(items) + 1)
               for c in combinations(items, k) if frozenset(c) in Q)


# --- worst-case squared bias ----------------------------------------------


def bias_squared(Q, w: WeightModel, k_aa: float, T: Truncation = Truncation()) -> float:
    """Worst-case squared bias of a changing dimension rule with active set Q:
    sum over nonempty u of S_{Q,u}^2 gamma_u k_aa^{|u|}.

    Exact over the support for finite-support weights.  For product-type
    weights the sum runs over the truncation box T, folded onto traces
    t = u intersect V (V the union of Q) since S depends on u only through t.
    """
    Q = [frozenset(q) for q in Q]
    if w.has_finite_support():
        Qset = set(Q)
        total = 0.0
        for u in sorted(w.support_closure(), key=lambda s: (len(s), sorted(s))):
            if not u:
                continue
            total += _alt_sum_in(Qset, u) ** 2 * w.gamma(u) * k_aa ** len(u)
        return total
    if not isinstance(w, _ProductFamily):
        raise TypeError(f"no bias evaluation path for {type(w).__name__}")
    if isinstance(w, ProductWeights):
        return _bias_product(Q, w, k_aa, T)
    return _bias_trace_fold(Q, w, k_aa, T)


def _bias_product(Q, w, k_aa: float, T: Truncation) -> float:
    """Exact bias sum for product weights via the pair expansion
    S^2 = sum over (v, v') in Q^2, then Moebius inversion on v intersect v':
    total = G * sum_{t in Q} m_t^2 / prod_{j in t} g_j - 1 with
    m_t = sum_{v in Q, v superset t} (-1)^{|v|} prod_{j in v} g_j/(1+g_j).
    Linear in the subset lattice of Q instead of exponential in |union Q|."""
    J = T.max_index
    gseq = {j: w.gamma_seq(j) * k_aa for j in range(1, J + 1)}
    G = math.prod(1.0 + g for g in gseq.values())
    m: dict = {}
    for v in Q:
        a = (-1.0) ** len(v)
        for j in v:
            g = gseq[j]
            a *= g / (1.0 + g)
        for r in range(len(v) + 1):
            for t in combinations(sorted(v), r):
                m[t] = m.get(t, 0.0) + a
    F = 0.0
    for t, mt in m.items():
        inv = 1.0
        for j in t:
            inv /= gseq[j]
        F += inv * mt * mt
    return G * F - 1.0


def _bias_trace_fold(Q, w, k_aa: float, T: Truncation) -> float:
    """Bias sum folded onto traces t = u intersect V (V the union of Q);
    S depends on u only through the trace.  Used for the order-capped
    families, where the order factor kills all but small traces."""
    V = sorted(frozenset().union(*Q)) if Q else []
    Qset = set(Q)
    outside = [w.gamma_seq(j) * k_aa for j in range(1, T.max_index + 1) if j not in set(V)]
    kmax = T.max_order
    es = esym(outside, kmax)
    total = 0.0
    for r in range(min(len(V), w.order) + 1):
        for t in combinations(V, r):
            S2 = _alt_sum_in(Qset, frozenset(t)) ** 2
            if S2 == 0:
                continue
            gt = 1.0
            for j in t:
                gt *= w.gamma_seq(j) * k_aa
            for k in range(0, kmax - r + 1):
                if r + k == 0:
                    continue  # u must be nonempty
                total += S2 * w.order_factor(r + k) * gt * es[k]
    return total
