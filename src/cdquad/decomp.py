"""Anchored decomposition machinery.

Projections onto finitely many coordinates, anchored components via
inclusion-exclusion, alternating sums over active-set families, and the
worst-case squared bias bound of an active-set family, which the convergence
study reports next to each plan.  Product-type weights enter only through
their singleton sequence and order factors (weights._ProductFamily).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
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

    evaluator(assignment, anchor_value) receives a dict {coordinate: value}
    (1-based coordinates; values may be scalars or aligned numpy arrays) and
    must treat every unassigned coordinate as sitting at anchor_value.
    """

    evaluator: Callable[[Mapping[int, object], float], object]
    # optional analytic anchored components of a group of sets,
    # (sets, x, anchor_value) -> values: sets holds K sorted coordinate tuples
    # of one size d, x their points of shape (K, N, d) with column i at
    # coordinate sets[k][i], and the result the (K, N) values of f_{u,a};
    # bypasses the 2^|u| inclusion-exclusion when the integrand's structure
    # admits a closed form
    anchored: Callable | None = None

    def __call__(self, assignment: Mapping[int, object], anchor: Anchor):
        return self.evaluator(dict(assignment), anchor.value)


def psi_project(f: BlackBoxIntegrand, v, a: Anchor, x: Mapping[int, object]):
    """f at (x_v; a): coordinates in v from x, the rest at the anchor."""
    v = frozenset(v)
    missing = v - set(x)
    if missing:
        raise KeyError(f"assignment missing coordinates {sorted(missing)}")
    return f({j: x[j] for j in v}, a)


def _check_order(u) -> tuple[int, ...]:
    u = tuple(sorted(frozenset(u)))
    if len(u) > ORDER_CAP:
        raise ValueError(f"|u| = {len(u)} exceeds the inclusion-exclusion cap {ORDER_CAP}")
    return u


def anchored_component(f: BlackBoxIntegrand, u, a: Anchor, x):
    """The u-component of the anchored decomposition at x:
    sum over v subseteq u of (-1)^{|u minus v|} f(x_v; a).

    One set: u is a coordinate set and x a mapping {coordinate: value}
    (scalars or aligned arrays); coordinates of u missing from x are taken
    at the anchor, and the value is returned.  A group: u is a sequence of K
    coordinate sets of one size d and x an array of shape (K, N, d) whose
    column i holds coordinate sorted(u[k])[i] of set k; the (K, N) values are
    returned, row k those of f_{u[k],a}.  The one-set form of an integrand
    with the analytic hook (BlackBoxIntegrand.anchored) is the group of K = 1;
    without it, each set runs the inclusion-exclusion on its own, and in the
    group form a failure names the set.  The inclusion-exclusion evaluates
    f once per subset of u.
    """
    if isinstance(x, Mapping):
        u = _check_order(u)
        x = {j: x.get(j, a.value) for j in u}
        if f.anchored is None:
            return _inclusion_exclusion(f, u, a, x)
        cols = np.broadcast_arrays(*(np.asarray(x[j], dtype=np.float64) for j in u))
        shape = cols[0].shape if cols else ()
        pts = np.stack([c.reshape(-1) for c in cols], axis=-1) if cols else np.empty((1, 0))
        return anchored_component(f, [u], a, pts[None])[0].reshape(shape)[()]
    sets = [_check_order(s) for s in u]
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 3 or len(pts) != len(sets) or any(len(s) != pts.shape[2] for s in sets):
        raise ValueError(f"a group of {len(sets)} sets needs points of shape "
                         f"(K, N, |u|) with K = {len(sets)} and one size |u|, got {pts.shape}")
    if f.anchored is not None:
        return f.anchored(sets, pts, a.value)
    out = np.empty(pts.shape[:2])
    for k, s in enumerate(sets):
        try:
            out[k] = _inclusion_exclusion(f, s, a, {j: pts[k, :, i] for i, j in enumerate(s)})
        except Exception as exc:
            raise RuntimeError(f"integrand failed on subset {list(s)}") from exc
    return out


def _inclusion_exclusion(f: BlackBoxIntegrand, u: tuple[int, ...], a: Anchor, x):
    total = None
    for k in range(len(u) + 1):
        sign = (-1) ** (len(u) - k)
        for v in combinations(u, k):
            term = psi_project(f, v, a, x)
            total = sign * term if total is None else total + sign * term
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
