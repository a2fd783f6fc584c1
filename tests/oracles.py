"""Test-local oracles that several test modules share."""

import numpy as np

from cdquad.decomp import Anchor, BlackBoxIntegrand, anchored_component
from cdquad.weights import downward_closure


def coordinate(sets, x, j, anchor_value) -> np.ndarray:
    """Coordinate j of the points x (K, N, d) of a group of sets: the (K, N)
    values, anchor_value in the rows whose set lacks j."""
    out = np.full(x.shape[:2], float(anchor_value))
    for k, s in enumerate(sets):
        if j in s:
            out[k] = x[k, :, list(s).index(j)]
    return out


def at(f: BlackBoxIntegrand, x, a: Anchor = Anchor()) -> float:
    """f at one point: the coordinates of the mapping x, the rest at a."""
    u = tuple(sorted(x))
    pts = np.array([x[j] for j in u], dtype=np.float64).reshape(1, 1, len(u))
    return float(np.broadcast_to(f.evaluator([u], pts, a.value), (1, 1))[0, 0])


def component(f: BlackBoxIntegrand, u, a: Anchor, x) -> float:
    """f_{u,a} at one point: the coordinates of u from the mapping x, those
    that x lacks at a."""
    u = tuple(sorted(u))
    pts = np.array([x.get(j, a.value) for j in u], dtype=np.float64).reshape(1, 1, len(u))
    return float(anchored_component(f, [u], a, pts)[0, 0])


def pointwise(f: BlackBoxIntegrand, coords):
    """f on (N, len(coords)) points, the other coordinates at 1/2: the
    integrand of one rule on coords, the evaluator's group of K = 1."""
    coords = tuple(coords)

    def g(pts):
        return np.broadcast_to(f.evaluator([coords], pts[None], 0.5), (1, len(pts)))[0]

    return g


def psi_Q_project(f: BlackBoxIntegrand, Q, a: Anchor) -> BlackBoxIntegrand:
    """The projection of f onto the subspaces sampled by an active set Q:
    Psi_Q f = sum over u in closure(Q) of f_{u,a}.

    On a group whose sets all lie in the closure the projection returns the
    very same evaluator call as f, so any algorithm that only looks at such
    points receives bit-identical values from f and its projection.  Other
    groups are evaluated row by row: a row with set s is the sum of f_{u,a}
    over the u in the closure inside s (the others vanish there, as one of
    their coordinates sits at the anchor).
    """
    closure = downward_closure(Q)
    order = sorted(closure, key=lambda s: (len(s), sorted(s)))

    def ev(sets, x, anchor_value):
        if all(frozenset(s) in closure for s in sets):
            return f.evaluator(sets, x, anchor_value)
        anch = Anchor(anchor_value)
        out = np.zeros(x.shape[:2])
        for k, s in enumerate(sets):
            for u in order:
                if u <= frozenset(s):
                    cols = [list(s).index(j) for j in sorted(u)]
                    out[k] += anchored_component(f, [sorted(u)], anch, x[k:k + 1][:, :, cols])[0]
        return out

    return BlackBoxIntegrand(ev)
