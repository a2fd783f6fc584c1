"""Test-local oracles that several test modules share."""

from cdquad.decomp import Anchor, BlackBoxIntegrand, anchored_component
from cdquad.weights import downward_closure


def psi_Q_project(f: BlackBoxIntegrand, Q, a: Anchor) -> BlackBoxIntegrand:
    """The projection of f onto the subspaces sampled by an active set Q:
    Psi_Q f = sum over u in closure(Q) of f_{u,a}.

    On assignments whose support lies in the closure the projection returns
    the very same evaluator call as f, so any algorithm that only looks at
    such points receives bit-identical values from f and its projection.
    """
    closure = downward_closure(Q)

    def ev(assignment, anchor_value):
        support = frozenset(assignment)
        if support in closure:
            return f.evaluator(assignment, anchor_value)
        total = None
        anch = Anchor(anchor_value)
        for u in sorted(closure, key=lambda s: (len(s), sorted(s))):
            term = anchored_component(f, u, anch, assignment)
            total = term if total is None else total + term
        return total

    return BlackBoxIntegrand(ev)
