"""The changing dimension algorithm.

Plans allocate sample counts n_u to finitely many coordinate subsets from a
target accuracy, weights, and building-block variance assumptions; the
estimator runs one independent randomized rule per active subset on the
anchored component f_{u,a} and charges cost in the unrestricted subspace
sampling model (2^{|u|} anchored evaluations of price $(|u|) per point).
A `plr` rule template takes a prime base b <= 256 (polynomial lattice rules
live over the field F_b and hold their digits as uint8), and the planner
rounds each n_u up to a power of it; `mc` templates ignore the base.

A set's lead lambda_u = c L C_hat^{|u|} gamma_u^{alpha0} does not depend on
eps, and the constants depend on eps only through eps itself, so the sets
are enumerated once (Enumeration) and the plan at any eps at or above the
enumeration's is a filter of it: the sets that earn n_u' >= 1 at eps and
their subsets.  plan_grid plans a whole eps grid from one enumeration at its
smallest eps.  A plan past the hard cap of MAX_ACTIVE_SETS active sets is a
PlanningError, and so is an enumeration that finds more sets than that,
since the plan at its own eps would be past the cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Mapping

from .decomp import Anchor, BlackBoxIntegrand, anchored_component
from .kernels import kernel_diag
from .quadrature import INTERLACED_PLR, MONTE_CARLO, RuleGroup, check_plr_base, run_rule_seeds
from .weights import Truncation, WeightModel, _ProductFamily, downward_closure

CoordSet = frozenset[int]

MAX_ACTIVE_SETS = 100_000
MAX_SET_SIZE = 20


class PlanningError(ValueError):
    pass


# --- cost models -----------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Price $(nu) of one function evaluation with nu non-anchor variables."""

    name: str
    fn: Callable[[int], float]

    def __call__(self, nu: int) -> float:
        v = self.fn(nu)
        if v < 1:
            raise ValueError("cost must satisfy $(nu) >= 1")
        return v


def _preset_options(kind: str, name: str, options: Mapping, types: Mapping[str, Callable],
                    required: tuple[str, ...] = ()) -> dict:
    """The options of a preset, each converted by its type in `types`.

    An option the preset does not take, a missing required one, or a value
    its type rejects is a ValueError that names the preset and the option.
    """
    unknown = sorted(set(options) - set(types))
    if unknown:
        raise ValueError(f"{kind} preset {name!r} has no option {', '.join(unknown)} "
                         f"(it takes {', '.join(types) or 'none'})")
    missing = [key for key in required if key not in options]
    if missing:
        raise ValueError(f"{kind} preset {name!r} needs option {', '.join(missing)}")
    out = {}
    for key, value in options.items():
        try:
            out[key] = types[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{kind} preset {name!r}: bad value {value!r} for "
                             f"option {key} ({exc})") from None
    return out


def cost_model(name: str, **params) -> CostModel:
    if name == "linear":
        _preset_options("cost", name, params, {})
        return CostModel("linear", lambda nu: 1.0 + nu)
    if name == "power":
        s = _preset_options("cost", name, params, {"s": float}).get("s", 1.0)
        return CostModel(f"power(s={s})", lambda nu: (1.0 + nu) ** s)
    if name == "exp":
        sigma = _preset_options("cost", name, params, {"sigma": float}).get("sigma", 1.0)
        return CostModel(f"exp(sigma={sigma})", lambda nu: math.exp(sigma * nu))
    raise ValueError(f"unknown cost model {name!r}")


# --- planner ---------------------------------------------------------------


@dataclass(frozen=True)
class PlannerConstants:
    """Everything the n_u formula needs.

    tau is the building-block variance decay rate; when it is not below
    decay - 1, for_weights replaces it by decay - 1 - delta, mirroring the
    analysis, and puts alpha0 at the midpoint of its admissible interval
    (tau/decay, 1 - 1/decay).
    """

    eps: float
    tau: float
    decay: float
    k_aa: float
    alpha0: float
    L: float
    c: float = 1.0
    C: float = 1.0
    anchor: Anchor = field(default_factory=Anchor)
    #: margin below decay - 1 that for_weights caps tau at
    delta: ClassVar[float] = 0.01

    def __post_init__(self):
        if not self.eps > 0:  # written so that NaN fails too
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not self.tau / self.decay < self.alpha0 < 1 - 1 / self.decay:
            raise ValueError(
                f"alpha0 = {self.alpha0} outside (tau/decay, 1 - 1/decay) = "
                f"({self.tau / self.decay}, {1 - 1 / self.decay})"
            )

    @property
    def C_hat(self) -> float:
        return max(self.C * (1 + self.k_aa), 4 * self.k_aa)

    @classmethod
    def for_weights(cls, w: WeightModel, eps: float, tau: float, chi: int = 1) -> "PlannerConstants":
        if not tau > 0:  # written so that NaN fails too
            raise ValueError(f"tau must be > 0, got {tau}")
        decay = w.decay()
        if decay <= 1:
            raise PlanningError(f"weight decay {decay} must exceed 1")
        if tau >= decay - 1:
            tau = decay - 1 - cls.delta
        if tau <= 0:
            raise PlanningError("effective tau is nonpositive; delta too large")
        k_aa = float(kernel_diag(chi, Anchor().value))
        alpha0 = 0.5 * (tau / decay + 1 - 1 / decay)
        L = w.weighted_power_sum(1 - alpha0, Truncation())
        return cls(eps, tau, decay, k_aa, alpha0, L)


@dataclass(frozen=True)
class RuleTemplate:
    kind: str = INTERLACED_PLR
    alpha: int = 1
    b: int = 2

    def __post_init__(self):
        if self.kind not in (INTERLACED_PLR, MONTE_CARLO):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.alpha < 1:
            raise ValueError(f"interlacing factor alpha must be >= 1, got {self.alpha}")
        if self.kind == INTERLACED_PLR:
            # rounding n_u up to a power of any other base plans rules that
            # cannot be built, and never ends at b = 0 or 1
            check_plr_base(self.b)


@dataclass(frozen=True)
class Plan:
    constants: PlannerConstants
    allocations: dict[CoordSet, int]
    template: RuleTemplate
    weights_descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        alloc = self.allocations
        if alloc.get(frozenset(), 0) != 1:
            raise ValueError("a plan must allocate exactly one point to the empty set")
        for u, n in alloc.items():
            if n < 1:
                raise ValueError("active sets need n_u >= 1")
            for j in u:
                if frozenset(u) - {j} not in alloc:
                    raise ValueError("active sets must be downward closed")

    @property
    def Q(self) -> set[CoordSet]:
        return set(self.allocations)

    def to_json(self) -> str:
        return json.dumps(
            {
                "constants": {
                    "eps": self.constants.eps,
                    "tau": self.constants.tau,
                    "decay": self.constants.decay,
                    "alpha0": self.constants.alpha0,
                    "k_aa": self.constants.k_aa,
                    "L": self.constants.L,
                    "c": self.constants.c,
                    "C": self.constants.C,
                    "anchor": self.constants.anchor.value,
                },
                "template": {"kind": self.template.kind, "alpha": self.template.alpha,
                             "b": self.template.b},
                "weights": self.weights_descriptor,
                "allocations": [[sorted(u), n] for u, n in
                                sorted(self.allocations.items(),
                                       key=lambda kv: (len(kv[0]), sorted(kv[0])))],
            },
            indent=2,
        )


def _floor_tol(v: float) -> int:
    # guard the floor against float dust (e.g. 2/0.01 -> 199.99999999999997)
    return math.floor(v * (1 + 1e-12) + 1e-12)


def _round_up_power(n: int, b: int) -> int:
    p = 1
    while p < n:
        p *= b
    return p


class Enumeration:
    """Every plan of one weight model and one set of eps-free planner
    constants at or above an accuracy, from a single enumeration of the sets
    they can make active.

    A set's lead lambda_u = c L C_hat^{|u|} gamma_u^{alpha0} does not depend
    on eps.  Set u earns n_u' = floor((lambda_u / eps^2)^{1/tau}) >= 1 at
    eps iff its key is >= eps^2; the key is lambda_u, or less where the
    pruned search stops short of u at that eps.  So the plan at eps is a
    filter of the enumeration: the sets of key >= eps^2 and their subsets,
    which get n_u = 1 unless they earn more.  Finite-support weights
    enumerate their whole support closure, so they serve every eps;
    product-type weights are searched down to the eps of the constants.
    An enumeration that finds more than MAX_ACTIVE_SETS sets plans past the
    hard cap at that eps: it is a PlanningError.
    """

    def __init__(self, w: WeightModel, consts: PlannerConstants):
        self.weights, self.consts = w, consts
        self.tau = consts.tau
        if w.has_finite_support():
            self.low = 0.0
            found = _support_keys(w, consts)
        else:
            self.low = consts.eps**2
            found = _search_keys(w, consts, self.low)
        #: the enumerated sets, in the order plan_build always took them
        #: (depth-first, which is lexicographic, or that of the support
        #: closure), with their leads and keys
        self.lead = {u: lead for u, lead, _ in found}
        self.key = {u: key for u, _, key in found}

    def allocations(self, eps: float, template: RuleTemplate) -> dict[CoordSet, int]:
        """The plan at eps, keyed in the order of downward_closure over the
        sets earning n' >= 1 in enumeration order, as plan_build always built
        it: the float sums of bias_squared for product weights run in that
        order.  PlanningError past MAX_ACTIVE_SETS."""
        eps2 = eps**2
        if eps2 < self.low:
            raise ValueError(f"eps = {eps} is below the enumeration's {math.sqrt(self.low)}")
        n_prime = {u: _floor_tol((self.lead[u] / eps2) ** (1 / self.tau))
                   for u, key in self.key.items() if key >= eps2}
        active = downward_closure(n_prime)
        if len(active) > MAX_ACTIVE_SETS:
            raise _past_cap(eps)
        if template.kind == INTERLACED_PLR:
            return {u: _round_up_power(n_prime.get(u, 1), template.b) for u in active}
        return {u: n_prime.get(u, 1) for u in active}


def _past_cap(eps: float) -> PlanningError:
    return PlanningError(f"the plan at eps = {eps} has more than {MAX_ACTIVE_SETS} "
                         f"active sets (the hard cap)")


def _support_keys(w: WeightModel, consts: PlannerConstants) -> list:
    """(u, lambda_u, lambda_u) over the support closure, in its order."""
    found = []
    for u in w.support_closure():
        if u:
            lead = consts.c * consts.L * consts.C_hat ** len(u) * w.gamma(u) ** consts.alpha0
            found.append((u, lead, lead))
    return found


def _search_keys(w: WeightModel, consts: PlannerConstants, eps2: float) -> list:
    """Depth-first search of product-type weights for the sets of key >=
    eps2: (u, lambda_u, key_u) in visiting (lexicographic) order.

    The search tries the children j = 1, 2, ... of a set in turn and stops
    at the first whose bound on every extension falls below eps^2; the
    pruning is justified by the decreasing singleton sequence.  So at a
    larger eps it visits a set iff every bound checked on its way is >=
    eps^2, and a visited set earns n' >= 1 iff its lead is too: the key is
    the smaller of the lead and the least of those bounds.
    """
    if not isinstance(w, _ProductFamily):
        # the boost-product pruning below is only sound for (possibly
        # order-capped) product weights
        raise PlanningError(f"no planner enumeration for {type(w).__name__}")
    gamma_seq = w.gamma_seq
    size_cap = min(MAX_SET_SIZE, w.order)
    J = Truncation().max_index
    boosts = [consts.C_hat * gamma_seq(j) ** consts.alpha0 for j in range(1, J + 1)]
    # suffix[j] = largest factor any extension using coords > j can add
    suffix = [1.0] * (J + 2)
    for j in range(J, 0, -1):
        suffix[j] = suffix[j + 1] * max(1.0, boosts[j - 1])
    found: list = []

    def visit(u: tuple[int, ...], lead: float, reach: float, next_j: int):
        key = min(lead, reach)
        if u and key >= eps2:
            if len(found) == MAX_ACTIVE_SETS:
                raise _past_cap(consts.eps)
            found.append((frozenset(u), lead, key))
        if len(u) >= size_cap:
            return
        for j in range(next_j, J + 1):
            ext = lead * boosts[j - 1]
            bound = ext * suffix[j + 1]
            if bound < eps2:
                break  # boosts decrease with j: no deeper branch can recover
            reach = min(reach, bound)
            visit(u + (j,), ext, reach, j + 1)

    base = consts.c * consts.L * float(w.gamma(frozenset())) ** consts.alpha0
    visit((), base, math.inf, 1)
    return found


def plan_build(
    w: WeightModel,
    consts: PlannerConstants,
    template: RuleTemplate = RuleTemplate(),
    enumeration: Enumeration | None = None,
) -> Plan:
    """Choose the active sets and their sample counts: the filter at
    consts.eps of an Enumeration of w under the same eps-free constants,
    made at consts.eps unless one made at or below it is given.

    n_u' comes straight from the accuracy formula; a set is kept active when
    any superset earns n' >= 1, which makes the family downward closed.  A
    plan past MAX_ACTIVE_SETS active sets is a PlanningError.
    """
    if enumeration is None:
        enumeration = Enumeration(w, consts)
    elif enumeration.weights is not w or replace(enumeration.consts, eps=consts.eps) != consts:
        raise ValueError("the enumeration is of other weights or planner constants")
    alloc = enumeration.allocations(consts.eps, template)
    return Plan(consts, alloc, template, w.descriptor())


def plan_grid(w: WeightModel, eps_grid, tau: float, chi: int = 1,
              template: RuleTemplate = RuleTemplate()) -> list[Plan]:
    """plan_build at every eps of the grid, in grid order, from one
    Enumeration at the smallest eps, with the planner constants computed
    once: L depends only on tau and the decay."""
    consts = PlannerConstants.for_weights(w, min(eps_grid), tau, chi=chi)
    enum = Enumeration(w, consts)
    plans = {eps: plan_build(w, replace(consts, eps=eps), template, enum)
             for eps in sorted(set(eps_grid))}
    return [plans[eps] for eps in eps_grid]


# --- execution -------------------------------------------------------------


@dataclass
class CostLedger:
    dollar: CostModel
    per_u: dict[CoordSet, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return math.fsum(self.per_u.values())

    def charge(self, u: CoordSet, n: int):
        self.per_u[u] = n * 2 ** len(u) * self.dollar(len(u))


def plan_cost(plan: Plan, dollar: CostModel) -> float:
    return math.fsum(
        n * 2 ** len(u) * dollar(len(u)) for u, n in plan.allocations.items()
    )


def epsilon_dimension(plan: Plan) -> int:
    return max(len(u) for u in plan.allocations)


def cd_estimate(
    f: BlackBoxIntegrand,
    plan: Plan,
    master_seed: int,
    dollar: CostModel | None = None,
) -> tuple[float, CostLedger]:
    """Run the plan once: cd_estimate_many with the single seed master_seed."""
    ests, ledger = cd_estimate_many(f, plan, [master_seed], dollar)
    return float(ests[0]), ledger


def cd_estimate_many(
    f: BlackBoxIntegrand,
    plan: Plan,
    master_seeds,
    dollar: CostModel | None = None,
) -> tuple["np.ndarray", CostLedger]:
    """Run the plan under R master seeds: for each, the sum over active u of
    an independent randomized rule applied to the anchored component
    f_{u,a}.  The active sets are grouped by rule shape (|u|, n); each group
    is checked and keyed once (quadrature.RuleGroup.of), draws the R
    randomizations of its sets, indexed by the master seeds, and integrates
    them with one decomp.anchored_component call per chunk of sets (see
    quadrature.run_rule_seeds)."""
    import numpy as np

    dollar = dollar or cost_model("linear")
    ledger = CostLedger(dollar)
    anchor = plan.constants.anchor
    tpl = plan.template
    seeds = np.asarray([int(s) for s in master_seeds], dtype=np.uint64)
    groups: dict[tuple[int, int], list[CoordSet]] = {}
    for u, n in sorted(plan.allocations.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        ledger.charge(u, n)
        groups.setdefault((len(u), n), []).append(u)

    def components(sets, pts):
        return anchored_component(f, sets, anchor, pts)

    # every group's shape is checked and its sets keyed before any is drawn.
    # Every set shares seed 0: its key differs through u, and the master
    # seeds index that key's stream
    rules = [RuleGroup.of(tpl.kind, us, n, seed=0, alpha=tpl.alpha, b=tpl.b)
             for (size, n), us in groups.items() if size]
    # every plan holds the empty set, whose term is f at the anchor: the
    # evaluator (not the hook) on no coordinates
    at_anchor = f.evaluator([()], np.empty((1, 1, 0)), anchor.value)
    terms = [np.full((1, len(seeds)), at_anchor, dtype=np.float64)]
    terms += [run_rule_seeds(group, components, seeds) for group in rules]
    # fsum is exact, so the sum does not depend on the order of the sets; it
    # reads a list of floats faster than numpy scalars, and one column's list
    # at a time keeps the floats of all seeds from being held at once
    cols = np.concatenate(terms, axis=0)
    return np.array([math.fsum(col.tolist()) for col in cols.T]), ledger
