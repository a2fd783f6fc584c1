"""Planner arithmetic, plan structure, and the changing-dimension estimator."""

import dataclasses
import functools
import json
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdquad import cdalg, quadrature, scramble
from cdquad.cdalg import (
    CostLedger,
    Plan,
    PlannerConstants,
    PlanningError,
    RuleTemplate,
    cd_estimate,
    cd_estimate_many,
    cost_model,
    epsilon_dimension,
    plan_build,
    plan_cost,
)
from cdquad.decomp import (
    Anchor,
    BlackBoxIntegrand,
    anchored_component,
)
from cdquad.harness import (
    ExperimentConfig,
    bank_from_weights,
    bank_preset,
    eps_grid_for_costs,
    weight_preset,
)
from cdquad.kernels import bernoulli
from cdquad.quadrature import RuleSpec, rule_points_seeds, run_rule_batch
from cdquad.weights import (
    ExplicitWeights,
    FiniteProductWeights,
    ProductWeights,
    Truncation,
    WeightModel,
    disjoint_pair_weights,
    downward_closure,
)
from oracles import coordinate, psi_Q_project

fs = frozenset
MC = RuleTemplate(kind="mc")


class TwoCoordinates(WeightModel):
    """gamma = 1/2 on {1} and {2}, 1/4 on {1, 2}; no descriptor of its own."""

    declared_decay = 3.0
    table = {fs({1}): 0.5, fs({2}): 0.5, fs({1, 2}): 0.25}

    def gamma(self, u):
        return self.table.get(fs(u), 1.0 if not u else 0.0)

    def has_finite_support(self):
        return True

    def support_closure(self):
        return downward_closure(self.table)

    def weighted_power_sum(self, exponent, truncation=Truncation()):
        return sum(g**exponent for g in self.table.values())


def consts(eps, tau=1.0, decay=3.0, k_aa=1 / 12, alpha0=None, L=2.0, c=1.0, C=1.0):
    if alpha0 is None:
        alpha0 = 0.5 * (tau / decay + 1 - 1 / decay)
    return PlannerConstants(eps, tau, decay, k_aa, alpha0, L, c, C)


class TestSampleCountFormula:
    def test_worked_example(self):
        # c=1, L=2, C_hat=2, gamma^alpha0=0.5, tau=1, eps=0.1:
        # n' = floor(1*2*2*0.5 / 0.01) = 200
        cs = PlannerConstants(eps=0.1, tau=1.0, decay=3.0, k_aa=0.25,
                              alpha0=0.5, L=2.0, c=1.0, C=1.6)
        assert cs.C_hat == 2.0
        plan = plan_build(ExplicitWeights({fs({1}): 0.25}), cs, MC)
        assert plan.allocations == {fs(): 1, fs({1}): 200}

    def test_c_hat_floor(self):
        cs = PlannerConstants(eps=0.1, tau=1.0, decay=3.0, k_aa=1.0,
                              alpha0=0.5, L=1.0, c=1.0, C=1.0)
        assert cs.C_hat == 4.0  # 4*k_aa wins over C*(1+k_aa)=2

    def test_alpha0_interval_enforced(self):
        with pytest.raises(ValueError):
            PlannerConstants(eps=0.1, tau=1.0, decay=3.0, k_aa=0.1,
                             alpha0=0.9, L=1.0)

    def test_for_weights_caps_tau(self):
        w = ProductWeights.polynomial(3.0)
        cs = PlannerConstants.for_weights(w, eps=0.1, tau=5.0)
        assert cs.tau == 3.0 - 1 - 0.01

    def test_delta_is_not_a_field(self):
        # for_weights is a classmethod and reads the class constant, so a
        # delta passed to the constructor would be stored and never used
        assert "delta" not in {f.name for f in dataclasses.fields(PlannerConstants)}

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            consts(0.0)

    @pytest.mark.parametrize("eps", [float("nan"), -0.1, float("-inf")])
    def test_eps_must_exceed_zero(self, eps):
        # a NaN accuracy would never prune the planner's depth-first search
        with pytest.raises(ValueError, match="eps must be > 0"):
            consts(eps)
        with pytest.raises(ValueError, match="eps must be > 0"):
            PlannerConstants.for_weights(ProductWeights.polynomial(3.0), eps, 2.5)

    @pytest.mark.parametrize("tau", [float("nan"), 0.0, -1.0, float("-inf")])
    def test_for_weights_tau_must_exceed_zero(self, tau):
        with pytest.raises(ValueError, match="tau must be > 0"):
            PlannerConstants.for_weights(ProductWeights.polynomial(3.0), 0.1, tau)


class TestPlanStructure:
    def test_degenerate_plan(self):
        cs = consts(10.0)
        plan = plan_build(ProductWeights.polynomial(3.0), cs)
        assert plan.allocations == {fs(): 1}
        assert epsilon_dimension(plan) == 0

    def test_downward_closed(self):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.05))
        for u in plan.Q:
            for j in u:
                assert u - {j} in plan.Q

    def test_plr_counts_are_powers(self):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.02))
        for u, n in plan.allocations.items():
            if u:
                assert n & (n - 1) == 0  # power of 2

    def test_monotone_refinement(self):
        w = ProductWeights.polynomial(3.0)
        coarse = plan_build(w, consts(0.1))
        fine = plan_build(w, consts(0.02))
        assert coarse.Q <= fine.Q
        for u, n in coarse.allocations.items():
            assert fine.allocations[u] >= n

    def test_enumeration_matches_direct_formula(self):
        # the pruned DFS must reproduce the closed formula on every subset of
        # a small coordinate block
        from itertools import combinations

        w = ProductWeights.polynomial(3.0)
        cs = consts(0.05)
        plan = plan_build(w, cs)
        for k in range(1, 4):
            for u in combinations(range(1, 9), k):
                if cs.c * cs.L * cs.C_hat**k * w.gamma(fs(u)) ** cs.alpha0 >= cs.eps**2:
                    assert fs(u) in plan.Q

    def test_finite_order_dimension_bound(self):
        # finite-order weights pin d(eps) <= order for every eps
        w = disjoint_pair_weights(a=3.0, count=50)
        for eps in (0.5, 0.1, 0.02):
            plan = plan_build(w, PlannerConstants.for_weights(w, eps, tau=1.0))
            assert epsilon_dimension(plan) <= 2

    def test_epsilon_dimension_monotone(self):
        w = ProductWeights.polynomial(3.0)
        dims = [
            epsilon_dimension(plan_build(w, PlannerConstants.for_weights(w, e, 1.0)))
            for e in (0.5, 0.1, 0.02, 0.005)
        ]
        assert dims == sorted(dims)

    def test_weights_without_enumeration_rejected(self):
        # infinite support that is not a product family: the planner's
        # pruned search does not apply, and there is no table to scan
        class Singletons(WeightModel):
            """gamma = j^-3 on the singletons {j}, 0 on larger sets."""

            declared_decay = 3.0

            def gamma(self, u):
                return 1.0 if not u else float(len(u) == 1) * min(u) ** -3.0

        with pytest.raises(PlanningError, match="no planner enumeration for Singletons"):
            plan_build(Singletons(), consts(0.1))

    def test_plan_validation(self):
        cs = consts(0.1)
        with pytest.raises(ValueError):
            Plan(cs, {}, RuleTemplate())  # no empty set
        with pytest.raises(ValueError):
            Plan(cs, {fs(): 1, fs({1, 2}): 4}, RuleTemplate())  # not closed
        with pytest.raises(ValueError):
            Plan(cs, {fs(): 1, fs({1}): 0}, RuleTemplate())  # n_u < 1

    @pytest.mark.parametrize("alpha", [0, -2])
    def test_template_alpha_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            RuleTemplate(alpha=alpha)

    @pytest.mark.parametrize("b,message", [(0, "prime"), (1, "prime"), (4, "prime"),
                                           (257, "at most 256")])
    def test_template_plr_base_is_a_buildable_prime(self, b, message):
        with pytest.raises(ValueError, match=message):
            RuleTemplate(b=b)
        # Monte Carlo rules have no base to check
        assert RuleTemplate(kind="mc", b=b).b == b

    def test_template_kind_checked_at_construction(self):
        # an unknown kind once passed until cd_estimate built its first rule
        with pytest.raises(ValueError, match="unknown rule kind 'foo'"):
            RuleTemplate(kind="foo")
        with pytest.raises(ValueError, match="unknown rule kind 'foo'"):
            ExperimentConfig(rule="foo")

    def test_descriptor_default_names_the_class(self):
        w = TwoCoordinates()
        plan = plan_build(w, PlannerConstants.for_weights(w, 0.1, 1.0))
        assert plan.weights_descriptor == {"variant": "TwoCoordinates"}
        assert json.loads(plan.to_json())["weights"] == {"variant": "TwoCoordinates"}

    def test_descriptor_error_propagates(self):
        class Broken(TwoCoordinates):
            def descriptor(self):
                raise ValueError("descriptor is broken")

        w = Broken()
        with pytest.raises(ValueError, match="descriptor is broken"):
            plan_build(w, PlannerConstants.for_weights(w, 0.1, 1.0))

    def test_json_round_trip_stable(self):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.05))
        blob = plan.to_json()
        assert blob == plan.to_json()
        data = json.loads(blob)
        allocs = {fs(u): n for u, n in data["allocations"]}
        assert allocs == plan.allocations
        assert data["constants"]["eps"] == 0.05


@st.composite
def product_plans(draw):
    """Plans for product-poly weights with a in [2.2, 5] at a log-uniform eps.

    The eps floor 10^(2.4 - a) keeps every plan below about a thousand
    active sets, so the estimator run stays quick for each example."""
    a = draw(st.floats(2.2, 5.0))
    log_eps = draw(st.floats(2.4 - a, 1.3))
    tpl = RuleTemplate(kind=draw(st.sampled_from(["plr", "mc"])), alpha=draw(st.integers(1, 3)))
    w = ProductWeights.polynomial(a)
    return plan_build(w, PlannerConstants.for_weights(w, 10.0**log_eps, 2.5), tpl)


class TestPlanProperties:
    @settings(max_examples=30, deadline=None)
    @given(product_plans())
    def test_plan_invariants(self, plan):
        alloc = plan.allocations
        assert set(alloc) == downward_closure(alloc)
        assert alloc[fs()] == 1
        if plan.template.kind == "plr":
            b = plan.template.b
            assert all(b ** round(math.log(n, b)) == n for n in alloc.values())
        # the constant bank is integrated exactly and charged the plan's cost
        est, ledger = cd_estimate(bank_preset("constant").integrand(), plan, 0)
        assert est == 1.0
        assert ledger.total == plan_cost(plan, cost_model("linear"))


class TestCost:
    def test_plan_cost_example(self):
        # {empty: 1, {1}: 4} under $(nu) = 1 + nu:
        # 1*2^0*1 + 4*2^1*2 = 17
        plan = Plan(consts(0.1), {fs(): 1, fs({1}): 4}, MC)
        assert plan_cost(plan, cost_model("linear")) == 17.0

    def test_ledger_matches_plan_cost(self):
        w = ProductWeights.polynomial(3.0)
        plan = plan_build(w, consts(0.05), MC)
        f = BlackBoxIntegrand(lambda sets, x, a: 1.0)
        _, ledger = cd_estimate(f, plan, 0)
        assert ledger.total == plan_cost(plan, cost_model("linear"))
        assert set(ledger.per_u) == plan.Q

    def test_cost_models(self):
        assert cost_model("linear")(3) == 4.0
        assert cost_model("power", s=2.0)(3) == 16.0
        assert cost_model("exp", sigma=1.0)(2) == pytest.approx(math.exp(2))
        with pytest.raises(ValueError):
            cost_model("quadratic")

    @pytest.mark.parametrize("name,params,message", [
        ("linear", {"s": 2.0}, "cost preset 'linear' has no option s"),
        ("power", {"sigma": 1.0}, "cost preset 'power' has no option sigma"),
        ("exp", {"sigma": "x"}, "bad value 'x' for option sigma"),
        ("power", {"s": [1]}, "bad value [1] for option s"),
    ])
    def test_cost_model_options_are_checked(self, name, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cost_model(name, **params)

    def test_cost_at_least_one(self):
        from cdquad.cdalg import CostModel

        bad = CostModel("bad", lambda nu: 0.5)
        with pytest.raises(ValueError):
            bad(0)


def pair_integrand():
    def ev(sets, x, a):
        x1, x2 = coordinate(sets, x, 1, a), coordinate(sets, x, 2, a)
        return 1.0 + bernoulli(2, x1) + 0.5 * bernoulli(2, x1) * bernoulli(2, x2)

    return BlackBoxIntegrand(ev)


class TestEstimator:
    def test_constant_exact(self):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.05))
        f = BlackBoxIntegrand(lambda sets, x, a: 3.25)
        for seed in (0, 1, 99):
            est, _ = cd_estimate(f, plan, seed)
            assert est == 3.25

    def test_many_matches_single(self):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.05))
        f = pair_integrand()
        seeds = [0, 7, 123]
        many, _ = cd_estimate_many(f, plan, seeds)
        singles = [cd_estimate(f, plan, s)[0] for s in seeds]
        assert np.array_equal(many, np.array(singles))

    def test_accuracy_tracks_eps(self):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.02))
        f = pair_integrand()
        ests, _ = cd_estimate_many(f, plan, range(50))
        assert abs(np.mean(ests) - 1.0) < 0.02

    def test_seed_matched_projection_invariance(self):
        # the estimate only ever sees the sampled components, so running the
        # plan on f and on its projection onto the plan's closure must agree
        # bit for bit at matched seeds
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.15))
        f = pair_integrand()
        proj = psi_Q_project(f, plan.Q, plan.constants.anchor)
        for seed in (0, 5, 42):
            assert cd_estimate(f, plan, seed)[0] == cd_estimate(proj, plan, seed)[0]

    def test_unbiased_onto_projection(self):
        # E[estimate] equals the integral of the projection, here the part of
        # f supported on the plan's active sets
        w = FiniteProductWeights.polynomial(1, 3.0)  # order-1 cutoff: no {1,2}
        plan = plan_build(w, PlannerConstants.for_weights(w, 0.05, 1.0))
        assert fs({1, 2}) not in plan.Q and fs({1}) in plan.Q
        f = pair_integrand()
        # dropping the anchored {1,2} component removes its integral
        # 0.5 * B2(1/2)^2 = 1/288 from the target
        target = 1.0 - 0.5 * bernoulli(2, 0.5) ** 2
        ests, _ = cd_estimate_many(f, plan, range(1500))
        se = float(np.std(ests, ddof=1) / math.sqrt(len(ests)))
        assert abs(float(np.mean(ests)) - target) < 4 * se + 1e-12

    def test_integrand_failure_wrapped(self):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.1))

        def bad(sets, x, a):
            if x.shape[2]:
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(RuntimeError, match="subset"):
            cd_estimate(BlackBoxIntegrand(bad), plan, 0)


def cd_estimate_per_set(f, plan, master_seeds):
    """The estimator with one draw per active set, in the plan's set order:
    the oracle for the grouped draws of cd_estimate_many."""
    anchor = plan.constants.anchor
    tpl = plan.template
    seeds = np.asarray([int(s) for s in master_seeds], dtype=np.uint64)
    terms = []
    for u, n in sorted(plan.allocations.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        if not u:
            at_anchor = f.evaluator([()], np.empty((1, 1, 0)), anchor.value)
            terms.append(np.full(len(seeds), float(np.reshape(at_anchor, -1)[0])))
            continue
        coords = tuple(sorted(u))
        spec = RuleSpec(tpl.kind, coords, n, seed=0, alpha=tpl.alpha, b=tpl.b)

        def g(pts, coords=coords):
            return anchored_component(f, [coords], anchor, pts[None])[0]

        terms.append(run_rule_batch(spec, g, seeds))
    cols = np.stack(terms, axis=1)
    return np.array([math.fsum(row) for row in cols])


class TestGroupedEstimator:
    """cd_estimate_many draws each (|u|, n) group at once; the sets still get
    exactly the rules they got one by one."""

    @pytest.mark.parametrize("weights,eps", [
        (ProductWeights.polynomial(3.0), 0.3),
        (disjoint_pair_weights(a=3.0, count=50), 0.05),
    ], ids=["product", "pairs"])
    @pytest.mark.parametrize("tpl", [
        RuleTemplate("plr", alpha=1, b=2),
        RuleTemplate("plr", alpha=2, b=2),
        RuleTemplate("plr", alpha=1, b=3),
        RuleTemplate("plr", alpha=2, b=3),
        MC,
    ], ids=lambda t: f"{t.kind}-a{t.alpha}-b{t.b}")
    def test_matches_per_set_oracle(self, weights, eps, tpl):
        plan = plan_build(weights, PlannerConstants.for_weights(weights, eps, 2.5), tpl)
        shapes = {(len(u), n) for u, n in plan.allocations.items()}
        assert len(shapes) < len(plan.allocations)  # some group holds several sets
        f = bank_from_weights(weights).integrand()
        seeds = [0, 3, 2**64 - 1]
        many, _ = cd_estimate_many(f, plan, seeds)
        assert np.array_equal(many, cd_estimate_per_set(f, plan, seeds))

    @pytest.mark.parametrize("chunk_bytes", [None, 200], ids=["whole-groups", "split-groups"])
    @pytest.mark.parametrize("hook", [True, False], ids=["bank", "hookless"])
    def test_group_chunks_match_per_set_oracle(self, monkeypatch, hook, chunk_bytes):
        # |u| up to 5 and several n = 1 groups; at 200 bytes a chunk holds a
        # few small sets, so groups split across chunks and the sets with
        # many points split their seeds
        w = ProductWeights.polynomial(3.0)
        plan = plan_build(w, PlannerConstants.for_weights(w, 0.15, 2.5), RuleTemplate(alpha=2))
        shapes = [(len(u), n) for u, n in plan.allocations.items()]
        assert max(size for size, _ in shapes) == 5 and shapes.count((5, 1)) > 1
        assert sum(n == 1 for _, n in set(shapes)) == 6
        if hook:
            f = bank_from_weights(w, max_index=6, max_order=5).integrand()
        else:
            # prod over j <= 8 of (1 + B2(x_j)/j^2): components of every order
            def ev(sets, x, av):
                total = 1.0
                for j in range(1, 9):
                    total = total * (1.0 + bernoulli(2, coordinate(sets, x, j, av)) / j**2)
                return total

            f = BlackBoxIntegrand(ev)
        seeds = [0, 7, 2**64 - 1]
        expect = cd_estimate_per_set(f, plan, seeds)
        if chunk_bytes is not None:
            monkeypatch.setattr(scramble, "CHUNK_BYTES", chunk_bytes)
        many, _ = cd_estimate_many(f, plan, seeds)
        assert np.array_equal(many, expect)

    @pytest.mark.parametrize("eps,q_size", [
        (4.623151733778193, 10), (1.5660957112813996, 44), (0.4480823641111336, 240),
    ])
    def test_black_box_path_matches_hook(self, eps, q_size):
        # the product-poly a = 3 plans of the benchmark's convergence study:
        # the bank's evaluator through the inclusion-exclusion gives the
        # estimates of its analytic hook
        w = ProductWeights.polynomial(3.0)
        plan = plan_build(w, PlannerConstants.for_weights(w, eps, 2.5), RuleTemplate(alpha=2))
        assert len(plan.Q) == q_size
        f = bank_from_weights(w).integrand()
        seeds = range(20)
        hook, _ = cd_estimate_many(f, plan, seeds)
        black_box, _ = cd_estimate_many(BlackBoxIntegrand(f.evaluator), plan, seeds)
        assert np.allclose(black_box, hook, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("chunk_bytes", [None, 200], ids=["whole-groups", "split-groups"])
    def test_one_anchored_call_per_group_chunk(self, monkeypatch, chunk_bytes):
        # each chunk is drawn by one rule_points_seeds call and integrated by
        # one anchored_component call on the chunk's sets and points
        w = ProductWeights.polynomial(3.0)
        plan = plan_build(w, PlannerConstants.for_weights(w, 0.3, 2.5), RuleTemplate(alpha=2))
        f = bank_from_weights(w).integrand()
        seeds = [1, 2, 3]
        if chunk_bytes is not None:
            monkeypatch.setattr(scramble, "CHUNK_BYTES", chunk_bytes)
        draws, calls = [], []

        def draw(group, index):
            draws.append((list(group.sets), list(index), group.spec.n))
            return rule_points_seeds(group, index)

        def component(g, sets, a, pts):
            calls.append((list(sets), pts.shape))
            return anchored_component(g, sets, a, pts)

        monkeypatch.setattr(quadrature, "rule_points_seeds", draw)
        monkeypatch.setattr(cdalg, "anchored_component", component)
        cd_estimate_many(f, plan, seeds)
        assert [(sets, (len(sets), len(index) * n, len(sets[0]))) for sets, index, n in draws] \
            == calls
        covered = [u for sets, _ in calls for u in sets]
        assert set(covered) == {tuple(sorted(u)) for u in plan.allocations if u}
        groups = {(len(u), n) for u, n in plan.allocations.items() if u}
        if chunk_bytes is None:
            # every group fits one chunk
            assert len(calls) == len(groups) and len(covered) == len(plan.allocations) - 1
        else:
            assert len(calls) > len(groups)

    def test_unbuildable_group_fails_before_any_draw(self, monkeypatch):
        # a plan whose last group has n = 3 points in base 2: cd_estimate_many
        # checks every group before it draws the first
        one, two = frozenset({1}), frozenset({2})
        plan = Plan(consts(0.5), {frozenset(): 1, one: 4, two: 4, one | two: 3},
                    RuleTemplate(alpha=2))
        draws = []
        monkeypatch.setattr(quadrature, "rule_points_seeds",
                            lambda *args: draws.append(args) or rule_points_seeds(*args))
        with pytest.raises(ValueError, match="PLR rules need n = b"):
            cd_estimate_many(pair_integrand(), plan, [0, 1])
        assert draws == []

    @pytest.mark.parametrize("values", [
        lambda sets, x, av: np.zeros(x.shape[1:2]),  # one row for the group
        lambda sets, x, av: np.zeros((len(sets), x.shape[1] - 1)),  # a point short
        lambda sets, x, av: 0.0,  # a scalar
    ], ids=["row", "points", "scalar"])
    def test_hook_of_wrong_shape_fails(self, values):
        plan = plan_build(ProductWeights.polynomial(3.0), consts(0.1))
        f = BlackBoxIntegrand(pair_integrand().evaluator, anchored=values)
        with pytest.raises(ValueError, match="group integrand returned shape"):
            cd_estimate(f, plan, 0)


# --- one enumeration per study ------------------------------------------------


def parent_downward_closure(Q):
    out = {fs()}
    for q in Q:
        items = sorted(q)
        for k in range(1, len(items) + 1):
            out.update(fs(c) for c in combinations(items, k))
    return out


def per_eps_plan(w, cs, template=RuleTemplate()):
    """Oracle: the planner as it ran before plans were filtered from one
    enumeration, a depth-first search or a support-closure scan at each eps
    followed by the downward closure; returns the allocations in the order
    that planner built them."""
    cap = cdalg.MAX_ACTIVE_SETS
    n_prime = {}
    if w.has_finite_support():
        for u in parent_downward_closure(u for u, g in w.table.items() if g > 0):
            lead = cs.c * cs.L * cs.C_hat ** len(u) * w.gamma(u) ** cs.alpha0
            if lead >= cs.eps**2:
                n_prime[fs(u)] = cdalg._floor_tol((lead / cs.eps**2) ** (1 / cs.tau))
    else:
        gamma_seq = w.gamma_seq
        size_cap = min(cdalg.MAX_SET_SIZE, w.order)
        J = Truncation().max_index
        boosts = [cs.C_hat * gamma_seq(j) ** cs.alpha0 for j in range(1, J + 1)]
        suffix = [1.0] * (J + 2)
        for j in range(J, 0, -1):
            suffix[j] = suffix[j + 1] * max(1.0, boosts[j - 1])
        eps2 = cs.eps**2

        def visit(u, lead, next_j):
            if len(n_prime) > cap:
                raise PlanningError("enumeration cap")
            if lead >= eps2 and u:
                n_prime[fs(u)] = cdalg._floor_tol((lead / eps2) ** (1 / cs.tau))
            if len(u) >= size_cap:
                return
            for j in range(next_j, J + 1):
                ext = lead * boosts[j - 1]
                if ext * suffix[j + 1] < eps2:
                    break
                visit(u + (j,), ext, j + 1)

        visit((), cs.c * cs.L * float(w.gamma(fs())) ** cs.alpha0, 1)
    active = parent_downward_closure(n_prime)
    if len(active) > cap:
        raise PlanningError("closure cap")
    alloc = {}
    for u in active:
        n = max(1, n_prime.get(u, 0))
        if u and template.kind == "plr":
            n = cdalg._round_up_power(n, template.b)
        alloc[u] = 1 if not u else n
    return alloc


def oracle_outcome(w, cs, template):
    """The allocations in order: the order of Q, which bias_squared's float
    sums follow for product weights, is that of the allocations."""
    try:
        return list(per_eps_plan(w, cs, template).items())
    except PlanningError:
        return "past the cap"


#: name -> (weights, a cap of active sets that CAP_GRID reaches)
PLANNED_WEIGHTS = {
    "product-poly": (lambda: ProductWeights.polynomial(3.0), 300),
    "product-poly-slow": (lambda: ProductWeights.polynomial(2.2, 0.7), 300),
    "finite-product-poly": (lambda: FiniteProductWeights.polynomial(3, 2.5), 300),
    "disjoint-pairs": (lambda: disjoint_pair_weights(3.0, 50), 60),
    "explicit": (lambda: ExplicitWeights({
        fs({1}): 0.5, fs({2}): 0.4, fs({3}): 0.2, fs({1, 2}): 0.3, fs({1, 3}): 0.15,
        fs({2, 3}): 0.1, fs({1, 2, 3}): 0.05, fs({4}): 0.02}), 6),
}
CAP_GRID = (50.0, 5.0, 2.0, 1.0, 0.5, 0.3, 0.2, 0.12, 0.08, 0.05, 0.03, 0.02, 0.012,
            0.008, 0.005, 0.003, 0.002, 0.001, 1e-4, 1e-6)


class TestEnumeration:
    @pytest.mark.parametrize("tau", [2.5, 1.0])
    @pytest.mark.parametrize("template", [RuleTemplate(alpha=2), MC, RuleTemplate(b=3)],
                             ids=["plr", "mc", "plr-b3"])
    @pytest.mark.parametrize("name", sorted(PLANNED_WEIGHTS))
    def test_plans_equal_per_eps_planner(self, monkeypatch, name, template, tau):
        # a small cap, so that every preset reaches it on the grid
        make, cap = PLANNED_WEIGHTS[name]
        monkeypatch.setattr(cdalg, "MAX_ACTIVE_SETS", cap)
        w, w_oracle = make(), make()
        cs = PlannerConstants.for_weights(w, CAP_GRID[0], tau)
        oracle = [oracle_outcome(w_oracle, dataclasses.replace(cs, eps=eps), template)
                  for eps in CAP_GRID]
        planned = [eps for eps, out in zip(CAP_GRID, oracle) if out != "past the cap"]
        assert planned == list(CAP_GRID[:len(planned)]) and 0 < len(planned) < len(CAP_GRID)
        # every plan within the cap is filtered from one enumeration, made at
        # the smallest of their eps
        built = []
        monkeypatch.setattr(cdalg, "Enumeration",
                            lambda *a, _real=cdalg.Enumeration: built.append(a) or _real(*a))
        for eps, plan, expected in zip(planned, cdalg.plan_grid(w, planned, tau, template=template),
                                       oracle):
            assert list(plan.allocations.items()) == expected, eps
        assert len(built) == 1
        # past the cap: the search finds too many sets, or the closure is
        # too large
        enum = cdalg.Enumeration(w, dataclasses.replace(cs, eps=planned[-1]))
        for eps in CAP_GRID[len(planned):]:
            with pytest.raises(PlanningError, match="hard cap"):
                plan_build(w, dataclasses.replace(cs, eps=eps), template)
            if eps**2 >= enum.low:
                with pytest.raises(PlanningError, match="hard cap"):
                    enum.allocations(eps, template)

    def test_plan_grid_keeps_grid_order(self):
        w = ProductWeights.polynomial(3.0)
        grid = (0.2, 0.05, 0.5, 0.05)
        plans = cdalg.plan_grid(w, grid, 2.5)
        assert [p.constants.eps for p in plans] == list(grid)
        assert plans[1] is plans[3]
        for eps, plan in zip(grid, plans):
            assert plan.constants == PlannerConstants.for_weights(w, eps, 2.5)

    def test_enumeration_serves_its_own_plans(self):
        w = ProductWeights.polynomial(3.0)
        cs = PlannerConstants.for_weights(w, 0.05, 2.5)
        enum = cdalg.Enumeration(w, cs)
        plan = plan_build(w, dataclasses.replace(cs, eps=0.2))
        assert list(enum.allocations(0.2, RuleTemplate()).items()) == list(plan.allocations.items())
        with pytest.raises(ValueError, match="below the enumeration"):
            enum.allocations(0.04, RuleTemplate())
        assert plan_build(w, dataclasses.replace(cs, eps=0.2), enumeration=enum) == plan
        # an enumeration serves only its own weights and eps-free constants
        with pytest.raises(ValueError, match="other weights or planner constants"):
            plan_build(ProductWeights.polynomial(3.0), dataclasses.replace(cs, eps=0.2),
                       enumeration=enum)
        with pytest.raises(ValueError, match="other weights or planner constants"):
            plan_build(w, PlannerConstants.for_weights(w, 0.2, 1.0), enumeration=enum)

    @pytest.mark.parametrize("wspec", [{"preset": "product-poly", "a": 3.0},
                                       {"preset": "disjoint-pairs", "a": 3.0, "count": 50}],
                             ids=["product", "pairs"])
    def test_eps_grid_for_costs_equals_per_eps_bisection(self, wspec):
        # the criterion-5 grids, against the bisection that planned afresh
        # at every step (memoized here, as every step is a function of eps)
        targets, lo, hi = [1e2, 1e4, 1e6], 1e-8, 100.0
        w_oracle = weight_preset(wspec)
        linear = cost_model("linear")

        @functools.lru_cache(maxsize=None)
        def cost_at(eps):
            cs = PlannerConstants.for_weights(w_oracle, eps, 2.5)
            try:
                return math.fsum(n * 2 ** len(u) * linear(len(u))
                                 for u, n in per_eps_plan(w_oracle, cs).items())
            except PlanningError:
                return math.inf

        oracle = []
        for target in targets:
            a, b_ = math.log(lo), math.log(hi)
            if cost_at(math.exp(b_)) >= target:
                oracle.append(math.exp(b_))
                continue
            for _ in range(40):
                mid = (a + b_) / 2
                if cost_at(math.exp(mid)) >= target:
                    a = mid
                else:
                    b_ = mid
            oracle.append(math.exp((a + b_) / 2))
        got = eps_grid_for_costs(weight_preset(wspec), targets, tau=2.5)
        assert list(map(repr, got)) == list(map(repr, oracle))
