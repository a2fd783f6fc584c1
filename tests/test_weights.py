"""Weight families, derived scalars, and structural predicates."""

import math
import warnings
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdquad.weights import (
    ExplicitWeights,
    FiniteIntersectionWeights,
    FiniteProductWeights,
    ProductWeights,
    Truncation,
    disjoint_pair_weights,
    downward_closure,
    intersection_degree,
)

fs = frozenset


class TestGamma:
    def test_product_formula(self):
        w = ProductWeights.polynomial(2.0)
        assert w.gamma(fs({1, 2})) == pytest.approx(1 / 4, abs=1e-15)
        assert w.gamma(fs({2, 3})) == pytest.approx(1 / 36, rel=1e-12)

    def test_empty_set_is_one(self):
        models = [
            ProductWeights.polynomial(3.0),
            FiniteProductWeights.polynomial(2, 3.0),
            ExplicitWeights({fs({1}): 0.5}),
            disjoint_pair_weights(3.0, 4),
        ]
        for w in models:
            assert w.gamma(fs()) == 1.0

    def test_finite_product_order_cutoff(self):
        w = FiniteProductWeights.polynomial(2, 2.0)
        assert w.gamma(fs({1, 2})) > 0
        assert w.gamma(fs({1, 2, 3})) == 0.0


class TestDecay:
    def test_product_polynomial(self):
        assert ProductWeights.polynomial(3.0).decay() == 3.0

    def test_explicit_finite(self):
        assert ExplicitWeights({fs({1}): 0.5}).decay() == math.inf

    def test_disjoint_pairs_declares(self):
        assert disjoint_pair_weights(3.0, 10).decay() == 3.0

    def test_undeclared_decay_raises(self):
        w = ProductWeights(lambda j: j**-2.0)
        with pytest.raises(ValueError, match="declare one"):
            w.decay()


class TestWeightedPowerSum:
    def test_explicit_single(self):
        w = ExplicitWeights({fs({1}): 0.5})
        assert w.weighted_power_sum(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_euler_product_identity(self):
        # sum over u of prod j^-2 = prod(1 + j^-2) - 1 = sinh(pi)/pi - 1
        w = ProductWeights.polynomial(2.0)
        got = w.weighted_power_sum(1.0, Truncation(max_index=100_000))
        assert got == pytest.approx(math.sinh(math.pi) / math.pi - 1, rel=1e-4)

    def test_matches_bruteforce_enumeration(self):
        w = ProductWeights.polynomial(4.0)
        e = 0.5
        brute = 0.0
        for k in range(1, 5):
            for u in combinations(range(1, 13), k):
                brute += w.gamma(fs(u)) ** e
        got = w.weighted_power_sum(e, Truncation(max_index=12, max_order=4))
        assert got == pytest.approx(brute, rel=1e-9)

    def test_finite_product_sum(self):
        w = FiniteProductWeights.polynomial(2, 3.0)
        brute = sum(
            w.gamma(fs(u)) for k in (1, 2) for u in combinations(range(1, 31), k)
        )
        got = w.weighted_power_sum(1.0, Truncation(max_index=30, max_order=2))
        assert got == pytest.approx(brute, rel=1e-9)


class TestDivergenceWarning:
    def test_polynomial_at_or_below_one(self):
        # sum_j (j^-2)^0.5 is the harmonic series
        with pytest.warns(RuntimeWarning, match="divergent"):
            ProductWeights.polynomial(2.0).weighted_power_sum(0.5)

    def test_unsettled_partial_sums(self):
        # a plain sequence: 1/j decays locally like j^-1, so at exponent 1
        # the partial sums grow like log(max_index)
        w = ProductWeights(lambda j: 1.0 / j)
        with pytest.warns(RuntimeWarning, match="divergent"):
            w.weighted_power_sum(1.0)

    @pytest.mark.parametrize("seq,exponent,declared", [
        (lambda j: j**-3.0, 1.0, None), (lambda j: j**-3.0, 0.5, 3.0), (lambda j: 0.0, 1.0, None)],
        ids=["cubic-e1", "cubic-e0.5", "zero"])
    def test_convergent_plain_sequence_is_silent(self, seq, exponent, declared):
        # j^-3 given as a plain sequence decays locally like j^-3, so the sum
        # converges at a * e = 3 and 1.5: its tail past max_index / 2 is not
        # a sign of divergence.  A zero sequence sums to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ProductWeights(seq, declared_decay=declared).weighted_power_sum(exponent)

    def test_planner_weights_do_not_warn(self):
        # product-poly,a=3 at tau 2.5: for_weights sums at exponent
        # 1 - alpha0 = 0.335, just above 1/a
        from cdquad.cdalg import PlannerConstants

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PlannerConstants.for_weights(ProductWeights.polynomial(3.0), 0.1, 2.5)


@st.composite
def product_family(draw):
    """(weights, Gamma, gamma_j) for one of the two product-type classes,
    with Gamma_k the family's order factor by its definition."""
    a = draw(st.floats(2.2, 4.0))
    c = draw(st.floats(0.1, 1.0))
    if draw(st.sampled_from(["product", "finite-product"])) == "product":
        w, Gamma = ProductWeights.polynomial(a, c), lambda k: 1.0
    else:
        order = draw(st.integers(1, 4))
        w, Gamma = FiniteProductWeights.polynomial(order, a, c), lambda k: float(k <= order)
    return w, Gamma, lambda j: c * j ** (-a)


class TestProductFamily:
    """gamma_u = Gamma_{|u|} prod_{j in u} gamma_j for every product-type class."""

    @settings(max_examples=60, deadline=None)
    @given(product_family(), st.lists(st.integers(1, 10), min_size=5, max_size=5, unique=True))
    def test_gamma_is_order_factor_times_product(self, family, coords):
        w, Gamma, gj = family
        for size in range(len(coords) + 1):
            u = frozenset(coords[:size])
            expect = Gamma(size)
            for j in u:
                expect *= gj(j)
            assert w.gamma(u) == expect

    @settings(max_examples=60, deadline=None)
    @given(product_family(), st.integers(1, 8), st.integers(1, 5), st.floats(0.5, 1.0))
    def test_power_sum_matches_enumeration(self, family, max_index, max_order, e):
        w, Gamma, gj = family
        brute = math.fsum(
            (Gamma(k) * math.prod(gj(j) for j in u)) ** e
            for k in range(1, max_order + 1)
            for u in combinations(range(1, max_index + 1), k)
        )
        got = w.weighted_power_sum(e, Truncation(max_index, max_order))
        assert got == pytest.approx(brute, rel=1e-12, abs=0.0)


class TestSupportStructure:
    def test_support_closure(self):
        w = ExplicitWeights({fs({1}): 0.5, fs({2, 3}): 0.25, fs({2}): 0.5, fs({3}): 0.5})
        assert w.support_closure() == {fs(), fs({1}), fs({2}), fs({3}), fs({2, 3})}

    def test_infinite_support_flag(self):
        assert not ProductWeights.polynomial(2.0).has_finite_support()
        assert ExplicitWeights({fs({1}): 1.0}).has_finite_support()

    def test_intersection_degree(self):
        support = {fs({1, 2}): 1.0, fs({3, 4}): 0.5, fs({1}): 1.0, fs({2}): 1.0,
                   fs({3}): 1.0, fs({4}): 1.0}
        rho = intersection_degree(support)
        # pairs {1,2} and {3,4} are disjoint: each set meets itself and its
        # two singletons
        assert rho == 2

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.frozensets(st.integers(1, 12), max_size=5),
                           st.sampled_from([0.0, 0.25, 1.0]), max_size=40))
    def test_intersection_degree_counts_all_pairs(self, support):
        # oracle: the all-pairs count the coordinate index replaced
        pos = [u for u, g in support.items() if g > 0 and u]
        worst = max((sum(1 for v in pos if u & v) for u in pos), default=0)
        assert intersection_degree(support) == max(0, worst - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(1, 12), max_size=6), max_size=40))
    def test_downward_closure_keeps_its_order(self, Q):
        # oracle: the closure that also expanded sets already in it; plans
        # are keyed in this order, and bias_squared sums in it
        out = {fs()}
        for q in Q:
            items = sorted(q)
            for k in range(1, len(items) + 1):
                out.update(fs(c) for c in combinations(items, k))
        assert list(downward_closure(Q)) == list(out)

    def test_support_closure_built_once(self):
        w = disjoint_pair_weights(3.0, 5)
        assert w.support_closure() is w.support_closure()

    def test_disjoint_pairs_structure(self):
        w = disjoint_pair_weights(3.0, 5)
        assert w.gamma(fs({1, 2})) == 1.0
        assert w.gamma(fs({3, 4})) == pytest.approx(2.0**-3)
        assert w.gamma(fs({1, 3})) == 0.0
        assert w.rho == 2

    def test_intersection_bound_enforced(self):
        bad = {fs({1, 2}): 1.0, fs({1, 3}): 1.0, fs({1, 4}): 1.0,
               fs({1}): 1.0, fs({2}): 1.0, fs({3}): 1.0, fs({4}): 1.0}
        with pytest.raises(ValueError):
            FiniteIntersectionWeights(bad, rho=1)


class TestValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExplicitWeights({fs({1}): -0.5})

    def test_monotone_positivity_enforced(self):
        # {1,2} positive but {1} absent (implied zero) violates (A6)
        with pytest.raises(ValueError):
            ExplicitWeights({fs({1, 2}): 0.5})

    def test_product_requires_decreasing(self):
        with pytest.raises(ValueError):
            ProductWeights(gamma_seq=lambda j: float(j))
