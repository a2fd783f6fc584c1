"""Anchored decomposition, alternating sums, bias, and the r^2 and
projection-norm constants of the analysis (test-local oracles)."""

import itertools
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdquad.decomp import (
    ORDER_CAP,
    Anchor,
    BlackBoxIntegrand,
    _alt_sum_in,
    alt_sum_S,
    anchored_component,
    bias_squared,
)
from cdquad.kernels import bernoulli
from cdquad.weights import (
    ExplicitWeights,
    FiniteProductWeights,
    ProductWeights,
    Truncation,
    _ProductFamily,
    downward_closure,
    esym,
)
from oracles import at, component, coordinate, psi_Q_project

fs = frozenset
A = Anchor(0.5)


def b2_product(coeffs):
    """f(x) = sum_u c_u prod_{j in u} B2(x_j), as a plain black box."""

    def ev(sets, x, anchor_value):
        total = None
        for u, c in coeffs.items():
            term = c
            for j in sorted(u):
                term = term * bernoulli(2, coordinate(sets, x, j, anchor_value))
            total = term if total is None else total + term
        return total

    return BlackBoxIntegrand(ev)


F_PAIR = b2_product({fs(): 1.0, fs({1}): 1.0, fs({2}): 0.7, fs({1, 2}): 0.5})


def recursive_component(f, u, a, x, _cache=None):
    # the defining recursion f_{u,a} = Psi_u f - sum over proper subsets
    u = tuple(sorted(fs(u)))
    total = at(f, {j: x.get(j, a.value) for j in u}, a)
    for k in range(len(u)):
        for v in combinations(u, k):
            total -= recursive_component(f, v, a, x)
    return total


def recorded(f):
    """f as a black box that records the (sets, points) of each evaluator call."""
    calls = []

    def ev(sets, x, av):
        calls.append((list(sets), x.copy()))
        return f.evaluator(sets, x, av)

    return BlackBoxIntegrand(ev), calls


class TestPsiProject:
    """The projections f(x_v; a) that the inclusion-exclusion evaluates: one
    evaluator call per column subset v, whose points are those columns."""

    def test_empty_projection_hits_anchor(self):
        f, calls = recorded(F_PAIR)
        anchored_component(f, [(1, 2)], A, np.full((1, 3, 2), 0.3))
        sets, x = calls[0]
        assert sets == [()] and x.shape == (1, 3, 0)
        assert at(F_PAIR, {}) == at(F_PAIR, {1: A.value, 2: A.value})

    def test_superset_of_active_identity(self):
        pts = np.array([[[0.3, 0.8, 0.1]]])
        f, calls = recorded(F_PAIR)
        anchored_component(f, [(1, 2, 3)], A, pts)
        sets, x = calls[-1]
        assert sets == [(1, 2, 3)] and np.array_equal(x, pts)
        assert at(F_PAIR, {1: 0.3, 2: 0.8, 3: 0.1}) == at(F_PAIR, {1: 0.3, 2: 0.8})

    def test_b1_projected_away(self):
        f = BlackBoxIntegrand(lambda sets, x, a: bernoulli(1, coordinate(sets, x, 1, a)))
        assert at(f, {2: 0.9}) == 0.0
        assert component(f, (2,), A, {2: 0.9}) == 0.0

    def test_missing_coordinate(self):
        with pytest.raises(ValueError, match="group of"):
            anchored_component(F_PAIR, [(1, 2)], A, np.full((1, 3, 1), 0.5))


class TestAnchoredComponent:
    def test_empty_set(self):
        got = anchored_component(F_PAIR, [()], A, np.empty((1, 1, 0)))
        assert got.shape == (1, 1) and got[0, 0] == at(F_PAIR, {})

    def test_b1_example(self):
        f = BlackBoxIntegrand(lambda sets, x, a: bernoulli(1, coordinate(sets, x, 1, a)))
        assert component(f, (), A, {}) == 0.0
        assert component(f, (1,), A, {1: 0.3}) == pytest.approx(bernoulli(1, 0.3), abs=1e-15)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_recursion(self, size):
        rng = np.random.default_rng(size)
        coeffs = {fs(): 0.3}
        for k in range(1, size + 1):
            for u in combinations(range(1, size + 1), k):
                coeffs[fs(u)] = float(rng.uniform(-1, 1))
        f = b2_product(coeffs)
        for _ in range(3):
            x = {j: float(rng.random()) for j in range(1, size + 1)}
            u = tuple(range(1, size + 1))
            assert component(f, u, A, x) == pytest.approx(
                recursive_component(f, u, A, x), abs=1e-12
            )

    def test_completeness(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = {1: float(rng.random()), 2: float(rng.random())}
            total = sum(
                component(F_PAIR, u, A, x)
                for u in [(), (1,), (2,), (1, 2)]
            )
            assert total == pytest.approx(at(F_PAIR, x), abs=1e-12)

    def test_vanishing_projection(self):
        # Psi_w(f_{u,a}) = 0 whenever u is not inside w
        rng = np.random.default_rng(11)
        x = {2: float(rng.random())}
        # project the {1,2}-component onto w = {2}: coordinate 1 sits at a
        val = component(F_PAIR, (1, 2), A, {1: A.value, 2: x[2]})
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_component_vanishes_at_anchor(self):
        for u in [(1,), (2,), (1, 2)]:
            x = {j: A.value for j in u}
            assert component(F_PAIR, u, A, x) == pytest.approx(0, abs=1e-14)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            anchored_component(F_PAIR, [tuple(range(1, 25))], A, np.zeros((1, 0, 24)))

    def test_analytic_fast_path_agrees(self):
        # a bank integrand carries closed-form components; they must equal
        # the generic inclusion-exclusion on the same black box
        from cdquad.harness import bank_preset

        bank = bank_preset("pair")
        fast = bank.integrand()
        slow = BlackBoxIntegrand(fast.evaluator)
        rng = np.random.default_rng(3)
        for u in [(1,), (2,), (1, 2)]:
            x = {j: float(rng.random()) for j in u}
            assert component(fast, u, A, x) == pytest.approx(
                component(slow, u, A, x), abs=1e-12
            )


class TestGroupForm:
    """A group of K sets of one size with (K, N, |u|) points gives the (K, N)
    values of the groups of one set, row by row."""

    @staticmethod
    def integrands():
        from cdquad.harness import bank_from_weights

        fast = bank_from_weights(ProductWeights.polynomial(2.0), max_index=6,
                                 max_order=4).integrand()
        return {"bank": fast, "hookless": BlackBoxIntegrand(fast.evaluator)}

    @pytest.mark.parametrize("name", ["bank", "hookless"])
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_rows_equal_one_set_calls(self, name, size):
        f = self.integrands()[name]
        sets = [u for u in combinations(range(1, 8), size)][:6]
        pts = np.random.default_rng(size).random((len(sets), 9, size))
        got = anchored_component(f, sets, A, pts)
        assert got.shape == (len(sets), 9)
        for k, u in enumerate(sets):
            row = anchored_component(f, [u], A, pts[k:k + 1])
            assert row.shape == (1, 9)
            assert np.array_equal(got[k], row[0])

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_bank_hook_equals_inclusion_exclusion(self, size):
        fs_ = self.integrands()
        sets = [u for u in combinations(range(1, 9), size)][::3]
        pts = np.random.default_rng(10 + size).random((len(sets), 5, size))
        assert np.allclose(anchored_component(fs_["bank"], sets, A, pts),
                           anchored_component(fs_["hookless"], sets, A, pts),
                           rtol=0, atol=1e-13)

    def test_one_set_form_keeps_scalars_and_shapes(self):
        # unsorted sets are sorted; their columns follow the sorted order
        for f in self.integrands().values():
            x = np.array([[[0.3, 0.1], [0.3, 0.2]]])
            got = anchored_component(f, [(2, 1)], A, x)
            assert got.shape == (1, 2)
            assert np.array_equal(got, anchored_component(f, [(1, 2)], A, x))
            # a coordinate at the anchor, where f_{u,a} is 0
            at_anchor = anchored_component(f, [(1, 3)], A, np.array([[[0.3, A.value]]]))
            assert np.allclose(at_anchor, 0.0, rtol=0, atol=1e-15)

    def test_scalar_evaluator_broadcasts(self):
        # a constant evaluator may return a scalar: its component of the
        # empty set is the constant in every row and point, the others 0
        f = BlackBoxIntegrand(lambda sets, x, av: 2.5)
        assert np.array_equal(anchored_component(f, [(), ()], A, np.empty((2, 3, 0))),
                              np.full((2, 3), 2.5))
        assert np.array_equal(anchored_component(f, [(1,), (4,)], A, np.zeros((2, 3, 1))),
                              np.zeros((2, 3)))
        # as may one whose values vary only along the sets, shape (K, 1)
        g = BlackBoxIntegrand(
            lambda sets, x, av: np.array([[float(sum(s))] for s in sets]))
        assert np.array_equal(anchored_component(g, [(1,), (4,)], A, np.zeros((2, 3, 1))),
                              np.repeat([[1.0], [4.0]], 3, axis=1))

    def test_docstring_example(self):
        # the BlackBoxIntegrand docstring's f(x) = sum_j (x_j - 1/2) / j^2:
        # f_{u,a} of one coordinate is (x_j - a) / j^2, of two or more 0
        def evaluator(sets, x, av):
            w = 1.0 / np.asarray(sets, dtype=np.float64)[:, None, :] ** 2
            return ((x - 0.5) * w).sum(axis=2) + (av - 0.5) * (np.pi**2 / 6 - w.sum(axis=2))

        f = BlackBoxIntegrand(evaluator)
        a = Anchor(0.3)
        pts = np.random.default_rng(2).random((2, 4, 1))
        assert np.allclose(anchored_component(f, [(1,), (3,)], a, pts),
                           (pts[:, :, 0] - a.value) / np.array([[1.0], [9.0]]), rtol=0, atol=1e-15)
        assert np.allclose(anchored_component(f, [(1, 2)], a, pts.reshape(1, 4, 2)), 0.0,
                           rtol=0, atol=1e-15)
        assert anchored_component(f, [()], a, np.empty((1, 1, 0)))[0, 0] == pytest.approx(
            (a.value - 0.5) * np.pi**2 / 6, abs=1e-15)

    @pytest.mark.parametrize("sets,shape", [
        ([(1, 2), (3,)], (2, 4, 2)),  # mixed sizes
        ([(1, 2)], (2, 4, 2)),  # more point rows than sets
        ([(1, 2), (3, 4)], (2, 4, 3)),  # points of the wrong width
        ([(1, 2), (3, 4)], (2, 4)),  # no set axis
    ])
    def test_bad_groups_rejected(self, sets, shape):
        for f in self.integrands().values():
            with pytest.raises(ValueError, match="group of"):
                anchored_component(f, sets, A, np.zeros(shape))

    def test_cap_applies_to_groups(self):
        with pytest.raises(ValueError, match="cap"):
            anchored_component(F_PAIR, [tuple(range(1, 25))], A, np.zeros((1, 2, 24)))

    def test_hookless_failure_names_the_set(self):
        def bad(sets, x, a):
            if any(5 in s for s in sets):
                raise ArithmeticError("boom")
            return 1.0

        f = BlackBoxIntegrand(bad)
        # the first call that fails is that of the second columns
        with pytest.raises(RuntimeError, match=r"subsets \[\(2,\), \(5,\)\]") as info:
            anchored_component(f, [(1, 2), (4, 5)], A, np.zeros((2, 3, 2)))
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_evaluator_of_wrong_shape_names_the_sets(self):
        f = BlackBoxIntegrand(lambda sets, x, av: np.zeros((len(sets) + 1, x.shape[1])))
        with pytest.raises(RuntimeError, match=r"subsets \[\(\), \(\)\]") as info:
            anchored_component(f, [(1,), (2,)], A, np.zeros((2, 3, 1)))
        assert isinstance(info.value.__cause__, ValueError)


def all_downward_closed_families(ground):
    # enumerate every downward-closed family of subsets of `ground` that
    # contains the empty set
    subsets = [fs(c) for k in range(len(ground) + 1)
               for c in combinations(ground, k)]
    nonempty = [s for s in subsets if s]
    for picks in itertools.product([0, 1], repeat=len(nonempty)):
        fam = {fs()} | {s for s, p in zip(nonempty, picks) if p}
        if all(s - {j} in fam for s in fam for j in s):
            yield fam


class TestAltSum:
    def test_empty_family_base(self):
        assert alt_sum_S({fs()}, fs({1, 2})) == 1
        assert alt_sum_S({fs()}, fs()) == 1

    def test_pair_example(self):
        assert alt_sum_S({fs(), fs({1})}, fs({1, 2})) == 0

    def test_vanishes_inside_downward_closed_families(self):
        # exhaustive over all downward-closed Q in 2^[4] (ground [3] exhaustive
        # plus spot checks at [4] keeps this under a second)
        for fam in all_downward_closed_families((1, 2, 3)):
            for u in fam:
                if u:
                    assert alt_sum_S(fam, u) == 0
        full4 = downward_closure([fs({1, 2, 3, 4})])
        for u in full4:
            if u:
                assert alt_sum_S(full4, u) == 0

    def test_downward_closure(self):
        assert downward_closure([fs({1, 2})]) == {fs(), fs({1}), fs({2}), fs({1, 2})}

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.frozensets(st.integers(1, 7), max_size=4), max_size=30),
           st.frozensets(st.integers(1, 7), max_size=6))
    def test_subset_lookup_equals_the_scan(self, Q, u):
        # both branches: Q smaller and larger than the 2^|u| subsets of u
        assert _alt_sum_in(Q, u) == alt_sum_S(Q, u)
        big = Q | downward_closure([fs(range(1, 8))])
        assert _alt_sum_in(big, u) == alt_sum_S(big, u)


def bias_bruteforce(Q, w, k_aa, ground):
    total = 0.0
    for k in range(1, len(ground) + 1):
        for u in combinations(ground, k):
            s = alt_sum_S(Q, fs(u))
            total += s * s * w.gamma(fs(u)) * k_aa**k
    return total


class TestBiasSquared:
    def test_full_closure_is_zero(self):
        w = ExplicitWeights({fs({1}): 0.5, fs({2}): 0.5, fs({1, 2}): 0.25})
        Q = downward_closure([fs({1, 2})])
        assert bias_squared(Q, w, 1 / 12) == 0.0

    def test_single_term(self):
        w = ExplicitWeights({fs({1}): 0.5})
        assert bias_squared({fs()}, w, 1 / 12) == pytest.approx(1 / 24, abs=1e-15)

    def test_explicit_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        singles = {fs({j}): 0.9 for j in range(1, 6)}
        table = dict(singles)
        for k in (2, 3):
            for u in combinations(range(1, 6), k):
                table[fs(u)] = float(rng.uniform(0, 0.5))
        w = ExplicitWeights(table)
        Q = downward_closure([fs({1, 2}), fs({3})])
        got = bias_squared(Q, w, 1 / 12)
        assert got == pytest.approx(bias_bruteforce(Q, w, 1 / 12, range(1, 6)),
                                    abs=1e-15)

    @pytest.mark.parametrize("ground_size", [5, 8])
    def test_product_closed_form_matches_bruteforce(self, ground_size):
        w = ProductWeights.polynomial(2.0)
        Q = downward_closure([fs({1, 2}), fs({3})])
        T = Truncation(max_index=ground_size, max_order=ground_size)
        got = bias_squared(Q, w, 1 / 12, T)
        brute = bias_bruteforce(Q, w, 1 / 12, range(1, ground_size + 1))
        assert got == pytest.approx(brute, rel=1e-12)

    def test_finite_product_matches_bruteforce(self):
        w = FiniteProductWeights.polynomial(2, 2.0)
        Q = downward_closure([fs({1, 2})])
        T = Truncation(max_index=7, max_order=7)
        got = bias_squared(Q, w, 1 / 12, T)
        brute = bias_bruteforce(Q, w, 1 / 12, range(1, 8))
        assert got == pytest.approx(brute, rel=1e-12)


def r_squared(v, u, a_diag: float, w, T: Truncation = Truncation()) -> float:
    """r^2_{v,u,a} = sum over u' disjoint from v of gamma_{u union u'} k_aa^{|u'|};
    a_diag is the anchor diagonal k(a, a).  Requires u subseteq v."""
    v, u = frozenset(v), frozenset(u)
    if not u <= v:
        raise ValueError("u must be a subset of v")
    if w.has_finite_support():
        total = 0.0
        for s in sorted(w.support_closure() | {frozenset()}, key=lambda t: (len(t), sorted(t))):
            if s >= u and not (s - u) & v:
                g = w.gamma(s)
                if g > 0:
                    total += g * a_diag ** len(s - u)
        return total
    if not isinstance(w, _ProductFamily):
        raise TypeError(f"no r^2 evaluation path for {type(w).__name__}")
    pool = [w.gamma_seq(j) * a_diag for j in range(1, T.max_index + 1) if j not in v]
    gu = 1.0
    for j in u:
        gu *= w.gamma_seq(j)
    if isinstance(w, ProductWeights):
        # closed form: gamma_u * prod over the pool of (1 + gamma_j k_aa)
        return gu * math.prod(1.0 + g for g in pool)
    es = esym(pool, T.max_order)
    return sum(w.order_factor(len(u) + k) * gu * es[k] for k in range(T.max_order + 1))


def psi_operator_norm(v, a_diag: float, w, T: Truncation = Truncation()) -> float:
    """Operator norm of the anchored projection onto coordinates v:
    max over u subseteq v with gamma_u > 0 of gamma_u^{-1/2} r_{v,u,a}."""
    v = sorted(frozenset(v))
    if len(v) > ORDER_CAP:
        raise ValueError(f"|v| = {len(v)} exceeds the enumeration cap {ORDER_CAP}")
    best = 0.0
    for k in range(len(v) + 1):
        for u in combinations(v, k):
            g = w.gamma(frozenset(u))
            if g <= 0:
                continue
            best = max(best, math.sqrt(r_squared(v, u, a_diag, w, T) / g))
    return best


class TestRSquared:
    def test_support_inside_v(self):
        w = ExplicitWeights({fs({1}): 0.5, fs({2}): 0.4, fs({1, 2}): 0.2})
        assert r_squared((1, 2), (1, 2), 1 / 12, w) == pytest.approx(0.2)

    def test_product_closed_form(self):
        w = ProductWeights.polynomial(2.0)
        T = Truncation(max_index=100)
        got = r_squared((1,), (1,), 1 / 12, w, T)
        expect = 1.0 * math.prod(1 + j**-2.0 / 12 for j in range(2, 101))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_product_matches_enumeration(self):
        w = ProductWeights.polynomial(3.0)
        T = Truncation(max_index=12, max_order=12)
        got = r_squared((1, 2), (1,), 1 / 12, w, T)
        brute = 0.0
        pool = [j for j in range(1, 13) if j not in (1, 2)]
        for k in range(len(pool) + 1):
            for up in combinations(pool, k):
                brute += w.gamma(fs({1}) | fs(up)) * (1 / 12) ** k
        assert got == pytest.approx(brute, rel=1e-10)

    def test_requires_subset(self):
        with pytest.raises(ValueError):
            r_squared((1,), (2,), 1 / 12, ProductWeights.polynomial(2.0))


class TestOperatorNorm:
    def test_support_inside_v(self):
        w = ExplicitWeights({fs({1}): 0.5, fs({2}): 0.4, fs({1, 2}): 0.2})
        assert psi_operator_norm((1, 2), 1 / 12, w) == pytest.approx(1.0)

    def test_cutoff_weights_closed_form(self):
        # order-1 cutoff weights: norm = (1 + sum_{j not in v} gamma_j k_aa)^{1/2}
        w = FiniteProductWeights.polynomial(1, 2.0)
        v = (1, 2)
        k_aa = 1 / 12
        expect = math.sqrt(1 + sum(j**-2.0 * k_aa for j in range(3, 51)))
        got = psi_operator_norm(v, k_aa, w, Truncation(max_index=50))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_explicit_bruteforce(self):
        w = ExplicitWeights({fs({1}): 0.5, fs({2}): 0.4, fs({3}): 0.3,
                             fs({1, 2}): 0.2})
        k_aa = 1 / 12
        v = fs({1, 2})
        best = 0.0
        for k in range(3):
            for u in combinations(sorted(v), k):
                g = w.gamma(fs(u))
                if g <= 0:
                    continue
                r2 = sum(w.gamma(fs(u) | s) * k_aa ** len(s)
                         for s in [fs(), fs({3})]
                         if w.gamma(fs(u) | s) > 0 and not (s & v))
                best = max(best, math.sqrt(r2 / g))
        assert psi_operator_norm(v, k_aa, w) == pytest.approx(best, rel=1e-12)


class TestPsiQProject:
    def test_identity_on_sampled_subspaces(self):
        proj = psi_Q_project(F_PAIR, {fs(), fs({1})}, A)
        # points supported inside the closure agree bit-exactly
        assert at(proj, {1: 0.3}) == at(F_PAIR, {1: 0.3})
        assert at(proj, {}) == at(F_PAIR, {})

    def test_kills_unsampled_components(self):
        proj = psi_Q_project(F_PAIR, {fs(), fs({1})}, A)
        # the {2} and {1,2} components must vanish from the projection
        x = {1: 0.3, 2: 0.9}
        expect = sum(component(F_PAIR, u, A, x) for u in [(), (1,)])
        assert at(proj, x) == pytest.approx(expect, abs=1e-12)
