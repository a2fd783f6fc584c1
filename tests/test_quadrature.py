"""Randomized rule execution: determinism, unbiasedness, variance behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdquad.gfpoly import FieldBase
from cdquad.kernels import bernoulli
from cdquad import quadrature, scramble
from cdquad.lattice import plr_points, search_generating_vector
from cdquad.quadrature import (
    INTERLACED_PLR,
    MONTE_CARLO,
    RuleSpec,
    empirical_variance,
    rule_keys,
    rule_points,
    rule_points_seeds,
    run_rule_batch,
    run_rule_seeds,
)


def smooth_pair(pts):
    # integral 0 product of shifted B2 factors; infinitely smooth in each box
    return bernoulli(2, pts[:, 0]) * (1.0 + bernoulli(2, pts[:, 1]))


def per_set(integrand_of):
    """The group integrand that applies integrand_of(u), a pointwise
    integrand, to the points of each set u of a chunk."""
    def group(sets, x):
        return np.stack([np.broadcast_to(np.asarray(integrand_of(u)(p), dtype=np.float64),
                                         p.shape[:1]) for u, p in zip(sets, x)])
    return group


def pointwise(g):
    """The group integrand that applies one pointwise integrand g to every set."""
    return per_set(lambda u: g)


class TestRuleSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RuleSpec("qmc", (1,), 8, 0)

    def test_plr_needs_power(self):
        with pytest.raises(ValueError):
            RuleSpec(INTERLACED_PLR, (1,), 6, 0)

    def test_n_positive(self):
        with pytest.raises(ValueError):
            RuleSpec(MONTE_CARLO, (1,), 0, 0)

    @pytest.mark.parametrize("kind", [MONTE_CARLO, INTERLACED_PLR])
    @pytest.mark.parametrize("alpha", [0, -1])
    def test_alpha_positive(self, kind, alpha):
        with pytest.raises(ValueError, match="alpha"):
            RuleSpec(kind, (1,), 4, 0, alpha=alpha)

    def test_u_sorted_deduped(self):
        assert RuleSpec(MONTE_CARLO, (3, 1, 3), 4, 0).u == (1, 3)

    def test_m_property(self):
        assert RuleSpec(INTERLACED_PLR, (1,), 16, 0).m == 4

    def test_plr_base_past_uint8_digits_rejected(self):
        with pytest.raises(ValueError, match="digit base must be at most 256"):
            RuleSpec(INTERLACED_PLR, (1,), 257, 0, b=257)

    @pytest.mark.parametrize("b,m", [(2, 3), (3, 2)])
    def test_gv_must_match_base_and_size(self, b, m):
        # a vector for another base or size would silently change n
        gv = search_generating_vector(2, m, FieldBase(b), alpha=2)
        with pytest.raises(ValueError):
            RuleSpec(INTERLACED_PLR, (1,), 4, 0, alpha=2, gv=gv)


class TestDeterminism:
    @pytest.mark.parametrize("kind", [MONTE_CARLO, INTERLACED_PLR])
    def test_bit_exact_reruns(self, kind):
        spec = RuleSpec(kind, (1, 2), 16, seed=42, alpha=2 if kind == "plr" else 1)
        assert run_rule_batch(spec, smooth_pair, [0]) == run_rule_batch(spec, smooth_pair, [0])
        assert np.array_equal(rule_points(spec), rule_points(spec))

    @pytest.mark.parametrize("kind", [MONTE_CARLO, INTERLACED_PLR])
    def test_seeds_change_points(self, kind):
        a = RuleSpec(kind, (1,), 16, seed=1)
        b = RuleSpec(kind, (1,), 16, seed=2)
        assert not np.array_equal(rule_points(a), rule_points(b))

    def test_points_in_unit_cube(self):
        for kind in (MONTE_CARLO, INTERLACED_PLR):
            pts = rule_points(RuleSpec(kind, (1, 2, 3), 16, 9, alpha=2))
            assert pts.shape == (16, 3)
            assert np.all((pts >= 0) & (pts < 1))

    def test_seeds_batch_matches_individual(self):
        spec = RuleSpec(INTERLACED_PLR, (1, 2), 32, seed=0, alpha=2)
        seeds = [5, 9, 13]
        batch = run_rule_seeds([spec], pointwise(smooth_pair), seeds)
        single = [run_rule_batch(spec, smooth_pair, [s])[0] for s in seeds]
        assert np.array_equal(batch, np.array([single]))

    def test_points_seeds_rows_bit_identical(self):
        spec = RuleSpec(INTERLACED_PLR, (2, 4), 16, seed=0, alpha=2)
        rows = rule_points_seeds([spec], [3, 7])
        for i, s in enumerate([3, 7]):
            assert np.array_equal(rows[i], rule_points(spec, s))

    def test_keys_depend_on_seed_set_and_index(self):
        base = rule_keys(5, (1, 2), np.arange(4))
        assert base.dtype == np.uint64 and len(set(base.tolist())) == 4
        assert np.array_equal(rule_keys(5, (2, 1), [2]), base[2:3])
        assert not np.isin(rule_keys(6, (1, 2), np.arange(4)), base).any()
        assert not np.isin(rule_keys(5, (1,), np.arange(4)), base).any()


class TestPointSetCache:
    def test_one_point_set_per_vector(self, monkeypatch):
        # every rule and draw on one generating vector shares its point set
        # and stream digits: plr_points runs once for all of them
        calls = []

        def counting(gv):
            calls.append(gv)
            return plr_points(gv)

        quadrature._scrambled_rule.cache_clear()
        monkeypatch.setattr(quadrature, "plr_points", counting)
        try:
            first = rule_points(RuleSpec(INTERLACED_PLR, (1, 2), 8, 3, alpha=2), np.arange(4))
            rule_points(RuleSpec(INTERLACED_PLR, (4, 7), 8, 5, alpha=2), np.arange(2))
            again = rule_points(RuleSpec(INTERLACED_PLR, (1, 2), 8, 3, alpha=2), np.arange(4))
        finally:
            quadrature._scrambled_rule.cache_clear()
        assert len(calls) == 1
        assert np.array_equal(first, again)


class TestDegenerate:
    def test_constant_exact_any_seed(self):
        for kind in (MONTE_CARLO, INTERLACED_PLR):
            for seed in (0, 1, 12345):
                spec = RuleSpec(kind, (1, 2), 8, seed)
                assert run_rule_batch(spec, lambda p: np.full(len(p), 2.5), [0]) == 2.5

    def test_empty_u(self):
        spec = RuleSpec(MONTE_CARLO, (), 4, 0)
        assert rule_points(spec).shape == (4, 0)
        assert run_rule_batch(spec, lambda p: np.ones(len(p)), [0]) == 1.0

    def test_n_one_plr_uniform(self):
        spec = RuleSpec(INTERLACED_PLR, (1, 2), 1, 3, alpha=2)
        pts = rule_points(spec)
        assert pts.shape == (1, 2)
        assert np.all((pts >= 0) & (pts < 1))
        # the n = 1 rule is still duplicable via the batch paths
        many = rule_points(spec, np.arange(400))
        assert abs(np.mean(many) - 0.5) < 0.05


class TestStatistics:
    @pytest.mark.parametrize("kind,alpha", [(MONTE_CARLO, 1), (INTERLACED_PLR, 2)])
    def test_unbiasedness(self, kind, alpha):
        spec = RuleSpec(kind, (1, 2), 16, 0, alpha=alpha)
        est = empirical_variance(spec, smooth_pair, 2000)
        assert abs(est.mean) < 4 * est.stderr_mean + 1e-12

    def test_mc_variance_matches_theory(self):
        # Var[B2(U)] = 1/180, so the n-point MC estimator has variance 1/(180 n)
        spec = RuleSpec(MONTE_CARLO, (1,), 32, 0)
        est = empirical_variance(spec, lambda p: bernoulli(2, p[:, 0]), 3000)
        theory = (1 / 180) / 32
        assert abs(est.variance - theory) < 4 * est.stderr_variance

    def test_plr_beats_mc_on_smooth(self):
        n = 2**10
        g = lambda p: bernoulli(2, p[:, 0]) * bernoulli(2, p[:, 1])
        v_mc = empirical_variance(RuleSpec(MONTE_CARLO, (1, 2), n, 0), g, 300).variance
        v_plr = empirical_variance(
            RuleSpec(INTERLACED_PLR, (1, 2), n, 0, alpha=2), g, 300
        ).variance
        assert v_plr < v_mc / 10

    def test_batch_matches_variance_inputs(self):
        spec = RuleSpec(INTERLACED_PLR, (1,), 16, 0, alpha=2)
        ests = run_rule_batch(spec, lambda p: bernoulli(2, p[:, 0]), np.arange(50))
        ve = empirical_variance(spec, lambda p: bernoulli(2, p[:, 0]), 50)
        assert ve.mean == pytest.approx(float(np.mean(ests)), abs=1e-15)
        assert ve.variance == pytest.approx(float(np.var(ests, ddof=1)), abs=1e-18)
        assert ve.replications == 50

    def test_variance_needs_two_reps(self):
        with pytest.raises(ValueError):
            empirical_variance(RuleSpec(MONTE_CARLO, (1,), 4, 0), lambda p: p[:, 0], 1)


@st.composite
def keyed_specs(draw):
    kind = draw(st.sampled_from([MONTE_CARLO, INTERLACED_PLR]))
    d = draw(st.integers(0, 3))
    n = draw(st.sampled_from([1, 2, 4, 8, 16]))
    alpha = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**64 - 1))
    spec = RuleSpec(kind, tuple(range(1, d + 1)), n, seed, alpha=alpha)
    index = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4, unique=True))
    return spec, np.array(index, dtype=np.uint64)


class TestKeyedPath:
    """One keyed path serves every entry point; a single draw is R = 1."""

    @settings(max_examples=40, deadline=None)
    @given(keyed_specs())
    def test_rows_are_single_draws(self, case):
        spec, index = case
        pts = rule_points(spec, index)
        for i, r in enumerate(index):
            assert np.array_equal(pts[i], rule_points(spec, r))

    @settings(max_examples=40, deadline=None)
    @given(keyed_specs())
    def test_seed_entries_match_index_entries(self, case):
        spec, index = case
        assert np.array_equal(rule_points_seeds([spec], index), rule_points(spec, index))
        g = lambda p: 1.0 + p.sum(axis=1)
        assert np.array_equal(run_rule_seeds([spec], pointwise(g), index)[0],
                              run_rule_batch(spec, g, index))

    @settings(max_examples=40, deadline=None)
    @given(keyed_specs())
    def test_shape_range_and_distinct_rows(self, case):
        spec, index = case
        pts = rule_points(spec, index)
        assert pts.shape == (len(index), spec.n, len(spec.u))
        assert np.all((pts >= 0) & (pts < 1))
        if spec.u:
            rows = {p.tobytes() for p in pts}
            assert len(rows) == len(index)


@st.composite
def rule_groups(draw):
    """K rules of one shape on distinct coordinate sets, and a seed array."""
    kind = draw(st.sampled_from([MONTE_CARLO, INTERLACED_PLR]))
    b = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 3))
    n = b ** draw(st.integers(0, 3))
    alpha = draw(st.integers(1, 3))
    sets = draw(st.lists(st.lists(st.integers(1, 9), min_size=d, max_size=d, unique=True),
                         min_size=1, max_size=4, unique_by=lambda u: tuple(sorted(u))))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4, unique=True))
    specs = [RuleSpec(kind, tuple(u), n, seed=draw(st.integers(0, 2**64 - 1)), alpha=alpha, b=b)
             for u in sets]
    return specs, np.array(seeds, dtype=np.uint64)


class TestGroupDraw:
    """Rules of one shape drawn together equal the rules drawn one by one."""

    @settings(max_examples=40, deadline=None)
    @given(rule_groups())
    def test_group_rows_are_single_draws(self, case):
        specs, seeds = case
        R = len(seeds)
        pts = rule_points_seeds(specs, seeds)
        assert pts.shape == (len(specs) * R, specs[0].n, len(specs[0].u))
        for k, spec in enumerate(specs):
            for r, seed in enumerate(seeds):
                assert np.array_equal(pts[k * R + r], rule_points(spec, seed))
        gs = [lambda p, w=k: w + p.sum(axis=1) * (1.0 + p[:, 0]) for k in range(len(specs))]
        by_set = {spec.u: g for spec, g in zip(specs, gs)}
        ests = run_rule_seeds(specs, per_set(by_set.get), seeds)
        assert ests.shape == (len(specs), R)
        for k, spec in enumerate(specs):
            assert np.array_equal(ests[k], run_rule_batch(spec, gs[k], seeds))

    @pytest.mark.parametrize("other", [
        RuleSpec(MONTE_CARLO, (3, 4), 8, 0, alpha=2),
        RuleSpec(INTERLACED_PLR, (3, 4), 16, 0, alpha=2),
        RuleSpec(INTERLACED_PLR, (3,), 8, 0, alpha=2),
        RuleSpec(INTERLACED_PLR, (3, 4), 8, 0, alpha=1),
        RuleSpec(INTERLACED_PLR, (3, 4), 9, 0, alpha=2, b=3),
        RuleSpec(INTERLACED_PLR, (3, 4), 8, 0, alpha=2,
                 gv=search_generating_vector(4, 3, FieldBase(2), alpha=1)),
    ])
    def test_mixed_shapes_rejected(self, other):
        spec = RuleSpec(INTERLACED_PLR, (1, 2), 8, 0, alpha=2)
        with pytest.raises(ValueError, match="share"):
            rule_points_seeds([spec, other], [0, 1])
        with pytest.raises(ValueError, match="share"):
            run_rule_seeds([spec, other], pointwise(smooth_pair), [0, 1])

    def test_group_shapes_checked_once(self, monkeypatch):
        # a group's shapes are checked where it enters, once per set, and
        # not again for each of its chunks
        specs = [RuleSpec(INTERLACED_PLR, (k, k + 1), 8, 0, alpha=2) for k in (1, 3, 5)]
        seeds = np.arange(3, dtype=np.uint64)
        expect = run_rule_seeds(specs, pointwise(smooth_pair), seeds)
        monkeypatch.setattr(scramble, "CHUNK_BYTES", 1)  # one point set per chunk
        shaped, draws = [], []
        monkeypatch.setattr(quadrature, "_shape", counted(quadrature._shape, shaped))
        monkeypatch.setattr(quadrature, "rule_points_seeds",
                            counted(quadrature.rule_points_seeds, draws))
        assert np.array_equal(run_rule_seeds(specs, pointwise(smooth_pair), seeds), expect)
        assert (len(shaped), len(draws)) == (3, 9)
        rule_points_seeds(specs, seeds)
        assert len(shaped) == 6

    @pytest.mark.parametrize("values", [
        lambda sets, x: x[:-1, :, 0],  # a row short
        lambda sets, x: x[:, :-1, 0],  # a point short
        lambda sets, x: x[..., 0].reshape(-1),  # flat
        lambda sets, x: x[..., 0].T,  # transposed
        lambda sets, x: 2.5,  # a scalar
    ], ids=["rows", "points", "flat", "transposed", "scalar"])
    def test_one_row_per_rule(self, values):
        # the group integrand returns (K, r*n) values, one row per rule; any
        # other shape is an error, not a broadcast
        specs = [RuleSpec(MONTE_CARLO, (1,), 4, 0), RuleSpec(MONTE_CARLO, (2,), 4, 0)]
        expected = r"group integrand returned shape .* expected \(2, 12\)"
        with pytest.raises(ValueError, match=expected):
            run_rule_seeds(specs, values, [0, 1, 2])

    def test_group_integrand_sees_sets_and_points(self):
        # one call per chunk: the chunk's coordinate tuples, and set k's point
        # sets stacked in seed order in row k
        specs = [RuleSpec(INTERLACED_PLR, u, 4, 0, alpha=2) for u in [(1, 3), (2, 5), (4, 6)]]
        seeds = [7, 1]
        calls = []

        def g(sets, x):
            calls.append((list(sets), x.copy()))
            return x.sum(axis=2)

        ests = run_rule_seeds(specs, g, seeds)
        [(sets, x)] = calls
        assert sets == [(1, 3), (2, 5), (4, 6)]
        pts = rule_points_seeds(specs, seeds)
        assert np.array_equal(x, pts.reshape(3, 2 * 4, 2))
        assert np.array_equal(ests, pts.sum(axis=2).mean(axis=1).reshape(3, 2))


def whole_means(spec, g, pts):
    """The definition of the estimates: g on all R*n points of an (R, n, |u|)
    draw at once, then the mean of each row."""
    R = len(pts)
    vals = np.asarray(g(pts.reshape(R * spec.n, len(spec.u))), dtype=np.float64)
    return np.broadcast_to(vals, (R * spec.n,)).reshape(R, spec.n).mean(axis=1)


def counted(fn, calls):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


STREAMED = [
    RuleSpec(INTERLACED_PLR, (1, 2), 8, 3, alpha=2),
    RuleSpec(INTERLACED_PLR, (2, 5), 9, 3, alpha=2, b=3),
    RuleSpec(MONTE_CARLO, (1, 2), 8, 3),
    RuleSpec(INTERLACED_PLR, (1, 2), 1, 3, alpha=2),  # n = 1
    RuleSpec(INTERLACED_PLR, (), 4, 3),  # |u| = 0
]
INTEGRANDS = {
    "pointwise": lambda p: np.exp(p).prod(axis=1) + np.sin(7.0 * p).sum(axis=1),
    "scalar": lambda p: 2.5,
}


class TestStreaming:
    """The estimators draw, integrate and reduce one chunk at a time; their
    values equal the whole draw's bit for bit, whatever the chunk budget."""

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    @pytest.mark.parametrize("spec", STREAMED, ids=lambda s: f"{s.kind}-b{s.b}-n{s.n}-d{len(s.u)}")
    def test_one_key_per_chunk_equals_whole_draw(self, monkeypatch, spec, name):
        g = INTEGRANDS[name]
        reps, seeds = np.arange(7), np.array([11, 2**63 + 5, 3], dtype=np.uint64)
        specs = [spec] + [RuleSpec(spec.kind, tuple(j + 10 * k for j in spec.u), spec.n, k,
                                   alpha=spec.alpha, b=spec.b) for k in (1, 2)]
        batch = whole_means(spec, g, rule_points(spec, reps))
        pts = rule_points_seeds(specs, seeds)
        group = np.stack([whole_means(s, g, pts[3 * k:3 * k + 3]) for k, s in enumerate(specs)])
        ev = empirical_variance(spec, g, 7)
        monkeypatch.setattr(scramble, "CHUNK_BYTES", 1)
        assert np.array_equal(run_rule_batch(spec, g, reps), batch)
        assert np.array_equal(run_rule_seeds(specs, pointwise(g), seeds), group)
        assert empirical_variance(spec, g, 7) == ev

    @pytest.mark.parametrize("sets_per_chunk,sizes", [(3, [3]), (2, [2, 1]), (1, [1, 1, 1])])
    def test_sets_chunked_first(self, monkeypatch, sets_per_chunk, sizes):
        # K = 3 sets of R = 4 point sets of 8 two-dimensional points, 512
        # bytes each: sets share a chunk while they fit, a set that fits is
        # drawn with all its seeds, and each chunk is integrated once
        R, row_bytes = 4, 8 * 8 * 2
        specs = [RuleSpec(INTERLACED_PLR, (k, k + 1), 8, 0, alpha=2) for k in (1, 3, 5)]
        seeds = np.arange(R, dtype=np.uint64)
        expect = run_rule_seeds(specs, pointwise(smooth_pair), seeds)
        monkeypatch.setattr(scramble, "CHUNK_BYTES", sets_per_chunk * R * row_bytes)
        draws, evals = [], []
        monkeypatch.setattr(quadrature, "rule_points_seeds",
                            counted(quadrature.rule_points_seeds, draws))
        got = run_rule_seeds(specs, counted(pointwise(smooth_pair), evals), seeds)
        assert np.array_equal(got, expect)
        assert [(len(s), list(i)) for s, i in draws] == [(size, [0, 1, 2, 3]) for size in sizes]
        assert [x.shape for _, x in evals] == [(size, R * 8, 2) for size in sizes]

    def test_overflowing_set_splits_its_seeds(self, monkeypatch):
        R, row_bytes = 4, 8 * 8 * 2
        specs = [RuleSpec(MONTE_CARLO, (k, k + 1), 8, 0) for k in (1, 3)]
        seeds = np.arange(R, dtype=np.uint64)
        expect = run_rule_seeds(specs, pointwise(smooth_pair), seeds)
        # three point sets fit the budget, so each set draws seeds 0-2 then 3
        monkeypatch.setattr(scramble, "CHUNK_BYTES", 3 * row_bytes + 1)
        draws, evals = [], []
        monkeypatch.setattr(quadrature, "rule_points_seeds",
                            counted(quadrature.rule_points_seeds, draws))
        got = run_rule_seeds(specs, counted(pointwise(smooth_pair), evals), seeds)
        assert np.array_equal(got, expect)
        assert [(len(s), list(i)) for s, i in draws] == [(1, [0, 1, 2]), (1, [3])] * 2
        assert [x.shape for _, x in evals] == [(1, 3 * 8, 2), (1, 8, 2)] * 2

    def test_key_and_vector_once_per_set(self, monkeypatch):
        # one point set per chunk: each set still derives its blake2b key and
        # looks up its default vector once, not once per chunk
        seeds = np.arange(3, dtype=np.uint64)
        expect = run_rule_seeds([RuleSpec(INTERLACED_PLR, (k, k + 1), 8, 0, alpha=2)
                                 for k in (1, 3, 5)], pointwise(smooth_pair), seeds)
        monkeypatch.setattr(scramble, "CHUNK_BYTES", 1)
        derived, looked_up = [], []
        monkeypatch.setattr(quadrature, "derive_seed", counted(quadrature.derive_seed, derived))
        monkeypatch.setattr(quadrature, "default_generating_vector",
                            counted(quadrature.default_generating_vector, looked_up))
        specs = [RuleSpec(INTERLACED_PLR, (k, k + 1), 8, 0, alpha=2) for k in (1, 3, 5)]
        assert np.array_equal(run_rule_seeds(specs, pointwise(smooth_pair), seeds), expect)
        assert (len(derived), len(looked_up)) == (3, 3)
        run_rule_batch(RuleSpec(INTERLACED_PLR, (1, 2), 8, 4, alpha=2), smooth_pair, seeds)
        assert (len(derived), len(looked_up)) == (4, 4)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.tuples(st.just(MONTE_CARLO), st.integers(0, 15), st.integers(1, 5)),
                     st.tuples(st.just(INTERLACED_PLR), st.integers(1, 7), st.integers(1, 2))),
           st.integers(1, 3), st.integers(1, 12))
    @example((MONTE_CARLO, 15, 5), 2, 3)  # one point set alone exceeds the budget
    @example((MONTE_CARLO, 12, 5), 1, 12)  # a set splits its seeds
    @example((MONTE_CARLO, 11, 3), 3, 12)  # one set per chunk
    def test_integrand_sees_at_most_a_chunk(self, shape, K, R):
        # at the module's budget, no integrand call gets more than
        # CHUNK_BYTES of points, unless they are a single point set that
        # alone exceeds it; every point set is integrated once
        kind, m, d = shape
        n, budget = 2**m, scramble.CHUNK_BYTES
        specs = [RuleSpec(kind, tuple(range(k * d, k * d + d)), n, 0, alpha=2) for k in range(K)]
        seen = []

        def group(sets, x):
            seen.append(x.shape)
            return np.zeros(x.shape[:2])

        def single(x):
            seen.append((1,) + x.shape)
            return np.zeros(len(x))

        for run, count in ((lambda: run_rule_seeds(specs, group, np.arange(R)), K),
                           (lambda: run_rule_batch(specs[0], single, np.arange(R)), 1)):
            seen.clear()
            run()
            for sets, points, dim in seen:
                assert 8 * sets * points * dim <= budget or (sets, points) == (1, n)
            assert sum(sets * points for sets, points, _ in seen) == count * R * n

    def test_batch_draws_once_per_chunk(self, monkeypatch):
        spec = RuleSpec(INTERLACED_PLR, (1, 2), 16, 0, alpha=2)
        expect = run_rule_batch(spec, smooth_pair, np.arange(10))
        monkeypatch.setattr(scramble, "CHUNK_BYTES", 4 * 8 * 16 * 2)
        draws = []
        monkeypatch.setattr(quadrature, "rule_points", counted(quadrature.rule_points, draws))
        assert np.array_equal(run_rule_batch(spec, smooth_pair, np.arange(10)), expect)
        assert [list(index) for _, index in draws] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
