"""Owen scrambling, digit interlacing, and the randomized rule generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdquad.gfpoly import FieldBase, poly_from_int
from cdquad.lattice import GeneratingVector, irreducible_modulus, plr_points
from cdquad.prf import counters_uniform, derive_seed, mix64_array
from cdquad.scramble import (
    ScrambledRule,
    digits_to_floats,
    float_digit_cap,
    interlace_digit_matrices,
    numerators_to_digits,
    scramble_digit_matrix,
)


_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """The splitmix64 finalizer on one Python int: the bit-exact oracle for
    the vectorized mix64_array."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def interlace_integers(numerators, b, m):
    """Exact interlace of alpha m-digit numerators into one alpha*m-digit
    integer numerator (Python int; bit-exact oracle)."""
    mats = np.stack([numerators_to_digits(np.asarray([v], np.uint64), b, m)[0]
                     for v in numerators])
    out = 0
    for d in interlace_digit_matrices(mats):
        out = out * b + int(d)
    return out


def small_net(b=2, m=3, s=2):
    base = FieldBase(b)
    p = irreducible_modulus(b, m)
    q = tuple(poly_from_int(e, base) for e in ([1, 5] if b == 2 else [1, 2])[:s])
    return plr_points(GeneratingVector(base, m, p, q)).coords


class TestDigitPlumbing:
    def test_numerators_to_digits_round_trip(self):
        for b, m in [(2, 5), (3, 4)]:
            coords = np.arange(b**m, dtype=np.uint64)
            digs = numerators_to_digits(coords, b, m)
            back = np.zeros(len(coords), dtype=np.uint64)
            for t in range(m):
                back = back * b + digs[:, t]
            assert (back == coords).all()

    def test_digits_to_floats(self):
        digs = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert np.allclose(digits_to_floats(digs, 2), [0.25, 0.75])

    def test_float_digit_cap(self):
        assert float_digit_cap(2) == 53
        assert float_digit_cap(3) == 33


class TestInterlace:
    def test_alpha1_identity(self):
        digs = numerators_to_digits(np.arange(8, dtype=np.uint64), 2, 3)
        assert (interlace_digit_matrices(digs[None]) == digs).all()

    def test_hand_example(self):
        # alpha=2, b=2, inputs (1/4, 1/2) = (0.01, 0.10) -> 0.0110 = 3/8
        assert interlace_integers([1, 2], 2, 2) == 6  # 0110 as a 4-digit numerator
        s1 = numerators_to_digits(np.array([1], np.uint64), 2, 2)
        s2 = numerators_to_digits(np.array([2], np.uint64), 2, 2)
        out = interlace_digit_matrices(np.stack([s1, s2]))
        assert digits_to_floats(out, 2)[0] == 3 / 8

    def test_zero(self):
        assert interlace_integers([0, 0], 2, 3) == 0

    def test_positions(self):
        # output digit at position r + (d-1) alpha is digit d of stream r
        alpha, prec = 3, 4
        streams = np.arange(alpha * prec, dtype=np.uint8).reshape(alpha, 1, prec)
        out = interlace_digit_matrices(streams)[0]
        for r in range(alpha):
            for d in range(prec):
                assert out[r + d * alpha] == streams[r, 0, d]


class TestScrambleDigitMatrix:
    def test_reproducible(self):
        digs = numerators_to_digits(np.arange(8, dtype=np.uint64), 2, 3)
        a = scramble_digit_matrix(digs, 2, 12345, 8)
        b = scramble_digit_matrix(digs, 2, 12345, 8)
        assert (a == b).all()
        c = scramble_digit_matrix(digs, 2, 54321, 8)
        assert (a != c).any()

    def test_prefix_property(self):
        # points sharing t leading digits share t scrambled leading digits,
        # and differ at digit t+1 when the originals differ there
        digs = numerators_to_digits(np.arange(16, dtype=np.uint64), 2, 4)
        out = scramble_digit_matrix(digs, 2, 99, 4)
        for i in range(16):
            for j in range(16):
                t = 0
                while t < 4 and digs[i, t] == digs[j, t]:
                    t += 1
                assert (out[i, :t] == out[j, :t]).all()
                if t < 4:
                    assert out[i, t] != out[j, t]

    @pytest.mark.parametrize("b", [2, 3])
    def test_per_digit_uniform(self, b):
        # marginally over keys, each scrambled digit is uniform on [0, b)
        digs = numerators_to_digits(np.zeros(1, np.uint64), b, 2)
        R = 4000
        keys = np.arange(1, R + 1, dtype=np.uint64)
        out = scramble_digit_matrix(digs[0][None], b, keys[:, None], 3)
        for t in range(3):
            counts = np.bincount(out[:, 0, t], minlength=b)
            assert abs(counts.max() - counts.min()) < 5 * np.sqrt(R / b)

    def test_scrambled_mean_of_quarter(self):
        # Owen uniformity: scrambling 0.25 gives a uniform variate
        digs = numerators_to_digits(np.array([1], np.uint64), 2, 2)
        R = 100_000
        keys = np.arange(R, dtype=np.uint64)
        out = scramble_digit_matrix(digs[0][None], 2, keys[:, None], 30)
        vals = digits_to_floats(out[:, 0, :], 2)
        stderr = vals.std() / np.sqrt(R)
        assert abs(vals.mean() - 0.5) < 3 * stderr

    def test_equidistribution_preserved(self):
        # scrambling keeps elementary-interval counts of the net (m <= 4)
        coords = small_net(2, 4, 2)
        n, m = coords.shape[0], 4
        for key in (7, 8, 9):
            y = np.stack(
                [digits_to_floats(scramble_digit_matrix(
                    numerators_to_digits(coords[:, j], 2, m), 2, np.uint64(key + j), m), 2)
                 for j in range(2)],
                axis=1,
            )
            cells = (y * n).astype(int)  # depth-m boxes in coordinate 1 alone
            for j in range(2):
                assert sorted(cells[:, j]) == list(range(n))
            # depth (2, 2) boxes: each of the 16 cells holds exactly one point
            boxes = (y * 4).astype(int)
            ids = boxes[:, 0] * 4 + boxes[:, 1]
            assert sorted(ids) == list(range(16))


def keys(*values):
    return np.array(values, dtype=np.uint64)


class TestScrambledRule:
    def test_replicate_shapes(self):
        rule = ScrambledRule(2, 3, small_net(), alpha=1)
        assert rule.points(keys(1)).shape == (1, 8, 2)
        assert rule.points(np.arange(5, dtype=np.uint64)).shape == (5, 8, 2)

    def test_replications_reproducible_and_distinct(self):
        rule = ScrambledRule(2, 3, small_net(), alpha=1)
        a = rule.points(keys(1, 2, 3))
        b = rule.points(keys(1, 2, 3))
        assert (a == b).all()
        assert (a[0] != a[1]).any()

    def test_coordinate_independence(self):
        # output coordinate j depends only on its own alpha streams' keys:
        # a rule on a subset of coordinates reproduces those columns exactly
        net = small_net(2, 4, 2)
        full = ScrambledRule(2, 4, net, alpha=1).points(keys(42))[0]
        first = ScrambledRule(2, 4, net[:, :1], alpha=1).points(keys(42))[0]
        assert (full[:, 0] == first[:, 0]).all()

    def test_interlaced_digits_match_floats(self):
        net = small_net(2, 3, 2)
        rule = ScrambledRule(2, 3, net, alpha=2)
        pts = rule.points(keys(9, 2))
        digs = rule.digits(keys(9, 2))
        from_digits = np.stack(
            [digits_to_floats(digs[:, :, j, :], 2) for j in range(rule.d)], axis=2
        )
        assert np.allclose(pts, from_digits)

    def test_unbiased_on_linear(self):
        # d=1, alpha=2 interlaced scrambled rule integrates f(y)=y unbiasedly
        net = small_net(2, 2, 2)
        rule = ScrambledRule(2, 2, net, alpha=2)
        pts = rule.points(np.arange(2000, dtype=np.uint64))
        means = pts[:, :, 0].mean(axis=1)
        stderr = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean() - 0.5) <= 4 * stderr


class TestPrf:
    def test_mix64_fixed_point_free_zero(self):
        # the first two outputs of the splitmix64 generator seeded with 0
        assert mix64(0) == 0xE220A8397B1DCDAF != 0
        assert mix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
        assert mix64(1) != mix64(2)

    def test_mix64_array_edge_values(self):
        edges = [0, 1, 2**63, 2**64 - 1]
        got = mix64_array(np.array(edges, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [mix64(x) for x in edges]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    def test_mix64_array_matches_scalar(self, words):
        got = mix64_array(np.array(words, dtype=np.uint64))
        assert got.shape == (len(words),)
        assert [int(v) for v in got] == [mix64(x) for x in words]

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
        assert derive_seed(1, frozenset({1, 2})) == derive_seed(1, frozenset({2, 1}))

    def test_counters_uniform(self):
        u = counters_uniform(12345, 20000)
        assert ((0 <= u) & (u < 1)).all()
        assert abs(u.mean() - 0.5) < 4 * (1 / np.sqrt(12 * len(u)))
        # an array of keys draws one row per key, each equal to its own draw
        rows = counters_uniform(np.array([12345, 7], dtype=np.uint64), 5)
        assert rows.shape == (2, 5) and np.array_equal(rows[0], u[:5])
