"""Owen scrambling, digit interlacing, and the randomized rule generator."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdquad
from cdquad import scramble
from cdquad.gfpoly import FieldBase
from cdquad.lattice import GeneratingVector, irreducible_modulus, plr_points
from cdquad.prf import counters_uniform, derive_seed, mix64_array
from cdquad.scramble import (
    PackedDigits,
    ScrambledRule,
    digits_to_floats,
    float_digit_cap,
    interlace_digit_matrices,
    numerators_to_digits,
    scramble_digit_matrix,
)


_MASK64 = (1 << 64) - 1


def per_level_scramble_base2(digits, key, out_prec):
    """Base-2 nested scramble hashed level by level: digit t is flipped by
    bit 0 of a hash chained over (key, t, the digits before t), for every
    point and every level.  The distribution oracle of the tree-hash
    scramble in cdquad.scramble."""
    digits = np.asarray(digits, dtype=np.uint8)
    key = np.asarray(key, dtype=np.uint64)
    in_prec = digits.shape[-1]
    shape = np.broadcast_shapes(digits.shape[:-1], key.shape)
    prefix = np.broadcast_to(mix64_array(key), shape).copy()
    out = np.empty(shape + (out_prec,), dtype=np.uint8)
    for t in range(out_prec):
        d = np.zeros(shape, dtype=np.uint64)
        if t < in_prec:
            d = np.broadcast_to(digits[..., t], shape).astype(np.uint64)
        node = mix64_array(prefix ^ np.uint64((0xD1B54A32D192ED03 * (t + 1)) & _MASK64))
        out[..., t] = (d ^ (node & np.uint64(1))).astype(np.uint8)
        prefix = mix64_array(prefix ^ ((d + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)))
    return out


def mix64(x: int) -> int:
    """The splitmix64 finalizer on one Python int: the bit-exact oracle for
    the vectorized mix64_array."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def uint8_digits(values, b, m):
    """The (..., m) uint8 digit matrix of integers below b^m, in any base
    (base 2 unpacks the packed form)."""
    return as_uint8(numerators_to_digits(np.asarray(values, dtype=np.uint64), b, m))


def interlace_integers(numerators, b, m):
    """Exact interlace of alpha m-digit numerators into one alpha*m-digit
    integer numerator (Python int; bit-exact oracle)."""
    mats = np.stack([uint8_digits(v, b, m) for v in numerators])
    out = 0
    for d in interlace_digit_matrices(mats):
        out = out * b + int(d)
    return out


def small_net(b=2, m=3, s=2):
    # at m = 2, x (encoding 2) is x^2 + 1 (encoding 5) reduced mod x^2 + x + 1
    q = ([1, 5] if b == 2 and m > 2 else [1, 2])[:s]
    return plr_points(GeneratingVector(FieldBase(b), m, irreducible_modulus(b, m), tuple(q))).coords


class TestDigitPlumbing:
    def test_numerators_to_digits_round_trip(self):
        for b, m in [(2, 5), (3, 4)]:
            coords = np.arange(b**m, dtype=np.uint64)
            digs = uint8_digits(coords, b, m)
            back = np.zeros(len(coords), dtype=np.uint64)
            for t in range(m):
                back = back * b + digs[:, t]
            assert (back == coords).all()

    def test_digits_to_floats(self):
        # 0.01 and 0.11 in base 2, 0.01 and 0.21 in base 3
        assert np.allclose(digits_to_floats(numerators_to_digits([1, 3], 2, 2), 2), [0.25, 0.75])
        assert np.allclose(digits_to_floats(numerators_to_digits([1, 7], 3, 2), 3), [1 / 9, 7 / 9])

    def test_float_digit_cap(self):
        assert float_digit_cap(2) == 53
        assert float_digit_cap(3) == 33

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 140), st.integers(0, 2**32 - 1))
    def test_base2_floats_equal_matmul(self, width, seed):
        # the packed conversion is bit-equal to the float64 digit weights
        packed = random_packed(seed, (3, 5), width)
        digs = packed.digits()
        prec = min(width, 53)
        matmul = digs[..., :prec].astype(np.float64) @ (2.0 ** -np.arange(1, prec + 1))
        assert np.array_equal(digits_to_floats(packed, 2), matmul)


class TestInterlace:
    def test_alpha1_identity(self):
        digs = numerators_to_digits(np.arange(8, dtype=np.uint64), 2, 3)
        packed = interlace_digit_matrices(PackedDigits(digs.words[None], 3))
        assert np.array_equal(packed.words, digs.words)
        assert (interlace_digit_matrices(digs.digits()[None]) == digs.digits()).all()

    def test_hand_example(self):
        # alpha=2, b=2, inputs (1/4, 1/2) = (0.01, 0.10) -> 0.0110 = 3/8
        assert interlace_integers([1, 2], 2, 2) == 6  # 0110 as a 4-digit numerator
        streams = numerators_to_digits(np.array([[1], [2]], np.uint64), 2, 2)
        out = interlace_digit_matrices(streams)
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
        a = scramble_digit_matrix(digs, 2, 12345, 8).digits()
        b = scramble_digit_matrix(digs, 2, 12345, 8).digits()
        assert (a == b).all()
        c = scramble_digit_matrix(digs, 2, 54321, 8).digits()
        assert (a != c).any()

    def test_prefix_property(self):
        # points sharing t leading digits share t scrambled leading digits,
        # and differ at digit t+1 when the originals differ there
        packed = numerators_to_digits(np.arange(16, dtype=np.uint64), 2, 4)
        out = scramble_digit_matrix(packed, 2, 99, 4).digits()
        digs = packed.digits()
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
        out = as_uint8(scramble_digit_matrix(digs, b, keys[:, None], 3))
        for t in range(3):
            counts = np.bincount(out[:, 0, t], minlength=b)
            assert abs(counts.max() - counts.min()) < 5 * np.sqrt(R / b)

    def test_scrambled_mean_of_quarter(self):
        # Owen uniformity: scrambling 0.25 gives a uniform variate
        digs = numerators_to_digits(np.array([1], np.uint64), 2, 2)
        R = 100_000
        keys = np.arange(R, dtype=np.uint64)
        out = scramble_digit_matrix(digs, 2, keys[:, None], 30)
        vals = digits_to_floats(out, 2)[:, 0]
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


def as_uint8(digits):
    """A layer's output as a uint8 digit matrix, in any base."""
    return digits.digits() if isinstance(digits, PackedDigits) else digits


def random_values(seed, shape, count):
    """Random integers below 2^count, count <= 64."""
    if not count:
        return np.zeros(shape, np.uint64)
    words = np.random.default_rng(seed).integers(0, 2**64, shape, dtype=np.uint64)
    return words >> np.uint64(64 - count)


def clear_tail(words, count):
    """Rows of uint64 words with every bit past the first count cleared."""
    held = [min(64, max(0, count - 64 * i)) for i in range(words.shape[-1])]  # bits of word i
    return words & np.array([((1 << c) - 1) << (64 - c) for c in held], dtype=np.uint64)


def random_packed(seed, lead, count):
    """Random count-digit PackedDigits of leading shape lead, for any count."""
    k = max(1, -(-count // 64))
    words = np.random.default_rng(seed).integers(0, 2**64, lead + (k,), dtype=np.uint64)
    return PackedDigits(clear_tail(words, count), count)


def bits(words, count):
    """Digit t of each row of words, read off the Python ints: the
    bit-exact oracle of PackedDigits.digits."""
    rows = np.asarray(words).reshape(-1, np.shape(words)[-1])
    return np.array([[(int(row[t // 64]) >> (63 - t % 64)) & 1 for t in range(count)]
                     for row in rows], dtype=np.uint8).reshape(np.shape(words)[:-1] + (count,))


class TestPackedDigits:
    """The packed base-2 form against bit-exact and uint8 oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=3), st.integers(0, 200), st.integers(0, 2**32 - 1))
    def test_round_trip(self, lead, count, seed):
        packed = random_packed(seed, tuple(lead), count)
        assert packed.shape == tuple(lead) + (count,) and packed.size == math.prod(packed.shape)
        assert packed.words.shape == tuple(lead) + (max(1, -(-count // 64)),)
        assert np.array_equal(packed.digits(), bits(packed.words, count))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 64), st.integers(0, 2**64 - 1))
    def test_values_pack_their_digits(self, m, seed):
        values = key_array(seed, 9) >> np.uint64(64 - m) if m else np.zeros(9, np.uint64)
        packed = numerators_to_digits(values, 2, m)
        assert isinstance(packed, PackedDigits) and packed.shape == (9, m)
        expect = [[(int(v) >> (m - 1 - t)) & 1 for t in range(m)] for v in values]
        assert np.array_equal(packed.digits(), np.array(expect, dtype=np.uint8).reshape(9, m))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 140), st.integers(1, 5), st.integers(0, 2**64 - 1))
    def test_scramble_words_hold_only_their_digits(self, m, prec, R, seed):
        digs = numerators_to_digits(random_values(seed % 2**32, 7, m), 2, m)
        packed = scramble_digit_matrix(digs, 2, key_array(seed, R)[:, None], prec)
        assert isinstance(packed, PackedDigits)
        assert packed.shape == (R, 7, prec) and packed.size == R * 7 * prec
        assert packed.words.shape == (R, 7, max(1, -(-prec // 64)))
        # the words hold nothing past their digits
        assert np.array_equal(packed.words, clear_tail(packed.words, packed.count))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 53), st.integers(0, 2**32 - 1))
    @example(3, 22, 0)  # the 64th output digit is digit 21 of stream 0
    @example(5, 13, 1)  # stream 4's 13th digit falls past the 64th
    @example(7, 53, 2)  # 371 output digits, six words
    @example(2, 32, 3)  # exactly one full word
    @example(3, 43, 4)  # 129 digits: one digit in the third word
    def test_interlace_equals_uint8_interlace_on_all_digits(self, alpha, prec, seed):
        streams = numerators_to_digits(random_values(seed, (alpha, 2, 3), prec), 2, prec)
        packed = interlace_digit_matrices(streams)
        assert isinstance(packed, PackedDigits)
        assert packed.shape == (2, 3, alpha * prec)
        assert np.array_equal(packed.words, clear_tail(packed.words, packed.count))
        assert np.array_equal(packed.digits(), interlace_digit_matrices(streams.digits()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 130), st.integers(0, 2**32 - 1))
    def test_floats_equal_exact_value(self, width, seed):
        # the float of a string is its first 53 digits, exactly
        packed = random_packed(seed, (4,), width)
        head = min(width, 53)
        exact = [float(Fraction(int("".join(map(str, row[:head])) or "0", 2), 2**head))
                 for row in bits(packed.words, width)]
        assert np.array_equal(digits_to_floats(packed, 2), exact)

    def test_packed_digits_are_base2(self):
        packed = numerators_to_digits(np.zeros(2, np.uint64), 2, 3)
        with pytest.raises(ValueError, match="base 2"):
            scramble_digit_matrix(packed, 3, 1, 4)
        with pytest.raises(ValueError, match="base 2"):
            digits_to_floats(packed, 3)
        # a base-2 layer takes no uint8 digits
        with pytest.raises(ValueError, match="got ndarray for base 2"):
            scramble_digit_matrix(packed.digits(), 2, 1, 4)
        with pytest.raises(ValueError, match="got ndarray for base 2"):
            digits_to_floats(packed.digits(), 2)

    def test_interlace_takes_one_word_streams(self):
        with pytest.raises(ValueError, match="at most 64 digits"):
            interlace_digit_matrices(random_packed(0, (2, 3), 65))


def value_digits(values, m, b=2):
    return numerators_to_digits(np.asarray(values, dtype=np.uint64), b, m)


def key_array(seed, R):
    return mix64_array(np.arange(R, dtype=np.uint64) ^ np.uint64(seed))


class TestBase2TreeScramble:
    """Properties of the base-2 scramble that hashes each tree node once.
    The shared-prefix and batched-row properties also draw base 3, which
    runs the generic per-level path."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 80), st.integers(0, 2**64 - 1))
    def test_every_digit_uniform(self, m, prec, seed):
        # over keys, each scrambled digit of each point is a fair bit
        R = 2000
        values = key_array(seed ^ 1, 4) >> np.uint64(64 - m)
        out = scramble_digit_matrix(value_digits(values, m), 2, key_array(seed, R)[:, None],
                                    prec).digits()
        ones = out.sum(axis=0, dtype=np.int64)  # (points, prec)
        assert np.all(np.abs(ones - R / 2) < 6 * np.sqrt(R / 4))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_prefix_is_kept_exactly(self, data):
        # values sharing exactly t leading digits share exactly t scrambled
        # digits; equal values share every digit, tail included
        b = data.draw(st.sampled_from((2, 3)))
        m = data.draw(st.integers(1, 20))
        prec = data.draw(st.integers(m, 70))
        t = data.draw(st.integers(0, m))
        x = data.draw(st.integers(0, b**m - 1))
        y = x
        if t < m:
            # keep the first t digits of x, change digit t, draw the rest
            unit = b ** (m - t - 1)
            digit = (x // unit + data.draw(st.integers(1, b - 1))) % b
            y = (x // (unit * b) * b + digit) * unit + data.draw(st.integers(0, unit - 1))
        key = data.draw(st.integers(0, 2**64 - 1))
        out = as_uint8(scramble_digit_matrix(value_digits([x, y], m, b), b, key, prec))
        assert np.array_equal(out[0, :t], out[1, :t])
        if t < m:
            assert out[0, t] != out[1, t]
        else:
            assert np.array_equal(out[0], out[1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 60), st.integers(0, 2**64 - 1))
    def test_equal_values_equal_tails(self, m, extra, seed):
        values = key_array(seed, 6) >> np.uint64(64 - m)
        values = np.concatenate([values, values[::-1]])
        out = scramble_digit_matrix(value_digits(values, m), 2, np.uint64(seed), m + extra).digits()
        assert np.array_equal(out[:6], out[6:][::-1])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((2, 3)), st.integers(1, 9), st.integers(1, 40), st.integers(1, 6),
           st.integers(0, 2**64 - 1))
    def test_rows_equal_single_key_calls(self, b, m, prec, R, seed):
        # row i of a batched call equals the call on key i alone, and a point
        # scrambled alone (in base 2: per-point node hashes) equals its row in
        # the whole set (one table of node hashes per key)
        digs = value_digits(np.arange(2**m), m, b)
        keys_ = key_array(seed, R)
        batch = as_uint8(scramble_digit_matrix(digs, b, keys_[:, None], prec))
        for i, k in enumerate(keys_):
            assert np.array_equal(batch[i], as_uint8(scramble_digit_matrix(digs, b, k, prec)))
            for p in (0, 2**m - 1, int(k) % 2**m):
                alone = scramble_digit_matrix(value_digits(p, m, b), b, k, prec)
                assert np.array_equal(batch[i, p], as_uint8(alone))

    @pytest.mark.parametrize("m", (10, 15, 20))
    def test_flip_table_equals_per_point_hashes(self, m):
        # deeper than the test above (m <= 9): a full net under a few keys
        # takes one flip table per key, and each of its points, given a key
        # of its own, hashes its own prefixes; every point agrees
        digs = value_digits(np.arange(2**m), m)
        keys_ = key_array(m, 2)
        table = scramble_digit_matrix(digs, 2, keys_[:, None], m + 3).words
        for i, k in enumerate(keys_):
            alone = scramble_digit_matrix(digs, 2, np.full(2**m, k, dtype=np.uint64), m + 3)
            assert np.array_equal(alone.words, table[i])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 9),
           st.integers(0, 2**64 - 1))
    def test_chunked_rule_rows_equal_single_keys(self, m, alpha, d, R, seed):
        nums = key_array(seed, 2**m * d * alpha).reshape(2**m, d * alpha) >> np.uint64(64 - m)
        rule = ScrambledRule(2, m, nums, alpha)
        keys_ = key_array(seed ^ 7, R)
        whole_digits, whole_points = rule.digits(keys_), rule.points(keys_)
        old = scramble.CHUNK_BYTES
        try:
            scramble.CHUNK_BYTES = 1  # one key per chunk
            assert np.array_equal(rule.digits(keys_), whole_digits)
            assert np.array_equal(rule.points(keys_), whole_points)
        finally:
            scramble.CHUNK_BYTES = old
        for i in range(R):
            assert np.array_equal(rule.digits(keys_[i:i + 1])[0], whole_digits[i])

    @pytest.mark.parametrize("x,y", [(0b0000, 0b1000), (0b0100, 0b0111), (0b1111, 0b1110),
                                     (0b0101, 0b0101)])
    def test_pair_distribution_matches_per_level_oracle(self, x, y):
        # two-sample chi-square on the joint law of the first 5 scrambled
        # digits of a pair (one past the 4 input digits), taken from the
        # whole net so that the node hashes go through the per-key table
        R, m, prec = 40_000, 4, 5
        digs = value_digits(np.arange(2**m), m)

        def cells(out):
            pairs = np.packbits(out[:, [x, y]], axis=-1, bitorder="little")[..., 0]
            pairs = pairs.astype(np.int64)
            return np.bincount(pairs[:, 0] * 2**prec + pairs[:, 1], minlength=4**prec)

        new = cells(scramble_digit_matrix(digs, 2, key_array(1, R)[:, None], prec).digits())
        oracle = cells(per_level_scramble_base2(digs.digits(), key_array(2, R)[:, None], prec))
        seen = (new + oracle) > 0
        assert np.array_equal(new > 0, oracle > 0)
        stat = float(np.sum((new[seen] - oracle[seen]) ** 2 / (new[seen] + oracle[seen])))
        assert scipy.stats.chi2.sf(stat, seen.sum() - 1) > 1e-4

    def test_more_than_32_input_digits_rejected(self):
        with pytest.raises(ValueError, match="at most 32"):
            scramble_digit_matrix(value_digits([0, 0], 33), 2, 1, 40)


def keys(*values):
    return np.array(values, dtype=np.uint64)


class TestScrambledRule:
    def test_base_past_uint8_digits_rejected(self):
        with pytest.raises(ValueError, match="digit base must be at most 256"):
            ScrambledRule(257, 1, np.arange(257, dtype=np.uint64)[:, None], 1)

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 20), st.integers(1, 3), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2**64 - 1))
    @example(20, 2, 4, 3, 5)  # alpha * prec = 80 interlaced digits, past one word
    @example(13, 1, 5, 2, 6)  # alpha * prec = 65
    def test_interlaced_digits_match_floats(self, m, d, alpha, n, seed):
        # the packed base-2 points are exactly the first 53 of the uint8
        # digits, weighted by 2^-t (exact in float64)
        nums = key_array(seed, n * d * alpha).reshape(n, d * alpha) >> np.uint64(64 - m)
        rule = ScrambledRule(2, m, nums, alpha)
        keys_ = key_array(seed ^ 3, 3)
        digs = rule.digits(keys_)
        assert digs.shape[-1] == alpha * rule.prec
        weights = 2.0 ** -np.arange(1, 54)
        assert np.array_equal(rule.points(keys_), digs[..., :53].astype(np.float64) @ weights)

    def test_base2_points_never_unpack_words(self, monkeypatch):
        # base-2 rules hold packed words from the numerators on: building the
        # rule and drawing points unpack nothing, and digits() unpacks its
        # interlaced words once, at the end
        calls = []
        unpack = scramble._word_digits

        def counted(words, count):
            calls.append(count)
            return unpack(words, count)

        monkeypatch.setattr(scramble, "_word_digits", counted)
        rule = ScrambledRule(2, 4, key_array(5, 16 * 6).reshape(16, 6) >> np.uint64(60), alpha=3)
        assert not hasattr(rule, "stream_digits")
        assert rule.points(keys(1, 2)).shape == (2, 16, 2)
        assert calls == []
        assert rule.digits(keys(1, 2)).shape == (2, 16, 2, 3 * rule.prec)
        assert calls == [3 * rule.prec]
        assert rule.digits(None).shape == (1, 16, 2, 3 * 4)
        assert calls == [3 * rule.prec, 3 * 4]

    def test_criterion4_shape_memory(self):
        # one draw at the criterion-4 shape (alpha 3, d 2, n = 2^13, R 500),
        # vector search included, in a fresh interpreter: chunked scrambling
        # keeps the peak RSS near the 62.5 MB of points instead of a multiple
        # of the digit depth.  The peak is the child's VmHWM: a spawned
        # child's ru_maxrss starts at the peak RSS of the test run
        code = (
            "import numpy as np\n"
            "from cdquad.quadrature import RuleSpec, rule_points\n"
            "pts = rule_points(RuleSpec('plr', (1, 2), 2**13, 7, alpha=3), np.arange(500))\n"
            "assert pts.shape == (500, 2**13, 2)\n"
            "status = open('/proc/self/status').read()\n"
            "print(int(status.split('VmHWM:')[1].split()[0]) / 1024)\n"
        )
        src = str(Path(cdquad.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        assert float(done.stdout.strip()) < 512

    def test_criterion4_shape_estimator_memory(self):
        # the same shape through empirical_variance, in a fresh interpreter:
        # the estimator draws, integrates and reduces one chunk of keys at a
        # time, so its peak RSS stays far below the 62.5 MB of all R*n points.
        # The peak is the child's VmHWM: a spawned child's ru_maxrss starts
        # at the peak RSS of the process that spawned it (here the test run)
        code = (
            "from cdquad.harness import bank_preset\n"
            "from cdquad.quadrature import RuleSpec, empirical_variance\n"
            "bank = bank_preset('pair')\n"
            "spec = RuleSpec('plr', bank.active, 2**13, 7, alpha=3)\n"
            "est = empirical_variance(spec, bank.on_points(bank.active), 500)\n"
            "assert est.replications == 500 and est.variance > 0\n"
            "status = open('/proc/self/status').read()\n"
            "print(int(status.split('VmHWM:')[1].split()[0]) / 1024)\n"
        )
        src = str(Path(cdquad.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        assert float(done.stdout.strip()) < 128

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
        x = np.array(words, dtype=np.uint64)
        got = mix64_array(x)
        assert got.shape == (len(words),)
        assert [int(v) for v in got] == [mix64(w) for w in words]
        # a strided view and a 2-d array mix word by word as well, and the
        # rounds, which run in place, never write into the input
        assert np.array_equal(mix64_array(x[::2]), got[::2])
        assert np.array_equal(mix64_array(x.reshape(1, -1)), got[None])
        assert [int(v) for v in x] == words

    def test_mix64_array_zero_d(self):
        # a 0-d word gives a scalar word, equal to its entry in an array
        got = mix64_array(np.uint64(2**64 - 1))
        assert np.ndim(got) == 0 and got.dtype == np.uint64
        assert int(got) == mix64(2**64 - 1) == int(mix64_array(np.array([2**64 - 1],
                                                                          dtype=np.uint64))[0])
        assert int(mix64_array(np.array(7, dtype=np.uint64))) == mix64(7)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.one_of(
        st.text(max_size=6),
        st.integers(-2**100, 2**100),
        st.frozensets(st.integers(-2**63, 2**63 - 1), max_size=5),
        st.lists(st.integers(0, 50), max_size=4),
    ), max_size=5))
    def test_derive_seed_matches_incremental_hash(self, master, tokens):
        # the reference feeds blake2b one update per token, as the message
        # is defined; the key must not depend on how the bytes are fed
        h = hashlib.blake2b(digest_size=8)
        h.update(master.to_bytes(8, "little"))
        for t in tokens:
            if isinstance(t, str):
                h.update(b"s" + t.encode())
            elif isinstance(t, int):
                h.update(b"i" + t.to_bytes(16, "little", signed=True))
            else:
                items = sorted(t)
                h.update(b"f" + len(items).to_bytes(4, "little"))
                for v in items:
                    h.update(v.to_bytes(8, "little", signed=True))
        assert derive_seed(master, *tokens) == int.from_bytes(h.digest(), "little")

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
