"""Owen scrambling, digit interlacing, and the randomized rule generator."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
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
    Net,
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


# the base-2 scramble's hash domains and the rule's per-stream key salt
_NODE_DOMAIN = 0xA0761D6478BD642F
_TAIL_DOMAIN = 0xE7037ED1A0B428DB
_STREAM_SALT = 0x94D049BB133111EB


def interlaced_digit_oracle(keys, values, m, prec):
    """The alpha*prec interlaced base-2 output digits of one point, built
    one digit at a time from the documented layout, on Python ints.  keys
    and values hold the alpha stream keys and m-digit stream values.  Output
    digit P = t*alpha + r is digit t of stream r: below m, the net digit
    XOR the bit of node i = 2^t + (the first t digits read backwards, digit 0
    lowest), bit i % 64 of mix64(mix64(key ^ NODE) ^ i // 64); from m on, bit
    63 - P % 64 of tail word k = P // 64, mix64(mix64(key_0 ^ TAIL_k) ^
    value_0): one word for all streams, from the first stream's key and
    value."""
    alpha = len(values)
    out = []
    for P in range(alpha * prec):
        t, r = divmod(P, alpha)
        key, value = keys[r], values[r]
        if t < m:
            prefix = value >> (m - t)
            node = (1 << t) + sum(((prefix >> (t - 1 - q)) & 1) << q for q in range(t))
            flip = mix64(mix64(key ^ _NODE_DOMAIN) ^ (node // 64)) >> (node % 64) & 1
            out.append((value >> (m - 1 - t) & 1) ^ flip)
        else:
            tail = mix64(mix64(keys[0] ^ (_TAIL_DOMAIN * (P // 64 + 1) & _MASK64)) ^ values[0])
            out.append(tail >> (63 - P % 64) & 1)
    return out


def stream_keys(key, j, alpha):
    """The alpha stream keys of output coordinate j under a rule key."""
    return [mix64(key ^ (_STREAM_SALT * (j * alpha + r + 1) & _MASK64)) for r in range(alpha)]


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


def full_net_numerators(m, alpha):
    """The numerators of a base-2 polynomial lattice rule of alpha <= 3
    streams, m >= 3: each stream holds every m-digit value once, as h ->
    h*q mod p permutes them for q != 0 and p irreducible."""
    q = (1, 5, 3)[:alpha]
    return plr_points(GeneratingVector(FieldBase(2), m, irreducible_modulus(2, m), q)).coords


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

    def test_base_b_floats_do_not_depend_on_blocking(self):
        # one float per row of digits, whatever the rows converted with it:
        # as one array, in blocks of 3 rows and row by row
        digs = np.random.default_rng(3).integers(0, 3, size=(3000, 40), dtype=np.uint8)
        whole = digits_to_floats(digs, 3)
        blocks = np.concatenate([digits_to_floats(digs[i:i + 3], 3) for i in range(0, 3000, 3)])
        rows = np.array([digits_to_floats(row, 3) for row in digs])
        assert np.array_equal(whole, blocks) and np.array_equal(whole, rows)

    @pytest.mark.parametrize("b", [3, 5, 7, 251])
    def test_base_b_floats_equal_exact_value(self, b):
        # the float of a string is its first float_digit_cap(b) digits,
        # correctly rounded
        prec = float_digit_cap(b)
        digs = np.random.default_rng(b).integers(0, b, size=(200, prec + 4), dtype=np.uint8)
        digs[0] = b - 1  # the largest string stays below 1
        exact = [float(Fraction(sum(int(t) * b ** (prec - 1 - i) for i, t in enumerate(row[:prec])),
                                b**prec))
                 for row in digs]
        out = digits_to_floats(digs, b)
        assert np.array_equal(out, exact) and out.max() < 1

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


def row_int(words, count):
    """The count-digit integer that a row of uint64 words holds."""
    value = 0
    for word in words:
        value = value << 64 | int(word)
    return value >> (64 * len(words) - count)


def assert_interlaced(streams, out):
    """out is the interlacing of the packed streams, read off the Python
    ints: digit t of stream r is output digit t*alpha + r, and no bit past
    the alpha*prec output digits is set."""
    alpha, prec = streams.shape[0], streams.count
    count = alpha * prec
    assert isinstance(out, PackedDigits) and out.shape == streams.shape[1:-1] + (count,)
    assert out.words.shape[-1] == max(1, -(-count // 64))
    ins = streams.words.reshape(alpha, -1, streams.words.shape[-1])
    for i, row in enumerate(out.words.reshape(-1, out.words.shape[-1])):
        want = 0
        for r in range(alpha):
            value = row_int(ins[r, i], prec)
            for t in range(prec):
                want |= (value >> (prec - 1 - t) & 1) << (count - 1 - (t * alpha + r))
        assert row_int(row, 64 * len(row)) == want << (64 * len(row) - count)


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
    @given(st.integers(1, 7), st.integers(0, 140), st.integers(0, 2**32 - 1))
    @example(3, 22, 0)  # the 64th output digit is digit 21 of stream 0
    @example(5, 13, 1)  # stream 4's 13th digit falls past the 64th
    @example(7, 53, 2)  # 371 output digits, six words
    @example(2, 32, 3)  # exactly one full word
    @example(3, 43, 4)  # 129 digits: one digit in the third word
    @example(2, 65, 5)  # streams of two words each
    @example(7, 140, 6)  # 980 output digits, 16 words
    def test_interlace_equals_uint8_interlace_on_all_digits(self, alpha, prec, seed):
        # the packed interlace is built on the uint8 one, so both are held
        # to the bit-exact oracle
        streams = random_packed(seed, (alpha, 2, 3), prec)
        assert_interlaced(streams, interlace_digit_matrices(streams))

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
        # and longer ones: streams of 65 and 100 digits span two words
        for alpha, prec in [(1, 65), (2, 65), (3, 100), (6, 100)]:
            streams = random_packed(alpha, (alpha, 4), prec)
            assert_interlaced(streams, interlace_digit_matrices(streams))


def value_digits(values, m, b=2):
    return numerators_to_digits(np.asarray(values, dtype=np.uint64), b, m)


def key_array(seed, R):
    return mix64_array(np.arange(R, dtype=np.uint64) ^ np.uint64(seed))


def digit_cells(digits):
    """Counts of the 2^k values of the rows of an (R, k) 0/1 digit array."""
    k = digits.shape[-1]
    return np.bincount(digits.astype(np.int64) @ (1 << np.arange(k)), minlength=2**k)


def assert_same_law(new, oracle):
    """Two-sample chi-square on the cell counts of two equally large
    samples: the same cells are seen, and the law is the same at p = 1e-4."""
    seen = (new + oracle) > 0
    assert np.array_equal(new > 0, oracle > 0)
    stat = float(np.sum((new[seen] - oracle[seen]) ** 2 / (new[seen] + oracle[seen])))
    assert scipy.stats.chi2.sf(stat, seen.sum() - 1) > 1e-4


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
        # deeper than the test above (m <= 9): a full net of alpha streams
        # under a few keys takes one flip table per key and stream, and each
        # of its points, given keys of its own, hashes its own prefixes;
        # every point agrees.  At alpha 7 and 5 the flips of the m digits
        # fill two output words, and the 3 tail digits follow
        alpha = {10: 7, 15: 5, 20: 2}[m]
        values = (np.arange(2**m) * np.arange(1, 2 * alpha, 2)[:, None]) % 2**m
        net = Net(value_digits(values[:, None], m))
        keys_ = key_array(m, 2 * alpha).reshape(alpha, 2, 1)
        table = scramble_digit_matrix(net, 2, keys_, m + 3)
        assert table.words.shape == (2, 2**m, -(-alpha * (m + 3) // 64))
        for i in range(2):
            per_point = np.ascontiguousarray(np.broadcast_to(keys_[:, i], (alpha, 2**m)))
            alone = scramble_digit_matrix(Net(value_digits(values, m)), 2, per_point, m + 3)
            assert np.array_equal(alone.words, table.words[i])

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
        new = scramble_digit_matrix(digs, 2, key_array(1, R)[:, None], prec).digits()
        oracle = per_level_scramble_base2(digs.digits(), key_array(2, R)[:, None], prec)
        assert_same_law(digit_cells(new[:, [x, y]].reshape(R, -1)),
                        digit_cells(oracle[:, [x, y]].reshape(R, -1)))

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

    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_digits_equal_streams_scrambled_one_by_one(self, b, d, alpha):
        # coordinate j of replication i is the interlaced scramble of its
        # own alpha streams u = j * alpha + r, each under key i salted for u,
        # whatever layout the rule keeps its streams in; the outputs are
        # C-contiguous (R, n, d[, digits]).  Each stream scrambled alone
        # gives the same digits: all of them in base 3, and in base 2 its m
        # digits of the lattice (the digits past them come from one tail
        # hash per output word and coordinate, keyed by its first stream)
        m, n, R = 3, 11, 4
        nums = key_array(10 * b + d, n * d * alpha).reshape(n, d * alpha) % np.uint64(b**m)
        rule = ScrambledRule(b, m, nums, alpha)
        keys_ = key_array(alpha, R)
        digs, pts = rule.digits(keys_), rule.points(keys_)
        assert digs.shape == (R, n, d, alpha * rule.prec) and digs.flags.c_contiguous
        assert pts.shape == (R, n, d) and pts.flags.c_contiguous
        same = m if b == 2 else rule.prec
        for i in range(R):
            for j in range(d):
                keys_j = np.array(stream_keys(int(keys_[i]), j, alpha), dtype=np.uint64)
                streams = numerators_to_digits(nums[:, j * alpha:(j + 1) * alpha].T, b, m)
                together = scramble_digit_matrix(Net(streams), b, keys_j[:, None], rule.prec)
                assert np.array_equal(digs[i, :, j], as_uint8(together))
                alone = np.stack([as_uint8(scramble_digit_matrix(
                    numerators_to_digits(nums[:, j * alpha + r], b, m), b, keys_j[r], rule.prec))
                    for r in range(alpha)], axis=-1)  # (n, prec, alpha)
                assert np.array_equal(digs[i, :, j].reshape(n, rule.prec, alpha)[:, :same],
                                      alone[:, :same])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 12), st.integers(1, 3), st.booleans(),
           st.integers(0, 2**64 - 1))
    @example(6, 11, 1, True, 1)  # 66 output digits: the flips fill two words
    @example(7, 10, 1, True, 2)  # 70 output digits
    @example(7, 12, 3, True, 3)  # 84 output digits, three coordinates
    @example(3, 12, 2, False, 4)  # fewer points than nodes: per-point hashes
    @example(1, 1, 1, True, 5)
    def test_base2_rule_matches_digit_oracle(self, alpha, m, d, full, seed):
        # every output digit of digits() and every float of points() is the
        # documented node bit, tail slot and net digit, on random stream
        # values (repeats included); a sample of points is checked per key
        rng = np.random.default_rng(seed % 2**32)
        n = 2**m if full else int(rng.integers(1, 6))
        nums = rng.integers(0, 2**m, (n, d * alpha), dtype=np.uint64)
        rule = ScrambledRule(2, m, nums, alpha)
        keys_ = key_array(seed, 2)
        digs, pts = rule.digits(keys_), rule.points(keys_)
        assert digs.shape[-1] == alpha * rule.prec
        for i, key in enumerate(keys_):
            for j in range(d):
                for p in {0, n - 1, *rng.integers(0, n, 4).tolist()}:
                    values = [int(v) for v in nums[p, j * alpha:(j + 1) * alpha]]
                    want = interlaced_digit_oracle(stream_keys(int(key), j, alpha), values, m,
                                                   rule.prec)
                    assert digs[i, p, j].tolist() == want
                    assert pts[i, p, j] == int("".join(map(str, want[:53])), 2) / 2**53

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 12), st.integers(1, 2), st.integers(0, 2**64 - 1))
    @example(6, 11, 1, 6)
    @example(7, 10, 2, 7)
    def test_base2_heads_permute_a_full_net(self, alpha, m, d, seed):
        # each stream of a full net holds every m-digit value once, and under
        # every key its first m scrambled digits still do
        rng = np.random.default_rng(seed % 2**32)
        nums = np.stack([rng.permutation(2**m) for _ in range(d * alpha)], axis=1)
        rule = ScrambledRule(2, m, nums.astype(np.uint64), alpha)
        digs = rule.digits(key_array(seed, 3))
        weights = 1 << np.arange(m - 1, -1, -1)
        for r in range(alpha):
            heads = digs[..., r::alpha][..., :m].astype(np.int64) @ weights  # (R, n, d)
            assert np.array_equal(np.sort(heads, axis=1),
                                  np.broadcast_to(np.arange(2**m)[:, None], heads.shape))

    @pytest.mark.parametrize("alpha,r", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("x,y", [(0, 1), (2, 7)])
    def test_stream_pair_law_matches_per_level_oracle(self, alpha, r, x, y):
        # stream r >= 1 of a full net takes its tail digits from the first
        # stream's hash; two-sample chi-square on the joint law of a point
        # pair's first m + 3 digits of that stream against the per-level
        # nested scramble of the stream alone
        R, m = 40_000, 3
        nums = full_net_numerators(m, alpha)
        digs = ScrambledRule(2, m, nums, alpha).digits(key_array(1, R))
        new = digs[:, [x, y], 0, r::alpha][..., :m + 3]
        stream = value_digits(nums[[x, y], r], m).digits()
        oracle = per_level_scramble_base2(stream, key_array(2, R)[:, None], m + 3)
        assert_same_law(digit_cells(new.reshape(R, -1)), digit_cells(oracle.reshape(R, -1)))

    @pytest.mark.parametrize("alpha,r1,r2", [(2, 0, 1), (3, 0, 2), (3, 1, 2)])
    def test_two_streams_tail_law_matches_per_level_oracle(self, alpha, r1, r2):
        # one hash per point gives every stream's tail digits; two-sample
        # chi-square on the joint law of two streams' digits m - 1..m + 2 of
        # one point of a full net (the last node digit and three tail
        # digits each) against per-level scrambles under independent keys
        R, m, p = 40_000, 3, 5
        nums = full_net_numerators(m, alpha)
        digs = ScrambledRule(2, m, nums, alpha).digits(key_array(1, R))[:, p, 0]
        new = np.concatenate([digs[:, r::alpha][:, m - 1:m + 3] for r in (r1, r2)], axis=1)
        oracle = np.concatenate([per_level_scramble_base2(
            value_digits(nums[p, r], m).digits(), key_array(2 + i, R), m + 3)[:, m - 1:]
            for i, r in enumerate((r1, r2))], axis=1)
        assert_same_law(digit_cells(new), digit_cells(oracle))

    def test_base2_points_never_unpack_words(self, monkeypatch):
        # base-2 rules hold packed words from the numerators on: building the
        # rule unpacks its m-digit streams once, to interlace them, drawing
        # points unpacks nothing, and digits() unpacks its interlaced words
        # once, at the end
        calls = []
        unpack = scramble._word_digits

        def counted(words, count):
            calls.append(count)
            return unpack(words, count)

        monkeypatch.setattr(scramble, "_word_digits", counted)
        rule = ScrambledRule(2, 4, key_array(5, 16 * 6).reshape(16, 6) >> np.uint64(60), alpha=3)
        assert not hasattr(rule, "stream_digits")
        assert calls == [4]
        assert rule.points(keys(1, 2)).shape == (2, 16, 2)
        assert calls == [4]
        assert rule.digits(keys(1, 2)).shape == (2, 16, 2, 3 * rule.prec)
        assert calls == [4, 3 * rule.prec]
        assert rule.digits(None).shape == (1, 16, 2, 3 * 4)
        assert calls == [4, 3 * rule.prec, 3 * 4]

    @pytest.mark.parametrize("m,alpha", [(10, 7), (10, 1)])
    def test_digits_chunks_hold_at_most_chunk_bytes(self, m, alpha):
        # digits() at 70 digits a coordinate (two output words of flips) and
        # at 53 (whose uint8 digits outweigh the packed words): apart from
        # the output array, the peak of a call whose keys span several
        # chunks stays within the chunk budget
        gv = GeneratingVector(FieldBase(2), m, irreducible_modulus(2, m),
                              tuple(range(1, 2 * alpha, 2)))
        rule = ScrambledRule(2, m, plr_points(gv).coords, alpha)
        rule.digits(key_array(3, 2))  # warm up
        tracemalloc.start()
        try:
            # 48 keys: 4 chunks at alpha = 1, 16 at alpha = 7
            out = rule.digits(key_array(4, 48))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= scramble.CHUNK_BYTES

    @pytest.mark.parametrize("method", ["points", "digits"])
    def test_keys_last_chunks_hold_at_most_chunk_bytes(self, method):
        # four points a stream against 20,000 keys, and 64 against 3,000 at
        # d = 1-5 and alpha 1-3: every chunk scrambles with the keys last,
        # and apart from the output array the peak stays within the chunk
        # budget
        shapes = [(2, 3, 2, 20_000), *[(6, d, alpha, 3000) for d in range(1, 6)
                                       for alpha in (1, 2, 3)]]
        for m, d, alpha, R in shapes:
            n, S = 2**m, d * alpha
            rule = ScrambledRule(2, m, key_array(5, n * S).reshape(n, S) % np.uint64(n), alpha)
            call = getattr(rule, method)
            call(key_array(3, 2000))  # warm up
            keys_ = key_array(4, R)
            tracemalloc.start()
            try:
                out = call(keys_)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(rule._chunks(R)) > 1
            assert peak - out.nbytes <= scramble.CHUNK_BYTES, (m, d, alpha)

    @pytest.mark.parametrize("b,m,d,alpha,R", [
        (2, 1, 1, 1, 3000), (2, 1, 4, 3, 5), (2, 1, 3, 2, 700), (2, 2, 4, 2, 3000),
        (2, 2, 2, 3, 4), (2, 3, 1, 1, 9), (2, 3, 3, 3, 1500), (2, 8, 1, 2, 40),
        (2, 9, 4, 1, 1), (2, 10, 2, 3, 7), (2, 10, 3, 2, 40), (3, 1, 2, 2, 500),
        (3, 3, 2, 2, 7), (5, 1, 3, 1, 40),
    ])
    def test_layout_switch_keeps_rows(self, monkeypatch, b, m, d, alpha, R):
        # a chunk with more keys than points scrambles with the keys last,
        # one with fewer with the points last, in every base; each row still
        # equals its key's single-key call, and so does a call whose chunks
        # hold one key each
        n = b**m
        nums = key_array(100 * m + d, n * d * alpha).reshape(n, d * alpha) % np.uint64(n)
        rule = ScrambledRule(b, m, nums, alpha)
        keys_ = key_array(R, R)
        pts, digs = rule.points(keys_), rule.digits(keys_)
        for i in range(R):
            assert np.array_equal(pts[i], rule.points(keys_[i:i + 1])[0])
            assert np.array_equal(digs[i], rule.digits(keys_[i:i + 1])[0])
        monkeypatch.setattr(scramble, "CHUNK_BYTES", 1)
        assert np.array_equal(rule.points(keys_), pts)
        assert np.array_equal(rule.digits(keys_), digs)

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
            "ev = bank.integrand().evaluator\n"
            "est = empirical_variance(spec, lambda x: ev([bank.active], x[None], 0.5)[0], 500)\n"
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
