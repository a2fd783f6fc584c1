"""Nested uniform (Owen) scrambling and digit interlacing.

The scramble is realized with a counter-based PRF: the permutation applied
to digit t of a coordinate is a deterministic function of (key, t, digits
1..t-1 of the original point), so replications and per-coordinate streams
are reproducible and mutually independent by key separation.  Keys come
from the caller (see quadrature.rule_keys); nothing here derives them.  Digits are
handled as (..., prec) uint8 matrices, most significant first, which keeps
the whole pipeline vectorized and allows interlaced outputs with more
digits than fit in a machine word.
"""

from __future__ import annotations

import numpy as np

from .prf import mix64_array

_MASK = 0xFFFFFFFFFFFFFFFF
_DEPTH = 0xD1B54A32D192ED03
_DIGIT = np.uint64(0x9E3779B97F4A7C15)
_VALUE = 0x94D049BB133111EB


def _const(mult: int, k: int) -> np.uint64:
    return np.uint64((mult * k) & _MASK)

#: float output keeps at most this many base-b digits (b=2 gives full doubles)
MAX_FLOAT_DIGITS_B2 = 53


def float_digit_cap(b: int) -> int:
    return int(MAX_FLOAT_DIGITS_B2 / np.log2(b))


def numerators_to_digits(coords: np.ndarray, b: int, m: int) -> np.ndarray:
    """Base-b digits of coords / b^m, most significant first, shape (..., m)."""
    coords = np.asarray(coords, dtype=np.uint64)
    out = np.empty(coords.shape + (m,), dtype=np.uint8)
    x = coords.copy()
    for t in range(m - 1, -1, -1):
        out[..., t] = (x % np.uint64(b)).astype(np.uint8)
        x //= np.uint64(b)
    return out


def digits_to_floats(digits: np.ndarray, b: int) -> np.ndarray:
    prec = min(digits.shape[-1], float_digit_cap(b))
    scale = float(b) ** -np.arange(1, prec + 1)
    return digits[..., :prec].astype(np.float64) @ scale


def scramble_digit_matrix(
    digits: np.ndarray, b: int, key: np.ndarray | int, out_prec: int
) -> np.ndarray:
    """Owen-scramble one coordinate given its original digit matrix.

    digits: (..., in_prec) uint8.  key: uint64, broadcastable against the
    leading axes (an array key scrambles each slice with an independent
    stream).  Digits past in_prec are treated as zero, so out_prec > in_prec
    extends the points to full precision as the scrambling of ...000.
    """
    digits = np.asarray(digits, dtype=np.uint8)
    in_prec = digits.shape[-1]
    key = np.asarray(key, dtype=np.uint64)
    shape = np.broadcast_shapes(digits.shape[:-1], key.shape)
    prefix = np.broadcast_to(mix64_array(key), shape).copy()
    zero = np.zeros(shape, dtype=np.uint64)
    out = np.empty(shape + (out_prec,), dtype=np.uint8)
    for t in range(out_prec):
        if t < in_prec:
            d = np.broadcast_to(digits[..., t], shape).astype(np.uint64)
        else:
            d = zero
        node = mix64_array(prefix ^ _const(_DEPTH, t + 1))
        if b == 2:
            out[..., t] = (d ^ (node & np.uint64(1))).astype(np.uint8)
        else:
            # perm(v) = rank of a per-value hash; uniform over S_b, with the
            # value index breaking the (measure-zero) ties deterministically
            vk = np.stack(
                [mix64_array(node ^ _const(_VALUE, v + 1)) for v in range(b)]
            )
            kd = np.take_along_axis(vk, d[None].astype(np.intp), axis=0)[0]
            rank = np.zeros(shape, dtype=np.uint8)
            for v in range(b):
                rank += ((vk[v] < kd) | ((vk[v] == kd) & (v < d))).astype(np.uint8)
            out[..., t] = rank
        prefix = mix64_array(prefix ^ ((d + np.uint64(1)) * _DIGIT))
    return out


def interlace_digit_matrices(streams: np.ndarray) -> np.ndarray:
    """Digit interlacing of alpha equally deep digit streams.

    streams: (alpha, ..., prec).  Output digit at position r + (d-1)*alpha
    is digit d of stream r, giving shape (..., alpha*prec).
    """
    alpha = streams.shape[0]
    prec = streams.shape[-1]
    moved = np.moveaxis(streams, 0, -1)  # (..., prec, alpha)
    return moved.reshape(streams.shape[1:-1] + (prec * alpha,))


class ScrambledRule:
    """Randomized interlaced point generator over a fixed lattice point set.

    Each replication key is split into one key per input stream (output
    coordinate j, interlacing depth r), so distinct output coordinates are
    scrambled independently (the property that lets the rule commute with
    projections onto coordinate subsets).
    """

    def __init__(self, b: int, m: int, numerators: np.ndarray, alpha: int,
                 prec: int | None = None):
        self.b = b
        self.m = m
        self.alpha = alpha
        num = np.asarray(numerators, dtype=np.uint64)
        if num.ndim != 2 or num.shape[1] % alpha:
            raise ValueError("numerators must be (n, d*alpha)")
        self.numerators = num
        self.d = num.shape[1] // alpha
        cap = float_digit_cap(b)
        self.prec = prec if prec is not None else max(m, -(-cap // alpha))

    def points(self, keys: np.ndarray) -> np.ndarray:
        """Point arrays of shape (R, n, d), one independent scramble per key."""
        digs = self.digits(keys)
        out = np.empty(digs.shape[:3])
        # one output coordinate at a time bounds the float temporaries
        for jout in range(self.d):
            out[:, :, jout] = digits_to_floats(digs[:, :, jout], self.b)
        return out

    def digits(self, keys: np.ndarray) -> np.ndarray:
        """Exact interlaced output digits, shape (R, n, d, alpha*prec)."""
        keys = np.asarray(keys, dtype=np.uint64)
        n = self.numerators.shape[0]
        S = self.d * self.alpha
        # one scramble pass over all streams: axis layout (stream, rep, point)
        stream_keys = np.stack([mix64_array(keys ^ _const(_VALUE, u + 1)) for u in range(S)])
        digits = np.stack(
            [numerators_to_digits(self.numerators[:, u], self.b, self.m) for u in range(S)]
        )
        scrambled = scramble_digit_matrix(
            digits[:, None, :, :], self.b, stream_keys[:, :, None], self.prec
        )  # (S, R, n, prec)
        out = np.empty((len(keys), n, self.d, self.alpha * self.prec), dtype=np.uint8)
        for jout in range(self.d):
            streams = scrambled[jout * self.alpha:(jout + 1) * self.alpha]
            out[:, :, jout] = interlace_digit_matrices(streams)
        return out
