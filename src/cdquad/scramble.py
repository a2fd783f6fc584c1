"""Nested uniform (Owen) scrambling and digit interlacing.

The scramble is realized with a counter-based PRF: the permutation applied
to digit t of a coordinate is a deterministic function of (key, t, digits
1..t-1 of the original point), so replications and per-coordinate streams
are reproducible and mutually independent by key separation.  Keys come
from the caller (see quadrature.rule_keys); nothing here derives them.

Digit strings travel between the layers (numerators_to_digits,
scramble_digit_matrix, interlace_digit_matrices, digits_to_floats) in one
form per base: PackedDigits in base 2, 64 digits to a uint64 word with digit
0 in the top bit, and (..., prec) uint8 matrices, most significant first, in
every other base.  A base-2 layer given a uint8 matrix raises ValueError.
Interlacing gives all alpha*prec output digits in both forms: packed streams
are bit-interleaved (in base 2 Dick's digit interlacing is bit
interleaving), and uint8 streams are interlaced digit by digit, in any base.

Base 2 hashes each node of the scramble tree once (after Friedel and Keller,
"Fast generation of randomized low-discrepancy point sets", and the exact
hash-based variant of Burley, "Practical hash-based Owen scrambling").  In
base 2 the permutation of a digit is either the identity or a flip, so Owen's
scramble is one random bit per tree node:
- Digit t of a point with m = in_prec digits is flipped by bit 0 of the hash
  of its prefix node (t, p), p the point's first t digits, at heap index
  2^t + p.  All 2^m - 1 nodes are hashed once per key and gathered by prefix,
  or, when a key scrambles fewer points than there are nodes, each point
  hashes its own m prefixes.
- Past digit m the prefix is the point's whole value followed by zeros, so
  the node bits below the point form one path that only the value selects.
  One 64-bit hash of (key, value), in a domain apart from the node hashes,
  gives all of those bits at once: equal values get equal tails and distinct
  values independent ones, exactly as in the nested scramble.
Other bases draw a permutation of F_b per digit and prefix, level by level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .prf import mix64_array

_MASK = 0xFFFFFFFFFFFFFFFF
_DEPTH = 0xD1B54A32D192ED03
_DIGIT = np.uint64(0x9E3779B97F4A7C15)
_VALUE = 0x94D049BB133111EB
# hash domains of the base-2 scramble: tree nodes, and tail word k of a value
_NODE = np.uint64(0xA0761D6478BD642F)
_TAIL = 0xE7037ED1A0B428DB


def _const(mult: int, k: int) -> np.uint64:
    return np.uint64((mult * k) & _MASK)

#: float output keeps at most this many base-b digits (b=2 gives full doubles)
MAX_FLOAT_DIGITS_B2 = 53
#: base-2 point values and node indices must fit a 64-bit word with room to spare
MAX_BASE2_DIGITS = 32
#: digits are held as uint8, so the base is at most this: digit b - 1 fits a byte
MAX_BASE = 256
#: keyed work runs over chunks of keys whose per-key output totals about this
#: many bytes (see key_chunks), so its memory is bounded by a chunk whatever
#: the number of keys.  1 MB keeps a chunk's temporaries below glibc's dynamic
#: mmap and trim thresholds, so their pages are reused from chunk to chunk
#: instead of going back to the kernel: a steady-state benchmark study took
#: 28K minor faults on cd-pairs and 18K on cd-product at 2 MB, and 5-6K at
#: 1 MB.  512 KB costs 8-21 % more study time in per-chunk overhead.
CHUNK_BYTES = 1 << 20


def key_chunks(count: int, bytes_per_key: int) -> list[slice]:
    """Consecutive slices of range(count), each of as many keys as fit
    CHUNK_BYTES at bytes_per_key, and at least one."""
    step = max(1, CHUNK_BYTES // max(1, bytes_per_key))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def check_base(b: int) -> None:
    if b > MAX_BASE:
        raise ValueError(f"digit base must be at most {MAX_BASE} (digits are uint8), got {b}")


def float_digit_cap(b: int) -> int:
    return int(MAX_FLOAT_DIGITS_B2 / np.log2(b))


class PackedDigits:
    """Base-2 digit strings packed into uint64 words.

    words has shape (..., k), k >= 1: digit t of a string is bit 63 - t % 64
    of its word t // 64, count digits are held and the bits past them are
    zero.  shape and size are those of the (..., count) uint8 digit matrix
    the strings stand for, so size is the number of digits held.
    """

    __slots__ = ("words", "count")

    def __init__(self, words: np.ndarray, count: int):
        self.words = words
        self.count = count

    @property
    def shape(self) -> tuple:
        return self.words.shape[:-1] + (self.count,)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def digits(self) -> np.ndarray:
        """The (..., count) uint8 digit matrix."""
        return _word_digits(self.words, self.count)


def _word_digits(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of each row of uint64 words, most significant
    first, as digits: (..., k) words give (..., count) digits."""
    raw = np.asarray(words, dtype=">u8").view(np.uint8)
    return np.unpackbits(raw[..., :-(-count // 8)], axis=-1, count=count)


def numerators_to_digits(coords: np.ndarray, b: int, m: int) -> np.ndarray | PackedDigits:
    """Base-b digits of coords / b^m, most significant first: m-digit
    PackedDigits in base 2 (m <= 64), a (..., m) uint8 matrix otherwise."""
    coords = np.asarray(coords, dtype=np.uint64)
    if b == 2:
        # numpy shifts by 64 or more give zero, so m = 0 packs to zero words
        return PackedDigits((coords << np.uint64(64 - m))[..., None], m)
    out = np.empty(coords.shape + (m,), dtype=np.uint8)
    x = coords.copy()
    for t in range(m - 1, -1, -1):
        out[..., t] = (x % np.uint64(b)).astype(np.uint8)
        x //= np.uint64(b)
    return out


def _check_form(digits, b: int) -> None:
    if isinstance(digits, PackedDigits) != (b == 2):
        raise ValueError(f"digits are PackedDigits in base 2 and uint8 matrices in other "
                         f"bases; got {type(digits).__name__} for base {b}")


def digits_to_floats(digits: np.ndarray | PackedDigits, b: int) -> np.ndarray:
    """The points in [0, 1) of digit strings, rounded down to their first
    float_digit_cap(b) digits."""
    _check_form(digits, b)
    if b == 2:
        # the first 53 digits of a word are exactly the double's significand
        word = digits.words[..., 0] >> np.uint64(64 - MAX_FLOAT_DIGITS_B2)
        return word.astype(np.float64) * 2.0**-MAX_FLOAT_DIGITS_B2
    prec = min(digits.shape[-1], float_digit_cap(b))
    scale = float(b) ** -np.arange(1, prec + 1)
    return digits[..., :prec].astype(np.float64) @ scale


def _node_flips(node_key: np.ndarray, prefix: np.ndarray, depth: int) -> np.ndarray:
    """Flip words of the first `depth` digits: bit depth-1-t is bit 0 of the
    hash of node (t, first t digits of prefix).  node_key and prefix have
    equal ndim and broadcast together."""
    shape = np.broadcast_shapes(node_key.shape, prefix.shape)
    if 2**depth - 1 <= math.prod(shape) // node_key.size:
        # hash every node once per key, then build the flip word of each
        # prefix one tree level at a time.  No node reads the last digit, so
        # the table holds the 2^(depth-1) prefixes of depth-1 digits, in
        # uint32 words (depth <= MAX_BASE2_DIGITS)
        heap = np.arange(1, 2**depth, dtype=np.uint64)
        bits = mix64_array(node_key[..., None] ^ heap)
        bits &= np.uint64(1)
        bits = bits.astype(np.uint32)
        table = np.zeros(node_key.shape + (1,), dtype=np.uint32)
        for t in range(depth):
            table <<= np.uint32(1)
            table |= bits[..., 2**t - 1:2 ** (t + 1) - 1]
            if t < depth - 1:
                table = np.repeat(table, 2, axis=-1)
        row = np.arange(node_key.size, dtype=np.intp).reshape(node_key.shape) * 2 ** (depth - 1)
        return np.take(table.reshape(-1), row + (prefix >> np.uint64(1)).astype(np.intp))
    flips = np.zeros(shape, dtype=np.uint64)
    for t in range(depth):
        node = (prefix >> np.uint64(depth - t)) | np.uint64(1 << t)
        flips = (flips << np.uint64(1)) | (mix64_array(node_key ^ node) & np.uint64(1))
    return flips


def _scramble_words(digits: PackedDigits, key: np.ndarray, out_prec: int) -> PackedDigits:
    """Base-2 Owen scramble from one hash per tree node and one per value
    (see the module docstring)."""
    in_prec = digits.count
    if in_prec > MAX_BASE2_DIGITS:
        raise ValueError(
            f"base-2 scrambling supports at most {MAX_BASE2_DIGITS} input digits, got {in_prec}")
    shape = np.broadcast_shapes(digits.shape[:-1], key.shape)
    key = key.reshape((1,) * (len(shape) - key.ndim) + key.shape)
    value = digits.words[..., 0] >> np.uint64(64 - in_prec)
    value = value.reshape((1,) * (len(shape) - value.ndim) + value.shape)
    head = min(in_prec, out_prec)
    words = []  # the out_prec scrambled digits as a string of 64-bit words
    if head:
        prefix = value >> np.uint64(in_prec - head)
        scrambled = prefix ^ _node_flips(mix64_array(key ^ _NODE), prefix, head)
        scrambled <<= np.uint64(64 - head)
        words.append(scrambled)
    for k in range(-(-(out_prec - head) // 64)):
        tail = mix64_array(mix64_array(key ^ _const(_TAIL, k + 1)) ^ value)
        if head:
            # the tail digits follow the head digits in the word string
            words[-1] |= tail >> np.uint64(head)
            tail <<= np.uint64(64 - head)
        if len(words) < -(-out_prec // 64):
            words.append(tail)
    if not words:
        return PackedDigits(np.zeros(shape + (1,), dtype=np.uint64), 0)
    if out_prec % 64:
        # the digits past out_prec are zero
        words[-1] &= np.uint64(_MASK << (64 - out_prec % 64) & _MASK)
    return PackedDigits(np.stack(words, axis=-1) if len(words) > 1 else words[0][..., None],
                        out_prec)


def scramble_digit_matrix(
    digits: np.ndarray | PackedDigits, b: int, key: np.ndarray | int, out_prec: int
) -> np.ndarray | PackedDigits:
    """Owen-scramble one coordinate given its original digit matrix.

    digits: PackedDigits in base 2, (..., in_prec) uint8 otherwise; the
    output is in the same form.  key: uint64, broadcastable against the
    leading axes (an array key scrambles each slice with an independent
    stream).  Digits past in_prec are treated as zero, so out_prec > in_prec
    extends the points to full precision as the scrambling of ...000.  Base
    2 takes at most MAX_BASE2_DIGITS input digits.
    """
    key = np.asarray(key, dtype=np.uint64)
    _check_form(digits, b)
    if b == 2:
        return _scramble_words(digits, key, out_prec)
    digits = np.asarray(digits, dtype=np.uint8)
    in_prec = digits.shape[-1]
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
        with np.errstate(over="ignore"):  # wraps; 0-d input multiplies scalars
            prefix = mix64_array(prefix ^ ((d + np.uint64(1)) * _DIGIT))
    return out


@lru_cache(maxsize=None)
def _spread_steps(alpha: int, keep: int) -> tuple:
    """(shift, mask) steps that move bit i of a keep-bit integer to bit
    i*alpha: step j moves the bits whose index has bit j set, highest j
    first, and the mask keeps each bit at its place after that step."""
    steps = []
    for j in range((keep - 1).bit_length() - 1 if alpha > 1 else -1, -1, -1):
        low = (1 << j) - 1
        mask = sum(1 << ((i & ~low) * alpha + (i & low)) for i in range(keep))
        steps.append((np.uint64((1 << j) * (alpha - 1)), np.uint64(mask)))
    return tuple(steps)


def _interlace_words(streams: PackedDigits) -> PackedDigits:
    """Bit interleaving of alpha packed streams of at most 64 digits,
    (alpha, ...) strings, into all alpha*prec output digits."""
    alpha, prec = streams.shape[0], streams.count
    if streams.words.shape[-1] > 1:
        raise ValueError(f"packed streams hold at most 64 digits, got {prec}")
    keep = min(-(-64 // alpha), prec)  # the most digits of a stream in one output word
    words = []
    for k in range(max(1, -(-alpha * prec // 64))):
        # digit first[r] of stream r is its first one in output word k
        first = [-((r - 64 * k) // alpha) for r in range(alpha)]
        # digits first[r].. of stream r at bits keep-1.., spread to bits
        # (keep-1)*alpha..
        x = streams.words[..., 0]
        if k:
            x = x << np.array(first, dtype=np.uint64).reshape((alpha,) + (1,) * (x.ndim - 1))
        x = x >> np.uint64(64 - keep)
        for shift, mask in _spread_steps(alpha, keep):
            x |= x << shift
            x &= mask
        # lifted in place so that digit first[r] + i lands at output digit
        # (first[r] + i)*alpha + r; digits pushed past the word fall off
        for r in range(alpha):
            lift = 63 - max(keep - 1, 0) * alpha - (first[r] * alpha + r - 64 * k)
            if lift >= 0:
                x[r] <<= np.uint64(lift)
            else:
                x[r] >>= np.uint64(-lift)
        word = x[0]
        for r in range(1, alpha):
            word |= x[r]
        words.append(word)
    return PackedDigits(np.stack(words, axis=-1) if len(words) > 1 else words[0][..., None],
                        alpha * prec)


def interlace_digit_matrices(streams: np.ndarray | PackedDigits) -> np.ndarray | PackedDigits:
    """Digit interlacing of alpha equally deep digit streams.

    streams: (alpha, ..., prec), PackedDigits of at most 64 digits or a
    uint8 matrix in any base; the output, in the same form, is (...,
    alpha*prec), and its digit at position r + (d-1)*alpha is digit d of
    stream r.
    """
    if isinstance(streams, PackedDigits):
        return _interlace_words(streams)
    alpha = streams.shape[0]
    prec = streams.shape[-1]
    out = np.empty(streams.shape[1:-1] + (prec, alpha), dtype=streams.dtype)
    # one stream at a time: long runs of contiguous reads, unlike one copy
    # of the transposed (..., prec, alpha) view
    for r in range(alpha):
        out[..., r] = streams[r]
    return out.reshape(streams.shape[1:-1] + (prec * alpha,))


#: uint64 temporaries per stream and point that a packed base-2 chunk holds
#: at its peak: the scrambled words, and the hashing or bit-spreading
#: working set beside them
_WORD_TEMPS = 5


class ScrambledRule:
    """Randomized interlaced point generator over a fixed lattice point set.

    Each replication key is split into one key per input stream (output
    coordinate j, interlacing depth r), so distinct output coordinates are
    scrambled independently (the property that lets the rule commute with
    projections onto coordinate subsets).  The streams' digits are built
    once per rule, as PackedDigits in base 2 and uint8 matrices otherwise;
    keys are scrambled in chunks, and row i of every output depends on key
    i alone.  Base-2 digits stay packed up to the floats of points() and
    unpack only at the end of digits().
    """

    def __init__(self, b: int, m: int, numerators: np.ndarray, alpha: int):
        check_base(b)
        self.b = b
        self.m = m
        self.alpha = alpha
        num = np.asarray(numerators, dtype=np.uint64)
        if num.ndim != 2 or num.shape[1] % alpha:
            raise ValueError("numerators must be (n, d*alpha)")
        self.n, S = num.shape
        self.d = S // alpha
        self.prec = max(m, -(-float_digit_cap(b) // alpha))
        # the stream digits (r, 1, point, j): scrambled against stream keys
        # (r, rep, 1, j), the alpha streams of an output coordinate come out
        # first, as interlacing takes them
        self._streams = numerators_to_digits(
            num.reshape(self.n, self.d, alpha).transpose(2, 0, 1)[:, None], b, m)
        # stream u = j * alpha + r of each key gets its own key
        self._stream_salt = np.array([_const(_VALUE, u + 1) for u in range(S)])

    def _chunks(self, R: int):
        # per stream and point a chunk holds its packed words, or its
        # scrambled uint8 digits and their interlaced copy
        per_point = 8 * _WORD_TEMPS if self.b == 2 else 2 * self.prec
        return key_chunks(R, per_point * self._stream_salt.size * self.n)

    def points(self, keys: np.ndarray) -> np.ndarray:
        """Point arrays of shape (R, n, d), one independent scramble per key."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((len(keys), self.n, self.d))
        for rows in self._chunks(len(keys)):
            digs = self._interlaced(keys[rows])
            if self.b == 2:
                out[rows] = digits_to_floats(digs, 2)
            else:
                # one output coordinate at a time: the base-b matmul rounds
                # by the layout it is given, and this layout keeps its rounding
                for j in range(self.d):
                    out[rows, :, j] = digits_to_floats(digs[:, :, j], self.b)
            del digs  # free this chunk's digits before the next is scrambled
        return out

    def digits(self, keys: np.ndarray | None) -> np.ndarray:
        """Exact interlaced output digits, shape (R, n, d, alpha*prec); keys
        None gives the unscrambled net, shape (1, n, d, alpha*m)."""
        if keys is None:
            return _unpacked(self._interlaced(None))
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((len(keys), self.n, self.d, self.alpha * self.prec), dtype=np.uint8)
        for rows in self._chunks(len(keys)):
            out[rows] = _unpacked(self._interlaced(keys[rows]))
        return out

    def _interlaced(self, keys: np.ndarray | None) -> np.ndarray | PackedDigits:
        # the interlaced digits of the streams scrambled by each key, or of
        # the streams as they are, axes (rep, point, j)
        streams = self._streams
        if keys is not None:
            # one key per replication and stream, axes (r, rep, 1, j)
            stream_keys = mix64_array(keys[:, None] ^ self._stream_salt).reshape(
                len(keys), self.d, self.alpha).transpose(2, 0, 1)[:, :, None]
            streams = scramble_digit_matrix(streams, self.b, stream_keys, self.prec)
        return interlace_digit_matrices(streams)


def _unpacked(digits: np.ndarray | PackedDigits) -> np.ndarray:
    return digits.digits() if isinstance(digits, PackedDigits) else digits
