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
Interlacing gives all alpha*prec output digits in both forms, digit by digit
in any base: packed streams are unpacked, interlaced as uint8 digits and
packed again.  A Net holds alpha streams with their interlacing, made once
per point set; scramble_digit_matrix takes a Net and returns the interlaced
scramble of its streams.

Base 2 scrambles in interlaced form.  Interlacing is a fixed permutation of
bit positions, so it commutes with the scramble's flips: interlace(v ^ f) =
interlace(v) ^ interlace(f).  A Net interlaces its unscrambled streams once,
and each key only makes random bits, written straight into their output
slots (digit t of stream r is output digit t*alpha + r, bit 63 - (t*alpha +
r) % 64 of word (t*alpha + r) // 64) and XORed onto the net's words; no
scrambled word is interlaced again.  Each node of the scramble tree is
hashed once (after Friedel and Keller, "Fast generation of randomized
low-discrepancy point sets", and the exact hash-based variant of Burley,
"Practical hash-based Owen scrambling").  In base 2 the permutation of a
digit is either the identity or a flip, so Owen's scramble is one random bit
per tree node:
- Digit t of a stream value with m = in_prec digits is flipped by the bit of
  its prefix node (t, p), p the value's first t digits.  The nodes of level
  t have indices 2^t + q, q the prefix read backwards (digit 0 lowest), and
  node i takes bit i % 64 of mix64(node_key ^ i // 64): one hash gives 64
  nodes, ceil(2^m / 64) per key and stream.  The nodes' bits go to their
  slots, and a table per key over the prefixes of m - 1 digits, built one
  level at a time, is gathered by each value's prefix; when a key scrambles
  fewer values than there are nodes, each value hashes its own m prefixes.
- Past digit m the prefix is the value followed by zeros, so the node bits
  below it form one path that only the value selects: the nested scramble
  needs equal tails for equal values and independent ones for distinct
  values, in each stream.  In output word k, the digits past m of all alpha
  streams of an output coordinate are mix64(mix64(key_0 ^ TAIL_k) ^ v_0)
  masked to their slots in word k, key_0 and v_0 the key and value of the
  coordinate's first stream: one hash per output-coordinate value and word,
  in a domain apart from the node hashes.  Each stream of a lattice rule
  holds every m-digit value once (h -> h*q_j mod p is a bijection for q_j
  != 0 and p irreducible), so v_0 and the value of stream r determine each
  other, and stream r's tails are a function of its value, independent
  between distinct values and, in disjoint slots, between streams: the law
  of the nested scramble, exactly.  The law is exact whenever the points'
  values are distinct in every stream, as in every lattice rule, and at
  alpha = 1 the hash is one per stream value.  Otherwise every digit stays
  uniform, so estimates stay unbiased: points that share a first-stream
  value share all their tails, and points that share only another stream's
  value get independent tails in it.
Other bases draw a permutation of F_b per digit and prefix, level by level,
and interlace the scrambled digits.

ScrambledRule lays each base-2 chunk of keys out with the longer of its
two axes, keys or points, last, so that every key-against-point broadcast
(the flip-table offsets, the tail hash's input) runs numpy's inner loop
along it: (r, rep, j, point) (interlacing depth r, replication, output
coordinate j) when the chunk has at least as many points as keys, (r, j,
point, rep) when it has more keys; the tail hashes, one per output
coordinate, drop the r axis.  Both layouts are views of one Net, and a
key's rows do not depend on the layout.  On a 2-vCPU Xeon VM a uint64 add
of keys against points, (2, R, 4, 1) + (2, 1, 4, n) with the points last,
took 6.1, 3.6 and 2.3 ns an element at n = 2, 4 and 8 (R = 3300, 3000 and
2000), against 0.28, 0.31 and 0.95 ns with the keys last; at n = 1024 and
R = 40 it took 1.07 ns with the points last and 1.30 ns with the keys last.
Other bases keep the points last, as their floats are a matrix product
whose rounding depends on the matrix shape.  Each chunk's output is
transposed once into the public (R, n, d) and (R, n, d, digits) shapes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .prf import _mix64_inplace, mix64_array

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


def _packed(digits: np.ndarray) -> PackedDigits:
    """(..., count) uint8 base-2 digits as PackedDigits, the inverse of
    PackedDigits.digits: packed into big-endian words, zero past count."""
    count = digits.shape[-1]
    raw = np.packbits(digits, axis=-1)
    buf = np.zeros(digits.shape[:-1] + (8 * max(1, -(-count // 64)),), dtype=np.uint8)
    buf[..., :raw.shape[-1]] = raw
    return PackedDigits(buf.view(">u8").astype(np.uint64), count)


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


@lru_cache(maxsize=None)
def _layout(alpha: int, m: int, prec: int) -> tuple:
    """Where alpha interlaced m-digit streams scrambled to prec digits put
    their digits: digit t of stream r is output digit t*alpha + r, bit
    63 - (t*alpha + r) % 64 of output word (t*alpha + r) // 64.  Returns
    (heads, tails, nets), one entry per output word k:
    - heads[k]: (alpha, m) uint64 shifts that move a node bit from bit 0 to
      the slot of digit t < min(m, prec) of stream r in word k, 64 (which
      shifts it out) where that slot is in another word, or None when word k
      holds no such digit;
    - tails[k]: the uint64 mask of the slots of digits m..prec-1 of all
      alpha streams in word k, or None when it holds none of them;
    - nets[k]: the mask that keeps the first alpha*prec output digits of
      word k of the unscrambled net (alpha*m digits), for its words only."""
    count = alpha * prec
    heads, tails, nets = [], [], []
    for k in range(max(1, -(-count // 64))):
        slot = np.arange(m + prec)[None, :] * alpha + np.arange(alpha)[:, None] - 64 * k
        inside = (slot >= 0) & (slot < 64)
        bit = np.where(inside, 63 - slot, 64).astype(np.uint64)
        head = bit[:, :min(m, prec)]
        heads.append(np.pad(head, ((0, 0), (0, m - head.shape[1])), constant_values=64)
                     if (head < 64).any() else None)
        tail = sum(1 << int(v) for v in bit[:, m:prec].ravel() if v < 64)
        tails.append(np.uint64(tail) if tail else None)
        if 64 * k < alpha * m:
            keep = min(64, max(0, count - 64 * k))
            nets.append(np.uint64(((1 << keep) - 1) << (64 - keep)))
    return heads, tails, nets


@lru_cache(maxsize=32)
def _node_lifts(alpha: int, m: int, prec: int) -> dict:
    """The head shifts of _layout per tree node rather than per level, for
    its words with head digits: k -> (alpha, 2^m) uint64, entry [r, i] the
    shift of node i's level (64 for the unused node 0)."""
    level = np.frexp(np.arange(2**m))[1] - 1  # -1 for node 0: the column of 64s
    return {k: np.concatenate([h, np.full((alpha, 1), 64, dtype=np.uint64)], axis=1)[:, level]
            for k, h in enumerate(_layout(alpha, m, prec)[0]) if h is not None}


def _node_flips(node_key: np.ndarray, index: np.ndarray, alpha: int, m: int, prec: int) -> list:
    """For each output word k of _layout(alpha, m, prec), the flip bits of
    its head digits in their slots, or None where it holds none.  The flip
    of digit t of a value is bit i % 64 of mix64(node_key ^ i // 64), i =
    2^t + (its first t digits read backwards) the index of its node.
    node_key and index, (alpha, ...), have equal ndim and broadcast
    together; index holds each value's first m - 1 digits read backwards."""
    heads = _layout(alpha, m, prec)[0]
    shape = np.broadcast_shapes(node_key.shape, index.shape)
    if 2**m - 1 > math.prod(shape) // node_key.size:
        # fewer points than nodes per key: each point hashes its own prefixes
        lead = (alpha,) + (1,) * (len(shape) - 1)
        flips = [None if h is None else np.zeros(shape, dtype=np.uint64) for h in heads]
        prefix = index.astype(np.uint64)
        for t in range(min(m, prec)):
            node = (prefix & np.uint64(2**t - 1)) | np.uint64(2**t)
            bit = _mix64_inplace(node_key ^ (node >> np.uint64(6)))
            bit >>= node & np.uint64(63)
            bit &= np.uint64(1)
            for flip, h in zip(flips, heads):
                if flip is not None:
                    flip |= bit << h[:, t].reshape(lead)
        return flips
    # one table per key and word over the 2^(m-1) prefixes that the nodes
    # read (no node reads the last digit), laid out (alpha, node, keys...)
    # so that every step runs its inner loop along the keys, which a small
    # tree's few nodes would cut short.  Node i's bit is bit i % 64 of node
    # word i // 64, so tree level t is nodes 2^t..: all node bits go to
    # their slots at once, then each level takes in the flips of the level
    # above.  Read backwards, the prefixes of t digits are those of t - 1
    # digits, then those again with digit t - 1 set, so the level above
    # lands on both halves of a level
    rest = node_key.shape[1:]
    words = np.arange(-(-2**m // 64), dtype=np.uint64).reshape((1, -1, 1) + (1,) * len(rest))
    bits = _mix64_inplace(node_key[:, None, None] ^ words) >> np.arange(
        min(64, 2**m), dtype=np.uint64).reshape((-1,) + (1,) * len(rest))
    bits = bits.reshape((alpha, 2**m) + rest)
    bits &= np.uint64(1)
    lifts = _node_lifts(alpha, m, prec)
    tables = {}
    for k, lift in lifts.items():
        table = np.left_shift(bits, lift.reshape(lift.shape + (1,) * len(rest)),
                              out=bits if k == max(lifts) else None)
        for t in range(1, m):
            level = table[:, 2**t:2 ** (t + 1)].reshape((alpha, 2, 2 ** (t - 1)) + rest)
            level |= table[:, None, 2 ** (t - 1):2**t]
        tables[k] = table
    del bits, table
    # the flat offset of each point's entry: its stream's table, at its
    # prefix among the nodes of level m - 1, at its key
    span = math.prod(rest)
    at = ((np.arange(alpha, dtype=np.intp) * 2**m + 2 ** (m - 1)) * span).reshape(
        (alpha,) + (1,) * len(rest)) + np.arange(span, dtype=np.intp).reshape((1,) + rest)
    at = at + index * span
    return [np.take(tables[k].reshape(-1), at) if k in tables else None
            for k in range(len(heads))]


def _scramble_net(net: Net, key: np.ndarray, out_prec: int) -> PackedDigits:
    """The interlaced base-2 Owen scramble of a net's streams, written into
    the net's words (see the module docstring).  key: (alpha, ...), one key
    per stream, broadcastable against the streams."""
    m = net.streams.count
    if m > MAX_BASE2_DIGITS:
        raise ValueError(
            f"base-2 scrambling supports at most {MAX_BASE2_DIGITS} input digits, got {m}")
    alpha = net.streams.shape[0]
    # numpy shifts by 64 or more give zero, so m = 0 gives zero values
    values = net.streams.words[..., 0] >> np.uint64(64 - m)
    shape = np.broadcast_shapes(values.shape, key.shape)
    key = key.reshape((1,) * (len(shape) - key.ndim) + key.shape)
    values = values.reshape((1,) * (len(shape) - values.ndim) + values.shape)
    heads, tails, nets = _layout(alpha, m, out_prec)
    parts = [None] * len(tails)  # per output word, each stream's node flips
    if any(h is not None for h in heads):
        parts = _node_flips(_mix64_inplace(key ^ _NODE), net.index.reshape(values.shape),
                            alpha, m, out_prec)
    words = []
    for k, (part, mask) in enumerate(zip(parts, tails)):
        word = np.zeros(shape[1:], dtype=np.uint64) if part is None else (
            np.bitwise_xor.reduce(part, axis=0) if alpha > 1 else part[0])
        if mask is not None:
            # one hash per output coordinate and point gives the tails of all
            # its streams, from the first stream's key and value (sliced, so
            # that the hash runs on ndarrays, not on numpy scalars)
            tail = _mix64_inplace(mix64_array(key[:1] ^ _const(_TAIL, k + 1)) ^ values[:1])
            tail &= mask
            word ^= tail[0]
        if k < len(nets):
            word ^= net.net.words[..., k] & nets[k]
        words.append(word)
    return PackedDigits(np.stack(words, axis=-1) if len(words) > 1 else words[0][..., None],
                        alpha * out_prec)


def scramble_digit_matrix(
    digits: np.ndarray | PackedDigits | Net, b: int, key: np.ndarray | int, out_prec: int
) -> np.ndarray | PackedDigits:
    """Owen-scramble digit streams given their original digits.

    digits: a Net of alpha streams, whose interlaced scramble is returned,
    (..., alpha*out_prec) digits, with key (alpha, ...) holding one key per
    stream; or the digits of one coordinate, (..., in_prec), the case alpha
    = 1, which gives (..., out_prec) digits.  Digits are PackedDigits in
    base 2 and uint8 matrices otherwise, and the output is in the same form.
    key: uint64, broadcastable against the leading axes (an array key
    scrambles each slice with an independent stream).  Digits past in_prec
    are treated as zero, so out_prec > in_prec extends the points to full
    precision as the scrambling of ...000.  Base 2 takes at most
    MAX_BASE2_DIGITS input digits.
    """
    key = np.asarray(key, dtype=np.uint64)
    if not isinstance(digits, Net):
        _check_form(digits, b)
        if b != 2:
            return _scramble_levels(digits, b, key, out_prec)
        digits, key = Net(PackedDigits(digits.words[None], digits.count)), key[None]
    _check_form(digits.streams, b)
    if b == 2:
        return _scramble_net(digits, key, out_prec)
    return interlace_digit_matrices(_scramble_levels(digits.streams, b, key, out_prec))


def _scramble_levels(digits: np.ndarray, b: int, key: np.ndarray, out_prec: int) -> np.ndarray:
    """The base-b scramble of (..., in_prec) uint8 digits: a permutation of
    F_b per digit and prefix, drawn level by level."""
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


def interlace_digit_matrices(streams: np.ndarray | PackedDigits) -> np.ndarray | PackedDigits:
    """Digit interlacing of alpha equally deep digit streams.

    streams: (alpha, ..., prec), PackedDigits or a uint8 matrix in any
    base; the output, in the same form, is (..., alpha*prec), and its digit
    at position r + (d-1)*alpha is digit d of stream r.  Both forms are
    interlaced digit by digit: PackedDigits are unpacked once, and their
    interlacing packed once.
    """
    if isinstance(streams, PackedDigits):
        return _packed(interlace_digit_matrices(streams.digits()))
    alpha = streams.shape[0]
    prec = streams.shape[-1]
    out = np.empty(streams.shape[1:-1] + (prec, alpha), dtype=streams.dtype)
    # one stream at a time: long runs of contiguous reads, unlike one copy
    # of the transposed (..., prec, alpha) view
    for r in range(alpha):
        out[..., r] = streams[r]
    return out.reshape(streams.shape[1:-1] + (prec * alpha,))


class Net:
    """alpha equally deep digit streams and their interlacing, made once and
    scrambled under any number of keys.

    streams: (alpha, ..., m), PackedDigits or a uint8 matrix; net is their
    interlace_digit_matrices in the same form, (..., alpha*m), the
    unscrambled point set, so packed streams are unpacked once per Net and
    never per key.  In base 2 the net also keeps the flip-table index of
    each stream value, shape (alpha, ...) intp: its first m - 1 digits read
    backwards, digit 0 lowest (see _node_flips).  The first stream's values
    key the tail digits of all alpha streams, which is the nested scramble
    when each stream's values are distinct, as in a lattice rule (see the
    module docstring).
    """

    __slots__ = ("streams", "net", "index")

    def __init__(self, streams: np.ndarray | PackedDigits):
        self.streams = streams
        self.net = interlace_digit_matrices(streams)
        self.index = None
        if isinstance(streams, PackedDigits):
            words = streams.words[..., 0]
            index = np.zeros(words.shape, dtype=np.uint64)
            for t in range(streams.count - 1):
                index |= (words >> np.uint64(63 - t) & np.uint64(1)) << np.uint64(t)
            self.index = index.astype(np.intp)

    def view(self, shape: tuple) -> Net:
        """The same net with the point axes of its arrays (the ... of
        (alpha, ..., m)) reshaped to shape: views of the same memory."""
        out = object.__new__(Net)
        out.streams = _reshaped(self.streams, (self.streams.shape[0],) + shape)
        out.net = _reshaped(self.net, shape)
        out.index = None if self.index is None else self.index.reshape(out.streams.shape[:-1])
        return out


def _reshaped(digits: np.ndarray | PackedDigits, shape: tuple) -> np.ndarray | PackedDigits:
    """Digit strings with their leading axes reshaped to shape, in the same
    form and, for contiguous strings, the same memory."""
    if isinstance(digits, PackedDigits):
        return PackedDigits(digits.words.reshape(shape + digits.words.shape[-1:]), digits.count)
    return digits.reshape(shape + digits.shape[-1:])


#: uint64 temporaries per stream and point that a packed base-2 chunk holds
#: at its peak: the node-bit table, the offsets into it and the gathered
#: flips, or the flips, the tail hash and the hash's working word
_WORD_TEMPS = 3
#: uint64 words per stream and key that a chunk holds besides those: its
#: stream key and node key at the peak (3n + 2 words a stream of n points
#: in a base-2 points() chunk), and one more, which keeps the chunk's few KB
#: of fixed-size temporaries inside the budget when n is small
_KEY_TEMPS = 3


class ScrambledRule:
    """Randomized interlaced point generator over a fixed lattice point set.

    Each replication key is split into one key per input stream (output
    coordinate j, interlacing depth r), so distinct output coordinates are
    scrambled independently (the property that lets the rule commute with
    projections onto coordinate subsets).  The streams' digits and their
    interlacing, the unscrambled net, are built once per rule (a Net), as
    PackedDigits in base 2 and uint8 matrices otherwise.  Keys are scrambled
    in chunks, and row i of every output depends on key i alone: base 2
    writes each chunk's node flips, hashed per stream, and tails, one hash
    per output coordinate from its first stream's key and value, into the
    slots of the net's words, other bases scramble the streams and
    interlace them.  points() makes only the digits its floats keep (one
    output word in base 2), digits() all alpha*prec; base-2 digits unpack
    only at the end of digits().
    A base-2 chunk holds the longer of its keys and its points last, the
    others the points (see the module docstring); each chunk's output goes
    to the (R, n, d[, digits]) arrays, transposed once, as it is written.
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
        # the stream digits (r, j, point), C-contiguous, the alpha streams
        # of an output coordinate first, as interlacing takes them;
        # numerators_to_digits keeps the memory order it is given, so the
        # transposed view is copied first.  A chunk reads them through one
        # of two views with a replication axis: (r, rep, j, point) or (r, j,
        # point, rep), whichever puts its longer axis last (see _scrambled)
        net = Net(numerators_to_digits(np.ascontiguousarray(
            num.reshape(self.n, self.d, alpha).transpose(2, 1, 0)), b, m))
        self._nets = (net.view((1, self.d, self.n)), net.view((self.d, self.n, 1)))
        # stream u = j * alpha + r of each key gets its own key
        self._stream_salt = np.array([_const(_VALUE, u + 1) for u in range(S)])

    def _chunks(self, R: int, words: float = _WORD_TEMPS):
        # per stream and point a chunk holds its packed working words, or
        # its scrambled uint8 digits and their interlaced copy, and per
        # stream and key _KEY_TEMPS words
        per_point = 8 * words if self.b == 2 else 2 * self.prec
        return key_chunks(R, math.ceil((per_point * self.n + 8 * _KEY_TEMPS)
                                       * self._stream_salt.size))

    def points(self, keys: np.ndarray) -> np.ndarray:
        """Point arrays of shape (R, n, d), one independent scramble per key."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((len(keys), self.n, self.d))
        # only the digits that the floats keep: one output word in base 2
        prec = -(-float_digit_cap(self.b) // self.alpha)
        for rows in self._chunks(len(keys)):
            digs, axes = self._scrambled(keys[rows], prec)
            out[rows] = digits_to_floats(digs, self.b).transpose(axes)
            del digs  # free this chunk's digits before the next is scrambled
        return out

    def digits(self, keys: np.ndarray | None) -> np.ndarray:
        """Exact interlaced output digits, shape (R, n, d, alpha*prec); keys
        None gives the unscrambled net, shape (1, n, d, alpha*m)."""
        if keys is None:
            return np.ascontiguousarray(_unpacked(self._nets[0].net).transpose(0, 2, 1, 3))
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((len(keys), self.n, self.d, self.alpha * self.prec), dtype=np.uint8)
        # a base-2 chunk holds per stream and point a node-bit table and
        # gathered flips for each of its W output words and their offsets
        # (2W + 1 words, _WORD_TEMPS at W = 1), or W packed words per
        # coordinate, their big-endian copy and prec uint8 digits, as
        # tracemalloc reads them to 0.05 words from n = 64 points up
        W = -(-self.alpha * self.prec // 64)
        words = max(2 * W + 1, 2 * W / self.alpha + self.prec / 8)
        for rows in self._chunks(len(keys), words):
            digs, axes = self._scrambled(keys[rows], self.prec)
            out[rows] = _unpacked(digs).transpose(axes + (3,))
            del digs  # free this chunk's digits before the next is scrambled
        return out

    def _scrambled(self, keys: np.ndarray, prec: int) -> tuple:
        # the interlaced digits of the streams scrambled by each key to prec
        # digits a stream, and the axes that take their first three to (rep,
        # point, j).  In base 2 the longer of the chunk's keys and points
        # goes last: digits (rep, j, point) from stream keys (r, rep, j, 1),
        # or (j, point, rep) from stream keys (r, j, 1, rep).  Other bases
        # keep the points last: their floats are a matrix product, whose
        # rounding depends on the matrix shape
        keys_last = self.b == 2 and len(keys) > self.n
        stream_keys = _mix64_inplace(keys[:, None] ^ self._stream_salt).reshape(
            len(keys), self.d, self.alpha)
        stream_keys = np.ascontiguousarray(stream_keys.transpose(2, 1, 0)[:, :, None] if keys_last
                                           else stream_keys.transpose(2, 0, 1)[..., None])
        digs = scramble_digit_matrix(self._nets[keys_last], self.b, stream_keys, prec)
        return digs, ((2, 1, 0) if keys_last else (0, 2, 1))


def _unpacked(digits: np.ndarray | PackedDigits) -> np.ndarray:
    return digits.digits() if isinstance(digits, PackedDigits) else digits
