"""Polynomial lattice point sets and component-by-component vector search.

Polynomials over F_b live here as their base-b integer encodings
sum_i c_i b^i, from the modulus search to the lattice columns, and the field
arithmetic of `gfpoly` (irreducibility, Laurent division and the field power
table) works on those integers too: no polynomial objects.  The points of
a polynomial lattice rule form a digital net whose generating matrix is the
Hankel matrix of the Laurent digits of q_j/p.  Those digits are F_b-linear
in q_j, so every column, in every base, comes from one Laurent basis per
modulus: the digits of x^i/p for i < m, read off one expansion of 1/p.
Columns leave this module in one form, as exact fixed-point numerators over
b^m (those of `PointSet`), built by one function, so everything downstream
(scrambling, digit dumps) stays bit-exact.  The CBC search builds no column
at all: it needs only where each point of the q = 1 column has its first
nonzero digit, and h/p has its first nonzero Laurent digit at x^(deg h - m),
which the digit count of h gives exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gfpoly import FieldBase, is_irreducible, laurent_digits, poly_mulmod


def _check_size(b: int, m: int):
    if b**m > 2**32:
        # the base-2 scramble packs at most 32 digits of a value into 64-bit
        # words; every base shares that bound on the point count
        raise ValueError(f"lattice size b^m = {b}^{m} exceeds the 2^32 points "
                         "the 64-bit digit arithmetic supports")


#: a generating-vector search holds tables of b^m 8-byte entries: the
#: field's power table and the point factors and correlations of the CBC
#: search (int64 and float64), the point depths of the variance search.  A
#: search whose tables would each pass this many bytes is refused before
#: any of them is allocated (2^27 bytes: b^m <= 2^24)
MAX_TABLE_BYTES = 1 << 27


def _check_search_size(b: int, m: int):
    need = 8 * b**m
    if need > MAX_TABLE_BYTES:
        raise ValueError(
            f"a generating-vector search at b^m = {b}^{m} needs tables of {b**m} 8-byte "
            f"entries ({need / 2**20:.0f} MiB each), past the {MAX_TABLE_BYTES >> 20} MiB "
            "limit on a search table")


@lru_cache(maxsize=None)
def irreducible_modulus(b: int, m: int) -> int:
    """Encoding of the irreducible degree-m polynomial over F_b with smallest
    encoding.

    Exhaustive search; cached.  Supports the desk-scale table b in {2, 3},
    m <= 20 (larger inputs work, just slower).
    """
    FieldBase(b)  # a prime base, or ValueError
    if m < 1:
        raise ValueError("modulus degree must be >= 1")
    for p in range(b**m, 2 * b**m):  # monic of degree m
        if is_irreducible(p, b):
            return p
    raise AssertionError("unreachable: irreducible polynomials exist at every degree")


def _check_modulus(b: int, m: int, p: int):
    """Raise ValueError unless p encodes an irreducible polynomial over F_b of
    degree m, that is b^m <= p < b^(m+1)."""
    deg = 0
    while b ** (deg + 1) <= p:
        deg += 1
    if deg != m:
        raise ValueError(f"modulus degree {deg} does not match m = {m}; "
                         f"modulus must be irreducible of degree m = {m}")
    if not is_irreducible(p, b):
        raise ValueError(f"modulus must be irreducible of degree m = {m}")


@dataclass(frozen=True)
class GeneratingVector:
    """Base, size m (n = b^m points), modulus p and components q_j, the
    polynomials given by their base-b encodings.

    p must be irreducible of degree m, and every q_j a nonzero residue mod p,
    i.e. 0 < q_j < b^m.
    """

    base: FieldBase
    m: int
    modulus: int
    q: tuple[int, ...]

    def __post_init__(self):
        b, m = self.base.b, self.m
        if m < 1:
            raise ValueError("m must be >= 1")
        _check_size(b, m)
        _check_modulus(b, m, self.modulus)
        if not self.q:
            raise ValueError("generating vector needs at least one component")
        if not all(0 < qj < b**m for qj in self.q):
            raise ValueError(f"generating vector components must lie in (0, b^m = {b**m})")

    @property
    def s(self) -> int:
        return len(self.q)

    @property
    def n(self) -> int:
        return self.base.b**self.m


@dataclass(frozen=True)
class PointSet:
    """n = b^m points in [0,1)^s as integer numerators over b^m."""

    b: int
    m: int
    coords: np.ndarray  # shape (n, s), uint64 numerators

    def __post_init__(self):
        n, _ = self.coords.shape
        if n != self.b**self.m:
            raise ValueError("point count must be b^m")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def s(self) -> int:
        return self.coords.shape[1]

    def values(self) -> np.ndarray:
        """Floating point coordinates."""
        return self.coords.astype(np.float64) / float(self.b**self.m)


@lru_cache(maxsize=64)
def _laurent_basis(b: int, m: int, p: int) -> np.ndarray:
    """Row i holds the first 2m - 1 Laurent digits of x^i / p, i < m, as
    read-only uint64.  x^i / p is 1/p shifted up by i places, so one
    expansion of 1/p to 3m - 2 digits gives every row."""
    t = laurent_digits(1, p, 3 * m - 2, b)
    basis = np.array(t, dtype=np.uint64)[np.add.outer(np.arange(m), np.arange(2 * m - 1))]
    basis.flags.writeable = False
    return basis


def _numerators(b: int, m: int, p: int, qs: Sequence[int]) -> np.ndarray:
    """The lattice columns q in qs under modulus p as numerators over b^m:
    entry [j, h] packs the first m Laurent digits of h(x) q_j(x) / p(x),
    most significant first, shape (len(qs), b^m) uint32.

    The Laurent digits u = (u_1, ..., u_{2m-1}) of q/p are the base-b digits
    of q times the Laurent basis, mod b.  Digit i of point h = sum_k h_k b^k
    is then sum_k h_k u_{i+k} mod b (a Hankel matrix), so the points double
    over the digits of h: the points with h_k = a are the points so far plus
    a (u_{k+1}, ..., u_{k+m}), digit by digit mod b.  All columns double
    together.  Base 2 adds without carry, so there the m-bit window of the
    (2m - 1)-bit Laurent word at shift m - 1 - k is XOR-ed onto the
    numerators themselves; every other base doubles digit rows and folds
    them once.  The products stay in uint64, where (b - 1)^2 m fits for
    every b^m <= 2^32.
    """
    ub = np.uint64(b)
    qd = np.asarray(qs, dtype=np.uint64)[:, None] // ub ** np.arange(m, dtype=np.uint64) % ub
    u = qd @ _laurent_basis(b, m, p) % ub  # [j, i]: u_{i+1} of q_j
    out = np.zeros((len(qs), b**m), dtype=np.uint32)
    if b == 2:
        word = u @ (np.uint64(1) << np.arange(2 * m - 2, -1, -1, dtype=np.uint64))
        for k in range(m):
            w = (word >> np.uint64(m - 1 - k)) & np.uint64(2**m - 1)
            np.bitwise_xor(out[:, :2**k], w.astype(np.uint32)[:, None], out=out[:, 2**k:2 ** (k + 1)])
        return out
    dtype = np.min_scalar_type(2 * b - 2)  # a digit sum before reduction
    hankel = u[:, np.add.outer(np.arange(m), np.arange(m))]  # [j, k, i]: u_{k+i+1} of q_j
    # [j, a, k, i]: a times window k, mod b, for the digits a = 1..b-1
    shifts = (np.arange(1, b, dtype=np.uint64)[:, None, None] * hankel[:, None] % ub).astype(dtype)
    digits = np.zeros((len(qs), b**m, m), dtype=dtype)
    for k in range(m):
        lo = b**k
        rows = digits[:, lo:b * lo].reshape(len(qs), b - 1, lo, m)  # [j, a - 1, h mod b^k]
        np.add(digits[:, None, :lo], shifts[:, :, k, None], out=rows)
        # reduce mod b: in unsigned arithmetic rows - b wraps around to a
        # larger value exactly when rows < b
        np.minimum(rows, rows - b, out=rows)
    for i in range(m):
        out *= np.uint32(b)
        out += digits[..., i]
    return out


def plr_points(gv: GeneratingVector) -> PointSet:
    """The polynomial lattice point set of a generating vector.

    Coordinate j of point h is the m-digit truncation of h(x) q_j(x) / p(x).
    """
    b, m = gv.base.b, gv.m
    return PointSet(b, m, np.ascontiguousarray(_numerators(b, m, gv.modulus, gv.q).T,
                                               dtype=np.uint64))


# --- search criteria -------------------------------------------------------


def _phi_table(b: int, m: int, rate: float = 2.0) -> np.ndarray:
    """phi[l] = sum over 1 <= k < b^m with leading-digit depth mu(k) of
    b^{-rate * mu(k)} * wal_k(x), for a coordinate x whose first nonzero
    digit sits at position l (l = 0 encodes x = 0).

    Closed form of the character sum: summing wal_k over all k < b^a gives
    b^a when the first a digits of x vanish and 0 otherwise.
    """
    tab = np.zeros(m + 1)
    # x = 0: all prefix indicators are 1
    tab[0] = sum(b ** (-rate * a) * (b**a - b ** (a - 1)) for a in range(1, m + 1))
    for l in range(1, m + 1):
        val = sum(b ** (-rate * a) * (b**a - b ** (a - 1)) for a in range(1, l))
        val -= b ** (-rate * l) * b ** (l - 1)
        tab[l] = val
    return tab


#: the rho table's exact sums run over this many trailing axes at a time, so
#: a slice holds (m+1)^4 Python ints
_RHO_SLICE_AXES = 4


def _scramble_rho_table(m: int, alpha: int) -> np.ndarray:
    """rho[t_1, ..., t_alpha] = E[B2(X) B2(X')] for one output coordinate of a
    stream-scrambled interlaced pair whose underlying streams share exactly
    t_r leading base-2 digits (t_r = m meaning the stream values coincide, in
    which case the scrambled dust coincides too).

    Base 2 only.  Digit a >= 0 of stream r fills output digit position
    p = alpha a + r.  Write scrambled digit p as (1 - e_p)/2 with e_p = +-1 a
    fair sign; then X = (1 - Y)/2 with Y = sum_p 2^-p e_p, and
    B2(X) = Y^2/4 - 1/12.  Under nested scrambling e'_p = s_p e_p, where
    s_p = +1 on a shared digit and -1 on the one complementary digit after
    the shared ones, and e'_p is independent of e_p (s_p = 0) deeper down.
    The fourth moment of the Rademacher sums gives
    E[Y^2 Y'^2] = 1/9 + 2 (C^2 - K), so

        rho = (C^2 - K) / 8,  C = sum_p s_p 4^-p,  K = sum_p s_p^2 16^-p.

    Both sums split over the streams: for t_r < m, stream r adds the 4^-p
    of its digits a < t_r minus that of digit t_r to C, and the 16^-p of its
    digits a <= t_r to K; for t_r = m it adds its whole geometric series.
    The deep-match entries are tiny residues of near-total cancellation, so
    the sums run exactly, as integers over the common denominators
    4^{alpha m} (4^alpha - 1) for C and 16^{alpha m} (16^alpha - 1) for K,
    and each entry is rounded once, by one correctly rounded int / int.
    These Python-int sums go one slice at a time: a slice fixes the leading
    axes and spans the last _RHO_SLICE_AXES of them.
    """
    g4, g16 = 4**alpha - 1, 16**alpha - 1
    top = alpha * m  # the deepest digit position of a finite stream prefix
    cs, ks = [], []  # stream r's terms of C and K, by t_r
    for r in range(1, alpha + 1):
        c, k = [], []
        shared4 = shared16 = 0
        for a in range(m):
            w4 = 4 ** (top - alpha * a - r) * g4  # 4^-p with p = alpha a + r
            w16 = 16 ** (top - alpha * a - r) * g16
            c.append(shared4 - w4)
            shared4 += w4
            shared16 += w16
            k.append(shared16)
        c.append(4 ** (top + alpha - r))  # 4^-r / (1 - 4^-alpha)
        k.append(16 ** (top + alpha - r))
        cs.append(np.array(c, dtype=object))
        ks.append(np.array(k, dtype=object))
    # over 16^{alpha m} g4^2 (4^alpha + 1), as 16^alpha - 1 = g4 (4^alpha + 1)
    den = 8 * 16**top * g4 * g4 * (4**alpha + 1)
    lead = max(alpha - _RHO_SLICE_AXES, 0)  # the axes fixed within a slice
    out = np.empty((m + 1,) * alpha)
    for ts in np.ndindex(*(m + 1,) * lead):
        C = sum(cs[r][t] for r, t in enumerate(ts))
        K = sum(ks[r][t] for r, t in enumerate(ts))
        for r in range(lead, alpha):
            axis = (1,) * (r - lead) + (m + 1,) + (1,) * (alpha - 1 - r)
            C = C + cs[r].reshape(axis)
            K = K + ks[r].reshape(axis)
        out[ts] = (C * C * (4**alpha + 1) - K * g4) / den
    return out


#: the variance search builds columns and scores candidates in chunks whose
#: temporaries total about this many bytes
_SEARCH_BYTES = 1 << 18


def _depths(m: int, p: int, qs: Sequence[int]) -> np.ndarray:
    """Leading zero digits of every point of each base-2 column q in qs (m
    for point 0), shape (len(qs), 2^m) uint8: m minus the bit length of
    each numerator, which frexp gives exactly for a uint32 (0 for 0).

    The columns are built a few at a time: per point and column a chunk
    holds its numerator, within _SEARCH_BYTES, and frexp's float
    temporaries cover one column at a time.
    """
    n = 2**m
    out = np.empty((len(qs), n), dtype=np.uint8)
    step = max(1, _SEARCH_BYTES // (n * 4))
    for i in range(0, len(qs), step):
        for j, col in enumerate(_numerators(2, m, p, qs[i:i + step]), i):
            out[j] = m - np.frexp(col)[1]
    return out


def scramble_variance(base: FieldBase, m: int, modulus: int, q, alpha: int,
                      coord_weights: Sequence[float] | None = None) -> np.ndarray:
    """Exact variances of stream-scrambled interlaced rules on the product
    test integrand prod_j (1 + sqrt(g_j) B2(x_j)), base 2 only.

    The arguments are those of a GeneratingVector, with q a (T, d * alpha)
    array whose rows are the component encodings of T vectors on the same
    irreducible modulus; the result has shape (T,).  One vector gv is the
    case T = 1, scramble_variance(gv.base, gv.m, gv.modulus, [gv.q], alpha).

    The points form a group under digitwise XOR, so pair covariances reduce
    to a sum over the point set itself: each point's per-stream leading-zero
    depths index the rho table, covariances multiply across independently
    scrambled output coordinates, and the zero point supplies the diagonal
    Var(f)/n term.  The depths of each distinct column are built once, as
    one uint8 per point; the (vectors, points) float arrays go a chunk of
    vectors at a time.
    """
    if base.b != 2:
        raise ValueError("exact scramble variance is implemented for base 2")
    _check_modulus(2, m, modulus)
    n = 2**m
    q = np.asarray(q, dtype=np.int64)
    if q.ndim != 2:
        raise ValueError("q must be a (T, d * alpha) array of component encodings")
    if q.shape[1] % alpha:
        raise ValueError("vector length must be a multiple of alpha")
    if not ((0 < q) & (q < n)).all():
        raise ValueError(f"generating vector components must lie in (0, b^m = {n})")
    d = q.shape[1] // alpha
    w = list(coord_weights) if coord_weights is not None else [1.0] * d
    if len(w) != d:
        raise ValueError("need one weight per output coordinate")
    qs, cols = np.unique(q, return_inverse=True)
    cols = cols.reshape(q.shape)
    depths = _depths(m, modulus, qs.tolist())
    tab = _scramble_rho_table(m, alpha).ravel()
    strides = (m + 1) ** np.arange(alpha - 1, -1, -1, dtype=np.intp)
    out = np.empty(len(q))
    # per vector and point: the running excess, the flat index, the gathered
    # factor and three temporaries, 8 bytes each, and a gathered depth
    step = max(1, _SEARCH_BYTES // (n * 49))
    for i in range(0, len(q), step):
        chunk = cols[i:i + step]
        # track prod_j(1 + f_j) - 1 directly: the deep-match points contribute
        # residues near 1e-18 that a final mean(prod) - 1 would round away
        excess = np.zeros((len(chunk), n))
        for j, wj in enumerate(w):
            flat = np.zeros((len(chunk), n), dtype=np.intp)
            for r in range(alpha):
                flat += depths[chunk[:, j * alpha + r]] * strides[r]
            # weighted after the gather, so the table is never copied
            f = tab[flat]
            f *= wj
            excess += f + excess * f
        out[i:i + step] = excess.mean(axis=1)
    return out


_VARIANCE_TRIALS = 128


def _search_variance(d: int, m: int, base: FieldBase, alpha: int) -> GeneratingVector:
    """Randomized search ranked by the exact scramble variance.

    The variance criterion does not factor per stream, so instead of a CBC
    sweep we draw whole candidate vectors from a generator seeded by the rule
    parameters (deterministic and platform independent), score them all in
    one batched pass and keep the best.
    """
    n = base.b**m
    modulus = irreducible_modulus(base.b, m)
    rng = np.random.default_rng([0x5CA1E, base.b, m, d, alpha])
    cands = rng.integers(1, n, size=(_VARIANCE_TRIALS, d * alpha))
    # argmin keeps the first of equal variances
    best = cands[int(np.argmin(scramble_variance(base, m, modulus, cands, alpha)))]
    return GeneratingVector(base, m, modulus, tuple(int(q) for q in best))


@lru_cache(maxsize=64)
def _field_exp_table(b: int, m: int) -> np.ndarray:
    """Encodings of g^0, g^1, ..., g^{b^m-2} for a primitive element g of the
    field F_b[x]/p, p = irreducible_modulus(b, m)."""
    modulus = irreducible_modulus(b, m)
    n = b**m
    # g = 1 generates only the trivial group of F_2[x]/p with deg p = 1
    for g in range(1, n):
        seq = np.empty(n - 1, dtype=np.int64)
        cur = 1
        for i in range(n - 1):
            if cur == 1 and i > 0:
                break
            seq[i] = cur
            cur = poly_mulmod(cur, g, modulus, b)
        else:
            if cur == 1:
                return seq
    raise AssertionError("unreachable: the multiplicative group is cyclic")


def _leading_positions(b: int, m: int) -> np.ndarray:
    """1-based position of the first nonzero digit of each point h of the
    q = 1 column, 0 for point 0, shape (b^m,).

    Point h is the m-digit truncation of h(x) / p(x), whose Laurent
    expansion starts at x^(deg h - m): a point with k base-b digits has its
    first nonzero digit at position m + 1 - k, and the b^k - b^(k-1) points
    with k digits follow each other in h.
    """
    counts = [1] + [b**k - b ** (k - 1) for k in range(1, m + 1)]
    return np.repeat(np.array([0, *range(m, 0, -1)], dtype=np.intp), counts)


def _cbc_fast(s: int, m: int, base: FieldBase, cw, rate: float) -> GeneratingVector:
    """CBC search under the weighted dual-lattice criterion via cyclic-group
    correlation.

    The criterion is the sum over nonzero dual-lattice vectors k of
    prod_j cw_j^{1{k_j != 0}} b^{-rate mu(k_j)}; the character-sum identity
    turns it into the mean over points h of prod_j (1 + cw_j phi(h_j)).  For
    h = g^i and q = g^t the product hq is g^{i+t}, so the candidate scores
    for all q at once are a circular cross-correlation of the running
    products with the per-point factors — one FFT pair per component.
    """
    b = base.b
    n = b**m
    N = n - 1
    modulus = irreducible_modulus(b, m)
    exp_ = _field_exp_table(b, m)
    phi = _phi_table(b, m, rate)[_leading_positions(b, m)]

    running = np.ones(n)
    chosen = []
    for j in range(s):
        fac_by_h = 1.0 + cw[j] * phi
        A = running[exp_]
        F = fac_by_h[exp_]
        corr = np.fft.irfft(np.conj(np.fft.rfft(A)) * np.fft.rfft(F), N)
        scores = (running[0] * fac_by_h[0] + corr) / n - 1.0
        smin = scores.min()
        near = scores <= smin + 1e-11 * (1.0 + abs(smin))
        t = int(min(np.flatnonzero(near), key=lambda i: exp_[i]))
        chosen.append(int(exp_[t]))
        running[exp_] *= F[(np.arange(N) + t) % N]
        running[0] *= fac_by_h[0]
    return GeneratingVector(base, m, modulus, tuple(chosen))


def search_generating_vector(
    s: int,
    m: int,
    base: FieldBase,
    alpha: int = 1,
) -> GeneratingVector:
    """Search for an s-coordinate generating vector with n = b^m points.

    `s` counts underlying lattice coordinates (a rule on d output coordinates
    with interlacing factor alpha asks for s = d * alpha).  Interlaced base-2
    rules are ranked by the exact variance they deliver after scrambling;
    every other rule comes from a component-by-component search under the
    dual-lattice criterion, ties breaking to the smallest integer encoding.
    Both searches are deterministic, and neither takes gamma weights: in the
    changing-dimension algorithm gamma_u scales the whole u-component, so
    the rule for u is one for the unweighted |u|-variate space.
    """
    if alpha < 1:
        raise ValueError(f"interlacing factor alpha must be >= 1, got {alpha}")
    if s < 1:
        raise ValueError(f"number of coordinates s must be >= 1, got {s}")
    b = base.b
    _check_size(b, m)  # before the modulus search, which grows with b^m
    _check_search_size(b, m)
    if alpha >= 2 and b == 2 and s % alpha == 0:
        # interlaced rules are judged by the variance they deliver after
        # scrambling, which the dual criterion only bounds up to the squared
        # worst-case error rate; rank candidates by the exact variance instead
        return _search_variance(s // alpha, m, base, alpha)
    # one interlaced-position factor per stream: stream depth r = 1..alpha
    # contributes digit positions r + (mu-1)*alpha, hence factor
    # b^{2(alpha-r)} at depth rate 2*alpha
    cw = [float(b) ** (2 * (alpha - 1 - j % alpha)) for j in range(s)]
    return _cbc_fast(s, m, base, cw, 2.0 * alpha)
