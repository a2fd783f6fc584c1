"""Polynomial lattice point sets and component-by-component vector search.

Points are stored as exact fixed-point numerators over b^m, so everything
downstream (scrambling, digit dumps) stays bit-exact.  Base 2 gets a
vectorized carryless-arithmetic path; other prime bases go through the
generic polynomial routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gfpoly import (
    FieldBase,
    PolyGF,
    digits_numerator,
    is_irreducible,
    laurent_digits,
    poly_from_int,
)


@lru_cache(maxsize=None)
def irreducible_modulus(b: int, m: int) -> PolyGF:
    """The irreducible degree-m polynomial over F_b with smallest encoding.

    Exhaustive search; cached.  Supports the desk-scale table b in {2, 3},
    m <= 20 (larger inputs work, just slower).
    """
    base = FieldBase(b)
    if m < 1:
        raise ValueError("modulus degree must be >= 1")
    for low in range(b**m):
        cand = poly_from_int(low + b**m, base)  # monic of degree m
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducible polynomials exist at every degree")


@dataclass(frozen=True)
class GeneratingVector:
    """Base, size m (n = b^m points), irreducible modulus, and components q_j."""

    base: FieldBase
    m: int
    modulus: PolyGF
    q: tuple[PolyGF, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.modulus.degree != self.m:
            raise ValueError(
                f"modulus degree {self.modulus.degree} does not match m = {self.m}"
            )
        if not is_irreducible(self.modulus):
            raise ValueError("modulus must be irreducible")
        if not self.q:
            raise ValueError("generating vector needs at least one component")
        q = tuple(qi % self.modulus for qi in self.q)
        for qi in q:
            if qi.is_zero():
                raise ValueError("generating vector components must be nonzero mod p")
        object.__setattr__(self, "q", q)

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


def _column_generic(gv: GeneratingVector, j: int) -> np.ndarray:
    out = np.empty(gv.n, dtype=np.uint64)
    for h in range(gv.n):
        hp = poly_from_int(h, gv.base)
        w = (hp * gv.q[j]) % gv.modulus
        out[h] = digits_numerator(laurent_digits(w, gv.modulus, gv.m))
    return out


def _column_base2(m: int, p_int: int, q_int: int) -> np.ndarray:
    """Column q of the base-2 lattice with modulus p, by carryless arithmetic
    on packed uint64 encodings (degrees up to 2m - 1, so m <= 32)."""
    if m > 32:
        raise ValueError(f"base-2 lattice columns need m <= 32, got m = {m}")
    n = 2**m
    h = np.arange(n, dtype=np.uint64)
    prod = np.zeros(n, dtype=np.uint64)
    bit = 0
    qq = q_int
    while qq:
        if qq & 1:
            prod ^= h << np.uint64(bit)
        qq >>= 1
        bit += 1
    # reduce mod p: degrees down to m
    for d in range(2 * m - 2, m - 1, -1):
        mask = (prod >> np.uint64(d)) & np.uint64(1)
        prod ^= mask * np.uint64(p_int << (d - m))
    # expand w/p to m digits: quotient of (w << m) / p
    rem = prod << np.uint64(m)
    quo = np.zeros(n, dtype=np.uint64)
    for d in range(2 * m - 1, m - 1, -1):
        mask = (rem >> np.uint64(d)) & np.uint64(1)
        quo |= mask << np.uint64(d - m)
        rem ^= mask * np.uint64(p_int << (d - m))
    return quo


def plr_points(gv: GeneratingVector) -> PointSet:
    """The polynomial lattice point set of a generating vector.

    Coordinate j of point h is the m-digit truncation of h(x) q_j(x) / p(x).
    """
    cols = []
    for j in range(gv.s):
        if gv.base.b == 2:
            cols.append(_column_base2(gv.m, gv.modulus.encode(), gv.q[j].encode()))
        else:
            cols.append(_column_generic(gv, j))
    return PointSet(gv.base.b, gv.m, np.stack(cols, axis=1))


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


def _first_nonzero_digit_pos(coords: np.ndarray, b: int, m: int) -> np.ndarray:
    """Position (1-based) of the first nonzero base-b digit of an m-digit
    numerator; 0 for the value 0.

    A nonzero x has its first nonzero digit at m - #{1 <= k < m : x >= b^k}.
    """
    x = np.asarray(coords, dtype=np.uint64)
    powers = np.array([b**k for k in range(1, m)], dtype=np.uint64)
    pos = m - np.searchsorted(powers, x, side="right")
    return np.where(x == 0, 0, pos)


@lru_cache(maxsize=32)
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
    the sums run in exact rationals and only the final value is rounded to
    a float.
    """
    from fractions import Fraction as Fr

    C = K = 0
    for r in range(1, alpha + 1):
        c, k = [], []
        shared4 = shared16 = Fr(0)
        for a in range(m):
            w = Fr(1, 4 ** (alpha * a + r))
            c.append(shared4 - w)
            shared4 += w
            shared16 += w * w
            k.append(shared16)
        c.append(Fr(1, 4**r) / (1 - Fr(1, 4**alpha)))
        k.append(Fr(1, 16**r) / (1 - Fr(1, 16**alpha)))
        axis = (1,) * (r - 1) + (m + 1,) + (1,) * (alpha - r)
        C = C + np.array(c, dtype=object).reshape(axis)
        K = K + np.array(k, dtype=object).reshape(axis)
    return ((C * C - K) / 8).astype(float)


@lru_cache(maxsize=4096)
def _column_depths(m: int, p_int: int, q_int: int) -> np.ndarray:
    """Leading digits each point of base-2 column q shares with point 0 (m
    for point 0 itself), as read-only uint8.  A column depends only on
    (m, modulus, q), so every vector search shares these."""
    pos = _first_nonzero_digit_pos(_column_base2(m, p_int, q_int), 2, m)
    depths = np.where(pos == 0, m, pos - 1).astype(np.uint8)
    depths.flags.writeable = False
    return depths


def scramble_variance(gv: GeneratingVector, alpha: int,
                      coord_weights: Sequence[float] | None = None) -> float:
    """Exact variance of the stream-scrambled interlaced rule on the product
    test integrand prod_j (1 + sqrt(g_j) B2(x_j)), base 2 only.

    The points form a group under digitwise XOR, so pair covariances reduce
    to a sum over the point set itself: each point's per-stream leading-zero
    depths index the rho table, covariances multiply across independently
    scrambled output coordinates, and the zero point supplies the diagonal
    Var(f)/n term.
    """
    if gv.base.b != 2:
        raise ValueError("exact scramble variance is implemented for base 2")
    if gv.s % alpha:
        raise ValueError("vector length must be a multiple of alpha")
    d = gv.s // alpha
    w = list(coord_weights) if coord_weights is not None else [1.0] * d
    if len(w) != d:
        raise ValueError("need one weight per output coordinate")
    tab = _scramble_rho_table(gv.m, alpha)
    p_int = gv.modulus.encode()
    t = [_column_depths(gv.m, p_int, q.encode()) for q in gv.q]
    # track prod_j(1 + f_j) - 1 directly: the deep-match points contribute
    # residues near 1e-18 that a final mean(prod) - 1 would round away
    excess = np.zeros(gv.n)
    for j in range(d):
        idx = tuple(t[j * alpha + r] for r in range(alpha))
        f = w[j] * tab[idx]
        excess += f + excess * f
    return float(np.mean(excess))


_VARIANCE_TRIALS = 128


def _search_variance(d: int, m: int, base: FieldBase, weights,
                     alpha: int) -> GeneratingVector:
    """Randomized search ranked by the exact scramble variance.

    The variance criterion does not factor per stream, so instead of a CBC
    sweep we draw whole candidate vectors from a generator seeded by the rule
    parameters (deterministic and platform independent) and keep the best.
    """
    n = base.b**m
    modulus = irreducible_modulus(base.b, m)
    cw = [max(weights.singleton(j + 1), 1e-12) if weights is not None else 1.0
          for j in range(d)]
    rng = np.random.default_rng([0x5CA1E, base.b, m, d, alpha])
    best: tuple[float, GeneratingVector] | None = None
    for _ in range(_VARIANCE_TRIALS):
        qs = tuple(poly_from_int(int(rng.integers(1, n)), base)
                   for _ in range(d * alpha))
        gv = GeneratingVector(base, m, modulus, qs)
        v = scramble_variance(gv, alpha, cw)
        if best is None or v < best[0]:
            best = (v, gv)
    return best[1]


@lru_cache(maxsize=64)
def _field_exp_table(b: int, m: int) -> np.ndarray:
    """Encodings of g^0, g^1, ..., g^{b^m-2} for a primitive element g of the
    field F_b[x]/p, p = irreducible_modulus(b, m)."""
    base = FieldBase(b)
    modulus = irreducible_modulus(b, m)
    n = b**m
    # g = 1 generates only the trivial group of F_2[x]/p with deg p = 1
    for genc in range(1, n):
        g = poly_from_int(genc, base)
        seq = np.empty(n - 1, dtype=np.int64)
        cur = poly_from_int(1, base)
        ok = True
        for i in range(n - 1):
            e = cur.encode()
            if e == 1 and i > 0:
                ok = False
                break
            seq[i] = e
            cur = (cur * g) % modulus
        if ok and cur.encode() == 1:
            return seq
    raise AssertionError("unreachable: the multiplicative group is cyclic")


def _cbc_fast(s: int, m: int, base: FieldBase, cw, rates) -> GeneratingVector:
    """CBC search under the weighted dual-lattice criterion via cyclic-group
    correlation.

    The criterion is the sum over nonzero dual-lattice vectors k of
    prod_j cw_j^{1{k_j != 0}} b^{-rates_j mu(k_j)}; the character-sum identity
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
    unit = GeneratingVector(base, m, modulus, (poly_from_int(1, base),))
    pos = _first_nonzero_digit_pos(plr_points(unit).coords[:, 0], b, m)

    running = np.ones(n)
    chosen = []
    for j in range(s):
        phi = _phi_table(b, m, rates[j])
        fac_by_h = 1.0 + cw[j] * phi[pos]
        A = running[exp_]
        F = fac_by_h[exp_]
        corr = np.fft.irfft(np.conj(np.fft.rfft(A)) * np.fft.rfft(F), N)
        scores = (running[0] * fac_by_h[0] + corr) / n - 1.0
        smin = scores.min()
        near = scores <= smin + 1e-11 * (1.0 + abs(smin))
        t = int(min(np.flatnonzero(near), key=lambda i: exp_[i]))
        chosen.append(poly_from_int(int(exp_[t]), base))
        running[exp_] *= F[(np.arange(N) + t) % N]
        running[0] *= fac_by_h[0]
    return GeneratingVector(base, m, modulus, tuple(chosen))


def search_generating_vector(
    s: int,
    m: int,
    base: FieldBase,
    weights=None,
    alpha: int = 1,
) -> GeneratingVector:
    """Search for an s-coordinate generating vector with n = b^m points.

    `s` counts underlying lattice coordinates (a rule on d output coordinates
    with interlacing factor alpha asks for s = d * alpha).  Interlaced base-2
    rules are ranked by the exact variance they deliver after scrambling;
    every other rule comes from a component-by-component search under the
    weighted dual-lattice criterion, ties breaking to the smallest integer
    encoding.  Both searches are deterministic.
    """
    if alpha < 1:
        raise ValueError(f"interlacing factor alpha must be >= 1, got {alpha}")
    if s < 1:
        raise ValueError(f"number of coordinates s must be >= 1, got {s}")
    b = base.b
    if b**m > 2**32:
        # lattice digits and carryless products are held in 64-bit words
        raise ValueError(f"lattice size b^m = {b}^{m} exceeds the 2^32 points "
                         "the 64-bit digit arithmetic supports")
    if alpha >= 2 and b == 2 and s % alpha == 0:
        # interlaced rules are judged by the variance they deliver after
        # scrambling, which the dual criterion only bounds up to the squared
        # worst-case error rate; rank candidates by the exact variance instead
        return _search_variance(s // alpha, m, base, weights, alpha)
    # one gamma factor and one interlaced-position factor per stream:
    # stream depth r contributes digit positions r + (mu-1)*alpha, hence
    # weight gamma * b^{2(alpha-r)} at depth rate 2*alpha
    cw = []
    for j in range(s):
        out_coord = j // alpha + 1
        r = j % alpha + 1
        g = weights.singleton(out_coord) if weights is not None else 1.0
        cw.append(max(g, 1e-12) * float(b) ** (2 * (alpha - r)))
    return _cbc_fast(s, m, base, cw, [2.0 * alpha] * s)
