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
    b = gv.base.b
    out = np.empty(gv.n, dtype=np.uint64)
    for h in range(gv.n):
        hp = poly_from_int(h, gv.base)
        w = (hp * gv.q[j]) % gv.modulus
        out[h] = digits_numerator(laurent_digits(w, gv.modulus, gv.m))
    return out


def _column_base2(gv: GeneratingVector, j: int) -> np.ndarray:
    # carryless arithmetic on packed uint64 encodings
    m = gv.m
    p_int = gv.modulus.encode()
    q_int = gv.q[j].encode()
    h = np.arange(gv.n, dtype=np.uint64)
    prod = np.zeros(gv.n, dtype=np.uint64)
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
    quo = np.zeros(gv.n, dtype=np.uint64)
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
            cols.append(_column_base2(gv, j))
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

    Base 2 only.  Under nested scrambling the shared digits stay equal, the
    first differing digit of each stream becomes the exact complement, and
    everything deeper is independent, so X and X' decompose into sums of
    independent scaled Bernoulli(1/2) digits.  Every mixed moment is then a
    polynomial in power sums of the digit weights 2^{-p}.  The deep-match
    entries are tiny residues of near-total cancellation between O(1)
    moments, so the algebra runs in exact rationals and only the final value
    is rounded to a float.
    """
    from fractions import Fraction as Fr

    def power_sums(r: int, lo: int, hi: int | None) -> list[Fr]:
        # sum of 2^{-k p(a)} over depths a in [lo, hi] (hi None = infinity),
        # where stream r occupies output digit positions p(a) = alpha(a-1) + r
        out = []
        for k in (1, 2, 3, 4):
            step = Fr(1, 2 ** (k * alpha))
            first = Fr(1, 2 ** (k * (alpha * (lo - 1) + r)))
            if hi is None:
                out.append(first / (1 - step))
            elif hi < lo:
                out.append(Fr(0))
            else:
                out.append(first * (1 - step ** (hi - lo + 1)) / (1 - step))
        return out

    def moments(P: list[Fr]) -> tuple[Fr, Fr, Fr, Fr]:
        # cumulants of a sum of independent Bernoulli(1/2) * u_p add up as
        # power sums: k1 = P1/2, k2 = P2/4, k3 = 0, k4 = -P4/8
        k1, k2, k4 = P[0] / 2, P[1] / 4, -P[3] / 8
        return (k1, k2 + k1**2, 3 * k2 * k1 + k1**3,
                k4 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4)

    shape = (m + 1,) * alpha
    tab = np.empty(shape)
    for ts in np.ndindex(*shape):
        PW = [Fr(0)] * 4
        PD = [Fr(0)] * 4
        PG = [Fr(0)] * 4
        for r0, t in enumerate(ts):
            r = r0 + 1
            if t >= m:
                PW = [a + v for a, v in zip(PW, power_sums(r, 1, None))]
            else:
                PW = [a + v for a, v in zip(PW, power_sums(r, 1, t))]
                PD = [a + v for a, v in zip(PD, power_sums(r, t + 1, t + 1))]
                PG = [a + v for a, v in zip(PG, power_sums(r, t + 2, None))]
        w1, w2, w3, w4 = moments(PW)
        d1, d2, d3, d4 = moments(PD)
        g1, g2, _, _ = moments(PG)
        c = PD[0]  # D + D' = c, the anti-correlated digits are complements
        # X = W + D + G, X' = W + (c - D) + G' with W, D, G, G' independent
        ch1, ch2 = c - d1, c * c - 2 * c * d1 + d2
        E_S, E_T = w1 + d1, w1 + c - d1
        E_ST = w2 + c * w1 + c * d1 - d2
        E_S2 = w2 + 2 * w1 * d1 + d2
        E_T2 = w2 + 2 * w1 * ch1 + ch2
        E_S2T = w3 + c * w2 + w2 * d1 + 2 * c * w1 * d1 - w1 * d2 + c * d2 - d3
        E_DC = c * d1 - d2
        E_DC2 = c * c * d1 - 2 * c * d2 + d3
        E_D2C = c * d2 - d3
        E_ST2 = w3 + w2 * d1 + 2 * w2 * ch1 + 2 * w1 * E_DC + w1 * ch2 + E_DC2
        E_S2T2 = (w4 + 2 * w3 * ch1 + w2 * ch2 + 2 * w3 * d1 + 4 * w2 * E_DC
                  + 2 * w1 * E_DC2 + w2 * d2 + 2 * w1 * E_D2C
                  + (c * c * d2 - 2 * c * d3 + d4))
        E11 = E_ST + g1 * E_S + g1 * E_T + g1 * g1
        E21 = E_S2T + g1 * E_S2 + 2 * g1 * E_ST + 2 * g1 * g1 * E_S + g2 * E_T + g2 * g1
        E12 = E_ST2 + g1 * E_T2 + 2 * g1 * E_ST + 2 * g1 * g1 * E_T + g2 * E_S + g2 * g1
        E22 = (E_S2T2 + 2 * g1 * E_S2T + g2 * E_S2 + 2 * g1 * E_ST2
               + 4 * g1 * g1 * E_ST + 2 * g1 * g2 * E_S + g2 * E_T2
               + 2 * g2 * g1 * E_T + g2 * g2)
        # E[B2(X) B2(X')] expanded over the four mixed moments
        tab[ts] = float(E22 - E21 - E12 + E11 - Fr(1, 36))
    return tab


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
    coords = plr_points(gv).coords
    pos = _first_nonzero_digit_pos(coords, 2, gv.m)
    t = np.where(pos == 0, gv.m, pos - 1)  # shared leading digits
    # track prod_j(1 + f_j) - 1 directly: the deep-match points contribute
    # residues near 1e-18 that a final mean(prod) - 1 would round away
    excess = np.zeros(coords.shape[0])
    for j in range(d):
        idx = tuple(t[:, j * alpha + r] for r in range(alpha))
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
    b = base.b
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
