"""Polynomial lattice point sets, the search criteria, and vector search."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cdquad
from cdquad import lattice
from cdquad.gfpoly import FieldBase, is_irreducible, laurent_digits, poly_mulmod
from cdquad.lattice import (
    GeneratingVector,
    irreducible_modulus,
    plr_points,
    scramble_variance,
    search_generating_vector,
    _VARIANCE_TRIALS,
    _cbc_fast,
    _depths,
    _leading_positions,
    _numerators,
    _phi_table,
    _scramble_rho,
)
from cdquad.quadrature import RuleSpec, empirical_variance

F2 = FieldBase(2)


def gv_for(b, m, q_encs):
    return GeneratingVector(FieldBase(b), m, irreducible_modulus(b, m), tuple(q_encs))


def variance_of(gv, alpha, coord_weights=None):
    """scramble_variance of one vector, the case T = 1."""
    return float(scramble_variance(gv.base, gv.m, gv.modulus, [gv.q], alpha, coord_weights)[0])


def column_oracle(b, m, p, q):
    """Column q of the lattice with modulus p, one polynomial product and one
    Laurent division per point h: the m digits of (h q mod p) / p as a
    numerator over b^m."""
    out = []
    for h in range(b**m):
        num = 0
        for t in laurent_digits(poly_mulmod(h, q, p, b), p, m, b):
            num = num * b + t
        out.append(num)
    return out


def columns_reference(b, m, p, qs):
    """The base-b digits of the lattice columns q in qs, most significant
    first, by one Laurent division per column: the 2m - 1 Laurent digits u
    of q/p, and digit i of point h = sum_k h_k b^k equal to
    sum_k h_k u_{i+k} mod b, shape (b^m, len(qs), m)."""
    hk = np.arange(b**m)[:, None] // b ** np.arange(m) % b  # [h, k]: digit k of h
    out = np.zeros((b**m, len(qs), m), dtype=np.int64)
    for j, q in enumerate(qs):
        u = np.array(laurent_digits(q, p, 2 * m - 1, b))
        out[:, j] = hk @ u[np.add.outer(np.arange(m), np.arange(m))] % b
    return out


def first_nonzero_digit_pos(coords, b, m):
    """Position (1-based) of the first nonzero base-b digit of an m-digit
    numerator; 0 for the value 0.

    A nonzero x has its first nonzero digit at m - #{1 <= k < m : x >= b^k}.
    """
    x = np.asarray(coords, dtype=np.uint64)
    powers = np.array([b**k for k in range(1, m)], dtype=np.uint64)
    pos = m - np.searchsorted(powers, x, side="right")
    return np.where(x == 0, 0, pos)


class TestGeneratingVector:
    def test_wrong_modulus_degree(self):
        with pytest.raises(ValueError, match="modulus degree 1 does not match m = 2"):
            GeneratingVector(F2, 2, 3, (1,))

    def test_reducible_modulus(self):
        # x^2 + 1 = (x + 1)^2 over F_2
        with pytest.raises(ValueError, match="irreducible"):
            GeneratingVector(F2, 2, 5, (1,))

    def test_zero_component(self):
        with pytest.raises(ValueError, match="components must lie in"):
            GeneratingVector(F2, 2, irreducible_modulus(2, 2), (1, 0))

    @pytest.mark.parametrize("b,m", [(2, 2), (3, 2), (5, 1)])
    def test_component_not_below_b_to_the_m(self, b, m):
        with pytest.raises(ValueError, match="components must lie in"):
            GeneratingVector(FieldBase(b), m, irreducible_modulus(b, m), (1, b**m))

    def test_lattice_size_is_checked_first(self):
        # x^33 + 1 is reducible, but the size check comes before any other
        with pytest.raises(ValueError, match=r"b\^m = 2\^33 exceeds the 2\^32 points"):
            GeneratingVector(F2, 33, 2**33 + 1, (1,))

    @pytest.mark.parametrize("b,m", [(2, 25), (2, 29), (3, 16), (5, 11)])
    def test_search_tables_past_the_limit_rejected(self, b, m):
        # every search holds tables of b^m 8-byte entries; past the limit it
        # is refused before the modulus search or any table is built
        assert 8 * b**m > lattice.MAX_TABLE_BYTES
        with pytest.raises(ValueError, match=rf"b\^m = {b}\^{m} needs tables of {b**m} 8-byte"):
            search_generating_vector(1, m, FieldBase(b))

    def test_search_tables_at_the_limit_allowed(self):
        assert 8 * 2**24 == lattice.MAX_TABLE_BYTES
        lattice._check_search_size(2, 24)

    @pytest.mark.parametrize("b,m", [(2, 1), (2, 3), (3, 2)])
    def test_empty_vector(self, b, m):
        with pytest.raises(ValueError, match="at least one component"):
            GeneratingVector(FieldBase(b), m, irreducible_modulus(b, m), ())


class TestPlrPoints:
    def test_worked_example(self):
        # b=2, m=2, p=x^2+x+1, q=(1): points 0, 1/4, 3/4, 1/2
        ps = plr_points(gv_for(2, 2, [1]))
        vals = [Fraction(int(v), 4) for v in ps.coords[:, 0]]
        assert vals == [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)]

    def test_row_zero_is_origin(self):
        for b, m, q in [(2, 3, [3, 5]), (3, 2, [2, 4])]:
            ps = plr_points(gv_for(b, m, q))
            assert not ps.coords[0].any()

    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_projection_regularity(self, b, m):
        # every 1-d projection is exactly {0, 1/b^m, ..., (b^m-1)/b^m}
        q = [1, min(b**m - 1, 3)] if b**m > 3 else [1]
        ps = plr_points(gv_for(b, m, q))
        for j in range(ps.s):
            assert sorted(ps.coords[:, j]) == list(range(b**m))

    @pytest.mark.parametrize("b,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_digital_net_closure(self, b, m):
        # closed under digitwise addition mod b of coordinates
        ps = plr_points(gv_for(b, m, [1, b**m - 1]))
        rows = {tuple(int(v) for v in row) for row in ps.coords}

        def digit_add(x, y):
            out, mult = 0, 1
            for _ in range(m):
                out += ((x + y) % b) * mult
                x, y, mult = x // b, y // b, mult * b
            return out

        for r1, r2 in itertools.product(rows, repeat=2):
            assert tuple(digit_add(a, c) for a, c in zip(r1, r2)) in rows

    def test_values_match_numerators(self):
        ps = plr_points(gv_for(2, 3, [5]))
        assert np.allclose(ps.values(), ps.coords.astype(float) / 8)

    @pytest.mark.parametrize("b,m", [(2, 1), (2, 2), (2, 3), (2, 6), (2, 9), (3, 1), (3, 2),
                                     (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)])
    def test_columns_match_laurent_reference(self, b, m):
        # the Laurent basis gives every column the digits of its own
        # division, packed most significant first
        n = b**m
        qs = range(1, n) if n <= 64 else sorted({1, 2, b - 1, n // 3, n // 2 + 1, n - 2, n - 1})
        p = irreducible_modulus(b, m)
        got = _numerators(b, m, p, list(qs))
        assert got.shape == (len(qs), n) and got.dtype == np.uint32
        ref = columns_reference(b, m, p, list(qs)) @ b ** np.arange(m - 1, -1, -1)
        assert np.array_equal(got.T, ref)

    @pytest.mark.parametrize("b,m", [(2, 1), (2, 2), (2, 5), (2, 8), (3, 1), (3, 3), (3, 4),
                                     (5, 1), (5, 2), (5, 3), (131, 1)])
    def test_matches_column_oracle(self, b, m):
        # every component at small sizes, a spread of them past b^m = 32;
        # base 131 takes digit sums past 255 before their reduction mod b
        n = b**m
        qs = range(1, n) if n <= 32 else sorted({1, 2, b - 1, n // 3, n // 2 + 1, n - 2, n - 1})
        gv = gv_for(b, m, qs)
        coords = plr_points(gv).coords
        for j, q in enumerate(qs):
            assert coords[:, j].tolist() == column_oracle(b, m, gv.modulus, q)


class DualWeightedMerit:
    """Truncated weighted dual-lattice criterion, the one `_cbc_fast`
    minimizes, as a running product over the points.

    Equals the sum over nonzero dual-lattice vectors k (each component of
    base-b digit length <= m) of prod_j w_j^{1{k_j != 0}} b^{-r_j mu(k_j)},
    evaluated through the character-sum identity at O(n) per candidate.
    """

    def __init__(self, b, m, coord_weights, rates=None):
        self.b = b
        self.m = m
        self.w = list(coord_weights)
        self.rates = list(rates) if rates is not None else [2.0] * len(self.w)
        self._phi = {r: _phi_table(b, m, r) for r in set(self.rates)}

    def _factor(self, col, j):
        pos = first_nonzero_digit_pos(col, self.b, self.m)
        return 1.0 + self.w[j] * self._phi[self.rates[j]][pos]

    def start(self, n):
        return np.ones(n)

    def score(self, running, col, j):
        return float(np.mean(running * self._factor(col, j)) - 1.0)

    def extend(self, running, col, j):
        return running * self._factor(col, j)


def fresh_interpreter(code):
    """The number that code prints when a fresh interpreter runs it on this
    cdquad; code may call hwm(), the peak RSS (VmHWM) so far in MB."""
    prelude = (
        "def hwm():\n"
        "    status = open('/proc/self/status').read()\n"
        "    return int(status.split('VmHWM:')[1].split()[0]) / 1024\n"
    )
    src = str(Path(cdquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", prelude + code], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return float(done.stdout.strip())


def digit_add(a, c, b):
    """Sum of two polynomial encodings over F_b: their base-b digits added
    mod b, without carries."""
    out, place = 0, 1
    while a or c:
        out += (a + c) % b * place
        a, c, place = a // b, c // b, place * b
    return out


def dual_merit_bruteforce(gv, coord_weights, rates=None):
    """Oracle for DualWeightedMerit: explicit dual-lattice enumeration.

    Only feasible at tiny sizes (b^(m*s) candidate vectors).
    """
    b, m, s = gv.base.b, gv.m, gv.s
    if rates is None:
        rates = [2.0] * s
    total = 0.0

    def mu(k):
        d = 0
        while k:
            d += 1
            k //= b
        return d

    for kvec in itertools.product(range(b**m), repeat=s):
        if not any(kvec):
            continue
        # sum_j k_j q_j mod p, as a sum of the reduced products: reduction
        # mod p is F_b-linear
        acc = 0
        for k, q in zip(kvec, gv.q):
            acc = digit_add(acc, poly_mulmod(k, q, gv.modulus, b), b)
        if acc == 0:
            term = 1.0
            for j, k in enumerate(kvec):
                if k:
                    term *= coord_weights[j] * b ** (-rates[j] * mu(k))
            total += term
    return total


def cbc_oracle(m, base, cw, rate):
    """Direct CBC candidate loop: component j tries every q in 1..b^m - 1
    under DualWeightedMerit with factor cw[j] at depth rate `rate`, ties
    going to the smallest encoding."""
    b = base.b
    modulus = irreducible_modulus(b, m)
    merit = DualWeightedMerit(b, m, cw, rates=[rate] * len(cw))
    running = merit.start(b**m)
    chosen = []
    for j in range(len(cw)):
        best = None
        for enc in range(1, b**m):
            col = plr_points(GeneratingVector(base, m, modulus, (enc,))).coords[:, 0]
            score = merit.score(running, col, j)
            if best is None or score < best[0] - 1e-15:
                best = (score, enc, col)
        running = merit.extend(running, best[2], j)
        chosen.append(best[1])
    return chosen


def rho_table_oracle(m, alpha):
    """The scramble covariance table by direct expansion: X and X' split into
    shared digits W, the complementary digit pair D and independent tails G,
    and E[B2(X) B2(X')] is expanded over every mixed moment of the parts."""
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


class TestFirstNonzeroDigitPos:
    @pytest.mark.parametrize("b,m", [(2, 4), (3, 3), (2, 1), (3, 1), (2, 13), (3, 6)])
    def test_matches_direct_expansion(self, b, m):
        coords = np.arange(b**m, dtype=np.uint64)
        pos = first_nonzero_digit_pos(coords, b, m)
        for v, p in zip(coords, pos):
            digs = [(int(v) // b**(m - 1 - t)) % b for t in range(m)]
            expect = next((t + 1 for t, d in enumerate(digs) if d), 0)
            assert p == expect


class TestDualWeightedMerit:
    @pytest.mark.parametrize("b,m,q", [(2, 3, [1, 5]), (2, 4, [3, 9]), (3, 2, [1, 4])])
    def test_matches_bruteforce(self, b, m, q):
        gv = gv_for(b, m, q)
        w = [0.9, 0.4]
        merit = DualWeightedMerit(b, m, w)
        running = merit.start(b**m)
        cols = plr_points(gv).coords
        for j in range(2):
            running = merit.extend(running, cols[:, j], j)
        assert float(np.mean(running) - 1.0) == pytest.approx(
            dual_merit_bruteforce(gv, w), rel=1e-10
        )


class TestSearch:
    def test_one_dim_tie_breaks_to_one(self):
        gv = search_generating_vector(1, 2, F2)
        assert gv.q == (1,)

    def test_deterministic(self):
        a = search_generating_vector(2, 5, F2)
        b = search_generating_vector(2, 5, F2)
        assert a.q == b.q

    @pytest.mark.parametrize("b,s,alpha,name", [
        (2, 0, 1, "s"), (2, -1, 1, "s"), (2, 0, 2, "s"), (3, 0, 1, "s"),
        (2, 2, 0, "alpha"), (2, 0, 0, "alpha"), (2, 1, -1, "alpha"), (3, 2, 0, "alpha"),
    ])
    def test_rejects_nonpositive_s_or_alpha(self, b, s, alpha, name):
        with pytest.raises(ValueError, match=rf"\b{name} must be >= 1"):
            search_generating_vector(s, 3, FieldBase(b), alpha=alpha)

    @pytest.mark.parametrize("b,m", [*[(2, m) for m in range(1, 15)], *[(3, m) for m in range(1, 9)],
                                     *[(5, m) for m in range(1, 6)], *[(7, m) for m in range(1, 5)]])
    def test_leading_positions_match_column_oracle(self, b, m):
        # the CBC search reads the first nonzero digit of each point of the
        # q = 1 column off the digit count of h; the column itself agrees
        col = column_oracle(b, m, irreducible_modulus(b, m), 1)
        assert np.array_equal(_leading_positions(b, m), first_nonzero_digit_pos(col, b, m))

    def test_cbc_beats_all_ones_merit(self):
        w = [1.0, 1.0]
        gv = search_generating_vector(2, 4, F2)
        assert dual_merit_bruteforce(gv, w) <= dual_merit_bruteforce(
            gv_for(2, 4, [1, 1]), w
        ) + 1e-12

    @pytest.mark.parametrize("decay", [0.0, 2.0], ids=["unweighted", "poly2"])
    @pytest.mark.parametrize("b,m,s,alpha", [
        (b, m, s, alpha)
        for b, m_max, alphas in ((2, 6, (1,)), (3, 3, (1, 2)))
        for m in range(1, m_max + 1)
        for alpha in alphas
        for s in range(alpha, 5, alpha)
    ])
    def test_matches_cbc_oracle(self, b, m, s, alpha, decay):
        # the FFT correlation must pick the vector of the direct candidate
        # loop, down to the trivial group at b^m = 2.  The search gives
        # stream r = 1..alpha the factor b^(2(alpha - r)); poly2 scales the
        # factors of output coordinate j by j^-2, so the correlation also
        # meets factors that differ between coordinates at alpha = 1
        cw = [(j // alpha + 1) ** -decay * float(b) ** (2 * (alpha - 1 - j % alpha))
              for j in range(s)]
        chosen = cbc_oracle(m, FieldBase(b), cw, 2.0 * alpha)
        assert list(_cbc_fast(s, m, FieldBase(b), cw, 2.0 * alpha).q) == chosen
        if not decay:
            assert list(search_generating_vector(s, m, FieldBase(b), alpha=alpha).q) == chosen


class TestScrambleVariance:
    def test_rho_table_diagonal_is_b2_variance(self):
        for alpha in (1, 2):
            full = _scramble_rho(4, alpha, np.array([5**alpha - 1]))  # t = (4, ..., 4)
            assert full[0] == pytest.approx(1 / 180, rel=1e-12)

    @pytest.mark.parametrize("m,alpha", [
        *[(m, alpha) for alpha in (1, 2, 3) for m in range(1, 7)],
        *[(m, 4) for m in range(1, 4)],
        (10, 2), (10, 3),  # the deepest workload shapes
        *[(m, alpha) for alpha in (5, 6) for m in (1, 2)],
    ])
    def test_rho_table_matches_oracle(self, m, alpha):
        # both compute the same exact rational and round it once, at every
        # index of the grid
        shape = (m + 1,) * alpha
        rho = _scramble_rho(m, alpha, np.arange(math.prod(shape))).reshape(shape)
        assert np.array_equal(rho, rho_table_oracle(m, alpha))

    def test_rho_table_memory(self):
        # the variance search of m = 9, alpha 6 in a fresh interpreter: rho
        # is evaluated in exact integers at the depth tuples the points
        # reach, so the peak RSS (VmHWM), import included, stays under 128 MB
        code = (
            "from cdquad.gfpoly import FieldBase\n"
            "from cdquad.lattice import search_generating_vector\n"
            "search_generating_vector(6, 9, FieldBase(2), alpha=6)\n"
            "print(hwm())\n"
        )
        assert fresh_interpreter(code) < 128

    def test_rho_evaluated_once_at_reached_tuples(self, monkeypatch):
        # the (10, 7) search reads a small share of the 11^7 depth tuples,
        # and evaluates each one once
        seen = []

        def recording(m, alpha, flat):
            seen.extend(flat.tolist())
            return _scramble_rho(m, alpha, flat)

        monkeypatch.setattr(lattice, "_scramble_rho", recording)
        search_generating_vector(7, 10, F2, alpha=7)
        assert len(set(seen)) == len(seen) < 11**7 // 100

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            scramble_variance(F2, 3, irreducible_modulus(2, 3), [[1, 2]], 0)

    @pytest.mark.parametrize("m,alpha", [(10, 8), (11, 7), (10, 12), (1, 64), (10, 19)])
    def test_depth_tuples_past_the_limit_rejected(self, m, alpha):
        # rho and its flags take 9 bytes a depth tuple; past the limit the
        # variance is refused before they or the depths are allocated, also
        # where (m+1)^alpha would overflow a 64-bit flat index
        need = 9 * (m + 1) ** alpha
        assert need > lattice.MAX_RHO_BYTES
        q = np.ones((1, alpha), dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"m = {m}, alpha = {alpha} .* {need} bytes"):
                scramble_variance(F2, m, irreducible_modulus(2, m), q, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m", range(1, 9))
    def test_full_grid_is_stratified_sampling(self, m):
        # q = 1 puts one point in each cell of width w = 2^-m, and scrambling
        # leaves it uniform there: the variance of stratified sampling
        n = 2**m
        w = 1.0 / n
        cells = sum(w * w * (4 / 45 * w * w + (2 * i * w - 1) ** 2 / 12
                             + w * (2 * i * w - 1) / 6) for i in range(n))
        assert variance_of(gv_for(2, m, [1]), 1) == pytest.approx(cells / n**2, rel=1e-10)

    def test_model_matches_empirical(self):
        # the exact covariance model must predict the measured scrambled-rule
        # variance of B2 on the same net
        m, alpha = 8, 2
        gv = search_generating_vector(alpha, m, F2, alpha=alpha)
        model = variance_of(gv, alpha)
        spec = RuleSpec(kind="plr", u=(1,), n=2**m, seed=5, alpha=alpha)
        assert spec.vector == gv
        est = empirical_variance(
            spec, lambda x: x[..., 0] ** 2 - x[..., 0] + 1 / 6, 800
        )
        assert abs(model - est.variance) <= 5 * est.stderr_variance

    def test_search_beats_all_ones(self):
        m, alpha = 6, 2
        chosen = search_generating_vector(alpha, m, F2, alpha=alpha)
        ones = gv_for(2, m, [1] * alpha)
        assert variance_of(chosen, alpha) <= variance_of(ones, alpha)

    def test_column_depths_are_shared_across_vectors(self, monkeypatch):
        # vectors scored together build one depth row per distinct column,
        # and each vector's variance is that of its own lattice columns
        built = []

        def recording(m, p, qs):
            built.append(list(qs))
            return _depths(m, p, qs)

        monkeypatch.setattr(lattice, "_depths", recording)
        encs = [[3, 9], [9, 3], [3, 5], [5, 9]]
        batch = scramble_variance(F2, 5, irreducible_modulus(2, 5), encs, 2, [2.0])
        assert built == [[3, 5, 9]]
        for row, v in zip(encs, batch):
            assert v == variance_oracle(gv_for(2, 5, row), 2, [2.0])

    @pytest.mark.parametrize("b,m", [(2, 1), (2, 5), (2, 10)])
    def test_depths_are_leading_zero_digits(self, b, m):
        # the depths of each column are those of the lattice column itself,
        # also when the columns are built over several chunks (m = 10), and
        # a repeated column gets the same row
        n = b**m
        qs = sorted({1, n // 3 + 1, n // 2, n - 1} - {0, n}) * 2 + list(range(1, min(n, 24)))
        p = irreducible_modulus(b, m)
        depths = _depths(m, p, qs)
        assert depths.shape == (len(qs), n) and depths.dtype == np.uint8
        coords = plr_points(GeneratingVector(FieldBase(b), m, p, tuple(qs))).coords
        for j in range(len(qs)):
            pos = first_nonzero_digit_pos(coords[:, j], b, m)
            assert np.array_equal(depths[j], np.where(pos == 0, m, pos - 1))

    @pytest.mark.parametrize("m", range(1, 15))
    def test_base2_depths_equal_first_nonzero_column_digit(self, m):
        # the depths are read off the column numerators; they are the first
        # nonzero digit of every point of the reference columns, over
        # several chunks of columns from m = 13 on
        n = 2**m
        qs = sorted({1, 2, 3, 5, 7, 11, n // 3 + 1, n // 2, n - 2, n - 1} & set(range(1, n)))
        p = irreducible_modulus(2, m)
        ref = (columns_reference(2, m, p, qs) != 0).argmax(axis=2).T
        ref[:, 0] = m
        assert np.array_equal(_depths(m, p, qs), ref)

    def test_nonnegative(self):
        # the merit is an exact variance, so it can never go negative
        for enc in (1, 3, 7, 11):
            gv = gv_for(2, 4, [enc, (enc * 5) % 15 + 1])
            assert variance_of(gv, 2) >= -1e-18

    def test_weights_scale_single_coordinate(self):
        gv = gv_for(2, 5, [3, 9])
        v1 = variance_of(gv, 2, [1.0])
        v4 = variance_of(gv, 2, [4.0])
        # one output coordinate: variance of sqrt(g) * B2-rule is linear in g
        assert v4 == pytest.approx(4 * v1, rel=1e-9)

    def test_base3_rejected(self):
        gv = gv_for(3, 2, [1, 2])
        with pytest.raises(ValueError):
            variance_of(gv, 2)


def variance_oracle(gv, alpha, coord_weights):
    """scramble_variance one vector at a time, from the lattice points: the
    leading-zero depths of each coordinate index the rho table, and the
    per-coordinate factors multiply as the running excess prod - 1."""
    m = gv.m
    coords = plr_points(gv).coords
    depths = [np.where((pos := first_nonzero_digit_pos(coords[:, j], 2, m)) == 0, m, pos - 1)
              for j in range(gv.s)]
    shape = (m + 1,) * alpha
    tab = _scramble_rho(m, alpha, np.arange(math.prod(shape))).reshape(shape)
    excess = np.zeros(gv.n)
    for j, w in enumerate(coord_weights):
        f = w * tab[tuple(depths[j * alpha + r] for r in range(alpha))]
        excess += f + excess * f
    return float(np.mean(excess))


def variance_search_oracle(s, m, alpha):
    """The variance search as a loop: one candidate drawn and scored at a
    time, a later candidate kept only when strictly better."""
    d = s // alpha
    modulus = irreducible_modulus(2, m)
    rng = np.random.default_rng([0x5CA1E, 2, m, d, alpha])
    best = None
    for _ in range(_VARIANCE_TRIALS):
        qs = tuple(int(rng.integers(1, 2**m)) for _ in range(s))
        v = variance_oracle(GeneratingVector(F2, m, modulus, qs), alpha, [1.0] * d)
        if best is None or v < best[0]:
            best = (v, qs)
    return best[1]


def _workload_shapes():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
    spec = json.loads(path.read_text())
    return sorted({tuple(shape) for w in spec.values() for shape in w["rule_shapes"]})


class TestBatchedVarianceSearch:
    @pytest.mark.parametrize("m,s,alpha", [*_workload_shapes(), (13, 6, 3)])
    def test_matches_one_at_a_time(self, m, s, alpha):
        # the criterion-4 and 5 benchmark shapes and the full criterion-4 size
        gv = search_generating_vector(s, m, F2, alpha=alpha)
        assert gv.q == variance_search_oracle(s, m, alpha)

    def test_scramble_variance_matches_oracle(self):
        for m, encs, alpha, w in [(5, [3, 9], 2, [2.0]), (7, [5, 11, 90, 7, 3, 64], 3, [1.0, 0.25]),
                                  (4, [1, 2, 3, 4, 5, 6, 7, 8], 4, [0.5, 3.0])]:
            gv = gv_for(2, m, encs)
            assert variance_of(gv, alpha, w) == variance_oracle(gv, alpha, w)

    def test_batch_rows_are_single_vectors(self):
        # row t of a batch is the variance of vector t alone, bit for bit,
        # also when the batch is scored over several chunks (m = 10)
        m, alpha, w = 10, 2, [1.0, 0.5]
        q = np.random.default_rng(4).integers(1, 2**m, size=(12, 4))
        q[5] = q[2]
        batch = scramble_variance(F2, m, irreducible_modulus(2, m), q, alpha, w)
        assert batch.shape == (12,)
        for row, v in zip(q, batch):
            assert v == variance_of(gv_for(2, m, row), alpha, w)

    @pytest.mark.parametrize("q,w,match", [
        ([[1, 2, 3]], None, "multiple of alpha"),
        ([1, 2], None, r"q must be a \(T, d \* alpha\) array"),
        ([[0, 3]], None, "must lie in"),
        ([[1, 8]], None, "must lie in"),
        ([[1, 2]], [1.0, 1.0], "one weight per output coordinate"),
    ])
    def test_rejects_bad_batches(self, q, w, match):
        with pytest.raises(ValueError, match=match):
            scramble_variance(F2, 3, irreducible_modulus(2, 3), q, 2, w)

    @pytest.mark.parametrize("modulus", [9, 7, 19])
    def test_rejects_a_bad_modulus(self, modulus):
        # x^3 + 1 is reducible, x^2 + x + 1 and x^4 + x + 1 have the wrong degree
        with pytest.raises(ValueError, match="modulus must be irreducible of degree m = 3"):
            scramble_variance(F2, 3, modulus, [[1, 2]], 2)

    def test_search_memory(self):
        # the criterion-4 search (m = 13, s = 6, alpha 3) in a fresh
        # interpreter: past the 6.3 MB uint8 depth table of its 768 candidate
        # columns, every temporary is chunked, so its peak RSS (VmHWM; a
        # spawned child's ru_maxrss starts at its parent's peak) rises by
        # less than 24 MB over the import
        code = (
            "from cdquad.gfpoly import FieldBase\n"
            "from cdquad.lattice import search_generating_vector\n"
            "before = hwm()\n"
            "search_generating_vector(6, 13, FieldBase(2), alpha=3)\n"
            "print(hwm() - before)\n"
        )
        assert fresh_interpreter(code) < 24


class TestIrreducibleModulus:
    def test_degree_and_irreducibility(self):
        for b in (2, 3):
            for m in range(1, 8):
                p = irreducible_modulus(b, m)
                assert b**m <= p < b ** (m + 1)  # of degree m
                assert is_irreducible(p, b)
