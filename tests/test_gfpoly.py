"""Exact arithmetic over F_b[x] and Laurent-series digit extraction."""

import itertools

import pytest
from hypothesis import given, strategies as st

from cdquad.gfpoly import (
    FieldBase,
    PolyGF,
    is_irreducible,
    laurent_digits,
    poly_from_int,
)

F2 = FieldBase(2)
F3 = FieldBase(3)


def P(enc, base=F2):
    return poly_from_int(enc, base)


def all_polys(base, max_degree):
    """All polynomials of degree <= max_degree, in encoding order."""
    for k in range(base.b ** (max_degree + 1)):
        yield poly_from_int(k, base)


class TestFieldBase:
    def test_prime_accepted(self):
        assert FieldBase(2).b == 2
        assert FieldBase(13).b == 13

    @pytest.mark.parametrize("b", [0, 1, 4, 6, 9])
    def test_composite_rejected(self, b):
        with pytest.raises(ValueError):
            FieldBase(b)


class TestPolyFromInt:
    def test_zero(self):
        assert P(0).is_zero()
        assert P(0).degree == -1

    def test_five_base2(self):
        # 5 = 101_2 -> 1 + x^2
        assert P(5).coeffs == (1, 0, 1)

    def test_seven_base3(self):
        # 7 = 21_3 -> 1 + 2x
        assert P(7, F3).coeffs == (1, 2)

    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 5]))
    def test_round_trip(self, k, b):
        assert P(k, FieldBase(b)).encode() == k

    def test_injective(self):
        for b in (2, 3):
            base = FieldBase(b)
            seen = {P(k, base).coeffs for k in range(b**4)}
            assert len(seen) == b**4


class TestRingLaws:
    def test_exhaustive_small(self):
        # commutativity / associativity / distributivity, b in {2, 3}, deg <= 2
        for b in (2, 3):
            base = FieldBase(b)
            polys = list(all_polys(base, 2))
            for a, c in itertools.product(polys, repeat=2):
                assert (a + c).coeffs == (c + a).coeffs
                assert (a * c).coeffs == (c * a).coeffs
            for a, c, d in itertools.islice(
                itertools.product(polys, repeat=3), 0, None, 7
            ):
                assert ((a + c) + d).coeffs == (a + (c + d)).coeffs
                assert ((a * c) * d).coeffs == (a * (c * d)).coeffs
                assert (a * (c + d)).coeffs == (a * c + a * d).coeffs

    def test_divmod(self):
        for b in (2, 3):
            base = FieldBase(b)
            for ae in range(1, 40):
                for de in range(1, 12):
                    a, d = P(ae, base), P(de, base)
                    q, r = divmod(a, d)
                    assert (q * d + r).coeffs == a.coeffs
                    assert r.degree < d.degree


class TestPolyMulMod:
    def test_x_squared_reduction(self):
        # x * x mod (x^2 + x + 1) = x + 1 over F_2
        assert ((P(2) * P(2)) % P(7)).coeffs == (1, 1)

    def test_identity(self):
        c = P(6)
        assert ((P(1) * c) % P(8)).coeffs == (c % P(8)).coeffs

    def test_square_of_x_plus_one(self):
        # (x+1)^2 = x^2 + 1 = x mod (x^2+x+1) over F_2
        assert ((P(3) * P(3)) % P(7)).coeffs == (0, 1)


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(P(7))          # x^2 + x + 1 over F_2
        assert not is_irreducible(P(5))      # x^2 + 1 = (x+1)^2 over F_2
        assert is_irreducible(P(3, F3))      # x over F_3, degree 1

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(P(1))

    def test_counts_base2(self):
        # number of irreducible degree-d polynomials over F_2: 1, 2, 3 for
        # degrees 2, 3, 4 (times the single leading coefficient)
        counts = {d: 0 for d in (2, 3, 4)}
        for enc in range(4, 32):
            p = P(enc)
            if p.degree in counts and is_irreducible(p):
                counts[p.degree] += 1
        assert counts == {2: 1, 3: 2, 4: 3}


class TestLaurentDigits:
    def test_inverse_of_modulus(self):
        d = laurent_digits(P(1), P(7), 3)
        assert d.digits == (0, 1, 1)

    def test_zero_numerator(self):
        assert laurent_digits(P(0), P(13), 4).digits == (0, 0, 0, 0)

    def test_x_over_modulus(self):
        assert laurent_digits(P(2), P(7), 2).digits == (1, 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            laurent_digits(P(1), P(0), 3)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=255),
        st.integers(min_value=1, max_value=10),
        st.sampled_from([2, 3]),
    )
    def test_division_remainder_property(self, ne, de, m, b):
        # the digits expand the fractional part (num mod den)/den, so
        # den * expansion differs from (num mod den) * x^m only in Laurent
        # terms x^{-l} with l > m - deg(den)
        base = FieldBase(b)
        num, den = P(ne, base), P(de, base)
        frac = num % den
        d = laurent_digits(num, den, m)
        # expansion as a polynomial in x^{-1}: multiply through by x^m
        exp_poly = PolyGF(base, tuple(reversed(d.digits)))
        diff = den * exp_poly - frac * PolyGF(base, (0,) * m + (1,))
        assert diff.is_zero() or diff.degree < den.degree


class TestHelpers:
    def test_all_polys_count(self):
        assert len(list(all_polys(F2, 3))) == 16
        assert len(list(all_polys(F3, 2))) == 27
