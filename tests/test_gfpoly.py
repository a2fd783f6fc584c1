"""Exact arithmetic over F_b[x] on integer encodings and Laurent-series digit
extraction."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cdquad.gfpoly import (
    FieldBase,
    _coeffs,
    _divmod,
    _encode,
    is_irreducible,
    laurent_digits,
    poly_mulmod,
)


def all_polys(b, max_degree):
    """Encodings of all polynomials of degree <= max_degree, in order."""
    return range(b ** (max_degree + 1))


def degree(k, b):
    """Degree of the polynomial k encodes, -1 for zero."""
    return len(_coeffs(k, b)) - 1


def add(a, c, b, sign=1):
    """Coefficientwise a + sign * c over F_b."""
    x, y = _coeffs(a, b), _coeffs(c, b)
    return _encode([(u + sign * v) % b for u, v in itertools.zip_longest(x, y, fillvalue=0)], b)


def mul(a, c, b):
    """The plain product: every product in these tests has degree < 32, so
    reducing it mod x^32 leaves it as it is."""
    return poly_mulmod(a, c, b**32, b)


def mod(a, p, b):
    """a mod p, as a times 1 mod p."""
    return poly_mulmod(a, 1, p, b)


def mobius(n):
    """The Moebius function mu(n)."""
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


class TestFieldBase:
    def test_prime_accepted(self):
        assert FieldBase(2).b == 2
        assert FieldBase(13).b == 13

    @pytest.mark.parametrize("b", [0, 1, 4, 6, 9])
    def test_composite_rejected(self, b):
        with pytest.raises(ValueError):
            FieldBase(b)


class TestPolyFromInt:
    """The polynomial an integer encodes: its base-b digits, lowest first."""

    def test_zero(self):
        assert _coeffs(0, 2) == []
        assert degree(0, 2) == -1

    def test_five_base2(self):
        # 5 = 101_2 -> 1 + x^2
        assert _coeffs(5, 2) == [1, 0, 1]

    def test_seven_base3(self):
        # 7 = 21_3 -> 1 + 2x
        assert _coeffs(7, 3) == [1, 2]

    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 5]))
    def test_round_trip(self, k, b):
        assert _encode(_coeffs(k, b), b) == k

    def test_injective(self):
        for b in (2, 3):
            seen = {tuple(_coeffs(k, b)) for k in range(b**4)}
            assert len(seen) == b**4


class TestRingLaws:
    def test_exhaustive_small(self):
        # commutativity / associativity / distributivity, b in {2, 3}, deg <= 2
        for b in (2, 3):
            polys = list(all_polys(b, 2))
            for a, c in itertools.product(polys, repeat=2):
                assert add(a, c, b) == add(c, a, b)
                assert mul(a, c, b) == mul(c, a, b)
            for a, c, d in itertools.islice(
                itertools.product(polys, repeat=3), 0, None, 7
            ):
                assert add(add(a, c, b), d, b) == add(a, add(c, d, b), b)
                assert mul(mul(a, c, b), d, b) == mul(a, mul(c, d, b), b)
                assert mul(a, add(c, d, b), b) == add(mul(a, c, b), mul(a, d, b), b)

    def test_divmod(self):
        for b in (2, 3):
            for ae in range(1, 40):
                for de in range(1, 12):
                    q, r = (_encode(cs, b) for cs in _divmod(_coeffs(ae, b), _coeffs(de, b), b))
                    assert add(mul(q, de, b), r, b) == ae
                    assert degree(r, b) < degree(de, b)


class TestPolyMulMod:
    def test_x_squared_reduction(self):
        # x * x mod (x^2 + x + 1) = x + 1 over F_2
        assert _coeffs(poly_mulmod(2, 2, 7, 2), 2) == [1, 1]

    def test_identity(self):
        # deg c < deg p, so c mod p = c
        assert poly_mulmod(1, 6, 8, 2) == mod(6, 8, 2) == 6

    def test_square_of_x_plus_one(self):
        # (x+1)^2 = x^2 + 1 = x mod (x^2+x+1) over F_2
        assert _coeffs(poly_mulmod(3, 3, 7, 2), 2) == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=5), st.data())
    def test_field_laws(self, b, m, data):
        # under an irreducible modulus of degree m, the residues of degree < m
        # form the field F_{b^m}
        p = data.draw(st.integers(b**m, 2 * b**m - 1).filter(lambda p: is_irreducible(p, b)))
        a, c, e = (data.draw(st.integers(0, b**m - 1)) for _ in range(3))
        assert poly_mulmod(a, c, p, b) == poly_mulmod(c, a, p, b)
        assert (poly_mulmod(poly_mulmod(a, c, p, b), e, p, b)
                == poly_mulmod(a, poly_mulmod(c, e, p, b), p, b))
        assert poly_mulmod(1, a, p, b) == a
        if a and c:
            assert poly_mulmod(a, c, p, b) != 0


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(7, 2)          # x^2 + x + 1 over F_2
        assert not is_irreducible(5, 2)      # x^2 + 1 = (x+1)^2 over F_2
        assert is_irreducible(3, 3)          # x over F_3, degree 1

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(1, 2)

    def test_counts_base2(self):
        # number of irreducible degree-d polynomials over F_2: 1, 2, 3 for
        # degrees 2, 3, 4 (times the single leading coefficient)
        counts = {d: 0 for d in (2, 3, 4)}
        for enc in range(4, 32):
            if degree(enc, 2) in counts and is_irreducible(enc, 2):
                counts[degree(enc, 2)] += 1
        assert counts == {2: 1, 3: 2, 4: 3}
        # the monic irreducibles of every degree d, against Gauss's formula
        # (1/d) sum_{k | d} mu(k) b^{d/k}
        for b, top in ((2, 8), (3, 5), (5, 3)):
            for d in range(1, top + 1):
                count = sum(is_irreducible(p, b) for p in range(b**d, 2 * b**d))
                gauss = sum(mobius(k) * b ** (d // k) for k in range(1, d + 1) if d % k == 0)
                assert count * d == gauss, (b, d)


class TestLaurentDigits:
    def test_inverse_of_modulus(self):
        assert laurent_digits(1, 7, 3, 2) == (0, 1, 1)

    def test_zero_numerator(self):
        assert laurent_digits(0, 13, 4, 2) == (0, 0, 0, 0)

    def test_x_over_modulus(self):
        assert laurent_digits(2, 7, 2, 2) == (1, 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            laurent_digits(1, 0, 3, 2)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=255),
        st.integers(min_value=1, max_value=10),
        st.sampled_from([2, 3]),
    )
    def test_division_remainder_property(self, num, den, m, b):
        # the digits expand the fractional part (num mod den)/den, so
        # den * expansion differs from (num mod den) * x^m only in Laurent
        # terms x^{-l} with l > m - deg(den)
        frac = mod(num, den, b)
        d = laurent_digits(num, den, m, b)
        # expansion as a polynomial in x^{-1}: multiply through by x^m
        exp_poly = _encode(list(reversed(d)), b)
        diff = add(mul(den, exp_poly, b), mul(frac, b**m, b), b, sign=-1)
        assert diff == 0 or degree(diff, b) < degree(den, b)


class TestHelpers:
    def test_all_polys_count(self):
        assert len(list(all_polys(2, 3))) == 16
        assert len(list(all_polys(3, 2))) == 27
