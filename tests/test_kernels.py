"""Bernoulli polynomials, the unanchored Sobolev kernel, and the product
kernel and kernel mean of the analysis (test-local oracles)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cdquad.kernels import (
    bernoulli,
    bernoulli_coeffs,
    k_chi,
    kernel_diag,
)


def k_u(chi: int, u, x, y):
    """Product kernel over the coordinate set u; the empty product is 1."""
    u = tuple(u)
    acc = 1.0 if not any(isinstance(x.get(j), Fraction) for j in u) else Fraction(1)
    for j in u:
        if j not in x or j not in y:
            raise KeyError(f"coordinate {j} missing from the evaluation point")
        acc = acc * k_chi(chi, x[j], y[j])
    return acc


def _poly_mul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_integral_01(a: tuple[Fraction, ...]) -> Fraction:
    return sum((c / (i + 1) for i, c in enumerate(a)), Fraction(0))


def kernel_mean_M(chi: int) -> Fraction:
    """Exact value of the diagonal integral int_0^1 k_chi(x, x) dx."""
    if chi < 1:
        raise ValueError("smoothness must be >= 1")
    acc = Fraction(0)
    for t in range(1, chi + 1):
        sq = _poly_mul(bernoulli_coeffs(t), bernoulli_coeffs(t))
        acc += _poly_integral_01(sq) / (math.factorial(t) ** 2)
    sign = 1 if chi % 2 == 1 else -1
    acc += sign * Fraction(bernoulli_coeffs(2 * chi)[0]) / math.factorial(2 * chi)
    return acc


def gauss_legendre_integral(f, nodes=48, split=None):
    """Integral over [0, 1]; `split` places a panel boundary at a kink."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = (x + 1) / 2
    w = w / 2
    total = 0.0
    lo = 0.0
    for hi in ([split] if split not in (None, 0.0, 1.0) else []) + [1.0]:
        total += float(np.sum(w * f(lo + (hi - lo) * x)) * (hi - lo))
        lo = hi
    return total


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(1, 0.5) == 0
        assert bernoulli(2, 0.0) == pytest.approx(1 / 6, abs=1e-15)
        assert bernoulli(2, 0.5) == pytest.approx(-1 / 12, abs=1e-15)
        assert bernoulli(4, 0.0) == pytest.approx(-1 / 30, abs=1e-15)

    @pytest.mark.parametrize("tau", range(0, 13))
    def test_float_path_matches_fraction_path(self, tau):
        # at random points, in and outside [0, 1]: the float Horner agrees
        # with the exact evaluation, and equals bit for bit the Horner that
        # starts from 0.0 * x + c, whose first pass only rebuilds the leading
        # coefficient for finite x
        rng = np.random.default_rng(tau)
        x = np.concatenate([rng.random(200), rng.uniform(-3.0, 4.0, 50), [0.0, -0.0, 1.0]])
        got = bernoulli(tau, x)
        assert got.shape == x.shape and got.dtype == np.float64
        exact = np.array([float(bernoulli(tau, Fraction(v))) for v in x])
        scale = np.maximum(1.0, np.abs(x)) ** tau * 2.0**tau
        assert np.all(np.abs(got - exact) <= 1e-13 * scale)
        from_zero = 0.0
        for c in reversed(bernoulli_coeffs(tau)):
            from_zero = from_zero * x + float(c)
        assert np.array_equal(got, from_zero)
        assert [bernoulli(tau, float(v)) for v in x[:5]] == from_zero[:5].tolist()

    def test_coefficients_exact(self):
        assert bernoulli_coeffs(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))

    @pytest.mark.parametrize("tau", range(1, 9))
    def test_zero_mean(self, tau):
        val = gauss_legendre_integral(lambda x: bernoulli(tau, x))
        assert abs(val) < 1e-14

    def test_vectorized(self):
        x = np.linspace(0, 1, 7)
        assert np.allclose(bernoulli(2, x), x**2 - x + 1 / 6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli(13, 0.5)


class TestKChi:
    def test_chi1_origin(self):
        # k_1(0,0) = B_1(0)^2 + B_2(0)/2 = 1/4 + 1/12 = 1/3
        assert k_chi(1, 0.0, 0.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for chi in (1, 2, 3):
            for x, y in rng.random((20, 2)):
                assert k_chi(chi, x, y) == pytest.approx(k_chi(chi, y, x), abs=1e-15)

    @pytest.mark.parametrize("chi", [1, 2, 3])
    def test_mean_zero(self, chi):
        for y in (0.0, 0.3, 0.5, 0.9):
            # the kernel has a kink at x = y; integrate piecewise
            val = gauss_legendre_integral(
                lambda x: k_chi(chi, x, np.full_like(x, y)), split=y
            )
            assert abs(val) < 1e-10

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        for chi in (1, 2):
            pts = rng.random(8)
            gram = np.array([[k_chi(chi, a, b) for b in pts] for a in pts])
            assert np.linalg.eigvalsh(gram).min() >= -1e-9


class TestKu:
    def test_empty_set(self):
        assert k_u(1, (), {}, {}) == 1.0

    def test_singleton_reduces(self):
        assert k_u(1, (3,), {3: 0.2}, {3: 0.6}) == pytest.approx(
            k_chi(1, 0.2, 0.6), abs=1e-15
        )

    def test_product_at_origin(self):
        x = {1: 0.0, 2: 0.0}
        assert k_u(1, (1, 2), x, x) == pytest.approx(1 / 9, abs=1e-14)

    def test_factorizes(self):
        rng = np.random.default_rng(2)
        x = {j: rng.random() for j in range(1, 5)}
        y = {j: rng.random() for j in range(1, 5)}
        whole = k_u(2, (1, 2, 3, 4), x, y)
        assert whole == pytest.approx(
            k_u(2, (1, 2), x, y) * k_u(2, (3, 4), x, y), rel=1e-12
        )

    def test_missing_coordinate(self):
        with pytest.raises(KeyError):
            k_u(1, (1, 2), {1: 0.5}, {1: 0.5, 2: 0.5})


class TestScalars:
    def test_M_chi1(self):
        assert kernel_mean_M(1) == Fraction(1, 6)

    @pytest.mark.parametrize("chi", [1, 2, 3])
    def test_M_matches_quadrature(self, chi):
        val = gauss_legendre_integral(lambda x: np.array([k_chi(chi, t, t) for t in x]))
        assert float(kernel_mean_M(chi)) == pytest.approx(val, abs=1e-12)
        assert kernel_mean_M(chi) > 0

    def test_kernel_diag_half(self):
        # anchor a = 1/2 minimizes k_1(a,a): B_1(1/2) = 0 leaves B_2(0)/2
        assert kernel_diag(1, 0.5) == pytest.approx(1 / 12, abs=1e-15)
        grid = np.linspace(0, 1, 101)
        assert min(kernel_diag(1, a) for a in grid) == pytest.approx(
            kernel_diag(1, 0.5), abs=1e-12
        )
