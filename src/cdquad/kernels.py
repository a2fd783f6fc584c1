"""Unanchored Sobolev kernel of integer smoothness, built from Bernoulli polynomials.

Bernoulli coefficients are precomputed as exact rationals up to degree 12
(smoothness up to 6), so scalar diagnostics like the kernel mean come out as
exact fractions and floating evaluation carries no recurrence round-off.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Mapping

import numpy as np

MAX_CHI = 6
_MAX_DEGREE = 2 * MAX_CHI


@lru_cache(maxsize=None)
def _bernoulli_numbers(n_max: int) -> tuple[Fraction, ...]:
    # recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0, with B_1 = -1/2
    bs = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n + 1, k) * bs[k]
        bs.append(-acc / (n + 1))
    return tuple(bs)


@lru_cache(maxsize=None)
def bernoulli_coeffs(tau: int) -> tuple[Fraction, ...]:
    """Exact coefficients of B_tau(x), lowest degree first."""
    if not 0 <= tau <= _MAX_DEGREE:
        raise ValueError(f"degree {tau} outside precomputed range [0, {_MAX_DEGREE}]")
    nums = _bernoulli_numbers(tau)
    coeffs = [Fraction(0)] * (tau + 1)
    for k in range(tau + 1):
        coeffs[k] = comb(tau, k) * nums[tau - k]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _float_coeffs_high_first(tau: int) -> tuple[float, ...]:
    return tuple(float(c) for c in reversed(bernoulli_coeffs(tau)))


def bernoulli(tau: int, x):
    """Evaluate B_tau(x); exact when x is a Fraction, float otherwise.

    Accepts scalars or numpy arrays.
    """
    if isinstance(x, Fraction):
        acc = Fraction(0)
        for c in reversed(bernoulli_coeffs(tau)):
            acc = acc * x + c
        return acc
    xf = np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)
    acc, *rest = _float_coeffs_high_first(tau)
    if not rest:  # B_0 = 1, shaped like x
        return acc + 0.0 * xf
    for c in rest:
        acc = acc * xf + c
    return acc


def k_chi(chi: int, x, y):
    """Kernel value sum_{t=1}^chi B_t(x)B_t(y)/(t!)^2 + (-1)^{chi+1} B_{2chi}(|x-y|)/(2chi)!.

    Vectorizes over numpy arrays; exact over Fractions.
    """
    if chi < 1:
        raise ValueError("smoothness must be >= 1")
    exact = isinstance(x, Fraction) and isinstance(y, Fraction)
    acc = Fraction(0) if exact else 0.0
    for t in range(1, chi + 1):
        ft = factorial(t)
        if exact:
            acc += bernoulli(t, x) * bernoulli(t, y) / (ft * ft)
        else:
            acc = acc + bernoulli(t, x) * bernoulli(t, y) / float(ft * ft)
    sign = 1 if chi % 2 == 1 else -1
    if exact:
        diff = x - y if x >= y else y - x
        acc += sign * bernoulli(2 * chi, diff) / factorial(2 * chi)
    else:
        acc = acc + sign * bernoulli(2 * chi, np.abs(np.asarray(x) - np.asarray(y))) / float(factorial(2 * chi))
        if np.ndim(acc) == 0:
            acc = float(acc)
    return acc


def k_u(chi: int, u: Iterable[int], x: Mapping[int, float], y: Mapping[int, float]):
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
        acc += _poly_integral_01(sq) / (factorial(t) ** 2)
    sign = 1 if chi % 2 == 1 else -1
    acc += sign * Fraction(bernoulli_coeffs(2 * chi)[0]) / factorial(2 * chi)
    return acc


def kernel_diag(chi: int, a) -> float:
    """k_chi(a, a), the anchor diagonal used by the planner."""
    return k_chi(chi, a, a)

