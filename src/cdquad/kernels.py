"""Unanchored Sobolev kernel of integer smoothness, built from Bernoulli polynomials.

Bernoulli coefficients are precomputed as exact rationals up to degree 12
(smoothness up to 6), so evaluation at Fractions is exact and floating
evaluation carries no recurrence round-off.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

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


def kernel_diag(chi: int, a) -> float:
    """k_chi(a, a), the anchor diagonal used by the planner."""
    return k_chi(chi, a, a)

